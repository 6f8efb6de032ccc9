"""quakesim: exact simulation and verification toolkit for a hybrid
stress-release / self-exciting earthquake point process.

The public names are declared once, in the `__all__` of each library
module, and the package re-exports them.  The command-line front end
(`quakesim.cli`) and the statistics helpers (`quakesim.stats`) are imported
by name; `import quakesim` does not load `cli`.
"""

from . import analysis, chain, foster, model, streams, thinning
from .analysis import *
from .chain import *
from .foster import *
from .model import *
from .streams import *
from .thinning import *

__version__ = "0.1.0"

__all__ = [
    *analysis.__all__,
    *chain.__all__,
    *foster.__all__,
    *model.__all__,
    *streams.__all__,
    *thinning.__all__,
    "__version__",
]
