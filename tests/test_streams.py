import pytest

from quakesim import master, substream


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: master(-1), "seed must be a 64-bit unsigned integer, got -1"),
        (lambda: master(2**64), f"seed must be a 64-bit unsigned integer, got {2**64}"),
        (lambda: substream(-1, 0), "seed must be a 64-bit unsigned integer, got -1"),
        (lambda: substream(2**64, 0), f"seed must be a 64-bit unsigned integer, got {2**64}"),
        (lambda: substream(0, -1), "index must be >= 0, got -1"),
    ],
    ids=["master-negative", "master-too-large", "substream-negative", "substream-too-large", "index"],
)
def test_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()
