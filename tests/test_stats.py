import math

import numpy as np
import pytest
import scipy.stats

from quakesim.stats import (
    batch_se,
    dominance_violation,
    ks_critical_value,
    ks_two_sample,
    mean_ci,
    one_sided_band,
)


class TestKS:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scipy(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=937)
        b = rng.normal(loc=0.3, size=1201)
        ours = ks_two_sample(a, b)
        ref = scipy.stats.ks_2samp(a, b, method="asymp").statistic
        assert ours == pytest.approx(ref, abs=1e-12)

    def test_handles_infinities(self):
        a = np.array([1.0, 2.0, np.inf, np.inf])
        b = np.array([1.5, 2.5, 3.0, np.inf])
        # F_a(2.5) = 0.5, F_b(2.5) = 0.5; biggest gap is at 1.0 or 3.0
        d = ks_two_sample(a, b)
        assert d == pytest.approx(0.25, abs=1e-12)

    def test_identical_samples(self):
        a = np.arange(10.0)
        assert ks_two_sample(a, a) == 0.0

    def test_critical_value_against_scipy(self):
        # the asymptotic two-sample threshold equals the Kolmogorov quantile
        # scaled by sqrt((n+m)/(n*m))
        n = m = 500
        ours = ks_critical_value(n, m, alpha=0.01)
        ref = scipy.stats.kstwobign.isf(0.01) * math.sqrt((n + m) / (n * m))
        assert ours == pytest.approx(ref, rel=0.01)

    def test_null_rejection_rate(self):
        rng = np.random.default_rng(3)
        n = 400
        rejections = 0
        trials = 300
        thr = ks_critical_value(n, n, alpha=0.05)
        for _ in range(trials):
            d = ks_two_sample(rng.normal(size=n), rng.normal(size=n))
            rejections += d > thr
        # level ~5%: allow generous slack around the binomial expectation
        assert rejections <= trials * 0.05 + 3 * math.sqrt(trials * 0.05 * 0.95) + 1


class TestDominance:
    def test_ordered_samples_have_zero_violation(self):
        rng = np.random.default_rng(4)
        lo = rng.exponential(size=5000)
        hi = lo + 0.5
        assert dominance_violation(hi, lo) == 0.0

    def test_violation_detects_reversal(self):
        rng = np.random.default_rng(5)
        lo = rng.exponential(size=5000)
        hi = lo + 0.5
        n = lo.size
        assert dominance_violation(lo, hi) > one_sided_band(n, n)

    def test_equal_laws_within_band(self):
        rng = np.random.default_rng(6)
        n = 20_000
        a = rng.exponential(size=n)
        b = rng.exponential(size=n)
        assert dominance_violation(a, b) <= one_sided_band(n, n, alpha=0.001)

    def test_thresholds_a_ks_distance_cannot_exceed_are_refused(self):
        # a KS distance is at most 1, so a band or critical value >= 1 is
        # a check that cannot fail
        with pytest.raises(ValueError, match="one-sided KS band 2.146 at alpha=0.01 is >= 1"):
            one_sided_band(1, 1)
        with pytest.raises(ValueError, match="KS critical value 2.302 at alpha=0.01 is >= 1"):
            ks_critical_value(1, 1)
        assert one_sided_band(5, 5) < 1.0 and ks_critical_value(6, 6) < 1.0

    def test_band_formula(self):
        # one-sided asymptotic band: sqrt(-ln(alpha)/2) * sqrt((n+m)/nm)
        assert one_sided_band(100, 100, alpha=0.01) == pytest.approx(
            math.sqrt(-math.log(0.01) / 2.0) * math.sqrt(0.02), rel=1e-12
        )


class TestMeanCI:
    def test_matches_numpy_moments(self):
        rng = np.random.default_rng(7)
        x = rng.normal(loc=3.0, scale=2.0, size=10_000)
        est = mean_ci(x)
        assert est.mean == pytest.approx(float(np.mean(x)), rel=1e-12)
        assert est.se == pytest.approx(float(np.std(x, ddof=1) / math.sqrt(x.size)), rel=1e-10)
        assert est.lo < est.mean < est.hi

    def test_huge_scale_does_not_overflow(self):
        rng = np.random.default_rng(8)
        x = (1.0 + 0.1 * rng.normal(size=5000)) * -1e300
        est = mean_ci(x)
        assert math.isfinite(est.mean) and math.isfinite(est.se)
        assert est.mean == pytest.approx(-1e300, rel=0.01)

    def test_coverage(self):
        rng = np.random.default_rng(9)
        misses = 0
        for _ in range(300):
            x = rng.normal(size=400)
            est = mean_ci(x)  # 99% interval
            misses += not (est.lo <= 0.0 <= est.hi)
        assert misses <= 10

    def test_needs_two(self):
        with pytest.raises(ValueError):
            mean_ci(np.array([1.0]))


def test_batch_se():
    rng = np.random.default_rng(10)
    v = rng.normal(size=20)
    assert batch_se(v) == pytest.approx(float(np.std(v, ddof=1) / math.sqrt(20)), rel=1e-12)
    assert math.isnan(batch_se(np.array([1.0])))


@pytest.mark.parametrize("statistic", [ks_two_sample, dominance_violation])
@pytest.mark.parametrize("a, b", [([], [1.0]), ([1.0], []), ([], [])])
def test_empty_sample_refused(statistic, a, b):
    with pytest.raises(ValueError, match="both samples must be non-empty"):
        statistic(np.array(a), np.array(b))
