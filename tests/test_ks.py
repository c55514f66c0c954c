"""The package's KS test against scipy.stats.kstest, which serves as the oracle.

Samples are built to land D in each branch of the p-value computation,
and both the statistic and the p-value must equal scipy's bit for bit.
"""

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtri

from signoise._ks import _branch, _sf, ks_normal


def _sample(n, d, sd, seed):
    """n shuffled N(0, sd^2) quantiles, squeezed into [c, 1] so that D is near d."""
    c = (d - 0.5 / n) / (1.0 - 0.5 / n)
    u = c + (1.0 - c) * (np.arange(1, n + 1) - 0.5) / n
    return np.random.default_rng(seed).permutation(sd * ndtri(u))


# (branch, n, target D); n = 140 and 141 sit on either side of the small-N rules
CASES = [
    ("below-support", 2, 0.25),
    ("ruben-gambino", 10, 0.08),
    ("ruben-gambino", 140, 0.006),
    ("ruben-gambino", 1000, 0.0008),
    ("ruben-gambino-tail", 5, 0.9),
    ("ruben-gambino-tail", 200, 0.996),
    ("smirnov-exact", 20, 0.6),
    ("smirnov-exact", 500, 0.55),
    ("dmtw", 30, 0.12),
    ("dmtw", 140, 0.06),
    ("dmtw", 141, 0.04),
    ("dmtw", 2000, 0.007),
    ("pomeranz", 50, 0.25),
    ("pomeranz", 140, 0.1),
    ("miller", 100, 0.3),
    ("miller", 140, 0.2),
    ("smirnov", 141, 0.15),
    ("smirnov", 2000, 0.05),
    ("zero", 2000, 0.45),
    ("pelz-good", 141, 0.08),
    ("pelz-good", 2000, 0.02),
]


@pytest.mark.parametrize(
    "branch, n, d", CASES, ids=[f"{b}-n{n}" for b, n, _ in CASES]
)
def test_ks_normal_matches_scipy_in_every_branch(branch, n, d):
    for sd in (1.0, 0.7):
        x = _sample(n, d, sd, seed=n)
        want = stats.kstest(x, "norm", args=(0.0, sd))
        stat, pvalue = ks_normal(x, sd)
        assert _branch(n, np.float64(stat)) == branch
        assert stat == want.statistic and pvalue == want.pvalue, (stat, pvalue, want)


def test_ks_normal_matches_scipy_on_random_samples():
    rng = np.random.default_rng(23)
    for n in [2, 3, 7, 60, 139, 140, 141, 142, 400, 2000, *rng.integers(2, 2001, 190)]:
        n = int(n)
        sd = float(np.exp(rng.uniform(-1.0, 1.0)))
        x = rng.normal(rng.choice([0.0, 0.2, 1.5]), sd * rng.choice([1.0, 1.3]), n)
        want = stats.kstest(x, "norm", args=(0.0, sd))
        stat, pvalue = ks_normal(x, sd)
        assert stat == want.statistic and pvalue == want.pvalue, (n, stat, pvalue, want)


def test_the_t_below_half_branch_and_nan_match_kstwo():
    # just above kstwo's support end 0.5/n, n*x can still round down to 0.5
    n = 3
    x = np.nextafter(0.5 / n, 1.0)
    assert _branch(n, x) == "t<=0.5"
    assert _sf(n, x) == stats.kstwo.sf(x, n) == 1.0
    assert np.isnan(_sf(n, np.float64("nan"))) and np.isnan(stats.kstwo.sf(np.nan, n))
