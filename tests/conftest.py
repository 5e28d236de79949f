"""Shared fixtures and independent oracles for the test suite."""
import contextlib
import warnings

import numpy as np
import pytest

from sysmean import FinitePopulation, PopulationMoments

# hypothesis imports this module to report a falsifying example, and its
# dependencies warn when first imported.  Inside a test marked
# filterwarnings("error") that warning would end the run with INTERNALERROR
# instead of the report, so the module is imported once here, outside any test.
with contextlib.suppress(ImportError), warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


def brute_force_intraclass(values, n, k):
    """O(k*n^2) double-sum oracle, independent of the library implementation.

    Sample i (0-based) holds positions i, i+k, ..., i+(n-1)k; deviations are
    taken from the grand mean.
    """
    values = [float(v) for v in values]
    grand = sum(values) / len(values)
    num = 0.0
    den = 0.0
    for i in range(k):
        members = [values[i + j * k] for j in range(n)]
        for j in range(n):
            den += (members[j] - grand) ** 2
            for l in range(n):
                if l != j:
                    num += (members[j] - grand) * (members[l] - grand)
    return num / ((n - 1) * den)


def random_population(rng, N):
    """Population with a rough linear y-x relationship plus noise."""
    x = rng.uniform(1.0, 9.0, N)
    y = 5.0 + 2.0 * x + rng.normal(0.0, 2.0, N)
    return FinitePopulation(y=y, x=x)


def random_moments(rng, n=None, with_s2y2=True):
    """One valid random parameter draw: (moments, n, N)."""
    n = n if n is not None else int(rng.integers(2, 25))
    k = int(rng.integers(2, 31))
    lower = -1.0 / (n - 1)
    s2_y = float(rng.uniform(1e-2, 1e4))
    m = PopulationMoments(
        mean_y=float(rng.uniform(0.5, 300.0)),
        mean_x=float(rng.uniform(0.5, 50.0)),
        s2_y=s2_y,
        s2_x=float(rng.uniform(1e-3, 1e2)),
        rho=float(rng.uniform(-0.98, 0.98)),
        rho_y=float(rng.uniform(0.9 * lower, 0.95)),
        rho_x=float(rng.uniform(0.9 * lower, 0.95)),
        s2_y2=float(rng.uniform(0.1, 1.5)) * s2_y if with_s2y2 else None,
    )
    return m, n, n * k


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
