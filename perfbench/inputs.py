"""Seeded input populations and independent numpy oracles for checking outputs.

Nothing here imports sysmean: the populations are generated and the expected
results recomputed with plain numpy, so a change to the program cannot change
the inputs or the reference values it is checked against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# (N, n) of the two populations the workloads use.
SMALL = (240, 12)
LARGE = (24000, 1200)

RHO_TARGET = 0.9
S2Y2_FACTOR = 0.75  # the CLI's default stratum mean square factor for theory-table


@dataclass(frozen=True)
class Population:
    path: Path
    y: np.ndarray
    x: np.ndarray
    n: int

    @property
    def N(self) -> int:
        return self.y.size

    @property
    def k(self) -> int:
        return self.N // self.n


def generate(N: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """x ~ U(20, 60), y = 10 + 3x + Gaussian noise sized for corr(y, x) ~ 0.9."""
    rng = np.random.default_rng([seed, N])
    x = rng.uniform(20.0, 60.0, N)
    noise_sd = 3.0 * x.std() * math.sqrt(1.0 / RHO_TARGET**2 - 1.0)
    y = 10.0 + 3.0 * x + rng.normal(0.0, noise_sd, N)
    return y, x


def write_population(directory: Path, size: tuple[int, int], seed: int) -> Population:
    """Write the seeded population as `y,x` CSV and read it back with numpy."""
    N, n = size
    y, x = generate(N, seed)
    path = directory / f"pop_{N}.csv"
    rows = "".join(f"{a!r},{b!r}\n" for a, b in zip(y.tolist(), x.tolist()))
    path.write_text("y,x\n" + rows, encoding="utf-8")
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if not (np.array_equal(table[:, 0], y) and np.array_equal(table[:, 1], x)):
        raise RuntimeError(f"{path} does not round-trip the generated values")
    return Population(path=path, y=y, x=x, n=n)


def intraclass(values: np.ndarray, n: int) -> float:
    """Within-sample pair correlation through the (n, k) reshape."""
    d = values - values.mean()
    total = float(np.dot(d, d))
    sums = d.reshape(n, -1).sum(axis=0)
    return (float(np.dot(sums, sums)) - total) / ((n - 1) * total)


def moments(y: np.ndarray, x: np.ndarray, n: int) -> dict[str, float]:
    """Every population parameter `sysmean params` reports."""
    mean_y, mean_x = float(y.mean()), float(x.mean())
    s2_y, s2_x = float(y.var(ddof=1)), float(x.var(ddof=1))
    cov = float(np.dot(y - mean_y, x - mean_x)) / (y.size - 1)
    return {
        "N": y.size,
        "n": n,
        "k": y.size // n,
        "mean_y": mean_y,
        "mean_x": mean_x,
        "s2_y": s2_y,
        "s2_x": s2_x,
        "cv_y": math.sqrt(s2_y) / abs(mean_y),
        "cv_x": math.sqrt(s2_x) / abs(mean_x),
        "rho": cov / math.sqrt(s2_y * s2_x),
        "rho_y": intraclass(y, n),
        "rho_x": intraclass(x, n),
    }


def sorted_by_x(pop: Population) -> tuple[np.ndarray, np.ndarray]:
    order = np.argsort(pop.x, kind="stable")
    return pop.y[order], pop.x[order]


def theory_row(m: dict[str, float], w2: float, ell: float, s2_y2: float) -> tuple[float, float]:
    """(variance of the adjusted mean, PRE of the optimum family member)."""
    N, n = m["N"], m["n"]
    sampling = (N - 1) / (n * N) * (1.0 + (n - 1) * m["rho_y"]) * m["s2_y"]
    follow_up = (ell - 1.0) / n * w2 * s2_y2
    variance = sampling + follow_up
    return variance, 100.0 * variance / (sampling * (1.0 - m["rho"] ** 2) + follow_up)


def fixed_stratum(N: int, w2: float, master_seed: int) -> np.ndarray:
    """0-based units of the fixed non-response stratum.

    Follows the documented stream layout: design-level draws use spawn key
    (0,) of the master seed, and the stratum is round(w2*N) units drawn
    without replacement.  The checker confirms the choice through the
    stratum mean square implied by the reported theory value.
    """
    rng = np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(0,)))
    return rng.choice(N, size=round(w2 * N), replace=False)


def follow_up_size(n2: int, ell: float) -> int:
    return 0 if n2 == 0 else max(1, round(n2 / ell))


def exact_hh_mse_fixed(pop: Population, stratum: np.ndarray, ell: float) -> float:
    """Exact design MSE of the Hansen-Hurwitz mean with a fixed stratum.

    mean over starts i of (n2_i/n)^2 (1/h2_i - 1/n2_i) s2_i + (mu_i - Ybar)^2,
    where s2_i is the mean square of y over the stratum units of sample i.
    """
    n = pop.n
    missing = np.zeros(pop.N, dtype=bool)
    missing[stratum] = True
    y = pop.y.reshape(n, -1)
    miss = missing.reshape(n, -1)
    total = 0.0
    for i in range(pop.k):
        col = y[:, i]
        nr = col[miss[:, i]]
        n2 = nr.size
        h2 = follow_up_size(n2, ell)
        if n2 >= 2 and h2 < n2:
            total += (n2 / n) ** 2 * (1.0 / h2 - 1.0 / n2) * float(nr.var(ddof=1))
        total += (float(col.mean()) - float(pop.y.mean())) ** 2
    return total / pop.k


def exact_hh_mse_bernoulli(pop: Population, w2: float, ell: float) -> float:
    """Exact design MSE of the Hansen-Hurwitz mean with Bernoulli non-response.

    Given the start i and n2 = m non-respondents, the non-respondents are a
    uniform m-subset of sample i, so the follow-up mean is unbiased for mu_i
    and E[s2 of the subset] = s2 of the whole sample.  Hence the MSE is
    mean_i c * s2_i + (mu_i - Ybar)^2 with
    c = sum_m Bin(m; n, w2) (m/n)^2 (1/h2_m - 1/m).
    """
    n = pop.n
    c = 0.0
    for m in range(2, n + 1):
        h2 = follow_up_size(m, ell)
        if h2 < m:
            log_p = (
                math.lgamma(n + 1) - math.lgamma(m + 1) - math.lgamma(n - m + 1)
                + m * math.log(w2) + (n - m) * math.log1p(-w2)
            )
            c += math.exp(log_p) * (m / n) ** 2 * (1.0 / h2 - 1.0 / m)
    y = pop.y.reshape(n, -1)
    s2 = y.var(axis=0, ddof=1)
    between = (y.mean(axis=0) - pop.y.mean()) ** 2
    return float(np.mean(c * s2 + between))


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)
