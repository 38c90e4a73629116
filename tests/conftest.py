"""Shared fixtures and independent dense-matrix oracles.

The oracles here build the joint coin-walker evolution as explicit dense
matrices (Kronecker products of coin projectors with shift matrices) and
never touch the package's Laurent or amplitude code paths, so agreement is
a genuine cross-check.
"""

import numpy as np
import pytest

from coinwalk.engine import DensityMatrix, SiteDistribution, WalkConfig

P_GRID = (0.25, 1.0 / 3.0, 0.5, 0.75)
COIN_INITS = ((0.0, 1.0), (1.0 / np.sqrt(2.0), 1j / np.sqrt(2.0)))
#: A general unitary coin: a Hadamard coin with complex phases.
PHASED_COIN = np.array([[1.0, 1j], [1j, 1.0]]) * np.exp(0.3j) / np.sqrt(2.0)


@pytest.fixture
def symmetric():
    return WalkConfig.symmetric()


def dense_step_matrix(config: WalkConfig, size: int) -> np.ndarray:
    """The one-step unitary on coin (x) sites as a dense (2*size, 2*size) array."""
    u = config.coin_unitary
    e_plus = np.eye(size, k=-1)
    e_minus = np.eye(size, k=1)
    p_plus = np.diag([1.0, 0.0])
    p_minus = np.diag([0.0, 1.0])
    return np.kron(p_plus @ u, e_plus) + np.kron(p_minus @ u, e_minus)


def dense_global_distribution(config: WalkConfig, n: int) -> SiteDistribution:
    """Brute-force n-step distribution via dense joint-state evolution."""
    size = 2 * n + 1
    v = dense_step_matrix(config, size)
    walker = np.zeros(size, dtype=complex)
    walker[n] = 1.0
    psi = np.kron(np.array([config.c, config.d], dtype=complex), walker)
    psi = np.linalg.matrix_power(v, n) @ psi
    probs = np.abs(psi.reshape(2, size)) ** 2
    probs = probs.sum(axis=0)
    return SiteDistribution({k - n: p for k, p in enumerate(probs) if p > 1e-30})


def dense_delayed_diagonals(config: WalkConfig, m: int, iters: int):
    """Brute-force delayed-tracing walk: iterate V^m then trace the coin.

    Returns the site distribution after each iteration, index 0 being the
    initial origin state.
    """
    size = 2 * m * iters + 1
    center = m * iters
    v_m = np.linalg.matrix_power(dense_step_matrix(config, size), m)
    coin0 = np.outer([config.c, config.d], np.conj([config.c, config.d]))
    rho_w = np.zeros((size, size), dtype=complex)
    rho_w[center, center] = 1.0
    out = [_diag_distribution(rho_w, center)]
    for _ in range(iters):
        rho = np.kron(coin0, rho_w)
        rho = v_m @ rho @ v_m.conj().T
        blocks = rho.reshape(2, size, 2, size)
        rho_w = blocks[0, :, 0, :] + blocks[1, :, 1, :]
        out.append(_diag_distribution(rho_w, center))
    return out


def _diag_distribution(rho_w: np.ndarray, center: int) -> SiteDistribution:
    diag = np.diag(rho_w).real
    return SiteDistribution({k - center: p for k, p in enumerate(diag) if p > 1e-30})


def binomial_distribution(n: int, right: float) -> SiteDistribution:
    """Closed-form n-step two-point walk with right-move probability ``right``."""
    from math import comb

    probs = {}
    for k in range(n + 1):
        site = n - 2 * k
        probs[site] = comb(n, k) * right ** (n - k) * (1.0 - right) ** k
    return SiteDistribution({s: p for s, p in probs.items() if p > 0.0})


def dense_cp(rho: DensityMatrix, kraus):
    """Window start and dense sum_j A_j rho A_j^dagger, from Laurent dense realizations."""
    lo, hi = rho.site_range
    reach = max(abs(d) for op in kraus for d in op.support)
    window = range(lo - reach, hi + reach + 1)
    full = np.zeros((len(window), len(window)), dtype=complex)
    full[reach : reach + hi - lo + 1, reach : reach + hi - lo + 1] = rho.dense()
    mats = [op.to_dense(window) for op in kraus]
    return lo - reach, sum(a @ full @ a.conj().T for a in mats)


def window_of(rho: DensityMatrix, lo: int, size: int) -> np.ndarray:
    """rho's dense matrix placed in the window of ``size`` sites from ``lo``."""
    out = np.zeros((size, size), dtype=complex)
    a, b = rho.site_range
    out[a - lo : b - lo + 1, a - lo : b - lo + 1] = rho.dense()
    return out


def from_entries(entries) -> DensityMatrix:
    """A density matrix from ``{(i, j): value}``; every site must lie on ``lo + 2Z``."""
    sites = sorted({i for i, _ in entries} | {j for _, j in entries})
    lo = sites[0]
    if any((s - lo) % 2 for s in sites):
        raise ValueError(f"sites {sites} are not on one step-2 sublattice")
    mat = np.zeros(((sites[-1] - lo) // 2 + 1,) * 2, dtype=complex)
    for (i, j), v in entries.items():
        mat[(i - lo) // 2, (j - lo) // 2] = v
    return DensityMatrix(mat, lo)
