"""Coin-walker step operator, Kraus generators, and exact walk evolution.

Three tracing schemes are supported:

* global  -- the coin is traced once, after all steps; distributions come
  from a single completely positive map with two Kraus generators, and
  ``global_trajectory`` evolves the joint amplitudes directly.
* delayed -- the coin is traced every m steps; ``cp_walk`` iterates a fixed
  CP map whose Kraus generators are those of an m-step global walk.
* prompt  -- the coin is traced after every step; the walk is a biased
  classical random walk and distributions are binomial.  It is the
  period-1 kernel walk, so it lives in :mod:`coinwalk.kernels`
  (``prompt_trajectory``, ``prompt_distribution``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from .laurent import IDENTITY, ZERO, CoinBlock, E_MINUS, E_PLUS, FiniteSequence, LaurentOperator

#: Normalization slack of the initial coin state, |c|^2 + |d|^2 - 1.
NORM_TOL = 1e-12
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
#: Largest coefficient deviation of sum_j A_j^dagger A_j from the identity.
COMPLETENESS_TOL = 1e-10
NEGATIVE_DUST = 1e-12
DIAGONAL_FLOOR = -1e-10


class KrausCompletenessError(ValueError):
    """Raised when a proposed Kraus family fails the completeness relation."""


@dataclass(frozen=True, eq=False)
class WalkConfig:
    """Coin parameters and initial coin state for a walk started at the origin.

    Either ``p`` (the standard one-parameter coin) or ``coin`` (an arbitrary
    2x2 unitary) must be given, not both.
    """

    c: complex
    d: complex
    p: float | None = None
    coin: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if (self.p is None) == (self.coin is None):
            raise ValueError("specify exactly one of p or coin")
        if abs(abs(self.c) ** 2 + abs(self.d) ** 2 - 1.0) > NORM_TOL:
            raise ValueError("initial coin amplitudes must satisfy |c|^2 + |d|^2 = 1")
        if self.p is not None:
            if not 0.0 <= self.p <= 1.0:
                raise ValueError(f"coin bias must lie in [0, 1], got {self.p}")
        else:
            u = np.asarray(self.coin, dtype=complex)
            if u.shape != (2, 2):
                raise ValueError("coin must be a 2x2 matrix")
            if np.max(np.abs(u @ u.conj().T - np.eye(2))) > 1e-12:
                raise ValueError("coin matrix is not unitary")
            u.setflags(write=False)
            object.__setattr__(self, "coin", u)

    @classmethod
    def symmetric(cls, p: float = 0.5) -> "WalkConfig":
        """The canonical symmetric initialization c = 1/sqrt(2), d = i/sqrt(2)."""
        s = 1.0 / np.sqrt(2.0)
        return cls(c=s, d=1j * s, p=p)

    @property
    def coin_unitary(self) -> np.ndarray:
        """``coin``, or the one-parameter coin [[sqrt(p), sqrt(1-p)], [sqrt(1-p), -sqrt(p)]]."""
        if self.coin is not None:
            return self.coin
        sp, sq = np.sqrt(self.p), np.sqrt(1.0 - self.p)
        return np.array([[sp, sq], [sq, -sp]], dtype=complex)


class SiteDistribution(FiniteSequence):
    """A finite-support probability distribution over integer lattice sites.

    Built from a mapping ``{site: probability}`` or a pair ``(lo, probs)``.
    Negative dust down to -1e-12 is dropped, like exact zeros, and the
    probabilities must sum to 1 within ``sum_tol``.
    """

    __slots__ = ()

    def __init__(self, probs: Mapping[int, float] | tuple, *, sum_tol: float = 1e-12):
        super().__init__(probs)
        total = float(self.values.sum())
        if abs(total - 1.0) > sum_tol:
            raise ValueError(f"probabilities sum to {total}, not 1")

    def _kept(self, lo: int, values: np.ndarray) -> np.ndarray:
        negative = values < -NEGATIVE_DUST
        if np.count_nonzero(negative):
            k = int(np.argmax(negative))
            raise ValueError(f"negative probability {values[k]} at site {lo + k}")
        return values > 0.0

    def _clean(self, probs: list) -> bool:
        positive = map(0.0.__lt__, filter(None, probs))
        return not probs or (probs[0] > 0.0 and probs[-1] > 0.0 and all(positive))

    @classmethod
    def delta(cls, site: int = 0) -> "SiteDistribution":
        return cls({site: 1.0})

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        nonzero = np.flatnonzero(self.values)
        return nonzero + self.lo, self.values[nonzero]

    def probabilities(self) -> np.ndarray:
        return self.values[self.values != 0.0]

    def total_variation(self, other: "SiteDistribution") -> float:
        # summed in set order: the printed verify residuals depend on it
        sites = set(self.support) | set(other.support)
        return 0.5 * sum(abs(self[s] - other[s]) for s in sites)


class DensityMatrix:
    """A walker density matrix stored on its occupied sublattice.

    Every Kraus generator of an m-step walk has degrees of the parity of m,
    so from one site every CP iterate is supported on a sublattice
    ``lo + step*Z`` in both rows and columns, and only that sublattice is
    stored: row and column r of the stored array are site ``lo + step*r``,
    and every other entry is zero.  The
    constructor takes a dense window whose first row/column is site ``lo``
    and keeps its occupied sublattice.  ``site_range``, ``dense`` and
    ``diagonal`` address the full window.
    """

    __slots__ = ("_mat", "_lo", "_step")

    def __init__(self, mat: np.ndarray, lo: int):
        mat = np.asarray(mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("density matrix must be square")
        mat, lo = _trim_window(mat, lo, 1)
        nonzero = mat != 0
        occupied = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
        step = int(np.gcd.reduce(occupied)) or 1  # occupied[0] is 0 after the trim
        self._store(np.ascontiguousarray(mat[::step, ::step]), lo, step)

    @classmethod
    def _sublattice(cls, mat: np.ndarray, lo: int, step: int) -> "DensityMatrix":
        """Build from the stored array of the sublattice ``lo + step*Z``, validated."""
        rho = cls.__new__(cls)
        rho._store(*_trim_window(mat, lo, step), step)
        return rho

    def _store(self, mat: np.ndarray, lo: int, step: int) -> None:
        if np.max(np.abs(mat - mat.conj().T)) > HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(mat).real - 1.0) > TRACE_TOL:
            raise ValueError(f"trace is {np.trace(mat).real}, not 1")
        if np.min(np.diag(mat).real) < -NEGATIVE_DUST:
            raise ValueError("negative diagonal entry beyond tolerance")
        mat.setflags(write=False)
        self._mat = mat
        self._lo = int(lo)
        self._step = step if mat.shape[0] > 1 else 1

    @classmethod
    def delta(cls, site: int = 0) -> "DensityMatrix":
        return cls(np.array([[1.0 + 0j]]), site)

    @property
    def site_range(self) -> tuple[int, int]:
        return self._lo, self._lo + self._step * (self._mat.shape[0] - 1)

    @property
    def trace(self) -> float:
        return float(self._full_diagonal().sum().real)

    def diagonal(self) -> SiteDistribution:
        """Site occupation probabilities from the diagonal.

        Negative floating dust is clamped to zero; anything below -1e-10
        is treated as a genuine positivity failure.
        """
        diag = self._full_diagonal().real.copy()
        if np.min(diag, initial=0.0) < DIAGONAL_FLOOR:
            raise ValueError(f"diagonal entry {np.min(diag)} below {DIAGONAL_FLOOR}")
        diag[diag < 0.0] = 0.0
        total = diag.sum()
        if abs(total - 1.0) < 1e-10 and total > 0.0:
            diag /= total
        return SiteDistribution((self._lo, diag))

    def dense(self) -> np.ndarray:
        """The full window as a dense array; row/column 0 is site ``site_range[0]``."""
        return self._on_sublattice(1).copy()

    def _full_diagonal(self) -> np.ndarray:
        """The complex diagonal over the full window.

        Sums over it round as over a dense matrix's diagonal; the zeros off
        the sublattice change numpy's pairwise grouping.
        """
        lo, hi = self.site_range
        diag = np.zeros(hi - lo + 1, dtype=complex)
        diag[:: self._step] = np.diag(self._mat)
        return diag

    def _on_sublattice(self, step: int) -> np.ndarray:
        """The stored array re-spaced onto the finer sublattice ``lo + step*Z``."""
        k = self._step // step
        if k == 1 or self._mat.shape[0] == 1:
            return self._mat
        w = (self._mat.shape[0] - 1) * k + 1
        out = np.zeros((w, w), dtype=complex)
        out[::k, ::k] = self._mat
        return out


def _trim_window(mat: np.ndarray, lo: int, step: int) -> tuple[np.ndarray, int]:
    """Cut zero rows and columns off both ends; row r is site lo + step*r."""
    mask = np.abs(mat) > 0.0
    if not mask.any():
        return np.zeros((1, 1), dtype=complex), lo
    rows = np.nonzero(mask.any(axis=1))[0]
    cols = np.nonzero(mask.any(axis=0))[0]
    a = int(min(rows[0], cols[0]))
    b = int(max(rows[-1], cols[-1]))
    return np.ascontiguousarray(mat[a : b + 1, a : b + 1]), lo + step * a


# -- step operator and Kraus generators -------------------------------------


def build_step_operator(config: WalkConfig) -> CoinBlock:
    """The one-step coin-walker unitary as a 2x2 block of shift operators."""
    return _step_operator(config.coin_unitary)


def _step_operator(u: np.ndarray) -> CoinBlock:
    return CoinBlock(
        ((u[0, 0] * E_PLUS, u[0, 1] * E_PLUS),
         (u[1, 0] * E_MINUS, u[1, 1] * E_MINUS))
    )


def kraus_pair(config: WalkConfig, n: int) -> tuple[LaurentOperator, LaurentOperator]:
    """Kraus generators of the n-step globally traced walk.

    A0 picks the coin-0 row of the n-step block power applied to the initial
    coin state; A1 the coin-1 row.  Together they satisfy the completeness
    relation in both operator orders (they are normal).
    """
    if n < 0:
        raise ValueError(f"step count must be nonnegative, got {n}")
    block = _step_power(config.coin_unitary.tobytes(), n)
    a0 = config.c * block[0, 0] + config.d * block[0, 1]
    a1 = config.c * block[1, 0] + config.d * block[1, 1]
    return a0, a1


@functools.lru_cache(maxsize=256)
def _step_power(coin: bytes, n: int) -> CoinBlock:
    """The n-th power of the step operator of the coin unitary with these bytes.

    Memoised because the verify suites and the pseudo-memory sums ask for
    the same few powers thousands of times; blocks are immutable.  The
    bound holds every power a 200-step pseudo-memory sum needs.
    """
    u = np.frombuffer(coin, dtype=complex).reshape(2, 2)
    block = _step_operator(u).power(n)
    if block.max_degree() > n:
        raise AssertionError("operator support escaped the light cone")
    return block


# -- distributions ----------------------------------------------------------


def global_trajectory(config: WalkConfig, n: int) -> list[SiteDistribution]:
    """Site distributions of the globally traced walk for steps 0..n.

    Computed by direct evolution of the joint coin-walker amplitudes, a
    deliberately different code path from the Laurent-coefficient kernels.
    """
    return [_amplitude_distribution(psi, n) for psi in _global_amplitudes(config, n)]


def _global_amplitudes(config: WalkConfig, n: int) -> Iterator[np.ndarray]:
    """Joint amplitudes (coin, site + n) after steps 0..n, one new array per step.

    Each step allocates one ``(2, 2n + 1)`` array, which is yielded and
    never written again, so callers may keep it.  Each row is one coin
    product written into it with ``out=`` plus the second product from a
    scratch buffer shared by all steps; the coefficient stays the first
    operand of every multiply, because numpy's complex multiply rounds
    differently with the operands swapped.
    """
    if n < 0:
        raise ValueError(f"step count must be nonnegative, got {n}")
    u = config.coin_unitary
    size = 2 * n + 1
    psi = np.zeros((2, size), dtype=complex)
    psi[0, n] = config.c
    psi[1, n] = config.d
    yield psi
    scratch = np.empty(size - 1, dtype=complex)
    for _ in range(n):
        new = np.empty((2, size), dtype=complex)
        up, down = new[0, 1:], new[1, :-1]
        new[0, 0] = new[1, -1] = 0.0
        np.multiply(u[0, 0], psi[0, :-1], out=up)
        np.multiply(u[0, 1], psi[1, :-1], out=scratch)
        np.add(up, scratch, out=up)
        np.multiply(u[1, 0], psi[0, 1:], out=down)
        np.multiply(u[1, 1], psi[1, 1:], out=scratch)
        np.add(down, scratch, out=down)
        psi = new
        yield psi


def _amplitude_distribution(psi: np.ndarray, offset: int) -> SiteDistribution:
    return SiteDistribution((-offset, np.abs(psi[0]) ** 2 + np.abs(psi[1]) ** 2))


def global_distribution(config: WalkConfig, n: int) -> SiteDistribution:
    """Distribution after n steps with a single final trace of the coin."""
    return _amplitude_distribution(_last(_global_amplitudes(config, n)), n)


def _last(steps: Iterator):
    """The final item of a step generator, dropping the others as they come."""
    for item in steps:
        pass
    return item


# -- CP-map evolution -------------------------------------------------------


def cp_apply(rho: DensityMatrix, kraus: Sequence[LaurentOperator]) -> DensityMatrix:
    """Apply the CP map with the given Kraus generators to a density matrix.

    The result lives on the sublattice whose step is the gcd of rho's step
    and the differences of the Kraus degrees (2 for the Kraus pair of a
    walk of any length), and only that sublattice is computed: each term
    a conj(b) rho, shifted by the degrees of a and b, is added on it in the
    same order as on the full window, so every stored entry rounds as it
    would there.  A family of mixed degree parity falls back to step 1.
    """
    total = ZERO
    for op in kraus:
        total = total + op.adjoint() * op
    defect = total.distance(IDENTITY)
    if defect > COMPLETENESS_TOL:
        raise KrausCompletenessError(
            f"Kraus completeness violated: residual {defect:.3e}"
        )
    degrees = sorted({d for op in kraus for d in op.support})
    dmin = degrees[0]
    rho_step = rho._step if rho._mat.shape[0] > 1 else 0
    step = math.gcd(rho_step, *(d - dmin for d in degrees)) or 1
    src = rho._on_sublattice(step)
    w = src.shape[0]
    size = w + (degrees[-1] - dmin) // step
    out = np.zeros((size, size), dtype=complex)
    term = np.empty_like(src)
    for op in kraus:
        for d, a in op.items():
            for e, b in op.items():
                # coefficient first: the operand order decides how numpy fuses
                # the complex multiply, hence its rounding
                np.multiply(a * np.conj(b), src, out=term)
                r, c = (d - dmin) // step, (e - dmin) // step
                out[r : r + w, c : c + w] += term
    return DensityMatrix._sublattice(out, rho.site_range[0] + dmin, step)


def cp_walk(config: WalkConfig, m: int, n_iterations: int) -> list[DensityMatrix]:
    """Iterate the delayed-tracing CP map from the origin state.

    Returns the trajectory rho^(0), ..., rho^(n_iterations); each iteration
    applies one full trace period of m coin-walker steps.
    """
    if n_iterations < 0:
        raise ValueError(f"iteration count must be nonnegative, got {n_iterations}")
    if m < 1:
        raise ValueError(f"trace period must be at least 1, got {m}")
    kraus = kraus_pair(config, m)
    trajectory = [DensityMatrix.delta(0)]
    for _ in range(n_iterations):
        trajectory.append(cp_apply(trajectory[-1], kraus))
    return trajectory
