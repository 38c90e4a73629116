"""Coin-walker step operator, Kraus generators, and exact walk evolution.

``kernels.walk_steps`` maps each of the four tracing schemes in ``kernels.SCHEMES``:

* prompt, kernel -- kernel walks, in :mod:`coinwalk.kernels`: the coin is
  traced after every step (a biased classical walk), or every m steps with
  the walk read through the m-step quantum kernel.
* global -- the coin is traced once, after all steps; distributions come
  from a single completely positive map with two Kraus generators,
  ``walk_steps`` steps the joint amplitudes (``_global_steps``), and
  ``global_distribution`` answers one step in momentum space.
* cp -- the coin is traced every m steps; ``cp_walk`` iterates a fixed
  CP map whose Kraus generators are those of an m-step global walk, and
  ``cp_distribution`` gives its diagonal at one iteration in momentum space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from .laurent import (IDENTITY, CoinBlock, E_MINUS, E_PLUS, FiniteSequence, LaurentOperator,
                      _binary_power, _product_2x2, window_sum)

#: Normalization slack of the initial coin state, |c|^2 + |d|^2 - 1.
NORM_TOL = 1e-12
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
#: Largest coefficient deviation of sum_j A_j^dagger A_j from the identity.
COMPLETENESS_TOL = 1e-10
#: Rounding slack below 0 of a probability, diagonal entry or stochastic kernel coefficient.
NEGATIVE_DUST = 1e-12


class NumericalError(ValueError):
    """A computed value failed a consistency check: the inputs were valid.

    Holds the ``value`` the check measured and the ``bound`` it broke (NaN if not given).
    """

    def __init__(self, message: str, value: float = math.nan, bound: float = math.nan):
        super().__init__(message)
        self.value, self.bound = float(value), float(bound)


class KrausCompletenessError(NumericalError):
    """Raised when a proposed Kraus family fails the completeness relation."""


@dataclass(frozen=True)
class WalkConfig:
    """Coin parameters and initial coin state for a walk started at the origin.

    Either ``p`` (the standard one-parameter coin) or ``coin`` (an arbitrary
    2x2 unitary) must be given, not both.  ``c`` and ``d`` are stored as
    complex, ``p`` as float, and the coin matrix, built once, as a read-only
    array (a given ``coin`` is copied).  Configs are equal when these values
    are equal, the coin matrix compared by its bytes; equal configs build every
    operator, kernel and distribution bit for bit alike.
    """

    c: complex
    d: complex
    p: float | None = None
    coin: np.ndarray | None = field(default=None, repr=False, compare=False)
    _unitary_bytes: bytes = field(init=False, repr=False)

    def __post_init__(self):
        if (self.p is None) == (self.coin is None):
            raise ValueError("specify exactly one of p or coin")
        if not np.isfinite([self.c, self.d]).all():
            raise ValueError(f"initial coin amplitudes must be finite, got {self.c}, {self.d}")
        object.__setattr__(self, "c", complex(self.c))
        object.__setattr__(self, "d", complex(self.d))
        object.__setattr__(self, "_norm", abs(self.c) ** 2 + abs(self.d) ** 2)
        if not abs(self._norm - 1.0) <= NORM_TOL:
            raise ValueError("initial coin amplitudes must satisfy |c|^2 + |d|^2 = 1")
        if self.p is not None:
            if not 0.0 <= self.p <= 1.0:
                raise ValueError(f"coin bias must lie in [0, 1], got {self.p}")
            object.__setattr__(self, "p", float(self.p))
            sp, sq = np.sqrt(self.p), np.sqrt(1.0 - self.p)
            u = np.array([[sp, sq], [sq, -sp]], dtype=complex)
        else:
            u = np.array(self.coin, dtype=complex)
            if u.shape != (2, 2):
                raise ValueError("coin must be a 2x2 matrix")
            if not np.isfinite(u).all():
                raise ValueError("coin matrix entries must be finite")
            if not np.max(np.abs(u @ u.conj().T - np.eye(2))) <= 1e-12:
                raise ValueError("coin matrix is not unitary")
            object.__setattr__(self, "coin", u)
        u.setflags(write=False)
        object.__setattr__(self, "_unitary", u)
        object.__setattr__(self, "_unitary_bytes", u.tobytes())

    @classmethod
    def symmetric(cls, p: float = 0.5) -> "WalkConfig":
        """The canonical symmetric initialization c = 1/sqrt(2), d = i/sqrt(2)."""
        s = 1.0 / np.sqrt(2.0)
        return cls(c=s, d=1j * s, p=p)

    @property
    def coin_unitary(self) -> np.ndarray:
        """``coin``, or the one-parameter coin [[sqrt(p), sqrt(1-p)], [sqrt(1-p), -sqrt(p)]]."""
        return self._unitary


def _check_steps(n: int) -> None:
    if n < 0:
        raise ValueError(f"step count must be nonnegative, got {n}")


def _parity_window(values: np.ndarray) -> np.ndarray:
    """The full window of a parity sublattice: entry i of ``values`` at 2i, zeros between."""
    window = np.zeros(2 * len(values) - 1, dtype=values.dtype)
    window[::2] = values
    return window


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
        if not abs(total - 1.0) <= sum_tol:
            raise NumericalError(f"probabilities sum to {total}, not 1", abs(total - 1.0), sum_tol)

    def _kept(self, lo: int, values: np.ndarray) -> np.ndarray:
        negative = ~(values >= -NEGATIVE_DUST)  # NaN too
        if np.count_nonzero(negative):
            k = int(np.argmax(negative))
            raise NumericalError(f"negative probability {values[k]} at site {lo + k}",
                                 -values[k], NEGATIVE_DUST)
        return values > 0.0

    def _clean(self, probs: list) -> bool:
        positive = map(0.0.__lt__, filter(None, probs))
        return not probs or (probs[0] > 0.0 and probs[-1] > 0.0 and all(positive))

    @classmethod
    def delta(cls) -> "SiteDistribution":
        return cls({0: 1.0})

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
    """A walker density matrix stored on its parity sublattice.

    Every Kraus generator of an m-step walk has degrees of the parity of m,
    so from one site every CP iterate is supported on the sublattice
    ``lo + 2Z`` in both rows and columns, and only that sublattice is
    stored.  The constructor takes the stored array: row and column r are
    site ``lo + 2r``, and every other entry of the window is zero.
    ``site_range``, ``dense`` and ``diagonal`` address the full window.
    The stored array is read-only and owned: an input that is writable or
    a view of another array is copied, so later writes cannot reach it.
    """

    __slots__ = ("_mat", "_lo")

    def __init__(self, mat: np.ndarray, lo: int):
        mat = np.asarray(mat, dtype=complex)
        if mat.flags.writeable or mat.base is not None:
            mat = mat.copy()
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("density matrix must be square")
        mat, lo = _trim_window(mat, lo)
        # each check is written to fail on NaN
        defect = _hermiticity_defect(mat)
        if not defect <= HERMITICITY_TOL:
            raise NumericalError("density matrix is not Hermitian", defect, HERMITICITY_TOL)
        trace = np.trace(mat).real
        if not abs(trace - 1.0) <= TRACE_TOL:
            raise NumericalError(f"trace is {trace}, not 1", abs(trace - 1.0), TRACE_TOL)
        lowest = np.min(np.diag(mat).real)
        if not lowest >= -NEGATIVE_DUST:
            raise NumericalError("negative diagonal entry beyond tolerance", -lowest, NEGATIVE_DUST)
        mat.setflags(write=False)
        self._mat = mat
        self._lo = int(lo)

    @classmethod
    def delta(cls) -> "DensityMatrix":
        return cls(np.array([[1.0 + 0j]]), 0)

    @property
    def site_range(self) -> tuple[int, int]:
        return self._lo, self._lo + 2 * (self._mat.shape[0] - 1)

    @property
    def trace(self) -> float:
        return float(self._full_diagonal().sum().real)

    def diagonal(self) -> SiteDistribution:
        """Site occupation probabilities from the diagonal.

        The constructor rejected entries below ``-NEGATIVE_DUST``; the
        negative dust above it is clamped to zero.
        """
        diag = self._full_diagonal().real.copy()
        diag[diag < 0.0] = 0.0
        total = diag.sum()
        if abs(total - 1.0) < 1e-10 and total > 0.0:
            diag /= total
        return SiteDistribution((self._lo, diag))

    def dense(self) -> np.ndarray:
        """The full window as a dense array; row/column 0 is site ``site_range[0]``."""
        w = 2 * self._mat.shape[0] - 1
        out = np.zeros((w, w), dtype=complex)
        out[::2, ::2] = self._mat
        return out

    def _full_diagonal(self) -> np.ndarray:
        """The complex diagonal over the full window.

        Sums over it round as over a dense matrix's diagonal; the zeros off
        the sublattice change numpy's pairwise grouping.
        """
        return _parity_window(np.diag(self._mat))


def _hermiticity_defect(mat: np.ndarray) -> float:
    """``np.max(np.abs(mat - mat.conj().T))``, in row blocks of the upper triangle.

    Each block holds rows i.. of the columns from i on, diagonal included:
    every entry below the diagonal has the value of its mirror above it, as
    |x - conj(y)| and |y - conj(x)| round alike.  ``np.max`` of the block
    maxima keeps a NaN.
    """
    w = mat.shape[0]
    height = max(1, _SCRATCH_CELLS // w)
    return np.max([np.max(np.abs(mat[i : i + height, i:] - mat[i:, i : i + height].conj().T))
                   for i in range(0, w, height)])


def _trim_window(mat: np.ndarray, lo: int) -> tuple[np.ndarray, int]:
    """Cut zero rows and columns off both ends; row r is site lo + 2r.

    ``mat`` itself when no edge row or column is all zero, with no mask built.
    """
    if mat.size and all(edge.any() for edge in (mat[0], mat[-1], mat[:, 0], mat[:, -1])):
        return mat, lo
    mask = mat != 0
    if not mask.any():
        return np.zeros((1, 1), dtype=complex), lo
    rows = np.nonzero(mask.any(axis=1))[0]
    cols = np.nonzero(mask.any(axis=0))[0]
    a = int(min(rows[0], cols[0]))
    b = int(max(rows[-1], cols[-1]))
    return np.ascontiguousarray(mat[a : b + 1, a : b + 1]), lo + 2 * a


# -- step operator and Kraus generators -------------------------------------


def build_step_operator(config: WalkConfig) -> CoinBlock:
    """The one-step coin-walker unitary as a 2x2 block of shift operators."""
    (u00, u01), (u10, u11) = config.coin_unitary
    return CoinBlock(((u00 * E_PLUS, u01 * E_PLUS), (u10 * E_MINUS, u11 * E_MINUS)))


def kraus_pair(config: WalkConfig, n: int) -> tuple[LaurentOperator, LaurentOperator]:
    """Kraus generators of the n-step globally traced walk.

    A0 picks the coin-0 row of the n-step block power applied to the initial
    coin state; A1 the coin-1 row.  Together they satisfy the completeness
    relation in both operator orders (they are normal).
    """
    _check_steps(n)
    return _pair(config, build_step_operator(config).power(n))


def _pair(config: WalkConfig, block: CoinBlock) -> tuple[LaurentOperator, LaurentOperator]:
    """The Kraus pair of a step-operator power: its rows applied to the initial coin state."""
    a0 = config.c * block[0, 0] + config.d * block[0, 1]
    a1 = config.c * block[1, 0] + config.d * block[1, 1]
    return a0, a1


def _kraus_steps(config: WalkConfig, n: int) -> Iterator[tuple[LaurentOperator, LaurentOperator]]:
    """``kraus_pair(config, k)`` for k = 0..n, bit for bit, at one block product per k."""
    return (_pair(config, block) for block in _block_powers(config, n))


def _block_powers(config: WalkConfig, n: int) -> Iterator[CoinBlock]:
    """Powers 0..n of the step operator, each the one ``CoinBlock.power`` builds.

    Power k is power k - top times power top, top the largest power of two
    below k: the last product ``CoinBlock.power`` forms, on the powers it
    formed before.  Only the powers up to the largest power of two below n
    are kept, until the generator is closed.  They depend only on the coin,
    so configs that differ in their initial coin state share them.
    """
    _check_steps(n)
    powers = [CoinBlock.identity(), build_step_operator(config)]
    kept = 1 << (max(n - 1, 1).bit_length() - 1)
    for k in range(n + 1):
        top = 1 << (max(k - 1, 1).bit_length() - 1)
        block = powers[k] if k < len(powers) else powers[k - top] @ powers[top]
        if len(powers) == k <= kept:
            powers.append(block)
        yield block


# -- distributions ----------------------------------------------------------


def _global_steps(config: WalkConfig, n: int) -> Iterator[SiteDistribution]:
    """The global walk's distributions after steps 0..n, read by ``walk_steps``.

    Computed by direct evolution of the joint coin-walker amplitudes, a
    deliberately different code path from the Laurent-coefficient kernels.
    """
    sum_tol = _stepped_sum_tol(config, n)
    return (SiteDistribution((-k, _parity_window((np.abs(psi) ** 2).sum(axis=0))), sum_tol=sum_tol)
            for k, psi in enumerate(_global_amplitudes(config, n)))


def _global_amplitudes(config: WalkConfig, n: int) -> Iterator[np.ndarray]:
    """Joint amplitudes (coin, occupied site) after steps 0..n, one new array per step.

    Step k's array has shape ``(2, k + 1)``, column i is site 2i - k, and
    it is never written once yielded, so callers may keep it.  Each row is
    one coin combination of the previous step; the coefficient stays the
    first operand of every multiply, because numpy's complex multiply
    rounds differently with the operands swapped.
    """
    _check_steps(n)
    u = config.coin_unitary
    psi = np.array([[config.c], [config.d]], dtype=complex)
    yield psi
    for k in range(1, n + 1):
        new = np.zeros((2, k + 1), dtype=complex)
        new[0, 1:] = u[0, 0] * psi[0] + u[0, 1] * psi[1]
        new[1, :-1] = u[1, 0] * psi[0] + u[1, 1] * psi[1]
        psi = new
        yield psi


def _stepped_sum_tol(config: WalkConfig, n: int) -> float:
    """How far from 1 the totals of an n-step stepped walk may be; never below 1e-12.

    The bound adds the initial coin's norm slack; the drift of the squared
    norm, at most the coin's unitarity defect plus 13 u per step; and the
    rounding of step k's 2(k + 1) squares and of their pairwise sum over at
    most 2n + 1 window entries, 6 u plus the sum's depth (Higham, Accuracy
    and Stability of Numerical Algorithms, ch. 3-4).  CHANGES.md has the
    derivation.
    """
    coin = config.coin_unitary
    defect = float(np.linalg.norm(coin.conj().T @ coin - np.eye(2))) + 8 * _UNIT_ROUNDOFF
    drift = config._norm * math.expm1(n * (defect + 13 * _UNIT_ROUNDOFF))
    squares = ((2 * n + 1).bit_length() + 32) * _UNIT_ROUNDOFF
    return max(1e-12, abs(config._norm - 1.0) + drift + squares)


def _last(steps: Iterator):
    """The final item of a step generator, dropping the others as they come."""
    for item in steps:
        pass
    return item


def global_distribution(config: WalkConfig, n: int) -> SiteDistribution:
    """Distribution after n steps with a single final trace of the coin.

    Evaluated in momentum space: one inverse FFT of the n-step symbol on the
    n + 1 sites of the parity sublattice.  :func:`_global_steps` steps
    the same walk in position space and is the cross-check.
    """
    _check_steps(n)
    amplitudes = np.fft.ifft(_walk_symbol(config, n, n + 1))
    probs = (amplitudes.real ** 2 + amplitudes.imag ** 2).sum(axis=0)
    return _sublattice_distribution(probs, n)


def _walk_symbol(config: WalkConfig, n: int, size: int) -> np.ndarray:
    """The n-step amplitudes in momentum space, shape ``(2, size)``.

    Column l is psi_n(k) = (D(k) U)^n (c, d), D(k) = diag(e^{-ik}, e^{ik}),
    at k = -pi l / size, in the frame that moves with the right-movers
    (times e^{ikn}): there a right move is 1 and a left move
    z = e^{2ik} = e^{-2 pi i l / size}, so for ``size`` > n row j is
    ``fft(a)`` of the coin-j amplitudes a[i] at site n - 2i.  The batched
    2x2 symbol diag(1, z) U is powered onto the column (c, d) by binary
    powering, and each column is rescaled to |c|^2 + |d|^2.
    """
    u = config.coin_unitary
    l = np.arange(size)
    z = np.exp(-2j * np.pi / size * np.where(2 * l > size, l - size, l))  # |angle| <= pi
    symbol = ((u[0, 0], u[0, 1]), (u[1, 0] * z, u[1, 1] * z))
    column = ((np.full(size, config.c),), (np.full(size, config.d),))
    (v0,), (v1,) = _binary_power(lambda v, b: _product_2x2(b, v), symbol, n, column)
    psi = np.stack([v0, v1])
    psi *= np.sqrt(config._norm / (psi.real ** 2 + psi.imag ** 2).sum(axis=0))
    return psi


#: Unit roundoff of float64.
_UNIT_ROUNDOFF = np.finfo(float).eps / 2


def _amplitude_error(steps: int) -> float:
    """A bound on the 2-norm error of unit-norm amplitudes from a ``steps``-step symbol.

    The symbol is taken on G = steps + 1 momenta: 56 u per step from its
    binary powering (each squaring doubles the error of the base), and
    24 u log2(4G) from the inverse FFT (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 24, for up to three transforms of length
    below 4G).  CHANGES.md has the derivation.
    """
    return _UNIT_ROUNDOFF * (56 * steps + 24 * math.log2(4 * (steps + 1)))


def _sublattice_distribution(probs: np.ndarray, reach: int) -> SiteDistribution:
    """The distribution with probability ``probs[i]`` at site reach - 2i.

    An entry of magnitude below the square of the ``reach``-step amplitude
    error bound is rounding noise, and is stored as 0.
    """
    floor = _amplitude_error(reach) ** 2
    kept = np.where(np.abs(probs) < floor, 0.0, probs)
    return SiteDistribution((-reach, _parity_window(kept[::-1])))


# -- CP-map evolution -------------------------------------------------------


def completeness_defect(kraus: Sequence[LaurentOperator]) -> float:
    """The largest coefficient of sum_j A_j^dagger A_j - 1, the products added in order."""
    products = (op.adjoint() * op for op in kraus)
    return LaurentOperator(window_sum((a.lo, a.values) for a in products)).distance(IDENTITY)


def cp_apply(rho: DensityMatrix, kraus: Sequence[LaurentOperator]) -> DensityMatrix:
    """Apply the CP map with the given Kraus generators to a density matrix.

    The Kraus degrees must share one parity, as those of a walk's Kraus
    pair do, so that the result stays on the step-2 sublattice; a family
    of mixed parity raises ValueError.  Only the sublattice is computed:
    each term a conj(b) rho, shifted by the degrees of a and b, is added on
    it in the same order as on the full window, so every stored entry
    rounds as it would there.  The output is summed in blocks of rows of
    about ``_SCRATCH_CELLS`` entries.  Each block copies the source rows it
    reads into a zeroed window of rows as wide as the output, so that every
    term is one contiguous run: a multiply into one scratch block, then an
    add onto the block's rows.  A cell that a term does not reach adds a
    product of 0, which is +-0 and leaves the sum (started at +0, so never
    -0) as it was: no entry's sum is regrouped or changed, and no temporary
    is as large as the result.
    """
    defect = completeness_defect(kraus)
    if not defect <= COMPLETENESS_TOL:  # NaN too
        raise KrausCompletenessError(
            f"Kraus completeness violated: residual {defect:.3e}", defect, COMPLETENESS_TOL
        )
    degrees = sorted({d for op in kraus for d in op.support})
    dmin, dmax = degrees[0], degrees[-1]
    if any((d - dmin) % 2 for d in degrees):
        raise ValueError(f"Kraus degrees {degrees} are of mixed parity")
    src = rho._mat
    w = src.shape[0]
    reach = (dmax - dmin) // 2
    size = w + reach
    # term (r, c) adds rho shifted down r rows and right c columns: the run of the
    # window below starting (reach - r) size + reach - c cells into its buffer
    terms = [(a * np.conj(b), (dmax - d) // 2 * size + (dmax - e) // 2)
             for op in kraus for d, a in op.items() for e, b in op.items()]
    out = np.empty((size, size), dtype=complex)
    out.fill(0.0)  # written before any sum: no page is mapped to zeros, then copied
    acc = out.reshape(-1)
    height = max(1, _SCRATCH_CELLS // size)
    scratch = np.empty(min(height, size) * size, dtype=complex)
    # window row k, reach cells into the buffer, holds source row top - reach + k
    # padded with zeros to the output's width; rows before rho's first are never
    # written, and rows past its last are cleared
    buffer = np.zeros(reach + scratch.size + reach * size, dtype=complex)
    window = buffer[reach:].reshape(-1, size)
    for top in range(0, size, height):
        cells = (min(top + height, size) - top) * size
        first, last = max(0, top - reach), min(w, top + height)
        k = first - top + reach
        window[k : k + last - first, :w] = src[first:last]
        window[k + last - first :, :w] = 0.0
        block, target = scratch[:cells], acc[top * size : top * size + cells]
        for coef, start in terms:
            # coefficient first: the operand order decides how numpy fuses
            # the complex multiply, hence its rounding
            np.multiply(coef, buffer[start : start + cells], out=block)
            target += block
    out.setflags(write=False)  # handed over: the constructor need not copy it
    # freed before the checks, whose temporaries then reuse their heap; held
    # through them, all of it outgrows malloc's 128 kB trim threshold and is
    # faulted in again each call
    del buffer, window, scratch, block
    return DensityMatrix(out, rho.site_range[0] + dmin)


def cp_walk(config: WalkConfig, m: int, n_iterations: int) -> list[DensityMatrix]:
    """Iterate the delayed-tracing CP map from the origin state.

    Returns the trajectory rho^(0), ..., rho^(n_iterations); each iteration
    applies one full trace period of m coin-walker steps.  The list keeps
    every iterate, sum over t of (t m + 1)^2 x 16 bytes (73 MB at m = 2,
    n_iterations = 150); ``walk_steps(config, "cp", n, m)`` streams the
    diagonals holding one iterate, and :func:`cp_distribution` answers one.
    """
    return list(_cp_steps(config, m, n_iterations))


def _cp_steps(config: WalkConfig, m: int, n_iterations: int) -> Iterator[DensityMatrix]:
    """The density matrices of :func:`cp_walk`, holding only the current one."""
    _check_cp_counts(m, n_iterations)
    kraus = kraus_pair(config, m)
    rho = DensityMatrix.delta()
    yield rho
    for _ in range(n_iterations):
        rho = cp_apply(rho, kraus)
        yield rho


def _check_cp_counts(m: int, n_iterations: int) -> None:
    if n_iterations < 0:
        raise ValueError(f"iteration count must be nonnegative, got {n_iterations}")
    if m < 1:
        raise ValueError(f"trace period must be at least 1, got {m}")


#: Entries of one block of M(k, k - q) in :func:`cp_distribution` (1 MB of
#: complex values per array).
_BLOCK_CELLS = 1 << 16
#: Entries of one row block of :func:`cp_apply`, whose source window adds
#: reach x size cells to it, and of the Hermiticity check (64 kB of complex
#: values).  The check's strided numpy calls also buffer up to 8,192 entries
#: per operand; at 8,192 cells the blocks' temporaries outgrow malloc's 128 kB
#: trim threshold and are faulted in again each call.
_SCRATCH_CELLS = 1 << 12


def cp_distribution(config: WalkConfig, m: int, n_iterations: int) -> SiteDistribution:
    """The diagonal of ``cp_walk(config, m, n_iterations)[-1]``, in momentum space.

    With a_j(k) the Kraus symbols (the m-step walk symbol's rows), the map
    multiplies rho(k, k') by M(k, k') = sum_j a_j(k) conj(a_j(k')), so
    rho_n(k, k') = M(k, k')^n.  The diagonal's transform at q is the mean
    over k of M(k, k - q)^n; it is summed in row blocks over q (half of
    them: the other half are conjugates), and one inverse FFT on the
    n m + 1 sublattice sites gives the probabilities.  :func:`cp_walk`
    iterates the map in position space and is the cross-check.
    """
    _check_cp_counts(m, n_iterations)
    size = n_iterations * m + 1
    a = _walk_symbol(config, m, size) / math.sqrt(config._norm)
    # row r of the window view is conj(a)[(l + r) % size]; r = size - q is the shift by -q
    conj = np.conj(a)
    rows = np.lib.stride_tricks.sliding_window_view(np.concatenate([conj, conj], axis=1),
                                                    size, axis=1)
    half = size // 2 + 1
    spectrum = np.empty(half, dtype=complex)
    height = max(1, _BLOCK_CELLS // size)
    for start in range(0, half, height):
        stop = min(start + height, half)
        shifted = rows[:, size - stop + 1 : size - start + 1][:, ::-1]
        base = a[0] * shifted[0]
        base += a[1] * shifted[1]
        power = _binary_power(lambda x, y: np.multiply(x, y, out=x), base, n_iterations,
                              np.ones_like(base))
        spectrum[start:stop] = power.mean(axis=1)
    # the trace: M(k, k) is 1 up to rounding, which the n-th power multiplies by n
    spectrum[0] = 1.0
    probs = np.fft.irfft(spectrum, size)
    return _sublattice_distribution(probs, n_iterations * m)
