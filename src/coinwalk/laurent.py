"""Finitely supported sequences on the integer lattice, and the shift algebra.

Operators, kernels and site distributions are all finitely supported
sequences on Z.  :class:`FiniteSequence` stores one as ``(lo, values)``, a
read-only numpy array whose entry k is the coefficient at degree lo + k.
Entries a type does not keep (for operators and kernels, those at or below
``TRIM_TOL``) are stored as 0, zero ends are cut off, and zero entries never
appear in ``support``, ``items`` or ``len``.  :class:`LaurentOperator`,
``kernels.RealKernel`` and ``engine.SiteDistribution`` add only their own
invariants.  A Laurent operator's dense realization A satisfies
A[i, j] = coeff(i - j); ``to_dense`` materializes a finite window of it.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

#: Coefficients with magnitude at or below this are set to zero by every
#: operation.
TRIM_TOL = 1e-14
#: Up to this length a scalar pass finds that nothing needs trimming faster than
#: the numpy mask (break-even about 32 complex or 60 real entries).
_SCALAR_CHECK_MAX = 32


def _magnitude(values: np.ndarray) -> np.ndarray:
    # np.hypot rounds like the scalar abs(); np.abs on complex arrays may not
    if values.dtype.kind == "c":
        return np.hypot(values.real, values.imag)
    return np.abs(values)


class FiniteSequence:
    """An immutable finitely supported sequence on Z, stored as ``(lo, values)``.

    Constructed from a mapping ``{degree: coefficient}`` or from a pair
    ``(lo, values)`` of a first degree and a one-dimensional array.
    """

    __slots__ = ("lo", "values")

    dtype = float
    # numpy scalars defer to __rmul__ instead of reading this as an array
    __array_ufunc__ = None
    # coeff answers every degree, so index iteration would never stop
    __iter__ = None

    def __init__(self, coeffs=None):
        if type(coeffs) is not tuple:  # a mapping is the sum of its one-degree terms
            terms = (coeffs or {}).items()
            coeffs = window_sum((int(d), np.array([c], dtype=self.dtype)) for d, c in terms)
        # same_kind: complex values raise TypeError for a real type
        values = np.asarray(coeffs[1]).astype(self.dtype, casting="same_kind", copy=False)
        lo = int(coeffs[0])
        if values.ndim != 1:
            raise ValueError("sequence values must be one-dimensional")
        if values.size <= _SCALAR_CHECK_MAX and self._clean(values.tolist()):
            values = values.copy()
        else:
            keep = self._kept(lo, values)
            kept = keep.nonzero()[0]
            a, b = (int(kept[0]), int(kept[-1]) + 1) if kept.size else (0, 0)
            values = np.where(keep[a:b], values[a:b], self.dtype())
            lo += a
        values.setflags(write=False)
        self.lo = lo if values.size else 0
        self.values = values

    def _kept(self, lo: int, values: np.ndarray) -> np.ndarray:
        """Mask of the entries to store; the rest are set to zero."""
        return ~(_magnitude(values) <= TRIM_TOL)  # NaN is kept, for the checks to see

    def _clean(self, coeffs: list) -> bool:
        """Whether ``_kept`` keeps every nonzero entry and both ends; must agree with it."""
        large = map(TRIM_TOL.__lt__, map(abs, filter(None, coeffs)))
        return not coeffs or bool(coeffs[0] and coeffs[-1] and all(large))

    # -- inspection ---------------------------------------------------------

    def coeff(self, degree: int):
        k = degree - self.lo
        if 0 <= k < self.values.size:
            return self.values[k].item()
        return self.dtype()

    __getitem__ = coeff

    @property
    def support(self) -> tuple[int, ...]:
        return tuple((self.values.nonzero()[0] + self.lo).tolist())

    @property
    def is_zero(self) -> bool:
        return self.values.size == 0

    def items(self) -> Iterator[tuple[int, complex | float]]:
        nonzero = self.values.nonzero()[0]
        return zip((nonzero + self.lo).tolist(), self.values[nonzero].tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self.values))

    def __repr__(self) -> str:
        body = ", ".join(f"{d}: {v:.6g}" for d, v in self.items())
        return f"{type(self).__name__}({{{body}}})"

    def distance(self, other: "FiniteSequence") -> float:
        """Max absolute coefficient difference (Chebyshev distance)."""
        _, diff = window_sum([(self.lo, self.values), (other.lo, -other.values)])
        return float(_magnitude(diff).max()) if diff.size else 0.0

    def isclose(self, other: "FiniteSequence", tol: float = 1e-12) -> bool:
        return self.distance(other) <= tol

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "FiniteSequence"):
        if not isinstance(other, FiniteSequence):
            return NotImplemented
        return type(self)(window_sum([(self.lo, self.values), (other.lo, other.values)]))

    def __sub__(self, other: "FiniteSequence"):
        if not isinstance(other, FiniteSequence):
            return NotImplemented
        return type(self)(window_sum([(self.lo, self.values), (other.lo, -other.values)]))

    def __mul__(self, other):
        if isinstance(other, FiniteSequence):
            return self.convolve(other)
        return self.__rmul__(other)

    def __rmul__(self, scalar):
        if isinstance(scalar, complex):
            # scalar complex arithmetic: a vectorized complex multiply may
            # fuse its products and round differently
            scalar = complex(scalar)
            out = [scalar * v for v in self.values.tolist()]
        else:
            out = scalar * self.values
        return type(self)((self.lo, out))

    def convolve(self, other: "FiniteSequence"):
        return type(self)(self._convolved(other))

    def _convolved(self, other: "FiniteSequence") -> tuple[int, np.ndarray]:
        if self.is_zero or other.is_zero:
            return 0, self.values[:0]
        return self.lo + other.lo, np.convolve(self.values, other.values)


def window_sum(terms: Iterable[tuple[int, np.ndarray]]) -> tuple[int, np.ndarray]:
    """The sum of ``(lo, values)`` terms, added in order on their union window, untrimmed."""
    terms = [(lo, values) for lo, values in terms if values.size]
    if not terms:
        return 0, np.zeros(0)
    first = min([lo for lo, _ in terms])
    size = max([lo + values.size for lo, values in terms]) - first
    complex_terms = any(values.dtype.kind == "c" for _, values in terms)
    acc = np.zeros(size, dtype=complex if complex_terms else float)
    for lo, values in terms:
        acc[lo - first : lo - first + values.size] += values
    return first, acc


class LaurentOperator(FiniteSequence):
    """A finite-support Laurent polynomial in the lattice shift operator."""

    __slots__ = ()

    dtype = complex

    # -- arithmetic ---------------------------------------------------------

    def adjoint(self) -> "LaurentOperator":
        hi = self.lo + self.values.size - 1
        return LaurentOperator((-hi, np.conj(self.values[::-1])))

    def hadamard_conj(self, other: "LaurentOperator") -> "LaurentOperator":
        """Degree-wise product of self with the conjugate of ``other``.

        Equals the matrix Hadamard product of the dense realizations of
        self and the entrywise conjugate of ``other``.
        """
        lo = max(self.lo, other.lo)
        hi = min(self.lo + self.values.size, other.lo + other.values.size)
        if hi <= lo:
            return LaurentOperator()
        a = self.values[lo - self.lo : hi - self.lo]
        b = other.values[lo - other.lo : hi - other.lo]
        # separate real products, rounded like the scalar a * conj(b)
        out = np.empty(hi - lo, dtype=complex)
        out.real = a.real * b.real + a.imag * b.imag
        out.imag = a.imag * b.real - a.real * b.imag
        return LaurentOperator((lo, out))

    # -- dense realization --------------------------------------------------

    def to_dense(self, window: Iterable[int]) -> np.ndarray:
        """Dense matrix over the given sites: entry (i, j) = coeff(site_i - site_j)."""
        sites = np.asarray(list(window), dtype=int)
        if sites.size == 0:
            raise ValueError("window must be nonempty")
        diff = sites[:, None] - sites[None, :]
        out = np.zeros(diff.shape, dtype=complex)
        for deg, amp in self.items():
            out[diff == deg] = amp
        return out


IDENTITY = LaurentOperator({0: 1.0})
ZERO = LaurentOperator()
E_PLUS = LaurentOperator({+1: 1.0})
E_MINUS = LaurentOperator({-1: 1.0})


class CoinBlock:
    """A 2x2 block of LaurentOperators, closed under block multiplication."""

    __slots__ = ("_entries",)

    def __init__(self, entries):
        rows = tuple(tuple(entries[r][c] for c in (0, 1)) for r in (0, 1))
        for row in rows:
            for op in row:
                if not isinstance(op, LaurentOperator):
                    raise TypeError("CoinBlock entries must be LaurentOperators")
        self._entries = rows

    @classmethod
    def identity(cls) -> "CoinBlock":
        return cls(((IDENTITY, ZERO), (ZERO, IDENTITY)))

    def __getitem__(self, key: tuple[int, int]) -> LaurentOperator:
        r, c = key
        return self._entries[r][c]

    def __matmul__(self, other: "CoinBlock") -> "CoinBlock":
        if not isinstance(other, CoinBlock):
            return NotImplemented
        out = [[None, None], [None, None]]
        for r in (0, 1):
            for c in (0, 1):
                out[r][c] = self[r, 0] * other[0, c] + self[r, 1] * other[1, c]
        return CoinBlock(out)

    def power(self, n: int) -> "CoinBlock":
        """Block power by binary exponentiation; n = 0 gives the identity block."""
        if n < 0:
            raise ValueError(f"negative block power: {n}")
        result, base = CoinBlock.identity(), self
        while n:
            if n & 1:
                result = result @ base
            n >>= 1
            if n:
                base = base @ base
        return result
