"""Doubly stochastic kernels, reshuffling matrices, and the pseudo-memory map.

All kernels here are translation invariant, so a kernel is a finitely
supported real sequence on Z -- the same ``(lo, values)`` core as the complex
operators in :mod:`coinwalk.laurent` and the site distributions it acts on.
Applying a kernel to a distribution is their convolution.  For such a kernel
the row sums, column sums, and plain coefficient sum coincide, which makes
double stochasticity a one-line check.  :func:`walk_steps` is the one reader
of the step-0..n distributions of every tracing scheme's walk.
"""

from __future__ import annotations

import math
from typing import Iterator, Mapping

import numpy as np

from .engine import (NEGATIVE_DUST, NORM_TOL, NumericalError, SiteDistribution, WalkConfig,
                     _check_cp_counts, _check_steps, _cp_steps, _global_steps, _kraus_steps,
                     _last, _UNIT_ROUNDOFF, kraus_pair)
from .laurent import TRIM_TOL, FiniteSequence, LaurentOperator, window_sum

REAL_TOL = 1e-12
#: The tracing schemes :func:`walk_steps` evaluates.
SCHEMES = ("prompt", "global", "kernel", "cp")


class IncompatibleCoinError(ValueError):
    """The coin initialization breaks the base case of the memory decomposition."""


class RealKernel(FiniteSequence):
    """A real translation-invariant kernel indexed by displacement degree.

    Built from a mapping ``{degree: coefficient}`` or a pair ``(lo, values)``.
    ``kind`` may be ``"stochastic"`` (nonnegative, coefficients sum to 1,
    hence doubly stochastic as a matrix) or ``"null-sum"`` (coefficients sum
    to 0); either flag is validated at construction.  The sum may miss its
    target by the normalization slack of the initial coin state plus the
    rounding bound of an n-term sum, n u ||c||_1.
    """

    __slots__ = ("kind",)

    def __init__(self, coeffs: Mapping[int, float] | tuple, kind: str | None = None):
        super().__init__(coeffs)
        if kind == "stochastic":
            negative = ~(self.values >= -NEGATIVE_DUST)  # NaN too
            if np.count_nonzero(negative):
                raise NumericalError("stochastic kernel has a negative coefficient",
                                     -self.values[negative].min(), NEGATIVE_DUST)
            target = 1.0
        elif kind == "null-sum":
            target = 0.0
        elif kind is not None:
            raise ValueError(f"unknown kernel kind: {kind!r}")
        if kind is not None:
            total = self.coefficient_sum
            bound = NORM_TOL + len(self) * _UNIT_ROUNDOFF * float(np.abs(self.values).sum())
            if not abs(total - target) <= bound < math.inf:  # NaN, inf too
                raise NumericalError(f"{kind} kernel sums to {total}, not {target:g}",
                                     abs(total - target), bound)
        self.kind = kind

    @classmethod
    def from_laurent(cls, op: LaurentOperator, kind: str | None = None) -> "RealKernel":
        """Cast a Laurent operator with (analytically) real coefficients."""
        imag = ~(np.abs(op.values.imag) <= REAL_TOL)  # NaN too
        if np.count_nonzero(imag):
            k = int(np.argmax(imag))
            raise NumericalError(f"coefficient at degree {op.lo + k} has imaginary part "
                                 f"{op.values.imag[k]}", abs(op.values.imag[k]), REAL_TOL)
        return cls((op.lo, op.values.real), kind)

    # -- inspection ---------------------------------------------------------

    @property
    def coefficient_sum(self) -> float:
        # a sequential sum in ascending degree order: verify reports print it
        return sum(self.values.tolist())

    def __repr__(self) -> str:
        return f"{super().__repr__()[:-1]}, kind={self.kind!r})"

    # -- arithmetic ---------------------------------------------------------

    def convolve(self, other: FiniteSequence) -> "RealKernel":
        # coefficient sums multiply under convolution, so flags propagate
        other_kind = getattr(other, "kind", None)
        if "null-sum" in (self.kind, other_kind):
            kind = "null-sum"
        elif self.kind == other_kind == "stochastic":
            kind = "stochastic"
        else:
            kind = None
        return RealKernel(self._convolved(other), kind)

    def apply_distribution(self, dist: SiteDistribution) -> SiteDistribution:
        if self.kind != "stochastic":
            raise ValueError("only stochastic kernels map distributions to distributions")
        return SiteDistribution(self._shifted_sum(dist))

    def _shifted_sum(self, dist: SiteDistribution) -> tuple[int, np.ndarray]:
        # the convolution as shifted adds over ascending kernel degrees
        degrees = enumerate(self.values.tolist(), self.lo + dist.lo)
        return window_sum((lo, c * dist.values) for lo, c in degrees if c)


SHIFT_DIFFERENCE = RealKernel({+1: 1.0, -1: -1.0}, "null-sum")


def _require_bias(config: WalkConfig) -> float:
    if config.p is None:
        raise ValueError(
            "this construction needs the one-parameter coin; the config uses "
            "a general unitary"
        )
    return config.p


def classical_kernel(p: float) -> RealKernel:
    """The biased classical step kernel: move right with probability 1-p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"coin bias must lie in [0, 1], got {p}")
    return RealKernel({+1: 1.0 - p, -1: p}, "stochastic")


def quantum_kernel(config: WalkConfig, n: int) -> RealKernel:
    """The doubly stochastic kernel of the n-step globally traced walk.

    Built from degree-wise modulus-squared Kraus coefficients; applying it
    to the origin delta reproduces the n-step site distribution.
    """
    return _kernel(kraus_pair(config, n))


def _kernel(pair) -> RealKernel:
    a0, a1 = pair
    return RealKernel.from_laurent(a0.hadamard_conj(a0) + a1.hadamard_conj(a1), "stochastic")


def mixing_matrix(config: WalkConfig, i: int) -> RealKernel:
    """The inhomogeneous mixing term of the kernel recurrence at step i."""
    _check_steps(i)
    return _mixing(config, i, kraus_pair(config, i))


def _mixing(config: WalkConfig, i: int, pair) -> RealKernel:
    if i == 0:
        return RealKernel({})
    p = _require_bias(config)
    a0, a1 = pair
    cross = a0.hadamard_conj(a1) + a1.hadamard_conj(a0)
    op = math.sqrt(p * (1.0 - p)) * cross + (2.0 * p - 1.0) * a0.hadamard_conj(a0)
    return RealKernel.from_laurent(op)


def reshuffling_matrix(config: WalkConfig, i: int) -> RealKernel:
    """The null-sum kernel weighting the (n-i)-step classical distribution."""
    if i < 1:
        raise ValueError(f"reshuffling index must be at least 1, got {i}")
    return _reshuffling(config, i, kraus_pair(config, i - 1))


def _reshuffling(config: WalkConfig, i: int, pair) -> RealKernel:
    """Omega_i from the (i-1)-step Kraus pair."""
    return SHIFT_DIFFERENCE.convolve(_mixing(config, i - 1, pair))


def phi_matrix(config: WalkConfig) -> RealKernel:
    """The fixed null-sum part of the period-2 delayed kernel, quantum_kernel(config, 2)."""
    kernel = quantum_kernel(config, 2) - classical_kernel(_require_bias(config))
    return RealKernel((kernel.lo, kernel.values), "null-sum")


def kernel_walk(kernel: RealKernel, n: int) -> list[SiteDistribution]:
    """Repeatedly apply a stochastic kernel to the origin delta; returns the n+1 distributions."""
    return list(_kernel_steps(kernel, n))


def _kernel_steps(kernel: RealKernel, n: int) -> Iterator[SiteDistribution]:
    """The kernel walk's distributions after steps 0..n, one at a time."""
    _check_steps(n)
    if kernel.kind != "stochastic":
        raise ValueError("kernel walk requires a stochastic kernel")
    sum_tol = _kernel_sum_tol(kernel, n)
    current = SiteDistribution.delta()
    yield current
    for _ in range(n):
        current = SiteDistribution(kernel._shifted_sum(current), sum_tol=sum_tol)
        yield current


def _kernel_sum_tol(kernel: RealKernel, n: int) -> float:
    """How far from 1 the totals of an n-step kernel walk may be; never below 1e-12.

    |S^n - 1| for S the kernel's exact coefficient sum, (len + 1) u per step for
    its nonnegative products and sums, and the final pairwise sum's depth
    (Higham, ch. 3-4).  CHANGES.md has the derivation.
    """
    growth = math.expm1(n * math.log1p(math.fsum([*kernel.values.tolist(), -1.0])))
    drift = (1.0 + growth) * math.expm1(n * (len(kernel) + 1) * _UNIT_ROUNDOFF)
    pairwise = ((n * kernel.values.size + 1).bit_length() + 26) * _UNIT_ROUNDOFF
    return max(1e-12, abs(growth) + drift + pairwise)


def _prompt_kernel(config: WalkConfig) -> RealKernel:
    """The one-step kernel of the walk whose coin is traced after every step.

    Tracing every step restarts each step from the initial coin, so the walk
    is the period-1 kernel walk.  The weights are the one-step Kraus moduli
    taken as ``abs(a) ** 2``; ``quantum_kernel(config, 1)`` forms
    re^2 + im^2, which rounds differently.
    """
    a0, a1 = kraus_pair(config, 1)
    return RealKernel({-1: abs(a1.coeff(-1)) ** 2, +1: abs(a0.coeff(+1)) ** 2}, "stochastic")


def prompt_distribution(config: WalkConfig, n: int) -> SiteDistribution:
    """Distribution after n steps with the coin traced after every step."""
    return _last(walk_steps(config, "prompt", n))


def walk_steps(config: WalkConfig, scheme: str, n: int,
               m: int = 2) -> Iterator[SiteDistribution]:
    """Step-0..n distributions of a scheme in SCHEMES (kernel, cp: period m), one at a time."""
    if scheme == "prompt":
        return _kernel_steps(_prompt_kernel(config), n)
    if scheme == "global":
        return _global_steps(config, n)
    if scheme == "kernel":
        # tracing every m steps applies the m-step Kraus pair each period
        _check_cp_counts(m, 0)
        return _kernel_steps(quantum_kernel(config, m), n)
    if scheme == "cp":
        return (rho.diagonal() for rho in _cp_steps(config, m, n))
    raise ValueError(f"unknown scheme: {scheme!r}")


def binomial_solution(config: WalkConfig, n: int) -> SiteDistribution:
    """The closed-form period-2 kernel walk as a binomial sum of kernel powers.

    Valid because the classical kernel and its null-sum correction commute
    as translation-invariant kernels.
    """
    _check_steps(n)
    delta_c = classical_kernel(_require_bias(config))
    return _binomial_sum(_powers(phi_matrix(config), n), _powers(delta_c, n), n)


def _binomial_sum(phi_powers: list[RealKernel], classical_powers: list[RealKernel],
                  n: int) -> SiteDistribution:
    """``binomial_solution`` at n from the powers of phi and delta_c, each list to n or beyond."""
    terms = (phi_powers[n - k].convolve(classical_powers[k]) for k in range(n + 1))
    scaled = [(t.lo, float(math.comb(n, k)) * t.values) for k, t in enumerate(terms)]
    lo, acc = window_sum(scaled)
    # the alternating binomial sum cancels to scale 1 from terms of scale up to
    # 3^n, so its total is only good to the rounding bound of the sum of all
    # terms and then of the window: (n + 1 + len) u sum_k ||C(n,k) term_k||_1
    mass = sum(float(np.abs(values).sum()) for _, values in scaled)
    sum_tol = max(1e-9, (n + 1 + acc.size) * _UNIT_ROUNDOFF * mass)
    return SiteDistribution((lo, np.where(acc > 1e-11, acc, 0.0)), sum_tol=sum_tol)


def pseudo_memory_reconstruct(config: WalkConfig, n: int) -> SiteDistribution:
    """Rebuild the n-step quantum distribution from classical distributions.

    Takes the n-step classical distribution and adds the reshuffled earlier
    classical distributions.  Requires the coin initialization to reproduce
    the classical kernel at the first step, which pins the base case of the
    decomposition; otherwise :class:`IncompatibleCoinError` is raised.
    """
    _check_steps(n)
    p = _require_bias(config)
    right = _prompt_kernel(config).coeff(+1)
    if abs(right - (1.0 - p)) > 1e-10:
        raise IncompatibleCoinError(f"one-step right probability {right:.12g} != {1.0 - p:.12g}"
                                    " required by the classical kernel convention")
    omegas, classical = _reshufflings(config, n), _powers(classical_kernel(p), n)
    return _memory_distribution(_memory_sum(omegas, classical, n))


def _reshufflings(config: WalkConfig, n: int) -> list[RealKernel]:
    """Omega_2, ..., Omega_n, read off one Kraus pass."""
    pairs = enumerate(_kraus_steps(config, max(n - 1, 0)))
    return [_reshuffling(config, k + 1, pair) for k, pair in pairs if k]


def _memory_distribution(acc: RealKernel) -> SiteDistribution:
    """A memory sum as a distribution: entries at or below TRIM_TOL cleared, summing to 1."""
    clipped = np.where(acc.values > TRIM_TOL, acc.values, 0.0)
    return SiteDistribution((acc.lo, clipped), sum_tol=1e-9)


def _powers(kernel: RealKernel, n: int) -> list[RealKernel]:
    """kernel^0, ..., kernel^n, one convolution each.

    They start from the kindless unit kernel, so powers of a stochastic kernel
    carry no kind and skip the stochastic re-check: the tails trimmed off each
    add up to 1.8e-12 of the mass by n = 400, beyond that check's rounding
    bound.  Powers of a null-sum kernel carry "null-sum" and are re-checked.
    """
    powers = [RealKernel({0: 1.0})]
    for _ in range(n):
        powers.append(powers[-1].convolve(kernel))
    return powers


def _memory_sum(omegas: list[RealKernel], classical: list[RealKernel], n: int) -> RealKernel:
    """delta_c^n + sum_{i=2..n} Omega_i * delta_c^(n-i), trimmed but not clipped or validated.

    ``omegas`` starts at Omega_2 and ``classical`` at delta_c^0; the two are read up to n.
    """
    terms = [classical[n]]
    terms += [omegas[i - 2].convolve(classical[n - i]) for i in range(2, n + 1)]
    return RealKernel(window_sum((t.lo, t.values) for t in terms))
