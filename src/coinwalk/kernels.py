"""Doubly stochastic kernels, reshuffling matrices, and the pseudo-memory map.

All kernels here are translation invariant, so a kernel is a finitely
supported real sequence on Z -- the same ``(lo, values)`` core as the complex
operators in :mod:`coinwalk.laurent` and the site distributions it acts on.
Applying a kernel to a distribution is their convolution.  For such a kernel
the row sums, column sums, and plain coefficient sum coincide, which makes
double stochasticity a one-line check.
"""

from __future__ import annotations

import math
from typing import Iterator, Mapping

import numpy as np

from .engine import (NORM_TOL, NumericalError, SiteDistribution, WalkConfig, _last,
                     _UNIT_ROUNDOFF, kraus_pair, memoised)
from .laurent import TRIM_TOL, FiniteSequence, LaurentOperator, window_sum

REAL_TOL = 1e-12
NONNEG_TOL = 1e-12


class IncompatibleCoinError(ValueError):
    """The coin initialization breaks the base case of the memory decomposition.

    Carries the measured one-step right-move probability so callers can
    report how far the configuration is from compatibility.
    """

    def __init__(self, measured_right: float, expected_right: float):
        self.measured_right = measured_right
        self.expected_right = expected_right
        super().__init__(
            "one-step right probability "
            f"{measured_right:.12g} != {expected_right:.12g} required by the "
            "classical kernel convention"
        )


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
            if np.count_nonzero(~(self.values >= -NONNEG_TOL)):  # NaN too
                raise NumericalError("stochastic kernel has a negative coefficient")
            target = 1.0
        elif kind == "null-sum":
            target = 0.0
        elif kind is not None:
            raise ValueError(f"unknown kernel kind: {kind!r}")
        if kind is not None:
            total = self.coefficient_sum
            bound = len(self) * _UNIT_ROUNDOFF * float(np.abs(self.values).sum())
            if not abs(total - target) <= NORM_TOL + bound < math.inf:  # NaN, inf too
                raise NumericalError(f"{kind} kernel sums to {total}, not {target:g}")
        self.kind = kind

    @classmethod
    def from_laurent(cls, op: LaurentOperator, kind: str | None = None) -> "RealKernel":
        """Cast a Laurent operator with (analytically) real coefficients."""
        imag = ~(np.abs(op.values.imag) <= REAL_TOL)  # NaN too
        if np.count_nonzero(imag):
            k = int(np.argmax(imag))
            raise NumericalError(f"coefficient at degree {op.lo + k} has imaginary part "
                             f"{op.values.imag[k]}")
        return cls((op.lo, op.values.real), kind)

    @classmethod
    def identity(cls) -> "RealKernel":
        return cls({0: 1.0}, "stochastic")

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
        # the convolution as shifted adds over ascending kernel degrees
        degrees = enumerate(self.values.tolist(), self.lo + dist.lo)
        return SiteDistribution(window_sum((lo, c * dist.values) for lo, c in degrees if c))


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


@memoised
def quantum_kernel(config: WalkConfig, n: int) -> RealKernel:
    """The doubly stochastic kernel of the n-step globally traced walk.

    Built from degree-wise modulus-squared Kraus coefficients; applying it
    to the origin delta reproduces the n-step site distribution.  Memoised.
    """
    a0, a1 = kraus_pair(config, n)
    op = a0.hadamard_conj(a0) + a1.hadamard_conj(a1)
    return RealKernel.from_laurent(op, "stochastic")


@memoised
def mixing_matrix(config: WalkConfig, i: int) -> RealKernel:
    """The inhomogeneous mixing term of the kernel recurrence at step i.  Memoised."""
    if i < 0:
        raise ValueError(f"step count must be nonnegative, got {i}")
    if i == 0:
        return RealKernel({})
    p = _require_bias(config)
    a0, a1 = kraus_pair(config, i)
    cross = a0.hadamard_conj(a1) + a1.hadamard_conj(a0)
    op = math.sqrt(p * (1.0 - p)) * cross + (2.0 * p - 1.0) * a0.hadamard_conj(a0)
    return RealKernel.from_laurent(op)


def reshuffling_matrix(config: WalkConfig, i: int) -> RealKernel:
    """The null-sum kernel weighting the (n-i)-step classical distribution."""
    if i < 1:
        raise ValueError(f"reshuffling index must be at least 1, got {i}")
    return SHIFT_DIFFERENCE.convolve(mixing_matrix(config, i - 1))


def phi_matrix(config: WalkConfig) -> RealKernel:
    """The fixed null-sum part of the period-2 delayed kernel."""
    kernel = delayed_kernel(config) - classical_kernel(_require_bias(config))
    return RealKernel((kernel.lo, kernel.values), "null-sum")


def delayed_kernel(config: WalkConfig, m: int = 2) -> RealKernel:
    """The fixed doubly stochastic kernel of the period-m delayed walk.

    Tracing the coin every m steps applies the m-step Kraus pair each
    period, so this is the m-step quantum kernel.
    """
    if m < 1:
        raise ValueError(f"trace period must be at least 1, got {m}")
    return quantum_kernel(config, m)


def kernel_walk(kernel: RealKernel, n: int) -> list[SiteDistribution]:
    """Repeatedly apply a stochastic kernel to the origin delta; returns the n+1 distributions."""
    return list(_kernel_steps(kernel, n))


def _kernel_steps(kernel: RealKernel, n: int) -> Iterator[SiteDistribution]:
    """The kernel walk's distributions after steps 0..n, one at a time."""
    if n < 0:
        raise ValueError(f"step count must be nonnegative, got {n}")
    if kernel.kind != "stochastic":
        raise ValueError("kernel walk requires a stochastic kernel")
    current = SiteDistribution.delta(0)
    yield current
    for _ in range(n):
        current = kernel.apply_distribution(current)
        yield current


def _prompt_kernel(config: WalkConfig) -> RealKernel:
    """The one-step kernel of the walk whose coin is traced after every step.

    Tracing every step restarts each step from the initial coin, so the walk
    is the period-1 kernel walk.  The weights are taken as ``abs(a) ** 2``;
    ``delayed_kernel(config, 1)`` forms re^2 + im^2, which rounds differently.
    """
    u = config.coin_unitary
    right = abs(u[0, 0] * config.c + u[0, 1] * config.d) ** 2
    left = abs(u[1, 0] * config.c + u[1, 1] * config.d) ** 2
    return RealKernel({-1: left, +1: right}, "stochastic")


def prompt_trajectory(config: WalkConfig, n: int) -> list[SiteDistribution]:
    """Distributions of the promptly traced walk for steps 0..n."""
    return list(_prompt_steps(config, n))


def _prompt_steps(config: WalkConfig, n: int) -> Iterator[SiteDistribution]:
    """The distributions of :func:`prompt_trajectory`, one at a time."""
    return _kernel_steps(_prompt_kernel(config), n)


def prompt_distribution(config: WalkConfig, n: int) -> SiteDistribution:
    """Distribution after n steps with the coin traced after every step."""
    return _last(_prompt_steps(config, n))


def binomial_solution(config: WalkConfig, n: int) -> SiteDistribution:
    """The closed-form period-2 kernel walk as a binomial sum of kernel powers.

    Valid because the classical kernel and its null-sum correction commute
    as translation-invariant kernels.
    """
    if n < 0:
        raise ValueError(f"step count must be nonnegative, got {n}")
    delta_c = classical_kernel(_require_bias(config))
    phi = phi_matrix(config)
    # one convolution per power; from the kindless unit kernel the classical
    # powers carry no kind, so they skip the stochastic re-check
    phi_powers, classical_powers = [RealKernel({0: 1.0})], [RealKernel({0: 1.0})]
    for _ in range(n):
        phi_powers.append(phi_powers[-1].convolve(phi))
        classical_powers.append(classical_powers[-1].convolve(delta_c))
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
    if n < 0:
        raise ValueError(f"step count must be nonnegative, got {n}")
    p = _require_bias(config)
    a0, _ = kraus_pair(config, 1)
    measured_right = abs(a0.coeff(+1)) ** 2
    if abs(measured_right - (1.0 - p)) > 1e-10:
        raise IncompatibleCoinError(measured_right, 1.0 - p)
    acc = _memory_sum(config, classical_kernel(p), n)
    clipped = np.where(acc.values > TRIM_TOL, acc.values, 0.0)
    return SiteDistribution((acc.lo, clipped), sum_tol=1e-9)


def _memory_sum(config: WalkConfig, delta_c: RealKernel, n: int) -> RealKernel:
    """delta_c^n + sum_{i=2..n} Omega_i * delta_c^(n-i), trimmed but not clipped or validated.

    The classical powers start from the kindless unit kernel, so they skip
    the stochastic re-check: the tails trimmed off each power add up to
    1.8e-12 of the mass by n = 400, beyond that check's rounding bound.
    """
    classical = [RealKernel({0: 1.0})]
    for _ in range(n):
        classical.append(delta_c.convolve(classical[-1]))
    terms = [classical[n]]
    terms += [reshuffling_matrix(config, i).convolve(classical[n - i]) for i in range(2, n + 1)]
    return RealKernel(window_sum((t.lo, t.values) for t in terms))

