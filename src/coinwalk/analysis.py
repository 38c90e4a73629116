"""Entropy, moments, Lorenz curves, and majorization over site distributions."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .engine import SiteDistribution

PARTIAL_SUM_TOL = 1e-12
DESCENT_TOL = 1e-12


class Verdict(enum.Enum):
    EQUAL = "Equal"
    FIRST_MAJORIZES = "FirstMajorizes"
    SECOND_MAJORIZES = "SecondMajorizes"
    INCOMPARABLE = "Incomparable"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class MajorizationVerdict:
    relation: Verdict
    #: Indices of the partial-sum sequence where the difference changes sign;
    #: nonempty exactly when the relation is Incomparable.
    crossings: tuple[int, ...] = ()


@dataclass(frozen=True)
class LorenzCurve:
    """Cumulative partial sums of a nonincreasingly sorted distribution."""

    fractions: np.ndarray  # n / N for n = 0..N
    gammas: np.ndarray  # partial sums, gamma_0 = 0, gamma_N = 1

    def __post_init__(self):
        object.__setattr__(self, "fractions", np.asarray(self.fractions, dtype=float))
        object.__setattr__(self, "gammas", np.asarray(self.gammas, dtype=float))


@dataclass(frozen=True)
class EntropySeries:
    """Summary of an entropy time series along a walk trajectory."""

    entropies: np.ndarray
    slope: float  # least-squares slope of entropy against step index
    descents: tuple[int, ...]  # indices N with S(N+1) < S(N) beyond tolerance
    #: For each stride s, (start, length) of a maximal run of strictly
    #: increasing entropies along the arithmetic subsequence with step s.
    increasing_runs: dict[int, tuple[int, int]]

    @property
    def mean_increase(self) -> float:
        if len(self.entropies) < 2:
            return 0.0
        return float(self.entropies[-1] - self.entropies[0]) / (len(self.entropies) - 1)


def shannon_entropy(dist: SiteDistribution) -> float:
    """Natural-log Shannon entropy; zero-probability sites contribute nothing."""
    probs = dist.probabilities()
    if probs.size == 0:
        return 0.0
    if np.min(probs) < -1e-12:
        raise ValueError("distribution has a negative probability")
    probs = probs[probs > 0.0]
    return float(-np.sum(probs * np.log(probs)))


def moment(dist: SiteDistribution, m: int) -> float:
    """The m-th moment of the site index under the distribution."""
    if m < 0:
        raise ValueError(f"moment order must be nonnegative, got {m}")
    sites, probs = dist.to_arrays()
    if sites.size == 0:
        return 1.0 if m == 0 else 0.0
    return float(np.sum(np.power(sites.astype(float), m) * probs))


def standard_deviation(dist: SiteDistribution) -> float:
    var = moment(dist, 2) - moment(dist, 1) ** 2
    return float(np.sqrt(max(var, 0.0)))


def _sorted_padded(dist: SiteDistribution, slots: int | None = None) -> np.ndarray:
    probs = np.sort(dist.probabilities())[::-1]
    if slots is not None:
        if slots < probs.size:
            raise ValueError(f"cannot pad {probs.size} probabilities into {slots} slots")
        probs = np.concatenate([probs, np.zeros(slots - probs.size)])
    return probs


def lorenz_curve(dist: SiteDistribution, slots: int | None = None) -> LorenzCurve:
    """Lorenz curve of a distribution, optionally zero-padded to ``slots``.

    Zero-probability (structural parity) sites carry no mass and are never
    part of the support, so padding only appends flat trailing segments.
    """
    probs = _sorted_padded(dist, slots)
    n = probs.size
    gammas = np.concatenate([[0.0], np.cumsum(probs)])
    gammas[-1] = 1.0
    return LorenzCurve(np.arange(n + 1) / n, gammas)


def compare_majorization(
    p: SiteDistribution, q: SiteDistribution
) -> MajorizationVerdict:
    """Decide the majorization relation between two distributions.

    Supports of different sizes are zero-padded to a common slot count before
    sorting, the standard convention for probability vectors of unequal
    length.
    """
    slots = max(len(p), len(q))
    cp = np.cumsum(_sorted_padded(p, slots))
    cq = np.cumsum(_sorted_padded(q, slots))
    diff = cp - cq
    if np.all(np.abs(diff) <= PARTIAL_SUM_TOL):
        return MajorizationVerdict(Verdict.EQUAL)
    if np.all(diff >= -PARTIAL_SUM_TOL):
        return MajorizationVerdict(Verdict.FIRST_MAJORIZES)
    if np.all(diff <= PARTIAL_SUM_TOL):
        return MajorizationVerdict(Verdict.SECOND_MAJORIZES)
    return MajorizationVerdict(Verdict.INCOMPARABLE, _crossings(diff))


def _crossings(diff: np.ndarray) -> tuple[int, ...]:
    """Indices where the partial-sum difference strictly changes sign.

    Entries within ``PARTIAL_SUM_TOL`` of zero have no sign and are
    skipped: an index is a crossing when its sign is opposite to that of
    the nearest signed entry before it.  Returned as Python ints.
    """
    signs = np.where(diff > PARTIAL_SUM_TOL, 1, np.where(diff < -PARTIAL_SUM_TOL, -1, 0))
    signed = np.flatnonzero(signs)
    changes = np.flatnonzero(np.diff(signs[signed]))
    return tuple(signed[changes + 1].tolist())


def entropy_series(
    trajectory: Sequence[SiteDistribution], max_stride: int = 6
) -> EntropySeries:
    """Entropies along a trajectory with slope, descents, and increasing runs."""
    if not trajectory:
        raise ValueError("trajectory must be nonempty")
    entropies = np.array([shannon_entropy(d) for d in trajectory])
    if entropies.size > 1:
        slope = float(np.polyfit(np.arange(entropies.size), entropies, 1)[0])
    else:
        slope = 0.0
    descents = tuple(
        int(i)
        for i in range(entropies.size - 1)
        if entropies[i + 1] < entropies[i] - DESCENT_TOL
    )
    runs = {
        stride: _longest_increasing_run(entropies, stride)
        for stride in range(1, min(max_stride, max(entropies.size - 1, 1)) + 1)
    }
    return EntropySeries(entropies, slope, descents, runs)


def _longest_increasing_run(values: np.ndarray, stride: int) -> tuple[int, int]:
    """(start, length) of a maximal strictly increasing arithmetic subsequence."""
    best = (0, 1)
    for start in range(min(stride, values.size)):
        sub = values[start::stride]
        run_start, run_len = 0, 1
        for k in range(1, sub.size):
            if sub[k] > sub[k - 1] + DESCENT_TOL:
                run_len += 1
            else:
                run_start, run_len = k, 1
            if run_len > best[1]:
                best = (start + stride * run_start, run_len)
    return best
