"""Entropy, moments, Lorenz curves, and majorization over site distributions."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .engine import SiteDistribution

PARTIAL_SUM_TOL = 1e-12


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


def shannon_entropy(dist: SiteDistribution) -> float:
    """Natural-log Shannon entropy; zero-probability sites contribute nothing."""
    probs = dist.probabilities()  # the stored positive entries only
    return float(-np.sum(probs * np.log(probs)))


def moment(dist: SiteDistribution, m: int) -> float:
    """The m-th moment of the site index under the distribution."""
    if m < 0:
        raise ValueError(f"moment order must be nonnegative, got {m}")
    sites, probs = dist.to_arrays()
    return float(np.sum(np.power(sites.astype(float), m) * probs))


def standard_deviation(dist: SiteDistribution) -> float:
    var = moment(dist, 2) - moment(dist, 1) ** 2
    return float(np.sqrt(max(var, 0.0)))


def _partial_sums(dist: SiteDistribution) -> np.ndarray:
    """Partial sums of the probabilities sorted into nonincreasing order."""
    return np.cumsum(np.sort(dist.probabilities())[::-1])


def lorenz_curve(dist: SiteDistribution) -> LorenzCurve:
    """Lorenz curve of a distribution over the slots of its support.

    Zero-probability (structural parity) sites are never part of the
    support; curves of unequal length compare as in :func:`_verdict`.
    """
    gammas = np.concatenate([[0.0], _partial_sums(dist)])
    gammas[-1] = 1.0
    n = gammas.size - 1
    return LorenzCurve(np.arange(n + 1) / n, gammas)


def compare_majorization(p: SiteDistribution, q: SiteDistribution) -> MajorizationVerdict:
    """The majorization relation of two distributions, padded as in :func:`_verdict`."""
    return _verdict(_partial_sums(p), _partial_sums(q))


def majorization_chain(trajectory: Iterable[SiteDistribution]) -> list[MajorizationVerdict]:
    """Entry n is ``compare_majorization(trajectory[n], trajectory[n + 1])``.

    Each distribution is sorted once, and only the previous step's partial
    sums are held.  Padding is as in :func:`_verdict`.
    """
    sums = map(_partial_sums, trajectory)
    prev = next(sums, None)
    verdicts = []
    for current in sums:
        verdicts.append(_verdict(prev, current))
        prev = current
    return verdicts


def _verdict(cp: np.ndarray, cq: np.ndarray) -> MajorizationVerdict:
    """The majorization relation of two nonempty partial-sum vectors.

    Vectors of unequal length follow the standard convention of zero-padding
    the shorter distribution.  Adding a 0.0 slot leaves a partial sum
    bitwise unchanged, so the shorter vector repeats its last partial sum.
    """
    if cp.size != cq.size:
        size = max(cp.size, cq.size)
        cp, cq = (np.append(c, np.full(size - c.size, c[-1])) for c in (cp, cq))
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

