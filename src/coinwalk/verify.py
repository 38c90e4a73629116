"""Verification suites over the walk algebra, kernels, and analysis layer.

Each suite gives its check records, under its own default tolerance unless
given one, and :func:`run_suite` collects them for JSON serialization:
``{"name", "params", "max_residual", "tolerance", "pass", "informational"}``,
plus a ``"note"`` where the check explains itself.  A check passes when its
residual is at most its tolerance (a NaN residual fails).  Informational
checks record findings (convention scans, documented divergences) and never
fail a run.  JSON has no NaN or infinity, so a record's residual or
tolerance that is not finite is written as ``null``.  Every walk a suite
reads comes from :func:`coinwalk.kernels.walk_steps`; the kraus, stochastic,
recurrence and memory suites read every Kraus pair of the grid from one
ascending pass per coin, which :func:`run_suite` shares among them.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from typing import Iterator

from . import analysis, kernels
from .engine import (NumericalError, SiteDistribution, WalkConfig, _block_powers, _pair,
                     completeness_defect, kraus_pair)
from .kernels import RealKernel, classical_kernel, phi_matrix, walk_steps
from .laurent import LaurentOperator

P_GRID = (0.25, 1.0 / 3.0, 0.5, 0.75)
COIN_INITS = {
    "c=0,d=1": (0.0, 1.0),
    "symmetric": (WalkConfig.symmetric().c, WalkConfig.symmetric().d),
}


def _check(name, params, residual, tol, informational=False, note=None) -> dict:
    record = {
        "name": name,
        "params": params,
        "max_residual": float(residual),
        "tolerance": float(tol),
        "pass": bool(informational or residual <= tol),
        "informational": bool(informational),
    }
    if note:
        record["note"] = note
    return {k: None if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in record.items()}


def _holds(name, params, ok, informational=False, note=None) -> dict:
    """A yes/no check: residual 0 when ``ok``, else 1, against 0.5."""
    return _check(name, params, float(not ok), 0.5, informational, note)


def _grid():
    """``(params, config)`` for each coin bias in P_GRID and initial coin state."""
    for p in P_GRID:
        for label, (c, d) in COIN_INITS.items():
            yield {"p": p, "coin": label}, WalkConfig(c=c, d=d, p=p)


#: The memory suite's configs, in its order, and their labels.
_MEMORY = {WalkConfig.symmetric(): "symmetric p=1/2",
           **{WalkConfig(c=0.0, d=1.0, p=p): f"c=0,d=1 p={p:.4g}" for p in P_GRID}}


def _worst(residuals) -> float:
    """The largest residual, never below 0 (so 0 for none)."""
    return max((0.0, *residuals))


def _ordered(trajectory) -> bool:
    """Whether each distribution majorizes (or equals) the next."""
    ordered = (analysis.Verdict.FIRST_MAJORIZES, analysis.Verdict.EQUAL)
    return all(v.relation in ordered for v in analysis.majorization_chain(trajectory))


class _Folded:
    """A suite whose records are read off the Kraus pass of each coin of the grid.

    :func:`run_suite` folds every such suite it runs over one pass per coin;
    alone, one is folded on first iteration.  Iterating raises the
    NumericalError that stopped the suite: the first in its config order,
    and within a config the first it meets reading its terms in step order.
    """

    def __init__(self, suite: str, max_steps: int, tol: float):
        self.suite, self.max_steps, self.tol, self.outcomes = suite, max_steps, tol, None

    def __iter__(self):
        if self.outcomes is None:
            _fold([self])
        return itertools.chain.from_iterable(map(_read, self.outcomes))


def _tried(build, *args, **kwargs):
    """``build(*args, **kwargs)``, or the NumericalError it raised, for ``_read`` to raise."""
    try:
        return build(*args, **kwargs)
    except NumericalError as exc:
        return exc


def _read(value):
    if isinstance(value, NumericalError):
        raise value
    return value


def _fold(folds: list[_Folded]) -> None:
    """Set the outcomes of folds of one max_steps n, from one pass per coin of the grid.

    The step powers run to n + 1.  Of each grid config with that coin, the pass
    keeps what the suites reading the config read: the completeness defects
    of Kraus pairs 0..n, and the kernel K_k and term Omega_(k+1) of pair k.
    """
    if not folds:
        return
    n, outcomes = folds[0].max_steps, {}
    for _, coin in itertools.groupby(_grid(), lambda item: item[1]._unitary_bytes):
        readers = []  # params, config, the suites reading it, and what they read
        for params, cfg in coin:
            reading = {fold.suite for fold in folds if fold.suite != "memory" or cfg in _MEMORY}
            if reading:
                readers.append((params, cfg, reading, ([], [], [])))
        # the step powers of the coin, which its configs share
        for k, block in enumerate(_block_powers(readers[0][1], n + 1)):
            for _, reader, reading, (defects, kernel_terms, omegas) in readers:
                pair = _pair(reader, block)
                if "kraus" in reading and k <= n:
                    defects.extend(map(completeness_defect, (pair, [a.adjoint() for a in pair])))
                if reading & {"stochastic", "recurrence"}:
                    kernel_terms.append(_tried(kernels._kernel, pair))
                if reading - {"kraus"} and k <= n:
                    omegas.append(_tried(kernels._reshuffling, reader, k + 1, pair))
        for params, cfg, reading, terms in readers:
            for fold in folds:
                if fold.suite in reading:
                    checks = _FOLD_CHECKS[fold.suite](params, cfg, terms, n, fold.tol)
                    outcomes[fold.suite, cfg] = _tried(list, checks)
    for fold in folds:
        configs = _MEMORY if fold.suite == "memory" else [cfg for _, cfg in _grid()]
        fold.outcomes = [outcomes[fold.suite, cfg] for cfg in configs]
        if fold.suite == "memory":
            fold.outcomes.append(_tried(list, _convention_scan(n, fold.tol)))


def _kraus_checks(params, cfg, terms, n, tol):
    yield _check("kraus-completeness-both-orders", {**params, "steps": f"0..{n}"},
                 _worst(terms[0]), tol)


def _stochastic_checks(params, cfg, terms, n, tol):
    # kernel k and term k + 1 share a Kraus pair, read in turn; the period-2
    # kernel is always checked
    powers, null_sum = [], [phi_matrix(cfg)]
    for k in range(max(n, 2) + 1):
        powers.append(_read(terms[1][k]))
        if k < n:
            null_sum.append(_read(terms[2][k]))
    steps = {**params, "steps": f"0..{n}"}
    yield _check("quantum-kernel-unit-sum", steps,
                 _worst(abs(k.coefficient_sum - 1.0) for k in powers), tol)
    yield _check("quantum-kernel-nonnegative", steps,
                 _worst(-v for k in powers for _, v in k.items()), tol)
    yield _check("null-sum-corrections", {**params, "indices": f"1..{n}"},
                 _worst(abs(k.coefficient_sum) for k in null_sum), tol)


def _recurrence_checks(params, cfg, terms, n, tol):
    _, kernel_terms, omegas = terms
    delta_c = classical_kernel(cfg.p)
    residuals = (_read(kernel_terms[k + 1]).distance(
        delta_c.convolve(_read(kernel_terms[k])) + _read(omegas[k])) for k in range(1, n + 1))
    yield _check("kernel-recurrence", {**params, "steps": f"1..{n}"}, _worst(residuals), tol)


def _memory_checks(params, cfg, terms, n, tol):
    # reconstruction k adds held terms: Omega_2..Omega_k, Omega_k read after the
    # walk's step k, and the classical powers up to k
    classical, omegas, residuals = kernels._powers(classical_kernel(cfg.p), n), [], []
    for k, dist in itertools.islice(enumerate(walk_steps(cfg, "global", n)), 1, None):
        if k > 1:
            omegas.append(_read(terms[2][k - 1]))
        acc = kernels._memory_sum(omegas, classical, k)
        residuals.append(kernels._memory_distribution(acc).distance(dist))
    yield _check("pseudo-memory-reconstruction", {"config": _MEMORY[cfg], "steps": f"1..{n}"},
                 _worst(residuals), tol)


_FOLD_CHECKS = {"kraus": _kraus_checks, "stochastic": _stochastic_checks,
                "recurrence": _recurrence_checks, "memory": _memory_checks}


def _convention_scan(n, tol):
    # For an incompatible coin: which bias labeling (if either) of the
    # classical kernel reproduces the quantum distribution.
    cfg, top = WalkConfig(c=1.0, d=0.0, p=0.25), min(n, 8)
    trajectory, omegas = list(walk_steps(cfg, "global", top)), kernels._reshufflings(cfg, top)
    for swap, bias in (("as-stated", 0.25), ("swapped", 0.75)):
        classical = kernels._powers(classical_kernel(bias), top)
        worst = _worst(kernels._memory_sum(omegas, classical, k).distance(trajectory[k])
                       for k in range(1, top + 1))
        yield _check("memory-convention-scan",
                     {"config": "c=1,d=0 p=0.25", "classical_bias": swap}, worst, tol,
                     informational=True,
                     note="residual of the decomposition for an incompatible coin")


def suite_prop2(max_steps: int, tol: float = 1e-10) -> Iterator[dict]:
    cfg = WalkConfig.symmetric()

    # closed-form period-2 Kraus generators against the generic block power
    p, c, d = 0.5, cfg.c, cfg.d
    b0, b1 = kraus_pair(cfg, 2)
    root = math.sqrt(p * (1.0 - p))
    b0_closed = LaurentOperator({+2: p * c + root * d, 0: (1.0 - p) * c - root * d})
    b1_closed = LaurentOperator({-2: p * d - root * c, 0: (1.0 - p) * d + root * c})
    yield _check("period2-kraus-closed-form", {"config": "symmetric p=1/2"},
                 max(b0.distance(b0_closed), b1.distance(b1_closed)), tol)

    # binomial solution against the iterated kernel walk, and its majorization chain
    walk = list(walk_steps(cfg, "kernel", max_steps))
    params = {"config": "symmetric p=1/2", "steps": f"0..{max_steps}"}
    # the powers of phi and delta_c, built once for every n
    powers = (kernels._powers(phi_matrix(cfg), max_steps),
              kernels._powers(classical_kernel(cfg.p), max_steps))
    worst = _worst(kernels._binomial_sum(*powers, n).distance(w) for n, w in enumerate(walk))
    yield _check("binomial-solution", params, worst, tol)
    yield _holds("kernel-walk-majorization-chain", params, _ordered(walk))

    # density-matrix iteration: second moments against the published ratios
    iters = min(max_steps, 5)
    diagonals = list(walk_steps(cfg, "cp", iters))
    second_moments = [analysis.moment(diagonal, 2) for diagonal in diagonals]
    expected = {2: 5.0, 3: 9.0, 4: 14.0, 5: 20.0}
    worst = _worst(abs(second_moments[n] - v) for n, v in expected.items() if n <= iters)
    yield _check("cp-walk-second-moments", {"iterations": f"2..{iters}"}, worst, tol)
    yield _check("cp-walk-first-iteration-moment",
                 {"measured": second_moments[1], "published_sigma_ratio": 1.0},
                 abs(second_moments[1] - 1.0), tol, informational=True,
                 note="iterated map gives <L^2> = 2 at iteration 1; the "
                 "published table lists sigma equal to the classical value")
    # kernel/cp divergence: equal diagonals through one iteration, then a
    # genuine gap once off-diagonal feedback appears
    agree = max(walk[n].total_variation(diagonals[n]) for n in (0, 1))
    yield _check("kernel-cp-agreement-start", {"steps": "0..1"}, agree, tol)
    if iters >= 2:
        gap = walk[2].total_variation(diagonals[2])
        yield _holds("kernel-cp-divergence", {"step": 2, "total_variation": gap},
                     gap > 1e-6, informational=True,
                     note="the two walk readings separate once the density matrix "
                     "develops off-diagonal terms")


def suite_analysis(max_steps: int, tol: float = 1e-12) -> Iterator[dict]:
    cfg = WalkConfig.symmetric()
    trajectory = list(walk_steps(cfg, "global", 9))

    entropies = [analysis.shannon_entropy(trajectory[n]) for n in range(6, 10)]
    published = (1.6551, 1.8138, 1.8909, 1.9295)
    yield _check("entropy-checkpoints", {"config": "symmetric p=1/2", "steps": "6..9"},
                 max(abs(a - b) for a, b in zip(entropies, published)), 5e-4)

    # classical chain: majorization and entropy monotone
    residuals = []
    for p in (0.25, 0.5):
        classical = list(walk_steps(WalkConfig(c=0.0, d=1.0, p=p), "prompt", min(max_steps, 30)))
        series = [analysis.shannon_entropy(d) for d in classical]
        residuals += [float(not _ordered(classical)), *(a - b for a, b in zip(series, series[1:]))]
    yield _check("classical-chain-majorization-entropy",
                 {"p": "0.25, 0.5", "steps": f"0..{min(max_steps, 30)}"}, _worst(residuals), tol)

    # mixing monotonicity over randomized kernels and distributions
    rng = random.Random(20260823)
    failures = 0
    for _ in range(200):
        width = rng.randint(2, 5)
        coeffs = [rng.random() for _ in range(width)]
        kernel = RealKernel(
            {d - width // 2: v / sum(coeffs) for d, v in enumerate(coeffs)}, "stochastic"
        )
        probs = [rng.random() for _ in range(rng.randint(2, 8))]
        dist = SiteDistribution({s: v / sum(probs) for s, v in enumerate(probs)})
        failures += not _ordered([dist, kernel.apply_distribution(dist)])
    yield _check("mixing-monotonicity-randomized", {"cases": 200}, failures, 0.5)

    # entropy dynamics: breakdown window plus the documented cluster scan
    breakdown = any(v.relation is analysis.Verdict.INCOMPARABLE and v.crossings
                    for v in analysis.majorization_chain(trajectory[6:10]))
    increasing = all(entropies[k + 1] > entropies[k] for k in range(3))
    yield _holds("majorization-breakdown-window", {"steps": "6..9"}, breakdown and increasing)

    cluster = {}
    for p in P_GRID:
        last = itertools.islice(walk_steps(WalkConfig.symmetric(p), "global", 51), 49, None)
        cluster[f"p={p:.4g}"] = [round(analysis.shannon_entropy(d), 4) for d in last]
    yield _check("entropy-cluster-scan",
                 {"published": [3.3498, 3.3467, 3.3408], "measured": cluster}, 0.0, 1.0,
                 informational=True,
                 note="entropies at steps 49..51 per coin bias; the published "
                 "cluster is attributed ambiguously in the source material")


SUITES = {
    "kraus": functools.partial(_Folded, "kraus", tol=1e-12),
    "stochastic": functools.partial(_Folded, "stochastic", tol=1e-12),
    "recurrence": functools.partial(_Folded, "recurrence", tol=1e-10),
    "memory": functools.partial(_Folded, "memory", tol=1e-10),
    "prop2": suite_prop2,
    "analysis": suite_analysis,
}


def run_suite(name: str, max_steps: int = 12, tol: float | None = None) -> dict:
    """Run one suite (or ``all``) and return the JSON-ready report."""
    if max_steps < 1:
        raise ValueError(f"max_steps must be at least 1, got {max_steps}")
    if tol is not None and not 0.0 <= tol < math.inf:  # NaN too
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol}")
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite: {name!r}")
    given = {} if tol is None else {"tol": tol}  # none given: each suite's own default
    runs = {suite: _tried(SUITES[suite], max_steps, **given)
            for suite in (SUITES if name == "all" else (name,))}
    _fold([run for run in runs.values() if isinstance(run, _Folded)])
    checks = []
    for suite, run in runs.items():
        try:  # list() first, so that a failing suite adds none of its records
            checks += list(_read(run))
        except NumericalError as exc:  # the suite's own checks are lost; the report is not
            checks.append(_check(f"{suite}-numerical-failure", {"max_steps": max_steps},
                                 exc.value, exc.bound, note=str(exc)))
    return {
        "suite": name,
        "max_steps": max_steps,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }
