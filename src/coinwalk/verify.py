"""Verification suites over the walk algebra, kernels, and analysis layer.

Each suite returns a list of check records suitable for JSON serialization:
``{"name", "params", "max_residual", "pass", "informational"}``.
Informational checks record findings (convention scans, documented
divergences) and never fail a run.
"""

from __future__ import annotations

import math

import numpy as np

from . import analysis, kernels
from .engine import (
    SiteDistribution,
    WalkConfig,
    cp_walk,
    global_trajectory,
    kraus_pair,
)
from .kernels import (
    RealKernel,
    SHIFT_DIFFERENCE,
    classical_kernel,
    delayed_kernel,
    kernel_walk,
    mixing_matrix,
    phi_matrix,
    prompt_trajectory,
    pseudo_memory_reconstruct,
    quantum_kernel,
    reshuffling_matrix,
)
from .laurent import IDENTITY, LaurentOperator

P_GRID = (0.25, 1.0 / 3.0, 0.5, 0.75)
COIN_INITS = {
    "c=0,d=1": (0.0, 1.0),
    "symmetric": (1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0)),
}


def _check(name, params, residual, tol, informational=False, note=None):
    record = {
        "name": name,
        "params": params,
        "max_residual": float(residual),
        "tolerance": float(tol),
        "pass": bool(residual <= tol),
        "informational": bool(informational),
    }
    if note:
        record["note"] = note
    if informational:
        record["pass"] = True
    return record


def _ordered(trajectory) -> bool:
    """Whether each distribution majorizes (or equals) the next."""
    ordered = (analysis.Verdict.FIRST_MAJORIZES, analysis.Verdict.EQUAL)
    return all(v.relation in ordered for v in analysis.majorization_chain(trajectory))


def _configs():
    for p in P_GRID:
        for label, (c, d) in COIN_INITS.items():
            yield p, label, WalkConfig(c=c, d=d, p=p)


def suite_kraus(max_steps: int, tol: float | None = None) -> list[dict]:
    tol = 1e-12 if tol is None else tol
    checks = []
    for p, label, cfg in _configs():
        worst = 0.0
        for n in range(max_steps + 1):
            a0, a1 = kraus_pair(cfg, n)
            left = a0.adjoint() * a0 + a1.adjoint() * a1
            right = a0 * a0.adjoint() + a1 * a1.adjoint()
            worst = max(worst, left.distance(IDENTITY), right.distance(IDENTITY))
        checks.append(
            _check(
                "kraus-completeness-both-orders",
                {"p": p, "coin": label, "steps": f"0..{max_steps}"},
                worst,
                tol,
            )
        )
    return checks


def suite_stochastic(max_steps: int, tol: float | None = None) -> list[dict]:
    tol = 1e-12 if tol is None else tol
    checks = []
    for p, label, cfg in _configs():
        worst_sum = 0.0
        worst_neg = 0.0
        # n = 2 is also the period-2 delayed kernel, checked at every max_steps
        for n in range(max(max_steps, 2) + 1):
            k = quantum_kernel(cfg, n)
            worst_sum = max(worst_sum, abs(k.coefficient_sum - 1.0))
            worst_neg = max(worst_neg, max((-v for _, v in k.items()), default=0.0))
        checks.append(
            _check(
                "quantum-kernel-unit-sum",
                {"p": p, "coin": label, "steps": f"0..{max_steps}"},
                worst_sum,
                tol,
            )
        )
        checks.append(
            _check(
                "quantum-kernel-nonnegative",
                {"p": p, "coin": label, "steps": f"0..{max_steps}"},
                worst_neg,
                tol,
            )
        )
        null_worst = abs(phi_matrix(cfg).coefficient_sum)
        for i in range(1, max_steps + 1):
            null_worst = max(null_worst, abs(reshuffling_matrix(cfg, i).coefficient_sum))
        checks.append(
            _check(
                "null-sum-corrections",
                {"p": p, "coin": label, "indices": f"1..{max_steps}"},
                null_worst,
                tol,
            )
        )
    return checks


def suite_recurrence(max_steps: int, tol: float | None = None) -> list[dict]:
    tol = 1e-10 if tol is None else tol
    checks = []
    for p, label, cfg in _configs():
        worst = 0.0
        delta_c = classical_kernel(p)
        for n in range(1, max_steps + 1):
            lhs = quantum_kernel(cfg, n + 1)
            rhs = delta_c.convolve(quantum_kernel(cfg, n)) + SHIFT_DIFFERENCE.convolve(
                mixing_matrix(cfg, n)
            )
            worst = max(worst, lhs.distance(rhs))
        checks.append(
            _check(
                "kernel-recurrence",
                {"p": p, "coin": label, "steps": f"1..{max_steps}"},
                worst,
                tol,
            )
        )
    return checks


def _memory_configs():
    yield "symmetric p=1/2", WalkConfig.symmetric()
    for p in P_GRID:
        yield f"c=0,d=1 p={p:.4g}", WalkConfig(c=0.0, d=1.0, p=p)


def suite_memory(max_steps: int, tol: float | None = None) -> list[dict]:
    tol = 1e-10 if tol is None else tol
    checks = []
    for label, cfg in _memory_configs():
        trajectory = global_trajectory(cfg, max_steps)
        worst = 0.0
        for n in range(1, max_steps + 1):
            rebuilt = pseudo_memory_reconstruct(cfg, n)
            worst = max(worst, rebuilt.distance(trajectory[n]))
        checks.append(
            _check("pseudo-memory-reconstruction", {"config": label,
                                                    "steps": f"1..{max_steps}"},
                   worst, tol)
        )
    # Convention scan for an incompatible coin: which bias labeling (if
    # either) of the classical kernel reproduces the quantum distribution.
    p = 0.25
    cfg = WalkConfig(c=1.0, d=0.0, p=p)
    trajectory = global_trajectory(cfg, min(max_steps, 8))
    for swap, bias in (("as-stated", p), ("swapped", 1.0 - p)):
        delta_c = classical_kernel(bias)
        worst = max(
            kernels._memory_sum(cfg, delta_c, n).distance(trajectory[n])
            for n in range(1, min(max_steps, 8) + 1)
        )
        checks.append(
            _check(
                "memory-convention-scan",
                {"config": "c=1,d=0 p=0.25", "classical_bias": swap},
                worst,
                tol,
                informational=True,
                note="residual of the decomposition for an incompatible coin",
            )
        )
    return checks


def suite_prop2(max_steps: int, tol: float | None = None) -> list[dict]:
    tol = 1e-10 if tol is None else tol
    checks = []
    cfg = WalkConfig.symmetric()

    # closed-form period-2 Kraus generators against the generic block power
    p, c, d = 0.5, cfg.c, cfg.d
    b0, b1 = kraus_pair(cfg, 2)
    root = math.sqrt(p * (1.0 - p))
    b0_closed = LaurentOperator({+2: p * c + root * d, 0: (1.0 - p) * c - root * d})
    b1_closed = LaurentOperator({-2: p * d - root * c, 0: (1.0 - p) * d + root * c})
    checks.append(
        _check(
            "period2-kraus-closed-form",
            {"config": "symmetric p=1/2"},
            max(b0.distance(b0_closed), b1.distance(b1_closed)),
            tol,
        )
    )

    # binomial solution against the iterated kernel walk
    walk = kernel_walk(delayed_kernel(cfg), max_steps)
    worst = 0.0
    for n in range(max_steps + 1):
        worst = max(worst, kernels.binomial_solution(cfg, n).distance(walk[n]))
    checks.append(
        _check("binomial-solution", {"config": "symmetric p=1/2",
                                     "steps": f"0..{max_steps}"}, worst, tol)
    )

    # kernel-walk majorization chain
    checks.append(
        _check("kernel-walk-majorization-chain",
               {"config": "symmetric p=1/2", "steps": f"0..{max_steps}"},
               0.0 if _ordered(walk) else 1.0, 0.5)
    )

    # density-matrix iteration: second moments against the published ratios
    iters = min(max_steps, 5)
    trajectory = cp_walk(cfg, 2, iters)
    second_moments = [analysis.moment(rho.diagonal(), 2) for rho in trajectory]
    expected = {2: 5.0, 3: 9.0, 4: 14.0, 5: 20.0}
    worst = max(
        (abs(second_moments[n] - v) for n, v in expected.items() if n <= iters),
        default=0.0,
    )
    checks.append(
        _check("cp-walk-second-moments", {"iterations": f"2..{iters}"}, worst, tol)
    )
    if iters >= 1:
        checks.append(
            _check(
                "cp-walk-first-iteration-moment",
                {"measured": second_moments[1], "published_sigma_ratio": 1.0},
                abs(second_moments[1] - 1.0),
                tol,
                informational=True,
                note="iterated map gives <L^2> = 2 at iteration 1; the "
                "published table lists sigma equal to the classical value",
            )
        )
        # kernel/cp divergence: equal diagonals through one iteration, then a
        # genuine gap once off-diagonal feedback appears
        agree = max(
            walk[n].total_variation(trajectory[n].diagonal())
            for n in range(0, min(1, iters) + 1)
        )
        checks.append(
            _check("kernel-cp-agreement-start", {"steps": "0..1"}, agree, tol)
        )
    if iters >= 2:
        gap = walk[2].total_variation(trajectory[2].diagonal())
        checks.append(
            _check(
                "kernel-cp-divergence",
                {"step": 2, "total_variation": gap},
                0.0 if gap > 1e-6 else 1.0,
                0.5,
                informational=True,
                note="the two walk readings separate once the density matrix "
                "develops off-diagonal terms",
            )
        )
    return checks


def suite_analysis(max_steps: int, tol: float | None = None) -> list[dict]:
    checks = []
    cfg = WalkConfig.symmetric()
    horizon = max(max_steps, 9)
    trajectory = global_trajectory(cfg, horizon)

    entropies = [analysis.shannon_entropy(trajectory[n]) for n in range(6, 10)]
    published = (1.6551, 1.8138, 1.8909, 1.9295)
    checks.append(
        _check(
            "entropy-checkpoints",
            {"config": "symmetric p=1/2", "steps": "6..9"},
            max(abs(a - b) for a, b in zip(entropies, published)),
            5e-4,
        )
    )

    # classical chain: majorization and entropy monotone
    worst = 0.0
    for p in (0.25, 0.5):
        classical = prompt_trajectory(WalkConfig(c=0.0, d=1.0, p=p), min(max_steps, 30))
        series = [analysis.shannon_entropy(d) for d in classical]
        gaps = (a - b for a, b in zip(series, series[1:]))
        worst = max(worst, 0.0 if _ordered(classical) else 1.0, *gaps)
    checks.append(
        _check("classical-chain-majorization-entropy",
               {"p": "0.25, 0.5", "steps": f"0..{min(max_steps, 30)}"},
               worst, 1e-12 if tol is None else tol)
    )

    # mixing monotonicity over randomized kernels and distributions
    rng = np.random.default_rng(20260823)
    failures = 0
    for _ in range(200):
        width = int(rng.integers(2, 6))
        coeffs = rng.random(width)
        kernel = RealKernel(
            {int(d) - width // 2: v / coeffs.sum() for d, v in enumerate(coeffs)},
            "stochastic",
        )
        probs = rng.random(int(rng.integers(2, 9)))
        dist = SiteDistribution(
            {int(s): v / probs.sum() for s, v in enumerate(probs)}
        )
        if not _ordered([dist, kernel.apply_distribution(dist)]):
            failures += 1
    checks.append(
        _check("mixing-monotonicity-randomized", {"cases": 200}, failures, 0.5)
    )

    # entropy dynamics: breakdown window plus the documented cluster scan
    breakdown = any(v.relation is analysis.Verdict.INCOMPARABLE and v.crossings
                    for v in analysis.majorization_chain(trajectory[6:10]))
    increasing = all(entropies[k + 1] > entropies[k] for k in range(3))
    checks.append(
        _check("majorization-breakdown-window", {"steps": "6..9"},
               0.0 if (breakdown and increasing) else 1.0, 0.5)
    )

    cluster = {}
    for p in P_GRID:
        walk = global_trajectory(WalkConfig.symmetric(p), 51)
        cluster[f"p={p:.4g}"] = [
            round(analysis.shannon_entropy(walk[n]), 4) for n in (49, 50, 51)
        ]
    checks.append(
        _check(
            "entropy-cluster-scan",
            {"published": [3.3498, 3.3467, 3.3408], "measured": cluster},
            0.0,
            1.0,
            informational=True,
            note="entropies at steps 49..51 per coin bias; the published "
            "cluster is attributed ambiguously in the source material",
        )
    )
    return checks


SUITES = {
    "kraus": suite_kraus,
    "stochastic": suite_stochastic,
    "recurrence": suite_recurrence,
    "memory": suite_memory,
    "prop2": suite_prop2,
    "analysis": suite_analysis,
}


def run_suite(name: str, max_steps: int = 12, tol: float | None = None) -> dict:
    """Run one suite (or ``all``) and return the JSON-ready report."""
    if max_steps < 1:
        raise ValueError(f"max_steps must be at least 1, got {max_steps}")
    if name == "all":
        checks = []
        for fn in SUITES.values():
            checks.extend(fn(max_steps, tol))
    elif name in SUITES:
        checks = SUITES[name](max_steps, tol)
    else:
        raise ValueError(f"unknown suite: {name!r}")
    return {
        "suite": name,
        "max_steps": max_steps,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }
