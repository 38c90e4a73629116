"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report lines.
"""

import math

import numpy as np
import pytest

from coinwalk.analysis import (
    Verdict,
    compare_majorization,
    moment,
    shannon_entropy,
    standard_deviation,
)
from coinwalk.engine import (
    SiteDistribution,
    WalkConfig,
    cp_walk,
    kraus_pair,
)
from coinwalk.kernels import (
    SHIFT_DIFFERENCE,
    RealKernel,
    classical_kernel,
    kernel_walk,
    mixing_matrix,
    phi_matrix,
    pseudo_memory_reconstruct,
    quantum_kernel,
    reshuffling_matrix,
    walk_steps,
)
from coinwalk.laurent import IDENTITY

from conftest import COIN_INITS, P_GRID, binomial_distribution, entropy_descents

SYMMETRIC = WalkConfig.symmetric()


def report(number, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"acceptance {number:2d}: {status} {detail}")
    assert passed, f"criterion {number} failed: {detail}"


def grid_configs():
    for p in P_GRID:
        for c, d in COIN_INITS:
            yield WalkConfig(c=c, d=d, p=p)


def test_criterion_01_kraus_completeness():
    worst = 0.0
    for cfg in grid_configs():
        for n in range(21):
            a0, a1 = kraus_pair(cfg, n)
            worst = max(
                worst,
                (a0.adjoint() * a0 + a1.adjoint() * a1).distance(IDENTITY),
                (a0 * a0.adjoint() + a1 * a1.adjoint()).distance(IDENTITY),
            )
    report(1, worst < 1e-12, f"completeness residual {worst:.2e}")


def test_criterion_02_double_stochasticity():
    worst = 0.0
    for cfg in grid_configs():
        for n in range(21):
            k = quantum_kernel(cfg, n)
            worst = max(worst, abs(k.coefficient_sum - 1.0))
            worst = max(worst, max((-v for _, v in k.items()), default=0.0))
        worst = max(worst, abs(phi_matrix(cfg).coefficient_sum))
        for i in range(1, 21):
            worst = max(worst, abs(reshuffling_matrix(cfg, i).coefficient_sum))
    report(2, worst < 1e-12, f"stochasticity residual {worst:.2e}")


def test_criterion_03_recurrence():
    worst = 0.0
    for cfg in grid_configs():
        delta_c = classical_kernel(cfg.p)
        for n in range(1, 13):
            lhs = quantum_kernel(cfg, n + 1)
            rhs = delta_c.convolve(quantum_kernel(cfg, n)) + SHIFT_DIFFERENCE.convolve(
                mixing_matrix(cfg, n)
            )
            worst = max(worst, lhs.distance(rhs))
    report(3, worst < 1e-10, f"recurrence residual {worst:.2e}")


def test_criterion_04_pseudo_memory():
    configs = [SYMMETRIC] + [WalkConfig(c=0.0, d=1.0, p=p) for p in P_GRID]
    worst = 0.0
    for cfg in configs:
        trajectory = list(walk_steps(cfg, "global", 12))
        for n in range(1, 13):
            worst = max(
                worst, pseudo_memory_reconstruct(cfg, n).distance(trajectory[n])
            )
    report(4, worst < 1e-10, f"reconstruction residual {worst:.2e}")


def test_criterion_05_small_step_distributions():
    trajectory = list(walk_steps(SYMMETRIC, "global", 6))
    moments = [moment(trajectory[n], 2) for n in range(1, 6)]
    ok = np.allclose(moments, [1, 2, 3, 5, 8], atol=1e-12)
    want6 = {6: 1 / 64, 4: 18 / 64, 2: 9 / 64, 0: 8 / 64,
             -2: 9 / 64, -4: 18 / 64, -6: 1 / 64}
    worst = max(abs(trajectory[6][s] - v) for s, v in want6.items())
    report(5, ok and worst < 1e-12,
           f"<L^2> {moments}, step-6 residual {worst:.2e}")


def test_criterion_06_entropy_checkpoints():
    trajectory = list(walk_steps(SYMMETRIC, "global", 9))
    got = [shannon_entropy(trajectory[n]) for n in range(6, 10)]
    want = [1.6551, 1.8138, 1.8909, 1.9295]
    worst = max(abs(a - b) for a, b in zip(got, want))
    report(6, worst < 5e-4, f"entropy residual {worst:.2e}")


def test_criterion_07_majorization_breakdown():
    trajectory = list(walk_steps(SYMMETRIC, "global", 9))
    verdicts = [
        compare_majorization(trajectory[n], trajectory[n + 1]) for n in range(6, 9)
    ]
    breakdown = any(
        v.relation is Verdict.INCOMPARABLE and v.crossings for v in verdicts
    )
    entropies = [shannon_entropy(trajectory[n]) for n in range(6, 10)]
    increasing = all(b > a for a, b in zip(entropies, entropies[1:]))
    report(7, breakdown and increasing,
           f"breakdown={breakdown} entropies increasing={increasing}")


def test_criterion_08_classical_chain():
    ok = True
    worst = 0.0
    for p in (0.25, 0.5):
        cfg = WalkConfig(c=0.0, d=1.0, p=p)
        trajectory = list(walk_steps(cfg, "prompt", 30))
        for n in range(30):
            verdict = compare_majorization(trajectory[n], trajectory[n + 1])
            ok &= verdict.relation in (Verdict.FIRST_MAJORIZES, Verdict.EQUAL)
            ok &= shannon_entropy(trajectory[n]) <= shannon_entropy(
                trajectory[n + 1]
            ) + 1e-12
        for n in range(31):
            worst = max(
                worst, trajectory[n].distance(binomial_distribution(n, 1 - p))
            )
    report(8, ok and worst < 1e-12, f"binomial residual {worst:.2e}")


def test_criterion_09_kernel_walk_chain():
    walk = kernel_walk(quantum_kernel(SYMMETRIC, 2), 30)
    ok = all(
        compare_majorization(walk[n], walk[n + 1]).relation
        in (Verdict.FIRST_MAJORIZES, Verdict.EQUAL)
        for n in range(30)
    )
    report(9, ok, "period-2 kernel walk ordered by majorization")


def test_criterion_10_cp_walk_moments():
    trajectory = cp_walk(SYMMETRIC, 2, 5)
    got = [moment(rho.diagonal(), 2) for rho in trajectory]
    worst = max(abs(got[n] - v) for n, v in {2: 5.0, 3: 9.0, 4: 14.0, 5: 20.0}.items())
    first = got[1]  # documented discrepancy with the published first entry
    report(10, worst < 1e-10,
           f"<L^2> residual {worst:.2e} (iteration 1 gives {first}, informational)")


def test_criterion_11_kernel_cp_divergence():
    walk = kernel_walk(quantum_kernel(SYMMETRIC, 2), 2)
    cp = [rho.diagonal() for rho in cp_walk(SYMMETRIC, 2, 2)]
    agree = max(walk[n].total_variation(cp[n]) for n in (0, 1))
    gap = walk[2].total_variation(cp[2])
    report(11, agree < 1e-12 and gap > 1e-6,
           f"agreement {agree:.2e}, step-2 total variation {gap:.3g} (informational)")


def test_criterion_12_asymptotic_rate():
    import time

    start = time.perf_counter()
    sigma = standard_deviation(list(walk_steps(SYMMETRIC, "global", 200))[-1])
    elapsed = time.perf_counter() - start
    ratio = sigma / (200 * math.sqrt((2 - math.sqrt(2)) / 2))
    report(12, 0.95 <= ratio <= 1.05 and elapsed < 5.0,
           f"rate ratio {ratio:.5f} in {elapsed:.2f}s")


def test_criterion_13_entropy_dynamics_at_scale():
    ok = True
    details = []
    for p in (1.0 / 3.0, 0.5, 0.75):
        quantum = [shannon_entropy(d) for d in walk_steps(WalkConfig.symmetric(p), "global", 100)]
        classical = [
            shannon_entropy(d) for d in walk_steps(WalkConfig(c=0.0, d=1.0, p=p), "prompt", 100)
        ]
        descents = entropy_descents(quantum)
        ok &= quantum[-1] > quantum[0]
        ok &= len(descents) >= 1
        # both hold steps 0..100, so the mean increases compare as H_100 - H_0
        ok &= quantum[-1] - quantum[0] > classical[-1] - classical[0]
        details.append(f"p={p:.3g}: descents={len(descents)}")
    # informational scan for the published step-49..51 cluster
    published = np.array([3.3498, 3.3467, 3.3408])
    matches = []
    for p in P_GRID:
        walk = list(walk_steps(WalkConfig.symmetric(p), "global", 51))
        values = np.array(
            [shannon_entropy(walk[n]) for n in (49, 50, 51)]
        )
        if np.max(np.abs(values - published)) < 5e-4:
            matches.append(f"p={p:.4g}")
    details.append(f"cluster matches: {matches or 'none'}")
    report(13, ok, "; ".join(details))


def test_criterion_14_property_suites():
    rng = np.random.default_rng(99)
    ok = True

    # Schur-concavity consistency and verdict/crossing duality
    pool = list(walk_steps(SYMMETRIC, "global", 12)) + list(walk_steps(SYMMETRIC, "prompt", 12))
    for a in pool:
        for b in pool:
            verdict = compare_majorization(a, b)
            if verdict.relation is Verdict.FIRST_MAJORIZES:
                ok &= shannon_entropy(a) <= shannon_entropy(b) + 1e-12
            ok &= (verdict.relation is Verdict.INCOMPARABLE) == bool(verdict.crossings)

    # mixing monotonicity, 200 randomized cases
    for _ in range(200):
        width = int(rng.integers(2, 6))
        coeffs = rng.random(width)
        kernel = RealKernel(
            {d - width // 2: v / coeffs.sum() for d, v in enumerate(coeffs)},
            "stochastic",
        )
        probs = rng.random(int(rng.integers(2, 9)))
        dist = SiteDistribution({s: v / probs.sum() for s, v in enumerate(probs)})
        verdict = compare_majorization(dist, kernel.apply_distribution(dist))
        ok &= verdict.relation in (Verdict.FIRST_MAJORIZES, Verdict.EQUAL)

    # normality of every Kraus generator on the grid
    for cfg in grid_configs():
        for n in (0, 1, 5, 10):
            for op in kraus_pair(cfg, n):
                ok &= (op * op.adjoint()).isclose(op.adjoint() * op, 1e-12)

    # dense-window Hadamard oracle equivalence
    from coinwalk.laurent import LaurentOperator

    window = range(-4, 5)
    for _ in range(25):
        degs = rng.choice(np.arange(-3, 4), size=3, replace=False)
        a = LaurentOperator({int(d): complex(*rng.standard_normal(2)) for d in degs})
        degs = rng.choice(np.arange(-3, 4), size=3, replace=False)
        b = LaurentOperator({int(d): complex(*rng.standard_normal(2)) for d in degs})
        dense = a.to_dense(window) * np.conj(b.to_dense(window))
        ok &= np.max(np.abs(a.hadamard_conj(b).to_dense(window) - dense)) < 1e-12

    report(14, ok, "property suites: zero violations")
