import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from coinwalk.analysis import (
    PARTIAL_SUM_TOL,
    Verdict,
    _crossings,
    compare_majorization,
    entropy_series,
    lorenz_curve,
    majorization_chain,
    moment,
    shannon_entropy,
    standard_deviation,
)
from coinwalk.engine import SiteDistribution, WalkConfig, global_trajectory
from coinwalk.kernels import RealKernel, prompt_trajectory


def uniform(n, offset=0):
    return SiteDistribution({offset + k: 1.0 / n for k in range(n)})


class TestShannonEntropy:
    def test_delta_zero(self):
        assert shannon_entropy(SiteDistribution.delta()) == 0.0

    def test_uniform_log_n(self):
        assert shannon_entropy(uniform(4)) == pytest.approx(math.log(4), abs=1e-12)

    def test_symmetric_walk_step_six(self, symmetric):
        from coinwalk.engine import global_distribution

        s = shannon_entropy(global_distribution(symmetric, 6))
        assert s == pytest.approx(1.6551, abs=5e-4)

    def test_bounds(self):
        for dist in (uniform(3), uniform(7, -3), SiteDistribution({0: 0.9, 5: 0.1})):
            s = shannon_entropy(dist)
            assert 0.0 <= s <= math.log(len(dist)) + 1e-12


class TestMoment:
    def test_zeroth_moment_is_one(self):
        assert moment(uniform(5), 0) == pytest.approx(1.0)

    def test_symmetric_first_moments_vanish(self, symmetric):
        for dist in global_trajectory(symmetric, 20):
            assert moment(dist, 1) == pytest.approx(0.0, abs=1e-12)

    def test_classical_variance_is_step_count(self):
        cfg = WalkConfig(c=0.0, d=1.0, p=0.5)
        for n, dist in enumerate(prompt_trajectory(cfg, 20)):
            assert moment(dist, 2) == pytest.approx(n, abs=1e-10)

    def test_quantum_second_moments_first_five(self, symmetric):
        trajectory = global_trajectory(symmetric, 5)
        got = [moment(trajectory[n], 2) for n in range(1, 6)]
        assert np.allclose(got, [1, 2, 3, 5, 8], atol=1e-12)

    def test_variance_nonnegative(self):
        dist = SiteDistribution({-3: 0.2, 1: 0.5, 6: 0.3})
        assert moment(dist, 2) >= moment(dist, 1) ** 2

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            moment(uniform(2), -1)


class TestLorenzCurve:
    def test_uniform_two(self):
        curve = lorenz_curve(uniform(2))
        assert np.allclose(curve.gammas, [0, 0.5, 1])
        assert np.allclose(curve.fractions, [0, 0.5, 1])

    def test_symmetric_step_six_partial_sums(self, symmetric):
        from coinwalk.engine import global_distribution

        curve = lorenz_curve(global_distribution(symmetric, 6))
        assert np.allclose(curve.gammas[1:4], [0.28125, 0.5625, 0.703125], atol=1e-12)

    def test_endpoints_and_monotone(self, symmetric):
        from coinwalk.engine import global_distribution

        curve = lorenz_curve(global_distribution(symmetric, 9))
        assert curve.gammas[0] == 0.0 and curve.gammas[-1] == 1.0
        assert np.all(np.diff(curve.gammas) >= -1e-15)
        # concave: sorted-nonincreasing increments
        assert np.all(np.diff(curve.gammas, 2) <= 1e-12)


def crossings_loop(diff):
    """Sequential reference for ``_crossings``: each sign change past the zeros."""
    out = []
    prev = 0
    for idx, x in enumerate(diff):
        s = 1 if x > PARTIAL_SUM_TOL else -1 if x < -PARTIAL_SUM_TOL else 0
        if s != 0:
            if prev != 0 and s != prev:
                out.append(idx)
            prev = s
    return tuple(out)


#: Partial-sum differences: zeros, values at and within the tolerance, and
#: values just past it, in runs.
_DIFF_VALUES = st.one_of(
    st.just(0.0),
    st.sampled_from([PARTIAL_SUM_TOL, -PARTIAL_SUM_TOL, 2 * PARTIAL_SUM_TOL,
                     -2 * PARTIAL_SUM_TOL, np.nextafter(PARTIAL_SUM_TOL, 1.0),
                     -np.nextafter(PARTIAL_SUM_TOL, 1.0)]),
    st.floats(-PARTIAL_SUM_TOL, PARTIAL_SUM_TOL),
    st.floats(-1.0, 1.0),
)
_DIFF_RUNS = st.lists(st.tuples(_DIFF_VALUES, st.integers(1, 6)), max_size=40)


class TestCrossings:
    @given(_DIFF_RUNS)
    @example([(1.0, 1), (0.0, 3), (-1.0, 1)])
    @example([(0.0, 4)])
    @example([(-0.5, 2), (PARTIAL_SUM_TOL, 2), (0.5, 1), (-PARTIAL_SUM_TOL, 1), (-0.5, 1)])
    def test_matches_sequential_loop(self, runs):
        diff = np.array([x for x, k in runs for _ in range(k)], dtype=float)
        got = _crossings(diff)
        assert got == crossings_loop(diff)
        assert all(type(i) is int for i in got)


def zero_padded_verdict(p, q):
    """Reference verdict: cumulative sums of sorted, zero-padded probability vectors."""
    slots = max(len(p), len(q))
    cp, cq = (
        np.cumsum(np.concatenate([np.sort(d.probabilities())[::-1], np.zeros(slots - len(d))]))
        for d in (p, q)
    )
    diff = cp - cq
    if np.all(np.abs(diff) <= PARTIAL_SUM_TOL):
        return Verdict.EQUAL, ()
    if np.all(diff >= -PARTIAL_SUM_TOL):
        return Verdict.FIRST_MAJORIZES, ()
    if np.all(diff <= PARTIAL_SUM_TOL):
        return Verdict.SECOND_MAJORIZES, ()
    return Verdict.INCOMPARABLE, crossings_loop(diff)


#: Distributions with unequal supports, ties and zero entries: small integer
#: weights tie often, zeros are dropped from the support.
_DISTRIBUTIONS = st.builds(
    lambda lo, weights: SiteDistribution((lo, np.array(weights) / sum(weights))),
    st.integers(-4, 4),
    st.lists(st.one_of(st.sampled_from([0.0, 1.0, 2.0, 3.0]), st.floats(0.0, 1.0)),
             min_size=1, max_size=9).filter(lambda w: sum(w) > 0.0),
)


class TestMajorizationChain:
    @given(st.lists(_DISTRIBUTIONS, max_size=7))
    @example([])
    @example([SiteDistribution.delta()])
    def test_matches_pairwise_comparisons(self, trajectory):
        chain = majorization_chain(trajectory)
        pairwise = [compare_majorization(a, b) for a, b in zip(trajectory, trajectory[1:])]
        assert [(v.relation, v.crossings) for v in chain] == [
            (v.relation, v.crossings) for v in pairwise
        ]

    @given(_DISTRIBUTIONS, _DISTRIBUTIONS)
    def test_padding_matches_zero_padded_vectors(self, p, q):
        verdict = compare_majorization(p, q)
        assert (verdict.relation, verdict.crossings) == zero_padded_verdict(p, q)

    def test_global_walk_chain(self, symmetric):
        trajectory = global_trajectory(symmetric, 40)
        chain = majorization_chain(iter(trajectory))
        assert chain == [compare_majorization(a, b) for a, b in zip(trajectory, trajectory[1:])]


class TestCompareMajorization:
    @pytest.mark.parametrize("first", ["delta", "uniform"])
    def test_delta_padded_against_uniform(self, first):
        # the one-slot delta is padded to five slots: partial sums 1, 1, 1, 1, 1
        pair = (SiteDistribution.delta(), uniform(5))
        if first == "uniform":
            pair = pair[::-1]
        verdict = compare_majorization(*pair)
        want = Verdict.FIRST_MAJORIZES if first == "delta" else Verdict.SECOND_MAJORIZES
        assert (verdict.relation, verdict.crossings) == (want, ())
        assert (want, ()) == zero_padded_verdict(*pair)

    def test_delta_majorizes_everything(self):
        verdict = compare_majorization(SiteDistribution.delta(), uniform(2))
        assert verdict.relation is Verdict.FIRST_MAJORIZES

    def test_equal(self):
        verdict = compare_majorization(uniform(3), uniform(3, offset=5))
        assert verdict.relation is Verdict.EQUAL
        assert verdict.crossings == ()

    def test_second_majorizes(self):
        verdict = compare_majorization(uniform(4), SiteDistribution.delta())
        assert verdict.relation is Verdict.SECOND_MAJORIZES

    @pytest.mark.parametrize("p", [0.25, 0.5])
    def test_classical_chain(self, p):
        trajectory = prompt_trajectory(WalkConfig(c=0.0, d=1.0, p=p), 30)
        for j in range(30):
            verdict = compare_majorization(trajectory[j], trajectory[j + 1])
            assert verdict.relation in (Verdict.FIRST_MAJORIZES, Verdict.EQUAL)

    def test_quantum_breakdown_window(self, symmetric):
        trajectory = global_trajectory(symmetric, 9)
        verdicts = [
            compare_majorization(trajectory[n], trajectory[n + 1])
            for n in range(6, 9)
        ]
        assert any(
            v.relation is Verdict.INCOMPARABLE and v.crossings for v in verdicts
        )

    def test_crossing_duality(self, symmetric):
        trajectory = global_trajectory(symmetric, 12)
        for a in range(13):
            for b in range(a + 1, 13):
                verdict = compare_majorization(trajectory[a], trajectory[b])
                assert (verdict.relation is Verdict.INCOMPARABLE) == bool(
                    verdict.crossings
                )

    def test_parity_zeros_do_not_change_verdicts(self, symmetric):
        # structural zero sites only pad the Lorenz curve with flat segments
        trajectory = global_trajectory(symmetric, 9)
        for n in range(6, 9):
            plain = compare_majorization(trajectory[n], trajectory[n + 1])
            a = dict(trajectory[n].items())
            b = dict(trajectory[n + 1].items())
            # re-run after padding both supports to a common slot count by
            # hand: the comparison already pads, so verdicts must agree
            padded = compare_majorization(SiteDistribution(a), SiteDistribution(b))
            assert padded.relation is plain.relation


class TestSchurConcavity:
    def test_majorization_implies_entropy_order(self, symmetric):
        pool = global_trajectory(symmetric, 15) + prompt_trajectory(symmetric, 15)
        for a in pool:
            for b in pool:
                if compare_majorization(a, b).relation is Verdict.FIRST_MAJORIZES:
                    assert shannon_entropy(a) <= shannon_entropy(b) + 1e-12

    def test_mixing_monotonicity_randomized(self):
        rng = np.random.default_rng(1234)
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
            assert verdict.relation in (Verdict.FIRST_MAJORIZES, Verdict.EQUAL)


class TestEntropySeries:
    def test_classical_no_descents(self):
        trajectory = prompt_trajectory(WalkConfig(c=0.0, d=1.0, p=0.5), 30)
        series = entropy_series(trajectory)
        assert series.descents == ()
        assert series.slope > 0

    def test_quantum_checkpoint_values(self, symmetric):
        trajectory = global_trajectory(symmetric, 9)
        series = entropy_series(trajectory)
        assert np.allclose(
            series.entropies[6:10], [1.6551, 1.8138, 1.8909, 1.9295], atol=5e-4
        )
        assert np.all(np.diff(series.entropies[6:10]) > 0)

    def test_constant_trajectory(self):
        series = entropy_series([SiteDistribution.delta()] * 5)
        assert series.slope == pytest.approx(0.0, abs=1e-15)
        assert series.descents == ()

    def test_single_distribution(self):
        series = entropy_series([SiteDistribution.delta()])
        assert series.entropies.tolist() == [0.0]
        assert series.slope == 0.0 and series.mean_increase == 0.0
        assert series.descents == ()

    def test_quantum_exhibits_descents_at_scale(self):
        for p in (1.0 / 3.0, 0.5, 0.75):
            trajectory = global_trajectory(WalkConfig.symmetric(p), 100)
            series = entropy_series(trajectory)
            assert series.slope > 0
            assert len(series.descents) >= 1

    def test_empty_trajectory_rejected(self):
        with pytest.raises(ValueError):
            entropy_series([])


class TestStandardDeviation:
    def test_asymptotic_spreading_rate(self, symmetric):
        from coinwalk.engine import global_distribution

        sigma = standard_deviation(global_distribution(symmetric, 200))
        rate = sigma / (200 * math.sqrt((2 - math.sqrt(2)) / 2))
        assert 0.95 <= rate <= 1.05
