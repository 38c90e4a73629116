import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from coinwalk.engine import (
    DensityMatrix,
    KrausCompletenessError,
    NumericalError,
    SiteDistribution,
    WalkConfig,
    _cp_steps,
    _global_amplitudes,
    _global_steps,
    _last,
    _step_power,
    _trim_window,
    build_step_operator,
    cp_apply,
    cp_distribution,
    cp_walk,
    global_distribution,
    kraus_pair,
)
from coinwalk.kernels import (
    prompt_distribution,
    pseudo_memory_reconstruct,
    walk_steps,
)
from coinwalk.laurent import IDENTITY, LaurentOperator

from conftest import (
    COIN_INITS,
    P_GRID,
    PHASED_COIN,
    binomial_distribution,
    config_id,
    dense_cp,
    dense_delayed_diagonals,
    dense_global_distribution,
    from_entries,
    random_unitary_config,
    window_of,
)

SQ2 = 1.0 / math.sqrt(2.0)


#: Every coin the momentum-space tests run: each bias with each initial coin
#: state, and the phased coin with each.
MOMENTUM_CONFIGS = [
    *(WalkConfig(c=cd[0], d=cd[1], p=p) for p in P_GRID for cd in COIN_INITS),
    *(WalkConfig(c=cd[0], d=cd[1], coin=PHASED_COIN) for cd in COIN_INITS),
]
#: The momentum-space coins and the basis coins p = 0 and p = 1.
LAYOUT_CONFIGS = [*MOMENTUM_CONFIGS,
                  *(WalkConfig(c=cd[0], d=cd[1], p=p) for p in (0.0, 1.0) for cd in COIN_INITS)]
#: The coins whose walk is deterministic in each coin component.
DEGENERATE_CONFIGS = [WalkConfig(c=cd[0], d=cd[1], p=p)
                      for p in (0.0, 1.0) for cd in (*COIN_INITS, (1.0, 0.0))]


def stepped_distribution(cfg, n):
    """The last of ``walk_steps(cfg, "global", n)``, without holding the earlier steps."""
    return _last(_global_steps(cfg, n))


def full_window_amplitudes(cfg, n):
    """Joint amplitudes (coin, site + n) after steps 0..n on the whole 2n + 1-site window.

    Each row is summed from fresh temporaries and the rows are stacked: the
    layout the stepped walk used before it kept only the occupied sites.
    """
    u = cfg.coin_unitary
    psi = np.zeros((2, 2 * n + 1), dtype=complex)
    psi[:, n] = cfg.c, cfg.d
    yield psi
    for _ in range(n):
        up = np.zeros(2 * n + 1, dtype=complex)
        down = np.zeros(2 * n + 1, dtype=complex)
        up[1:] = u[0, 0] * psi[0, :-1] + u[0, 1] * psi[1, :-1]
        down[:-1] = u[1, 0] * psi[0, 1:] + u[1, 1] * psi[1, 1:]
        psi = np.stack([up, down])
        yield psi


def assert_kraus_is_block_power(cfg, n, block):
    """kraus_pair(cfg, n) is the initial-coin combination of ``block``, bit for bit."""
    want = (cfg.c * block[0, 0] + cfg.d * block[0, 1], cfg.c * block[1, 0] + cfg.d * block[1, 1])
    for got, ref in zip(kraus_pair(cfg, n), want):
        assert (got.lo, got.values.tobytes()) == (ref.lo, ref.values.tobytes()), n


class TestWalkConfig:
    def test_unnormalized_coin_state_rejected(self):
        with pytest.raises(ValueError):
            WalkConfig(c=1.0, d=1.0, p=0.5)

    def test_bias_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            WalkConfig(c=1.0, d=0.0, p=1.5)

    def test_nonunitary_coin_rejected(self):
        with pytest.raises(ValueError):
            WalkConfig(c=1.0, d=0.0, coin=np.array([[1, 1], [0, 1]]))

    def test_general_unitary_coin_accepted(self):
        h = np.array([[1, 1], [1, -1]]) / math.sqrt(2.0)
        cfg = WalkConfig(c=1.0, d=0.0, coin=h)
        assert np.allclose(cfg.coin_unitary, h)

    def test_p_and_coin_together_rejected(self):
        with pytest.raises(ValueError):
            WalkConfig(c=1.0, d=0.0, p=0.5, coin=np.eye(2))

    @pytest.mark.parametrize("c,d", [(math.nan, 1.0), (1.0, math.nan),
                                     (complex(0.0, math.nan), 1.0), (math.inf, 0.0)])
    def test_nonfinite_coin_state_rejected(self, c, d):
        with pytest.raises(ValueError, match="finite"):
            WalkConfig(c=c, d=d, p=0.5)

    def test_config_never_equals_a_non_config(self):
        cfg = WalkConfig(c=1.0, d=0.0, p=0.5)
        assert (cfg == 1) is False and (cfg != 1) is True

    def test_coin_of_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="2x2"):
            WalkConfig(c=1.0, d=0.0, coin=np.eye(3))

    def test_coin_matrix_is_built_once_and_read_only(self):
        given = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
        biased, general = WalkConfig(c=1.0, d=0.0, p=0.25), WalkConfig(c=1.0, d=0.0, coin=given)
        for cfg in (biased, general):
            assert cfg.coin_unitary is cfg.coin_unitary
            assert not cfg.coin_unitary.flags.writeable
        # the given array is copied: it stays writable, and writing it changes nothing
        assert general.coin is general.coin_unitary and given.flags.writeable
        given[0, 0] = 0.0
        assert general.coin_unitary[0, 0] == 1 / math.sqrt(2.0)

    @pytest.mark.parametrize("entry", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_nonfinite_coin_matrix_rejected(self, entry):
        coin = np.eye(2, dtype=complex)
        coin[1, 0] = entry
        with pytest.raises(ValueError, match="finite"):
            WalkConfig(c=1.0, d=0.0, coin=coin)


class TestKrausPair:
    def test_zero_steps(self):
        cfg = WalkConfig.symmetric()
        a0, a1 = kraus_pair(cfg, 0)
        assert a0.isclose(LaurentOperator({0: cfg.c}))
        assert a1.isclose(LaurentOperator({0: cfg.d}))

    @pytest.mark.parametrize("p", P_GRID)
    @pytest.mark.parametrize("cd", COIN_INITS)
    def test_one_step_closed_form(self, p, cd):
        c, d = cd
        a0, a1 = kraus_pair(WalkConfig(c=c, d=d, p=p), 1)
        sp, sq = math.sqrt(p), math.sqrt(1 - p)
        assert a0.isclose(LaurentOperator({+1: c * sp + d * sq}))
        assert a1.isclose(LaurentOperator({-1: c * sq - d * sp}))

    def test_two_steps_hand_expansion(self):
        a0, a1 = kraus_pair(WalkConfig(c=1.0, d=0.0, p=0.5), 2)
        assert a0.isclose(LaurentOperator({+2: 0.5, 0: 0.5}))
        assert a1.isclose(LaurentOperator({0: 0.5, -2: -0.5}))

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            kraus_pair(WalkConfig.symmetric(), -1)

    def test_memoised_powers_keep_coins_apart(self):
        # equal biases, different unitaries: each pair matches its own block power
        configs = [WalkConfig(c=SQ2, d=1j * SQ2, p=0.5),
                   WalkConfig(c=SQ2, d=1j * SQ2, coin=PHASED_COIN),
                   WalkConfig(c=1.0, d=0.0, p=0.5)]
        for _ in range(2):
            for cfg in configs:
                block = build_step_operator(cfg).power(7)
                a0, a1 = kraus_pair(cfg, 7)
                assert a0.distance(cfg.c * block[0, 0] + cfg.d * block[0, 1]) == 0.0
                assert a1.distance(cfg.c * block[1, 0] + cfg.d * block[1, 1]) == 0.0

    @pytest.mark.parametrize("p", P_GRID)
    @pytest.mark.parametrize("cd", COIN_INITS)
    def test_memoised_powers_equal_the_power_loop_bitwise(self, p, cd):
        # 0..300 runs past the 256-entry cache, so evicted powers are rebuilt
        cfg = WalkConfig(c=cd[0], d=cd[1], p=p)
        step = build_step_operator(cfg)
        _step_power.cache_clear()
        for n in [*range(301), 511, 512, 513, 1023, 1024, 2049]:
            assert_kraus_is_block_power(cfg, n, step.power(n))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 70))
    def test_memoised_powers_of_random_unitary_coins(self, seed, n):
        cfg = random_unitary_config(seed)
        assert_kraus_is_block_power(cfg, n, build_step_operator(cfg).power(n))

    @pytest.mark.parametrize("cfg", [
        *(random_unitary_config(seed) for seed in range(10)),
        WalkConfig(c=0.6 + 0.48j, d=0.64j, coin=PHASED_COIN),
    ], ids=[*(f"seed{seed}" for seed in range(10)), "phased"])
    def test_general_complex_states_scale_each_block_coefficient(self, cfg):
        # no digest pins a c or d with both parts nonzero; the reference scales
        # each coefficient of the block power by c and d as Python scalars
        def scaled(z, op):
            return LaurentOperator((op.lo, [z * x for x in op.values.tolist()]))

        c, d = complex(cfg.c), complex(cfg.d)
        for n in range(31):
            block = _step_power(cfg.coin_unitary.tobytes(), n)
            for row, got in enumerate(kraus_pair(cfg, n)):
                want = scaled(c, block[row, 0]) + scaled(d, block[row, 1])
                assert (got.lo, got.values.tobytes()) == (want.lo, want.values.tobytes()), n

    def test_reconstruction_same_bytes_cold_and_warm(self):
        cfg = WalkConfig(c=0.0, d=1.0, p=0.5)
        _step_power.cache_clear()
        cold = pseudo_memory_reconstruct(cfg, 200)
        warm = pseudo_memory_reconstruct(cfg, 200)
        assert (cold.lo, cold.values.tobytes()) == (warm.lo, warm.values.tobytes())

    @pytest.mark.parametrize("p", P_GRID)
    @pytest.mark.parametrize("cd", COIN_INITS)
    def test_completeness_both_orders(self, p, cd):
        cfg = WalkConfig(c=cd[0], d=cd[1], p=p)
        for n in range(21):
            a0, a1 = kraus_pair(cfg, n)
            assert (a0.adjoint() * a0 + a1.adjoint() * a1).distance(IDENTITY) < 1e-12
            assert (a0 * a0.adjoint() + a1 * a1.adjoint()).distance(IDENTITY) < 1e-12


class TestKrausDelayed:
    def test_period_two_closed_form(self):
        # published closed form for the period-2 generators
        p, c, d = 0.5, SQ2, 1j * SQ2
        b0, b1 = kraus_pair(WalkConfig(c=c, d=d, p=p), 2)
        root = math.sqrt(p * (1 - p))
        assert b0.isclose(LaurentOperator({+2: p * c + root * d, 0: (1 - p) * c - root * d}))
        assert b1.isclose(LaurentOperator({-2: p * d - root * c, 0: (1 - p) * d + root * c}))
        for op in (b0, b1):
            for _, amp in op.items():
                assert abs(abs(amp) ** 2 - 0.25) < 1e-12

    def test_period_below_one_rejected(self):
        # the two entry points that take a trace period
        cfg = WalkConfig.symmetric()
        with pytest.raises(ValueError, match="trace period"):
            walk_steps(cfg, "kernel", 3, 0)
        with pytest.raises(ValueError, match="trace period"):
            cp_walk(cfg, 0, 1)


class TestGlobalDistribution:
    def test_step_zero_is_delta(self):
        dist = global_distribution(WalkConfig.symmetric(), 0)
        assert dist.support == (0,)
        assert dist[0] == pytest.approx(1.0, abs=1e-15)

    def test_step_four_exact(self, symmetric):
        dist = global_distribution(symmetric, 4)
        want = {-4: 1 / 16, -2: 6 / 16, 0: 2 / 16, 2: 6 / 16, 4: 1 / 16}
        assert dist.support == tuple(sorted(want))
        for site, prob in want.items():
            assert dist[site] == pytest.approx(prob, abs=1e-12)

    def test_step_six_exact(self, symmetric):
        dist = global_distribution(symmetric, 6)
        want = {6: 1 / 64, 4: 18 / 64, 2: 9 / 64, 0: 8 / 64,
                -2: 9 / 64, -4: 18 / 64, -6: 1 / 64}
        for site, prob in want.items():
            assert dist[site] == pytest.approx(prob, abs=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7])
    @pytest.mark.parametrize("cfg", MOMENTUM_CONFIGS, ids=config_id)
    def test_agrees_with_dense_oracle(self, cfg, n):
        assert global_distribution(cfg, n).distance(
            dense_global_distribution(cfg, n)
        ) < 1e-12

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 300, 3000])
    @pytest.mark.parametrize("cfg", MOMENTUM_CONFIGS, ids=config_id)
    def test_agrees_with_stepping(self, cfg, n):
        assert global_distribution(cfg, n).distance(stepped_distribution(cfg, n)) < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 2000))
    @example(1928, 1806)  # the stepped total drifts to 1 - 1.0e-12
    @example(1559345, 1072)  # and to 1 + 1.0e-12
    def test_random_unitary_coins_agree_with_stepping(self, seed, n):
        cfg = random_unitary_config(seed)
        assert global_distribution(cfg, n).distance(stepped_distribution(cfg, n)) < 1e-12

    def test_total_at_a_hundred_thousand_steps(self, symmetric):
        dist = global_distribution(symmetric, 10**5)
        assert abs(dist.values.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 7, 50, 301, 3000])
    @pytest.mark.parametrize("cfg", DEGENERATE_CONFIGS, ids=config_id)
    def test_degenerate_coin_support_equals_stepping(self, cfg, n):
        # every other sublattice site comes out of the transform as ~1e-30
        # noise, below the square of the amplitude error bound
        got, want = global_distribution(cfg, n), stepped_distribution(cfg, n)
        assert got.support == want.support
        assert got.distance(want) < 1e-12

    def test_negative_steps_rejected(self, symmetric):
        with pytest.raises(ValueError, match="nonnegative"):
            global_distribution(symmetric, -1)

    def test_negative_trajectory_steps_rejected(self, symmetric):
        with pytest.raises(ValueError, match="nonnegative"):
            list(walk_steps(symmetric, "global", -1))

    def test_symmetric_walk_is_symmetric(self, symmetric):
        for n, dist in enumerate(walk_steps(symmetric, "global", 50)):
            for site in dist.support:
                assert abs(dist[site] - dist[-site]) < 1e-12

    def test_parity_support(self, symmetric):
        for n, dist in enumerate(walk_steps(symmetric, "global", 25)):
            assert all(abs(s) <= n and (s - n) % 2 == 0 for s in dist.support)

    @pytest.mark.parametrize("cfg", [
        WalkConfig.symmetric(0.25),
        WalkConfig(c=0.0, d=1.0, p=1.0 / 3.0),
        WalkConfig(c=0.6, d=0.8j, p=0.75),
        WalkConfig(c=SQ2, d=-SQ2, coin=PHASED_COIN),
        WalkConfig(c=1.0, d=0.0, p=0.0),
        WalkConfig(c=0.0, d=1.0, p=1.0),
    ])
    def test_amplitudes_match_stacked_rows_bitwise(self, cfg):
        # step k keeps the occupied sites -k, -k + 2, ..., k of the full window,
        # each with its bits; the kept arrays are never written again
        n = 30
        kept = list(_global_amplitudes(cfg, n))
        for k, (got, ref) in enumerate(zip(kept, full_window_amplitudes(cfg, n), strict=True)):
            assert got.shape == (2, k + 1)
            assert got.tobytes() == ref[:, n - k : n + k + 1 : 2].tobytes()

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 300])
    @pytest.mark.parametrize("cfg", LAYOUT_CONFIGS, ids=config_id)
    def test_steps_match_full_window_distributions_bitwise(self, cfg, n):
        steps = zip(_global_steps(cfg, n), full_window_amplitudes(cfg, n), strict=True)
        for got, ref in steps:
            want = SiteDistribution((-n, np.abs(ref[0]) ** 2 + np.abs(ref[1]) ** 2), sum_tol=1e-9)
            assert (got.lo, got.values.tobytes()) == (want.lo, want.values.tobytes())


class TestCpDistribution:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("cfg", MOMENTUM_CONFIGS, ids=config_id)
    def test_agrees_with_cp_walk(self, cfg, m):
        for n, rho in enumerate(cp_walk(cfg, m, 60)):
            if n in (0, 1, 2, 5, 17, 60):
                assert cp_distribution(cfg, m, n).distance(rho.diagonal()) < 1e-12, n

    @pytest.mark.parametrize("m,iters", [(1, 8), (2, 5), (3, 4), (4, 3)])
    @pytest.mark.parametrize("cfg", MOMENTUM_CONFIGS[1::3], ids=config_id)
    def test_agrees_with_dense_oracle(self, cfg, m, iters):
        for n, want in enumerate(dense_delayed_diagonals(cfg, m, iters)):
            assert cp_distribution(cfg, m, n).distance(want) < 1e-12, n

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(0, 40))
    def test_random_unitary_coins_agree_with_cp_walk(self, seed, m, n):
        cfg = random_unitary_config(seed)
        want = cp_walk(cfg, m, n)[-1].diagonal()
        assert cp_distribution(cfg, m, n).distance(want) < 1e-12

    @settings(max_examples=5, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 5).flatmap(
            lambda m: st.tuples(st.just(m), st.integers(-(-200 // m), 400 // m))
        ),
    )
    def test_random_unitary_coins_agree_with_cp_walk_at_scale(self, seed, m_n):
        # 200..400 coin steps; only the last density matrix is held (cp_walk's
        # whole list at 400 steps peaks near 400 MB)
        m, n = m_n
        cfg = random_unitary_config(seed)
        want = _last(_cp_steps(cfg, m, n)).diagonal()
        assert cp_distribution(cfg, m, n).distance(want) < 1e-12

    def test_total_at_two_thousand_iterations(self, symmetric):
        dist = cp_distribution(symmetric, 2, 2000)
        assert abs(dist.values.sum() - 1.0) < 1e-12

    def test_first_delayed_diagonal(self, symmetric):
        dist = cp_distribution(symmetric, 2, 1)
        assert dist.support == (-2, 0, 2)
        for site, prob in {2: 0.25, 0: 0.5, -2: 0.25}.items():
            assert dist[site] == pytest.approx(prob, abs=1e-15)

    def test_counts_rejected(self, symmetric):
        with pytest.raises(ValueError, match="trace period"):
            cp_distribution(symmetric, 0, 1)
        with pytest.raises(ValueError, match="nonnegative"):
            cp_distribution(symmetric, 2, -1)

    def test_peak_allocation_at_six_hundred_iterations(self, symmetric):
        # row blocks of M(k, k - q) of about 1 MB each (peak 3.5 MB), never all
        # 1201 x 1201 entries (23 MB, also the size of cp_walk's last density matrix)
        cp_distribution(symmetric, 2, 600)
        tracemalloc.start()
        try:
            cp_distribution(symmetric, 2, 600)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 1e6 < 7.0


class TestPromptDistribution:
    def test_two_steps_symmetric_binomial(self):
        dist = prompt_distribution(WalkConfig(c=1.0, d=0.0, p=0.5), 2)
        assert dist[-2] == pytest.approx(0.25, abs=1e-12)
        assert dist[0] == pytest.approx(0.5, abs=1e-12)
        assert dist[2] == pytest.approx(0.25, abs=1e-12)

    def test_three_steps_pascal_row(self, symmetric):
        dist = prompt_distribution(symmetric, 3)
        for site, prob in {-3: 1 / 8, -1: 3 / 8, 1: 3 / 8, 3: 1 / 8}.items():
            assert dist[site] == pytest.approx(prob, abs=1e-12)

    def test_one_step_bias_from_coin(self):
        dist = prompt_distribution(WalkConfig(c=0.0, d=1.0, p=0.25), 1)
        assert dist[+1] == pytest.approx(0.75, abs=1e-12)
        assert dist[-1] == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("p", [0.25, 0.5])
    def test_matches_binomial_closed_form(self, p):
        cfg = WalkConfig(c=0.0, d=1.0, p=p)
        trajectory = list(walk_steps(cfg, "prompt", 30))
        for n in range(31):
            assert trajectory[n].distance(binomial_distribution(n, 1 - p)) < 1e-12

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_degenerate_coin_is_deterministic(self, p):
        dist = prompt_distribution(WalkConfig(c=1.0, d=0.0, p=p), 5)
        assert len(dist) == 1


class TestDensityMatrix:
    def test_delta_diagonal(self):
        assert DensityMatrix.delta().diagonal().support == (0,)

    def test_from_entries_diagonal(self):
        rho = from_entries({(1, 1): 0.3, (5, 5): 0.7})
        dist = rho.diagonal()
        assert dist[1] == pytest.approx(0.3) and dist[5] == pytest.approx(0.7)

    def test_from_entries_off_sublattice_rejected(self):
        with pytest.raises(ValueError, match="sublattice"):
            from_entries({(0, 0): 0.5, (1, 1): 0.5})

    def test_nonhermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            from_entries({(0, 0): 1.0, (0, 2): 1j})

    def test_wrong_trace_rejected(self):
        with pytest.raises(ValueError):
            from_entries({(0, 0): 0.5})

    @pytest.mark.parametrize("mat", [
        [[math.nan, 0.0], [0.0, 1.0]],
        [[1.0, 0.0], [0.0, math.nan]],  # a NaN at the window's end is not trimmed off
        [[0.5, math.nan], [math.nan, 0.5]],
    ], ids=["first", "last", "off-diagonal"])
    def test_nan_entry_rejected(self, mat):
        with pytest.raises(ValueError):
            DensityMatrix(np.array(mat), 0)

    def test_sublattice_round_trip(self):
        cfg = WalkConfig(c=0.6, d=0.8, coin=PHASED_COIN)
        rho = cp_walk(cfg, 2, 3)[-1]
        lo, hi = rho.site_range
        assert (lo, hi) == (-6, 6)
        dense = rho.dense()
        assert dense.shape == (13, 13)
        assert not dense[1::2].any() and not dense[:, 1::2].any()
        again = DensityMatrix(dense[::2, ::2], lo)
        assert again.site_range == (lo, hi)
        assert np.array_equal(again.dense(), dense)
        # sums over the diagonal round as over the dense window's
        for rho in cp_walk(WalkConfig.symmetric(0.25), 2, 12):
            assert rho.trace == np.trace(rho.dense()).real

    def test_trim_offset_scales_with_step(self):
        # stored rows 0 and 1 are zero: the window starts two sublattice rows up
        mat = np.zeros((4, 4), dtype=complex)
        mat[2, 2] = mat[3, 3] = 0.5
        mat[2, 3], mat[3, 2] = 0.25j, -0.25j
        rho = DensityMatrix(mat, -7)
        assert rho.site_range == (-3, -1)
        assert rho.dense()[0, 2] == 0.25j and rho.dense()[2, 0] == -0.25j
        assert rho.dense()[1, 1] == 0.0
        assert rho.diagonal().support == (-3, -1)

    def test_later_writes_do_not_reach_the_matrix(self):
        # a writable input, then a read-only view whose base stays writable
        mat = np.array([[0.5 + 0j, 0.0], [0.0, 0.5]])
        base = mat.copy()
        view = base[:]
        view.setflags(write=False)
        for source, target in ((mat, mat), (view, base)):
            rho = DensityMatrix(source, 0)
            target[0, 0] = 7.0
            assert list(rho.diagonal().items()) == [(0, 0.5), (2, 0.5)]

    def test_diagonal_clamps_dust(self):
        # stored row 1 is site 2
        rho = DensityMatrix(
            np.array([[1.0 + 1e-13, 0], [0, -1e-13]], dtype=complex), 0
        )
        assert rho.site_range == (0, 2)
        dist = rho.diagonal()
        assert dist[2] == 0.0 and dist[0] == pytest.approx(1.0, abs=1e-12)


    def test_defect_only_below_the_diagonal_is_caught(self):
        mat = np.eye(700, dtype=complex) / 700
        mat[650, 10] = 1e-9j
        with pytest.raises(NumericalError, match="Hermitian") as err:
            DensityMatrix(mat, 0)
        assert err.value.value == 1e-9

    @pytest.mark.parametrize("entry", [(650, 10), (0, 0), (699, 699)],
                             ids=["below-diagonal", "first-diagonal", "last-diagonal"])
    def test_nan_in_any_block_reports_nan(self, entry):
        # finite defects in every other block: a NaN must not be dropped by a max
        rng = np.random.default_rng(7)
        mat = rng.normal(size=(700, 700)) + 0j
        mat[entry] = math.nan
        with pytest.raises(NumericalError, match="Hermitian") as err:
            DensityMatrix(mat, 0)
        assert math.isnan(err.value.value)

    @pytest.mark.parametrize("w", [1, 2, 13, 14, 300, 301, 700])
    def test_defect_is_the_full_matrix_maximum(self, w):
        rng = np.random.default_rng(w)
        mat = rng.normal(size=(w, w)) + 1j * rng.normal(size=(w, w))
        with pytest.raises(NumericalError) as err:
            DensityMatrix(mat, 0)
        assert err.value.value == np.max(np.abs(mat - mat.conj().T))

    @pytest.mark.parametrize("cut", [np.s_[0], np.s_[-1], np.s_[:, 0], np.s_[:, -1], np.s_[:],
                                     np.s_[:0], np.s_[::5]],
                             ids=["first-row", "last-row", "first-column", "last-column",
                                  "all", "none", "first-and-last-rows"])
    def test_trim_matches_a_full_mask(self, cut):
        mat = np.random.default_rng(3).normal(size=(6, 6)) + 0j
        mat[cut] = 0.0
        # the window written out: from the first to the last nonzero row or column
        mask = mat != 0
        want, want_lo = np.zeros((1, 1)), -5
        if mask.any():
            rows, cols = np.nonzero(mask.any(axis=1))[0], np.nonzero(mask.any(axis=0))[0]
            a, b = min(rows[0], cols[0]), max(rows[-1], cols[-1])
            want, want_lo = mat[a : b + 1, a : b + 1], -5 + 2 * a
        got, lo = _trim_window(mat, -5)
        assert lo == want_lo and np.array_equal(got, want)

    @pytest.mark.parametrize("diag,site_range", [
        ([0.5, 0.5, 0.0], (-5, -3)), ([0.0, 1.0, 0.0], (-3, -3)), ([0.5, 0.0, 0.5], (-5, -1)),
    ])
    def test_zero_edge_rows_are_trimmed(self, diag, site_range):
        assert DensityMatrix(np.diag(diag), -5).site_range == site_range

    def test_checks_allocate_no_full_size_temporary(self):
        # the Hermiticity check runs in row blocks and the window needs no
        # trimming: a 601 x 601 matrix (5.8 MB) adds well under one of its size
        v = np.random.default_rng(1).normal(size=601) + 1j
        mat = np.outer(v, v.conj()) / np.vdot(v, v).real
        mat.setflags(write=False)
        DensityMatrix(mat, 0)
        tracemalloc.start()
        try:
            rho = DensityMatrix(mat, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 1e6 <= 0.5


class TestCpApply:
    def test_identity_kraus_is_noop(self):
        rho = from_entries({(0, 0): 0.5, (2, 2): 0.5, (0, 2): 0.25, (2, 0): 0.25})
        out = cp_apply(rho, [IDENTITY])
        assert out.site_range == (0, 2)
        assert abs(out.dense()[0, 2] - 0.25) < 1e-15

    def test_incomplete_kraus_rejected(self):
        with pytest.raises(KrausCompletenessError):
            cp_apply(DensityMatrix.delta(), [LaurentOperator({1: 0.5})])

    def test_global_kraus_diagonal_matches_distribution(self, symmetric):
        for n in (2, 5):
            out = cp_apply(DensityMatrix.delta(), kraus_pair(symmetric, n))
            assert out.diagonal().distance(global_distribution(symmetric, n)) < 1e-12

    def test_period_two_off_diagonal(self, symmetric):
        out = cp_apply(DensityMatrix.delta(), kraus_pair(symmetric, 2))
        assert out.site_range == (-2, 2)
        assert out.dense()[2, 4] == pytest.approx(-0.25j, abs=1e-12)

    @pytest.mark.parametrize("iters", [0, 1, 3])
    def test_mixed_parity_family_rejected(self, symmetric, iters):
        # a complete family of odd degree difference would leave the step-2 sublattice
        half = [LaurentOperator({0: SQ2}), LaurentOperator({1: SQ2})]
        rho = cp_walk(symmetric, 2, iters)[-1]
        with pytest.raises(ValueError, match="mixed parity"):
            cp_apply(rho, half)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_kraus_pair_matches_dense(self, m):
        cfg = WalkConfig(c=0.6, d=0.8j, coin=PHASED_COIN)
        rho = cp_walk(cfg, m, 2)[-1]
        out = cp_apply(rho, kraus_pair(cfg, m))
        lo, want = dense_cp(rho, kraus_pair(cfg, m))
        assert np.abs(window_of(out, lo, want.shape[0]) - want).max() < 1e-15

    def test_trace_and_hermiticity_over_many_steps(self, symmetric):
        kraus = kraus_pair(symmetric, 1)
        rho = DensityMatrix.delta()
        for _ in range(100):
            rho = cp_apply(rho, kraus)
            assert abs(rho.trace - 1.0) < 1e-12
            dense = rho.dense()
            assert np.abs(dense - dense.conj().T).max() < 1e-12


    def test_peak_allocation_is_the_result_and_blocks(self, symmetric):
        # the output, one scratch block of rows and numpy's buffers for it: no
        # temporary as large as the 301 x 301 result (1.45 MB)
        rho = _last(_cp_steps(symmetric, 2, 149))
        kraus = kraus_pair(symmetric, 2)
        cp_apply(rho, kraus)
        tracemalloc.start()
        try:
            out = cp_apply(rho, kraus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out._mat.shape == (301, 301)
        assert (peak - out._mat.nbytes) / 1e6 <= 0.5


class TestCpWalk:
    def test_period_one_diagonals_are_prompt(self, symmetric):
        trajectory = cp_walk(symmetric, 1, 10)
        prompt = list(walk_steps(symmetric, "prompt", 10))
        for rho, dist in zip(trajectory, prompt):
            assert rho.diagonal().distance(dist) < 1e-12

    def test_second_moment_after_two_iterations(self, symmetric):
        from coinwalk.analysis import moment

        trajectory = cp_walk(symmetric, 2, 2)
        assert moment(trajectory[2].diagonal(), 2) == pytest.approx(5.0, abs=1e-10)
        assert moment(trajectory[0].diagonal(), 2) == 0.0

    def test_first_delayed_diagonal(self, symmetric):
        dist = cp_walk(symmetric, 2, 1)[1].diagonal()
        for site, prob in {2: 0.25, 0: 0.5, -2: 0.25}.items():
            assert dist[site] == pytest.approx(prob, abs=1e-12)

    @pytest.mark.parametrize("m,iters", [(1, 6), (2, 4), (3, 3)])
    def test_agrees_with_dense_oracle(self, symmetric, m, iters):
        got = [rho.diagonal() for rho in cp_walk(symmetric, m, iters)]
        want = dense_delayed_diagonals(symmetric, m, iters)
        for a, b in zip(got, want):
            assert a.distance(b) < 1e-10

    def test_deterministic_coin_agrees_with_dense_oracle(self):
        # at p = 1 each period moves the walker by +-3: the stored rows between are empty
        cfg = WalkConfig.symmetric(1.0)
        got = [rho.diagonal() for rho in cp_walk(cfg, 3, 5)]
        assert got[-1].support == tuple(range(-15, 16, 6))
        for a, b in zip(got, dense_delayed_diagonals(cfg, 3, 5)):
            assert a.distance(b) < 1e-12


    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("cd", COIN_INITS)
    def test_general_coin_agrees_with_dense_oracle(self, m, cd):
        cfg = WalkConfig(c=cd[0], d=cd[1], coin=PHASED_COIN)
        iters = 3
        got = [rho.diagonal() for rho in cp_walk(cfg, m, iters)]
        want = dense_delayed_diagonals(cfg, m, iters)
        for a, b in zip(got, want):
            assert a.distance(b) < 1e-12


#: sha256 of every stored iterate of a CP walk, each its ``lo`` in decimal
#: and then its stored matrix's bytes, recorded before ``cp_apply`` summed in
#: row blocks: (coin, p, m, iterations) -> hex digest.
CP_ITERATE_SHA256 = {
    ("symmetric", 0.25, 1, 40):
        "a40c3f32256636b43b64f4e3e53012a5ecdcfffb314ad82caf301302810022cd",
    ("symmetric", 0.25, 2, 40):
        "ea61ccdc9c996765659e40b47daa28a33032be72e30ae389ea2b93ad22be8990",
    ("symmetric", 0.25, 3, 40):
        "a62d254158185dc8a0fbaddf28a59531093bbef0a205668e37274a813ba6a25c",
    ("c0d1", 0.25, 1, 40):
        "da84bfd75c63938e568ff9ee8c2da8f8fa0fbd397985a968d58a8a3a61b9497b",
    ("c0d1", 0.25, 2, 40):
        "d552fd7abc6d1bc65be776385c7514b5cb38ddff2ded52915dd6b664a94b3b27",
    ("c0d1", 0.25, 3, 40):
        "ed4700b9b27732148499e016eb9595e7995533860a797fed9a34bf0533381250",
    ("symmetric", 1.0 / 3.0, 1, 40):
        "9f7146dabfee8d06b6c4bed3fb3e14aa5083c721449d138c52c448151f579b13",
    ("symmetric", 1.0 / 3.0, 2, 40):
        "22fb8bc514d7bbe8098d4ef02c29571d8d604cba5f5ff294f44394f57e56743b",
    ("symmetric", 1.0 / 3.0, 3, 40):
        "59d20cc4cfb2b957f89ba03eba6f61d9ac90467ca39363f781651bdee84bdf68",
    ("c0d1", 1.0 / 3.0, 1, 40):
        "517676d14126528a16ab3437b8337cff3e2c9f0d364b1a4d34969b04f86e5891",
    ("c0d1", 1.0 / 3.0, 2, 40):
        "ed3147fbea36278a310fe1d358237c5edac9e3a946704fad4eb3570e85bc33c6",
    ("c0d1", 1.0 / 3.0, 3, 40):
        "5b2dd6b9ea2def7b9fd5070cee12160ec844e921ee01fb206db1945805366b02",
    ("symmetric", 0.5, 1, 40):
        "b57cf0483735af903c7c6ea1a8d875dc2c5c19197a784709bff132ac99e70315",
    ("symmetric", 0.5, 2, 40):
        "9d99e55416a59b9f7e607dbfd0b818733e67cfccd137fbf325dca56d6eba2f7a",
    ("symmetric", 0.5, 3, 40):
        "98af5e845ebca50b41d6651996c5afcb03b248dd59cf1790b97067a4cc812b01",
    ("c0d1", 0.5, 1, 40):
        "849f206757567ce98875b5dbf35b462b79d3936dd64a4e0e3e260f5c74ac9fb6",
    ("c0d1", 0.5, 2, 40):
        "22dd99ddd4985a7d92cf021d8435affadfb0bdbce9391df6e4dd64ba204ac548",
    ("c0d1", 0.5, 3, 40):
        "d50545780a0064c768d1bf018ba9a511de1ca4995b1bb69c1dddaa74bb27b68c",
    ("symmetric", 0.75, 1, 40):
        "a40c3f32256636b43b64f4e3e53012a5ecdcfffb314ad82caf301302810022cd",
    ("symmetric", 0.75, 2, 40):
        "77487906b49f8a7ee515047eb8f7ffe0cc3d8c591b6ba12499ad975851a33355",
    ("symmetric", 0.75, 3, 40):
        "34e78ce7b58a484c93cda72ee5af8b0366a6b1953df42a96b7682653830def11",
    ("c0d1", 0.75, 1, 40):
        "35ba71a62e2b76403d00de92a783e4b6aafc9ef9cb53d3283c8dc3a59753d982",
    ("c0d1", 0.75, 2, 40):
        "a5ba637e2f59001fe126b75c6bb99076330d51fada6336616ab6a423f14e2bf8",
    ("c0d1", 0.75, 3, 40):
        "5c5da345b0aa3e1009e160c771ed854a62fb7123199ad3c89de09bac0cbee22a",
    ("phased-c0d1", None, 2, 40):
        "d7f9cadcec2536d03f4e13936924ce8e53ac34f913af3659777a09b5b2f0c48b",
    ("phased-c0d1", None, 4, 40):
        "e56cf3824f2960a89ea620f502f101c0625b84ac30f2636caeeb7b28f612aa68",
    ("phased-symmetric", None, 2, 40):
        "b3b297089bab17065d65fe8fd28152cff07b7f583b5718246062f3c624a35f6f",
    ("phased-symmetric", None, 4, 40):
        "06e82ea5d5fc885babaf274fa9861d4439aca5ad8e7dd9823ce55670af7b4caf",
    ("symmetric", 0.5, 2, 150):
        "f4714ecc9884e72c6ab7b85eb3e8a52afea3387e6c420a49e85affc85d0ae801",
}


def cp_config(coin, p):
    if coin == "symmetric":
        return WalkConfig.symmetric(p)
    if coin == "c0d1":
        return WalkConfig(c=0.0, d=1.0, p=p)
    c, d = COIN_INITS[coin == "phased-symmetric"]
    return WalkConfig(c=c, d=d, coin=PHASED_COIN)


class TestCpIterateBits:
    @pytest.mark.parametrize("coin,p,m,n", CP_ITERATE_SHA256,
                             ids=[f"{c}-p={p and round(p, 3)}-m={m}-n={n}"
                                  for c, p, m, n in CP_ITERATE_SHA256])
    def test_every_iterate_keeps_its_bits(self, coin, p, m, n):
        digest = hashlib.sha256()
        for rho in _cp_steps(cp_config(coin, p), m, n):
            digest.update(str(rho._lo).encode())
            digest.update(rho._mat.tobytes())
        assert digest.hexdigest() == CP_ITERATE_SHA256[coin, p, m, n]


#: The momentum-space digest grid: the biases of P_GRID, 0 and 1, each with the
#: states c=0,d=1, c=1,d=0, symmetric and c=0.6+0.48i,d=0.64i; ten Haar-random
#: coins with random states; and the phased coin with the complex state.
DIGEST_CONFIGS = [
    *(cfg for p in (0.0, *P_GRID, 1.0)
      for cfg in (WalkConfig(c=0.0, d=1.0, p=p), WalkConfig(c=1.0, d=0.0, p=p),
                  WalkConfig.symmetric(p), WalkConfig(c=0.6 + 0.48j, d=0.64j, p=p))),
    *(random_unitary_config(seed) for seed in range(10)),
    WalkConfig(c=0.6 + 0.48j, d=0.64j, coin=PHASED_COIN),
]
#: sha256 over DIGEST_CONFIGS in order, then the step counts, of each
#: distribution's ``repr(lo)`` and ``values.tobytes()``; recorded when the walk
#: symbol and M(k, k')^n were each raised by a binary-powering loop of their own.
MOMENTUM_SHA256 = {
    # global_distribution(cfg, n), n in (0, 1, 2, 7, 60, 257)
    "global": "d7f42954c4295ad72b22a37ce57489229f343abec25869b5a8da99d531195686",
    # cp_distribution(cfg, m, n), m in (1, 2, 3), n in (0, 1, 5, 40)
    "cp": "cc3f440d56db1d7078825eff617e5c41d8fae1c83b71c5f9f7d326b51e870745",
}


class TestMomentumDigests:
    """The momentum-space answers bit for bit; the stepping checks hold only within 1e-12."""

    @pytest.mark.parametrize("scheme", MOMENTUM_SHA256)
    def test_distributions_keep_their_bits(self, scheme):
        if scheme == "global":
            dists = (global_distribution(cfg, n)
                     for cfg in DIGEST_CONFIGS for n in (0, 1, 2, 7, 60, 257))
        else:
            dists = (cp_distribution(cfg, m, n)
                     for cfg in DIGEST_CONFIGS for m in (1, 2, 3) for n in (0, 1, 5, 40))
        digest = hashlib.sha256()
        for dist in dists:
            digest.update(repr(dist.lo).encode())
            digest.update(dist.values.tobytes())
        assert digest.hexdigest() == MOMENTUM_SHA256[scheme]


class TestErrorKinds:
    """Checks on computed values raise NumericalError; malformed input a plain ValueError."""

    @pytest.mark.parametrize("build,match", [
        (lambda: SiteDistribution({0: 0.5}), "sum to 0.5"),
        (lambda: SiteDistribution({0: 1.1, 1: -0.1}), "negative probability"),
        (lambda: from_entries({(0, 0): 1.0, (0, 2): 1j}), "Hermitian"),
        (lambda: DensityMatrix(np.zeros((3, 3)), 0), "trace is 0.0"),
        (lambda: DensityMatrix(np.diag([1.0 + 2e-12, -2e-12]), 0), "negative diagonal"),
        (lambda: cp_apply(DensityMatrix.delta(), [LaurentOperator({1: 0.5})]), "completeness"),
        (lambda: cp_apply(DensityMatrix.delta(), [LaurentOperator({0: 1.0, 2: math.nan})]),
         "completeness violated: residual nan"),
    ], ids=["sum", "negative-probability", "hermiticity", "all-zero-trace",
            "negative-diagonal", "kraus-completeness", "kraus-completeness-nan"])
    def test_computed_value_checks(self, build, match):
        with pytest.raises(NumericalError, match=match):
            build()

    @pytest.mark.parametrize("build,value,bound", [
        (lambda: SiteDistribution({0: 0.5}), 0.5, 1e-12),
        (lambda: SiteDistribution((0, np.array([0.5])), sum_tol=1e-9), 0.5, 1e-9),
        (lambda: SiteDistribution({0: 1.1, 1: -0.1}), 0.1, 1e-12),
        (lambda: from_entries({(0, 0): 1.0, (0, 2): 1j}), 1.0, 1e-12),
        (lambda: DensityMatrix(np.zeros((3, 3)), 0), 1.0, 1e-12),
        (lambda: DensityMatrix(np.diag([1.0 + 4e-12, -4e-12]), 0), 4e-12, 1e-12),
        (lambda: cp_apply(DensityMatrix.delta(), [LaurentOperator({1: 0.5})]), 0.75, 1e-10),
        (lambda: cp_apply(DensityMatrix.delta(), [LaurentOperator({0: 1.0, 2: math.nan})]),
         math.nan, 1e-10),
    ], ids=["sum", "sum-tol", "negative-probability", "hermiticity", "all-zero-trace",
            "negative-diagonal", "kraus-completeness", "kraus-completeness-nan"])
    def test_computed_value_checks_report_value_and_bound(self, build, value, bound):
        with pytest.raises(NumericalError) as err:
            build()
        assert err.value.value == pytest.approx(value, nan_ok=True)
        assert err.value.bound == bound

    @pytest.mark.parametrize("build,match", [
        (lambda: DensityMatrix(np.zeros((2, 3)), 0), "square"),
        (lambda: cp_apply(DensityMatrix.delta(), [LaurentOperator({0: SQ2}),
                                                  LaurentOperator({1: SQ2})]), "mixed parity"),
    ], ids=["non-square", "mixed-parity"])
    def test_malformed_input(self, build, match):
        with pytest.raises(ValueError, match=match) as err:
            build()
        assert not isinstance(err.value, NumericalError)


class TestSiteDistribution:
    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError):
            SiteDistribution({0: 1.1, 1: -0.1})

    def test_bad_sum_rejected(self):
        with pytest.raises(ValueError):
            SiteDistribution({0: 0.5})

    def test_total_variation(self):
        a = SiteDistribution({0: 0.5, 2: 0.5})
        b = SiteDistribution({0: 1.0})
        assert a.total_variation(b) == pytest.approx(0.5)

    def test_mapping_and_array_constructors_agree(self):
        a = SiteDistribution({-1: 0.25, 0: 0.0, 1: 0.75, 3: -1e-13})
        b = SiteDistribution((-3, np.array([0.0, 0.0, 0.25, 0.0, 0.75, 0.0, -1e-13])))
        for dist in (a, b):
            assert dist.support == (-1, 1)
            assert list(dist.items()) == [(-1, 0.25), (1, 0.75)]
            assert len(dist) == 2
            assert dist[0] == 0.0 and dist[3] == 0.0
        assert a.distance(b) == 0.0
        assert np.array_equal(b.probabilities(), [0.25, 0.75])

    @pytest.mark.parametrize("values", [[math.nan, 1.0], [0.5, math.nan, 0.5], [1.0, math.nan]])
    def test_nan_probability_rejected(self, values):
        with pytest.raises(ValueError):
            SiteDistribution((0, np.array(values)))
        with pytest.raises(ValueError):
            SiteDistribution(dict(enumerate(values)))

    def test_array_constructor_validates(self):
        with pytest.raises(ValueError):
            SiteDistribution((0, np.array([1.1, -0.1])))
        with pytest.raises(ValueError):
            SiteDistribution((0, np.array([0.5, 0.0])))
        with pytest.raises(TypeError):
            SiteDistribution((0, np.array([1.0 + 0.5j])))
