import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coinwalk.analysis import Verdict, compare_majorization
from coinwalk.engine import (
    MEMO_SIZE,
    NumericalError,
    SiteDistribution,
    WalkConfig,
    _last,
    _step_power,
    cp_walk,
    global_distribution,
    kraus_pair,
)
from coinwalk.kernels import (
    SCHEMES,
    SHIFT_DIFFERENCE,
    IncompatibleCoinError,
    RealKernel,
    _kernel_sum_tol,
    _prompt_kernel,
    binomial_solution,
    classical_kernel,
    kernel_walk,
    mixing_matrix,
    phi_matrix,
    prompt_distribution,
    pseudo_memory_reconstruct,
    quantum_kernel,
    reshuffling_matrix,
    walk_steps,
)
from coinwalk.laurent import IDENTITY, LaurentOperator
from coinwalk.verify import SUITES, _grid, run_suite

from conftest import COIN_INITS, P_GRID, PHASED_COIN, random_unitary_config


class TestRealKernel:
    def test_stochastic_flag_validates(self):
        with pytest.raises(ValueError):
            RealKernel({0: 0.5}, "stochastic")
        with pytest.raises(ValueError):
            RealKernel({0: 1.5, 1: -0.5}, "stochastic")

    def test_null_sum_flag_validates(self):
        with pytest.raises(ValueError):
            RealKernel({0: 0.5}, "null-sum")

    def test_from_laurent_rejects_imaginary(self):
        with pytest.raises(ValueError):
            RealKernel.from_laurent(LaurentOperator({0: 1j}))

    @pytest.mark.parametrize("build,match", [
        (lambda: RealKernel({0: 0.5}, "stochastic"), "sums to 0.5"),
        (lambda: RealKernel({0: 1.5, 1: -0.5}, "stochastic"), "negative coefficient"),
        (lambda: RealKernel({0: 0.5}, "null-sum"), "sums to 0.5"),
        (lambda: RealKernel.from_laurent(LaurentOperator({0: 1j})), "imaginary part"),
        # non-finite values: NaN fails every comparison, and an infinite sum
        # has an infinite rounding bound
        (lambda: RealKernel((0, [0.5, math.nan, 0.5]), "stochastic"), "negative coefficient"),
        (lambda: RealKernel({0: math.inf, 1: 1.0}, "stochastic"), "sums to inf"),
        (lambda: RealKernel({0: math.nan, 1: 1.0}, "null-sum"), "sums to nan"),
        (lambda: RealKernel({0: math.inf, 1: -math.inf}, "null-sum"), "sums to nan"),
        (lambda: RealKernel.from_laurent(LaurentOperator({0: 1.0, 1: complex(0.0, math.nan)})),
         "imaginary part nan"),
    ], ids=["stochastic-sum", "negative", "null-sum", "imaginary", "stochastic-nan",
            "stochastic-inf", "null-sum-nan", "null-sum-inf", "imaginary-nan"])
    def test_checks_on_computed_values_are_numerical_errors(self, build, match):
        with pytest.raises(NumericalError, match=match):
            build()

    @pytest.mark.parametrize("build,value,bound", [
        (lambda: RealKernel({0: 0.5}, "stochastic"), 0.5, 1e-12 + 2 ** -54),
        (lambda: RealKernel({0: 1.5, 1: -0.5}, "stochastic"), 0.5, 1e-12),
        (lambda: RealKernel({0: 0.5}, "null-sum"), 0.5, 1e-12 + 2 ** -54),
        (lambda: RealKernel.from_laurent(LaurentOperator({2: 1.0, 3: 0.25j})), 0.25, 1e-12),
    ], ids=["stochastic-sum", "negative", "null-sum", "imaginary"])
    def test_computed_value_errors_carry_value_and_bound(self, build, value, bound):
        with pytest.raises(NumericalError) as err:
            build()
        assert (err.value.value, err.value.bound) == (value, bound)

    def test_repr_names_the_kind(self):
        assert repr(RealKernel({0: 1.0}, "stochastic")) == "RealKernel({0: 1}, kind='stochastic')"
        assert repr(SHIFT_DIFFERENCE) == "RealKernel({-1: -1, 1: 1}, kind='null-sum')"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel kind") as err:
            RealKernel({0: 1.0}, "bistochastic")
        assert not isinstance(err.value, NumericalError)

    def test_mapping_and_array_constructors_agree(self):
        a = RealKernel({-1: 0.25, 1: 0.75, 2: 1e-15}, "stochastic")
        b = RealKernel((-2, np.array([0.0, 0.25, 0.0, 0.75, -1e-15])), "stochastic")
        for kernel in (a, b):
            assert kernel.support == (-1, 1)
            assert list(kernel.items()) == [(-1, 0.25), (1, 0.75)]
            assert len(kernel) == 2 and kernel.kind == "stochastic"
        assert a.distance(b) == 0.0

    def test_array_constructor_validates(self):
        with pytest.raises(ValueError):
            RealKernel((0, np.array([0.5])), "stochastic")
        with pytest.raises(ValueError):
            RealKernel((0, np.array([1.5, -0.5])), "stochastic")
        with pytest.raises(ValueError):
            RealKernel((0, np.array([0.5, 0.0])), "null-sum")

    def test_complex_values_rejected(self):
        with pytest.raises(TypeError):
            RealKernel((0, np.array([1 + 1j])))
        with pytest.raises(TypeError):
            RealKernel({0: 1 + 1j})
        unit = RealKernel({0: 1.0}, "stochastic")
        with pytest.raises(TypeError):
            unit + IDENTITY
        with pytest.raises(TypeError):
            unit * IDENTITY
        with pytest.raises(TypeError):
            unit.convolve(IDENTITY)

    def test_sum_tolerance_scales_with_norm(self):
        # Phi^k has an l1 norm growing like 2^k; at k = 15 its sum drifts past
        # any fixed 1e-12 while staying well inside the rounding bound
        phi = phi_matrix(WalkConfig.symmetric())
        power = RealKernel({0: 1.0})
        for _ in range(15):
            power = power.convolve(phi)
        assert power.kind == "null-sum"
        assert abs(power.coefficient_sum) > 1e-12


class TestClassicalKernel:
    def test_unbiased(self):
        k = classical_kernel(0.5)
        assert k.coeff(+1) == 0.5 and k.coeff(-1) == 0.5

    def test_degenerate_right_shift(self):
        assert classical_kernel(0.0).support == (1,)

    def test_square_applied_to_delta(self):
        k = classical_kernel(0.5)
        dist = k.convolve(k).apply_distribution(SiteDistribution.delta())
        for site, prob in {-2: 0.25, 0: 0.5, 2: 0.25}.items():
            assert dist[site] == pytest.approx(prob, abs=1e-12)

    def test_bias_out_of_range(self):
        with pytest.raises(ValueError):
            classical_kernel(1.2)

    def test_null_sum_kernel_maps_no_distribution(self):
        with pytest.raises(ValueError, match="only stochastic kernels"):
            SHIFT_DIFFERENCE.apply_distribution(SiteDistribution.delta())


class TestQuantumKernel:
    def test_one_step_symmetric(self, symmetric):
        k = quantum_kernel(symmetric, 1)
        assert k.coeff(+1) == pytest.approx(0.5, abs=1e-12)
        assert k.coeff(-1) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("p", P_GRID)
    def test_two_step_hand_expansion(self, p):
        k = quantum_kernel(WalkConfig.symmetric(p), 2)
        assert k.coeff(+2) == pytest.approx(p / 2, abs=1e-12)
        assert k.coeff(0) == pytest.approx(1 - p, abs=1e-12)
        assert k.coeff(-2) == pytest.approx(p / 2, abs=1e-12)

    def test_zero_steps_identity(self, symmetric):
        assert quantum_kernel(symmetric, 0).support == (0,)

    @pytest.mark.parametrize("p", P_GRID)
    @pytest.mark.parametrize("cd", COIN_INITS)
    def test_doubly_stochastic_grid(self, p, cd):
        cfg = WalkConfig(c=cd[0], d=cd[1], p=p)
        for n in range(21):
            k = quantum_kernel(cfg, n)
            assert k.kind == "stochastic"
            assert abs(k.coefficient_sum - 1.0) < 1e-12
            assert all(v >= -1e-12 for _, v in k.items())

    @pytest.mark.parametrize("p", P_GRID)
    @pytest.mark.parametrize("cd", COIN_INITS)
    @pytest.mark.parametrize("n", [0, 1, 4, 9])
    def test_applied_to_delta_matches_engine(self, p, cd, n):
        # independent computation paths: Laurent coefficients vs amplitudes
        cfg = WalkConfig(c=cd[0], d=cd[1], p=p)
        dist = quantum_kernel(cfg, n).apply_distribution(SiteDistribution.delta())
        assert dist.distance(global_distribution(cfg, n)) < 1e-12


class TestMixingAndReshuffling:
    def test_mixing_zero_index_empty(self, symmetric):
        assert mixing_matrix(symmetric, 0).is_zero

    def test_mixing_one_step_empty_at_half(self):
        for cd in COIN_INITS:
            cfg = WalkConfig(c=cd[0], d=cd[1], p=0.5)
            assert mixing_matrix(cfg, 1).is_zero

    def test_mixing_two_steps_cancels_for_symmetric(self, symmetric):
        assert mixing_matrix(symmetric, 2).is_zero

    def test_reshuffling_base_cases_empty(self, symmetric):
        for i in (1, 2, 3):
            assert reshuffling_matrix(symmetric, i).is_zero

    def test_reshuffling_index_below_one_rejected(self, symmetric):
        with pytest.raises(ValueError):
            reshuffling_matrix(symmetric, 0)

    @pytest.mark.parametrize("build", [mixing_matrix, binomial_solution,
                                       pseudo_memory_reconstruct])
    def test_negative_count_rejected(self, symmetric, build):
        with pytest.raises(ValueError, match="nonnegative"):
            build(symmetric, -1)

    @pytest.mark.parametrize("build", [mixing_matrix, phi_matrix, binomial_solution,
                                       pseudo_memory_reconstruct])
    def test_general_unitary_coin_rejected(self, build):
        # these constructions are written in the one-parameter coin's bias p
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        cfg = WalkConfig(c=1.0, d=0.0, coin=hadamard)
        args = () if build is phi_matrix else (3,)
        with pytest.raises(ValueError, match="one-parameter coin"):
            build(cfg, *args)

    @pytest.mark.parametrize("p", P_GRID)
    def test_reshuffling_null_sums(self, p):
        cfg = WalkConfig(c=0.0, d=1.0, p=p)
        for i in range(2, 13):
            k = reshuffling_matrix(cfg, i)
            assert abs(k.coefficient_sum) < 1e-12

    @pytest.mark.parametrize("p", P_GRID)
    @pytest.mark.parametrize("cd", COIN_INITS)
    def test_inhomogeneous_term_null_sums(self, p, cd):
        cfg = WalkConfig(c=cd[0], d=cd[1], p=p)
        for n in range(1, 13):
            term = SHIFT_DIFFERENCE.convolve(mixing_matrix(cfg, n))
            assert abs(term.coefficient_sum) < 1e-12


class TestRecurrence:
    @pytest.mark.parametrize("p", P_GRID)
    @pytest.mark.parametrize("cd", COIN_INITS)
    def test_kernel_recurrence(self, p, cd):
        cfg = WalkConfig(c=cd[0], d=cd[1], p=p)
        delta_c = classical_kernel(p)
        for n in range(1, 13):
            lhs = quantum_kernel(cfg, n + 1)
            rhs = delta_c.convolve(quantum_kernel(cfg, n)) + SHIFT_DIFFERENCE.convolve(
                mixing_matrix(cfg, n)
            )
            assert lhs.distance(rhs) < 1e-10


class TestPhiAndDelayedKernel:
    def test_phi_symmetric_half(self, symmetric):
        phi = phi_matrix(symmetric)
        want = {2: 0.25, 0: 0.5, -2: 0.25, 1: -0.5, -1: -0.5}
        for deg, val in want.items():
            assert phi.coeff(deg) == pytest.approx(val, abs=1e-12)
        assert abs(phi.coefficient_sum) < 1e-12

    @pytest.mark.parametrize("p", P_GRID)
    @pytest.mark.parametrize("cd", COIN_INITS)
    def test_period_one_is_the_one_step_quantum_kernel(self, p, cd):
        # the kernel scheme at m = 1 walks quantum_kernel(cfg, 1) and matches
        # the prompt walk within 1e-14 (1.3e-15 measured over this grid).  Not
        # bit for bit: the prompt kernel takes its weights as abs(a) ** 2 and
        # quantum_kernel as re^2 + im^2 (0.5000000000000001 against 0.5 for the
        # symmetric coin), so _prompt_kernel stays to keep the prompt walk's bytes
        cfg = WalkConfig(c=cd[0], d=cd[1], p=p)
        kernel_scheme = list(walk_steps(cfg, "kernel", 60, 1))
        assert_same_steps(kernel_scheme, kernel_walk(quantum_kernel(cfg, 1), 60))
        for got, want in zip(kernel_scheme, walk_steps(cfg, "prompt", 60), strict=True):
            assert got.distance(want) <= 1e-14

    def test_phi_depends_only_on_sum_difference_moduli(self):
        phi_a = phi_matrix(WalkConfig.symmetric())
        phi_b = phi_matrix(WalkConfig(c=1.0, d=0.0, p=0.5))
        assert phi_a.distance(phi_b) < 1e-12

    def test_period_two_kernel_symmetric_half(self, symmetric):
        k = quantum_kernel(symmetric, 2)
        for deg, val in {2: 0.25, 0: 0.5, -2: 0.25}.items():
            assert k.coeff(deg) == pytest.approx(val, abs=1e-12)

    @pytest.mark.parametrize("p", P_GRID)
    @pytest.mark.parametrize("cd", COIN_INITS)
    def test_period_two_kernel_decomposition(self, p, cd):
        cfg = WalkConfig(c=cd[0], d=cd[1], p=p)
        recomposed = classical_kernel(p) + phi_matrix(cfg)
        assert quantum_kernel(cfg, 2).distance(recomposed) < 1e-12
        assert abs(quantum_kernel(cfg, 2).coefficient_sum - 1.0) < 1e-12

    def test_phi_commutes_with_classical_kernel(self, symmetric):
        phi = phi_matrix(symmetric)
        delta_c = classical_kernel(0.5)
        assert phi.convolve(delta_c).distance(delta_c.convolve(phi)) < 1e-14


class TestKernelWalk:
    def test_delayed_two_steps(self, symmetric):
        walk = kernel_walk(quantum_kernel(symmetric, 2), 2)
        want = {-4: 1 / 16, -2: 4 / 16, 0: 6 / 16, 2: 4 / 16, 4: 1 / 16}
        for site, prob in want.items():
            assert walk[2][site] == pytest.approx(prob, abs=1e-12)

    def test_identity_kernel_constant(self):
        walk = kernel_walk(RealKernel({0: 1.0}, "stochastic"), 5)
        assert all(d.support == (0,) for d in walk)

    def test_classical_two_steps_binomial(self):
        walk = kernel_walk(classical_kernel(0.5), 2)
        assert walk[2][0] == pytest.approx(0.5, abs=1e-12)

    def test_unflagged_kernel_rejected(self):
        with pytest.raises(ValueError):
            kernel_walk(RealKernel({0: 1.0}), 2)

    def test_majorization_chain(self, symmetric):
        walk = kernel_walk(quantum_kernel(symmetric, 2), 30)
        for j in range(30):
            verdict = compare_majorization(walk[j], walk[j + 1])
            assert verdict.relation in (Verdict.FIRST_MAJORIZES, Verdict.EQUAL)

    @pytest.mark.parametrize("p", P_GRID)
    @pytest.mark.parametrize("c,d", COIN_INITS)
    def test_prompt_is_period_one_delayed_walk(self, p, c, d):
        # tracing every step is the period-1 delayed walk.  The prompt kernel
        # takes |a|^2 through abs and the delayed one as re^2 + im^2, so the
        # two one-step kernels may differ in the last bit; K^n - L^n =
        # sum_j K^j (K - L) L^(n-1-j) then grows by at most ||K - L||_1 per step
        cfg = WalkConfig(c=c, d=d, p=p)
        prompt = list(walk_steps(cfg, "prompt", 60))
        delayed = kernel_walk(quantum_kernel(cfg, 1), 60)
        assert len(prompt) == len(delayed) == 61
        one_step = prompt[1].distance(delayed[1])
        assert one_step <= 1e-15
        for n, (got, want) in enumerate(zip(prompt, delayed)):
            assert got.distance(want) <= 1e-15 + n * 2 * one_step

    @pytest.mark.parametrize("n", [0, 1, 2, 25])
    def test_prompt_distribution_is_last_trajectory_step(self, n):
        cfg = WalkConfig(c=0.6, d=0.8j, p=1.0 / 3.0)
        dist = prompt_distribution(cfg, n)
        last = list(walk_steps(cfg, "prompt", n))[-1]
        assert dist.lo == last.lo
        assert dist.values.tobytes() == last.values.tobytes()

    def test_negative_prompt_steps_rejected(self, symmetric):
        with pytest.raises(ValueError, match="nonnegative"):
            prompt_distribution(symmetric, -1)


def assert_same_steps(got, want):
    got = list(got)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.lo, a.values.tobytes()) == (b.lo, b.values.tobytes())


class TestWalkSteps:
    @pytest.mark.parametrize("n", [0, 1, 40])
    @pytest.mark.parametrize("p", P_GRID)
    @pytest.mark.parametrize("c,d", COIN_INITS)
    def test_prompt_and_global_equal_their_list_forms(self, n, p, c, d):
        # the period m belongs to the kernel and cp schemes only: it leaves
        # the prompt and global walks as they are at the default m
        cfg = WalkConfig(c=c, d=d, p=p)
        for scheme in ("prompt", "global"):
            want = list(walk_steps(cfg, scheme, n))
            for m in (1, 2, 3):
                assert_same_steps(walk_steps(cfg, scheme, n, m), want)

    @pytest.mark.parametrize("n", [0, 1, 40])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("p", P_GRID)
    @pytest.mark.parametrize("c,d", COIN_INITS)
    def test_period_schemes_equal_their_list_forms(self, n, m, p, c, d):
        cfg = WalkConfig(c=c, d=d, p=p)
        assert_same_steps(walk_steps(cfg, "kernel", n, m),
                          kernel_walk(quantum_kernel(cfg, m), n))
        assert_same_steps(walk_steps(cfg, "cp", n, m),
                          [rho.diagonal() for rho in cp_walk(cfg, m, n)])

    def test_default_period_is_two(self, symmetric):
        for scheme in SCHEMES:
            assert_same_steps(walk_steps(symmetric, scheme, 5),
                              list(walk_steps(symmetric, scheme, 5, 2)))

    def test_unknown_scheme_rejected(self):
        # the CLI parser only passes SCHEMES; a library caller may not
        with pytest.raises(ValueError, match="unknown scheme"):
            walk_steps(WalkConfig.symmetric(), "quantum", 3, 2)


class TestKernelSumTolerance:
    @pytest.mark.parametrize("scheme,m,n", [("prompt", 1, 5000), ("kernel", 2, 3000)])
    @pytest.mark.parametrize("p", P_GRID)
    @pytest.mark.parametrize("c,d", [(1 / np.sqrt(2), 1j / np.sqrt(2)), (1.0, 0.0)],
                             ids=["symmetric", "c=1,d=0"])
    def test_long_walks_pass_their_sum_check(self, scheme, m, n, p, c, d):
        # a fixed 1e-12 failed these after 2,580-4,718 steps: the totals
        # drift by about n |S - 1| plus n len(kernel) u
        last = _last(walk_steps(WalkConfig(c=c, d=d, p=p), scheme, n, m))
        assert abs(float(last.values.sum()) - 1.0) < 5e-12

    @pytest.mark.parametrize("p", P_GRID)
    @pytest.mark.parametrize("c,d", COIN_INITS)
    def test_tolerance_stays_at_rounding_level(self, p, c, d):
        kernel = _prompt_kernel(WalkConfig(c=c, d=d, p=p))
        assert _kernel_sum_tol(kernel, 0) == _kernel_sum_tol(kernel, 14) == 1e-12
        assert _kernel_sum_tol(kernel, 10**5) < 1e-10

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2000, 4000), st.integers(1000, 3000))
    def test_long_walks_of_general_coins_pass_their_sum_check(self, seed, n_prompt, n_kernel):
        # a general unitary coin with a complex initial state: each walk
        # finishes, and its last total stays within the kernel's bound
        cfg = random_unitary_config(seed)
        for scheme, m, n, kernel in [("prompt", 1, n_prompt, _prompt_kernel(cfg)),
                                     *(("kernel", m, n_kernel, quantum_kernel(cfg, m))
                                       for m in (2, 3))]:
            last = _last(walk_steps(cfg, scheme, n, m))
            assert abs(float(last.values.sum()) - 1.0) <= _kernel_sum_tol(kernel, n)


def digest_of(sequences) -> str:
    """sha256 over the sequences of ``repr(lo)`` and ``values.tobytes()``."""
    digest = hashlib.sha256()
    for seq in sequences:
        digest.update(repr(seq.lo).encode())
        digest.update(seq.values.tobytes())
    return digest.hexdigest()


#: sha256 over n = 0..21 of ``repr(lo)`` and ``values.tobytes()`` of
#: ``binomial_solution(cfg, n)``, recorded from a build that raised each
#: kernel power by its own convolution loop.
BINOMIAL_SHA256 = {
    "c=0,d=1,p=0.25": "49247c36f3c413ae503288d4c8c6c5dcd9175cf41861e8f4b92a98f5973e280d",
    "symmetric,p=0.25": "ed4cdc18d46b7ca5417eb71e4e0f3d04d587aa4c2b940e66434cb5e3d2474a77",
    "c=0,d=1,p=0.5": "e2dd13784a48622d219bd8cf183b17c4c8ba344b329ca00a33c7195d37e6cc86",
    "symmetric,p=0.5": "11c8eafa28494e5693897c04604da7f1c5c07d61b00e5cfb5f10dcfe75b6da7f",
}


#: Digests of results built from the one-step weights, recorded when the
#: prompt kernel was formed from the coin matrix instead of the Kraus pair.
ONE_STEP_SHA256 = {
    # walk_steps(cfg, "prompt", 60), steps 0..60
    "prompt phased": "1d0d9e3273dde65e78c2f79469009257ebf5de940917d3d8f5aab526fef6bda8",
    "prompt random 3": "ff5d70fbe88abcdc5a5cc81c1db04db3a2e0f62163f7aeeef30a87b5f43d7fb5",
    "prompt random 11": "a05b4a7cc1471b9c6edcbabf5d96e4a858bc2de0abfbbd30fa7574edd5938363",
    # _prompt_kernel over the biases of P_GRID, 0 and 1, each with both COIN_INITS
    "prompt kernels": "e45e3cd90cbf9c83a2bf34bfbb16881f5569d28714ea3ca878306ca789d098ba",
    # pseudo_memory_reconstruct(cfg, 200): c=0,d=1 at each P_GRID bias, then symmetric at 1/2
    "memory 200": "8fbb2a9f9919f100a70815efbf7c77fc6f2773634bd798c55e563054686e9158",
}


class TestOneStepWeights:
    @pytest.mark.parametrize("key,cfg", [
        ("prompt phased", WalkConfig(c=1 / math.sqrt(2), d=1j / math.sqrt(2), coin=PHASED_COIN)),
        ("prompt random 3", random_unitary_config(3)),
        ("prompt random 11", random_unitary_config(11)),
    ])
    def test_prompt_walks_of_general_coins_match_recorded_digests(self, key, cfg):
        assert digest_of(list(walk_steps(cfg, "prompt", 60))) == ONE_STEP_SHA256[key]

    def test_prompt_kernels_match_recorded_digest(self):
        kernels = (_prompt_kernel(WalkConfig(c=c, d=d, p=p))
                   for p in (*P_GRID, 0.0, 1.0) for c, d in COIN_INITS)
        assert digest_of(kernels) == ONE_STEP_SHA256["prompt kernels"]

    def test_reconstructions_match_recorded_digest(self):
        cfgs = [*(WalkConfig(c=0.0, d=1.0, p=p) for p in P_GRID), WalkConfig.symmetric()]
        got = digest_of(pseudo_memory_reconstruct(cfg, 200) for cfg in cfgs)
        assert got == ONE_STEP_SHA256["memory 200"]


class TestBinomialSolution:
    def test_one_step_is_period_two_kernel(self, symmetric):
        got = binomial_solution(symmetric, 1)
        want = quantum_kernel(symmetric, 2).apply_distribution(SiteDistribution.delta())
        assert got.distance(want) < 1e-10

    def test_zero_steps_delta(self, symmetric):
        assert binomial_solution(symmetric, 0).support == (0,)

    @pytest.mark.parametrize("n", [2, 3, 7, 12])
    def test_matches_iterated_kernel_walk(self, symmetric, n):
        walk = kernel_walk(quantum_kernel(symmetric, 2), n)
        assert binomial_solution(symmetric, n).distance(walk[n]) < 1e-10

    @pytest.mark.parametrize("n", [17, 21])
    def test_cancellation_noise_beyond_sixteen_steps_is_returned(self, symmetric, n):
        # the total drifts past 1e-9 from n = 17; the tolerance follows the
        # rounding bound of the sum, so the noisy distribution comes back
        walk = kernel_walk(quantum_kernel(symmetric, 2), n)
        assert 1e-10 < binomial_solution(symmetric, n).distance(walk[n]) < 1e-6

    @pytest.mark.parametrize("key", sorted(BINOMIAL_SHA256))
    def test_steps_up_to_21_match_recorded_digests(self, key):
        # the kernel powers are built incrementally, each the previous power
        # convolved with the base; the bytes must stay those of one
        # convolution loop per power
        coin, p = key.split(",p=")
        p = float(p)
        cfg = WalkConfig.symmetric(p) if coin == "symmetric" else WalkConfig(c=0.0, d=1.0, p=p)
        assert digest_of(binomial_solution(cfg, n) for n in range(22)) == BINOMIAL_SHA256[key]


class TestPseudoMemory:
    def test_three_steps_symmetric_all_reshufflings_vanish(self, symmetric):
        got = pseudo_memory_reconstruct(symmetric, 3)
        for site, prob in {-3: 1 / 8, -1: 3 / 8, 1: 3 / 8, 3: 1 / 8}.items():
            assert got[site] == pytest.approx(prob, abs=1e-12)

    def test_four_steps_differs_from_classical(self, symmetric):
        got = pseudo_memory_reconstruct(symmetric, 4)
        assert got[0] == pytest.approx(2 / 16, abs=1e-10)
        assert got[2] == pytest.approx(6 / 16, abs=1e-10)

    def test_one_step_is_classical(self, symmetric):
        got = pseudo_memory_reconstruct(symmetric, 1)
        assert got[+1] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize(
        "cfg",
        [WalkConfig.symmetric()]
        + [WalkConfig(c=0.0, d=1.0, p=p) for p in P_GRID],
        ids=["symmetric"] + [f"d-only-p={p:.3g}" for p in P_GRID],
    )
    def test_reconstruction_matches_global(self, cfg):
        trajectory = list(walk_steps(cfg, "global", 12))
        for n in range(1, 13):
            got = pseudo_memory_reconstruct(cfg, n)
            assert got.distance(trajectory[n]) < 1e-10

    def test_reconstruction_at_four_hundred_steps(self):
        # the classical powers have lost 1.7e-12 of their mass to trimming by here
        cfg = WalkConfig(c=0.0, d=1.0, p=0.25)
        want = list(walk_steps(cfg, "global", 400))[-1]
        assert pseudo_memory_reconstruct(cfg, 400).distance(want) < 1e-10

    def test_incompatible_coin_reported(self):
        cfg = WalkConfig(c=1.0, d=0.0, p=0.25)
        with pytest.raises(IncompatibleCoinError) as err:
            pseudo_memory_reconstruct(cfg, 3)
        # the message carries the measured one-step right probability, read
        # from kraus_pair(cfg, 1), and the 1 - p the classical kernel requires
        assert isinstance(err.value, ValueError)
        measured = abs(kraus_pair(cfg, 1)[0].coeff(1)) ** 2
        assert str(err.value) == (f"one-step right probability {measured:.12g} != 0.75 "
                                  "required by the classical kernel convention")
        assert "0.25 != 0.75" in str(err.value)


class TestKernelCpDivergence:
    def test_agree_through_first_step_then_diverge(self, symmetric):
        walk = kernel_walk(quantum_kernel(symmetric, 2), 2)
        cp = [rho.diagonal() for rho in cp_walk(symmetric, 2, 2)]
        assert walk[0].total_variation(cp[0]) < 1e-12
        assert walk[1].total_variation(cp[1]) < 1e-12
        assert walk[2].total_variation(cp[2]) > 1e-6


#: Every memoised construction; ``clear_memos`` also clears the step powers beneath them.
MEMOISED = {"kraus_pair": kraus_pair, "quantum_kernel": quantum_kernel,
            "mixing_matrix": mixing_matrix}
MEMO_CONFIGS = [
    *(WalkConfig(c=cd[0], d=cd[1], p=p) for p in P_GRID for cd in COIN_INITS),
    *(WalkConfig(c=cd[0], d=cd[1], coin=PHASED_COIN) for cd in COIN_INITS),
]


#: Misses of kraus_pair, _step_power, quantum_kernel and mixing_matrix in one
#: run_suite(suite, 14) from cleared memos.
SUITE_COLD_MISSES = {
    "kraus": (120, 60, 0, 0),
    "stochastic": (120, 60, 120, 112),
    "recurrence": (120, 60, 120, 112),
    "memory": (72, 52, 0, 72),
    "prop2": (1, 2, 1, 0),
    "analysis": (2, 2, 0, 0),
}

def clear_memos():
    for fn in (*MEMOISED.values(), _step_power):
        fn.cache_clear()


def bits(value):
    """Everything a result is made of, down to the bytes of its coefficients."""
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    return type(value), value.lo, value.values.tobytes(), getattr(value, "kind", None)


def memo_id(cfg):
    bias = "phased" if cfg.p is None else f"p={cfg.p:.3g}"
    return f"{bias},c={cfg.c:.3g},d={cfg.d:.3g}"


class TestMemo:
    @pytest.mark.parametrize("name,cfg", [
        pytest.param(name, cfg, id=f"{name}-{memo_id(cfg)}")
        for name in MEMOISED for cfg in MEMO_CONFIGS
        if cfg.p is not None or name != "mixing_matrix"  # it needs the one-parameter coin
    ])
    def test_warm_equals_cold(self, name, cfg):
        fn = MEMOISED[name]
        clear_memos()
        cold = [bits(fn(cfg, n)) for n in range(21)]
        hits = fn.cache_info().hits
        twin = WalkConfig(c=cfg.c, d=cfg.d, p=cfg.p, coin=cfg.coin)
        assert [bits(fn(twin, n)) for n in range(21)] == cold
        assert fn.cache_info().hits == hits + 21
        clear_memos()
        assert [bits(fn(cfg, n)) for n in reversed(range(21))] == cold[::-1]

    @pytest.mark.parametrize("p", P_GRID)
    def test_symmetric_and_hand_built_configs_agree(self, p):
        s = 1.0 / np.sqrt(2.0)
        sym, same = WalkConfig.symmetric(p), WalkConfig(c=s, d=1j * s, p=p)
        plain = WalkConfig(c=float(s), d=complex(1j * s), p=p)  # Python scalars: another key
        assert sym == same and hash(sym) == hash(same) and sym != plain
        for name, fn in MEMOISED.items():
            results = []
            for cfg in (sym, same, plain):
                clear_memos()
                results.append([bits(fn(cfg, n)) for n in range(13)])
            assert results[0] == results[1] == results[2], name
            assert fn(same, 12) is fn(sym, 12), name

    def test_configs_differing_in_any_parameter_are_unequal(self):
        base = WalkConfig(c=0.0, d=1.0, p=0.5)
        assert base == WalkConfig(c=0.0, d=1.0, p=0.5)
        others = [WalkConfig(c=0.0, d=1.0, p=0.25), WalkConfig(c=0, d=1.0, p=0.5),
                  WalkConfig(c=-0.0, d=1.0, p=0.5), WalkConfig(c=0.0, d=1.0 + 0j, p=0.5),
                  WalkConfig(c=0.0, d=1.0, coin=base.coin_unitary)]
        for other in others:
            assert base != other and other != base

    def test_verify_grid_symmetric_configs_are_the_symmetric_config(self):
        symmetric = [(params["p"], cfg) for params, cfg in _grid() if params["coin"] == "symmetric"]
        assert [p for p, _ in symmetric] == list(P_GRID)
        for p, cfg in symmetric:
            assert cfg == WalkConfig.symmetric(p) and hash(cfg) == hash(WalkConfig.symmetric(p))

    def test_verify_builds_each_symmetric_walk_once(self):
        # the grid's symmetric configs and the suites' WalkConfig.symmetric(p)
        # share their memo entries; when they were keyed apart, a cold
        # run_suite("all", 14) missed 148 and 140 times
        clear_memos()
        run_suite("all", 14)
        assert kraus_pair.cache_info().misses == 135
        assert mixing_matrix.cache_info().misses == 127

    @pytest.mark.parametrize("suite", SUITES)
    def test_each_suite_cold_cache_misses(self, suite):
        # a suite restructured to build fewer walk parameters shows it here
        clear_memos()
        run_suite(suite, 14)
        fns = (kraus_pair, _step_power, quantum_kernel, mixing_matrix)
        assert tuple(fn.cache_info().misses for fn in fns) == SUITE_COLD_MISSES[suite]

    def test_verify_twice_is_byte_identical_to_a_cold_run(self):
        clear_memos()
        cold = json.dumps(run_suite("all", 14))
        assert json.dumps(run_suite("all", 14)) == cold
        assert json.dumps(run_suite("all", 14)) == cold

    def test_caches_stay_within_their_bound(self):
        cfg = WalkConfig(c=0.0, d=1.0, p=0.25)
        clear_memos()
        pseudo_memory_reconstruct(cfg, 400)
        for n in range(400):
            quantum_kernel(cfg, n)
        for fn in (*MEMOISED.values(), _step_power):
            info = fn.cache_info()
            assert info.maxsize == MEMO_SIZE and info.currsize == MEMO_SIZE


#: sha256 (``digest_of``) of quantum_kernel(cfg, m) for m = 0..8, per config
#: of MEMO_CONFIGS, recorded when the period-m kernel had a second name.
QUANTUM_KERNEL_SHA256 = {
    "p=0.25,c=0,d=1": "86a0b4340aa6eeb84063450e1139c6e9c3f1b3edc5b7ecaa9a686e422a94f2a7",
    "p=0.25,c=0.707,d=0+0.707j": "068fcde032d89da93f5cbc598b305069af737199ea0287ee04589b246fc0284e",
    "p=0.333,c=0,d=1": "5945c1211848366bfbdccfe8c0d262c39f7609ef3e609965a112c4b6b4b50dfd",
    "p=0.333,c=0.707,d=0+0.707j": "434eaa80dff05f318e77abcd90e804b33c255ce8de3f3953a1ea3f780bbfcb1e",
    "p=0.5,c=0,d=1": "0b0801b950e2eb511d85c6f690102802c3b969bcddf9e34c9b2da2aa67c0a664",
    "p=0.5,c=0.707,d=0+0.707j": "32c6282e835633bfd04f2169f9915792dc8ee9eeb3df48fec7a8633642280e84",
    "p=0.75,c=0,d=1": "5281bf9970d09a2741a044e9e57d89d43764568616101d429422d065f68766df",
    "p=0.75,c=0.707,d=0+0.707j": "a9e779370eb6577a588c6543ff516908bd9e8afab047e4016ffae9f9354159b1",
    "phased,c=0,d=1": "46586afaef616285b36927877bdb319adbe1169ec79f74efa5ea5843fc27bcc5",
    "phased,c=0.707,d=0+0.707j": "6e34ecaa99c5c002253269e28e96bdc8618a151e94030c08b28e717a40c9900f",
}
#: sha256 (``digest_of``) of walk_steps(cfg, "kernel", 60, m) over MEMO_CONFIGS
#: in order, per period m, recorded at the same build.
KERNEL_WALK_SHA256 = {
    1: "897d9d504297bc9733b5b769803bb162a685680e1b834eb3b2c832abe6b387c0",
    2: "88ed3d353c2730128a6efca1f374f81ce7670b033ffc4f6df46a933a7c3b8351",
    3: "5e66c1eb7f58635bd5c9935745c005d66900d82278c04230a0e40b43de649de7",
    5: "39b7efdf3e2a2d4ff499ff647129d82f13e96a1bbd1d1a6f126bb0a98e99a866",
}


class TestKernelLayerDigests:
    @pytest.mark.parametrize("cfg", MEMO_CONFIGS, ids=memo_id)
    def test_quantum_kernels_match_recorded_digests(self, cfg):
        got = digest_of(quantum_kernel(cfg, m) for m in range(9))
        assert got == QUANTUM_KERNEL_SHA256[memo_id(cfg)]

    @pytest.mark.parametrize("m", sorted(KERNEL_WALK_SHA256))
    def test_kernel_walks_match_recorded_digests(self, m):
        got = digest_of(d for cfg in MEMO_CONFIGS for d in walk_steps(cfg, "kernel", 60, m))
        assert got == KERNEL_WALK_SHA256[m]

    @pytest.mark.parametrize("cfg", MEMO_CONFIGS, ids=memo_id)
    def test_period_zero_kernel_is_the_identity(self, cfg):
        # the unit kernel scaled by |c|^2 + |d|^2, which rounds to
        # 0.9999999999999998 for the symmetric state
        k = quantum_kernel(cfg, 0)
        assert (k.support, k.kind) == ((0,), "stochastic")
        assert abs(k.coeff(0) - 1.0) <= 1e-15
