import hashlib
import math

import numpy as np
import pytest

from coinwalk.analysis import Verdict, compare_majorization
from coinwalk.engine import (
    NumericalError,
    SiteDistribution,
    WalkConfig,
    cp_walk,
    global_distribution,
    global_trajectory,
)
from coinwalk.kernels import (
    SHIFT_DIFFERENCE,
    IncompatibleCoinError,
    RealKernel,
    binomial_solution,
    classical_kernel,
    delayed_kernel,
    kernel_walk,
    mixing_matrix,
    phi_matrix,
    prompt_distribution,
    prompt_trajectory,
    pseudo_memory_reconstruct,
    quantum_kernel,
    reshuffling_matrix,
)
from coinwalk.laurent import IDENTITY, LaurentOperator

from conftest import COIN_INITS, P_GRID


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
        with pytest.raises(TypeError):
            RealKernel.identity() + IDENTITY
        with pytest.raises(TypeError):
            RealKernel.identity() * IDENTITY
        with pytest.raises(TypeError):
            RealKernel.identity().convolve(IDENTITY)

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

    @pytest.mark.parametrize("cd", COIN_INITS)
    def test_period_one_is_the_one_step_quantum_kernel(self, cd):
        # the kernel scheme builds both m = 1 and m > 1 through delayed_kernel
        cfg = WalkConfig(c=cd[0], d=cd[1], p=1.0 / 3.0)
        assert list(delayed_kernel(cfg, 1).items()) == list(quantum_kernel(cfg, 1).items())

    def test_phi_depends_only_on_sum_difference_moduli(self):
        phi_a = phi_matrix(WalkConfig.symmetric())
        phi_b = phi_matrix(WalkConfig(c=1.0, d=0.0, p=0.5))
        assert phi_a.distance(phi_b) < 1e-12

    def test_delayed_kernel_symmetric_half(self, symmetric):
        k = delayed_kernel(symmetric)
        for deg, val in {2: 0.25, 0: 0.5, -2: 0.25}.items():
            assert k.coeff(deg) == pytest.approx(val, abs=1e-12)

    @pytest.mark.parametrize("p", P_GRID)
    @pytest.mark.parametrize("cd", COIN_INITS)
    def test_delayed_kernel_decomposition(self, p, cd):
        cfg = WalkConfig(c=cd[0], d=cd[1], p=p)
        recomposed = classical_kernel(p) + phi_matrix(cfg)
        assert delayed_kernel(cfg).distance(recomposed) < 1e-12
        assert abs(delayed_kernel(cfg).coefficient_sum - 1.0) < 1e-12

    def test_phi_commutes_with_classical_kernel(self, symmetric):
        phi = phi_matrix(symmetric)
        delta_c = classical_kernel(0.5)
        assert phi.convolve(delta_c).distance(delta_c.convolve(phi)) < 1e-14


class TestKernelWalk:
    def test_delayed_two_steps(self, symmetric):
        walk = kernel_walk(delayed_kernel(symmetric), 2)
        want = {-4: 1 / 16, -2: 4 / 16, 0: 6 / 16, 2: 4 / 16, 4: 1 / 16}
        for site, prob in want.items():
            assert walk[2][site] == pytest.approx(prob, abs=1e-12)

    def test_identity_kernel_constant(self):
        walk = kernel_walk(RealKernel.identity(), 5)
        assert all(d.support == (0,) for d in walk)

    def test_classical_two_steps_binomial(self):
        walk = kernel_walk(classical_kernel(0.5), 2)
        assert walk[2][0] == pytest.approx(0.5, abs=1e-12)

    def test_unflagged_kernel_rejected(self):
        with pytest.raises(ValueError):
            kernel_walk(RealKernel({0: 1.0}), 2)

    def test_majorization_chain(self, symmetric):
        walk = kernel_walk(delayed_kernel(symmetric), 30)
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
        prompt = prompt_trajectory(cfg, 60)
        delayed = kernel_walk(delayed_kernel(cfg, 1), 60)
        assert len(prompt) == len(delayed) == 61
        one_step = prompt[1].distance(delayed[1])
        assert one_step <= 1e-15
        for n, (got, want) in enumerate(zip(prompt, delayed)):
            assert got.distance(want) <= 1e-15 + n * 2 * one_step

    @pytest.mark.parametrize("n", [0, 1, 2, 25])
    def test_prompt_distribution_is_last_trajectory_step(self, n):
        cfg = WalkConfig(c=0.6, d=0.8j, p=1.0 / 3.0)
        dist = prompt_distribution(cfg, n)
        last = prompt_trajectory(cfg, n)[-1]
        assert dist.lo == last.lo
        assert dist.values.tobytes() == last.values.tobytes()

    def test_negative_prompt_steps_rejected(self, symmetric):
        with pytest.raises(ValueError, match="nonnegative"):
            prompt_distribution(symmetric, -1)


#: sha256 over n = 0..21 of ``repr(lo)`` and ``values.tobytes()`` of
#: ``binomial_solution(cfg, n)``, recorded from a build that raised each
#: kernel power by its own convolution loop.
BINOMIAL_SHA256 = {
    "c=0,d=1,p=0.25": "49247c36f3c413ae503288d4c8c6c5dcd9175cf41861e8f4b92a98f5973e280d",
    "symmetric,p=0.25": "ed4cdc18d46b7ca5417eb71e4e0f3d04d587aa4c2b940e66434cb5e3d2474a77",
    "c=0,d=1,p=0.5": "e2dd13784a48622d219bd8cf183b17c4c8ba344b329ca00a33c7195d37e6cc86",
    "symmetric,p=0.5": "11c8eafa28494e5693897c04604da7f1c5c07d61b00e5cfb5f10dcfe75b6da7f",
}


class TestBinomialSolution:
    def test_one_step_is_delayed_kernel(self, symmetric):
        got = binomial_solution(symmetric, 1)
        want = delayed_kernel(symmetric).apply_distribution(SiteDistribution.delta())
        assert got.distance(want) < 1e-10

    def test_zero_steps_delta(self, symmetric):
        assert binomial_solution(symmetric, 0).support == (0,)

    @pytest.mark.parametrize("n", [2, 3, 7, 12])
    def test_matches_iterated_kernel_walk(self, symmetric, n):
        walk = kernel_walk(delayed_kernel(symmetric), n)
        assert binomial_solution(symmetric, n).distance(walk[n]) < 1e-10

    @pytest.mark.parametrize("n", [17, 21])
    def test_cancellation_noise_beyond_sixteen_steps_is_returned(self, symmetric, n):
        # the total drifts past 1e-9 from n = 17; the tolerance follows the
        # rounding bound of the sum, so the noisy distribution comes back
        walk = kernel_walk(delayed_kernel(symmetric), n)
        assert 1e-10 < binomial_solution(symmetric, n).distance(walk[n]) < 1e-6

    @pytest.mark.parametrize("key", sorted(BINOMIAL_SHA256))
    def test_steps_up_to_21_match_recorded_digests(self, key):
        # the kernel powers are built incrementally, each the previous power
        # convolved with the base; the bytes must stay those of one
        # convolution loop per power
        coin, p = key.split(",p=")
        p = float(p)
        cfg = WalkConfig.symmetric(p) if coin == "symmetric" else WalkConfig(c=0.0, d=1.0, p=p)
        digest = hashlib.sha256()
        for n in range(22):
            dist = binomial_solution(cfg, n)
            digest.update(repr(dist.lo).encode())
            digest.update(dist.values.tobytes())
        assert digest.hexdigest() == BINOMIAL_SHA256[key]


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
        trajectory = global_trajectory(cfg, 12)
        for n in range(1, 13):
            got = pseudo_memory_reconstruct(cfg, n)
            assert got.distance(trajectory[n]) < 1e-10

    def test_incompatible_coin_reported(self):
        cfg = WalkConfig(c=1.0, d=0.0, p=0.25)
        with pytest.raises(IncompatibleCoinError) as err:
            pseudo_memory_reconstruct(cfg, 3)
        assert err.value.measured_right == pytest.approx(0.25, abs=1e-12)
        assert err.value.expected_right == pytest.approx(0.75, abs=1e-12)


class TestKernelCpDivergence:
    def test_agree_through_first_step_then_diverge(self, symmetric):
        walk = kernel_walk(delayed_kernel(symmetric), 2)
        cp = [rho.diagonal() for rho in cp_walk(symmetric, 2, 2)]
        assert walk[0].total_variation(cp[0]) < 1e-12
        assert walk[1].total_variation(cp[1]) < 1e-12
        assert walk[2].total_variation(cp[2]) > 1e-6
