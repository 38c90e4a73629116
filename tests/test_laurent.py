import numpy as np
import pytest
from hypothesis import given, strategies as st

from coinwalk.engine import SiteDistribution, WalkConfig, build_step_operator
from coinwalk.kernels import RealKernel
from coinwalk.laurent import E_MINUS, E_PLUS, IDENTITY, TRIM_TOL, CoinBlock, LaurentOperator

ALGEBRA_TOL = 1e-12


def amplitudes():
    return st.complex_numbers(
        min_magnitude=0.0, max_magnitude=4.0, allow_nan=False, allow_infinity=False
    )


def operators():
    from_mapping = st.dictionaries(
        st.integers(min_value=-5, max_value=5), amplitudes(), max_size=6
    ).map(LaurentOperator)
    from_array = st.tuples(
        st.integers(min_value=-5, max_value=5), st.lists(amplitudes(), max_size=6)
    ).map(lambda pair: LaurentOperator((pair[0], np.array(pair[1], dtype=complex))))
    return st.one_of(from_mapping, from_array)


class TestConstruction:
    def test_mapping_and_array_constructors_agree(self):
        mapping = {-2: 1 + 1j, 0: 5e-15, 1: 0.0, 3: -2j}
        window = np.array([1 + 1j, 0, 5e-15, 0.0, 0, -2j])
        a, b = LaurentOperator(mapping), LaurentOperator((-2, window))
        assert list(a.items()) == list(b.items()) == [(-2, 1 + 1j), (3, -2j)]
        assert a.support == b.support == (-2, 3)
        assert len(a) == len(b) == 2
        assert a.distance(b) == 0.0
        assert b.lo == -2 and b.values.size == 6

    def test_trimmed_entries_never_reported(self):
        op = LaurentOperator((4, [TRIM_TOL, 0.5j * TRIM_TOL, 1.0, TRIM_TOL, 2.0, 0.0]))
        assert op.support == (6, 8)
        assert op.coeff(4) == 0j and op.coeff(7) == 0j
        assert (op - op).is_zero and len(op - op) == 0

    @pytest.mark.parametrize("cls", [LaurentOperator, RealKernel])
    @pytest.mark.parametrize("coeffs,degree", [
        ({0: np.nan, 1: 1.0}, 0),
        ((0, [0.5, np.nan, 0.5]), 1),
        ({-1: np.inf, 2: 1.0}, -1),
        ((3, [-np.inf]), 3),
    ], ids=["nan-mapping", "nan-window", "inf-mapping", "inf-window"])
    def test_non_finite_entries_are_kept(self, cls, coeffs, degree):
        # a trimmed NaN would hide from every later check
        seq = cls(coeffs)
        assert [d for d, v in seq.items() if not np.isfinite(v)] == [degree]

    def test_two_dimensional_values_rejected(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            LaurentOperator((0, np.eye(2, dtype=complex)))

    def test_values_are_read_only_copies(self):
        window = np.array([1.0, 2.0], dtype=complex)
        op = LaurentOperator((0, window))
        window[0] = 7.0
        assert op.coeff(0) == 1.0
        with pytest.raises(ValueError):
            op.values[0] = 3.0

    @pytest.mark.parametrize("cls", [LaurentOperator, RealKernel, SiteDistribution])
    @given(data=st.data())
    def test_scalar_check_agrees_with_mask(self, cls, data):
        # the scalar pre-check may only pass windows the mask keeps whole
        pool = [0.0, TRIM_TOL, -TRIM_TOL, 2 * TRIM_TOL, -1e-13, 0.5, -0.25]
        if cls is LaurentOperator:
            pool += [(0.6 + 0.8j) * TRIM_TOL, 1e-14j, 0.5j]
        values = np.array(data.draw(st.lists(st.sampled_from(pool), max_size=8)),
                          dtype=cls.dtype)
        seq = cls.__new__(cls)
        if values.size and seq._clean(values.tolist()):
            keep = seq._kept(0, values)
            assert keep[0] and keep[-1] and keep[values != 0].all()

    def test_numpy_scalar_multiplies_as_operator(self):
        op = np.complex128(2j) * E_PLUS
        assert isinstance(op, LaurentOperator)
        assert list(op.items()) == [(1, 2j)]


class TestAddition:
    def test_disjoint_supports_union(self):
        assert (E_PLUS + E_MINUS).isclose(LaurentOperator({+1: 1, -1: 1}))

    def test_cancellation_gives_zero(self):
        a = LaurentOperator({2: 1.5, -1: 3j})
        assert (a + (-1) * a).is_zero

    def test_same_degree_accumulates(self):
        half = LaurentOperator({0: 0.5})
        assert (half + half).isclose(IDENTITY)

    def test_non_sequence_operands_raise_type_error(self):
        op = LaurentOperator({-1: 0.5, 2: 1.5j})
        with pytest.raises(TypeError):
            op + 1
        with pytest.raises(TypeError):
            op - 1


class TestMultiplication:
    def test_opposite_shifts_give_identity(self):
        assert (E_PLUS * E_MINUS).isclose(IDENTITY)

    def test_shifts_compose(self):
        assert (E_PLUS * E_PLUS).isclose(LaurentOperator({+2: 1}))

    def test_scalar_coefficients_convolve(self):
        p = 0.3
        a = LaurentOperator({+1: np.sqrt(p)})
        b = LaurentOperator({-1: np.sqrt(p)})
        assert (a * b).isclose(LaurentOperator({0: p}))

    @pytest.mark.parametrize("scalar", [
        2, 2.0, 0.5j, 0.3 - 0.7j, np.float32(0.3), np.float64(1.0 / 3.0),
        np.complex64(0.6 + 0.8j), np.complex64(0.3 - 0.7j), np.complex128(0.6 + 0.8j), -0.0,
    ], ids=["int", "2.0", "0.5j", "complex", "float32", "float64", "complex64",
            "complex64-b", "complex128", "-0.0"])
    def test_scalar_on_the_right_equals_scalar_on_the_left(self, scalar):
        # one rule for every scalar kind: Python's complex product per coefficient
        rng = np.random.default_rng(3)
        values = rng.standard_normal(41) + 1j * rng.standard_normal(41)
        values[1:6] = [complex(-0.0, 1.0), complex(1.0, -0.0), -0.5, 0j, complex(-0.0, -0.0)]
        op = LaurentOperator((-20, values))
        want = LaurentOperator((op.lo, [complex(scalar) * x for x in op.values.tolist()]))
        for got in (op * scalar, scalar * op):
            assert (got.lo, got.values.tobytes()) == (want.lo, want.values.tobytes())

    @given(operators(), operators())
    def test_commutative(self, a, b):
        assert (a * b).distance(b * a) <= 1e-9 * (1 + _scale(a) * _scale(b))


class TestAdjoint:
    def test_shift_adjoint(self):
        assert E_PLUS.adjoint().isclose(E_MINUS)

    def test_conjugates_coefficients(self):
        assert LaurentOperator({0: 1j}).adjoint().isclose(LaurentOperator({0: -1j}))

    @given(operators())
    def test_involution(self, a):
        assert a.adjoint().adjoint().distance(a) == 0.0

    @given(operators())
    def test_normality(self, a):
        # polynomials in commuting shifts commute with their adjoints
        lhs = a * a.adjoint()
        rhs = a.adjoint() * a
        assert lhs.distance(rhs) <= 1e-9 * (1 + _scale(a) ** 2)


class TestHadamardConj:
    def test_self_product_is_modulus_squared(self):
        a = LaurentOperator({-1: 1 + 2j, 3: -0.5j})
        got = a.hadamard_conj(a)
        assert got.isclose(LaurentOperator({-1: 5.0, 3: 0.25}))

    def test_disjoint_supports_vanish(self):
        assert E_PLUS.hadamard_conj(E_MINUS).is_zero

    @given(operators(), operators())
    def test_rounds_like_the_scalar_product_with_the_conjugate(self, a, b):
        lo = max(a.lo, b.lo)
        hi = min(a.lo + a.values.size, b.lo + b.values.size)
        want = LaurentOperator((lo, [a[k] * b[k].conjugate() for k in range(lo, hi)]))
        got = a.hadamard_conj(b)
        assert (got.lo, got.values.tobytes()) == (want.lo, want.values.tobytes())

    def test_matches_dense_entrywise_product(self):
        rng = np.random.default_rng(7)
        window = range(-3, 4)
        for _ in range(20):
            a = _random_op(rng)
            b = _random_op(rng)
            got = a.hadamard_conj(b).to_dense(window)
            want = a.to_dense(window) * np.conj(b.to_dense(window))
            assert np.max(np.abs(got - want)) <= ALGEBRA_TOL


class TestToDense:
    def test_identity_window(self):
        assert np.array_equal(IDENTITY.to_dense(range(-1, 2)), np.eye(3))

    def test_shift_window(self):
        got = E_PLUS.to_dense(range(0, 2))
        assert np.array_equal(got, np.array([[0, 0], [1, 0]]))

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            IDENTITY.to_dense([])

    def test_product_agrees_with_dense_interior(self):
        rng = np.random.default_rng(11)
        wide = range(-12, 13)
        for _ in range(10):
            a = _random_op(rng)
            b = _random_op(rng)
            dense = a.to_dense(wide) @ b.to_dense(wide)
            exact = (a * b).to_dense(wide)
            # interior rows are unaffected by window truncation
            assert np.max(np.abs(dense[6:-6] - exact[6:-6])) <= 1e-10


class TestCoinBlock:
    def test_power_zero_is_identity(self):
        v = build_step_operator(WalkConfig.symmetric())
        w = v.power(0)
        assert w[0, 0].isclose(IDENTITY) and w[1, 1].isclose(IDENTITY)
        assert w[0, 1].is_zero and w[1, 0].is_zero

    def test_power_one_matches_direct_expansion(self):
        p = 0.3
        v = build_step_operator(WalkConfig(c=1.0, d=0.0, p=p)).power(1)
        sp, sq = np.sqrt(p), np.sqrt(1 - p)
        assert v[0, 0].isclose(LaurentOperator({+1: sp}), ALGEBRA_TOL)
        assert v[0, 1].isclose(LaurentOperator({+1: sq}), ALGEBRA_TOL)
        assert v[1, 0].isclose(LaurentOperator({-1: sq}), ALGEBRA_TOL)
        assert v[1, 1].isclose(LaurentOperator({-1: -sp}), ALGEBRA_TOL)

    def test_power_two_top_left(self):
        p = 0.3
        v = build_step_operator(WalkConfig(c=1.0, d=0.0, p=p))
        got = v.power(2)[0, 0]
        # one block multiplication by hand: alpha^2 = p E+^2 + (1-p) 1
        assert got.isclose(LaurentOperator({+2: p, 0: 1 - p}), ALGEBRA_TOL)

    def test_non_operator_entry_rejected(self):
        with pytest.raises(TypeError, match="LaurentOperators"):
            CoinBlock(((IDENTITY, 0.0), (0.0, IDENTITY)))

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            build_step_operator(WalkConfig.symmetric()).power(-1)

    def test_product_with_a_non_block_raises_type_error(self):
        with pytest.raises(TypeError):
            build_step_operator(WalkConfig.symmetric()) @ 1

    @pytest.mark.parametrize("p", [0.0, 0.25, 1.0 / 3.0, 0.5, 0.75, 1.0])
    def test_step_operator_unitary(self, p):
        v = build_step_operator(WalkConfig(c=0.0, d=1.0, p=p))
        assert _unitarity_defect(v) <= ALGEBRA_TOL

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_powers_stay_unitary(self, n):
        v = build_step_operator(WalkConfig.symmetric()).power(n)
        assert _unitarity_defect(v) <= ALGEBRA_TOL


def _unitarity_defect(v: CoinBlock) -> float:
    """Max coefficient deviation of V V-dagger from the identity block."""
    return max(
        (v[r, 0] * v[c, 0].adjoint() + v[r, 1] * v[c, 1].adjoint())
        .distance(IDENTITY if r == c else LaurentOperator())
        for r in (0, 1) for c in (0, 1)
    )


def _random_op(rng, max_terms=3):
    degrees = rng.choice(np.arange(-3, 4), size=max_terms, replace=False)
    return LaurentOperator(
        {int(d): complex(*rng.standard_normal(2)) for d in degrees}
    )


def _scale(a):
    return max((abs(v) for _, v in a.items()), default=0.0)
