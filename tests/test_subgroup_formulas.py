from fractions import Fraction as F

import pytest

import multimeixner.multivariate as multivariate
from multimeixner.bivariate import (
    MeixnerSystem,
    check_addition,
    elliptic_me,
    factorized_eval,
    general_sum_eval,
    hyperbolic_me_psi,
    hyperbolic_me_xi,
    me_evaluator,
    monic_eval_gf,
    monic_eval_raising,
)
from multimeixner.errors import NonConvergence, NonGenericMatrix, PreconditionError
from multimeixner.harness import (
    addition_tuples,
    elliptic_block_deviation,
    hyperbolic_column_norm,
)
from multimeixner.lorentz import boost, compose, rotation
from multimeixner.univariate import meixner


class TestHyperbolicElements:
    def test_delta_on_second_index(self):
        assert hyperbolic_me_xi(2, 2, 3, 1, 2, 0) == 0.0

    def test_base_value_is_cosh_power(self):
        # i = m = 0, k = n: only the cosh factor survives
        t = F(2)
        ch = float((t + 1 / t) / 2)
        got = hyperbolic_me_xi(2, t, 0, 3, 0, 3)
        assert got == pytest.approx(ch ** (-3 - 2), rel=1e-15)

    def test_psi_mirror(self):
        assert hyperbolic_me_psi(2, 2, 3, 1, 1, 1) == 0.0
        t = F(2)
        ch = float((t + 1 / t) / 2)
        assert hyperbolic_me_psi(2, t, 2, 0, 2, 0) == pytest.approx(
            ch ** (-2 - 2), rel=1e-15
        )

    @pytest.mark.parametrize("first_axis", [True, False])
    @pytest.mark.parametrize("degrees", [(0, 0), (2, 1), (1, 3)])
    def test_column_norms(self, first_axis, degrees):
        m, n = degrees
        norm = hyperbolic_column_norm(2, F(2), m, n, first_axis, 1e-8)
        assert norm == pytest.approx(1.0, abs=1e-8)

    def test_column_norm_stops_at_the_shell_cap(self, monkeypatch):
        monkeypatch.setattr(multivariate, "SHELL_CAP", 5)
        with pytest.raises(NonConvergence):
            hyperbolic_column_norm(2, F(2), 1, 0, True, 1e-8)

    def test_trivial_parameter_rejected(self):
        with pytest.raises(PreconditionError):
            hyperbolic_me_xi(2, 1, 0, 0, 0, 0)


class TestEllipticElements:
    def test_level_mismatch_vanishes(self):
        assert elliptic_me(2, F(1, 2), 1, 2, 1, 1) == 0.0

    def test_base_point(self):
        assert elliptic_me(2, F(1, 2), 0, 0, 0, 0) == 1.0

    def test_level_blocks_orthogonal(self):
        for level in range(5):
            assert elliptic_block_deviation(2, F(1, 2), level) < 1e-10

    def test_degenerate_parameters_rejected(self):
        with pytest.raises(PreconditionError):
            elliptic_me(2, 0, 0, 0, 0, 0)
        with pytest.raises(PreconditionError):
            elliptic_me(2, 1, 1, 1, 1, 1)


class TestFactorizedForm:
    def test_base_point(self):
        assert factorized_eval(2, 3, 2, 0, 0, 4, 1) == 1

    def test_single_axis_degree_collapses_to_univariate(self):
        t_xi = F(3)
        th2 = ((t_xi - 1 / t_xi) / (t_xi + 1 / t_xi)) ** 2
        for m in range(4):
            for i in range(4):
                assert factorized_eval(2, t_xi, 2, m, 0, i, 5) == meixner(m, i, 2, th2)

    def test_matches_oracle_on_product_matrix(self):
        lam = compose(boost((2, 3), 2, 2), boost((1, 3), 3, 2))
        sys2 = MeixnerSystem(2, lam)
        for m in range(4):
            for n in range(4 - m):
                for i in range(5):
                    for k in range(5):
                        assert factorized_eval(2, 3, 2, m, n, i, k) == monic_eval_gf(
                            sys2, m, n, i, k
                        )

    def test_requires_boost_parameters_above_one(self):
        with pytest.raises(PreconditionError):
            factorized_eval(2, F(1, 2), 2, 0, 0, 0, 0)


class TestGeneralClosedForm:
    def test_base_point(self):
        assert general_sum_eval(2, F(1, 2), 2, F(2, 3), 0, 0, 0, 0) == 1

    def test_matches_oracle(self, canonical_beta2):
        for m in range(3):
            for n in range(3 - m):
                for i in range(4):
                    for k in range(4):
                        assert general_sum_eval(
                            2, F(1, 2), 2, F(2, 3), m, n, i, k
                        ) == monic_eval_gf(canonical_beta2, m, n, i, k)

    def test_duality_is_manifest(self):
        # swapping degrees and variables equals swapping to the inverse
        # parameters (-s_theta, 1/t, -s_chi)
        beta, s_chi, t_psi, s_theta = 2, F(1, 2), F(2), F(2, 3)
        for (m, n, i, k) in ((1, 0, 2, 1), (2, 1, 0, 3), (1, 1, 1, 1), (0, 2, 3, 0)):
            lhs = general_sum_eval(beta, s_chi, t_psi, s_theta, i, k, m, n)
            rhs = general_sum_eval(beta, -s_theta, 1 / t_psi, -s_chi, m, n, i, k)
            assert lhs == rhs

    def test_agrees_with_monic_duality(self, canonical_beta2):
        dual = canonical_beta2.dual()
        for (m, n, i, k) in ((1, 0, 2, 1), (2, 1, 1, 2)):
            assert general_sum_eval(
                2, -F(2, 3), F(1, 2), -F(1, 2), m, n, i, k
            ) == monic_eval_raising(dual, m, n, i, k)

    def test_degenerate_parameters_rejected(self):
        with pytest.raises(PreconditionError):
            general_sum_eval(2, 0, 2, F(2, 3), 0, 0, 0, 0)
        with pytest.raises(PreconditionError):
            general_sum_eval(2, F(1, 2), 1, F(2, 3), 0, 0, 0, 0)


class TestAddition:
    def test_pattern_times_pattern(self):
        A = compose(rotation((1, 2), F(1, 2), 2), boost((2, 3), 2, 2))
        B = rotation((1, 2), F(2, 3), 2)
        report = check_addition(A, B, 2, 1, 1, 1, 0, 1e-8)
        assert report.passed

    def test_base_point_reduces_to_amplitude_composition(self):
        A = compose(rotation((1, 2), F(1, 2), 2), boost((2, 3), 2, 2))
        B = rotation((1, 2), F(2, 3), 2)
        report = check_addition(A, B, 2, 0, 0, 0, 0, 1e-8)
        assert report.passed
        C = compose(A, B)
        lhs = me_evaluator(F(2), C)(0, 0, 0, 0)
        assert lhs == pytest.approx(float(C.entry(3, 3)) ** -2.0, abs=1e-12)

    def test_generic_times_generic(self, seeded_systems):
        A = seeded_systems[0].lam
        B = seeded_systems[1].lam
        report = check_addition(A, B, 2, 1, 2, 1, 1, 1e-8)
        assert report.passed

    def test_non_integer_beta(self, seeded_systems):
        report = check_addition(
            seeded_systems[0].lam, seeded_systems[2].lam, F(7, 3), 2, 0, 1, 2, 1e-8
        )
        assert report.passed

    def test_degenerate_factor_rejected(self):
        # boost-then-rotation has a zero in the last column and matches no
        # closed-form pattern
        B = compose(boost((1, 3), 2, 2), rotation((1, 2), F(1, 2), 2))
        A = compose(rotation((1, 2), F(1, 2), 2), boost((2, 3), 2, 2))
        with pytest.raises(NonGenericMatrix):
            check_addition(A, B, 2, 0, 0, 0, 0, 1e-8)

    def test_seeded_tuples(self):
        for (A, B, i, k, m, n) in addition_tuples(99, 3):
            assert check_addition(A, B, 2, i, k, m, n, 1e-8).passed


class TestEvaluatorDispatch:
    def test_identity(self):
        from multimeixner.lorentz import identity

        ev = me_evaluator(2, identity(2))
        assert ev(1, 2, 1, 2) == 1.0
        assert ev(1, 2, 2, 1) == 0.0

    def test_pattern_matches_generic_recursion(self):
        # a dense matrix close to a pure boost: both paths must agree
        lam = compose(boost((2, 3), 2, 2), boost((1, 3), 3, 2))
        ev = me_evaluator(2, lam)
        sys2 = MeixnerSystem(2, lam, "float")
        from multimeixner.bivariate import matrix_element

        for (i, k, m, n) in ((0, 0, 0, 0), (1, 2, 1, 0), (2, 1, 0, 2), (3, 0, 2, 2)):
            assert ev(i, k, m, n) == pytest.approx(
                matrix_element(sys2, i, k, m, n), rel=1e-10, abs=1e-12
            )

    def test_pure_boost_uses_closed_form(self):
        lam = boost((1, 3), 2, 2)
        ev = me_evaluator(2, lam)
        assert ev(1, 2, 1, 1) == 0.0  # Kronecker delta on the second index
        assert ev(0, 1, 0, 1) == pytest.approx(hyperbolic_me_xi(2, 2, 0, 1, 0, 1))

    def test_pure_rotation_uses_closed_form(self):
        lam = rotation((1, 2), F(1, 2), 2)
        ev = me_evaluator(2, lam)
        assert ev(1, 1, 2, 1) == 0.0  # level mismatch
        assert ev(1, 1, 2, 0) == pytest.approx(elliptic_me(2, F(1, 2), 1, 1, 2, 0))
