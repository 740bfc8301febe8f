from fractions import Fraction as F

import pytest

from multimeixner.bivariate import MeixnerSystem, monic_eval_gf, weight
from multimeixner.errors import ModeError, NonGenericMatrix
from multimeixner.harness import random_matrix
from multimeixner.lorentz import boost, identity
from multimeixner.multivariate import (
    MeixnerSystemD,
    check_difference_d,
    check_duality_d,
    check_lowering_d,
    check_orthogonality_d,
    check_recurrence_d,
    monic_eval_gf_d,
    monic_eval_raising_d,
    weight_d,
)
from multimeixner.numerics import ScalarMode
from multimeixner.univariate import meixner

D3_SEED = 7


@pytest.fixture(scope="module")
def system_d3():
    return MeixnerSystemD(2, random_matrix(D3_SEED, 3, 5))


@pytest.fixture(scope="module")
def system_d3_float():
    return MeixnerSystemD(2, random_matrix(D3_SEED, 3, 5), ScalarMode.FLOAT)


class TestConstruction:
    def test_rejects_non_generic(self):
        with pytest.raises(NonGenericMatrix):
            MeixnerSystemD(2, identity(3))

    def test_weight_parameters_inside_simplex(self, system_d3):
        assert all(ci > 0 for ci in system_d3.c)
        assert sum(system_d3.c) < 1


class TestWeight:
    def test_base_point(self, system_d3):
        assert weight_d(system_d3, (0, 0, 0)) == (1 - sum(system_d3.c)) ** 2

    def test_reduces_to_bivariate(self):
        lam = random_matrix(23, 2, 4)
        sysd = MeixnerSystemD(2, lam)
        sys2 = MeixnerSystem(2, lam)
        for i in range(5):
            for k in range(5):
                assert weight_d(sysd, (i, k)) == weight(sys2, i, k)

    def test_partial_sums_reach_one(self, system_d3_float):
        total = sum(
            weight_d(system_d3_float, (a, b, c))
            for a in range(61)
            for b in range(61 - a)
            for c in range(61 - a - b)
        )
        assert abs(total - 1.0) < 1e-10

    def test_positivity_and_monotone_growth(self, system_d3_float):
        partial = 0.0
        previous = -1.0
        for total_degree in range(6):
            layer = [
                (a, b, total_degree - a - b)
                for a in range(total_degree + 1)
                for b in range(total_degree + 1 - a)
            ]
            for x in layer:
                value = weight_d(system_d3_float, x)
                assert value > 0
            partial += sum(weight_d(system_d3_float, x) for x in layer)
            assert partial > previous
            previous = partial

    def test_exact_needs_integer_beta(self):
        sysd = MeixnerSystemD(F(5, 2), random_matrix(D3_SEED, 3, 5))
        with pytest.raises(ModeError):
            weight_d(sysd, (0, 0, 0))


class TestGeneratingFunctionRoute:
    def test_degree_zero(self, system_d3):
        assert monic_eval_gf_d(system_d3, (0, 0, 0), (2, 1, 3)) == 1

    def test_origin_gives_one_for_every_degree(self, system_d3):
        for n in ((1, 0, 0), (0, 2, 1), (3, 0, 0), (1, 1, 1)):
            assert monic_eval_gf_d(system_d3, n, (0, 0, 0)) == 1

    def test_reduces_to_bivariate(self):
        lam = random_matrix(23, 2, 4)
        sysd = MeixnerSystemD(2, lam)
        sys2 = MeixnerSystem(2, lam)
        for m in range(5):
            for n in range(5 - m):
                for i in range(5):
                    for k in range(5):
                        assert monic_eval_gf_d(sysd, (m, n), (i, k)) == monic_eval_gf(
                            sys2, m, n, i, k
                        )


class TestRaisingRoute:
    def test_degree_zero(self, system_d3):
        assert monic_eval_raising_d(system_d3, (0, 0, 0), (1, 2, 0)) == 1

    def test_agrees_with_oracle_d3(self, system_d3):
        degrees = [
            (a, b, c)
            for a in range(4)
            for b in range(4 - a)
            for c in range(4 - a - b)
        ]
        for n in degrees:
            for x in ((0, 0, 0), (1, 0, 2), (2, 2, 1), (3, 3, 3), (0, 3, 0)):
                assert monic_eval_raising_d(system_d3, n, x) == monic_eval_gf_d(
                    system_d3, n, x
                )

    def test_agrees_for_non_integer_beta(self):
        sysd = MeixnerSystemD(F(7, 3), random_matrix(13, 3, 5))
        for n in ((1, 0, 1), (2, 1, 0)):
            for x in ((1, 1, 1), (2, 0, 3)):
                assert monic_eval_raising_d(sysd, n, x) == monic_eval_gf_d(sysd, n, x)

    def test_d1_reduces_to_univariate_meixner(self):
        lam = boost((1, 2), 3, 1)
        sysd = MeixnerSystemD(2, lam)
        c = (lam.entry(1, 2) / lam.entry(2, 2)) ** 2
        for n in range(7):
            for x in range(7):
                assert monic_eval_raising_d(sysd, (n,), (x,)) == meixner(n, x, 2, c)

    def test_bad_multi_index_rejected(self, system_d3):
        with pytest.raises(ValueError):
            monic_eval_raising_d(system_d3, (1, 0), (0, 0, 0))
        with pytest.raises(ValueError):
            monic_eval_raising_d(system_d3, (1, 0, 0), (0, -1, 0))


class TestOrthogonality:
    def test_degree_zero_normalization(self, system_d3_float):
        report = check_orthogonality_d(system_d3_float, 0, 1e-8)
        assert report.passed

    def test_gram_identity(self, system_d3_float):
        report = check_orthogonality_d(system_d3_float, 2, 1e-7)
        assert report.passed
        assert float(report.max_abs_discrepancy) < 1e-7

    def test_matches_bivariate_checker(self):
        from multimeixner.bivariate import check_orthogonality
        from multimeixner.reports import LatticeBox

        lam = random_matrix(23, 2, 4)
        rep_d = check_orthogonality_d(MeixnerSystemD(2, lam, ScalarMode.FLOAT), 1, 1e-8)
        rep_2 = check_orthogonality(
            MeixnerSystem(2, lam, ScalarMode.FLOAT),
            LatticeBox(max_i=0, max_k=0, max_m=1, max_n=1),
            1e-8,
        )
        assert rep_d.passed and rep_2.passed

    def test_requires_float_mode(self, system_d3):
        with pytest.raises(ModeError):
            check_orthogonality_d(system_d3, 1, 1e-8)


IDENTITY_CHECKERS = [check_recurrence_d, check_difference_d, check_lowering_d, check_duality_d]


class TestIdentityCheckers:
    @pytest.mark.parametrize("seed, beta", [(7, 2), (31, F(7, 3))])
    def test_exact_zero_d3(self, seed, beta):
        sys3 = MeixnerSystemD(beta, random_matrix(seed, 3))
        for checker in IDENTITY_CHECKERS:
            report = checker(sys3, (2, 2, 1), (1, 2, 2))
            assert report.max_abs_discrepancy == 0
            assert report.passed

    def test_tampered_system_fails_d3(self):
        # shifting u[0][0] changes the generating function but no matrix entry
        sys3 = MeixnerSystemD(2, random_matrix(7, 3))
        (u00, *row0), *rows = sys3.u
        sys3.u = ((u00 + 1, *row0), *rows)
        for checker in IDENTITY_CHECKERS:
            report = checker(sys3, (1, 1, 1), (1, 1, 1))
            assert report.max_abs_discrepancy != 0
            assert not report.passed
            assert len(report.counterexample) == 7
