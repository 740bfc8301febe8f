import math
from fractions import Fraction as F

import pytest

import multimeixner.bivariate as bivariate
import multimeixner.multivariate as multivariate
from multimeixner.bivariate import (
    MeixnerSystem,
    check_difference,
    check_duality,
    check_lowering,
    check_orthogonality,
    check_recurrence,
    monic_eval_gf,
    orthonormal_eval,
)
from multimeixner.errors import (
    ModeError,
    NonConvergence,
    NonGenericMatrix,
    PreconditionError,
)
from multimeixner.harness import random_system
from multimeixner.lorentz import boost, compose
from multimeixner.numerics import ScalarMode
from multimeixner.reports import LatticeBox

SMALL_BOX = LatticeBox(max_i=4, max_k=4, max_m=3, max_n=3)


class TestRecurrence:
    @pytest.mark.parametrize("beta", [2, F(5, 2)])
    def test_exact_zero(self, canonical_matrix, beta):
        report = check_recurrence(MeixnerSystem(beta, canonical_matrix), SMALL_BOX)
        assert report.passed
        assert report.max_abs_discrepancy == 0
        assert report.counterexample is None

    def test_seeded_systems(self, seeded_systems):
        for sys2 in seeded_systems:
            assert check_recurrence(sys2, LatticeBox(3, 3, 2, 2)).passed

    def test_mode_guard(self, canonical_beta2_float):
        with pytest.raises(ModeError):
            check_recurrence(canonical_beta2_float, SMALL_BOX)

    def test_simplified_special_case_via_generic_checker(self):
        # the boost-boost matrix collapses several coefficients; the
        # generic checker must still report exact zero there
        lam = compose(boost((2, 3), 2, 2), boost((1, 3), 3, 2))
        sys2 = MeixnerSystem(2, lam)
        assert sys2.u[0][0] == F(25, 16)
        assert sys2.u[0][1] == 0
        assert sys2.u[1][0] == 1
        assert sys2.u[1][1] == F(25, 9)
        assert check_recurrence(sys2, SMALL_BOX).passed


class TestDifference:
    @pytest.mark.parametrize("beta", [2, F(5, 2)])
    def test_exact_zero(self, canonical_matrix, beta):
        report = check_difference(MeixnerSystem(beta, canonical_matrix), SMALL_BOX)
        assert report.passed
        assert report.max_abs_discrepancy == 0

    def test_seeded_systems(self, seeded_systems):
        for sys2 in seeded_systems:
            assert check_difference(sys2, LatticeBox(3, 3, 2, 2)).passed

    def test_boundary_rows_included(self, canonical_beta2):
        # box touching i = 0 and k = 0 exercises the vanishing-coefficient
        # convention; nothing out of range is ever evaluated
        assert check_difference(canonical_beta2, LatticeBox(0, 0, 2, 2)).passed

    def test_interior_zero_rejected_for_nearest_neighbour(self):
        lam = compose(boost((2, 3), 2, 2), boost((1, 3), 3, 2))  # entry (1,2) is 0
        with pytest.raises(NonGenericMatrix):
            check_difference(MeixnerSystem(2, lam), SMALL_BOX)


class TestLowering:
    @pytest.mark.parametrize("beta", [2, 3])
    def test_exact_zero(self, canonical_matrix, beta):
        report = check_lowering(MeixnerSystem(beta, canonical_matrix), SMALL_BOX)
        assert report.passed
        assert report.max_abs_discrepancy == 0

    def test_beta_one_rejected(self, canonical_matrix):
        with pytest.raises(PreconditionError):
            check_lowering(MeixnerSystem(1, canonical_matrix), SMALL_BOX)

    def test_degree_zero_row_is_trivially_zero(self, canonical_beta2):
        assert check_lowering(canonical_beta2, LatticeBox(2, 2, 0, 0)).passed


class TestDuality:
    def test_exact_zero(self, canonical_beta2):
        report = check_duality(canonical_beta2, LatticeBox(3, 3, 3, 3))
        assert report.passed
        assert report.max_abs_discrepancy == 0

    def test_roles_swapped(self, canonical_beta2):
        assert check_duality(canonical_beta2.dual(), LatticeBox(3, 3, 3, 3)).passed

    def test_base_point(self, canonical_beta2):
        dual = canonical_beta2.dual()
        assert monic_eval_gf(canonical_beta2, 0, 0, 0, 0) == 1
        assert monic_eval_gf(dual, 0, 0, 0, 0) == 1

    def test_prefactor_relation_in_float(self, canonical_beta2_float):
        # the orthonormal families of a matrix and its inverse agree up to
        # an explicit signed square-root prefactor
        s = canonical_beta2_float
        L = s.lam.entry
        dual = s.dual()
        beta = s.beta
        for (i, k, m, n) in ((1, 0, 0, 0), (1, 1, 2, 0), (2, 1, 1, 2), (0, 2, 3, 1)):
            lhs = orthonormal_eval(s, i, k, m, n)
            scale = math.sqrt(
                float(
                    bivariate.pochhammer(beta, i + k)
                    / (math.factorial(i) * math.factorial(k))
                    * math.factorial(m)
                    * math.factorial(n)
                    / bivariate.pochhammer(beta, m + n)
                )
            )
            geom = float(
                L(3, 3) ** (m + n)
                * L(3, 1)**i
                * L(3, 2)**k
                / (L(3, 3) ** (i + k) * L(1, 3)**m * L(2, 3)**n)
            )
            rhs = (-1) ** (i + k) * scale * geom * orthonormal_eval(dual, m, n, i, k)
            assert lhs == pytest.approx(rhs, abs=1e-10)


class TestBrokenIdentity:
    """A system whose generating function no longer matches its matrix.

    Shifting u11 (``u[0][0]``) after construction changes every value the
    generating function gives but none of the matrix entries the residuals
    use, so each exact checker must see the identities break.  The
    discrepancies and first counterexamples below are those of the plain
    per-value checkers (one ``monic_eval_gf`` call per residual term).
    """

    BOX = LatticeBox(max_i=2, max_k=2, max_m=2, max_n=2)

    @pytest.mark.parametrize(
        "checker, disc, counter",
        [
            (check_recurrence, F(14611289010237, 371772743680), (0, 0, 1, 0, 0)),
            (check_difference, F(13976902279547, 219703850496), (1, 0, 0, 0, 0)),
            (check_lowering, F(193224563, 13509184), (1, 1, 1, 0, 1)),
            (check_duality, F(479512334357, 59089170816), (1, 0, 1, 0, 0)),
        ],
    )
    def test_tampered_system_fails(self, checker, disc, counter):
        sys2 = random_system(42, 2, 2)
        (u11, u12), row2 = sys2.u
        sys2.u = ((u11 + 1, u12), row2)
        report = checker(sys2, self.BOX)
        assert not report.passed
        assert report.max_abs_discrepancy == disc
        assert report.counterexample == counter


class TestGfTable:
    def test_entries_match_gf_oracle(self):
        # the checkers read one column of integers V per degree, over one
        # denominator per table and in the order of the points: the monic
        # value is V / den
        sys2 = random_system(42, 2, F(7, 3))
        degrees = [(m, n) for m in range(6) for n in range(6 - m)]
        points = [(i, k) for i in range(4) for k in range(5)]
        store = multivariate._store_of(sys2, degrees)
        den, columns = multivariate._gf_values(store, degrees, points)
        assert list(columns) == degrees
        assert isinstance(den, int)
        fresh = random_system(42, 2, F(7, 3))
        for (m, n), column in columns.items():
            assert len(column) == 4 * 5
            for (i, k), value in zip(points, column):
                assert isinstance(value, int)
                assert F(value, den) == monic_eval_gf(fresh, m, n, i, k)
        assert not sys2._gf_cache

    @pytest.mark.parametrize(
        "checker", [check_recurrence, check_difference, check_lowering, check_duality]
    )
    def test_checkers_keep_no_series(self, checker):
        sys2 = random_system(42, 2, F(7, 3))
        assert checker(sys2, LatticeBox(2, 2, 2, 2)).passed
        assert not sys2._gf_cache


class TestOrthonormalRecurrence:
    def test_radical_recurrence_in_float(self, canonical_beta2_float):
        # the orthonormal three-diagonal recurrences carry square roots, so
        # they are checked in float only
        s = canonical_beta2_float
        beta = float(s.beta)
        rows = tuple(tuple(float(s.lam.entry(r, c)) for c in (1, 2, 3)) for r in (1, 2))
        M = lambda m, n, i, k: orthonormal_eval(s, m, n, i, k) if m >= 0 and n >= 0 else 0.0
        for m in range(3):
            for n in range(3):
                for i in range(3):
                    for k in range(3):
                        here = M(m, n, i, k)
                        total = m + n + beta
                        for lhs_var, (a1, a2, a3) in zip((i, k), rows):
                            rhs = (m * a1**2 + n * a2**2 + total * a3**2) * here
                            rhs += a1 * a2 * (
                                math.sqrt(m * (n + 1)) * M(m - 1, n + 1, i, k)
                                + math.sqrt(n * (m + 1)) * M(m + 1, n - 1, i, k)
                            )
                            rhs += a1 * a3 * (
                                math.sqrt(m * (m + n + beta - 1)) * M(m - 1, n, i, k)
                                + math.sqrt((m + 1) * (m + n + beta)) * M(m + 1, n, i, k)
                            )
                            rhs += a2 * a3 * (
                                math.sqrt(n * (m + n + beta - 1)) * M(m, n - 1, i, k)
                                + math.sqrt((n + 1) * (n + m + beta)) * M(m, n + 1, i, k)
                            )
                            assert lhs_var * here == pytest.approx(rhs, abs=1e-10)


class TestOrthogonality:
    def test_gram_identity(self, canonical_beta2_float):
        box = LatticeBox(max_i=0, max_k=0, max_m=2, max_n=2)
        report = check_orthogonality(canonical_beta2_float, box, 1e-8)
        assert report.passed
        assert float(report.max_abs_discrepancy) < 1e-8

    def test_gram_identity_at_benchmark_box(self, canonical_beta2_float):
        # the far shells matter here: a skip rule that looks at the weight
        # alone ends the sum early and misses 1e-8 by four orders
        box = LatticeBox(max_i=0, max_k=0, max_m=4, max_n=4)
        report = check_orthogonality(canonical_beta2_float, box, 1e-8)
        assert report.passed
        assert float(report.max_abs_discrepancy) < 1e-8

    def test_normalization_and_first_offdiagonal(self, canonical_beta2_float):
        box = LatticeBox(max_i=0, max_k=0, max_m=1, max_n=0)
        report = check_orthogonality(canonical_beta2_float, box, 1e-8)
        assert report.passed

    def test_reads_the_coefficients_of_the_float_system(self, canonical_matrix):
        # no exact twin: the coefficients are interpolated from the float
        # system's own generating-function store, up to degree |n| = 2 on
        # the simplex |x| <= 2
        sysf = MeixnerSystem(2, canonical_matrix, ScalarMode.FLOAT)
        check_orthogonality(sysf, LatticeBox(0, 0, 1, 1), 1e-8)
        assert set(sysf._gf_cache) == {(i, k) for i in range(3) for k in range(3 - i)}
        assert all(layers.cutoff == 2 for layers in sysf._gf_cache.values())

    def test_requires_float_mode(self, canonical_beta2):
        with pytest.raises(ModeError):
            check_orthogonality(canonical_beta2, SMALL_BOX, 1e-8)

    def test_shell_cap_raises(self, canonical_beta2_float, monkeypatch):
        monkeypatch.setattr(multivariate, "SHELL_CAP", 3)
        with pytest.raises(NonConvergence):
            check_orthogonality(
                canonical_beta2_float, LatticeBox(0, 0, 1, 1), 1e-12
            )
