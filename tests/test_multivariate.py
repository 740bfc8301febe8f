import itertools
import math
import time
from fractions import Fraction as F

import pytest

from multimeixner import harness
from multimeixner.bivariate import MeixnerSystem, monic_eval_gf, weight
from multimeixner.cli import main
from multimeixner.errors import ModeError, NonConvergence, NonGenericMatrix
from multimeixner.harness import random_matrix, random_system
from multimeixner.lorentz import boost, identity
from multimeixner.multivariate import (
    MeixnerSystemD,
    _simplex_lattice,
    check_difference_d,
    check_duality_d,
    check_lowering_d,
    check_orthogonality_d,
    check_recurrence_d,
    monic_eval_gf_d,
    monic_eval_raising_d,
    monic_poly_coeffs_d,
    weight_d,
)
from multimeixner.numerics import (
    ScalarMode,
    pochhammer,
    series_geom_pow,
    series_mul,
    solve_linear_system,
)
from multimeixner.reports import LatticeBox, lattice
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

    def test_float_matches_exact_at_a_moderate_point(self, system_d3, system_d3_float):
        x = (20, 15, 10)
        assert weight_d(system_d3_float, x) == pytest.approx(
            float(weight_d(system_d3, x)), rel=1e-12
        )

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

    @pytest.mark.parametrize("d, factors", [(2, 4), (3, 5)])
    def test_one_normalisation_reads_the_store_rising_table(self, d, factors):
        # beta = 7/3 puts q = 3 into the rising products the store and the
        # raising route share
        sysd = MeixnerSystemD(F(7, 3), random_matrix(13, d, factors))
        fresh = MeixnerSystemD(F(7, 3), random_matrix(13, d, factors))
        degrees = [n for n in sorted(lattice((3,) * d)) if sum(n) <= 4]
        points = [x for x in sorted(lattice((2,) * d)) if sum(x) <= 3]
        for n in degrees:
            for x in points:
                assert monic_eval_raising_d(sysd, n, x) == monic_eval_gf_d(fresh, n, x)
        store = sysd._gf_cache
        assert len(store._rising) == 5 and not store  # filled by the raising route alone

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


def _first_coordinate_simplex(total, d):
    """The simplex lattice by first coordinate, then the rest recursively."""
    if d == 1:
        return [(t,) for t in range(total + 1)]
    return [
        (first,) + rest
        for first in range(total + 1)
        for rest in _first_coordinate_simplex(total - first, d - 1)
    ]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_simplex_lattice_is_graded(d):
    for total in range(5):
        graded = sorted(_first_coordinate_simplex(total, d), key=lambda mono: (sum(mono), mono))
        assert list(_simplex_lattice(total, d)) == graded


class TestPolyCoeffs:
    """The forward-difference coefficients against a Vandermonde solve on
    the simplex and against the generating function off it."""

    @pytest.mark.parametrize("beta", [2, F(7, 3)], ids=["2", "7/3"])
    @pytest.mark.parametrize("d, top", [(1, 6), (2, 6), (3, 3)])
    def test_coefficients_match_vandermonde_solve(self, d, top, beta):
        system = random_system(D3_SEED, d, beta, max(d, 4))
        nodes = sorted(_simplex_lattice(top, d))
        far = [tuple(top + 1 + 2 * i + j for i in range(d)) for j in range(3)]
        for n in nodes:
            coeffs = monic_poly_coeffs_d(system, n)
            monos = sorted(_simplex_lattice(sum(n), d))
            rows = [[math.prod(map(pow, x, mono)) for mono in monos] for x in monos]
            solution = solve_linear_system(rows, [monic_eval_gf_d(system, n, x) for x in monos])
            assert list(coeffs.items()) == [(mono, c) for mono, c in zip(monos, solution) if c]
            for x in far:
                value = sum(c * math.prod(map(pow, x, mono)) for mono, c in coeffs.items())
                assert value == monic_eval_gf_d(system, n, x)


class TestOrthogonality:
    def test_degree_zero_normalization(self, system_d3_float):
        report = check_orthogonality_d(system_d3_float, 0, 1e-8)
        assert report.passed

    def test_gram_identity(self, system_d3_float):
        report = check_orthogonality_d(system_d3_float, 2, 1e-7)
        assert report.passed
        assert float(report.max_abs_discrepancy) < 1e-7

    def test_slow_tail_sums_until_the_shell_change_is_small(self):
        # 1 - sum(c) = 0.079: single points stay below tol/100 on shells
        # whose total still moves the Gram matrix by more than that
        sysf = MeixnerSystemD(2, random_matrix(31, 2, 5), ScalarMode.FLOAT)
        report = check_orthogonality_d(sysf, 2, 1e-7)
        assert report.passed
        assert float(report.max_abs_discrepancy) < 1e-8

    def test_matches_bivariate_checker(self):
        from multimeixner.bivariate import check_orthogonality
        from multimeixner.reports import LatticeBox, lattice

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

    def test_point_budget_ends_the_d4_sum(self):
        # the weight tail at d = 4 is too long for the point budget: the
        # loop stops with NonConvergence instead of running on
        sysf = MeixnerSystemD(2, random_matrix(9, 4, 5), ScalarMode.FLOAT)
        start = time.perf_counter()
        with pytest.raises(NonConvergence, match="lattice points"):
            check_orthogonality_d(sysf, 1, 1e-7)
        assert time.perf_counter() - start < 10


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


class TestBrokenIdentityD3:
    """The d = 3 analogue of the bivariate ``TestBrokenIdentity``: shifting
    ``u[0][0]`` after construction breaks every identity, and the exact
    discrepancies and first counterexamples are pinned."""

    @pytest.mark.parametrize(
        "checker, disc, counter",
        [
            (check_recurrence_d, F(277578125, 87526656), (0, 0, 0, 1, 0, 0, 0)),
            (check_difference_d, F(2050375, 1002186), (1, 0, 0, 0, 0, 0, 0)),
            (check_lowering_d, F(3320, 1407), (1, 0, 1, 1, 0, 0, 2)),
            (check_duality_d, F(3320, 1407), (1, 0, 0, 1, 0, 0, 0)),
        ],
    )
    def test_tampered_system_fails(self, checker, disc, counter):
        sys3 = random_system(7, 3, 3)
        (u00, *row0), *rows = sys3.u
        sys3.u = ((u00 + 1, *row0), *rows)
        report = checker(sys3, (1, 1, 1), (1, 1, 1))
        assert not report.passed
        assert report.max_abs_discrepancy == disc
        assert report.counterexample == counter


def _expansion_values(system, points, cutoff):
    """Monic values (n, x) -> R_n(x) from the product of truncated series,
    (1 - sum z)^-(b + |x|) prod_i (1 - sum_j u[i][j] z_j)^x_i."""
    d, beta = system.d, system.beta
    degrees = [n for n in itertools.product(range(cutoff + 1), repeat=d) if sum(n) <= cutoff]
    values = {}
    for x in points:
        product = series_geom_pow([1] * d, -(beta + sum(x)), cutoff)
        for row, xi in zip(system.u, x):
            product = series_mul(product, series_geom_pow(row, xi, cutoff))
        for n in degrees:
            scale = math.prod(map(math.factorial, n)) / pochhammer(beta, sum(n))
            values[n, x] = product.coeffs.get(n, 0) * scale
    return values


class TestGfStore:
    @pytest.mark.parametrize(
        "seed, d, beta, factors, points, cutoff",
        [
            (42, 2, F(7, 3), 4, [(0, 0), (3, 0), (1, 4), (2, 2)], 5),
            (D3_SEED, 3, 2, 5, [(0, 0, 0), (2, 1, 0), (0, 1, 2)], 3),
        ],
        ids=["d2", "d3"],
    )
    def test_values_match_series_expansion(self, seed, d, beta, factors, points, cutoff):
        system = random_system(seed, d, beta, factors)
        for (n, x), value in _expansion_values(system, points, cutoff).items():
            assert monic_eval_gf_d(system, n, x) == value

    def test_degree_extension_matches_fresh_store(self):
        grown, fresh = random_system(42, 2, F(7, 3)), random_system(42, 2, F(7, 3))
        points = [(i, k) for i in range(4) for k in range(3)]
        low = [monic_eval_gf_d(grown, (1, 0), x) for x in points]
        assert all(grown._gf_cache[x].cutoff == 1 for x in points)
        for n in ((1, 0), (2, 1), (4, 2), (0, 6)):
            for x in points:
                assert monic_eval_gf_d(grown, n, x) == monic_eval_gf_d(fresh, n, x)
        assert all(grown._gf_cache[x].cutoff == 6 for x in points)
        assert low == [monic_eval_gf_d(fresh, (1, 0), x) for x in points]

    def test_point_extension_matches_fresh_store(self):
        grown = MeixnerSystemD(2, random_matrix(D3_SEED, 3, 5))
        far, near = (4, 3, 2), (1, 0, 2)
        first = monic_eval_gf_d(grown, (1, 1, 0), far)
        assert far in grown._gf_cache and near not in grown._gf_cache
        for n in ((1, 1, 0), (0, 2, 1)):
            fresh = MeixnerSystemD(2, random_matrix(D3_SEED, 3, 5))
            assert monic_eval_gf_d(grown, n, near) == monic_eval_gf_d(fresh, n, near)
        assert first == monic_eval_gf_d(fresh, (1, 1, 0), far)

    @pytest.mark.parametrize("box", ["0,0,0,0", "0,0,2,3", "1,0,0,0", "0,1,1,0"])
    @pytest.mark.parametrize("suite", ["recurrence", "difference", "lowering", "duality"])
    def test_identity_suites_on_thin_boxes(self, suite, box):
        m, n, i, k = map(int, box.split(","))
        config = harness.SuiteConfig(suite, box=LatticeBox(max_i=i, max_k=k, max_m=m, max_n=n))
        (report,) = harness.run_suite(config)
        assert report.passed
        assert report.max_abs_discrepancy == 0

    def test_far_point_has_no_depth_limit(self, capsys):
        # the store walks an |x| = 1100 step chain down to the origin
        values = []
        for route in ("gf", "raising"):
            code = main(["eval", "--route", route, "--degrees", "2,1", "--point", "600,500"])
            assert code == 0
            values.append(capsys.readouterr().out.strip())
        assert values == ["-36424665866879/236196"] * 2
