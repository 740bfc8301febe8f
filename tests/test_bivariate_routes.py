import itertools
import math
import random
from fractions import Fraction as F

import pytest

from multimeixner.bivariate import (
    MeixnerSystem,
    amplitude_sq,
    hyp_sum,
    matrix_element,
    monic_eval_gf,
    monic_eval_hyp,
    monic_eval_raising,
    orthonormal_eval,
    weight,
)
from multimeixner.errors import ModeError, NonGenericMatrix
from multimeixner.harness import random_matrix
from multimeixner.lorentz import boost, compose, identity
from multimeixner.multivariate import _hyp_row, _orthonormal_prefactor_d, _rising_of_negative
from multimeixner.numerics import ScalarMode, pochhammer, solve_linear_system

ROUTES = (monic_eval_raising, monic_eval_gf, monic_eval_hyp)


class TestSystemConstruction:
    def test_rejects_non_generic(self):
        with pytest.raises(NonGenericMatrix):
            MeixnerSystem(2, identity(2))

    def test_rejects_nonpositive_beta(self, canonical_matrix):
        with pytest.raises(ValueError):
            MeixnerSystem(0, canonical_matrix)

    def test_weight_parameters_inside_simplex(self, canonical_beta2):
        s = canonical_beta2
        assert s.c[0] == F(144, 625)
        assert s.c[1] == F(81, 625)
        assert s.c[0] + s.c[1] < 1

    def test_dual_round_trip(self, canonical_beta2):
        twice = canonical_beta2.dual().dual()
        assert twice.lam.entries == canonical_beta2.lam.entries


class TestBasePoints:
    @pytest.mark.parametrize("route", ROUTES)
    def test_constant_polynomial(self, canonical_beta2, route):
        assert route(canonical_beta2, 0, 0, 3, 5) == 1

    @pytest.mark.parametrize("route", ROUTES)
    def test_all_degrees_at_origin(self, canonical_beta2, route):
        assert all(
            route(canonical_beta2, m, n, 0, 0) == 1 for m in range(4) for n in range(4)
        )

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("point", [(1.5, 0), (F(3, 2), 0)])
    def test_rational_point_rejected(self, canonical_beta2, route, point):
        # not read as the lattice point (1, 0)
        with pytest.raises(ValueError) as bad:
            route(canonical_beta2, 1, 0, *point)
        assert str(bad.value) == f"point must be 2 non-negative integers, got {point!r}"

    def test_hyp_kills_terms_through_degree_factorials(self, canonical_beta2):
        assert monic_eval_hyp(canonical_beta2, 0, 0, 4, 2) == 1
        assert monic_eval_hyp(canonical_beta2, 3, 2, 0, 0) == 1


class TestRouteEquivalence:
    def test_three_routes_small_box(self, seeded_systems, beta_values):
        for base in seeded_systems:
            for beta in beta_values:
                sys2 = MeixnerSystem(beta, base.lam)
                for m in range(4):
                    for n in range(4 - m):
                        for i in range(4):
                            for k in range(4):
                                ref = monic_eval_gf(sys2, m, n, i, k)
                                assert monic_eval_raising(sys2, m, n, i, k) == ref
                                assert monic_eval_hyp(sys2, m, n, i, k) == ref

    def test_first_degree_is_affine(self, canonical_beta2):
        s = canonical_beta2
        beta = s.beta
        # fit a + b*i + c*k through the oracle at three nodes
        nodes = [(0, 0), (1, 0), (0, 1)]
        rows = [[F(1), F(i), F(k)] for (i, k) in nodes]
        rhs = [monic_eval_gf(s, 1, 0, i, k) for (i, k) in nodes]
        a, b, c = solve_linear_system(rows, rhs)
        # the raising route reproduces the affine model away from the nodes
        assert monic_eval_raising(s, 1, 0, 2, 3) == a + 2 * b + 3 * c
        assert b == (1 - s.u[0][0]) / beta
        assert c == (1 - s.u[1][0]) / beta

    @pytest.mark.parametrize("degrees", [(2, 1), (0, 3), (2, 2)])
    def test_total_degree_interpolation(self, seeded_systems, degrees):
        m, n = degrees
        deg = m + n
        for sys2 in seeded_systems:
            nodes = [(a, b) for a in range(deg + 1) for b in range(deg + 1 - a)]
            monomials = nodes
            rows = [
                [F(a**p * b**q) for (p, q) in monomials] for (a, b) in nodes
            ]
            rhs = [monic_eval_gf(sys2, m, n, a, b) for (a, b) in nodes]
            coeffs = solve_linear_system(rows, rhs)

            def interp(i, k):
                return sum(
                    c * i**p * k**q for c, (p, q) in zip(coeffs, monomials)
                )

            for probe in ((deg + 1, 0), (deg, deg), (0, deg + 2), (3, 4)):
                assert interp(*probe) == monic_eval_gf(sys2, m, n, *probe)


class TestHypRows:
    """The hypergeometric route reads each system's rows, cleared to
    integers once per (row, length)."""

    SMALL = [(m, n, i, k) for m in range(3) for n in range(3 - m) for i in range(3) for k in range(3)]
    LARGE = [(m, n, i, k) for m, n in ((4, 2), (1, 5), (3, 3)) for i, k in ((5, 6), (7, 2), (2, 7))]

    @pytest.mark.parametrize("beta", [F(1), F(2), F(7, 3)])
    def test_fill_order_does_not_matter(self, beta):
        lam = random_matrix(42, 2, 4)
        oracle = MeixnerSystem(beta, lam)
        small_first, large_first = MeixnerSystem(beta, lam), MeixnerSystem(beta, lam)
        for sys2, cells in ((small_first, self.SMALL + self.LARGE),
                            (large_first, self.LARGE + self.SMALL)):
            for cell in cells:
                assert monic_eval_hyp(sys2, *cell) == monic_eval_gf(oracle, *cell)
            lengths = {length for row, length in sys2._hyp_rows if row == (0, 0)}
            assert len(lengths) > 1  # rows of several lengths side by side
        assert small_first._hyp_rows.keys() == large_first._hyp_rows.keys()

    def test_rows_belong_to_one_system(self, canonical_matrix):
        first, second = MeixnerSystem(2, canonical_matrix), MeixnerSystem(2, canonical_matrix)
        assert not first._hyp_rows and not second._hyp_rows
        monic_eval_hyp(first, 2, 1, 3, 2)
        assert first._hyp_rows and not second._hyp_rows
        monic_eval_hyp(second, 2, 1, 3, 2)
        assert first._hyp_rows.keys() == second._hyp_rows.keys()
        for key, (denom, nums) in first._hyp_rows.items():
            assert second._hyp_rows[key][1] is not nums

    def test_kernel_on_cleared_rows_matches_fraction_sum(self):
        m, n, i, k = 2, 3, 3, 2
        beta = F(7, 3)
        x11, x21, x12, x22 = F(1, 2), F(-2, 3), F(3, 5), F(5, 7)  # the 1 - u bases

        def power(x, e):
            return x**e / math.factorial(e)

        def rising_neg(a, top):
            return [int(pochhammer(-a, t)) for t in range(top + 1)]

        def cleared(values):
            # one common (not the least) denominator per row
            denom = math.prod(v.denominator for v in values)
            return denom, [int(v * denom) for v in values]

        def cleared_powers(x, top):
            return cleared([power(x, e) for e in range(top + 1)])

        db, invb = cleared([1 / pochhammer(beta, t) for t in range(min(m + n, i + k) + 1)])
        d11, p11 = cleared_powers(x11, min(m, i))
        d21, p21 = cleared_powers(x21, min(m, k))
        d12, p12 = cleared_powers(x12, min(n, i))
        d22, p22 = cleared_powers(x22, min(n, k))
        total = hyp_sum(
            m, n, i, k,
            rising_neg(m, min(m, i + k)), rising_neg(n, min(n, i + k)),
            rising_neg(i, min(i, m + n)), rising_neg(k, min(k, m + n)),
            invb, p11, p21, p12, p22,
        )
        assert isinstance(total, int)

        brute = F(0)
        top = max(m, n, i, k)
        for mu, nu, rho, sigma in itertools.product(range(top + 1), repeat=4):
            brute += (
                pochhammer(-m, mu + nu) * pochhammer(-n, rho + sigma)
                * pochhammer(-i, mu + rho) * pochhammer(-k, nu + sigma)
                / pochhammer(beta, mu + nu + rho + sigma)
                * power(x11, mu) * power(x21, nu) * power(x12, rho) * power(x22, sigma)
            )
        assert brute != 0
        assert F(total, db * d11 * d21 * d12 * d22) == brute


class TestHypGrid:
    """Each degree's integer coefficient tensor is built once per system and
    grown only as far as the points reach."""

    CELLS = [(m, n, i, k) for m in range(4) for n in range(4 - m) for i in range(8) for k in range(8)]

    @pytest.mark.parametrize("order", ["i-major", "reversed", "shuffled"])
    def test_fill_order_does_not_change_values(self, order):
        lam = random_matrix(42, 2, 4)
        cells = {
            "i-major": self.CELLS,
            "reversed": self.CELLS[::-1],
            "shuffled": random.Random(7).sample(self.CELLS, len(self.CELLS)),
        }[order]
        sys2, oracle = MeixnerSystem(F(7, 3), lam), MeixnerSystem(F(7, 3), lam)
        for cell in cells:
            assert monic_eval_hyp(sys2, *cell) == monic_eval_gf(oracle, *cell)
        # every cell reaches m + n in both exponents, where the caps stop
        assert {deg: entry[0] for deg, entry in sys2._hyp_tensors.items()} == {
            (m, n): (m + n, m + n) for m, n, _i, _k in self.CELLS
        }

    def test_caps_double_as_a_sweep_reaches_past_them(self, canonical_matrix):
        sys2 = MeixnerSystem(2, canonical_matrix)
        for side, caps in ((3, (2, 2)), (4, (4, 4)), (8, (6, 6))):
            for i in range(side):
                for k in range(side):
                    monic_eval_hyp(sys2, 3, 3, i, k)
            assert sys2._hyp_tensors[(3, 3)][0] == caps

    def test_one_off_calls_read_only_their_reach(self, canonical_matrix):
        sys2 = MeixnerSystem(2, canonical_matrix)
        calls = [(200, 200, 2, 3), (400, 300, 1, 1)]
        for m, n, i, k in calls:
            assert monic_eval_hyp(sys2, m, n, i, k) == monic_eval_raising(sys2, m, n, i, k)
        assert {deg: entry[0] for deg, entry in sys2._hyp_tensors.items()} == {
            (200, 200): (2, 3), (400, 300): (1, 1)
        }
        for (m, n), ((A, B), _den, grid) in sys2._hyp_tensors.items():
            assert len(grid) == A + 1 and max(map(len, grid)) == B + 1
        # the row lengths the per-point four-index loop read before the grid
        reach = set()
        for m, n, i, k in calls:
            reach |= {
                ("invbeta", min(m + n, i + k)), ((0, 0), min(m, i)), ((1, 0), min(m, k)),
                ((0, 1), min(n, i)), ((1, 1), min(n, k)),
            }
        assert set(sys2._hyp_rows) == reach

    @pytest.mark.parametrize("cell", [(2, 3, 3, 2), (1, 1, 6, 0), (0, 2, 1, 5), (3, 0, 0, 4)])
    def test_kernel_matches_fraction_sum_on_system_rows(self, seeded_systems, cell):
        m, n, i, k = cell
        sys2 = seeded_systems[0]
        rows = {}
        for row, length in [
            ("invbeta", min(m + n, i + k)), ((0, 0), min(m, i)), ((1, 0), min(m, k)),
            ((0, 1), min(n, i)), ((1, 1), min(n, k)),
        ]:
            rows[row] = _hyp_row(sys2, row, length)
        total = hyp_sum(
            m, n, i, k,
            _rising_of_negative(m, min(m, i + k)), _rising_of_negative(n, min(n, i + k)),
            _rising_of_negative(i, min(i, m + n)), _rising_of_negative(k, min(k, m + n)),
            *(rows[row][1] for row in ("invbeta", (0, 0), (1, 0), (0, 1), (1, 1))),
        )
        assert isinstance(total, int)
        brute = F(0)
        u, beta = sys2.u, sys2.beta
        for mu, nu, rho, sigma in itertools.product(range(max(cell) + 1), repeat=4):
            brute += (
                pochhammer(-m, mu + nu) * pochhammer(-n, rho + sigma)
                * pochhammer(-i, mu + rho) * pochhammer(-k, nu + sigma)
                / pochhammer(beta, mu + nu + rho + sigma)
                * (1 - u[0][0]) ** mu * (1 - u[1][0]) ** nu
                * (1 - u[0][1]) ** rho * (1 - u[1][1]) ** sigma
                / math.prod(map(math.factorial, (mu, nu, rho, sigma)))
            )
        assert F(total, math.prod(rows[row][0] for row in rows)) == brute
        assert brute == monic_eval_gf(sys2, *cell)


class TestWeight:
    def test_base_point(self, canonical_beta2):
        s = canonical_beta2
        assert weight(s, 0, 0) == (1 - s.c[0] - s.c[1]) ** 2

    def test_first_step(self, canonical_beta2):
        s = canonical_beta2
        assert weight(s, 1, 0) == 2 * s.c[0] * (1 - s.c[0] - s.c[1]) ** 2

    def test_exact_needs_integer_beta(self, canonical_matrix):
        s = MeixnerSystem(F(5, 2), canonical_matrix)
        with pytest.raises(ModeError):
            weight(s, 0, 0)
        assert weight(s.with_mode(ScalarMode.FLOAT), 0, 0) > 0

    def test_partial_sums_reach_one(self, canonical_beta2_float):
        s = canonical_beta2_float
        total = sum(weight(s, i, k) for i in range(61) for k in range(61 - i))
        assert abs(total - 1.0) < 1e-10

    def test_float_matches_exact_at_a_moderate_point(self, canonical_beta2, canonical_beta2_float):
        assert weight(canonical_beta2_float, 40, 30) == pytest.approx(
            float(weight(canonical_beta2, 40, 30)), rel=1e-12
        )

    def test_float_far_point_underflows(self, canonical_beta2_float):
        # the mass is about 1e-553, below the smallest float
        assert weight(canonical_beta2_float, 600, 600) == 0.0

    def test_negative_point_rejected(self, canonical_beta2):
        with pytest.raises(ValueError):
            weight(canonical_beta2, -1, 0)


class TestAmplitude:
    def test_base_point(self, canonical_beta2):
        s = canonical_beta2
        assert amplitude_sq(s, 0, 0) == s.lam.entry(3, 3) ** (-4)

    def test_equals_weight(self, canonical_beta2):
        s = canonical_beta2
        for i in range(7):
            for k in range(7):
                assert amplitude_sq(s, i, k) == weight(s, i, k)

    def test_float_base_amplitude(self, canonical_beta2_float):
        s = canonical_beta2_float
        got = math.sqrt(amplitude_sq(s, 0, 0))
        assert got == pytest.approx(float(s.lam.entry(3, 3)) ** -2.0, abs=1e-15)
        assert got > 0

    def test_float_matches_exact_at_a_moderate_point(self, canonical_beta2, canonical_beta2_float):
        exact = amplitude_sq(canonical_beta2, 40, 30)
        assert amplitude_sq(canonical_beta2_float, 40, 30) == pytest.approx(float(exact), rel=1e-12)
        # at degree zero the matrix element is the signed amplitude
        e = canonical_beta2.lam.entries
        sign = (-1) ** ((e[0][2] < 0) * 40 + (e[1][2] < 0) * 30)
        assert matrix_element(canonical_beta2_float, 40, 30, 0, 0) == pytest.approx(
            sign * math.sqrt(float(exact)), rel=1e-12
        )

    def test_float_far_point_has_no_overflow(self, canonical_beta2_float):
        assert amplitude_sq(canonical_beta2_float, 600, 600) == 0.0
        assert 0 < abs(matrix_element(canonical_beta2_float, 600, 600, 0, 0)) < 1e-250


class TestOrthonormalAndMatrixElements:
    def test_degree_zero_is_one(self, canonical_beta2_float):
        assert orthonormal_eval(canonical_beta2_float, 0, 0, 2, 4) == 1.0

    def test_odd_degree_sign(self):
        # all-positive matrix entries make odd-degree values negative
        lam = compose(boost((2, 3), 2, 2), boost((1, 3), 3, 2))
        s = MeixnerSystem(2, lam, ScalarMode.FLOAT)
        assert orthonormal_eval(s, 1, 0, 0, 0) < 0
        assert orthonormal_eval(s, 0, 1, 0, 0) < 0

    def test_requires_float_mode(self, canonical_beta2):
        with pytest.raises(ModeError):
            orthonormal_eval(canonical_beta2, 0, 0, 0, 0)
        with pytest.raises(ModeError):
            matrix_element(canonical_beta2, 0, 0, 0, 0)

    def test_prefactor_matches_exact_square(self, canonical_beta2_float):
        # (-1)^|n| sqrt((b)_|n| / n!) prod_i (L[2][i]/L[2][2])^n_i at n = (12, 9)
        s = canonical_beta2_float
        e = s.lam.entries
        r0, r1 = e[2][0] / e[2][2], e[2][1] / e[2][2]
        square = pochhammer(s.beta, 21) / (math.factorial(12) * math.factorial(9)) * r0**24 * r1**18
        sign = (-1) ** (21 + (r0 < 0) * 12 + (r1 < 0) * 9)
        assert _orthonormal_prefactor_d(s, (12, 9)) == pytest.approx(
            sign * math.sqrt(float(square)), rel=1e-12
        )

    def test_matrix_element_base_point(self, canonical_beta2_float):
        s = canonical_beta2_float
        assert matrix_element(s, 0, 0, 0, 0) == pytest.approx(
            float(s.lam.entry(3, 3)) ** -2.0, abs=1e-15
        )

    def test_column_norm_is_one(self, canonical_beta2_float):
        s = canonical_beta2_float
        total = sum(
            matrix_element(s, i, k, 1, 1) ** 2 for i in range(45) for k in range(45)
        )
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_distinct_columns_orthogonal(self, canonical_beta2_float):
        s = canonical_beta2_float
        total = sum(
            matrix_element(s, i, k, 1, 1) * matrix_element(s, i, k, 0, 2)
            for i in range(45)
            for k in range(45)
        )
        assert total == pytest.approx(0.0, abs=1e-8)


def test_pochhammer_scale_between_monic_and_orthonormal(canonical_beta2_float):
    # |M_{m,n}| = sqrt((beta)_{m+n} / (m! n!)) |l31^m l32^n / l33^{m+n}| |R_{m,n}|
    s = canonical_beta2_float
    exact = MeixnerSystem(s.beta, s.lam)
    m, n, i, k = 2, 1, 3, 1
    scale = math.sqrt(float(pochhammer(s.beta, m + n) / (math.factorial(m) * math.factorial(n))))
    L = s.lam.entry
    geom = abs(float(L(3, 1)**m * L(3, 2)**n / L(3, 3) ** (m + n)))
    assert abs(orthonormal_eval(s, m, n, i, k)) == pytest.approx(
        scale * geom * abs(float(monic_eval_gf(exact, m, n, i, k))), rel=1e-12
    )
