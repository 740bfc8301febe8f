import itertools
import math
import sys
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
    monic_eval_gf,
    monic_eval_hyp,
    monic_eval_raising,
)
from multimeixner.errors import NonConvergence, PreconditionError
from multimeixner.harness import (
    addition_tuples,
    canonical_lambda,
    elliptic_block_deviation,
    hyperbolic_column_norm,
    random_matrix,
)
from multimeixner.lorentz import boost, compose, inverse_tilde, rotation
from multimeixner.multivariate import element_reader
from multimeixner.numerics import log_abs, pochhammer
from multimeixner.univariate import krawtchouk, meixner


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
        for t in (1, 0, F(-1, 2)):
            with pytest.raises(PreconditionError, match="positive and != 1"):
                hyperbolic_me_xi(2, t, 0, 0, 0, 0)

    @pytest.mark.parametrize("fn", [hyperbolic_me_xi, hyperbolic_me_psi])
    @pytest.mark.parametrize("beta", [2, F(7, 3)])
    @pytest.mark.parametrize("t", [F(2), F(3)])
    def test_inverse_boost_is_the_transpose(self, fn, beta, t):
        # U(g^-1) = U(g)^T: the element at 1/t is the transposed one at t
        for i, k, m, n in itertools.product(range(6), repeat=4):
            assert fn(beta, 1 / t, i, k, m, n) == fn(beta, t, m, n, i, k)

    @pytest.mark.parametrize("first_axis", [True, False])
    def test_column_norm_below_one(self, first_axis):
        norm = hyperbolic_column_norm(2, F(1, 2), 2, 1, first_axis, 1e-8)
        assert norm == pytest.approx(1.0, abs=1e-8)

    def test_high_level_stays_in_log_space(self):
        # the monic value at level 900 passes the float range; the element does not
        assert hyperbolic_me_xi(2, 2, 600, 0, 600, 0) == pytest.approx(0.026352425990788256, rel=1e-12)
        for level in (900, 1200):
            value = hyperbolic_me_xi(2, 2, level, 0, level, 0)
            assert math.isfinite(value) and -1 <= value <= 1


class TestEllipticElements:
    def test_level_mismatch_vanishes(self):
        assert elliptic_me(2, F(1, 2), 1, 2, 1, 1) == 0.0

    def test_base_point(self):
        assert elliptic_me(2, F(1, 2), 0, 0, 0, 0) == 1.0

    def test_level_blocks_orthogonal(self):
        for level in range(5):
            assert elliptic_block_deviation(2, F(1, 2), level) < 1e-10

    def test_high_level_stays_in_log_space(self):
        # the binomials C(1100, 550) pass the float range; the element does not
        s, i, k, m, n = F(1, 2), 550, 550, 550, 550
        N = i + k
        cos, sin = (1 - s * s) / (1 + s * s), 2 * s / (1 + s * s)
        rational = (-1) ** k * cos**N * (sin / cos) ** (k + n) * krawtchouk(n, k, sin * sin, N)
        exact = rational**2 * math.comb(N, k) * math.comb(N, n)
        assert elliptic_me(2, s, i, k, m, n) ** 2 == pytest.approx(float(exact), rel=1e-12)

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

    @pytest.mark.parametrize("t_xi, t_psi", [(1, 2), (2, 1), (F(-1, 2), 2), (2, 0)])
    def test_requires_boost_parameters_positive_and_not_one(self, t_xi, t_psi):
        with pytest.raises(PreconditionError, match="positive and != 1"):
            factorized_eval(2, t_xi, t_psi, 0, 0, 0, 0)

    @pytest.mark.parametrize("t_xi, t_psi", [(F(1, 2), 2), (2, F(1, 3))])
    def test_boost_parameters_below_one_match_oracle(self, t_xi, t_psi):
        # a boost with 0 < t < 1 has a negative sinh and is as valid as 1/t
        lam = compose(boost((2, 3), t_psi, 2), boost((1, 3), t_xi, 2))
        sys2 = MeixnerSystem(2, lam)
        for m in range(4):
            for n in range(4 - m):
                for i in range(5):
                    for k in range(5):
                        assert factorized_eval(2, t_xi, t_psi, m, n, i, k) == monic_eval_gf(
                            sys2, m, n, i, k
                        )

    def test_rational_point_is_the_product_of_meixner_factors(self):
        # a polynomial in (i, k), so unlike the lattice routes it takes rational points
        i, k = F(3, 2), F(1, 3)
        th2_xi, th2_psi = F(4, 5) ** 2, F(3, 5) ** 2  # tanh^2 at t = 3 and t = 2
        for m, n in [(1, 0), (2, 1), (0, 2)]:
            expected = (
                pochhammer(i + 2, n)
                / pochhammer(2, n)
                * meixner(m, i, n + 2, th2_xi)
                * meixner(n, k, i + 2, th2_psi)
            )
            assert factorized_eval(2, 3, 2, m, n, i, k) == expected

    @pytest.mark.parametrize("args", [(-1, 0, 0, 0), (0, 0, 0, F(-1, 2))])
    def test_negative_degree_or_point_rejected(self, args):
        with pytest.raises(ValueError, match="degrees and point must be non-negative"):
            factorized_eval(2, 3, 2, *args)


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

    @pytest.mark.parametrize(
        "args, what",
        [
            # a function of lattice points only, unlike factorized_eval
            ((1, 0, F(5, 2), 0), "point"),
            ((1, 0, F(1, 2), 0), "point"),
            ((-1, 0, 0, 0), "degrees"),
            ((0, 0, 0, -1), "point"),
        ],
    )
    def test_non_lattice_degree_or_point_rejected(self, args, what):
        with pytest.raises(ValueError, match=f"{what} must be 2 non-negative integers"):
            general_sum_eval(2, F(1, 2), 2, F(2, 3), *args)


class TestClosedFormConstants:
    """Each closed form sets up its parameters once per parameter set; a
    rejected set is rejected on every call, a set spelled another way
    gives the same values."""

    @pytest.mark.parametrize("call, message", [
        (lambda: factorized_eval(2, 1, 2, 0, 0, 0, 0), "positive and != 1"),
        (lambda: factorized_eval(2, 2, F(-1, 2), 0, 0, 0, 0), "positive and != 1"),
        (lambda: general_sum_eval(2, 1, 2, F(2, 3), 0, 0, 0, 0), "must avoid"),
        (lambda: general_sum_eval(2, F(1, 2), -2, F(2, 3), 0, 0, 0, 0), "positive and != 1"),
    ])
    def test_rejected_parameters_raise_on_every_call(self, call, message):
        for _ in range(3):
            with pytest.raises(PreconditionError, match=message):
                call()

    # every closed form reads its boost and rotation parameters through the
    # one range rule of each kind, so each refuses with the same text
    BOOST_SITES = {
        "hyperbolic_me_xi": lambda t: hyperbolic_me_xi(2, t, 0, 0, 0, 0),
        "hyperbolic_me_psi": lambda t: hyperbolic_me_psi(2, t, 0, 0, 0, 0),
        "factorized_eval t_xi": lambda t: factorized_eval(2, t, 2, 0, 0, 0, 0),
        "factorized_eval t_psi": lambda t: factorized_eval(2, 2, t, 0, 0, 0, 0),
        "general_sum_eval t_psi": lambda t: general_sum_eval(2, F(1, 2), t, F(2, 3), 0, 0, 0, 0),
    }
    ROTATION_SITES = {
        "elliptic_me": lambda s: elliptic_me(2, s, 0, 0, 0, 0),
        "general_sum_eval s_chi": lambda s: general_sum_eval(2, s, 2, F(2, 3), 0, 0, 0, 0),
        "general_sum_eval s_theta": lambda s: general_sum_eval(2, F(1, 2), 2, s, 0, 0, 0, 0),
    }

    @pytest.mark.parametrize("site", sorted(BOOST_SITES))
    @pytest.mark.parametrize("t", [0, 1, F(-1, 2)])
    def test_every_boost_site_refuses_with_the_shared_text(self, site, t):
        with pytest.raises(PreconditionError) as caught:
            self.BOOST_SITES[site](t)
        assert str(caught.value) == f"boost parameter must be positive and != 1, got {t}"

    @pytest.mark.parametrize("site", sorted(ROTATION_SITES))
    @pytest.mark.parametrize("s", [0, 1, -1])
    def test_every_rotation_site_refuses_with_the_shared_text(self, site, s):
        with pytest.raises(PreconditionError) as caught:
            self.ROTATION_SITES[site](s)
        assert str(caught.value) == f"rotation parameter must avoid {{0, 1, -1}}, got {s}"

    def test_parameter_spelling_does_not_change_values(self):
        cells = [(1, 2, 3, 0), (2, 1, 1, 4), (0, 0, 2, 2)]
        for cell in cells:
            assert factorized_eval("2", "3", F(2), *cell) == factorized_eval(2, 3, 2, *cell)
            assert general_sum_eval(F(2), "1/2", 2, "2/3", *cell) == general_sum_eval(
                2, F(1, 2), 2, F(2, 3), *cell
            )


# cells past the workloads' degrees <= 4, where the closed forms' integer
# sums, which take no gcd per term, carry their largest numbers
HIGH_CELLS = [(12, 0, 0, 12), (5, 7, 6, 6), (0, 12, 9, 4), (8, 6, 13, 1), (10, 10, 12, 9)]


class TestClosedFormsAtHighDegree:
    beta = F(7, 3)

    def test_factorized_form_matches_the_hyp_route(self):
        lam = compose(boost((2, 3), 2, 2), boost((1, 3), 3, 2))
        sys2 = MeixnerSystem(self.beta, lam)
        for cell in HIGH_CELLS:
            assert factorized_eval(self.beta, 3, 2, *cell) == monic_eval_hyp(sys2, *cell)

    def test_general_sum_matches_the_hyp_route(self):
        lam = compose(
            rotation((1, 2), F(1, 2), 2),
            compose(boost((2, 3), 2, 2), rotation((1, 2), F(2, 3), 2)),
        )
        sys2 = MeixnerSystem(self.beta, lam)
        for cell in HIGH_CELLS:
            assert general_sum_eval(self.beta, F(1, 2), 2, F(2, 3), *cell) == monic_eval_hyp(
                sys2, *cell
            )


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
        lhs = element_reader(F(2), C)((0, 0), (0, 0))
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

    def test_a_right_factor_with_a_zero_in_its_last_column_passes(self):
        # boost-then-rotation has a zero in the last column; the raising
        # table serves it like any other factor
        B = compose(boost((1, 3), 2, 2), rotation((1, 2), F(1, 2), 2))
        A = compose(rotation((1, 2), F(1, 2), 2), boost((2, 3), 2, 2))
        assert B.entries[1][2] == 0
        assert check_addition(A, B, 2, 0, 0, 0, 0, 1e-8).passed

    def test_seeded_tuples(self):
        for (A, B, i, k, m, n) in addition_tuples(99, 3):
            assert check_addition(A, B, 2, i, k, m, n, 1e-8).passed

    def test_left_factor_is_the_transpose_of_the_inverse(self):
        # U(A)_{x,y} = U(A~)_{y,x}, A~ = inverse_tilde(A): the left factor's
        # level stream against A's own elements
        points = lambda top: [(a, t - a) for t in range(top + 1) for a in range(t + 1)]
        for (A, *_) in addition_tuples(2024, 10):
            own = element_reader(2, A)
            tilde = multivariate._RaisingTable(F(2), inverse_tilde(A))
            for x in points(4):
                stream = tilde.levels(x)
                for level in range(11):
                    ys = [(a, level - a) for a in range(level + 1)]
                    for y, element in zip(ys, next(stream), strict=True):
                        assert element == pytest.approx(own(x, y), rel=1e-13)

    def test_discrepancies_are_those_of_one_point_reads(self):
        # the sum of check_addition rebuilt from one-point reads of the
        # same tables, A~'s at (i, k) and B's at (m, n): equal as floats
        for (A, B, i, k, m, n) in addition_tuples(2024, 10):
            left = multivariate._RaisingTable(F(2), inverse_tilde(A))
            right = multivariate._RaisingTable(F(2), B)
            total, level = 0.0, 0
            while True:
                ys = [(rho, level - rho) for rho in range(level + 1)]
                row_a = [left.matrix_element(y, (i, k)) for y in ys]
                row_b = [right.matrix_element(y, (m, n)) for y in ys]
                contrib = sum(a * b for a, b in zip(row_a, row_b))
                total += contrib
                if level >= max(m + n, i + k) and abs(contrib) < 1e-10:
                    break
                level += 1
            disc = abs(element_reader(2, compose(A, B))((i, k), (m, n)) - total)
            assert check_addition(A, B, 2, i, k, m, n, 1e-8).max_abs_discrepancy == disc

    def test_a_left_factor_with_a_zero_in_its_last_column_passes(self):
        # boost-then-rotation: its last column (3/4, 0, 5/4) and the last
        # row of its inverse, whose stream the left factor reads, hold a 0
        A = compose(boost((1, 3), 2, 2), rotation((1, 2), F(1, 2), 2))
        assert A.entries[1][2] == 0 and all(A.entries[2])
        assert check_addition(A, addition_tuples(2024, 1)[0][1], 2, 1, 0, 0, 1, 1e-8).passed

    def test_a_perturbed_right_factor_fails(self, monkeypatch):
        # the largest element of level m + n of B's stream scaled by 1 + 1e-6
        A, B, i, k, m, n = addition_tuples(2024, 1)[0]
        assert check_addition(A, B, 2, i, k, m, n, 1e-8).passed
        levels = multivariate._RaisingTable.levels

        def perturbed(table, degree):
            for t, row in enumerate(levels(table, degree)):
                if table.lam is B and t == m + n:
                    at = max(range(len(row)), key=lambda r: abs(row[r]))
                    row[at] *= 1 + 1e-6
                yield row

        monkeypatch.setattr(multivariate._RaisingTable, "levels", perturbed)
        report = check_addition(A, B, 2, i, k, m, n, 1e-8)
        assert not report.passed and report.counterexample == (i, k, m, n)


class TestNonpositiveBeta:
    """Every float element, the addition check and both closed forms reject
    beta <= 0 with the message a system gives."""

    CALLS = {
        "hyperbolic_me_xi": lambda beta: hyperbolic_me_xi(beta, 2, 1, 0, 1, 0),
        "hyperbolic_me_psi": lambda beta: hyperbolic_me_psi(beta, 2, 0, 1, 0, 1),
        "elliptic_me": lambda beta: elliptic_me(beta, F(1, 2), 1, 1, 1, 1),
        "element_reader": lambda beta: element_reader(beta, random_matrix(42, 2, 4)),
        "check_addition": lambda beta: check_addition(
            *addition_tuples(2024, 1)[0][:2], beta, 0, 0, 0, 0, 1e-8
        ),
        "factorized_eval": lambda beta: factorized_eval(beta, 2, 3, 1, 1, 1, 1),
        "general_sum_eval": lambda beta: general_sum_eval(beta, F(1, 2), 2, F(2, 3), 1, 1, 1, 1),
        "system": lambda beta: MeixnerSystem(beta, canonical_lambda()),
    }

    @pytest.mark.parametrize("beta", [-3, F(-1, 2), 0], ids=["-3", "-1/2", "0"])
    @pytest.mark.parametrize("name", list(CALLS))
    def test_rejected(self, name, beta):
        with pytest.raises(ValueError, match=f"^beta must be positive, got {beta}$"):
            self.CALLS[name](beta)


class TestEvaluatorDispatch:
    def test_identity(self):
        from multimeixner.lorentz import identity

        for d in (1, 2, 3):
            ev = element_reader(2, identity(d))
            assert ev((1,) * d, (1,) * d) == 1.0
            assert ev((1,) * d, (2,) + (1,) * (d - 1)) == 0.0

    def test_reader_is_a_one_point_table_read(self):
        # after a sweep of the level blocks |x| = |n| <= 10 the reader's one
        # table gives, bit for bit, what a fresh table gives for each point
        for lam in (
            compose(boost((2, 3), 2, 2), boost((1, 3), 3, 2)),
            canonical_lambda(),
            random_matrix(42, 2, 4),
        ):
            ev = element_reader(2, lam)
            for level in range(11):
                for i in range(level + 1):
                    for m in range(level + 1):
                        x, n = (i, level - i), (m, level - m)
                        fresh = multivariate._RaisingTable(F(2), lam)
                        assert ev(x, n) == fresh.matrix_element(x, n)

    @pytest.mark.parametrize("lam", [canonical_lambda(), random_matrix(42, 2, 4)], ids=["canonical", "seed42"])
    def test_generic_recursion_is_accurate_on_deep_level_blocks(self, lam):
        # reference: amplitude x orthonormal prefactor x the generating-function
        # route, an independent exact route, combined in log space
        ev = element_reader(2, lam)
        sys2 = MeixnerSystem(2, lam)
        column = multivariate._LogMass(sys2.beta, lam)
        for level in (20, 25):
            for i in range(level + 1):
                for m in range(level + 1):
                    x, n = (i, level - i), (m, level - m)
                    monic = multivariate.monic_eval_gf_d(sys2, n, x)
                    pref = multivariate._orthonormal_prefactor_d(sys2, n)
                    log = 0.5 * column(x) + math.log(abs(pref)) + log_abs(monic)
                    sign = column.sign(x) * math.copysign(1, pref) * (1 if monic > 0 else -1)
                    assert ev(x, n) == pytest.approx(sign * math.exp(log), rel=1e-12)

    def test_generic_recursion_serves_a_zero_in_the_last_row(self):
        # last row (0, 3/4, 5/4): the rotation acts after the boost, so the
        # element is the one-intermediate-level sum of their closed forms
        C = compose(rotation((1, 2), F(1, 2), 2), boost((2, 3), 2, 2))
        assert C.entries[2][0] == 0
        ev = element_reader(2, C)
        for level in range(21):
            span = range(level + 1)
            rot = [[elliptic_me(2, F(1, 2), i, level - i, r, level - r) for r in span] for i in span]
            bst = [[hyperbolic_me_psi(2, 2, r, level - r, m, level - m) for m in span] for r in span]
            for i in span:
                for m in span:
                    ref = math.fsum(rot[i][r] * bst[r][m] for r in span)
                    assert ev((i, level - i), (m, level - m)) == pytest.approx(ref, rel=1e-12)

    def test_generic_recursion_reaches_deep_degrees(self):
        # the levels are filled bottom up, so no call stack grows with the degree
        ev = element_reader(2, canonical_lambda())
        assert math.isfinite(ev((0, 0), (1500, 0)))
        assert math.isfinite(ev((2, 1), (400, 0)))

    # the one-parameter subgroups with their closed forms, the oracles of the table
    SUBGROUPS = {
        "boost-13-2": (boost((1, 3), 2, 2), lambda *p: hyperbolic_me_xi(2, 2, *p)),
        "boost-13-1/3": (boost((1, 3), F(1, 3), 2), lambda *p: hyperbolic_me_xi(2, F(1, 3), *p)),
        "boost-23-3": (boost((2, 3), 3, 2), lambda *p: hyperbolic_me_psi(2, 3, *p)),
        "rotation-1/2": (rotation((1, 2), F(1, 2), 2), lambda *p: elliptic_me(2, F(1, 2), *p)),
        "rotation--7/3": (rotation((1, 2), F(-7, 3), 2), lambda *p: elliptic_me(2, F(-7, 3), *p)),
    }

    @pytest.mark.parametrize("name", list(SUBGROUPS))
    def test_a_subgroup_element_agrees_with_its_closed_form(self, name):
        # a boost or rotation has zeros in its last column; the table gives
        # exactly 0.0 wherever the closed form is 0, e.g. off the delta
        lam, closed = self.SUBGROUPS[name]
        ev = element_reader(2, lam)
        # the level blocks 0..25, and across levels with a fixed coordinate
        points = [(i, t - i, m, t - m) for t in range(26) for i in range(t + 1) for m in range(t + 1)]
        points += [p for c in (0, 2) for a in range(13) for b in range(13)
                   for p in ((a, c, b, c), (c, a, c, b))]
        for point in points:
            ref = closed(*point)
            if ref == 0.0:
                assert ev(point[:2], point[2:]) == 0.0
            else:
                assert ev(point[:2], point[2:]) == pytest.approx(ref, rel=1e-12)

    def test_the_quarter_turn_is_the_signed_permutation(self):
        # s = 1: (y_0, y_1) -> (y_1, -y_0), so <i,k| U |m,n> = (-1)^k delta_{(i,k),(n,m)},
        # which the closed form, with its tangent, cannot give
        ev = element_reader(2, rotation((1, 2), 1, 2))
        for t in range(16):
            for i in range(t + 1):
                for m in range(t + 1):
                    got = ev((i, t - i), (m, t - m))
                    if m == t - i:
                        assert got == pytest.approx((-1) ** (t - i), rel=4 * sys.float_info.epsilon)
                    else:
                        assert got == 0.0
        assert ev((1, 0), (0, 0)) == ev((0, 0), (0, 1)) == 0.0

    def test_a_zero_in_the_last_column_is_served(self):
        # last column (3/4, 0, 5/4): the boost acts after the rotation, so the
        # element is the sum over the level |n| of their closed forms
        C = compose(boost((1, 3), 2, 2), rotation((1, 2), F(1, 2), 2))
        assert C.entries[1][2] == 0
        ev = element_reader(2, C)
        for level in range(21):
            span = range(level + 1)
            rot = [[elliptic_me(2, F(1, 2), r, level - r, m, level - m) for m in span] for r in span]
            for top in (level, level + 3):  # the boost leaves the level
                for i in range(top + 1):
                    bst = [hyperbolic_me_xi(2, 2, i, top - i, r, level - r) for r in span]
                    for m in span:
                        ref = math.fsum(bst[r] * rot[r][m] for r in span)
                        assert ev((i, top - i), (m, level - m)) == pytest.approx(ref, rel=1e-12, abs=1e-300)
