import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from multimeixner.numerics import pochhammer
from multimeixner.univariate import krawtchouk, meixner


def brute_force_meixner(n, x, delta, c):
    """Independent oracle: literal term-by-term hypergeometric sum."""
    z = 1 - F(1, 1) / c
    total = F(0)
    for j in range(n + 1):
        num = pochhammer(F(-n), j) * pochhammer(F(-x), j)
        if num == 0:
            continue
        total += num * z**j / (pochhammer(delta, j) * math.factorial(j))
    return total


def monic_meixner(n, x, delta, c):
    """Recurrence oracle: the monic Meixner polynomial m_n(x) from its
    three-term recurrence, linked to meixner() by
    M_n(x; delta; c) = ((c-1)/c)^n / (delta)_n * m_n(x)."""
    x, delta, c = F(x), F(delta), F(c)
    if c == 1:
        raise ZeroDivisionError("recurrence coefficients are singular at c = 1")
    prev, cur = F(0), F(1)  # m_{-1}, m_0
    for j in range(n):
        diag = (j + (j + delta) * c) / (1 - c)
        sub = j * (j + delta - 1) * c / (1 - c) ** 2
        cur, prev = (x - diag) * cur - sub * prev, cur
    return cur


class TestMeixner:
    def test_degree_zero(self):
        assert meixner(0, F(7, 2), F(3), F(1, 5)) == 1

    def test_two_term_example(self):
        # 1 + (-1)(-3)/2 * (1 - 4) = 1 - 9/2
        assert meixner(1, 3, 2, F(1, 4)) == F(-7, 2)

    def test_three_term_against_brute_force(self):
        expected = brute_force_meixner(2, F(2), F(2), F(1, 4))
        assert meixner(2, 2, 2, F(1, 4)) == expected

    @pytest.mark.parametrize("n", range(5))
    @pytest.mark.parametrize("x", [0, 1, 4, F(5, 2)])
    def test_matches_brute_force_grid(self, n, x):
        delta, c = F(5, 3), F(2, 7)
        assert meixner(n, x, delta, c) == brute_force_meixner(n, F(x), delta, c)

    def test_self_duality(self):
        delta, c = F(3, 2), F(1, 3)
        for n in range(9):
            for x in range(9):
                assert meixner(n, x, delta, c) == meixner(x, n, delta, c)

    def test_zero_pochhammer_denominator_raises(self):
        with pytest.raises(ZeroDivisionError):
            meixner(2, F(1, 3), -1, F(1, 4))

    def test_zero_c_rejected(self):
        with pytest.raises(ZeroDivisionError):
            meixner(1, 1, 2, 0)


class TestMonicMeixner:
    def test_degree_zero(self):
        assert monic_meixner(0, 9, F(2), F(1, 4)) == 1

    def test_one_step(self):
        # m_1(x) = x - c * delta / (1 - c)
        assert monic_meixner(1, 0, 2, F(1, 4)) == F(-2, 3)

    def test_normalization_links_to_hypergeometric_form(self):
        delta, c = F(2), F(1, 4)
        for n in range(7):
            scale = ((c - 1) / c) ** n / pochhammer(delta, n)
            for x in (0, 1, 2, 5, F(7, 3)):
                assert scale * monic_meixner(n, x, delta, c) == meixner(n, x, delta, c)

    def test_leading_coefficient_is_one(self):
        # n-th forward difference at integer nodes equals n! * (leading coeff)
        delta, c = F(7, 4), F(2, 5)
        for n in range(1, 6):
            values = [monic_meixner(n, x, delta, c) for x in range(n + 1)]
            for _ in range(n):
                values = [b - a for a, b in zip(values, values[1:])]
            assert values == [math.factorial(n)]

    def test_c_equal_one_rejected(self):
        with pytest.raises(ZeroDivisionError):
            monic_meixner(1, 0, 2, 1)


class TestKrawtchouk:
    def test_degree_zero(self):
        assert krawtchouk(0, 3, F(1, 2), 4) == 1

    def test_linear_example(self):
        # 1 - x / (p N)
        assert krawtchouk(1, 1, F(1, 2), 4) == F(1, 2)

    def test_zero_variable(self):
        assert krawtchouk(2, 0, F(3, 7), 5) == 1

    def test_self_duality(self):
        p, N = F(1, 3), 8
        for n in range(N + 1):
            for x in range(N + 1):
                assert krawtchouk(n, x, p, N) == krawtchouk(x, n, p, N)

    def test_degree_beyond_N_rejected(self):
        with pytest.raises(ValueError):
            krawtchouk(5, 1, F(1, 2), 4)

    def test_level_zero_allowed(self):
        # degenerate N = 0 slot shows up in composite closed forms
        assert krawtchouk(0, 0, F(1, 2), 0) == 1


def hyp2f1_by_definition(n, x, delta, z):
    """2F1(-n, -x; delta; z) summed from the definition, each term's
    Pochhammer products built afresh.  The series ends at the first term
    whose numerator vanishes; a live term over a vanishing denominator is a
    ZeroDivisionError."""
    total = F(0)
    for j in range(n + 1):
        num, den = F(1), F(1)
        for l in range(j):
            num *= (l - n) * (l - x) * z
            den *= (delta + l) * (l + 1)
        if num == 0:
            break
        total += num / den
    return total


RATIONALS = st.fractions(min_value=-4, max_value=6, max_denominator=6)
POINTS = st.one_of(st.integers(min_value=0, max_value=8), RATIONALS)
NONZERO = RATIONALS.filter(lambda v: v != 0)


class TestHypergeometricDefinition:
    """meixner and krawtchouk against the 2F1 definition summed in Fractions."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=7), POINTS, RATIONALS, NONZERO)
    def test_meixner_matches_definition(self, n, x, delta, c):
        try:
            expected = hyp2f1_by_definition(n, F(x), delta, 1 - 1 / c)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError, match="vanishing Pochhammer factor"):
                meixner(n, x, delta, c)
        else:
            assert meixner(n, x, delta, c) == expected

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=4), POINTS, NONZERO
    )
    def test_krawtchouk_matches_definition(self, n, beyond, x, p):
        N = n + beyond
        assert krawtchouk(n, x, p, N) == hyp2f1_by_definition(n, F(x), F(-N), 1 / p)

    def test_integer_point_below_the_degree_stops_early(self):
        # (-x)_j vanishes from j = x + 1 on, before the vanishing (-3)_4
        value = meixner(6, 2, -3, F(2, 5))
        assert value == hyp2f1_by_definition(6, F(2), F(-3), F(-3, 2))
        assert value == 1 + F(-6 * -2, -3) * F(-3, 2) + F(30 * 2, -3 * -2 * 2) * F(9, 4)
        assert krawtchouk(5, 1, F(1, 3), 5) == 1 + F(-5 * -1, -5) * 3

    def test_c_equal_one_sums_to_one(self):
        # z = 1 - 1/c = 0 kills every term past the first, before any
        # denominator factor is read
        assert meixner(5, F(7, 3), F(1, 2), 1) == 1
        assert meixner(3, F(7, 3), 0, 1) == 1

    def test_vanishing_denominator_message(self):
        with pytest.raises(
            ZeroDivisionError, match=r"^vanishing Pochhammer factor in denominator at j=2$"
        ):
            meixner(2, F(1, 3), -1, F(1, 4))

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError, match="^degree must be non-negative$"):
            meixner(-1, 1, 2, F(1, 4))
        with pytest.raises(ValueError, match="^degree must be non-negative$"):
            krawtchouk(-1, 1, F(1, 2), 4)
