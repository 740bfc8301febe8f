import functools
import itertools
import math
import operator
import random
import sys
import time
from fractions import Fraction as F

import pytest

from multimeixner import harness, multivariate
from multimeixner.bivariate import MeixnerSystem, check_orthogonality, elliptic_me, monic_eval_gf
from multimeixner.cli import main
from multimeixner.errors import ModeError, NonConvergence, NonGenericMatrix, PreconditionError
from multimeixner.harness import random_matrix, random_system
from multimeixner.lorentz import boost, identity, rotation
from multimeixner.multivariate import (
    MeixnerSystemD,
    _simplex_lattice,
    check_difference_d,
    check_duality_d,
    check_lowering_d,
    check_addition_d,
    check_orthogonality_d,
    check_recurrence_d,
    element_reader,
    monic_eval_gf_d,
    monic_eval_hyp_d,
    monic_eval_raising_d,
    monic_poly_coeffs_d,
    orthonormal_eval_d,
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


class _Index:
    """An integer by ``__index__`` only."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    def __repr__(self):
        return f"_Index({self.value})"


class TestMultiIndex:
    """A tuple of d plain non-negative ints is taken as it is; every other
    input is converted entry by entry or refused with one message."""

    @pytest.mark.parametrize("value, d", [((3, 4), 2), ((0,), 1), ((1, 2, 3), 3)])
    def test_plain_tuple_is_returned_as_it_is(self, value, d):
        assert multivariate._as_multi_index(value, d, "point") is value

    @pytest.mark.parametrize("value, expected", [
        ((True, 2), (1, 2)),
        ((False, True), (0, 1)),
        ((_Index(3), 4), (3, 4)),
        ([3, 4], (3, 4)),
        (range(2), (0, 1)),
    ])
    def test_other_integer_sequences_are_converted(self, value, expected):
        idx = multivariate._as_multi_index(value, 2, "point")
        assert idx == expected and type(idx) is tuple
        assert [type(v) for v in idx] == [int, int]

    @pytest.mark.parametrize("value, d, shown", [
        ((3.0, 4), 2, "(3.0, 4)"),
        ((F(3), 4), 2, "(Fraction(3, 1), 4)"),
        ((3, "4"), 2, "(3, '4')"),
        ((-1, 4), 2, "(-1, 4)"),
        ((3, -4), 2, "(3, -4)"),
        ((_Index(-1), 2), 2, "(_Index(-1), 2)"),
        ((3, 4, 5), 2, "(3, 4, 5)"),
        ((3,), 2, "(3,)"),
        ((), 2, "()"),
        ([], 1, "[]"),
        (3, 2, "3"),
        (None, 2, "None"),
        ("34", 2, "'34'"),
    ])
    def test_anything_else_is_refused_with_one_message(self, value, d, shown):
        with pytest.raises(ValueError) as info:
            multivariate._as_multi_index(value, d, "point")
        assert str(info.value) == f"point must be {d} non-negative integers, got {shown}"


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
                assert weight_d(sysd, (i, k)) == weight_d(sys2, (i, k))

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
    def test_one_normalisation_from_the_tables_own_beta(self, d, factors):
        # beta = 7/3 puts q = 3 into the rising products of both routes'
        # normalisations; the raising table clears its own from beta, and
        # the store stays empty
        sysd = MeixnerSystemD(F(7, 3), random_matrix(13, d, factors))
        fresh = MeixnerSystemD(F(7, 3), random_matrix(13, d, factors))
        degrees = [n for n in sorted(lattice((3,) * d)) if sum(n) <= 4]
        points = [x for x in sorted(lattice((2,) * d)) if sum(x) <= 3]
        for n in degrees:
            for x in points:
                assert monic_eval_raising_d(sysd, n, x) == monic_eval_gf_d(fresh, n, x)
        assert set(sysd._raising.dens) == set(degrees) and not sysd._gf_cache

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

    def test_bad_multi_index_messages(self, system_d3):
        with pytest.raises(ValueError) as short:
            monic_eval_gf_d(system_d3, (1, 0), (0, 0, 0))
        assert str(short.value) == "degrees must be 3 non-negative integers, got (1, 0)"
        with pytest.raises(ValueError) as negative:
            monic_eval_gf_d(system_d3, (1, 0, 0), [0, -1, 0])
        assert str(negative.value) == "point must be 3 non-negative integers, got [0, -1, 0]"
        # a rational or non-numeric entry is not read as the integer below it
        for route in (monic_eval_gf_d, monic_eval_raising_d, monic_eval_hyp_d):
            for entry in (1.5, F(3, 2), "1"):
                with pytest.raises(ValueError) as rational:
                    route(system_d3, (1, 0, 0), (entry, 0, 0))
                assert str(rational.value) == (
                    f"point must be 3 non-negative integers, got {(entry, 0, 0)!r}"
                )
            with pytest.raises(ValueError, match="degrees must be 3 non-negative integers"):
                route(system_d3, (1.0, 0, 0), (1, 0, 0))

    @pytest.mark.parametrize("d, seed", [(1, 42), (2, 7), (3, 31)])
    def test_fill_order_does_not_change_values(self, d, seed):
        # the table's box grows, and its columns refill, at other points in
        # each order; every order gives the oracle's values
        degrees = [n for n in lattice((3,) * d) if sum(n) <= 3]
        points = lattice((3,) * d)
        far = (0,) * (d - 1) + (12,)
        sweep = [(n, x) for n in degrees for x in points]
        orders = {
            "lattice": sweep,
            "reverse": sweep[::-1],
            "far point first": [(degrees[-1], far), *sweep, *((n, far) for n in degrees)],
        }
        oracle = random_system(seed, d, F(7, 3))
        for name, order in orders.items():
            system = random_system(seed, d, F(7, 3))
            for n, x in order:
                assert monic_eval_raising_d(system, n, x) == monic_eval_gf_d(oracle, n, x), name

    def test_float_values_after_a_sweep_are_single_point_values(self):
        # the system's table and the element reader's own one, each swept
        system = random_system(31, 3, F(7, 3), mode=ScalarMode.FLOAT)
        read = element_reader(system.beta, system.lam)
        cases = [(n, x) for n in _simplex_lattice(3, 3) for x in lattice((3, 2, 2))]
        swept = [(orthonormal_eval_d(system, n, x), read(x, n)) for n, x in cases]

        def fresh():
            return multivariate._RaisingTable(system.beta, system.lam)

        single = [(fresh().orthonormal(n, x), fresh().matrix_element(x, n)) for n, x in cases]
        assert swept == single

    @pytest.mark.parametrize("n, x", [((40, 0, 0), (0, 0, 500)), ((6, 9), (3, 300))])
    def test_lone_far_point_keeps_band_limited_work(self, n, x):
        # the column at shift s spans [max(0, x - s), x]; degree zero holds
        # no column, and a fill from the origin would hold 501 or 1204
        # cells a shift
        system = random_system(31, len(n))
        monic_eval_raising_d(system, n, x)
        held = sum(map(len, system._raising.columns.values()))
        assert held <= sum(math.prod(min(v, s) + 1 for v in x) for s in range(sum(n)))

    def test_far_point_after_a_sweep_restarts_the_box(self, monkeypatch):
        # grown to take (0, 400) in, the box would hold 4 x 401 cells over
        # 30 columns, past the budget: the box restarts at the point and
        # keeps its band, as a lone point does
        monkeypatch.setattr(multivariate, "POINT_BUDGET", 10_000)
        system = random_system(42, 2, F(7, 3))
        for x in lattice((3, 3)):
            monic_eval_raising_d(system, (1, 0), x)
        n, far = (30, 0), (0, 400)
        value = monic_eval_raising_d(system, n, far)
        assert (system._raising.lo, system._raising.hi) == (far, far)
        held = sum(map(len, system._raising.columns.values()))
        assert held <= sum(math.prod(min(v, s) + 1 for v in far) for s in range(sum(n)))
        assert value == monic_eval_raising_d(random_system(42, 2, F(7, 3)), n, far)
        near = ((1, 0), (3, 3))
        assert monic_eval_raising_d(system, *near) == monic_eval_gf_d(system, *near)

    @pytest.mark.parametrize("d, seed", [(2, 42), (3, 31)])
    def test_a_level_row_is_the_one_point_elements(self, monkeypatch, d, seed):
        # each element of a level must be the float of a one-point call on
        # a table fresh for the level, bit for bit; the stream fills |n|
        # cells a point, so a budget of exactly the cells of 30 levels at
        # |n| = 2 lets them through and refuses the next by its count
        lam = random_matrix(seed, d)
        degrees = [(1,) + (0,) * (d - 1), (0,) * (d - 1) + (2,), (0,) * d]
        streams = [multivariate._RaisingTable(F(7, 3), lam).levels(n) for n in degrees]
        monkeypatch.setattr(multivariate, "POINT_BUDGET", 2 * math.comb(29 + d, d))
        for level in range(30):
            points = [x for x in _simplex_lattice(level, d) if sum(x) == level]
            for stream, n in zip(streams, degrees):
                fresh = multivariate._RaisingTable(F(7, 3), lam)
                assert next(stream) == [fresh.matrix_element(x, n) for x in points]
        # level 30 is within the budget at degrees (1, 0..) and zero
        assert [len(next(streams[a])) for a in (0, 2)] == [math.comb(29 + d, d - 1)] * 2
        with pytest.raises(PreconditionError, match=f"would fill {2 * math.comb(30 + d, d)} cells"):
            next(streams[1])

    def test_a_stream_past_the_budget_is_refused(self, monkeypatch):
        # degree (20, 20) fills 40 cells a point: levels 0..21 hold 253
        # points, 10,120 cells, past a budget of 10,000
        monkeypatch.setattr(multivariate, "POINT_BUDGET", 10_000)
        stream = multivariate._RaisingTable(F(7, 3), random_matrix(31, 2)).levels((20, 20))
        for _ in range(21):
            next(stream)
        with pytest.raises(PreconditionError, match="would fill 10120 cells") as refusal:
            next(stream)
        assert "; " not in str(refusal.value) and "--route" not in str(refusal.value)

    def test_the_held_columns_stay_within_the_budget(self):
        # degrees (k, 0), k = 1..60, at (60, 60) each fill a chain of their
        # own, at most 73,810 cells; kept, they would hold 1,153,510
        lam = random_matrix(31, 2)
        system = MeixnerSystemD(F(7, 3), lam)
        values, held = [], []
        for k in range(1, 61):
            values.append(monic_eval_raising_d(system, (k, 0), (60, 60)))
            held.append(sum(map(len, system._raising.columns.values())))
        assert max(held) <= multivariate.POINT_BUDGET
        assert min(map(operator.sub, held[1:], held)) < 0  # the columns were dropped
        fresh = [monic_eval_raising_d(MeixnerSystemD(F(7, 3), lam), (k, 0), (60, 60))
                 for k in range(1, 61)]
        assert values == fresh

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_the_price_counts_the_band_of_every_shift(self, d):
        rng = random.Random(d)
        for _ in range(300):
            lo = tuple(rng.randint(0, 12) for _ in range(d))
            hi = tuple(c + rng.randint(0, 5) for c in lo)
            top = rng.randint(0, 30)
            brute = sum(math.prod(h - max(0, c - s) + 1 for c, h in zip(lo, hi)) for s in range(top))
            assert multivariate._raising_cells(lo, hi, top) == brute

    @pytest.mark.parametrize("n, x, cells", [
        ((20, 20), (50, 50), 22_140),
        ((5, 5, 5), (20, 20, 20), 14_400),
    ])
    def test_a_fill_past_the_budget_is_refused(self, monkeypatch, n, x, cells):
        # the bands [x - s, x] of the shifts s < |n|, sum_s (s + 1)^d; a
        # small budget keeps a regression cheap (the CLI cases run in a
        # child process, in test_cli)
        monkeypatch.setattr(multivariate, "POINT_BUDGET", 10_000)
        system = random_system(31, len(n))
        with pytest.raises(PreconditionError, match=f"would fill {cells} cells") as refusal:
            monic_eval_raising_d(system, n, x)
        assert "--route raising" not in str(refusal.value)
        assert not system._raising.columns

    def test_a_longer_chain_on_a_priced_box_is_priced(self, monkeypatch):
        # the box (50, 50) fits degree (1, 1); degree (20, 20) on the same
        # box is priced before it fills, and the table still serves
        monkeypatch.setattr(multivariate, "POINT_BUDGET", 10_000)
        system = random_system(31, 2)
        small = monic_eval_raising_d(system, (1, 1), (50, 50))
        with pytest.raises(PreconditionError, match="would fill 22140 cells"):
            monic_eval_raising_d(system, (20, 20), (50, 50))
        assert small == monic_eval_raising_d(system, (1, 1), (50, 50))
        assert small == monic_eval_hyp_d(system, (1, 1), (50, 50))


class TestHypRoute:
    """The hypergeometric route in d variables against the oracle on a
    fresh system: every degree of total at most 3 (at d = 1, up to 7) at
    every point of a cube."""

    @pytest.mark.parametrize("lam, beta, side", [
        pytest.param(boost((1, 2), 2, 1), F(7, 3), 9, id="d1"),
        pytest.param(random_matrix(7, 3, 5), 2, 3, id="d3-seed7"),
        pytest.param(random_matrix(31, 3, 5), F(7, 3), 3, id="d3-seed31"),
        pytest.param(random_matrix(9, 4, 5), 2, 2, id="d4-seed9"),
    ])
    def test_agrees_with_oracle(self, lam, beta, side):
        sysd, oracle = MeixnerSystemD(beta, lam), MeixnerSystemD(beta, lam)
        top = 7 if lam.d == 1 else 3
        for n in _simplex_lattice(top, lam.d):
            for x in lattice((side,) * lam.d):
                assert monic_eval_hyp_d(sysd, n, x) == monic_eval_gf_d(oracle, n, x)
        assert set(sysd._hyp) == set(_simplex_lattice(top, lam.d))

    @pytest.mark.parametrize("d, seed", [(1, 5), (2, 42), (3, 7)])
    def test_a_partial_contraction_never_outlives_its_tensor(self, d, seed):
        # each order grows the tensors, and so drops the kept prefix
        # contractions, at other points; every value is the oracle's and a
        # lone call's on a fresh system
        degrees = [n for n in _simplex_lattice(3, d) if sum(n) == 3][:3]
        points = lattice((3,) * d)
        far = (1,) * (d - 1) + (9,)
        sweep = [(n, x) for n in degrees for x in points]
        low, high, again = (1,) * (d - 1) + (0,), (1,) * (d - 1) + (5,), (1,) * d
        orders = {
            "sweep": sweep,
            "reverse": sweep[::-1],
            "far point first": [(n, far) for n in degrees] + sweep,
            "same prefix across a regrowth": [(n, x) for n in degrees for x in (low, high, again)],
        }
        template = random_system(seed, d, F(7, 3))
        oracle = MeixnerSystemD(template.beta, template.lam)
        lone = {}
        for name, order in orders.items():
            system = MeixnerSystemD(template.beta, template.lam)
            for n, x in order:
                value = monic_eval_hyp_d(system, n, x)
                assert value == monic_eval_gf_d(oracle, n, x), name
                if (n, x) not in lone:
                    lone[n, x] = monic_eval_hyp_d(MeixnerSystemD(template.beta, template.lam), n, x)
                assert value == lone[n, x], name

    def test_cached_rows_stay_cut_at_the_reach(self, canonical_matrix):
        # (-600)_t and (-500)_t are read only up to t = |n| = 3
        system = MeixnerSystem(2, canonical_matrix)
        value = monic_eval_hyp_d(system, (2, 1), (600, 500))
        assert value == monic_eval_raising_d(system, (2, 1), (600, 500))
        assert len(system._hyp.negs[600]) == len(system._hyp.negs[500]) == 3 + 1
        assert max(map(len, system._hyp.negs.values())) <= min(500, 3) + 1

    def test_large_degrees_agree_with_raising(self):
        # the second point of each degree builds the full tensor: (60, 60)
        # caps at (40, 20), (24, 24, 24) at (8, 8, 8)
        for n, points in [((40, 20), [(1, 2), (1, 3), (30, 25)]),
                          ((8, 8, 8), [(1, 2, 3), (5, 4, 6)])]:
            system = random_system(42, len(n), F(7, 3))
            for x in points:
                assert monic_eval_hyp_d(system, n, x) == monic_eval_raising_d(system, n, x)
            assert system._hyp[n][0] == (sum(n),) * len(n)

    def test_a_build_past_the_budget_is_refused(self):
        # 20,301 cells (r <= (200, 200), |r| <= 200) times 200 linear factors
        system = random_system(42, 2, 2)
        with pytest.raises(PreconditionError) as refusal:
            monic_eval_hyp_d(system, (100, 100), (250, 250))
        assert "4060200 cell products (20301 tensor cells times 200 linear factors)" in str(refusal.value)
        assert "--route raising" in str(refusal.value)
        assert not system._hyp
        # the full (60, 60) tensor, 7,381 cells times 120, is built
        caps, _den, tensor, _partials = system._hyp.entry((60, 60), (120, 120))
        assert caps == (120, 120) and sum(map(len, tensor)) == 7381


class TestPerDegreeConstants:
    """The raising table's monic denominator and the store's position are
    kept per degree; degrees asked in any order give a fresh system's
    values."""

    @pytest.mark.parametrize("d, seed", [(2, 42), (3, 7)])
    def test_interleaved_degrees_give_fresh_values(self, d, seed):
        template = random_system(seed, d, F(7, 3))
        degrees = [n for n in _simplex_lattice(3, d) if sum(n) in (1, 3)]
        high, low = degrees[-1], degrees[0]
        points = lattice((2,) * d)
        order = [high, low, high, *degrees[::-1], *degrees]
        system = MeixnerSystemD(template.beta, template.lam)
        for n in order:
            for x in points:
                fresh = MeixnerSystemD(template.beta, template.lam)
                assert monic_eval_raising_d(system, n, x) == monic_eval_raising_d(fresh, n, x)
                assert monic_eval_gf_d(system, n, x) == monic_eval_gf_d(fresh, n, x)
        assert set(system._raising.dens) == set(system._gf_cache.positions) == set(degrees)


class _Untouchable:
    """Stands in for a generating-function store: any attribute read fails."""

    def __getattribute__(self, name):
        raise AssertionError(f"a route read the generating-function store's {name!r}")


class TestRouteIndependence:
    """The raising and hypergeometric routes read only their own tables:
    with the system's generating-function store replaced by one that fails
    on any read, their values are a fresh system's."""

    @pytest.mark.parametrize("d, seed", [(2, 42), (3, 7)])
    def test_raising_and_hyp_never_read_the_store(self, d, seed):
        template = random_system(seed, d, F(7, 3))
        system = MeixnerSystemD(template.beta, template.lam)
        system._gf_cache = _Untouchable()
        fresh = MeixnerSystemD(template.beta, template.lam)
        for n in _simplex_lattice(3, d):
            for x in lattice((2,) * d):
                assert monic_eval_raising_d(system, n, x) == monic_eval_raising_d(fresh, n, x)
                assert monic_eval_hyp_d(system, n, x) == monic_eval_hyp_d(fresh, n, x)
            assert monic_poly_coeffs_d(system, n) == monic_poly_coeffs_d(fresh, n)


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
    """The coefficients read from the hypergeometric tensor against a
    Vandermonde solve on the simplex and against the generating function
    off it."""

    @pytest.mark.parametrize("beta", [2, F(7, 3)], ids=["2", "7/3"])
    @pytest.mark.parametrize("d, top", [(1, 6), (2, 6), (3, 3), (4, 2)])
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

    @pytest.mark.parametrize("n", [(12, 10), (3, 3, 3)], ids=["12-10", "3-3-3"])
    def test_high_degree_matches_the_generating_function_far_out(self, n):
        d, top = len(n), sum(n)
        system = random_system(D3_SEED, d, F(7, 3), max(d, 4))
        coeffs = monic_poly_coeffs_d(system, n)
        for j in range(3):
            x = tuple(top + 1 + 2 * i + j for i in range(d))
            value = sum(c * math.prod(map(pow, x, mono)) for mono, c in coeffs.items())
            assert value == monic_eval_gf_d(system, n, x)

    def test_hyp_sweep_reuses_the_tensor_of_the_coefficients(self):
        system = random_system(D3_SEED, 3, 2, 4)
        n = (2, 1, 1)
        monic_poly_coeffs_d(system, n)
        assert not system._gf_cache  # no store point is filled
        entry = system._hyp[n]
        for x in _simplex_lattice(sum(n), 3):
            monic_eval_hyp_d(system, n, x)
        assert system._hyp[n] is entry


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

    def test_negative_degree_box_rejected(self, system_d3_float):
        with pytest.raises(ValueError, match="degree_box must be non-negative"):
            check_orthogonality_d(system_d3_float, -1, 1e-8)

    def test_point_budget_ends_the_d4_sum(self):
        # the weight tail at d = 4 is too long for the point budget: the
        # loop stops with NonConvergence instead of running on
        sysf = MeixnerSystemD(2, random_matrix(9, 4, 5), ScalarMode.FLOAT)
        start = time.perf_counter()
        with pytest.raises(NonConvergence, match="lattice points"):
            check_orthogonality_d(sysf, 1, 1e-7)
        assert time.perf_counter() - start < 10


class TestElementReader:
    @pytest.mark.parametrize("beta", [2, F(7, 3)], ids=["2", "7/3"])
    @pytest.mark.parametrize("s", [F(1, 2), F(-7, 3)], ids=["1/2", "-7/3"])
    def test_a_d3_rotation_is_the_elliptic_element(self, beta, s):
        # rotation:1,2:s leaves the third coordinate alone: its element at
        # ((i, k, l), (m, n, l)) is the d = 2 closed form, and exactly 0.0
        # where the third coordinates differ
        read = element_reader(beta, rotation((1, 2), s, 3))
        for i, k, m, n in itertools.product(range(4), repeat=4):
            ref = elliptic_me(beta, s, i, k, m, n)
            for l in range(3):
                got = read((i, k, l), (m, n, l))
                assert got == 0.0 if ref == 0.0 else got == pytest.approx(ref, rel=1e-13)
                assert read((i, k, l), (m, n, (l + 1) % 3)) == 0.0

    def test_rejects_a_point_of_another_arity(self):
        read = element_reader(2, random_matrix(31, 3))
        with pytest.raises(ValueError, match="point must be 3 non-negative integers"):
            read((1, 0), (0, 0, 0))


class TestAdditionD:
    """The addition formula at d = 1 and d = 3 on seed 2024's draws, and
    two tampered sums that each draw must fail."""

    @pytest.mark.parametrize("d", [1, 3])
    def test_seeded_draws_pass(self, d):
        report, = harness.run_suite(harness.SuiteConfig("addition", d=d))
        assert report.passed and float(report.max_abs_discrepancy) < 1e-10

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("tamper", ["beta", "tilde"])
    def test_a_tampered_sum_fails(self, monkeypatch, d, tamper):
        for A, B, *cell in harness.addition_tuples(2024, 10, d):
            if tamper == "beta":  # B's stream read at beta + 1/100
                table = multivariate._RaisingTable

                class Shifted(table):
                    def __init__(self, beta, lam, B=B):
                        super().__init__(beta + F(1, 100) if lam is B else beta, lam)

                monkeypatch.setattr(multivariate, "_RaisingTable", Shifted)
            else:  # A's own stream in place of A~'s
                monkeypatch.setattr(multivariate, "inverse_tilde", lambda lam: lam)
            report = check_addition_d(A, B, 2, cell[:d], cell[d:], 1e-8)
            monkeypatch.undo()
            assert not report.passed and report.counterexample == tuple(cell)


# Up to CPython 3.11 ``sum`` adds floats left to right, so the blocked Gram
# update repeats the point-by-point additions bit for bit.  From 3.12 it
# compensates them; the Gram entries are O(1) sums of at most about 5e4
# products, so the two orders may then differ by a few ulps times that
# count, far below this bound fixed in advance.
GRAM_SUM_TOL = 0.0 if sys.version_info < (3, 12) else 1e-12


def _cube_surface(shell, d):
    """Lattice points of [0, shell]^d with max coordinate exactly shell, in
    lexicographic order."""
    for prefix in itertools.product(range(shell + 1), repeat=d - 1):
        if shell in prefix:
            for last in range(shell + 1):
                yield prefix + (last,)
        else:
            yield prefix + (shell,)


@functools.lru_cache(maxsize=None)
def _collapse_terms(d, axis, k, room):
    """The monomials r of the d - 1 coordinates other than ``axis`` with
    |r| <= room, in graded order, each with its monomial of d coordinates
    that has k at ``axis``."""
    reduced = _simplex_lattice(room, d - 1) if d > 1 else [()]
    return [(r[:axis] + (k,) + r[axis:], r) for r in reduced]


def _collapsed_horner(rows, totals, index, x, axis):
    """The values at x of the polynomials with coefficients ``rows``
    (monomial positions in ``index``) and total degrees ``totals``, each
    collapsed onto ``axis``: C_k = sum of row[r with k at axis] times the
    value of r at the other coordinates, over their monomials r with
    |r| <= total - k in graded order, each value an earlier one times one
    coordinate; then Horner in x[axis] from k = total down."""
    fixed = x[:axis] + x[axis + 1 :]
    reduced = list(_simplex_lattice(max(totals), len(fixed))) if fixed else [()]
    value = {reduced[0]: 1.0}
    for r in reduced[1:]:
        i = next(i for i, v in enumerate(r) if v)
        value[r] = value[r[:i] + (r[i] - 1,) + r[i + 1 :]] * fixed[i]
    results = []
    for row, total in zip(rows, totals):
        collapsed = [
            sum(
                row[index[mono]] * value[r]
                for mono, r in _collapse_terms(len(x), axis, k, total - k)
            )
            for k in range(total + 1)
        ]
        result = collapsed[total]
        for c in reversed(collapsed[:total]):
            result = result * x[axis] + c
        results.append(result)
    return results


def _reference_gram_discrepancy(sys_, degrees, tol):
    """The Gram sum added point by point over each cube shell in
    lexicographic order, with the skip rule and stopping rule of
    ``multivariate._gram_discrepancy``, each value in the collapsed Horner
    form on the axis of the point's run."""
    d = sys_.d
    top = max(map(sum, degrees))
    monos = list(_simplex_lattice(top, d))
    index = {mono: pos for pos, mono in enumerate(monos)}
    mono_degrees = [sum(mono) for mono in monos]
    totals = [sum(n) for n in degrees]
    rows = []
    for n in degrees:
        row = [0.0] * math.comb(sum(n) + d, d)
        pref = multivariate._orthonormal_prefactor_d(sys_, n)
        for mono, c in monic_poly_coeffs_d(sys_, n).items():
            row[index[mono]] = pref * float(c)
        rows.append(row)
    mass = multivariate._LogMass(sys_.beta, sys_.lam)
    heads, axes = [], [[] for _ in range(d)]
    pairs = [(a, b) for a in range(len(degrees)) for b in range(a, len(degrees))]
    gram = [0.0] * len(pairs)
    threshold = tol / 100.0
    negligible = threshold * 1e-10
    shell = 0
    while True:
        assert shell <= multivariate.SHELL_CAP and (shell + 1) ** d <= multivariate.POINT_BUDGET
        heads += [mass.head(t) for t in range(len(heads), d * shell + 1)]
        for i, table in enumerate(axes):
            table.append(mass.axis(i, shell))
        bound = max(sum(abs(c) * shell**t for c, t in zip(row, mono_degrees)) for row in rows)
        bound_sq = bound * bound
        start = gram
        for x in _cube_surface(shell, d):
            wt = math.exp(heads[sum(x)] + sum(table[v] for table, v in zip(axes, x)))
            if wt * bound_sq < negligible:
                continue
            axis = 0 if d == 1 else d - 1 if shell in x[:-1] else d - 2
            values = _collapsed_horner(rows, totals, index, x, axis)
            weighted = [wt * v for v in values]
            contribs = [wa * vb for a, wa in enumerate(weighted) for vb in values[a:]]
            gram = [g + c for g, c in zip(gram, contribs)]
        if shell >= 1 and max(abs(new - old) for new, old in zip(gram, start)) < threshold:
            break
        shell += 1
    max_disc, first = 0.0, None
    for (a, b), entry in zip(pairs, gram):
        disc = abs(entry - (1.0 if a == b else 0.0))
        max_disc = max(max_disc, disc)
        if disc > tol and first is None:
            first = (degrees[a], degrees[b])
    return max_disc, first


class TestGramSum:
    @pytest.mark.parametrize("beta, lam, degrees, tol", [
        # d = 1: the shell walk has an empty prefix
        (2, random_matrix(5, 1, 3), [(n,) for n in range(4)], 1e-8),
        (2, harness.canonical_lambda(), lattice((2, 2)), 1e-8),
        (F(7, 3), random_matrix(7, 3, 5), sorted(_simplex_lattice(2, 3)), 1e-7),
    ], ids=["d1", "d2-canonical", "d3-seed7"])
    def test_matches_the_point_by_point_sum(self, beta, lam, degrees, tol):
        sysf = MeixnerSystemD(beta, lam, ScalarMode.FLOAT)
        max_disc, first = multivariate._gram_discrepancy(sysf, degrees, tol, "test")
        ref_disc, ref_first = _reference_gram_discrepancy(sysf, degrees, tol)
        assert first == ref_first
        assert max_disc == pytest.approx(ref_disc, rel=0, abs=GRAM_SUM_TOL)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_the_run_walk_is_the_shell_walk(self, d):
        for shell in range(6):
            runs = multivariate._shell_runs(shell, d)
            points = [head + (y,) + tail for head, ys, tail in runs for y in ys]
            assert points == list(_cube_surface(shell, d))

    @pytest.mark.parametrize("beta, lam, degrees", [
        (2, random_matrix(5, 1, 3), [(n,) for n in range(8)]),
        (2, harness.canonical_lambda(), lattice((4, 4))),
        (F(7, 3), random_matrix(7, 3, 5), sorted(_simplex_lattice(3, 3))),
    ], ids=["d1", "d2-canonical", "d3-seed7"])
    def test_run_columns_match_exact_values(self, beta, lam, degrees):
        # at shell 300 the monomials of degree 7 and up pass 2^53, so neither
        # the collapse nor the Horner steps are exact there
        sysf = MeixnerSystemD(beta, lam, ScalarMode.FLOAT)
        family = multivariate._GramFamily(sysf, degrees)
        exact = [monic_poly_coeffs_d(sysf, n) for n in degrees]
        prefactors = [multivariate._orthonormal_prefactor_d(sysf, n) for n in degrees]
        for shell in (0, 1, 7, 60, 150, 300):
            runs = list(multivariate._shell_runs(shell, sysf.d))
            bound = family.bound(shell)
            for head, ys, tail in runs[:: max(1, len(runs) // 5)]:
                ys = list(ys)[:: max(1, len(ys) // 4)]
                columns = family.values(len(head), head + tail, ys)
                assert len(columns) == len(degrees)
                for a, column in enumerate(columns):
                    for y, value in zip(ys, column):
                        x = head + (y,) + tail
                        poly = sum(c * math.prod(map(pow, x, mono)) for mono, c in exact[a].items())
                        assert abs(value - prefactors[a] * float(poly)) <= 1e-13 * bound

    def test_tampered_coefficient_fails_the_report(self, monkeypatch):
        # the constant term of R_(1,0) moved by 1/100: the family is no
        # longer orthogonal to degree zero
        def tampered(sys, n):
            coeffs = monic_poly_coeffs_d(sys, n)
            if n == (1, 0):
                coeffs[(0, 0)] += F(1, 100)
            return coeffs

        monkeypatch.setattr(multivariate, "monic_poly_coeffs_d", tampered)
        sysf = MeixnerSystem(2, harness.canonical_lambda(), ScalarMode.FLOAT)
        report = check_orthogonality(sysf, LatticeBox(0, 0, 1, 1), 1e-8)
        assert not report.passed
        assert report.counterexample == (0, 0, 1, 0)
        assert report.max_abs_discrepancy == pytest.approx(
            0.007832567422381188, rel=0, abs=GRAM_SUM_TOL
        )


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


class TestBrokenIdentityScanOrder:
    """Boxes in which many cells fail: ``u[i][j]`` shifted by 1/3 after
    construction at several (i, j), or left alone.  The exact discrepancy
    and the first counterexample in lattice order are pinned for every
    checker, so a slip in the scan order or in a denominator shows."""

    CASES = {
        "d2": (42, 2, F(7, 3), (4, 4), (5, 5)),
        "d3": (D3_SEED, 3, F(5, 2), (2, 2, 1), (2, 1, 2)),
    }

    @pytest.mark.parametrize(
        "case, spot, checker, disc, counter",
        [
            ("d2", None, check_recurrence_d, F(0), None),
            ("d2", None, check_difference_d, F(0), None),
            ("d2", None, check_lowering_d, F(0), None),
            ("d2", None, check_duality_d, F(0), None),
            (
                "d2", (0, 0), check_recurrence_d,
                F(23314012532082664710453099, 25593877257243349483520), (0, 0, 1, 0, 0),
            ),
            (
                "d2", (0, 0), check_difference_d,
                F(3041192590667606287709, 2739101218934685696), (1, 0, 0, 0, 0),
            ),
            (
                "d2", (0, 0), check_lowering_d,
                F(15058585716565914553571, 53551498488158601216), (1, 1, 1, 0, 1),
            ),
            (
                "d2", (0, 0), check_duality_d,
                F(2527620396950078485621, 25082167026079088640), (1, 0, 1, 0, 0),
            ),
            (
                "d2", (1, 0), check_recurrence_d,
                F(497701734123321459, 468752030236672), (0, 0, 0, 1, 0),
            ),
            (
                "d2", (1, 0), check_difference_d,
                F(17252599084651557, 86975474360320), (1, 0, 0, 0, 0),
            ),
            (
                "d2", (1, 0), check_lowering_d,
                F(101488427868518927, 189583417700352), (1, 1, 0, 1, 1),
            ),
            ("d2", (1, 0), check_duality_d, F(912365773715659, 6716011760640), (0, 1, 1, 0, 0)),
            (
                "d2", (1, 1), check_recurrence_d,
                F(606119242345882571, 2662083344793600), (0, 0, 0, 1, 0),
            ),
            (
                "d2", (1, 1), check_difference_d,
                F(2751276515081557, 25217000434080), (0, 1, 0, 0, 0),
            ),
            ("d2", (1, 1), check_lowering_d, F(7238336522575, 33757731072), (0, 2, 0, 1, 1)),
            ("d2", (1, 1), check_duality_d, F(19080448489, 102362624), (0, 1, 0, 1, 0)),
            ("d3", None, check_recurrence_d, F(0), None),
            ("d3", None, check_difference_d, F(0), None),
            ("d3", None, check_lowering_d, F(0), None),
            ("d3", None, check_duality_d, F(0), None),
            ("d3", (0, 0), check_recurrence_d, F(8527646375, 1378544832), (0, 0, 0, 1, 0, 0, 0)),
            ("d3", (0, 0), check_difference_d, F(18802381429, 5303568312), (1, 0, 0, 0, 0, 0, 0)),
            ("d3", (0, 0), check_lowering_d, F(149969144, 24553557), (1, 0, 1, 1, 0, 0, 2)),
            ("d3", (0, 0), check_duality_d, F(322245756404, 11515618233), (1, 0, 0, 1, 0, 0, 0)),
            ("d3", (1, 0), check_recurrence_d, F(7657, 9072), (0, 0, 0, 0, 1, 0, 0)),
            ("d3", (1, 0), check_difference_d, F(3202492991, 2052627075), (1, 0, 0, 0, 0, 0, 0)),
            ("d3", (1, 0), check_lowering_d, F(40692448, 27560115), (1, 0, 1, 0, 1, 0, 2)),
            ("d3", (1, 0), check_duality_d, F(337603408, 21210525), (0, 1, 0, 1, 0, 0, 0)),
            (
                "d3", (2, 2), check_recurrence_d,
                F(24012826332572543, 19608646624441875), (0, 0, 0, 0, 0, 1, 1),
            ),
            ("d3", (2, 2), check_difference_d, F(1454543633, 406822500), (0, 0, 1, 0, 0, 0, 0)),
            ("d3", (2, 2), check_lowering_d, F(3208, 2625), (0, 1, 1, 0, 0, 1, 1)),
            (
                "d3", (2, 2), check_duality_d,
                F(44614591981444, 5120439699375), (0, 0, 1, 0, 0, 1, 0),
            ),
        ],
    )
    def test_pinned_report(self, case, spot, checker, disc, counter):
        seed, d, beta, max_n, max_x = self.CASES[case]
        system = random_system(seed, d, beta)
        if spot is not None:
            u = [list(row) for row in system.u]
            u[spot[0]][spot[1]] += F(1, 3)
            system.u = tuple(map(tuple, u))
        report = checker(system, max_n, max_x)
        assert report.passed == (spot is None)
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

    @pytest.mark.parametrize(
        "seed, d, degrees, points",
        [
            (3, 1, [(0,), (2,), (5,)], [(0,), (4,), (7,)]),
            (42, 2, [(0, 0), (0, 3), (0, 1)], [(2, 3), (0, 0), (4, 1)]),
            (42, 2, [(2, 1), (1, 3), (0, 0)], [(3, 2), (1, 0)]),
            (D3_SEED, 3, [(1, 0, 2), (0, 2, 0), (1, 1, 1)], [(1, 1, 1), (2, 0, 3)]),
            (D3_SEED, 3, [], [(1, 2, 0), (0, 0, 0)]),
        ],
        ids=["d1", "d2-zero-axis", "d2", "d3", "d3-no-degrees"],
    )
    def test_capped_store_matches_the_system_store(self, seed, d, degrees, points):
        # a checker's store keeps only the n <= the largest degree on each
        # axis; the values it gives are those of the uncapped system store
        system = random_system(seed, d, F(7, 3))
        store = multivariate._store_of(system, degrees)
        assert store.cap == tuple(max((n[i] for n in degrees), default=0) for i in range(d))
        den, columns = multivariate._gf_values(store, degrees, points)
        assert list(columns) == degrees
        fresh = random_system(seed, d, F(7, 3))
        for n in degrees:
            assert len(columns[n]) == len(points)
            for x, value in zip(points, columns[n]):
                assert F(value, den) == monic_eval_gf_d(fresh, n, x)
        assert not system._gf_cache

    def test_lowering_at_degree_zero_reads_no_degrees(self):
        # the b table of the lowering checker holds every degree but the
        # largest, none at max degrees 0
        report = check_lowering_d(random_system(42, 2, F(7, 3)), (0, 0), (2, 3))
        assert report.passed and report.counterexample is None

    def test_cap_of_the_degree_or_more_shares_the_uncapped_layer(self):
        system = random_system(42, 2, F(7, 3))
        capped = multivariate._GfStore(2, system.beta, system.u, (3, 7))
        uncapped = multivariate._GfStore(2, system.beta, system.u)
        for t in range(4):
            assert capped.graded[t] is uncapped.graded[t]
        # at degree 5 the cap keeps n = (a, 5 - a) for a <= 3
        assert capped.graded[5] is not uncapped.graded[5]
        assert list(capped.graded[5][0]) == [(0, 5), (1, 4), (2, 3), (3, 2)]
        assert len(uncapped.graded[5][0]) == 6

    def test_capped_store_fills_what_the_uncapped_refuses(self, capsys):
        # 101 chain points up to degree 200: a cap of (200, 0) keeps 201
        # coefficients a point, 20,301 in all, where the uncapped store
        # would fill C(202, 2) = 20,301 a point, 2,050,401 in all, past
        # POINT_BUDGET
        system = random_system(42, 2, 2)
        store = multivariate._GfStore(2, system.beta, system.u, (200, 0))
        layers = store.layers((0, 100), 200)
        assert len(store) * store.cells(200) == 20301
        t, pos, scale = store.position((200, 0))
        value = F(layers[t][pos], scale * store.denom**100)
        assert value == monic_eval_raising_d(system, (200, 0), (0, 100))
        code = main(["eval", "--route", "gf", "--degrees", "200,0", "--point", "0,100"])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "2050401 coefficients (101 points up to degree 200)" in err
        assert "--route raising" in err
