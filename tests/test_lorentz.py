import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from multimeixner.errors import NotOrthochronous, NotPseudoOrthogonal
from multimeixner.harness import random_matrix
from multimeixner.lorentz import (
    PseudoRotation,
    SubgroupParam,
    boost,
    compose,
    determinant,
    identity,
    inverse_tilde,
    is_generic,
    matrix_from_json,
    matrix_to_json,
    product_of,
    rotation,
    validate,
)


def matmul(a, b):
    size = len(a)
    return [
        [sum(a[r][m] * b[m][c] for m in range(size)) for c in range(size)]
        for r in range(size)
    ]


class TestValidate:
    def test_identity_valid(self):
        lam = validate([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert lam.d == 2

    def test_boost_block_valid(self):
        lam = validate([[F(5, 4), 0, F(3, 4)], [0, 1, 0], [F(3, 4), 0, F(5, 4)]])
        assert lam.entry(1, 1) == F(5, 4)

    def test_eta_not_orthochronous(self):
        with pytest.raises(NotOrthochronous):
            validate([[1, 0, 0], [0, 1, 0], [0, 0, -1]])

    def test_metric_violation(self):
        with pytest.raises(NotPseudoOrthogonal):
            validate([[1, 0, 0], [0, 1, 1], [0, 0, 1]])

    @pytest.mark.parametrize("rows, text", [
        ([[1, 0, 0], [0, 1, 1], [0, 0, 1]], "metric condition fails at (2,3): got 1, want 0"),
        ([[F(1, 2), 0, 0], [0, 1, 0], [0, 0, 1]], "metric condition fails at (1,1): got 1/4, want 1"),
        ([[F(5, 4), 0, F(-3, 4)], [0, 1, 0], [F(3, 4), 0, F(5, 4)]],
         "metric condition fails at (1,3): got -15/8, want 0"),
        ([[F(-5, 4), 0, F(3, 4)], [0, 1, 0], [F(3, 4), 0, F(-5, 4)]],
         "bottom-right entry -5/4 is below 1"),
    ])
    def test_refusal_names_the_rational_entry(self, rows, text):
        with pytest.raises((NotPseudoOrthogonal, NotOrthochronous)) as info:
            validate(rows)
        assert str(info.value) == text

    def test_non_square_rejected(self):
        with pytest.raises(NotPseudoOrthogonal):
            validate([[1, 0, 0], [0, 1, 0]])


class TestInverseTilde:
    def test_identity(self):
        lam = identity(2)
        assert inverse_tilde(lam).entries == lam.entries

    def test_boost_parameter_inverts(self):
        assert inverse_tilde(boost((1, 3), 2, 2)).entries == boost((1, 3), F(1, 2), 2).entries

    def test_defining_property(self):
        for seed in (3, 8, 15):
            lam = random_matrix(seed, 2, 4)
            assert compose(lam, inverse_tilde(lam)).entries == identity(2).entries

    def test_involution(self):
        lam = random_matrix(5, 2, 4)
        assert inverse_tilde(inverse_tilde(lam)).entries == lam.entries


class TestBoost:
    def test_unit_parameter_is_identity(self):
        assert boost((1, 3), 1, 2).entries == identity(2).entries

    def test_first_plane_entries(self):
        lam = boost((1, 3), 2, 2)
        assert lam.entry(1, 1) == lam.entry(3, 3) == F(5, 4)
        assert lam.entry(1, 3) == lam.entry(3, 1) == F(3, 4)
        assert lam.entry(2, 2) == 1

    def test_second_plane_entries(self):
        lam = boost((2, 3), 3, 2)
        assert lam.entry(2, 2) == lam.entry(3, 3) == F(5, 3)
        assert lam.entry(2, 3) == lam.entry(3, 2) == F(4, 3)

    def test_nonpositive_parameter_rejected(self):
        with pytest.raises(ValueError):
            boost((1, 3), 0, 2)
        with pytest.raises(ValueError):
            boost((1, 3), -2, 2)

    def test_bad_plane_rejected(self):
        with pytest.raises(ValueError):
            boost((1, 2), 2, 2)


class TestRotation:
    def test_zero_parameter_is_identity(self):
        assert rotation((1, 2), 0, 2).entries == identity(2).entries

    def test_pythagorean_values(self):
        lam = rotation((1, 2), F(1, 2), 2)
        assert lam.entry(1, 1) == F(3, 5)
        assert lam.entry(1, 2) == F(4, 5)
        assert lam.entry(2, 1) == F(-4, 5)

    def test_quarter_turn(self):
        lam = rotation((1, 2), 1, 2)
        assert lam.entry(1, 1) == 0
        assert lam.entry(1, 2) == 1

    def test_timelike_plane_rejected(self):
        with pytest.raises(ValueError):
            rotation((1, 3), F(1, 2), 2)


class TestCompose:
    def test_right_identity(self):
        lam = boost((1, 3), 2, 2)
        assert compose(lam, identity(2)).entries == lam.entries

    def test_boost_parameters_multiply(self):
        assert compose(boost((1, 3), 2, 2), boost((1, 3), 3, 2)).entries == boost(
            (1, 3), 6, 2
        ).entries

    def test_canonical_product_matches_plain_matmul(self, canonical_matrix):
        factors = [
            rotation((1, 2), F(1, 2), 2),
            boost((2, 3), 2, 2),
            rotation((1, 2), F(2, 3), 2),
        ]
        expected = [list(row) for row in factors[0].entries]
        for factor in factors[1:]:
            expected = matmul(expected, [list(row) for row in factor.entries])
        assert [list(row) for row in canonical_matrix.entries] == expected
        assert all(x != 0 for row in canonical_matrix.entries for x in row)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compose(identity(2), identity(3))

    @pytest.mark.parametrize("seeds", [(1, 2), (42, 7), (5, 99)])
    def test_random_products_match_plain_matmul(self, seeds):
        a, b = (random_matrix(s, 3, 4) for s in seeds)
        product = compose(a, b)
        assert [list(row) for row in product.entries] == matmul(a.entries, b.entries)
        assert all(type(x) is F for row in product.entries for x in row)

    @pytest.mark.parametrize("rows, error, text", [
        ([[1, 0, 0], [0, 1, F(1, 3)], [0, 0, 1]], NotPseudoOrthogonal,
         "metric condition fails at (1,1): got 17/16, want 1"),
        ([[-1, 0, 0], [0, 1, 0], [0, 0, -1]], NotOrthochronous,
         "bottom-right entry -5/4 is below 1"),
    ])
    def test_every_product_is_checked(self, rows, error, text):
        # a factor built without validate: the product is checked as
        # validate checks it, with the same texts
        forged = PseudoRotation(2, tuple(tuple(map(F, row)) for row in rows))
        with pytest.raises(error) as info:
            compose(forged, boost((1, 3), 2, 2))
        assert str(info.value) == text
        with pytest.raises(error) as info:
            validate(matmul(forged.entries, boost((1, 3), 2, 2).entries))
        assert str(info.value) == text

    def test_associative_on_triple(self):
        a = boost((1, 3), F(3, 2), 2)
        b = rotation((1, 2), F(2, 5), 2)
        c = boost((2, 3), F(7, 4), 2)
        assert compose(compose(a, b), c).entries == compose(a, compose(b, c)).entries


class TestGenericity:
    def test_identity_not_generic(self):
        assert not is_generic(identity(2))

    def test_single_boost_not_generic(self):
        assert not is_generic(boost((1, 3), 2, 2))

    def test_canonical_generic(self, canonical_matrix):
        assert is_generic(canonical_matrix)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_generated_products_are_valid_proper_and_deterministic(seed):
    lam = random_matrix(seed, 2, 4)
    again = random_matrix(seed, 2, 4)
    assert lam.entries == again.entries
    validate(lam.entries)  # does not raise
    assert determinant(lam) == 1
    assert is_generic(lam)


def test_retry_loop_terminates_generic_over_hundred_seeds():
    for seed in range(100):
        assert is_generic(random_matrix(seed, 2, 4))
        assert is_generic(random_matrix(seed, 3, 5))


def test_subgroup_product_order():
    params = [
        SubgroupParam("boost", (2, 3), F(2)),
        SubgroupParam("boost", (1, 3), F(3)),
    ]
    lam = product_of(params, 2)
    assert lam.entries == compose(boost((2, 3), 2, 2), boost((1, 3), 3, 2)).entries
    # left factor leaves the first row of the right factor's boost visible
    assert lam.entry(1, 2) == 0


def test_matrix_json_round_trip(canonical_matrix):
    text = matrix_to_json(canonical_matrix)
    obj = json.loads(text)
    assert obj["d"] == 2
    assert obj["entries"][2][2] == "5/4"
    back = matrix_from_json(text)
    assert back.entries == canonical_matrix.entries


def test_matrix_json_rejects_garbage():
    with pytest.raises(NotPseudoOrthogonal):
        matrix_from_json("{not json")
    with pytest.raises(NotPseudoOrthogonal):
        matrix_from_json(json.dumps({"d": 2, "entries": [["1"]]}))
