"""Orthochronous pseudo-rotation matrices over exact rationals.

A valid parameter matrix L of size (d+1) x (d+1) satisfies
transpose(L) @ eta @ L == eta with eta = diag(1, ..., 1, -1) and has
bottom-right entry >= 1.  Boosts and rotations are parametrized by
rationals (t for boosts with cosh = (t + 1/t)/2, s for rotations with
cos = (1 - s^2)/(1 + s^2)) so that every generated entry is exactly
rational and all downstream identity checks can demand discrepancy zero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence, Tuple

from .errors import NonGenericMatrix, NotOrthochronous, NotPseudoOrthogonal, PreconditionError
from .numerics import _scaled_list, as_rational, rational_str

Row = Tuple[Fraction, ...]
Entries = Tuple[Row, ...]


@dataclass(frozen=True)
class PseudoRotation:
    """Validated orthochronous pseudo-rotation.  Construct via validate()."""

    d: int
    entries: Entries

    def entry(self, row: int, col: int) -> Fraction:
        """1-based accessor matching the usual index convention."""
        return self.entries[row - 1][col - 1]

    @property
    def size(self) -> int:
        return self.d + 1

    def __str__(self) -> str:
        rows = ["[" + ", ".join(rational_str(x) for x in row) + "]" for row in self.entries]
        return "[" + ", ".join(rows) + "]"


def _coerce_entries(matrix: Sequence[Sequence]) -> Entries:
    rows = tuple(tuple(as_rational(x) for x in row) for row in matrix)
    size = len(rows)
    if size < 2 or any(len(row) != size for row in rows):
        raise NotPseudoOrthogonal("matrix must be square of size (d+1) >= 2")
    return rows


def validate(matrix: Sequence[Sequence]) -> PseudoRotation:
    """Check both defining invariants exactly and wrap the matrix."""
    rows = _coerce_entries(matrix)
    denom, nums = _scaled_list([x for row in rows for x in row])
    size = len(rows)
    return _checked(rows, [nums[r * size : (r + 1) * size] for r in range(size)], denom)


def _checked(rows: Entries, nums, denom: int) -> PseudoRotation:
    """Wrap ``rows``, given also as the integer rows ``nums`` over
    ``denom``, after checking transpose(N) @ eta @ N == denom^2 eta and
    N[d][d] >= denom in integers; a failure names the rational entry."""
    size = len(rows)
    d = size - 1
    square = denom * denom
    cols = list(zip(*nums))
    signed = [col[:d] + (-col[d],) for col in cols]  # eta @ N by column
    for a in range(size):
        for b in range(a, size):
            acc = sum(map(mul, signed[a], cols[b]))
            expected = (-1 if a == d else 1) if a == b else 0
            if acc != expected * square:
                raise NotPseudoOrthogonal(
                    f"metric condition fails at ({a + 1},{b + 1}): "
                    f"got {Fraction(acc, square)}, want {expected}"
                )
    if nums[d][d] < denom:
        raise NotOrthochronous(f"bottom-right entry {rows[d][d]} is below 1")
    return PseudoRotation(d=d, entries=rows)


def identity(d: int) -> PseudoRotation:
    size = d + 1
    rows = tuple(
        tuple(Fraction(1) if a == b else Fraction(0) for b in range(size))
        for a in range(size)
    )
    return PseudoRotation(d=d, entries=rows)


def inverse_tilde(lam: PseudoRotation) -> PseudoRotation:
    """The inverse eta @ transpose(L) @ eta; composing with it gives identity."""
    size = lam.size
    d = lam.d
    rows = []
    for a in range(size):
        sign_a = -1 if a == d else 1
        row = []
        for b in range(size):
            sign_b = -1 if b == d else 1
            row.append(sign_a * sign_b * lam.entries[b][a])
        rows.append(tuple(row))
    return PseudoRotation(d=d, entries=tuple(rows))


def boost_trig(t: Fraction) -> Tuple[Fraction, Fraction]:
    """(cosh, sinh) = ((t + 1/t)/2, (t - 1/t)/2) of the boost parameter t."""
    return (t + 1 / t) / 2, (t - 1 / t) / 2


def rotation_trig(s: Fraction) -> Tuple[Fraction, Fraction]:
    """(cos, sin) = ((1 - s^2), 2s)/(1 + s^2) of the rotation parameter s."""
    denom = 1 + s * s
    return (1 - s * s) / denom, 2 * s / denom


def require_boost_param(t) -> Fraction:
    """The boost parameter of a closed form as a rational, rejected unless
    it is positive and not the identity t = 1."""
    t = as_rational(t)
    if t <= 0 or t == 1:
        raise PreconditionError(f"boost parameter must be positive and != 1, got {t}")
    return t


def require_rotation_param(s) -> Fraction:
    """The rotation parameter of a closed form as a rational, rejected at
    s = 0 (the identity) and s = +-1 (a quarter turn, cos = 0)."""
    s = as_rational(s)
    if s == 0 or s * s == 1:
        raise PreconditionError(f"rotation parameter must avoid {{0, 1, -1}}, got {s}")
    return s


def boost(plane: Tuple[int, int], t, d: int) -> PseudoRotation:
    """Hyperbolic element in the (i, d+1) plane with rational parameter t > 0.

    t = 1 is the identity; inverting t flips the sign of the sinh block.
    """
    i, j = plane
    if not (1 <= i <= d and j == d + 1):
        raise ValueError(f"boost plane must be (i, d+1) with 1 <= i <= d, got {plane}")
    t = as_rational(t)
    if t <= 0:
        raise ValueError(f"boost parameter must be positive, got {t}")
    ch, sh = boost_trig(t)
    rows = [list(row) for row in identity(d).entries]
    a, b = i - 1, j - 1
    rows[a][a] = ch
    rows[a][b] = sh
    rows[b][a] = sh
    rows[b][b] = ch
    return PseudoRotation(d=d, entries=tuple(tuple(r) for r in rows))


def rotation(plane: Tuple[int, int], s, d: int) -> PseudoRotation:
    """Elliptic element in a spacelike (i, j) plane, i < j <= d.

    The rational parameter s gives cos = (1 - s^2)/(1 + s^2) and
    sin = 2s/(1 + s^2); planes touching the timelike axis are rejected
    (boosts cover those).
    """
    i, j = plane
    if not (1 <= i < j <= d):
        raise ValueError(
            f"rotation plane must satisfy 1 <= i < j <= d (spacelike), got {plane}"
        )
    cos, sin = rotation_trig(as_rational(s))
    rows = [list(row) for row in identity(d).entries]
    a, b = i - 1, j - 1
    rows[a][a] = cos
    rows[a][b] = sin
    rows[b][a] = -sin
    rows[b][b] = cos
    return PseudoRotation(d=d, entries=tuple(tuple(r) for r in rows))


def compose(a: PseudoRotation, b: PseudoRotation) -> PseudoRotation:
    """Exact matrix product a @ b, revalidated; the product and its checks
    run on the integer numerators of each factor over its one denominator."""
    if a.d != b.d:
        raise ValueError(f"dimension mismatch: {a.d} vs {b.d}")
    size = a.size
    da, na = _scaled_list([x for row in a.entries for x in row])
    db, nb = _scaled_list([x for row in b.entries for x in row])
    cols = [nb[c::size] for c in range(size)]
    nums = [[sum(map(mul, na[r * size : (r + 1) * size], col)) for col in cols] for r in range(size)]
    denom = da * db
    rows = tuple(tuple(Fraction(v, denom) for v in row) for row in nums)
    return _checked(rows, nums, denom)


def is_generic(lam: PseudoRotation) -> bool:
    """True iff every entry of the last row and last column is nonzero.

    That is exactly the condition under which the generic evaluation
    formulas (u-parameters, raising steps, recurrences) have nonzero
    denominators.
    """
    size = lam.size
    last = size - 1
    for a in range(size):
        if lam.entries[a][last] == 0 or lam.entries[last][a] == 0:
            return False
    return True


def require_generic(lam: PseudoRotation) -> PseudoRotation:
    if not is_generic(lam):
        raise NonGenericMatrix(
            "matrix has a zero in its last row or column; generic formulas divide by those entries"
        )
    return lam


def determinant(lam: PseudoRotation) -> Fraction:
    """Exact determinant via fraction-free row reduction at this small size."""
    size = lam.size
    work = [list(row) for row in lam.entries]
    det = Fraction(1)
    for col in range(size):
        pivot_row = next((r for r in range(col, size) if work[r][col] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            det = -det
        pivot = work[col][col]
        det *= pivot
        for r in range(col + 1, size):
            factor = work[r][col] / pivot
            if factor:
                for c in range(col, size):
                    work[r][c] -= factor * work[col][c]
    return det


@dataclass(frozen=True)
class SubgroupParam:
    """One factor of a product decomposition: a boost or a rotation."""

    kind: str  # "boost" | "rotation"
    plane: Tuple[int, int]
    value: Fraction

    def __post_init__(self):
        if self.kind not in ("boost", "rotation"):
            raise ValueError(f"unknown subgroup kind {self.kind!r}")
        object.__setattr__(self, "value", as_rational(self.value))

    def element(self, d: int) -> PseudoRotation:
        if self.kind == "boost":
            return boost(self.plane, self.value, d)
        return rotation(self.plane, self.value, d)


def product_of(params: Sequence[SubgroupParam], d: int) -> PseudoRotation:
    """Left-to-right product of subgroup factors (first factor leftmost)."""
    result = identity(d)
    for p in params:
        result = compose(result, p.element(d))
    return result


def matrix_to_json_obj(lam: PseudoRotation) -> dict:
    """The matrix file schema: {"d": int, "entries": [["p/q", ...], ...]}."""
    return {
        "d": lam.d,
        "entries": [[rational_str(x) for x in row] for row in lam.entries],
    }


def matrix_from_json_obj(obj) -> PseudoRotation:
    if not isinstance(obj, dict) or "d" not in obj or "entries" not in obj:
        raise NotPseudoOrthogonal('matrix JSON must be {"d": ..., "entries": [[...]]}')
    d = obj["d"]
    entries = obj["entries"]
    if not isinstance(d, int) or len(entries) != d + 1:
        raise NotPseudoOrthogonal("matrix JSON entries do not match declared d")
    return validate(entries)


def matrix_to_json(lam: PseudoRotation) -> str:
    return json.dumps(matrix_to_json_obj(lam))


def matrix_from_json(text: str) -> PseudoRotation:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NotPseudoOrthogonal(f"matrix file is not valid JSON: {exc}") from exc
    return matrix_from_json_obj(obj)
