"""Exact rational scalars, rising factorials, and truncated multivariate
power series.

Scalars are plain ``fractions.Fraction`` values: canonical lowest terms,
positive denominator, and a ``str()`` form that is exactly the "p/q"
serialization used in all file formats.  The truncated series and the
linear solve have no library caller: the tests check the routes against
them as independent oracles, and the benchmark tracer binds them.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence, Union

Rational = Fraction
RationalLike = Union[int, str, Fraction]


class ScalarMode(enum.Enum):
    """Arithmetic regime: exact rational, or IEEE-754 double precision
    (15-17 significant decimal digits) for the radical-bearing quantities
    and truncated infinite sums."""

    EXACT = "exact"
    FLOAT = "float"


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or canonical "p/q" string to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def require_tol(tol: float):
    """Reject a float-mode tolerance that is not positive and finite."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol}")


def rational_str(value: Fraction) -> str:
    """Canonical serialization: "p/q", or "p" alone for integers."""
    return str(value)


def float_str(value: float) -> str:
    """Round-trippable float rendering (17 significant digits)."""
    return format(value, ".17g")


def log_abs(value: Fraction) -> float:
    """log |value| of a nonzero rational, its numerator over its denominator
    read as mantissa 2^shift, so neither integer passes through a float."""
    num, den = abs(value.numerator), value.denominator
    shift = num.bit_length() - den.bit_length()
    mantissa = num / (den << shift) if shift >= 0 else (num << -shift) / den
    return math.log(mantissa) + shift * math.log(2)


# bounded: keys pile up across systems, and an entry grows with n
@lru_cache(maxsize=1024)
def pochhammer(x, n: int):
    """Rising factorial x (x+1) ... (x+n-1); empty product 1 for n = 0.

    The unit is built as x*0 + 1 so the result carries the scalar type of
    x (Fraction in, Fraction out); downstream reciprocals must never fall
    into float integer division.
    """
    if n < 0:
        raise ValueError("pochhammer length must be non-negative")
    result = x * 0 + 1
    for j in range(n):
        result *= x + j
    return result


def _exponents_of_degree(total: int, nvars: int) -> Iterator[tuple]:
    if nvars == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _exponents_of_degree(total - first, nvars - 1):
            yield (first,) + rest


class TruncatedSeries:
    """Multivariate formal power series up to a total-degree cutoff.

    Coefficients live in a sparse map from exponent tuples to Fractions;
    anything of total degree beyond the cutoff is discarded on every
    operation.  Instances are immutable by convention: no method mutates
    `coeffs`, so values are safe to share between tasks.
    """

    __slots__ = ("num_vars", "cutoff", "coeffs")

    def __init__(self, num_vars: int, cutoff: int, coeffs: Mapping[tuple, RationalLike]):
        if num_vars < 1:
            raise ValueError("need at least one variable")
        if cutoff < 0:
            raise ValueError("cutoff must be non-negative")
        clean = {}
        for exps, value in coeffs.items():
            exps = tuple(exps)
            if len(exps) != num_vars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps!r}")
            if sum(exps) > cutoff:
                raise ValueError(f"exponent {exps!r} exceeds cutoff {cutoff}")
            value = as_rational(value)
            if value:
                clean[exps] = value
        self.num_vars = num_vars
        self.cutoff = cutoff
        self.coeffs = clean

    @classmethod
    def constant(cls, value: RationalLike, num_vars: int, cutoff: int) -> "TruncatedSeries":
        origin = (0,) * num_vars
        return cls(num_vars, cutoff, {origin: as_rational(value)})

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.num_vars == other.num_vars
            and self.cutoff == other.cutoff
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def __repr__(self) -> str:
        terms = sorted(self.coeffs.items())
        shown = ", ".join(f"{e}: {c}" for e, c in terms[:6])
        if len(terms) > 6:
            shown += ", ..."
        return f"TruncatedSeries(g={self.num_vars}, D={self.cutoff}, {{{shown}}})"


def _scaled_list(values):
    """Common denominator of the rationals and their integer numerators over it."""
    denom = 1
    for v in values:
        denom = math.lcm(denom, v.denominator)
    return denom, [v.numerator * (denom // v.denominator) for v in values]


def _int_column(terms) -> list:
    """The integer column sum_k c_k col_k of the (c_k, col_k) terms, each
    col_k a list of integers, element by element in C-level maps."""
    return list(map(sum, zip(*(map(c.__mul__, col) for c, col in terms))))


def _scaled_items(coeffs):
    """Common denominator and integer-scaled (degree, exponents, value) rows."""
    denom, nums = _scaled_list(coeffs.values())
    return denom, sorted(zip(map(sum, coeffs), coeffs, nums))


def mul_trunc(a, b, cutoff):
    """Multiply two sparse coefficient maps, discarding total degree > cutoff.

    Keys are exponent tuples, values exact rationals.  The product runs in
    big integers: each input's denominators are cleared up front (one lcm
    per map) and one rational is rebuilt per output coefficient.  Entries
    that cancel to zero are dropped so the representation stays canonical.
    """
    if not a or not b:
        return {}
    da, a_items = _scaled_items(a)
    db, b_items = _scaled_items(b)
    scale = da * db
    raw = {}
    for deg_a, ea, ia in a_items:
        budget = cutoff - deg_a
        if budget < 0:
            break
        for deg_b, eb, ib in b_items:
            if deg_b > budget:
                break
            key = tuple(x + y for x, y in zip(ea, eb))
            acc = raw.get(key)
            raw[key] = ia * ib if acc is None else acc + ia * ib
    out = {}
    for key, value in raw.items():
        if value:
            out[key] = Fraction(value, scale)
    return out


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Exact product truncated to the common cutoff."""
    if a.num_vars != b.num_vars:
        raise ValueError("series have different numbers of variables")
    if a.cutoff != b.cutoff:
        raise ValueError("series have different cutoffs")
    out = TruncatedSeries(a.num_vars, a.cutoff, {})
    out.coeffs.update(mul_trunc(a.coeffs, b.coeffs, a.cutoff))
    return out


def series_geom_pow(
    linear_form: Sequence[RationalLike],
    exponent: RationalLike,
    cutoff: int,
) -> TruncatedSeries:
    """Expand (1 - sum_j l_j z_j) ** e about the origin to total degree D.

    The coefficient of z^alpha is poch(-e, |alpha|) / alpha! * prod l_j^alpha_j,
    which for e = -b and l = (1, 1) reproduces the classic negative-trinomial
    coefficients (b)_{i+k} / (i! k!).  Non-negative integer exponents
    terminate on their own.
    """
    weights = [as_rational(l) for l in linear_form]
    e = as_rational(exponent)
    g = len(weights)
    if g < 1:
        raise ValueError("linear form needs at least one variable")

    max_deg = cutoff
    if e.denominator == 1 and e >= 0:
        max_deg = min(cutoff, int(e))

    powers = []
    for w in weights:
        col = [Fraction(1)]
        for _ in range(max_deg):
            col.append(col[-1] * w)
        powers.append(col)

    coeffs: dict = {}
    for t in range(max_deg + 1):
        base = pochhammer(-e, t)
        if not base:
            continue
        for alpha in _exponents_of_degree(t, g):
            value = base
            for j, aj in enumerate(alpha):
                value *= powers[j][aj]
                if aj > 1:
                    value /= math.factorial(aj)
            if value:
                coeffs[alpha] = value
    return TruncatedSeries(g, cutoff, coeffs)


def solve_linear_system(rows, rhs):
    """Solve a square exact-rational linear system by Gaussian elimination;
    raises on a singular matrix.  No library code calls it: it is kept as
    the tests' coefficient oracle and as a benchmark tracer binding."""
    size = len(rows)
    work = [[as_rational(x) for x in row] + [as_rational(b)] for row, b in zip(rows, rhs)]
    if any(len(row) != size + 1 for row in work):
        raise ValueError("system must be square with one right-hand side per row")
    for col in range(size):
        pivot_row = next((r for r in range(col, size) if work[r][col] != 0), None)
        if pivot_row is None:
            raise ValueError("singular linear system")
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
        pivot = work[col][col]
        for r in range(col + 1, size):
            factor = work[r][col] / pivot
            if factor:
                for c in range(col, size + 1):
                    work[r][c] -= factor * work[col][c]
    solution = [Fraction(0)] * size
    for r in range(size - 1, -1, -1):
        acc = work[r][size]
        for c in range(r + 1, size):
            acc -= work[r][c] * solution[c]
        solution[r] = acc / work[r][r]
    return solution


def coefficient(series: TruncatedSeries, idx: Iterable[int]) -> Fraction:
    """Stored coefficient at a multi-index, zero when absent."""
    idx = tuple(idx)
    if len(idx) != series.num_vars:
        raise ValueError(f"index {idx!r} has wrong arity for {series.num_vars} variables")
    if any(e < 0 for e in idx):
        raise ValueError(f"negative exponent in {idx!r}")
    if sum(idx) > series.cutoff:
        raise ValueError(f"index {idx!r} lies beyond cutoff {series.cutoff}")
    return series.coeffs.get(idx, Fraction(0))
