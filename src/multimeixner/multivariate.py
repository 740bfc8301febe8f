"""The d-variable core: systems, the negative multinomial weight, the
generating-function oracle, the raising recursion, interpolated
coefficients, truncated orthogonality and the exact recurrence,
difference, lowering and duality checkers, for any d.

The bivariate module builds on this core: its ``MeixnerSystem`` is the
d = 2 case with the matrix entries under their usual names, its checkers
call the ones here on a ``LatticeBox``, and it adds what is stated for
d = 2 only (the hypergeometric sum, the closed forms, the subgroup matrix
elements and the addition formula).

The raising recursion is

  R[b, n + e_j](x) = ( (|x|+b) R[b+1, n](x)
                       - sum_i u[i][j] x_i R[b+1, n](x - e_i) ) / b,

derived by pushing the monic normalization through the raising relations
(every square root cancels, the key collapse being
b (b)_{|n|+1} = b^2 (b+1)_{|n|}); its wholesale agreement with the
generating function is the correctness gate.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import add, mul, sub
from typing import Dict, List, Sequence, Tuple

from ._kernel.pure import _scaled_list
from .errors import ModeError, NonConvergence, NonGenericMatrix, PreconditionError
from .lorentz import PseudoRotation, inverse_tilde, require_generic
from .numerics import (
    ScalarMode,
    TruncatedSeries,
    as_rational,
    coefficient,
    pochhammer,
    require_tol,
    series_geom_pow,
    series_mul,
    solve_linear_system,
)
from .reports import EvalReport, lattice, scan

SHELL_CAP = 400

MultiIndex = Tuple[int, ...]


def _as_multi_index(value: Sequence[int], d: int, what: str) -> MultiIndex:
    idx = tuple(int(v) for v in value)
    if len(idx) != d or any(v < 0 for v in idx):
        raise ValueError(f"{what} must be {d} non-negative integers, got {value!r}")
    return idx


def _step_down(idx: MultiIndex, axis: int) -> MultiIndex:
    """The multi-index with one less along ``axis``."""
    return idx[:axis] + (idx[axis] - 1,) + idx[axis + 1 :]


def _first_axis(idx: MultiIndex) -> int:
    return next(axis for axis, v in enumerate(idx) if v)


def _units(d: int) -> List[MultiIndex]:
    """The unit multi-indices e_0, ..., e_{d-1}."""
    return [tuple(int(axis == i) for axis in range(d)) for i in range(d)]


class MeixnerSystemD:
    """A (beta, Lambda) bundle in d variables with derived c and u parameters.

    Parameters must not change after the first evaluation: the value
    caches (``_gf_cache``, ``_raising_cache``, ``_poly_cache``) are never
    invalidated, so a changed parameter would meet values computed from the
    old one.  Only the table-built exact checkers below re-read the
    current ``u`` and ``lam`` on every call.
    """

    def __init__(self, beta, lam: PseudoRotation, mode=ScalarMode.EXACT):
        require_generic(lam)
        beta = as_rational(beta)
        if beta <= 0:
            raise ValueError(f"beta must be positive, got {beta}")
        self.d = lam.d
        self.beta = beta
        self.lam = lam
        self.mode = ScalarMode(mode)

        e = lam.entries
        last = self.d
        corner = e[last][last]
        self.c = tuple((e[i][last] / corner) ** 2 for i in range(self.d))
        if not (all(ci > 0 for ci in self.c) and sum(self.c) < 1):
            raise ValueError("weight parameters escaped the unit simplex")
        self.u = tuple(
            tuple(e[i][j] * corner / (e[i][last] * e[last][j]) for j in range(self.d))
            for i in range(self.d)
        )
        # u over one common denominator, row by row, for the integer raising fill
        self._u_denom, self._u_nums = _scaled_list([v for row in self.u for v in row])

        self._gf_cache: Dict[MultiIndex, TruncatedSeries] = {}
        self._raising_cache: Dict[Tuple[MultiIndex, MultiIndex, int], int] = {}
        self._poly_cache: Dict[MultiIndex, Dict[MultiIndex, Fraction]] = {}

    def with_mode(self, mode) -> "MeixnerSystemD":
        return type(self)(self.beta, self.lam, mode)

    def dual(self) -> "MeixnerSystemD":
        """System of the inverse matrix; the degree/variable exchange partner."""
        return type(self)(self.beta, inverse_tilde(self.lam), self.mode)

    def require_mode(self, mode: ScalarMode, what: str):
        if self.mode is not mode:
            raise ModeError(f"{what} requires {mode.value} mode, system is {self.mode.value}")

    def __repr__(self):
        return f"{type(self).__name__}(beta={self.beta}, mode={self.mode.value}, lam={self.lam})"


def weight_d(sys: MeixnerSystemD, x: Sequence[int]):
    """Negative multinomial mass at the lattice point x.

    Exact mode needs an integer beta (otherwise (1 - sum c)**beta is
    irrational); any positive beta works in float mode.
    """
    x = _as_multi_index(x, sys.d, "point")
    b = sys.beta
    total = sum(x)
    base = 1 - sum(sys.c)
    fact = math.prod(math.factorial(v) for v in x)
    if sys.mode is ScalarMode.EXACT:
        if b.denominator != 1:
            raise ModeError(f"exact weight needs integer beta, got {b}; use float mode")
        value = pochhammer(b, total) / fact * base ** int(b)
        for ci, xi in zip(sys.c, x):
            value *= ci**xi
        return value
    value = float(pochhammer(b, total) / fact) * float(base) ** float(b)
    for ci, xi in zip(sys.c, x):
        value *= float(ci) ** xi
    return value


# ---------------------------------------------------------------------------
# route 1: generating-function oracle


def _gf_product(sys: MeixnerSystemD, x: MultiIndex, cutoff: int, memo: dict) -> TruncatedSeries:
    """(1 - sum_j z_j)^-(b + |x|) prod_i (1 - sum_j u[i][j] z_j)^x_i to total
    degree ``cutoff``, its factor series shared through ``memo`` (one memo
    per cutoff)."""

    def factor(key, form, exponent):
        series = memo.get(key)
        if series is None:
            series = memo[key] = series_geom_pow(form, exponent, cutoff)
        return series

    total = sum(x)
    product = factor(("base", total), [1] * sys.d, -(sys.beta + total))
    for i, xi in enumerate(x):
        if xi:
            product = series_mul(product, factor((i, xi), sys.u[i], xi))
    return product


def _gf_series(sys: MeixnerSystemD, x: MultiIndex, cutoff: int) -> TruncatedSeries:
    cached = sys._gf_cache.get(x)
    if cached is None or cached.cutoff < cutoff:
        cached = sys._gf_cache[x] = _gf_product(sys, x, cutoff, {})
    return cached


def _gf_table(sys: MeixnerSystemD, degrees, points) -> Dict[MultiIndex, Fraction]:
    """Maps n + x to ``monic_eval_gf_d(sys, n, x)`` for every n in ``degrees``
    and x in ``points``, with the factor series built once, at the largest
    |n|, for all points.  Nothing is stored on ``sys``."""
    degrees, points = set(degrees), set(points)
    if not degrees or not points:
        return {}
    cutoff = max(map(sum, degrees))
    beta = sys.beta
    scales = {n: math.prod(map(math.factorial, n)) / pochhammer(beta, sum(n)) for n in degrees}
    memo: dict = {}
    zero = Fraction(0)
    table = {}
    for x in points:
        coeffs = _gf_product(sys, x, cutoff, memo).coeffs
        for n, scale in scales.items():
            raw = coeffs.get(n)
            table[n + x] = raw * scale if raw else zero
    return table


def monic_eval_gf_d(sys: MeixnerSystemD, n: Sequence[int], x: Sequence[int]) -> Fraction:
    """Coefficient extraction from the (d+1)-factor generating product."""
    n = _as_multi_index(n, sys.d, "degrees")
    x = _as_multi_index(x, sys.d, "point")
    total = sum(n)
    raw = coefficient(_gf_series(sys, x, total), n)
    fact = math.prod(math.factorial(v) for v in n)
    return raw * fact / pochhammer(sys.beta, total)


# ---------------------------------------------------------------------------
# route 2: radical-free raising recursion


def monic_eval_raising_d(sys: MeixnerSystemD, n: Sequence[int], x: Sequence[int]) -> Fraction:
    """The raising recursion, filled level by level up from degree zero.

    Level t of the descent from n has lowered the first nonzero degree t
    times and reads the base parameter b + t.  Going down, each level keeps
    the points whose values are not cached yet; going back up, it fills
    them from the level below, so no call stack grows with the degree.
    Levels are stored cleared to integers,

      T[t, n](y) = (qD)^|n| (b+t)_|n| R[b+t, n](y),   b = p/q,  u = A/D,
      T[t, n + e_j](y) = D (q (|y|+t) + p) T[t+1, n](y)
                         - q sum_i A[i][j] y_i T[t+1, n](y - e_i),

    so a step costs integer products only and the value at n is rebuilt
    as one rational.
    """
    n = _as_multi_index(n, sys.d, "degrees")
    x = _as_multi_index(x, sys.d, "point")
    total = sum(n)
    if not total:
        return Fraction(1)
    d = sys.d
    cache = sys._raising_cache
    levels = []
    degree, shift, points = n, 0, {x}
    while any(degree):
        points = {y for y in points if (degree, y, shift) not in cache}
        if not points:
            break
        j = _first_axis(degree)
        lower = _step_down(degree, j)
        levels.append((degree, j, lower, shift, points))
        points = points | {_step_down(y, i) for y in points for i in range(d) if y[i]}
        degree = lower
        shift += 1

    p, q = sys.beta.numerator, sys.beta.denominator
    denom = sys._u_denom
    below = cache.get  # degree-zero values are 1 at every point and are not stored
    for degree, j, lower, shift, points in reversed(levels):
        col = [q * sys._u_nums[i * d + j] for i in range(d)]
        for y in points:
            acc = denom * (q * (sum(y) + shift) + p) * below((lower, y, shift + 1), 1)
            for i in range(d):
                if y[i]:
                    acc -= col[i] * y[i] * below((lower, _step_down(y, i), shift + 1), 1)
            cache[(degree, y, shift)] = acc
    return Fraction(cache[(n, x, 0)]) / ((q * denom) ** total * pochhammer(sys.beta, total))


# ---------------------------------------------------------------------------
# exact polynomial coefficients (for fast float evaluation on big lattices)


def _simplex_lattice(total: int, d: int):
    """Lattice points of d coordinates with coordinate sum at most ``total``."""
    if d == 1:
        for t in range(total + 1):
            yield (t,)
        return
    for first in range(total + 1):
        for rest in _simplex_lattice(total - first, d - 1):
            yield (first,) + rest


def monic_poly_coeffs_d(sys: MeixnerSystemD, n: Sequence[int]) -> Dict[MultiIndex, Fraction]:
    """Exact monomial coefficients of the degree-|n| polynomial in x.

    Interpolates generating-function values on the principal simplex
    lattice {x : |x| <= |n|}, which is unisolvent for total-degree
    interpolation, and solves the system exactly.
    """
    n = _as_multi_index(n, sys.d, "degrees")
    cached = sys._poly_cache.get(n)
    if cached is not None:
        return cached
    nodes = sorted(_simplex_lattice(sum(n), sys.d))
    monomials = nodes
    rows = [
        [Fraction(math.prod(a**p for a, p in zip(node, mono))) for mono in monomials]
        for node in nodes
    ]
    rhs = [monic_eval_gf_d(sys, n, node) for node in nodes]
    solution = solve_linear_system(rows, rhs)
    coeffs = {mono: c for mono, c in zip(monomials, solution) if c}
    sys._poly_cache[n] = coeffs
    return coeffs


# ---------------------------------------------------------------------------
# exact identity checkers: each reads one generating-function table per
# system it needs and scans the degrees n <= max_n and points x <= max_x


def _three_diagonal(n: MultiIndex, total, vectors, last):
    """Shifts of n and coefficient rows of the three-diagonal relations.

    Relation j, with a = vectors[j] and p = last (d + 1 entries each, the
    last at index d), reads

      y_j R = (sum_i n_i a_i^2 + total a_d^2) R
              - total sum_i a_i a_d (p_i/p_d) R(n + e_i)
              + sum_i sum_{l != i} n_i a_i a_l (p_l/p_i) R(n - e_i + e_l)
              - sum_i n_i a_i a_d (p_d/p_i) R(n - e_i),

    where y is the index the relation does not shift.  A row holds the
    right-hand side moved to the left, one entry per shift.
    """
    d = len(n)
    units = _units(d)
    shifts = [(0,) * d, *units]
    for i in range(d):
        if n[i]:
            shifts += [tuple(map(sub, units[l], units[i])) for l in range(d) if l != i]
            shifts.append(tuple(-v for v in units[i]))
    p, p_d = last[:d], last[d]
    rows = []
    for a in vectors:
        a_d = a[d]
        row = [-(sum(n_i * a_i**2 for n_i, a_i in zip(n, a)) + total * a_d**2)]
        row += [total * (a[i] * a_d * p[i] / p_d) for i in range(d)]
        for i in range(d):
            if n[i]:
                row += [-n[i] * (a[i] * a[l] * p[l] / p[i]) for l in range(d) if l != i]
                row.append(n[i] * (a[i] * a_d * p_d / p[i]))
        rows.append(row)
    return shifts, rows


def _three_diagonal_residuals(sys: MeixnerSystemD, max_n, max_x, transposed: bool):
    """Residuals (n, x) -> one per relation: the recurrences in the degrees
    (rows of the matrix, total = |n| + b) or, ``transposed``, the
    difference equations in the variables (columns, total = |x| + b).

    Rows and values are cleared to integers over common denominators (the
    weight 1 of y_j becomes the row's denominator q), so a residual costs
    integer products only and is rebuilt as one rational.
    """
    d = sys.d
    e = sys.lam.entries
    if transposed:
        e = list(zip(*e))
        shifted_top, fixed = max_x, lattice(max_n)
    else:
        shifted_top, fixed = max_n, lattice(max_x)
    plans = {}
    for s in lattice(shifted_top):
        shifts, rows = _three_diagonal(s, sum(s) + sys.beta, e[:d], e[d])
        plans[s] = ([tuple(map(add, s, t)) for t in shifts], [_scaled_list(row) for row in rows])
    reached = {t for targets, _ in plans.values() for t in targets}
    table = _gf_table(sys, fixed, reached) if transposed else _gf_table(sys, reached, fixed)
    denom, cleared = _scaled_list(table.values())
    # keyed by the shifted index, then the fixed one
    R = {(key[d:] + key[:d] if transposed else key): v for key, v in zip(table, cleared)}

    def residuals(n, x):
        s, y = (x, n) if transposed else (n, x)
        targets, rows = plans[s]
        values = [R[t + y] for t in targets]
        return [
            Fraction(q * y[j] * values[0] + sum(map(mul, nums, values)), q * denom)
            for j, (q, nums) in enumerate(rows)
        ]

    return residuals


def _checked_box(sys: MeixnerSystemD, what: str, max_n, max_x):
    sys.require_mode(ScalarMode.EXACT, what)
    return _as_multi_index(max_n, sys.d, "max degrees"), _as_multi_index(max_x, sys.d, "max point")


def _scan_identity(name: str, max_n, max_x, residuals) -> EvalReport:
    """Report over the box; the counterexample is the label (*n, *x, j) of
    the first nonzero residual, j the relation."""
    d = len(max_n)
    max_disc, counter = scan(
        lattice((*max_n, *max_x)),
        lambda cell: (((*cell, j), res) for j, res in enumerate(residuals(cell[:d], cell[d:]))),
    )
    box = {"d": d, "max_degrees": list(max_n), "max_point": list(max_x)}
    return EvalReport(name, box, ScalarMode.EXACT, max_disc, counter)


def check_recurrence_d(sys: MeixnerSystemD, max_n: MultiIndex, max_x: MultiIndex) -> EvalReport:
    """The d three-diagonal recurrences in the degrees, exactly: relation j
    multiplies by x_j and reads row j of the matrix, with p its last row."""
    max_n, max_x = _checked_box(sys, "check_recurrence_d", max_n, max_x)
    residuals = _three_diagonal_residuals(sys, max_n, max_x, transposed=False)
    return _scan_identity("recurrence", max_n, max_x, residuals)


def check_difference_d(sys: MeixnerSystemD, max_n: MultiIndex, max_x: MultiIndex) -> EvalReport:
    """The d difference equations in the variables, exactly: relation j
    multiplies by n_j and reads column j of the matrix, with p its last
    column.

    At d = 2 the two equations over L[0][0] L[1][0] and L[0][1] L[1][1]
    combine into a nearest-neighbour one in which the mixed shifts cancel.
    It is checked as a third residual and needs those entries nonzero.
    """
    max_n, max_x = _checked_box(sys, "check_difference_d", max_n, max_x)
    residuals = _three_diagonal_residuals(sys, max_n, max_x, transposed=True)
    if sys.d == 2:
        e = sys.lam.entries
        w0, w1 = e[0][0] * e[1][0], e[0][1] * e[1][1]
        if not (w0 and w1):
            raise NonGenericMatrix(
                "nearest-neighbour difference equation divides by interior entries that are zero"
            )
        pair = residuals

        def residuals(n, x):
            res = pair(n, x)
            return (*res, res[0] / w0 - res[1] / w1)

    return _scan_identity("difference", max_n, max_x, residuals)


def check_lowering_d(sys: MeixnerSystemD, max_n: MultiIndex, max_x: MultiIndex) -> EvalReport:
    """Monic recast of the lowering relations, exactly.  With
    D_i f(x) = f(x + e_i) - f(x), relation j reads

      n_j R[b, n - e_j](x) = -(b-1) (L[d][j]/L[d][d])
                             sum_i L[i][j] L[i][d] D_i R[b-1, n](x),

    which degenerates at b = 1, hence the precondition.
    """
    max_n, max_x = _checked_box(sys, "check_lowering_d", max_n, max_x)
    b = sys.beta
    if b <= 1:
        raise PreconditionError(f"lowering relations need beta > 1, got {b}")
    d = sys.d
    e = sys.lam.entries
    units = _units(d)
    degrees, points = lattice(max_n), lattice(max_x)
    R = _gf_table(sys, degrees[:-1], points)  # every degree but max_n
    low = _gf_table(
        MeixnerSystemD(b - 1, sys.lam, ScalarMode.EXACT),
        degrees,
        {tuple(map(add, x, t)) for x in points for t in [(0,) * d, *units]},
    )
    # the (b-1) (L[d][j]/L[d][d]) L[i][j] L[i][d] products in front of D_i
    coeffs = [
        [(b - 1) * (e[d][j] / e[d][d]) * (e[i][j] * e[i][d]) for i in range(d)]
        for j in range(d)
    ]

    def residuals(n, x):
        here = low[n + x]
        diffs = [low[n + tuple(map(add, x, t))] - here for t in units]
        out = [sum(map(mul, row, diffs)) for row in coeffs]
        for j in range(d):
            if n[j]:
                out[j] += n[j] * R[_step_down(n, j) + x]
        return out

    return _scan_identity("lowering", max_n, max_x, residuals)


def check_duality_d(sys: MeixnerSystemD, max_n: MultiIndex, max_x: MultiIndex) -> EvalReport:
    """Degrees and variables exchange against the inverse-matrix system:
    R_n(x; L) = R_x(n; L~^-1)."""
    max_n, max_x = _checked_box(sys, "check_duality_d", max_n, max_x)
    degrees, points = lattice(max_n), lattice(max_x)
    R = _gf_table(sys, points, degrees)  # sys is read with degrees and points swapped
    dual = _gf_table(sys.dual(), degrees, points)
    return _scan_identity("duality", max_n, max_x, lambda n, x: (R[x + n] - dual[n + x],))


# ---------------------------------------------------------------------------
# orthonormal family and truncated orthogonality (float only)


def _orthonormal_prefactor_d(sys: MeixnerSystemD, n: MultiIndex) -> float:
    total = sum(n)
    fact = math.prod(math.factorial(v) for v in n)
    scale = pochhammer(sys.beta, total) / fact
    last = sys.d
    geom = Fraction(1)
    for i in range(sys.d):
        geom *= sys.lam.entries[last][i] ** n[i]
    geom /= sys.lam.entries[last][last] ** total
    return (-1) ** total * math.sqrt(float(scale)) * float(geom)


def _gram_discrepancy(sys: MeixnerSystemD, degrees: List[MultiIndex], tol: float, what: str):
    """Truncated Gram matrix of the orthonormal family over ``degrees``
    against the identity.

    The sum runs over growing cube surfaces (shell S holds the points with
    largest coordinate S) until a full shell contributes less than tol/100
    to every Gram entry; past SHELL_CAP shells it is declared
    non-convergent.  Every polynomial is bounded on shell S by
    V(S) = max_n sum |coef| S^|mono|, so a point whose weight times V(S)^2
    is below tol/100 * 1e-10 cannot move any Gram entry by more than that
    and is skipped.

    Returns the largest deviation and the first degree pair (upper
    triangle, in list order) that deviates by more than tol, or None.
    """
    sys.require_mode(ScalarMode.FLOAT, what)
    require_tol(tol)
    d = sys.d
    exact_sys = MeixnerSystemD(sys.beta, sys.lam, ScalarMode.EXACT)
    top = max(map(sum, degrees))
    # monomials in graded order: those of degree <= t come first, and each
    # but the first is an earlier one times one variable
    monos = sorted(_simplex_lattice(top, d), key=lambda mono: (sum(mono), mono))
    index = {mono: pos for pos, mono in enumerate(monos)}
    steps = []
    for mono in monos[1:]:
        axis = _first_axis(mono)
        steps.append((index[_step_down(mono, axis)], axis))
    mono_degrees = [sum(mono) for mono in monos]
    # each polynomial as prefactor * coefficient over its first monomials
    rows = []
    for n in degrees:
        row = [0.0] * math.comb(sum(n) + d, d)
        pref = _orthonormal_prefactor_d(sys, n)
        for mono, c in monic_poly_coeffs_d(exact_sys, n).items():
            row[index[mono]] = pref * float(c)
        rows.append(row)

    bf = float(sys.beta)
    cf = [float(ci) for ci in sys.c]
    w: Dict[MultiIndex, float] = {}
    count = len(degrees)
    pairs = [(a, b) for a in range(count) for b in range(a, count)]
    gram = [0.0] * len(pairs)
    threshold = tol / 100.0
    negligible = threshold * 1e-10

    shell = 0
    while True:
        if shell > SHELL_CAP:
            raise NonConvergence(f"orthogonality sum did not settle within {SHELL_CAP} shells")
        bound = max(sum(abs(c) * shell**t for c, t in zip(row, mono_degrees)) for row in rows)
        bound_sq = bound * bound
        shell_max = 0.0
        for x in _cube_surface(shell, d):
            if any(x):
                i = _first_axis(x)
                wt = w[_step_down(x, i)] * (bf + sum(x) - 1) / x[i] * cf[i]
            else:
                wt = (1.0 - sum(cf)) ** bf
            w[x] = wt
            if wt * bound_sq < negligible:
                continue
            monomial_values = [1.0]
            for parent, axis in steps:
                monomial_values.append(monomial_values[parent] * x[axis])
            values = [sum(map(mul, row, monomial_values)) for row in rows]
            weighted = [wt * v for v in values]
            contribs = [wa * vb for a, wa in enumerate(weighted) for vb in values[a:]]
            gram = list(map(add, gram, contribs))
            shell_max = max(shell_max, max(map(abs, contribs)))
        if shell >= 1 and shell_max < threshold:
            break
        shell += 1

    max_disc = 0.0
    first = None
    for (a, b), entry in zip(pairs, gram):
        disc = abs(entry - (1.0 if a == b else 0.0))
        if disc > max_disc:
            max_disc = disc
        if disc > tol and first is None:
            first = (degrees[a], degrees[b])
    return max_disc, first


def check_orthogonality_d(sys: MeixnerSystemD, degree_box: int, tol: float) -> EvalReport:
    """Gram matrix of the orthonormal family {|n| <= degree_box} against the
    identity, summed over growing cube surfaces until a full surface
    contributes less than tol/100."""
    if degree_box < 0:
        raise ValueError("degree_box must be non-negative")
    degrees = sorted(_simplex_lattice(degree_box, sys.d))
    max_disc, first = _gram_discrepancy(sys, degrees, tol, "check_orthogonality_d")
    return EvalReport(
        identity="orthogonality-d",
        box={"d": sys.d, "max_total_degree": degree_box},
        mode=ScalarMode.FLOAT,
        max_abs_discrepancy=max_disc,
        counterexample=first,
        tol=tol,
    )


def _cube_surface(shell: int, d: int):
    """Lattice points of [0, shell]^d with max coordinate exactly shell, in
    lexicographic order."""
    for prefix in itertools.product(range(shell + 1), repeat=d - 1):
        if shell in prefix:
            for last in range(shell + 1):
                yield prefix + (last,)
        else:
            yield prefix + (shell,)
