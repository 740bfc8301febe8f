"""The d-variable core: systems, the negative multinomial weight, the
generating-function oracle, the raising recursion, polynomial
coefficients, truncated orthogonality and the exact recurrence,
difference, lowering and duality checkers, for any d.

The generating-function oracle reads one graded store of the product's
coefficients (``_GfStore``), filled point by point from neighbouring
points, since G_{x+e_i} and G_x differ by one factor, in plain integers.
A system keeps its own store; each exact checker fills a fresh one.
``_gf_values`` reads a store as one table of integers over one
denominator; the checkers' residuals and the coefficients, taken from
the table's forward differences, are built on it.

The bivariate module builds on this core: its ``MeixnerSystem`` is the
d = 2 case, its checkers call the ones here on a ``LatticeBox``, and it
adds what is stated for d = 2 only (the hypergeometric sum, the closed
forms, the subgroup matrix elements and the addition formula).

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
from functools import lru_cache
from operator import add, getitem, mul, sub
from typing import Dict, List, Sequence, Tuple

from .errors import ModeError, NonConvergence, NonGenericMatrix, PreconditionError
from .lorentz import PseudoRotation, inverse_tilde, require_generic
from .numerics import (
    ScalarMode,
    _exponents_of_degree,
    _scaled_list,
    as_rational,
    pochhammer,
    require_tol,
    # series_geom_pow, series_mul and solve_linear_system are unused here:
    # the benchmark tracer binds them
    series_geom_pow,
    series_mul,
    solve_linear_system,
)
from .reports import EvalReport, exact_report, lattice

SHELL_CAP = 400
# the float Gram loop scans the cube [0, S]^d shell by shell; past this many
# points it is declared non-convergent (at d = 3 the default multivariate
# suite settles at shell 77, 78^3 = 474,552 points)
POINT_BUDGET = 10**6

MultiIndex = Tuple[int, ...]


def _as_multi_index(value: Sequence[int], d: int, what: str) -> MultiIndex:
    idx = tuple(int(v) for v in value)
    if len(idx) != d or any(v < 0 for v in idx):
        raise ValueError(f"{what} must be {d} non-negative integers, got {value!r}")
    return idx


def _step_down(idx: MultiIndex, axis: int) -> MultiIndex:
    """The multi-index with one less along ``axis``."""
    return idx[:axis] + (idx[axis] - 1,) + idx[axis + 1 :]


@lru_cache(maxsize=4096)
def _neighbours_below(idx: MultiIndex):
    """(i, idx_i, idx - e_i) for every axis i with idx_i > 0."""
    return tuple((i, v, _step_down(idx, i)) for i, v in enumerate(idx) if v)


def _first_axis(idx: MultiIndex) -> int:
    return next(axis for axis, v in enumerate(idx) if v)


def _units(d: int) -> List[MultiIndex]:
    """The unit multi-indices e_0, ..., e_{d-1}."""
    return [tuple(int(axis == i) for axis in range(d)) for i in range(d)]


class MeixnerSystemD:
    """A (beta, Lambda) bundle in d variables with derived c and u parameters.

    Parameters must not change after construction: the value caches
    (``_gf_cache``, the generating-function store, ``_raising_cache``,
    ``_poly_cache`` and, at d = 2, the hypergeometric rows in
    ``_hyp_cache``) hold the u of construction cleared to integers and
    are never invalidated, so a changed parameter would meet values
    computed from the old one.  Only the table-built exact checkers below
    re-read the current ``u`` and ``lam`` on every call.
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
        self._gf_cache = _GfStore(self.d, beta, self.u)
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


class _LogMass:
    """The float mass log((b)_t / x! prod_i r_i^(2 x_i)), t = |x|, as
    ``head(t) + sum_i axis(i, x_i)`` from ``math.lgamma``, for the ratios
    r_i = L[i][d]/L[d][d] of the last column or, ``row``, L[d][i]/L[d][d]
    of the last row, all nonzero.  The column mass also carries the
    normalisation (1 - sum_i r_i^2)^b = L[d][d]^(-2b) in its head, so its
    exponential is the negative multinomial weight.  In log space nothing
    overflows: far out the exponential underflows to 0.0.
    """

    def __init__(self, beta, lam: PseudoRotation, row: bool = False):
        e, d = lam.entries, lam.d
        ratios = [(e[d][i] if row else e[i][d]) / e[d][d] for i in range(d)]
        self.b = float(beta)
        self.offset = -math.lgamma(self.b) - (0.0 if row else 2.0 * self.b * math.log(e[d][d]))
        self.logs = [2.0 * math.log(abs(r)) for r in ratios]
        self.negative = [r < 0 for r in ratios]

    def head(self, t: int) -> float:
        return math.lgamma(self.b + t) + self.offset

    def axis(self, i: int, v: int) -> float:
        return v * self.logs[i] - math.lgamma(v + 1)

    def __call__(self, x: MultiIndex) -> float:
        return self.head(sum(x)) + sum(self.axis(i, v) for i, v in enumerate(x))

    def sign(self, x: MultiIndex) -> int:
        """prod_i sgn(r_i)^x_i."""
        return -1 if sum(v for v, neg in zip(x, self.negative) if neg) % 2 else 1

    def root(self, x: MultiIndex) -> float:
        """The signed square root sign(x) exp(mass / 2)."""
        return self.sign(x) * math.exp(0.5 * self(x))


def weight_d(sys: MeixnerSystemD, x: Sequence[int]):
    """Negative multinomial mass at the lattice point x.

    Exact mode needs an integer beta (otherwise (1 - sum c)**beta is
    irrational); any positive beta works in float mode, where the mass is
    the exponential of ``_LogMass`` and far points underflow to 0.0.
    """
    x = _as_multi_index(x, sys.d, "point")
    b = sys.beta
    if sys.mode is ScalarMode.FLOAT:
        return math.exp(_LogMass(b, sys.lam)(x))
    if b.denominator != 1:
        raise ModeError(f"exact weight needs integer beta, got {b}; use float mode")
    value = pochhammer(b, sum(x)) / math.prod(map(math.factorial, x)) * (1 - sum(sys.c)) ** int(b)
    for ci, xi in zip(sys.c, x):
        value *= ci**xi
    return value


# ---------------------------------------------------------------------------
# route 1: generating-function oracle


@lru_cache(maxsize=256)
def _graded_layer(d: int, t: int):
    """The multi-indices n of degree t in d variables, their positions, for
    each n the pairs (j, position of n - e_j in layer t - 1), and t!/n!."""
    monos = list(_exponents_of_degree(t, d))
    index = {n: pos for pos, n in enumerate(monos)}
    below = {n: pos for pos, n in enumerate(_exponents_of_degree(t - 1, d))} if t else {}
    parents = [[(j, below[_step_down(n, j)]) for j in range(d) if n[j]] for n in monos]
    top = math.factorial(t)
    multinomials = [top // math.prod(map(math.factorial, n)) for n in monos]
    return index, parents, multinomials


class _Layers(list):
    """One point's cleared coefficients; layer t holds those of |n| = t in
    ``_graded_layer`` order."""

    @property
    def cutoff(self) -> int:
        return len(self) - 1


class _GfStore(dict):
    """Cleared generating-function coefficients, point -> ``_Layers``.

    With b = p/q and u = A/D over one common denominator, point x keeps

      G^_x[n] = q^|n| |n|! D^|x| [z^n] G_x(z),
      G_x(z) = (1 - sum_j z_j)^-(b + |x|) prod_i (1 - sum_j u[i][j] z_j)^x_i,

    for every |n| up to its cutoff.  Neighbouring points differ by one
    factor, G_{y+e_i} (1 - sum_j z_j) = G_y (1 - sum_j u[i][j] z_j), which
    in cleared coefficients reads (t = |n|, j over the n_j > 0)

      G^_0[n] = prod_{s<t} (p + s q) t!/n!,
      G^_{y+e_i}[n] = D G^_y[n]
                      + q t sum_j (G^_{y+e_i}[n - e_j] - A[i][j] G^_y[n - e_j]).

    A point is filled from its parent x - e_(first nonzero axis), parent
    first and layer by layer, in integer products only.  A store only
    grows: a point asked for at a larger degree gains the missing layers.
    """

    def __init__(self, d: int, beta: Fraction, u):
        super().__init__()
        self.d = d
        self.p, self.q = beta.numerator, beta.denominator
        self.denom, nums = _scaled_list([v for row in u for v in row])
        self.rows = [nums[i * d : (i + 1) * d] for i in range(d)]
        self._rising = [1]  # prod_{s<t} (p + s q), by t

    def layers(self, x: MultiIndex, top: int) -> _Layers:
        """The layers of x up to degree ``top``, walking its chain down to
        the first point that has them."""
        chain = []
        y = x
        while True:
            entry = self.get(y)
            if entry is not None and entry.cutoff >= top:
                break
            chain.append(y)
            if not any(y):
                break
            y = _step_down(y, _first_axis(y))
        d, q, denom = self.d, self.q, self.denom
        for y in reversed(chain):
            entry = self.setdefault(y, _Layers())
            if not any(y):
                for t in range(len(entry), top + 1):
                    entry.append([self.rising(t) * m for m in _graded_layer(d, t)[2]])
                continue
            i = _first_axis(y)
            parent = self[_step_down(y, i)]
            for t in range(len(entry), top + 1):
                if not t:
                    entry.append([denom * parent[0][0]])
                    continue
                own, old, a = entry[t - 1], parent[t - 1], self.rows[i]
                qt = q * t
                entry.append([
                    denom * g + qt * sum(own[pos] - a[j] * old[pos] for j, pos in par)
                    for g, par in zip(parent[t], _graded_layer(d, t)[1])
                ])
        return self[x]

    def rising(self, t: int) -> int:
        """prod_{s<t} (p + s q) = q^t (b)_t."""
        rising = self._rising
        while len(rising) <= t:
            rising.append(rising[-1] * (self.p + (len(rising) - 1) * self.q))
        return rising[t]

    def position(self, n: MultiIndex):
        """Layer and place of n, and the scale |n|!/n! prod_{s<|n|} (p + s q):
        G^_x[n] over the scale and D^|x| is the monic value R_n(x)."""
        t = sum(n)
        index, _, multinomials = _graded_layer(self.d, t)
        pos = index[n]
        return t, pos, multinomials[pos] * self.rising(t)


def _store_of(sys: MeixnerSystemD) -> _GfStore:
    """A fresh store cleared from the current ``sys.u``, kept off ``sys``."""
    return _GfStore(sys.d, sys.beta, sys.u)


def _gf_values(store: _GfStore, degrees, points):
    """The monic values R_n(x) of ``store`` for n in ``degrees`` and x in
    ``points`` over one denominator, as (den, {n + x: V}) with
    R_n(x) = V / den in integers.  With D the store's denominator, L the
    lcm of the scales of ``_GfStore.position`` and X the largest |x|,
    den = L D^X, so V = G^_x[n] (L / scale_n) D^(X - |x|)."""
    degrees, points = set(degrees), set(points)
    spots = [(n, *store.position(n)) for n in degrees]
    common = math.lcm(*(scale for *_, scale in spots))
    top_x = max(map(sum, points), default=0)
    top = max((t for _, t, _, _ in spots), default=0)
    lifts = [(n, t, pos, common // scale) for n, t, pos, scale in spots]
    table = {}
    for x in points:
        layers, power = store.layers(x, top), store.denom ** (top_x - sum(x))
        for n, t, pos, lift in lifts:
            table[n + x] = layers[t][pos] * (lift * power)
    return common * store.denom**top_x, table


def monic_eval_gf_d(sys: MeixnerSystemD, n: Sequence[int], x: Sequence[int]) -> Fraction:
    """Coefficient extraction from the (d+1)-factor generating product,
    read from the system's store."""
    n = _as_multi_index(n, sys.d, "degrees")
    x = _as_multi_index(x, sys.d, "point")
    store = sys._gf_cache
    t, pos, scale = store.position(n)
    return Fraction(store.layers(x, t)[t][pos], scale * store.denom ** sum(x))


# ---------------------------------------------------------------------------
# route 2: radical-free raising recursion


def _raising_levels(cache, n: MultiIndex, x: MultiIndex):
    """The raising recursion's descent from degree n at the point x, as
    levels (degree, j, lower, shift, points) from the top down: level
    ``shift`` steps ``degree`` down its first nonzero axis j to ``lower``
    and reads the base parameter b + shift.  A level keeps the points whose
    values, keyed (degree, y, shift) in ``cache``, are missing, and the
    next adds their neighbours y - e_i.  Filled bottom up, the levels keep
    the call stack flat at any degree."""
    levels = []
    degree, shift, points = n, 0, {x}
    for j in range(len(n)):
        while degree[j]:
            points = {y for y in points if (degree, y, shift) not in cache}
            if not points:
                return levels
            lower = _step_down(degree, j)
            levels.append((degree, j, lower, shift, points))
            points = points | {z for y in points for _, _, z in _neighbours_below(y)}
            degree, shift = lower, shift + 1
    return levels


def monic_eval_raising_d(sys: MeixnerSystemD, n: Sequence[int], x: Sequence[int]) -> Fraction:
    """The raising recursion, filled level by level up from degree zero
    over the descent of ``_raising_levels``.  Levels are stored cleared to
    integers,

      T[t, n](y) = (qD)^|n| (b+t)_|n| R[b+t, n](y),   b = p/q,  u = A/D,
      T[t, n + e_j](y) = D (q (|y|+t) + p) T[t+1, n](y)
                         - q sum_i A[i][j] y_i T[t+1, n](y - e_i),

    so a step costs integer products only and the value at n is rebuilt
    as one rational, T[0, n](x) / (D^|n| prod_{s<|n|} (p + s q)).  The
    cleared u and the integer rising products are those of the system's
    generating-function store.
    """
    n = _as_multi_index(n, sys.d, "degrees")
    x = _as_multi_index(x, sys.d, "point")
    total = sum(n)
    if not total:
        return Fraction(1)
    d = sys.d
    cache = sys._raising_cache
    store = sys._gf_cache  # its u cleared to integers and its rising table
    p, q, denom = store.p, store.q, store.denom
    below = cache.get  # degree-zero values are 1 at every point and are not stored
    for degree, j, lower, shift, points in reversed(_raising_levels(cache, n, x)):
        col = [q * store.rows[i][j] for i in range(d)]
        for y in points:
            acc = denom * (q * (sum(y) + shift) + p) * below((lower, y, shift + 1), 1)
            for i, v, z in _neighbours_below(y):
                acc -= col[i] * v * below((lower, z, shift + 1), 1)
            cache[(degree, y, shift)] = acc
    # (qD)^|n| (b)_|n| = D^|n| prod_{s<|n|} (p + s q)
    return Fraction(cache[(n, x, 0)], denom**total * store.rising(total))


# ---------------------------------------------------------------------------
# exact polynomial coefficients (for fast float evaluation on big lattices)


def _simplex_lattice(total: int, d: int):
    """Lattice points of d coordinates with coordinate sum at most ``total``,
    in graded order: by coordinate sum, lexicographic within each sum."""
    for t in range(total + 1):
        yield from _exponents_of_degree(t, d)


def _line_maps(top: int):
    """Two integer matrices on the values f(0), ..., f(top) of a line (a
    shorter line reads their leading block): forward differences,
    Delta^k f(0) = sum_j (-1)^(k-j) C(k, j) f(j), and binomial to monomial
    coefficients times top!, entry (m, k) being (top!/k!) s(k, m), s the
    signed Stirling numbers of the first kind."""
    falling = [[1]]  # the coefficients of y (y-1) ... (y-k+1), by power
    for k in range(top):
        falling.append([a - k * b for a, b in zip([0, *falling[-1]], [*falling[-1], 0])])
    span = range(top + 1)
    differences = [[(-1) ** (k + j) * math.comb(k, j) for j in span] for k in span]
    scale = [math.factorial(top) // math.factorial(k) for k in span]
    monomials = [[scale[k] * falling[k][m] if m <= k else 0 for k in span] for m in span]
    return differences, monomials


def monic_poly_coeffs_d(sys: MeixnerSystemD, n: Sequence[int]) -> Dict[MultiIndex, Fraction]:
    """Exact monomial coefficients of the degree-|n| polynomial in x.

    The forward differences Delta^k R_n(0) of one ``_gf_values`` table of
    the system's store over the simplex {x : |x| <= |n|} are the
    coefficients in the basis prod_i C(x_i, k_i); ``_line_maps`` takes
    them and turns them into monomial coefficients line by line, in
    integers over den (|n|!)^d.  All differences come first: a line of the
    simplex omits entries that are zero only once all are taken.
    """
    n = _as_multi_index(n, sys.d, "degrees")
    cached = sys._poly_cache.get(n)
    if cached is not None:
        return cached
    d, top = sys.d, sum(n)
    nodes = sorted(_simplex_lattice(top, d))
    den, values = _gf_values(sys._gf_cache, [n], nodes)
    table = {x: values[n + x] for x in nodes}
    for matrix in _line_maps(top):
        for axis in range(d):
            for base in (x for x in nodes if not x[axis]):
                line = [base[:axis] + (j,) + base[axis + 1 :] for j in range(top - sum(base) + 1)]
                old = [table[x] for x in line]
                table.update((x, sum(map(mul, row, old))) for x, row in zip(line, matrix))
    scale = den * math.factorial(top) ** d
    coeffs = {x: Fraction(table[x], scale) for x in nodes if table[x]}
    sys._poly_cache[n] = coeffs
    return coeffs


# ---------------------------------------------------------------------------
# exact identity checkers: each reads one generating-function table per
# system it needs and scans the degrees n <= max_n and points x <= max_x


def _three_diagonal(vectors, last, beta):
    """The three-diagonal relations as a function of the shifted index:
    s -> (the indices s + shift it reads, one (weight, row) per relation),
    all in integers.

    Relation j, with a = vectors[j] and p = last (d + 1 entries each, the
    last at index d), reads

      y_j R = (sum_i s_i a_i^2 + T a_d^2) R
              - T sum_i a_i a_d (p_i/p_d) R(s + e_i)
              + sum_i sum_{l != i} s_i a_i a_l (p_l/p_i) R(s - e_i + e_l)
              - sum_i s_i a_i a_d (p_d/p_i) R(s - e_i),

    with T = |s| + b, where y is the index the relation does not shift.
    The products of a and p are cleared once per relation over one
    denominator C; with b = p/q a row holds the right-hand side moved to
    the left times q C, one entry per shift, and the weight q C of y_j.
    """
    d = len(last) - 1
    units = _units(d)
    p, p_d = last[:d], last[d]
    bp, bq = beta.numerator, beta.denominator
    relations = []
    for a in vectors:
        a_d = a[d]
        squares = [a_i**2 for a_i in a]
        up = [a[i] * a_d * p[i] / p_d for i in range(d)]
        side = [[a[i] * a[l] * p[l] / p[i] for l in range(d)] for i in range(d)]
        down = [a[i] * a_d * p_d / p[i] for i in range(d)]
        den = math.lcm(*(v.denominator for v in (*squares, *up, *down, *itertools.chain(*side))))

        def clear(values):
            return [v.numerator * (den // v.denominator) for v in values]

        relations.append((bq * den, clear(squares), clear(up), list(map(clear, side)), clear(down)))

    def rows_at(s: MultiIndex):
        shifts = [(0,) * d, *units]
        for i in range(d):
            if s[i]:
                shifts += [tuple(map(sub, units[l], units[i])) for l in range(d) if l != i]
                shifts.append(tuple(-v for v in units[i]))
        qt = sum(s) * bq + bp  # q T
        rows = []
        for weight, squares, up, side, down in relations:
            row = [-(bq * sum(map(mul, s, squares)) + qt * squares[d])]
            row += [qt * v for v in up]
            for i in range(d):
                if s[i]:
                    qs = bq * s[i]
                    row += [-qs * side[i][l] for l in range(d) if l != i]
                    row.append(qs * down[i])
            rows.append((weight, row))
        return [tuple(map(add, s, t)) for t in shifts], rows

    return rows_at


def _three_diagonal_residuals(sys: MeixnerSystemD, max_n, max_x, transposed: bool):
    """Residuals (n, x) -> one per relation: the recurrences in the degrees
    (rows of the matrix, total = |n| + b) or, ``transposed``, the
    difference equations in the variables (columns, total = |x| + b).

    Everything stays in integers.  ``_three_diagonal`` gives each row with
    the weight w of y_j, and the values it reads share the one denominator
    den of their ``_gf_values`` table, so a residual is one integer dot
    product over w den, made a rational only when it is nonzero.
    """
    d = sys.d
    e = sys.lam.entries
    if transposed:
        e = list(zip(*e))
        shifted_top, fixed = max_x, lattice(max_n)
    else:
        shifted_top, fixed = max_n, lattice(max_x)
    rows_at = _three_diagonal(e[:d], e[d], sys.beta)
    plans = {s: rows_at(s) for s in lattice(shifted_top)}
    reached = {t for targets, _ in plans.values() for t in targets}
    if transposed:
        den, V = _gf_values(_store_of(sys), fixed, reached)
        V = {key[d:] + key[:d]: v for key, v in V.items()}  # shifted index first
    else:
        den, V = _gf_values(_store_of(sys), reached, fixed)

    def residuals(n, x):
        s, y = (x, n) if transposed else (n, x)
        targets, rows = plans[s]
        values = [V[t + y] for t in targets]
        out = []
        for j, (w, row) in enumerate(rows):
            num = w * y[j] * values[0] + sum(map(mul, row, values))
            out.append(Fraction(num, w * den) if num else 0)
        return out

    return residuals


def _checked_box(sys: MeixnerSystemD, what: str, max_n, max_x):
    sys.require_mode(ScalarMode.EXACT, what)
    return _as_multi_index(max_n, sys.d, "max degrees"), _as_multi_index(max_x, sys.d, "max point")


def _scan_identity(name: str, max_n, max_x, residuals) -> EvalReport:
    """Report over the box; the counterexample is the label (*n, *x, j) of
    the first nonzero residual, j the relation."""
    d = len(max_n)
    box = {"d": d, "max_degrees": list(max_n), "max_point": list(max_x)}

    def labelled(cell):
        return (((*cell, j), res) for j, res in enumerate(residuals(cell[:d], cell[d:])))

    return exact_report(name, box, lattice((*max_n, *max_x)), labelled)


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
            return (*res, res[0] / w0 - res[1] / w1 if any(res) else 0)

    return _scan_identity("difference", max_n, max_x, residuals)


def check_lowering_d(sys: MeixnerSystemD, max_n: MultiIndex, max_x: MultiIndex) -> EvalReport:
    """Monic recast of the lowering relations, exactly.  With
    D_i f(x) = f(x + e_i) - f(x), relation j reads

      n_j R[b, n - e_j](x) = -(b-1) (L[d][j]/L[d][d])
                             sum_i L[i][j] L[i][d] D_i R[b-1, n](x),

    which degenerates at b = 1, hence the precondition.  In integers the
    b and b - 1 tables have one denominator each, and the products in
    front of D_i one cleared denominator.
    """
    max_n, max_x = _checked_box(sys, "check_lowering_d", max_n, max_x)
    b = sys.beta
    if b <= 1:
        raise PreconditionError(f"lowering relations need beta > 1, got {b}")
    d = sys.d
    e = sys.lam.entries
    units = _units(d)
    degrees, points = lattice(max_n), lattice(max_x)
    near = {tuple(map(add, x, t)) for x in points for t in [(0,) * d, *units]}
    den, R = _gf_values(_store_of(sys), degrees[:-1], points)  # every degree but max_n
    low_den, low = _gf_values(_store_of(MeixnerSystemD(b - 1, sys.lam)), degrees, near)
    # the (b-1) (L[d][j]/L[d][d]) L[i][j] L[i][d] products in front of D_i
    cden, cnums = _scaled_list(
        [(b - 1) * (e[d][j] / e[d][d]) * (e[i][j] * e[i][d]) for j in range(d) for i in range(d)]
    )
    coeffs = [cnums[j * d : (j + 1) * d] for j in range(d)]
    front = cden * low_den  # the denominator of the sum over D_i

    def residuals(n, x):
        here = low[n + x]
        diffs = [low[n + tuple(map(add, x, t))] - here for t in units]
        out = []
        for j, row in enumerate(coeffs):
            num = sum(map(mul, row, diffs)) * den
            if n[j]:
                num += n[j] * R[_step_down(n, j) + x] * front
            out.append(Fraction(num, front * den) if num else 0)
        return out

    return _scan_identity("lowering", max_n, max_x, residuals)


def check_duality_d(sys: MeixnerSystemD, max_n: MultiIndex, max_x: MultiIndex) -> EvalReport:
    """Degrees and variables exchange against the inverse-matrix system:
    R_n(x; L) = R_x(n; L~^-1).  Each table has its one denominator, so a
    residual is R dual_den - dual den over den dual_den."""
    max_n, max_x = _checked_box(sys, "check_duality_d", max_n, max_x)
    degrees, points = lattice(max_n), lattice(max_x)
    den, R = _gf_values(_store_of(sys), points, degrees)  # sys is read with degrees and points swapped
    dual_den, dual = _gf_values(_store_of(sys.dual()), degrees, points)

    def residuals(n, x):
        num = R[x + n] * dual_den - dual[n + x] * den
        return (Fraction(num, den * dual_den) if num else 0,)

    return _scan_identity("duality", max_n, max_x, residuals)


# ---------------------------------------------------------------------------
# orthonormal family and truncated orthogonality (float only)


def _orthonormal_prefactor_d(sys: MeixnerSystemD, n: MultiIndex) -> float:
    """(-1)^|n| sqrt((b)_|n| / n!) prod_i (L[d][i]/L[d][d])^n_i."""
    return (-1) ** sum(n) * _LogMass(sys.beta, sys.lam, row=True).root(n)


def _gram_discrepancy(sys: MeixnerSystemD, degrees: List[MultiIndex], tol: float, what: str):
    """Truncated Gram matrix of the orthonormal family over ``degrees``
    against the identity.

    The sum runs over growing cube surfaces (shell S holds the points with
    largest coordinate S) until a full shell contributes less than tol/100
    to every Gram entry; past SHELL_CAP shells, or where the cube [0, S]^d
    of the next shell S would hold more than POINT_BUDGET points, it is
    declared non-convergent.  Every polynomial is bounded on shell S by
    V(S) = max_n sum |coef| S^|mono|, so a point whose weight times V(S)^2
    is below tol/100 * 1e-10 cannot move any Gram entry by more than that
    and is skipped.  A point's weight is exp(heads[|x|] + sum_i
    axes[i][x_i]), read from the ``_LogMass`` tables of heads up to d S and
    axes up to S, which grow with the shell; no weight is kept per point.
    The polynomial coefficients are those of ``sys`` itself.

    Returns the largest deviation and the first degree pair (upper
    triangle, in list order) that deviates by more than tol, or None.
    """
    sys.require_mode(ScalarMode.FLOAT, what)
    require_tol(tol)
    d = sys.d
    top = max(map(sum, degrees))
    # monomials in graded order: those of degree <= t come first, and each
    # but the first is an earlier one times one variable
    monos = list(_simplex_lattice(top, d))
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
        for mono, c in monic_poly_coeffs_d(sys, n).items():
            row[index[mono]] = pref * float(c)
        rows.append(row)

    mass = _LogMass(sys.beta, sys.lam)
    heads: List[float] = []
    axes: List[List[float]] = [[] for _ in range(d)]
    count = len(degrees)
    pairs = [(a, b) for a in range(count) for b in range(a, count)]
    gram = [0.0] * len(pairs)
    threshold = tol / 100.0
    negligible = threshold * 1e-10

    shell = 0
    while True:
        if shell > SHELL_CAP:
            raise NonConvergence(f"orthogonality sum did not settle within {SHELL_CAP} shells")
        if (shell + 1) ** d > POINT_BUDGET:
            raise NonConvergence(
                f"orthogonality sum did not settle within {POINT_BUDGET} lattice points"
                f" ({shell} shells at d = {d})"
            )
        heads += [mass.head(t) for t in range(len(heads), d * shell + 1)]
        for i, table in enumerate(axes):
            table.append(mass.axis(i, shell))
        bound = max(sum(abs(c) * shell**t for c, t in zip(row, mono_degrees)) for row in rows)
        bound_sq = bound * bound
        start = gram  # gram is rebound below, never changed in place
        for x in _cube_surface(shell, d):
            wt = math.exp(heads[sum(x)] + sum(map(getitem, axes, x)))
            if wt * bound_sq < negligible:
                continue
            monomial_values = [1.0]
            for parent, axis in steps:
                monomial_values.append(monomial_values[parent] * x[axis])
            values = [sum(map(mul, row, monomial_values)) for row in rows]
            weighted = [wt * v for v in values]
            contribs = [wa * vb for a, wa in enumerate(weighted) for vb in values[a:]]
            gram = list(map(add, gram, contribs))
        if shell >= 1 and max(abs(new - old) for new, old in zip(gram, start)) < threshold:
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
