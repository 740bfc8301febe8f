"""The d-variable core: systems, the negative multinomial weight, the
generating-function oracle, the raising recursion, the hypergeometric
sum, polynomial coefficients, the matrix elements of any pseudo-rotation,
truncated orthogonality, the addition formula and the exact recurrence,
difference, lowering and duality checkers, for any d.

The generating-function oracle reads one graded store of the product's
coefficients (``_GfStore``), filled point by point from neighbouring
points, since G_{x+e_i} and G_x differ by one factor, in plain integers.
A system keeps its own store; each exact checker fills a fresh one capped
at the degrees it reads.  ``_gf_values`` reads a store as one integer
column per degree over one denominator: the checkers' residual columns
are built on them.

The hypergeometric route is one table (``_HypTable``) of one integer
tensor per degree n, the coefficients of the product of linear forms
prod_j (1 - sum_a (1 - u[a][j]) y_a)^n_j over (b)_|r|, multiplied out
one form per unit of degree (``_hyp_tensor``), and its contractions over
all axes but the last with the rows (-x_a)_r of each prefix x[:-1] asked
for, so a point costs one dot product with its last row (-x_{d-1})_r.
The same tensor, grown to |n| on every axis, holds the polynomial's
coefficients in the basis prod_a (-x_a)_{r_a}, from which
``monic_poly_coeffs_d`` reads the monomial coefficients.

The bivariate module builds on this core: its ``MeixnerSystem`` is the
d = 2 case, its routes and checkers call the ones here, and it adds what
is stated for d = 2 only (the closed forms and the subgroup matrix
elements, which are oracles of ``element_reader``).

The raising recursion is one table (``_RaisingTable``) of the
unnormalised values

  S[b, n + e_j](x) = -r_d (|x|+b) S[b+1, n](x)
                     + sum_i r_i x_i S[b+1, n](x - e_i),   r_i = L[i][j]/L[i][d],

in integers, one column per (degree, shift) over the box of the points
asked for, filled degree by degree in C-level maps; a lone point keeps
the band below it, and one degree's matrix elements also stream level by
level |x| = t with no box.  Every square root of the raising relations collects
in S / sqrt((b)_{|n|} n!), the orthonormal value, and the monic value is
S / ((b)_{|n|} prod_j (-r_dj)^{n_j}), so one table
serves the monic values, the orthonormal values and the matrix elements
(``element_reader`` keeps one table per matrix, with no system; the
addition check ``check_addition_d`` zips two level streams); its
wholesale agreement with the generating function is the correctness
gate.  Each route's table is cleared from the system's own beta and
matrix, and no route reads another's table.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import compress, repeat
from operator import add, getitem, index, le, lt, mul, not_, sub
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import ModeError, NonConvergence, NonGenericMatrix, PreconditionError
from .lorentz import PseudoRotation, compose, identity, inverse_tilde, require_generic
from .numerics import (
    ScalarMode,
    _exponents_of_degree,
    _int_column,
    _scaled_list,
    log_abs,
    past_float_range,
    pochhammer,
    require_beta,
    require_float,
    require_tol,
    rising_row,
    # series_geom_pow, series_mul and solve_linear_system are unused here:
    # the benchmark tracer binds them
    series_geom_pow,
    series_mul,
    solve_linear_system,
)
from .reports import EvalReport, column_report, lattice

SHELL_CAP = 400
# the float Gram loop scans the cube [0, S]^d shell by shell; past this many
# points it is declared non-convergent (at d = 3 the default multivariate
# suite settles at shell 77, 78^3 = 474,552 points).  A generating-function
# fill of more coefficients than this is refused too.
POINT_BUDGET = 10**6
# the Gram loop adds its kept points' products to the Gram entries in
# blocks of at least this many points (a block is flushed after the run
# that fills it), which bounds the memory of a shell's batch
GRAM_BLOCK = 64

MultiIndex = Tuple[int, ...]


def _as_multi_index(value: Sequence[int], d: int, what: str) -> MultiIndex:
    """``value`` as a tuple of d non-negative ints; a tuple of d plain
    non-negative ints is returned as it is, anything else is converted
    entry by entry with ``operator.index``."""
    if type(value) is tuple and len(value) == d:
        for v in value:
            if type(v) is not int or v < 0:
                break
        else:
            return value
    try:
        idx = tuple(map(index, value))
    except TypeError:  # an entry that is not an integer, or no sequence at all
        idx = ()
    if len(idx) != d or min(idx) < 0:  # d >= 1, so idx is not empty here
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

    Parameters must not change after construction: the three route tables
    (``_gf_cache``, the generating-function store, ``_raising``, the
    raising table, and ``_hyp``, the hypergeometric table, which also
    serves the polynomial coefficients) hold the beta and the u or the
    matrix of construction cleared to integers and are never invalidated,
    so a changed parameter would meet values computed from the old one.
    Only the table-built exact checkers below re-read the current ``u`` and
    ``lam`` on every call.
    """

    def __init__(self, beta, lam: PseudoRotation, mode=ScalarMode.EXACT):
        require_generic(lam)
        beta = require_beta(beta)
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
        self._raising = _RaisingTable(beta, lam)
        self._hyp = _HypTable(beta, self.u)

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


def _float_beta(beta) -> float:
    """beta as the float ``math.lgamma`` reads; a positive beta that rounds
    to 0.0 is refused as past the float range, as one past the top is."""
    b = require_float(beta, "beta")
    if b == 0.0:
        raise past_float_range("beta", log_abs(beta))
    return b


class _LogMass:
    """The float mass log((b)_t / x! prod_i r_i^(2 x_i)), t = |x|, as
    ``head(t) + sum_i axis(i, x_i)`` from ``math.lgamma``, for the ratios
    r_i = L[i][d]/L[d][d] of the last column or, ``row``, L[d][i]/L[d][d]
    of the last row, an entry 0 read as 1 (the raising table's amplitude,
    ``_RaisingTable``; a system's entries are all nonzero).  The column
    mass also carries the normalisation (1 - sum_i r_i^2)^b = L[d][d]^(-2b)
    in its head, so for a system its exponential is the negative
    multinomial weight.  In log space nothing overflows: far out the
    exponential underflows to 0.0.
    """

    def __init__(self, beta, lam: PseudoRotation, row: bool = False):
        e, d = lam.entries, lam.d
        ratios = [((e[d][i] if row else e[i][d]) or 1) / e[d][d] for i in range(d)]
        self.b = _float_beta(beta)
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
        return -1 if sum(compress(x, self.negative)) % 2 else 1

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
def _graded_layer(d: int, t: int, cap: MultiIndex):
    """The multi-indices n <= cap of degree t in d variables, their
    positions, for each n the pairs (j, position of n - e_j in layer t - 1
    under the cap), and t!/n!.  ``_GradedLayers`` cuts the cap to
    min(cap_i, t), so every cap of t or more shares the uncapped layer."""
    monos, lower = (
        [n for n in _exponents_of_degree(s, d) if all(map(le, n, cap))] for s in (t, t - 1)
    )
    index = {n: pos for pos, n in enumerate(monos)}
    below = {n: pos for pos, n in enumerate(lower)} if t else {}
    parents = [[(j, below[_step_down(n, j)]) for j in range(d) if n[j]] for n in monos]
    top = math.factorial(t)
    multinomials = [top // math.prod(map(math.factorial, n)) for n in monos]
    return index, parents, multinomials


class _GradedLayers(dict):
    """A store's ``_graded_layer`` entries by degree t, each under its cap
    (t on every axis if there is none) cut to min(cap_i, t)."""

    def __init__(self, d: int, cap):
        super().__init__()
        self.d, self.cap = d, cap

    def __missing__(self, t: int):
        cap = tuple(min(c, t) for c in self.cap or (t,) * self.d)
        entry = self[t] = _graded_layer(self.d, t, cap)
        return entry


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

    for every |n| up to its cutoff (and n <= ``cap``, if given).  Neighbouring
    points differ by one factor, G_{y+e_i} (1 - sum_j z_j) =
    G_y (1 - sum_j u[i][j] z_j), which in cleared coefficients reads
    (t = |n|, j over the n_j > 0)

      G^_0[n] = prod_{s<t} (p + s q) t!/n!,
      G^_{y+e_i}[n] = D G^_y[n]
                      + q t sum_j (G^_{y+e_i}[n - e_j] - A[i][j] G^_y[n - e_j]).

    A point is filled from its parent x - e_(first nonzero axis), parent
    first and layer by layer, in integer products only; n - e_j stays
    under the cap.  A store only grows: a point asked for at a larger
    degree gains the missing layers.  A fill of more than POINT_BUDGET
    coefficients (chain points times the coefficients of degree up to top
    under the cap) is refused.
    """

    def __init__(self, d: int, beta: Fraction, u, cap=None):
        super().__init__()
        self.d, self.cap = d, cap
        self.p, self.q = beta.numerator, beta.denominator
        self.denom, nums = _scaled_list([v for row in u for v in row])
        self.rows = [nums[i * d : (i + 1) * d] for i in range(d)]
        self.graded = _GradedLayers(d, cap)
        self.positions: Dict[MultiIndex, Tuple[int, int, int]] = {}  # ``position`` by degree

    def layers(self, x: MultiIndex, top: int) -> _Layers:
        """The layers of x up to degree ``top``, walking its chain down to
        the first point that has them."""
        entry = self.get(x)
        if entry is not None and len(entry) > top:
            return entry
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
        # a point keeps at most C(top + d, d) coefficients, so the cap's own
        # count is needed only past the budget
        if chain and len(chain) * math.comb(top + d, d) > POINT_BUDGET:
            if (cells := len(chain) * self.cells(top)) > POINT_BUDGET:
                raise _over_budget(
                    "the generating-function route", f"fill {cells} coefficients",
                    f"{len(chain)} points up to degree {top}",
                )
        for y in reversed(chain):
            entry = self.setdefault(y, _Layers())
            if not any(y):
                rising = rising_row(self.p, self.q, top)
                for t in range(len(entry), top + 1):
                    entry.append([rising[t] * m for m in self.graded[t][2]])
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
                    for g, par in zip(parent[t], self.graded[t][1])
                ])
        return self[x]

    def cells(self, top: int) -> int:
        """The coefficients of degree up to ``top`` that a point keeps."""
        if self.cap is None:
            return math.comb(top + self.d, self.d)
        return sum(len(self.graded[t][2]) for t in range(top + 1))

    def position(self, n: MultiIndex):
        """Layer and place of n, and the scale |n|!/n! prod_{s<|n|} (p + s q):
        G^_x[n] over the scale and D^|x| is the monic value R_n(x); kept
        per degree."""
        spot = self.positions.get(n)
        if spot is None:
            t = sum(n)
            index, _, multinomials = self.graded[t]
            pos = index[n]
            scale = multinomials[pos] * rising_row(self.p, self.q, t)[t]
            spot = self.positions[n] = (t, pos, scale)
        return spot


def _store_of(sys: MeixnerSystemD, degrees) -> _GfStore:
    """A fresh store cleared from the current ``sys.u``, kept off ``sys`` and
    capped at the largest of ``degrees`` on each axis (0 if there are none)."""
    return _GfStore(sys.d, sys.beta, sys.u, tuple(map(max, zip((0,) * sys.d, *degrees))))


def _gf_values(store: _GfStore, degrees, points):
    """The monic values R_n(x) = V / den of ``store`` for n in ``degrees``
    and x in ``points``, as (den, {n: column of the integers V at
    ``points``}), the store filled point by point in their order.  With D
    the store's denominator, L the lcm of the scales of ``_GfStore.position``
    and X the largest |x|, den = L D^X, so V = G^_x[n] (L / scale_n) D^(X - |x|)."""
    spots = [(n, *store.position(n)) for n in degrees]
    common = math.lcm(*(scale for *_, scale in spots))
    top_x = max(map(sum, points), default=0)
    top = max((t for _, t, _, _ in spots), default=0)
    rows = [(store.layers(x, top), store.denom ** (top_x - sum(x))) for x in points]
    columns = {}
    for n, t, pos, scale in spots:
        lift = common // scale
        columns[n] = [layers[t][pos] * (lift * power) for layers, power in rows]
    return common * store.denom**top_x, columns


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


@lru_cache(maxsize=4096)
def _raising_step(degree: MultiIndex):
    """The raising recursion's step into ``degree``: its first nonzero axis
    j, degree - e_j, and whether that is degree zero."""
    j = _first_axis(degree)
    lower = _step_down(degree, j)
    return j, lower, not any(lower)


def _raising_cells(lo: MultiIndex, hi: MultiIndex, top: int) -> int:
    """The cells of the raising columns at the shifts s < top over the box
    [lo, hi], sum_s prod_a (hi_a - max(0, lo_a - s) + 1).  Between two
    corners lo_a the summand is a polynomial p of degree at most d, summed
    in closed form as sum_k (Delta^k p)(start) C(length, k + 1), so the
    price takes no time however far the box lies."""
    cells, start = 0, 0
    for end in sorted({c for c in lo if start < c < top} | {top}):
        # the axes with lo_a >= end keep a corner lo_a - s on the whole run
        diffs = [math.prod(h - c + s + 1 if c >= end else h + 1 for c, h in zip(lo, hi))
                 for s in range(start, start + len(lo) + 1)]
        for k in range(len(diffs)):
            cells += diffs[0] * math.comb(end - start, k + 1)
            diffs = list(map(sub, diffs[1:], diffs[:-1]))
        start = end
    return cells


def _signed_exp(sign: int, log: float, what: str) -> float:
    """sign exp(log); past the float range ``PreconditionError``."""
    try:
        return sign * math.exp(log)
    except OverflowError:
        raise past_float_range(f"the {what}", log) from None


class _RaisingTable:
    """The unnormalised raising recursion of one matrix, behind the monic
    values, the orthonormal values and the matrix elements.

    With w_i = L[i][d], or 1 where that entry is 0 (w_d = L[d][d] >= 1),
    and r_i = L[i][j]/w_i (i = 0..d) for the first nonzero axis j of a
    degree (``_raising_step``), the values at shift s are

      S[n + e_j](y) = -r_d (|y| + b + s) S(y) + sum_i r_i y_i S(y - e_i),

    S on the right those of degree n at shift s + 1, and at degree zero 1
    where y_a = 0 on every axis a with L[a][d] = 0 (``zeros``), 0 elsewhere.
    For any matrix, prod_i L[i][d]^y_i S solves this recursion with every
    w_i = L[i][d] from prod_i L[i][d]^y_i at degree zero; the table divides
    by the nonzero L[i][d]^y_i only, so it serves every pseudo-rotation,
    the identity, rotations and boosts among them, and a generic matrix
    keeps the values it would have with every w_i = L[i][d].  With b = p/q
    and the r's a/E over one denominator, a value
    is kept as the integer (qE)^|n| S, so a step

      S^[n + e_j](y) = -a_d (q (|y| + s) + p) S^(y) + q sum_i a_i y_i S^(y - e_i)

    costs integer products only.  The table keeps one box [lo, hi] of the
    points asked for and one integer column per (degree, shift) over the
    box [max(0, lo - s), hi], so every y - e_i a step reads lies in the
    column below; a column is filled in C-level maps over the index lists
    of ``_plan``, and a degree's column from the highest one held on its
    chain, so the call stack stays flat at any degree.  A lone point x
    makes the box [x, x] and the columns the band [x - s, x].  A point
    outside the box doubles each side it must move (hi to max(x, 2 hi + 1),
    lo to min(x, lo // 2)), so a sweep grows it a logarithmic number of
    times, and drops the columns to be refilled.  A box is priced before
    it is filled, as the cells of the chain's columns (``_raising_cells``):
    where the grown box would be past POINT_BUDGET cells, the box restarts
    at the point, and a chain whose columns would be past it on the box
    it gets is refused with ``PreconditionError``.  Before a fill that
    would take the cells held past POINT_BUDGET the columns are dropped.

    At shift 0, S / sqrt((b)_|n| n!) is the orthonormal value and, times
    the signed amplitude sqrt((b)_t / y!) L[d][d]^-b prod_i (w_i/L[d][d])^y_i,
    t = |y| (``mass``), the matrix element: both are read in log space, so
    only the result can leave the float range.  ``levels`` streams one
    degree's elements level by level |y| = t with no box: two levels per
    column, |n| cells a point.  For a system's matrix, with no zero in its
    last row or column, S / ((b)_|n| prod_j (-r_dj)^n_j) is the monic value
    (``monic``).
    """

    def __init__(self, beta: Fraction, lam: PseudoRotation):
        e, d = lam.entries, lam.d
        self.zeros = [a for a in range(d) if not e[a][d]]
        self.p, self.q = beta.numerator, beta.denominator
        denom, nums = _scaled_list([e[i][j] / (e[i][d] or 1)
                                    for j in range(d) for i in range(d + 1)])
        # per axis j: the cleared last-row step -a_d and the q a_i, i < d
        rows = [nums[j * (d + 1) : (j + 1) * (d + 1)] for j in range(d)]
        self.steps = [(-row[d], [self.q * a for a in row[:d]]) for row in rows]
        self.lo = self.hi = None  # the box, set by the first point asked for
        self.strides, self.flat = [], 0  # the box's strides at shift 0, and max(lo)
        self.priced = self.cost = self.held = 0  # longest chain priced, its cells, cells held
        self.places: Dict[MultiIndex, int] = {}  # the points asked for, by place at shift 0
        self.columns: Dict[Tuple[MultiIndex, int], List[int]] = {}  # by (degree, shift)
        self.plans: Dict[int, tuple] = {}  # the box's ``_plan`` by shift, up to max(lo)
        self.dens: Dict[MultiIndex, int] = {}  # the monic denominators by degree
        self.beta, self.lam, self.scale = beta, lam, self.q * denom

    # the float parts are built on first float use, so the exact values need
    # no float beta; each is kept per table like its values

    @cached_property
    def mass(self) -> _LogMass:
        """The column mass, whose signed root is each point's amplitude."""
        return _LogMass(self.beta, self.lam)

    @cached_property
    def log_norm(self):
        """Each degree's log of (qE)^|n| sqrt((b)_|n| n!)."""
        b, log_qe = _float_beta(self.beta), math.log(self.scale)
        return lru_cache(maxsize=None)(
            lambda n: sum(n) * log_qe
            + 0.5 * (math.lgamma(b + sum(n)) - math.lgamma(b) + sum(math.lgamma(v + 1) for v in n))
        )

    def bottom(self, y: MultiIndex) -> int:
        """Degree zero's value at y: 0 where y_a > 0 on an axis of ``zeros``."""
        return 0 if any(y[a] for a in self.zeros) else 1

    def value(self, n: MultiIndex, x: MultiIndex) -> int:
        """(qE)^|n| S[n](x) at shift 0."""
        if not any(n):  # degree zero has no column
            return self.bottom(x)
        place = self.places.get(x)
        if place is None:
            place = self._place(n, x)
        column = self.columns.get((n, 0))
        if column is None:
            column = self._fill(n)
        return column[place]

    def _place(self, n: MultiIndex, x: MultiIndex) -> int:
        """The place of x in the columns at shift 0."""
        lo, hi = self.lo, self.hi
        if lo is None or not (all(map(le, lo, x)) and all(map(le, x, hi))):
            self._grow(n, x, x)
        place = self.places[x] = sum(map(mul, map(sub, x, self.lo), self.strides))
        return place

    def _grow(self, n: MultiIndex, low: MultiIndex, high: MultiIndex):
        """Take the box [low, high] in, doubling each side it must move, and
        drop the columns.  Where the grown box would cost more than
        POINT_BUDGET cells over the |n| columns of n's chain
        (``_raising_cells``), the box restarts at [low, high] instead, so a
        far point after a sweep keeps its band."""
        lo, hi, self.priced, self.cost, self.held = low, high, 0, 0, 0
        if self.lo is not None:
            wide = (
                tuple([c if v >= c else min(v, c // 2) for v, c in zip(low, self.lo)]),
                tuple([c if v <= c else max(v, 2 * c + 1) for v, c in zip(high, self.hi)]),
            )
            cells = _raising_cells(*wide, sum(n))
            if cells <= POINT_BUDGET:
                lo, hi, self.priced, self.cost = *wide, sum(n), cells
        self.lo, self.hi, self.flat = lo, hi, max(lo)
        sizes = [h - c + 1 for c, h in zip(lo, hi)]
        self.strides = [math.prod(sizes[a + 1 :]) for a in range(len(sizes))]
        self.places.clear()
        self.columns.clear()
        self.plans.clear()

    def _fill(self, n: MultiIndex) -> List[int]:
        """The column of degree n at shift 0, filled up its chain from the
        highest column held (or degree zero).  A chain longer than any
        priced on this box is priced first (``_raising_cells``) and refused
        past POINT_BUDGET cells; where the cells held and the longest
        chain's would pass it, the columns are dropped first."""
        columns, chain = self.columns, []
        degree, shift = n, 0
        while True:
            j, lower, bottom = _raising_step(degree)
            chain.append((degree, shift, j, lower, bottom))
            shift += 1
            if bottom or (lower, shift) in columns:
                break
            degree = lower
        if shift > self.priced:  # the chain fills the columns at shifts below ``shift``
            cells = _raising_cells(self.lo, self.hi, shift)
            if cells > POINT_BUDGET:
                raise _over_budget("the raising route", f"fill {cells} cells",
                                   f"{shift} columns over the box {self.lo}..{self.hi}", way_out=None)
            self.priced, self.cost = shift, cells
        if self.held + self.cost > POINT_BUDGET:
            self.columns.clear()
            self.held = 0
            return self._fill(n)
        p, q = self.p, self.q
        plans, flat = self.plans, self.flat
        for degree, shift, j, lower, bottom in reversed(chain):
            # the corner max(0, lo - s) is 0 from shift max(lo) on
            key = shift if shift < flat else flat
            plan = plans.get(key)
            if plan is None:
                plan = plans[key] = self._plan(key)
            same, low_size, by_axis, zero = plan
            slopes, terms = by_axis[j]
            low = (zero or [1] * low_size) if bottom else columns[(lower, shift + 1)]
            fetch = low.__getitem__
            # -a_d (q (|y| + s) + p) = slope |y| + offset
            offset = self.steps[j][0] * (q * shift + p)
            out = map(mul, map(add, slopes, repeat(offset)), map(fetch, same))
            for weights, down in terms:
                out = map(add, out, map(mul, weights, map(fetch, down)))
            column = columns[(degree, shift)] = list(out)
            self.held += len(column)
        return column

    def _plan(self, shift: int):
        """The index lists of the box at ``shift``, [corner, hi] with corner
        max(0, lo - shift), inside the box below it, [max(0, corner - 1),
        hi], both flattened with the last axis fastest: the place of each
        cell y below and its size, and per step axis j the slopes |y| times
        -a_d q and, per i with a_i nonzero, the weights q a_i y_i with the
        places of y - e_i below (where y_i = 0, a negative place, counted
        from the end, of some other cell, whose term the weight 0 cancels),
        and degree zero's column below where ``zeros`` has an axis (None
        where it is all 1).  Each list but that column is built a whole
        axis at a time."""
        hi = self.hi
        corner = [v - shift if v > shift else 0 for v in self.lo]
        below = [v - 1 if v else 0 for v in corner]
        spans = [range(c, h + 1) for c, h in zip(corner, hi)]
        sizes, low_sizes = [len(span) for span in spans], [h - b + 1 for h, b in zip(hi, below)]
        strides = [math.prod(low_sizes[a + 1 :]) for a in range(len(hi))]
        sums, same = [0], [0]
        for span, b, stride in zip(spans, below, strides):
            sums = [t + v for t in sums for v in span]
            offsets = [(v - b) * stride for v in span]
            same = [k + o for k in same for o in offsets]
        axes = []
        for a, (span, stride) in enumerate(zip(spans, strides)):
            inner = math.prod(sizes[a + 1 :])
            coords = list(itertools.chain.from_iterable([v] * inner for v in span))
            axes.append((coords * math.prod(sizes[:a]), list(map(sub, same, repeat(stride)))))
        by_axis = [
            (
                list(map((last * self.q).__mul__, sums)),
                [(list(map(c.__mul__, coords)), down) for c, (coords, down) in zip(col, axes) if c],
            )
            for last, col in self.steps
        ]
        zero = None
        if self.zeros:
            cells = itertools.product(*[range(b, h + 1) for b, h in zip(below, hi)])
            zero = list(map(self.bottom, cells))
        return same, math.prod(low_sizes), by_axis, zero

    def monic(self, n: MultiIndex, x: MultiIndex) -> Fraction:
        """The value over prod_{s<|n|} (p + s q) prod_j (-a_dj)^n_j, the
        cleared (qE)^|n| (b)_|n| prod_j (-r_dj)^n_j, kept per degree in
        ``dens``."""
        den = self.dens.get(n)
        if den is None:
            steps = math.prod(last**v for (last, _), v in zip(self.steps, n))
            den = self.dens[n] = rising_row(self.p, self.q, sum(n))[-1] * steps
        return Fraction(self.value(n, x), den)

    def orthonormal(self, n: MultiIndex, x: MultiIndex) -> float:
        """S[n](x) / sqrt((b)_|n| n!); far below the float range it reads
        0.0, above it raises ``PreconditionError``."""
        value = self.value(n, x)
        if not value:
            return 0.0
        log = math.log(abs(value)) - self.log_norm(n)
        return _signed_exp(1 if value > 0 else -1, log, "orthonormal value")

    def matrix_element(self, x: MultiIndex, n: MultiIndex) -> float:
        """<x| F(L) |n>, the signed amplitude times the orthonormal value."""
        value = self.value(n, x)
        if not value:
            return 0.0
        sign = self.mass.sign(x)
        log = math.log(abs(value)) + 0.5 * self.mass(x) - self.log_norm(n)
        return _signed_exp(sign if value > 0 else -sign, log, "matrix element")

    def levels(self, n: MultiIndex):
        """The elements <y| F(L) |n>, one list per level t = 0, 1, 2, ...
        over the points of ``_level(t, d)``: n's chain of ``_fill`` steps
        from degree zero up, each column on level t read from the lower
        degree's on t (y) and t - 1 (y - e_i), so two levels are kept.  Once
        the cells filled (chain length times level size, summed) would pass
        POINT_BUDGET the stream is refused.  One ``_LogMass.head`` a level
        and the axis terms, added as ``_LogMass.__call__`` adds them, make
        each element the float of ``matrix_element`` bit for bit."""
        p, q, mass, norm = self.p, self.q, self.mass, self.log_norm(n)
        chain, degree = [], n  # (shift, -a_d, the q a_i) of each step, the top one first
        while any(degree):
            j, degree, _ = _raising_step(degree)
            chain.append((len(chain), *self.steps[j]))
        chain.reverse()
        # level -1 of every column, degree zero first: the weights y_i = 0 of level 0 read its 0
        rows, cells, axes = [[0]] * (len(chain) + 1), 0, [[] for _ in n]
        for t in itertools.count():
            points, coords, downs = _level(t, len(n))
            cells += len(chain) * len(points)
            if cells > POINT_BUDGET:
                raise _over_budget("the raising route", f"fill {cells} cells",
                                   f"{len(chain)} columns over {t + 1} levels", way_out=None)
            level = [list(map(self.bottom, points)) if self.zeros else [1] * len(points)]
            for (shift, last, weights), low in zip(chain, rows):
                out = map((last * (q * (t + shift) + p)).__mul__, level[-1])
                for qa, ys, down in zip(weights, coords, downs):
                    out = map(add, out, map(mul, map(qa.__mul__, ys), map(low.__getitem__, down)))
                level.append(list(out))
            rows, values = level, level[-1]
            for i, table in enumerate(axes):
                table.append(mass.axis(i, t))
            terms = map(sum, zip(*[map(table.__getitem__, ys) for table, ys in zip(axes, coords)]))
            halves = map((0.5).__mul__, map(add, repeat(mass.head(t)), terms))
            odd = map(sum, zip(*compress(coords, mass.negative), repeat(0)))
            yield [_signed_exp((-1) ** ((v < 0) + o), math.log(abs(v)) + h - norm, "matrix element")
                   if v else 0.0 for v, h, o in zip(values, halves, odd)]


@lru_cache(maxsize=512)
def _level(t: int, d: int):
    """The points y of level |y| = t in ``_exponents_of_degree`` order, their
    coordinates by axis, and per axis i the places of y - e_i on level t - 1
    (0 where y_i = 0, whose weight y_i cancels the term), all tuples, as
    they are shared."""
    points = tuple(_exponents_of_degree(t, d))
    below = {y: pos for pos, y in enumerate(_exponents_of_degree(t - 1, d))} if t else {}
    downs = tuple(tuple(below.get(_step_down(y, i), 0) for y in points) for i in range(d))
    return points, tuple(zip(*points)), downs


def monic_eval_raising_d(sys: MeixnerSystemD, n: Sequence[int], x: Sequence[int]) -> Fraction:
    """The raising recursion: the monic value of the system's
    ``_RaisingTable``."""
    n = _as_multi_index(n, sys.d, "degrees")
    return sys._raising.monic(n, _as_multi_index(x, sys.d, "point"))


# ---------------------------------------------------------------------------
# route 3: terminating hypergeometric sum


class _HypTable(dict):
    """The terminating sum over d x d matrices A (Griffiths 1975) of one
    system, degree n -> (caps, den, tensor, partials).

    The sum of prod_j (-n_j)_{col_j} prod_a (-x_a)_{row_a} prod_{a,j}
    (1 - u[a][j])^A_aj / A_aj! / (b)_|A|, grouped by the row sums r, is
    sum_r C[r] prod_a (-x_a)_r_a / den, C the tensor of ``_hyp_tensor``
    cut at ``caps`` (1 - u = B / E cleared once per table), and
    ``partials`` its contractions over all axes but the last with the rows
    of each prefix x[:-1] asked for (``_hyp_contract``).  A degree's first
    entry is cut at its first point's reach; the first point past it
    rebuilds the entry at |n| on every axis, with no partials.  The rows
    (-a)_t are kept by a in ``negs``, each the longest asked for."""

    def __init__(self, beta: Fraction, u):
        super().__init__()
        self.p, self.q = beta.numerator, beta.denominator
        d = len(u)
        self.denom, nums = _scaled_list([1 - u[a][j] for j in range(d) for a in range(d)])
        self.forms = [nums[j * d : (j + 1) * d] for j in range(d)]  # B[a][j] by column j
        self.negs: Dict[int, List[int]] = {}

    def value(self, n: MultiIndex, x: MultiIndex) -> Fraction:
        """The monic value R_n(x)."""
        top = sum(n)
        reach = [v if v < top else top for v in x]  # (-x_a)_r vanishes past x_a; |r| <= |n|
        _, den, tensor, partials = self.entry(n, reach)
        prefix = x[:-1]
        partial = partials.get(prefix)
        if partial is None:
            partial = partials[prefix] = _hyp_contract(tensor, list(map(self.neg, prefix, reach)))
        return Fraction(sum(map(mul, partial, self.neg(x[-1], reach[-1]))), den)

    def entry(self, n: MultiIndex, reach):
        """The entry of degree n: built at ``reach`` the first time, rebuilt
        at |n| on every axis when a later reach passes it."""
        entry = self.get(n)
        if entry is not None and all(map(le, reach, entry[0])):
            return entry
        caps = tuple(reach) if entry is None else (sum(n),) * len(n)
        entry = self[n] = (caps, *_hyp_tensor(n, caps, self.p, self.q, self.denom, self.forms), {})
        return entry

    def neg(self, a: int, reach: int) -> List[int]:
        """The row (-a)_t for t = 0..reach at least."""
        row = self.negs.get(a)
        if row is None or len(row) <= reach:
            row = self.negs[a] = rising_row(-a, 1, reach)
        return row


def monic_eval_hyp_d(sys: MeixnerSystemD, n: Sequence[int], x: Sequence[int]) -> Fraction:
    """The terminating hypergeometric sum, read from the system's
    ``_HypTable``."""
    n = _as_multi_index(n, sys.d, "degrees")
    return sys._hyp.value(n, _as_multi_index(x, sys.d, "point"))


def _over_budget(who: str, work: str, detail: str,
                 way_out: Optional[str] = "use --route raising") -> PreconditionError:
    """The refusal of a request that ``who`` (a route, a check) prices past
    POINT_BUDGET, with the way out, if there is one."""
    tail = f"; {way_out}" if way_out else ""
    return PreconditionError(f"{who} would {work} ({detail}), more than {POINT_BUDGET}{tail}")


def price_scan(who: str, degrees: int, points: int, way_out: str = "shrink the box"):
    """Refuse, before it starts, a scan by ``who`` of every degree of
    ``degrees`` at every point of ``points`` (the counts) past POINT_BUDGET
    cells."""
    if degrees * points > POINT_BUDGET:
        raise _over_budget(who, f"scan {degrees * points} cells",
                           f"{degrees} degrees times {points} points", way_out)


def _hyp_tensor(n: MultiIndex, caps, p: int, q: int, denom: int, forms):
    """(den, C), C cut at ``caps`` and |r| <= |n|, one nested list per axis:
    by the multinomial theorem (b)_|r| C[r] / den is the coefficient of y^r
    in prod_j (1 - sum_a (1 - u[a][j]) y_a)^n_j.  With 1 - u[a][j] =
    B[a][j] / E (``forms[j]`` the B[a][j], E = ``denom``) and y = E z,
    P = prod_j (1 - sum_a B[a][j] z_a)^n_j has P[r] = E^|r| (b)_|r| C[r] / den.
    From the constant 1, P is multiplied by one linear form per unit of
    each n_j over the cells of ``_hyp_plan`` up to its degree; no cell past
    ``caps`` or |n| feeds one inside, so the cut is exact.  With b = p/q
    and t the largest |r|, P[r] is then scaled by q^|r| E^(t - |r|)
    prod_{|r|<=s<t} (p + s q), over den = E^t prod_{s<t} (p + s q).  A build
    of more than POINT_BUDGET cell products (cells times |n|) is refused."""
    top, d = sum(n), len(caps)
    reach = min(top, sum(caps))
    if math.comb(reach + d, d) * top > POINT_BUDGET:  # there are at most C(reach + d, d) cells
        # the cells r <= caps, |r| <= reach, by inclusion and exclusion over the axes r passes
        cells = sum((-1) ** k * math.comb(reach - sum(s) - k + d, d) for k in range(d + 1)
                    for s in itertools.combinations(caps, k) if sum(s) + k <= reach)
        if cells * top > POINT_BUDGET:
            raise _over_budget("the hypergeometric route", f"form {cells * top} cell products",
                               f"{cells} tensor cells times {top} linear factors")
    counts, downs, order, grades = _hyp_plan(caps, reach)
    poly = [1] + [0] * counts[-1]  # the last place stays 0
    degree = 0
    for nj, form in zip(n, forms):
        for _ in range(nj):
            degree += 1
            size = counts[min(degree, reach)]
            out = poly[:size]
            for b, down in zip(form, downs):
                if b:
                    out = map(sub, out, map(b.__mul__, map(poly.__getitem__, down)))
            poly[:size] = out  # read whole before the slice is replaced
    rising = rising_row(p, q, reach)
    scales = [q**t * denom ** (reach - t) * (rising[reach] // r) for t, r in enumerate(rising)]
    flat = map(mul, map(poly.__getitem__, order), map(scales.__getitem__, grades))
    return denom**reach * rising[reach], _hyp_nested(flat, caps, reach)


@lru_cache(maxsize=256)
def _hyp_plan(caps: MultiIndex, top: int):
    """The cells r <= caps with |r| <= top by place in graded order (by |r|,
    lexicographic within): the number of cells of degree up to t for each
    t, per axis a the places of r - e_a (the place past the last cell where
    r_a = 0), and each cell's place and |r| in lexicographic order."""
    lex = [()]
    for cap in caps:
        lex = [r + (v,) for r in lex for v in range(min(cap, top - sum(r)) + 1)]
    grades, graded = list(map(sum, lex)), sorted(lex, key=sum)
    place = {r: pos for pos, r in enumerate(graded)}
    counts = list(itertools.accumulate(map(grades.count, range(top + 1))))
    end = len(lex)  # the place past the last cell, which stays 0
    downs = [[place[_step_down(r, a)] if r[a] else end for r in graded] for a in range(len(caps))]
    return counts, downs, [place[r] for r in lex], grades


def _hyp_nested(flat, caps, room: int):
    """The values of the iterator ``flat``, one per r <= caps with |r| <=
    room in lexicographic order, as one nested list per axis."""
    size = min(caps[0], room) + 1
    if len(caps) == 1:
        return list(itertools.islice(flat, size))
    return [_hyp_nested(flat, caps[1:], room - v) for v in range(size)]


def _hyp_contract(tensor, negs):
    """The tensor contracted over its leading axes with the rows ``negs``:
    the list over the remaining axis of sum_r' tensor[r'] prod_a
    negs[a][r'_a], entries past a row's reach left unread.  Each row of
    the tensor is added in one C-level slice update; the sub-tensor at
    r'_a = 0 is the longest, and negs[a][0] = 1.  With no rows it is the
    tensor itself."""
    if not negs:
        return tensor
    out = list(_hyp_contract(tensor[0], negs[1:]))
    for ni, sub in zip(negs[0][1:], tensor[1:]):
        part = _hyp_contract(sub, negs[1:])
        out[: len(part)] = map(add, out, map(ni.__mul__, part))
    return out


# ---------------------------------------------------------------------------
# exact polynomial coefficients (for fast float evaluation on big lattices)


def _simplex_lattice(total: int, d: int):
    """Lattice points of d coordinates with coordinate sum at most ``total``,
    in graded order: by coordinate sum, lexicographic within each sum."""
    for t in range(total + 1):
        yield from _exponents_of_degree(t, d)


def monic_poly_coeffs_d(sys: MeixnerSystemD, n: Sequence[int]) -> Dict[MultiIndex, Fraction]:
    """Exact monomial coefficients of the degree-|n| polynomial in x.

    The system's hypergeometric tensor of degree n, grown to |n| on every
    axis, holds the polynomial in the basis prod_a (-x_a)_{r_a}, r over the
    simplex {|r| <= |n|} (``monic_eval_hyp_d``).  With s the signed Stirling
    numbers of the first kind, (-y)_r = sum_m (-1)^r s(r, m) y^m turns it
    into monomial coefficients one axis at a time, line by line, in
    integers over the tensor's denominator.
    """
    n = _as_multi_index(n, sys.d, "degrees")
    d, top = sys.d, sum(n)
    _, den, flat, _ = sys._hyp.entry(n, (top,) * d)
    for _ in range(d - 1):  # one axis at a time, which keeps r in lexicographic order
        flat = list(itertools.chain.from_iterable(flat))
    table = dict(zip(sorted(_simplex_lattice(top, d)), flat))
    rows = [[1] + [0] * top]  # rows[r][m] = (-1)^r s(r, m), by (-y)_{r+1} = (-y)_r (r - y)
    for r in range(top):
        rows.append([r * a - b for a, b in zip(rows[-1], [0, *rows[-1]])])
    matrix = list(zip(*rows))  # entry (m, r) is rows[r][m], zero for r < m
    for axis in range(d):
        for base in [x for x in table if not x[axis]]:
            line = [base[:axis] + (j,) + base[axis + 1 :] for j in range(top - sum(base) + 1)]
            old = [table[x] for x in line]
            table.update((x, sum(map(mul, row, old))) for x, row in zip(line, matrix))
    return {x: Fraction(c, den) for x, c in table.items() if c}


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


def _three_diagonal_columns(sys: MeixnerSystemD, max_n, max_x, transposed: bool):
    """The ``column_report`` columns of the recurrences in the degrees
    (rows of the matrix, total = |n| + b) or, ``transposed``, the
    difference equations in the variables (columns, total = |x| + b).
    ``_three_diagonal`` gives each row with the weight w of y_j, and the
    values it reads share the one denominator den of their ``_gf_values``
    columns (transposed for the difference equations), so a residual is
    one integer dot product over w den."""
    d = sys.d
    e = list(zip(*sys.lam.entries)) if transposed else sys.lam.entries
    shifted_top, fixed = (max_x, lattice(max_n)) if transposed else (max_n, lattice(max_x))
    rows_at = _three_diagonal(e[:d], e[d], sys.beta)
    plans = {s: rows_at(s) for s in lattice(shifted_top)}
    reached = dict.fromkeys(t for targets, _ in plans.values() for t in targets)
    degrees, points = (fixed, reached) if transposed else (reached, fixed)
    den, V = _gf_values(_store_of(sys, degrees), degrees, points)
    cols = dict(zip(reached, zip(*V.values()))) if transposed else V
    axes = list(zip(*fixed))  # y_j over the fixed indices

    def columns(s):
        targets, rows = plans[s]
        values = [cols[t] for t in targets]
        return [
            (_int_column([(w, list(map(mul, axes[j], values[0]))), *zip(row, values)]), w * den)
            for j, (w, row) in enumerate(rows)
        ]

    return columns


def _checked_box(sys: MeixnerSystemD, what: str, max_n, max_x):
    """The box's corners, once the mode holds and the box is priced
    (``price_scan``)."""
    sys.require_mode(ScalarMode.EXACT, what)
    max_n = _as_multi_index(max_n, sys.d, "max degrees")
    max_x = _as_multi_index(max_x, sys.d, "max point")
    price_scan(what, math.prod(v + 1 for v in max_n), math.prod(v + 1 for v in max_x))
    return max_n, max_x


def check_recurrence_d(sys: MeixnerSystemD, max_n: MultiIndex, max_x: MultiIndex) -> EvalReport:
    """The d three-diagonal recurrences in the degrees, exactly: relation j
    multiplies by x_j and reads row j of the matrix, with p its last row."""
    max_n, max_x = _checked_box(sys, "check_recurrence_d", max_n, max_x)
    columns = _three_diagonal_columns(sys, max_n, max_x, transposed=False)
    return column_report("recurrence", max_n, max_x, columns)


def check_difference_d(sys: MeixnerSystemD, max_n: MultiIndex, max_x: MultiIndex) -> EvalReport:
    """The d difference equations in the variables, exactly: relation j
    multiplies by n_j and reads column j of the matrix, with p its last
    column.

    At d = 2 the two equations over L[0][0] L[1][0] and L[0][1] L[1][1]
    combine into a nearest-neighbour one in which the mixed shifts cancel.
    It is checked as a third residual and needs those entries nonzero.
    """
    max_n, max_x = _checked_box(sys, "check_difference_d", max_n, max_x)
    columns = _three_diagonal_columns(sys, max_n, max_x, transposed=True)
    if sys.d == 2:
        e = sys.lam.entries
        w0, w1 = e[0][0] * e[1][0], e[0][1] * e[1][1]
        if not (w0 and w1):
            raise NonGenericMatrix(
                "nearest-neighbour difference equation divides by interior entries that are zero"
            )
        pair = columns

        @lru_cache(maxsize=1)  # den0 and den1 are the same at every x
        def scales(den0, den1):
            # num0 / (den0 w0) - num1 / (den1 w1) = (k0 num0 - k1 num1) / common
            return _scaled_list([1 / (den0 * w0), 1 / (den1 * w1)])

        def columns(x):
            (num0, den0), (num1, den1) = both = pair(x)
            common, (k0, k1) = scales(den0, den1)
            return [*both, (_int_column([(k0, num0), (-k1, num1)]), common)]

    return column_report("difference", max_n, max_x, columns, transposed=True)


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
    degrees, points = lattice(max_n), lattice(max_x)
    shifted = [[tuple(map(add, x, t)) for x in points] for t in _units(d)]  # x + e_i
    near = dict.fromkeys(itertools.chain(points, *shifted))  # distinct, the points first
    where = {y: pos for pos, y in enumerate(near)}
    lines = [[where[y] for y in line] for line in shifted]  # rows of x + e_i in near
    den, R = _gf_values(_store_of(sys, degrees[:-1]), degrees[:-1], points)  # all but max_n
    low_den, low = _gf_values(_store_of(MeixnerSystemD(b - 1, sys.lam), degrees), degrees, near)
    # the (b-1) (L[d][j]/L[d][d]) L[i][j] L[i][d] products in front of D_i
    cden, cnums = _scaled_list(
        [(b - 1) * (e[d][j] / e[d][d]) * (e[i][j] * e[i][d]) for j in range(d) for i in range(d)]
    )
    coeffs = [[den * c for c in cnums[j * d : (j + 1) * d]] for j in range(d)]
    front = cden * low_den  # the denominator of the sum over D_i

    def columns(n):
        col = low[n]
        diffs = [[col[r] - v for r, v in zip(rows, col)] for rows in lines]
        out = []
        for j, row in enumerate(coeffs):
            terms = list(zip(row, diffs))
            if n[j]:
                terms.append((n[j] * front, R[_step_down(n, j)]))
            out.append((_int_column(terms), front * den))
        return out

    return column_report("lowering", max_n, max_x, columns)


def check_duality_d(sys: MeixnerSystemD, max_n: MultiIndex, max_x: MultiIndex) -> EvalReport:
    """Degrees and variables exchange against the inverse-matrix system:
    R_n(x; L) = R_x(n; L~^-1).  Each table has its one denominator, so a
    residual is R dual_den - dual den over den dual_den."""
    max_n, max_x = _checked_box(sys, "check_duality_d", max_n, max_x)
    degrees, points = lattice(max_n), lattice(max_x)
    den, R = _gf_values(_store_of(sys, points), points, degrees)  # degrees and points swapped
    R = dict(zip(degrees, zip(*R.values())))  # transposed: one column per degree
    dual_den, dual = _gf_values(_store_of(sys.dual(), degrees), degrees, points)

    def columns(n):
        pair = [(dual_den, R[n]), (-den, dual[n])]
        return [(_int_column(pair), den * dual_den)]

    return column_report("duality", max_n, max_x, columns)


# ---------------------------------------------------------------------------
# orthonormal family, matrix elements, the addition formula and truncated
# orthogonality (float only)


def orthonormal_eval_d(sys: MeixnerSystemD, n: Sequence[int], x: Sequence[int]) -> float:
    """Orthonormal value: signed square-root normalization times the monic
    value, read from the system's raising table in log space."""
    sys.require_mode(ScalarMode.FLOAT, "orthonormal_eval")
    n = _as_multi_index(n, sys.d, "degrees")
    return sys._raising.orthonormal(n, _as_multi_index(x, sys.d, "point"))


def element_reader(beta, lam: PseudoRotation) -> Callable[[Sequence[int], Sequence[int]], float]:
    """The float matrix elements (x, n) -> <x| F(lam) |n> of any
    pseudo-rotation at any d.

    The identity gives the Kronecker delta exactly; any other matrix is
    read from one ``_RaisingTable`` kept for the reader's lifetime, so a
    sweep reuses its box (``_RaisingTable.matrix_element``).  The table
    serves every pseudo-rotation, zeros in its last row or column
    included, so the subgroup closed forms are its oracles.  Its values
    are exact integers until the one log-space conversion, so an element
    is good to about rel 1e-13 even on the d = 2 level block
    |x| = |n| = 25.  A table past ``POINT_BUDGET`` cells is refused with
    ``PreconditionError``.
    """
    beta, d = require_beta(beta), lam.d
    table = None if lam.entries == identity(d).entries else _RaisingTable(beta, lam)

    def read(x: Sequence[int], n: Sequence[int]) -> float:
        x, n = _as_multi_index(x, d, "point"), _as_multi_index(n, d, "degrees")
        if table is None:
            return 1.0 if x == n else 0.0
        return table.matrix_element(x, n)

    return read


def check_addition_d(
    A: PseudoRotation, B: PseudoRotation, beta, x: Sequence[int], n: Sequence[int], tol: float
) -> EvalReport:
    """Group-product decomposition <x| F(AB) |n> against the adaptively
    truncated bilinear sum over intermediate states y, level by level:

      sum_L sum_{|y| = L} <x| F(A) |y> <y| F(B) |n>.

    The right row of level L is level L of B's raising stream at degree n
    (``_RaisingTable.levels``), and the left one, by U(A)_{x,y} =
    U(A~)_{y,x} (the representation is unitary with real elements and
    A~ = ``inverse_tilde(A)`` is A's inverse), that of A~'s stream at
    degree x; the tables serve every pair of factors.  A stream keeps two
    levels of its chain of |n| columns; level L costs |n| C(L + d - 1, L)
    cells, and past POINT_BUDGET cells in all it is refused.  The sum
    stops at the first level past both |x| and |n| whose contribution is
    below tol / 100, or past SHELL_CAP."""
    require_tol(tol)
    beta = require_beta(beta)
    x, n = _as_multi_index(x, A.d, "point"), _as_multi_index(n, A.d, "degrees")
    lhs = element_reader(beta, compose(A, B))(x, n)
    rows_a = _RaisingTable(beta, inverse_tilde(A)).levels(x)
    rows_b = _RaisingTable(beta, B).levels(n)
    total = 0.0
    threshold = tol / 100.0
    for level, row_a, row_b in zip(range(SHELL_CAP + 1), rows_a, rows_b):
        contrib = sum(map(mul, row_a, row_b))
        total += contrib
        if level >= max(sum(n), sum(x)) and abs(contrib) < threshold:
            break
    else:
        raise NonConvergence(f"addition sum did not settle within {SHELL_CAP} diagonal shells")

    disc = abs(lhs - total)
    counter = (*x, *n) if disc > tol else None
    box = {"d": A.d, "point": list(x), "degrees": list(n)}
    return EvalReport("addition", box, ScalarMode.FLOAT, disc, counter, tol)


def _orthonormal_prefactor_d(
    sys: MeixnerSystemD, n: MultiIndex, mass: Optional[_LogMass] = None
) -> float:
    """(-1)^|n| sqrt((b)_|n| / n!) prod_i (L[d][i]/L[d][d])^n_i, read from
    ``mass``, the system's row mass, when one is given."""
    if mass is None:
        mass = _LogMass(sys.beta, sys.lam, row=True)
    return (-1) ** sum(n) * mass.root(n)


def _shell_runs(shell: int, d: int):
    """Cube shell ``shell`` (the points of [0, shell]^d with largest
    coordinate shell) as runs ``(head, ys, tail)``: the points head + (y,)
    + tail for y in the range ys, in lexicographic order.  A prefix of the
    first d - 2 coordinates that touches the shell gives shell + 1 lines
    along the last axis; one that does not gives the run along axis d - 2
    with the last coordinate at the shell, then the line through the
    prefix and the shell along the last axis."""
    if d == 1:
        yield (), range(shell, shell + 1), ()
        return
    for outer in itertools.product(range(shell + 1), repeat=d - 2):
        if shell in outer:
            for p in range(shell + 1):
                yield outer + (p,), range(shell + 1), ()
        else:
            yield outer, range(shell), (shell,)
            yield outer + (shell,), range(shell + 1), ()


class _GramFamily:
    """The orthonormal polynomials of ``degrees`` in float, each as its
    prefactor times the coefficients of ``monic_poly_coeffs_d``, set out
    for evaluation along runs of points where one coordinate y varies.

    On a run along ``axis`` the other coordinates are fixed, so a degree-n
    polynomial collapses to sum_k C_k y^k with C_k = sum_r coef[r with k
    inserted at axis] * prod_i fixed_i^r_i over the monomials r of the
    fixed coordinates with |r| <= |n| - k, in graded order, each added left
    to right.  Horner then runs v = C_|n|, v = v y + C_k down to k = 0 over
    all of the run's points at once, one sweep per degree, each step one
    C-level ``map`` over the run.
    """

    def __init__(self, sys: MeixnerSystemD, degrees: List[MultiIndex]):
        d = sys.d
        totals = list(map(sum, degrees))
        top = max(totals)
        mass = _LogMass(sys.beta, sys.lam, row=True)
        coeffs = []
        for n in degrees:
            pref = _orthonormal_prefactor_d(sys, n, mass)
            poly = monic_poly_coeffs_d(sys, n)
            coeffs.append({mono: pref * float(c) for mono, c in poly.items()})
        monos = list(_simplex_lattice(top, d))
        self.mono_degrees = list(map(sum, monos))
        self.abs_rows = [
            [abs(row.get(mono, 0.0)) for mono in monos[: math.comb(t + d, d)]]
            for t, row in zip(totals, coeffs)
        ]
        # the monomials of the d - 1 fixed coordinates in graded order, each
        # but the first an earlier one times one coordinate
        reduced = list(_simplex_lattice(top, d - 1)) if d > 1 else [()]
        position = {r: j for j, r in enumerate(reduced)}
        self.steps = []
        for r in reduced[1:]:
            i = _first_axis(r)
            self.steps.append((position[_step_down(r, i)], i))
        # per run axis, degree by degree in list order: the coefficients of
        # the products coef * fixed monomial, the monomials they read, each
        # C_k's slice of the products from k = |n| down, and the degree's
        # (first, last) bounds in those slices
        self.tables = {}
        for axis in {max(d - 2, 0), d - 1}:
            coefs, gather, slices, bounds = [], [], [], []
            for t, row in zip(totals, coeffs):
                first = len(slices)
                for k in range(t, -1, -1):
                    start = len(coefs)
                    for j, r in enumerate(reduced[: math.comb(t - k + d - 1, d - 1)]):
                        coefs.append(row.get(r[:axis] + (k,) + r[axis:], 0.0))
                        gather.append(j)
                    slices.append(slice(start, len(coefs)))
                bounds.append((first, len(slices)))
            self.tables[axis] = coefs, gather, slices, bounds

    def bound(self, shell: int) -> float:
        """V(S) = max_n sum |coef| S^|mono|, which bounds every polynomial
        of the family on shell S."""
        powers = [float(shell**t) for t in self.mono_degrees]
        return max(sum(map(mul, row, powers)) for row in self.abs_rows)

    def values(self, axis: int, fixed: MultiIndex, ys: List[int]) -> List[List[float]]:
        """The values at the points ``fixed`` with y inserted at ``axis``,
        y over ``ys``: one list of len(ys) values per degree, in list order."""
        monomials = [1.0]
        for parent, i in self.steps:
            monomials.append(monomials[parent] * fixed[i])
        coefs, gather, slices, bounds = self.tables[axis]
        products = list(map(mul, coefs, map(monomials.__getitem__, gather)))
        collapsed = list(map(sum, map(products.__getitem__, slices)))
        out = []
        for first, last in bounds:
            v = [collapsed[first]] * len(ys)
            for c in collapsed[first + 1 : last]:
                v = list(map(add, map(mul, v, ys), repeat(c)))
            out.append(v)
        return out


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
    and is skipped.  A point's weight is exp(heads[|x|] + (partial +
    axes[d-1][x_d])), partial = sum_{i < d-1} axes[i][x_i], read from the
    ``_LogMass`` tables of heads up to d S and axes up to S, which grow
    with the shell; no weight is kept per point.  The polynomial
    coefficients are those of ``sys`` itself.

    A shell is walked as runs (``_shell_runs``), stretches of points in
    lexicographic order where one coordinate varies.  Each run takes its
    weights in one C-level ``map`` of ``math.exp`` and its skip test in
    another, and the values at its kept points come from one collapse onto
    the run axis and one Horner sweep per degree (``_GramFamily.values``),
    one value column per degree.  The columns are added to the Gram entries in
    blocks of at least GRAM_BLOCK points, one C-level ``sum`` per entry and
    block, in point order.  Up to CPython 3.11 ``sum`` adds floats left to
    right, so every entry is the point-by-point sum of these values bit for
    bit; from 3.12 ``sum`` compensates its float additions, so an entry may
    differ from that sum in its last bits.

    Returns the largest deviation and the first degree pair (upper
    triangle, in list order) that deviates by more than tol, or None.
    """
    sys.require_mode(ScalarMode.FLOAT, what)
    require_tol(tol)
    d = sys.d
    family = _GramFamily(sys, degrees)
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
        bound = family.bound(shell)
        bound_sq = bound * bound
        start = gram  # gram is rebound below, never changed in place
        cols: List[List[float]] = [[] for _ in range(count)]  # the block, degrees in order
        weights: List[float] = []
        for head, ys, tail in _shell_runs(shell, d):
            axis = len(head)
            partial = sum(map(getitem, axes, head))
            run_terms = axes[axis][ys.start : ys.stop]
            if tail:  # along axis d - 2, the last coordinate at the shell
                partials, lasts = map(add, repeat(partial), run_terms), repeat(axes[-1][shell])
            else:
                partials, lasts = repeat(partial), run_terms
            base = sum(head) + sum(tail)
            logs = map(add, heads[base + ys.start : base + ys.stop], map(add, partials, lasts))
            wts = list(map(math.exp, logs))
            # kept: not wt * bound_sq < negligible
            keep = list(map(not_, map(lt, map(mul, wts, repeat(bound_sq)), repeat(negligible))))
            if not any(keep):
                continue
            kept_ys = list(compress(ys, keep))
            for col, values in zip(cols, family.values(axis, head + tail, kept_ys)):
                col += values
            weights += compress(wts, keep)
            if len(weights) >= GRAM_BLOCK:
                gram = _gram_add(gram, pairs, cols, weights)
                cols, weights = [[] for _ in range(count)], []
        if weights:
            gram = _gram_add(gram, pairs, cols, weights)
        if shell >= 1 and max(map(abs, map(sub, gram, start))) < threshold:
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


def _gram_add(gram: List[float], pairs, cols, weights) -> List[float]:
    """gram entry + sum_p weights[p] cols[a][p] cols[b][p] for every entry
    and its pair (a, b) of value columns in ``pairs``, each entry's products
    (w v_a) v_b added left to right in point order."""
    wcols = [list(map(mul, weights, col)) for col in cols]
    return [sum(map(mul, wcols[a], cols[b]), g) for (a, b), g in zip(pairs, gram)]


def check_orthogonality_d(sys: MeixnerSystemD, degree_box: int, tol: float) -> EvalReport:
    """Gram matrix of the orthonormal family {|n| <= degree_box} against the
    identity, summed over growing cube surfaces until a full surface
    contributes less than tol/100."""
    if degree_box < 0:
        raise ValueError("degree_box must be non-negative")
    degrees = sorted(_simplex_lattice(degree_box, sys.d))
    max_disc, first = _gram_discrepancy(sys, degrees, tol, "check_orthogonality_d")
    box = {"d": sys.d, "max_total_degree": degree_box}
    return EvalReport("orthogonality-d", box, ScalarMode.FLOAT, max_disc, first, tol)
