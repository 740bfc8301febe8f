"""The two-variable core: weights, amplitudes, four independent
evaluation routes for the polynomial family of a generic pseudo-rotation,
and exact checkers for its web of identities.

Route map
---------
* ``monic_eval_gf``       expansion of the three-factor generating product
                          (the independent oracle, built on TruncatedSeries)
* ``monic_eval_raising``  the radical-free degree recursion obtained by
                          pushing the monic normalization through the
                          raising relations; descends in the base parameter
* ``monic_eval_hyp``      the terminating four-index hypergeometric sum
* ``factorized_eval`` / ``general_sum_eval``
                          closed forms in univariate Meixner/Krawtchouk
                          factors, valid for specific product decompositions

All identity checkers run on the monic values, which are rational, so an
identity either holds with discrepancy exactly zero or it is broken.  The
orthonormal family and the representation matrix elements carry square
roots and live in float mode only.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Callable, Dict, Tuple

from ._kernel import hyp_sum
from ._kernel.pure import _scaled_list
from .errors import ModeError, NonConvergence, NonGenericMatrix, PreconditionError
from .lorentz import (
    PseudoRotation,
    compose,
    identity as lorentz_identity,
    inverse_tilde,
    require_generic,
)
from .numerics import (
    ScalarMode,
    TruncatedSeries,
    as_rational,
    coefficient,
    pochhammer,
    series_geom_pow,
    series_mul,
    solve_linear_system,
)
from .reports import EvalReport, LatticeBox
from .univariate import krawtchouk, meixner

SHELL_CAP = 400


class MeixnerSystem:
    """A (beta, Lambda) bundle for d = 2 with its derived parameters.

    Immutable after construction; evaluation caches only ever gain entries
    whose values are exact functions of the inputs, so sharing across
    threads cannot change any result.
    """

    def __init__(self, beta, lam: PseudoRotation, mode=ScalarMode.EXACT):
        if lam.d != 2:
            raise ValueError(f"MeixnerSystem needs a 3x3 matrix, got d={lam.d}")
        require_generic(lam)
        beta = as_rational(beta)
        if beta <= 0:
            raise ValueError(f"beta must be positive, got {beta}")
        self.beta = beta
        self.lam = lam
        self.mode = ScalarMode(mode)

        e = lam.entries
        (self.l11, self.l12, self.l13) = e[0]
        (self.l21, self.l22, self.l23) = e[1]
        (self.l31, self.l32, self.l33) = e[2]

        self.c1 = (self.l13 / self.l33) ** 2
        self.c2 = (self.l23 / self.l33) ** 2
        if not (self.c1 > 0 and self.c2 > 0 and self.c1 + self.c2 < 1):
            raise ValueError("weight parameters escaped (0,1): matrix is not usable")
        self.u11 = self.l11 * self.l33 / (self.l13 * self.l31)
        self.u12 = self.l12 * self.l33 / (self.l13 * self.l32)
        self.u21 = self.l21 * self.l33 / (self.l23 * self.l31)
        self.u22 = self.l22 * self.l33 / (self.l23 * self.l32)

        self._gf_cache: Dict[Tuple[int, int], TruncatedSeries] = {}
        self._raising_cache: Dict[Tuple[int, int, int, int, int], Fraction] = {}
        self._poly_cache: Dict[Tuple[int, int], Dict[Tuple[int, int], Fraction]] = {}

    def with_mode(self, mode) -> "MeixnerSystem":
        return MeixnerSystem(self.beta, self.lam, mode)

    def dual(self) -> "MeixnerSystem":
        """System of the inverse matrix; the degree/variable exchange partner."""
        return MeixnerSystem(self.beta, inverse_tilde(self.lam), self.mode)

    def require_mode(self, mode: ScalarMode, what: str):
        if self.mode is not mode:
            raise ModeError(f"{what} requires {mode.value} mode, system is {self.mode.value}")

    def __repr__(self):
        return f"MeixnerSystem(beta={self.beta}, mode={self.mode.value}, lam={self.lam})"


# ---------------------------------------------------------------------------
# weights and amplitudes


def weight(sys: MeixnerSystem, i: int, k: int):
    """Negative trinomial mass at (i, k).

    Exact mode needs an integer beta (otherwise (1 - c1 - c2)**beta is
    irrational); any positive beta works in float mode.
    """
    _check_point(i, k)
    b = sys.beta
    base = 1 - sys.c1 - sys.c2
    if sys.mode is ScalarMode.EXACT:
        if b.denominator != 1:
            raise ModeError(
                f"exact weight needs integer beta, got {b}; use float mode"
            )
        return (
            pochhammer(b, i + k)
            / (math.factorial(i) * math.factorial(k))
            * base ** int(b)
            * sys.c1**i
            * sys.c2**k
        )
    return (
        float(pochhammer(b, i + k) / (math.factorial(i) * math.factorial(k)))
        * float(base) ** float(b)
        * float(sys.c1) ** i
        * float(sys.c2) ** k
    )


def amplitude_sq(sys: MeixnerSystem, i: int, k: int):
    """Squared amplitude; coincides with weight() by the metric row relations."""
    _check_point(i, k)
    b = sys.beta
    if sys.mode is ScalarMode.EXACT:
        if b.denominator != 1:
            raise ModeError(
                f"exact amplitude needs integer beta, got {b}; use float mode"
            )
        return (
            pochhammer(b, i + k)
            / (math.factorial(i) * math.factorial(k))
            * sys.l33 ** (-2 * int(b) - 2 * i - 2 * k)
            * sys.l13 ** (2 * i)
            * sys.l23 ** (2 * k)
        )
    return (
        float(pochhammer(b, i + k) / (math.factorial(i) * math.factorial(k)))
        * float(sys.l33) ** (-2 * float(b) - 2 * i - 2 * k)
        * float(sys.l13) ** (2 * i)
        * float(sys.l23) ** (2 * k)
    )


def _check_point(i: int, k: int):
    if i < 0 or k < 0:
        raise ValueError(f"lattice point must be non-negative, got ({i}, {k})")


def _check_degrees(m: int, n: int):
    if m < 0 or n < 0:
        raise ValueError(f"degrees must be non-negative, got ({m}, {n})")


# ---------------------------------------------------------------------------
# route 1: generating-function oracle


def _gf_series(sys: MeixnerSystem, i: int, k: int, cutoff: int) -> TruncatedSeries:
    cached = sys._gf_cache.get((i, k))
    if cached is not None and cached.cutoff >= cutoff:
        return cached
    base = series_geom_pow([1, 1], -(sys.beta + i + k), cutoff)
    left = series_geom_pow([sys.u11, sys.u12], i, cutoff)
    right = series_geom_pow([sys.u21, sys.u22], k, cutoff)
    product = series_mul(series_mul(base, left), right)
    sys._gf_cache[(i, k)] = product
    return product


def monic_eval_gf(sys: MeixnerSystem, m: int, n: int, i: int, k: int) -> Fraction:
    """Coefficient extraction from the three-factor generating product."""
    _check_degrees(m, n)
    _check_point(i, k)
    series = _gf_series(sys, i, k, m + n)
    raw = coefficient(series, (m, n)) if m + n <= series.cutoff else Fraction(0)
    return raw * math.factorial(m) * math.factorial(n) / pochhammer(sys.beta, m + n)


# ---------------------------------------------------------------------------
# route 2: radical-free raising recursion
#
# Substituting the monic normalization into the raising relations cancels
# every square root (the key collapse is b*(b)_{m+n+1} = b^2 (b+1)_{m+n})
# and leaves, with u-parameters as above,
#
#   R[b, m+1, n](i, k) = ( (i+k+b) R[b+1, m, n](i, k)
#                          - u11 i R[b+1, m, n](i-1, k)
#                          - u21 k R[b+1, m, n](i, k-1) ) / b
#
# and the mirror relation for n+1 with (u12, u22).  Iterating down from
# R[b+m+n, 0, 0] = 1 gives a pure rational evaluation.


def monic_eval_raising(sys: MeixnerSystem, m: int, n: int, i: int, k: int) -> Fraction:
    _check_degrees(m, n)
    _check_point(i, k)
    return _raising_value(sys, m, n, i, k, 0)


def _raising_value(sys: MeixnerSystem, m: int, n: int, i: int, k: int, shift: int) -> Fraction:
    if m == 0 and n == 0:
        return Fraction(1)
    key = (m, n, i, k, shift)
    cached = sys._raising_cache.get(key)
    if cached is not None:
        return cached
    gamma = sys.beta + shift
    if m > 0:
        mm, nn = m - 1, n
        ui, uk = sys.u11, sys.u21
    else:
        mm, nn = m, n - 1
        ui, uk = sys.u12, sys.u22
    acc = (i + k + gamma) * _raising_value(sys, mm, nn, i, k, shift + 1)
    if i > 0:
        acc -= ui * i * _raising_value(sys, mm, nn, i - 1, k, shift + 1)
    if k > 0:
        acc -= uk * k * _raising_value(sys, mm, nn, i, k - 1, shift + 1)
    value = acc / gamma
    sys._raising_cache[key] = value
    return value


# ---------------------------------------------------------------------------
# route 3: terminating hypergeometric quadruple sum


def monic_eval_hyp(sys: MeixnerSystem, m: int, n: int, i: int, k: int) -> Fraction:
    _check_degrees(m, n)
    _check_point(i, k)
    negm = [pochhammer(-m, t) for t in range(m + 1)]
    negn = [pochhammer(-n, t) for t in range(n + 1)]
    negi = [pochhammer(-i, t) for t in range(min(i, m + n) + 1)]
    negk = [pochhammer(-k, t) for t in range(min(k, m + n) + 1)]
    invb = [1 / pochhammer(sys.beta, t) for t in range(m + n + 1)]
    p11 = _powers_over_factorials(1 - sys.u11, min(m, i))
    p21 = _powers_over_factorials(1 - sys.u21, min(m, k))
    p12 = _powers_over_factorials(1 - sys.u12, min(n, i))
    p22 = _powers_over_factorials(1 - sys.u22, min(n, k))
    total = hyp_sum(m, n, i, k, negm, negn, negi, negk, invb, p11, p21, p12, p22)
    return Fraction(total)


def _powers_over_factorials(x: Fraction, top: int):
    out = [Fraction(1)]
    for e in range(1, top + 1):
        out.append(out[-1] * x / e)
    return out


# ---------------------------------------------------------------------------
# exact polynomial coefficients (for fast float evaluation on big lattices)


def monic_poly_coeffs(sys: MeixnerSystem, m: int, n: int) -> Dict[Tuple[int, int], Fraction]:
    """Exact coefficients of the degree-(m+n) polynomial in (i, k).

    Interpolates generating-function values on the triangular principal
    lattice {(a, b): a + b <= m + n}, which is unisolvent for total-degree
    interpolation, and solves the system exactly.
    """
    key = (m, n)
    cached = sys._poly_cache.get(key)
    if cached is not None:
        return cached
    deg = m + n
    nodes = [(a, b) for a in range(deg + 1) for b in range(deg + 1 - a)]
    monomials = [(p, q) for p in range(deg + 1) for q in range(deg + 1 - p)]
    rows = [
        [Fraction(a**p * b**q) for (p, q) in monomials]
        for (a, b) in nodes
    ]
    rhs = [monic_eval_gf(sys, m, n, a, b) for (a, b) in nodes]
    solution = solve_linear_system(rows, rhs)
    coeffs = {mono: c for mono, c in zip(monomials, solution) if c}
    sys._poly_cache[key] = coeffs
    return coeffs


# ---------------------------------------------------------------------------
# orthonormal family and representation matrix elements (float only)


def _orthonormal_prefactor(sys: MeixnerSystem, m: int, n: int) -> float:
    scale = pochhammer(sys.beta, m + n) / (math.factorial(m) * math.factorial(n))
    geom = sys.l31**m * sys.l32**n / sys.l33 ** (m + n)
    return (-1) ** (m + n) * math.sqrt(float(scale)) * float(geom)


def orthonormal_eval(sys: MeixnerSystem, m: int, n: int, i: int, k: int) -> float:
    """Orthonormal value: signed square-root normalization times the monic value."""
    sys.require_mode(ScalarMode.FLOAT, "orthonormal_eval")
    _check_degrees(m, n)
    _check_point(i, k)
    return _orthonormal_prefactor(sys, m, n) * float(monic_eval_raising(sys, m, n, i, k))


def _amplitude_signed_float(beta: Fraction, lam: PseudoRotation, i: int, k: int) -> float:
    e = lam.entries
    scale = pochhammer(beta, i + k) / (math.factorial(i) * math.factorial(k))
    return (
        math.sqrt(float(scale))
        * float(e[2][2]) ** (-float(beta) - i - k)
        * float(e[0][2]) ** i
        * float(e[1][2]) ** k
    )


def matrix_element(sys: MeixnerSystem, i: int, k: int, m: int, n: int) -> float:
    """Representation matrix element: signed amplitude times orthonormal value."""
    sys.require_mode(ScalarMode.FLOAT, "matrix_element")
    return _amplitude_signed_float(sys.beta, sys.lam, i, k) * orthonormal_eval(
        sys, m, n, i, k
    )


# ---------------------------------------------------------------------------
# exact identity checkers


def _report(identity, box, mode, max_disc, counter, tol=None) -> EvalReport:
    return EvalReport(
        identity=identity,
        box=box,
        mode=mode,
        max_abs_discrepancy=max_disc,
        counterexample=counter,
        tol=tol,
    )


def _gf_table(sys: MeixnerSystem, degrees, points) -> Dict[Tuple[int, int, int, int], Fraction]:
    """Every generating-function value an exact checker reads, built at once.

    Maps (m, n, i, k) to ``monic_eval_gf(sys, m, n, i, k)`` for every
    (m, n) in ``degrees`` and (i, k) in ``points``.  The factor series are
    built once per table, at the largest m + n, and shared by all points,
    so each point costs two series products.  Nothing is stored on ``sys``.
    """
    degrees, points = set(degrees), set(points)
    if not degrees or not points:
        return {}
    cutoff = max(m + n for m, n in degrees)
    lefts = {
        i: series_geom_pow([sys.u11, sys.u12], i, cutoff) for i in {i for i, _ in points}
    }
    rights = {
        k: series_geom_pow([sys.u21, sys.u22], k, cutoff) for k in {k for _, k in points}
    }
    bases = {
        s: series_geom_pow([1, 1], -(sys.beta + s), cutoff) for s in {i + k for i, k in points}
    }
    scales = {
        (m, n): Fraction(math.factorial(m) * math.factorial(n)) / pochhammer(sys.beta, m + n)
        for m, n in degrees
    }
    zero = Fraction(0)
    table = {}
    for i, k in points:
        coeffs = series_mul(series_mul(bases[i + k], lefts[i]), rights[k]).coeffs
        for (m, n), scale in scales.items():
            raw = coeffs.get((m, n))
            table[(m, n, i, k)] = raw * scale if raw else zero
    return table


def _rectangle(max_a: int, max_b: int):
    return [(a, b) for a in range(max_a + 1) for b in range(max_b + 1)]


# The recurrence and difference checkers read each residual as a linear
# row: (wx x + wy y) times the value at the scanned index plus fixed
# coefficients times its neighbours, where (x, y) is the index pair the row
# does not shift.  Rows and values are cleared to integers over common
# denominators, so a residual costs integer products only and is rebuilt
# as one exact rational.


def _cleared_table(table) -> Tuple[int, Dict[tuple, int]]:
    """Common denominator of a value table and the integer numerators over it."""
    denom, nums = _scaled_list(table.values())
    return denom, dict(zip(table, nums))


def _cleared_row(weights, coeffs):
    """(denominator, integer weights, integer coefficients) of one row."""
    denom, nums = _scaled_list([*weights, *coeffs])
    return denom, nums[: len(weights)], nums[len(weights) :]


def _row_residuals(rows, x: int, y: int, values, denom: int) -> Tuple[Fraction, ...]:
    """Exact residual of each cleared row on values cleared over ``denom``."""
    return tuple(
        Fraction(
            (wx * x + wy * y) * values[0] + sum(map(operator.mul, coeffs, values)),
            row_denom * denom,
        )
        for row_denom, (wx, wy), coeffs in rows
    )


def _three_diagonal(x: int, y: int, total, vectors, last):
    """Shifts and coefficient lists of a pair of three-diagonal relations.

    At index pair (x, y), relation j reads

      var_j R = (x a1^2 + y a2^2 + total a3^2) R
                + x a1 a2 (p2/p1) R(x-1, y+1) - x a1 a3 (p3/p1) R(x-1, y)
                + y a1 a2 (p1/p2) R(x+1, y-1) - y a2 a3 (p3/p2) R(x, y-1)
                - total (a1 a3 (p1/p3) R(x+1, y) + a2 a3 (p2/p3) R(x, y+1))

    with (a1, a2, a3) = vectors[j] and (p1, p2, p3) = last.  The lists
    hold the right-hand side moved to the left, one entry per shift.
    """
    p1, p2, p3 = last
    shifts = [(0, 0), (1, 0), (0, 1)]
    if x > 0:
        shifts += [(-1, 1), (-1, 0)]
    if y > 0:
        shifts += [(1, -1), (0, -1)]
    rows = []
    for (a1, a2, a3) in vectors:
        coeffs = [
            -(x * a1**2 + y * a2**2 + total * a3**2),
            total * (a1 * a3 * p1 / p3),
            total * (a2 * a3 * p2 / p3),
        ]
        if x > 0:
            coeffs += [-x * (a1 * a2 * p2 / p1), x * (a1 * a3 * p3 / p1)]
        if y > 0:
            coeffs += [-y * (a1 * a2 * p1 / p2), y * (a2 * a3 * p3 / p2)]
        rows.append(coeffs)
    return shifts, rows


def check_recurrence(sys: MeixnerSystem, box: LatticeBox) -> EvalReport:
    """Both three-diagonal recurrences in the degrees, exactly."""
    sys.require_mode(ScalarMode.EXACT, "check_recurrence")
    matrix_rows = ((sys.l11, sys.l12, sys.l13), (sys.l21, sys.l22, sys.l23))
    plans = {}
    for m, n in _rectangle(box.max_m, box.max_n):
        shifts, rows = _three_diagonal(
            m, n, m + n + sys.beta, matrix_rows, (sys.l31, sys.l32, sys.l33)
        )
        plans[(m, n)] = (
            [(m + dm, n + dn) for dm, dn in shifts],
            [_cleared_row(w, c) for w, c in zip(((1, 0), (0, 1)), rows)],
        )
    degrees = {dg for degrees, _ in plans.values() for dg in degrees}
    denom, R = _cleared_table(_gf_table(sys, degrees, _rectangle(box.max_i, box.max_k)))

    def residuals(m, n, i, k):
        degrees, rows = plans[(m, n)]
        return _row_residuals(rows, i, k, [R[(mm, nn, i, k)] for mm, nn in degrees], denom)

    return _scan_exact("recurrence", sys, box, residuals)


def check_difference(sys: MeixnerSystem, box: LatticeBox) -> EvalReport:
    """Both difference equations in the variables plus their nearest-neighbour
    combination, exactly.

    The combination divides by the four interior entries, so it needs them
    nonzero; the plain difference equations only need the generic last
    row/column.
    """
    sys.require_mode(ScalarMode.EXACT, "check_difference")
    b = sys.beta
    l11, l12, l13 = sys.l11, sys.l12, sys.l13
    l21, l22, l23 = sys.l21, sys.l22, sys.l23
    l31, l32, l33 = sys.l31, sys.l32, sys.l33
    interior_ok = all(x != 0 for x in (l11, l12, l21, l22))
    if not interior_ok:
        raise NonGenericMatrix(
            "nearest-neighbour difference equation divides by interior entries that are zero"
        )

    # Nearest-neighbour combination: first equation over (l11 l21) minus
    # second over (l12 l22); the mixed-shift terms cancel.
    nn_weights = (1 / (l11 * l21), -1 / (l12 * l22))
    nn_i = l11 / l21 - l12 / l22
    nn_k = l21 / l11 - l22 / l12
    nn_total = l31**2 / (l11 * l21) - l32**2 / (l12 * l22)
    nn_up_i = l13 * l32 / (l22 * l33) - l13 * l31 / (l21 * l33)
    nn_up_k = l23 * l32 / (l12 * l33) - l23 * l31 / (l11 * l33)
    nn_down_i = l32 * l33 / (l13 * l22) - l31 * l33 / (l21 * l13)
    nn_down_k = l32 * l33 / (l12 * l23) - l31 * l33 / (l11 * l23)

    plans = {}
    for i, k in _rectangle(box.max_i, box.max_k):
        total = i + k + b
        shifts, rows = _three_diagonal(
            i, k, total, ((l11, l21, l31), (l12, l22, l32)), (l13, l23, l33)
        )
        nn = [-(i * nn_i + k * nn_k + total * nn_total), -total * nn_up_i, -total * nn_up_k]
        if i > 0:
            nn += [0, -i * nn_down_i]
        if k > 0:
            nn += [0, -k * nn_down_k]
        plans[(i, k)] = (
            [(i + di, k + dk) for di, dk in shifts],
            [_cleared_row(w, c) for w, c in zip(((1, 0), (0, 1), nn_weights), rows + [nn])],
        )
    points = {pt for points, _ in plans.values() for pt in points}
    denom, R = _cleared_table(_gf_table(sys, _rectangle(box.max_m, box.max_n), points))

    def residuals(m, n, i, k):
        points, rows = plans[(i, k)]
        return _row_residuals(rows, m, n, [R[(m, n, ii, kk)] for ii, kk in points], denom)

    return _scan_exact("difference", sys, box, residuals)


def check_lowering(sys: MeixnerSystem, box: LatticeBox) -> EvalReport:
    """Monic recast of the lowering relations, exactly.

    With D_i f = f(i+1, k) - f(i, k) and D_k likewise, the radical-free
    forms read

      m R[b, m-1, n] = -(b-1) (l31/l33) (l11 l13 D_i + l21 l23 D_k) R[b-1, m, n]
      n R[b, m, n-1] = -(b-1) (l32/l33) (l12 l13 D_i + l22 l23 D_k) R[b-1, m, n]

    which degenerate at b = 1, hence the precondition.
    """
    sys.require_mode(ScalarMode.EXACT, "check_lowering")
    b = sys.beta
    if b <= 1:
        raise PreconditionError(f"lowering relations need beta > 1, got {b}")
    degrees = _rectangle(box.max_m, box.max_n)
    points = _rectangle(box.max_i, box.max_k)
    R = _gf_table(sys, degrees[:-1], points)  # every degree pair but (max_m, max_n)
    low = _gf_table(
        MeixnerSystem(b - 1, sys.lam, ScalarMode.EXACT),
        degrees,
        {(i + di, k + dk) for i, k in points for di, dk in ((0, 0), (1, 0), (0, 1))},
    )
    # the (b-1) (l3j/l33) l.. l.3 products in front of D_i and D_k
    f1 = (b - 1) * (sys.l31 / sys.l33)
    f2 = (b - 1) * (sys.l32 / sys.l33)
    c1i, c1k = f1 * (sys.l11 * sys.l13), f1 * (sys.l21 * sys.l23)
    c2i, c2k = f2 * (sys.l12 * sys.l13), f2 * (sys.l22 * sys.l23)

    def residuals(m, n, i, k):
        here = low[(m, n, i, k)]
        di = low[(m, n, i + 1, k)] - here
        dk = low[(m, n, i, k + 1)] - here
        res1 = c1i * di + c1k * dk
        if m > 0:
            res1 += m * R[(m - 1, n, i, k)]
        res2 = c2i * di + c2k * dk
        if n > 0:
            res2 += n * R[(m, n - 1, i, k)]
        return (res1, res2)

    return _scan_exact("lowering", sys, box, residuals)


def check_duality(sys: MeixnerSystem, box: LatticeBox) -> EvalReport:
    """Degrees and variables exchange against the inverse-matrix system."""
    sys.require_mode(ScalarMode.EXACT, "check_duality")
    # sys is read with degrees and points swapped
    degrees = _rectangle(box.max_m, box.max_n)
    points = _rectangle(box.max_i, box.max_k)
    R = _gf_table(sys, points, degrees)
    dual = _gf_table(sys.dual(), degrees, points)

    def residuals(m, n, i, k):
        return (R[(i, k, m, n)] - dual[(m, n, i, k)],)

    return _scan_exact("duality", sys, box, residuals)


def _scan_exact(name, sys, box: LatticeBox, residuals: Callable) -> EvalReport:
    max_disc = Fraction(0)
    counter = None
    for m in range(box.max_m + 1):
        for n in range(box.max_n + 1):
            for i in range(box.max_i + 1):
                for k in range(box.max_k + 1):
                    for idx, res in enumerate(residuals(m, n, i, k)):
                        disc = abs(res)
                        if disc > max_disc:
                            max_disc = disc
                        if disc != 0 and counter is None:
                            counter = (m, n, i, k, idx)
    return _report(name, box, ScalarMode.EXACT, max_disc, counter)


# ---------------------------------------------------------------------------
# orthogonality (float, adaptively truncated)


def check_orthogonality(sys: MeixnerSystem, box: LatticeBox, tol: float) -> EvalReport:
    """Truncated Gram matrix of the orthonormal family against the identity.

    The summation square grows shell by shell (shell S holds the points
    with max(i, k) == S) until a full shell contributes less than tol/100
    to every Gram entry; past SHELL_CAP shells the sum is declared
    non-convergent.
    """
    sys.require_mode(ScalarMode.FLOAT, "check_orthogonality")
    if not tol > 0:
        raise ValueError("tol must be positive")
    exact_sys = MeixnerSystem(sys.beta, sys.lam, ScalarMode.EXACT)
    degrees = [(m, n) for m in range(box.max_m + 1) for n in range(box.max_n + 1)]
    prefs = {(m, n): _orthonormal_prefactor(sys, m, n) for (m, n) in degrees}
    # flatten to (p, q, prefactor * coeff) triples for the shell loop
    polys = {
        dg: [
            (p, q, prefs[dg] * float(c))
            for (p, q), c in monic_poly_coeffs(exact_sys, *dg).items()
        ]
        for dg in degrees
    }
    max_deg = box.max_m + box.max_n

    bf = float(sys.beta)
    c1 = float(sys.c1)
    c2 = float(sys.c2)
    w: Dict[Tuple[int, int], float] = {}
    gram = {(a, bb): 0.0 for a in degrees for bb in degrees}
    threshold = tol / 100.0

    shell = 0
    while True:
        if shell > SHELL_CAP:
            raise NonConvergence(
                f"orthogonality sum did not settle within {SHELL_CAP} shells"
            )
        shell_max = 0.0
        points = [(i, shell) for i in range(shell)] + [(shell, k) for k in range(shell + 1)]
        for (i, k) in sorted(points):
            if i == 0 and k == 0:
                w[(0, 0)] = (1.0 - c1 - c2) ** bf
            elif i > 0:
                w[(i, k)] = w[(i - 1, k)] * (bf + i + k - 1) / i * c1
            else:
                w[(i, k)] = w[(0, k - 1)] * (bf + k - 1) / k * c2
            wt = w[(i, k)]
            fi, fk = float(i), float(k)
            ipow = [1.0]
            kpow = [1.0]
            for _ in range(max_deg):
                ipow.append(ipow[-1] * fi)
                kpow.append(kpow[-1] * fk)
            values = {}
            for dg in degrees:
                acc = 0.0
                for p, q, c in polys[dg]:
                    acc += c * ipow[p] * kpow[q]
                values[dg] = acc
            for a in degrees:
                va = wt * values[a]
                for bb in degrees:
                    contrib = va * values[bb]
                    gram[(a, bb)] += contrib
                    mag = abs(contrib)
                    if mag > shell_max:
                        shell_max = mag
        if shell >= 1 and shell_max < threshold:
            break
        shell += 1

    max_disc = 0.0
    counter = None
    for a in degrees:
        for bb in degrees:
            target = 1.0 if a == bb else 0.0
            disc = abs(gram[(a, bb)] - target)
            if disc > max_disc:
                max_disc = disc
            if disc > tol and counter is None:
                counter = (*a, *bb)
    return _report("orthogonality", box, ScalarMode.FLOAT, max_disc, counter, tol)


# ---------------------------------------------------------------------------
# one-parameter subgroup matrix elements (closed forms, float)


def _boost_trig(t: Fraction) -> Tuple[Fraction, Fraction]:
    ch = (t + 1 / t) / 2
    sh = (t - 1 / t) / 2
    return ch, sh


def _rotation_trig(s: Fraction) -> Tuple[Fraction, Fraction]:
    denom = 1 + s * s
    return (1 - s * s) / denom, 2 * s / denom


def _hyperbolic_me_core(beta, ch, sh, i, k, m, n, first_axis: bool) -> float:
    if first_axis:
        if k != n:
            return 0.0
        gamma = k + beta
        deg, var = m, i
    else:
        if i != m:
            return 0.0
        gamma = i + beta
        deg, var = n, k
    th = sh / ch
    poly = meixner(deg, var, gamma, th * th)
    scale = pochhammer(gamma, var) * pochhammer(gamma, deg)
    scale /= math.factorial(var) * math.factorial(deg)
    return (
        (-1) ** deg
        * math.sqrt(float(scale))
        * float(ch) ** float(-gamma)
        * float(th ** (var + deg))
        * float(poly)
    )


def hyperbolic_me_xi(beta, t, i: int, k: int, m: int, n: int) -> float:
    """Matrix element of the boost acting on the first axis pair."""
    beta = as_rational(beta)
    t = as_rational(t)
    if t <= 1:
        raise PreconditionError(f"need t > 1 so the element is nontrivial, got {t}")
    ch, sh = _boost_trig(t)
    return _hyperbolic_me_core(beta, ch, sh, i, k, m, n, first_axis=True)


def hyperbolic_me_psi(beta, t, i: int, k: int, m: int, n: int) -> float:
    """Matrix element of the boost acting on the second axis pair."""
    beta = as_rational(beta)
    t = as_rational(t)
    if t <= 1:
        raise PreconditionError(f"need t > 1 so the element is nontrivial, got {t}")
    ch, sh = _boost_trig(t)
    return _hyperbolic_me_core(beta, ch, sh, i, k, m, n, first_axis=False)


def _elliptic_me_core(cos: Fraction, sin: Fraction, i, k, m, n) -> float:
    if i + k != m + n:
        return 0.0
    N = i + k
    if cos == 0:
        raise NonGenericMatrix("quarter-turn rotation: tangent factor undefined")
    tan = sin / cos
    poly = krawtchouk(n, k, sin * sin, N)
    rational = (-1) ** k * cos**N * tan ** (k + n) * poly
    return float(rational) * math.sqrt(math.comb(N, k) * math.comb(N, n))


def elliptic_me(beta, s, i: int, k: int, m: int, n: int) -> float:
    """Matrix element of the spacelike rotation; level-preserving by the
    Kronecker delta on i + k = m + n.  Note the last Krawtchouk slot is the
    level i + k itself, exactly as the closed form states.
    """
    s = as_rational(s)
    if s == 0 or s * s == 1:
        raise PreconditionError(f"rotation parameter must avoid {{0, 1, -1}}, got {s}")
    cos, sin = _rotation_trig(s)
    return _elliptic_me_core(cos, sin, i, k, m, n)


# ---------------------------------------------------------------------------
# closed forms for product decompositions (exact)


def factorized_eval(beta, t_xi, t_psi, m: int, n: int, i: int, k: int) -> Fraction:
    """Product of two univariate Meixner factors; the polynomial family of
    the boost-times-boost matrix (second axis times first axis)."""
    beta = as_rational(beta)
    t_xi = as_rational(t_xi)
    t_psi = as_rational(t_psi)
    if t_xi <= 1 or t_psi <= 1:
        raise PreconditionError("factorized form needs both boost parameters > 1")
    _check_degrees(m, n)
    _check_point(i, k)
    ch_xi, sh_xi = _boost_trig(t_xi)
    ch_psi, sh_psi = _boost_trig(t_psi)
    th2_xi = (sh_xi / ch_xi) ** 2
    th2_psi = (sh_psi / ch_psi) ** 2
    prefactor = pochhammer(i + beta, n) / pochhammer(beta, n)
    return (
        prefactor
        * meixner(m, i, n + beta, th2_xi)
        * meixner(n, k, i + beta, th2_psi)
    )


def general_sum_eval(
    beta, s_chi, t_psi, s_theta, m: int, n: int, i: int, k: int
) -> Fraction:
    """Single-sum closed form for the rotation-boost-rotation decomposition,
    combining Krawtchouk, Meixner, and Krawtchouk factors."""
    beta = as_rational(beta)
    s_chi = as_rational(s_chi)
    s_theta = as_rational(s_theta)
    t_psi = as_rational(t_psi)
    for s in (s_chi, s_theta):
        if s == 0 or s * s == 1:
            raise PreconditionError(f"rotation parameters must avoid {{0, 1, -1}}, got {s}")
    if t_psi <= 0 or t_psi == 1:
        raise PreconditionError(f"boost parameter must be positive and != 1, got {t_psi}")
    _check_degrees(m, n)
    _check_point(i, k)

    cos_chi, sin_chi = _rotation_trig(s_chi)
    cos_th, sin_th = _rotation_trig(s_theta)
    tan_chi = sin_chi / cos_chi
    tan_th = sin_th / cos_th
    ch_psi, sh_psi = _boost_trig(t_psi)
    th_psi = sh_psi / ch_psi

    inv_factor = 1 / (tan_chi * tan_th * sh_psi * th_psi)
    prefactor = (-(tan_chi**2)) ** k * (-(tan_th**2)) ** n
    total = Fraction(0)
    for mu in range(min(i + k, m + n) + 1):
        term = (
            pochhammer(Fraction(-(i + k)), mu)
            * pochhammer(Fraction(-(n + m)), mu)
            / (math.factorial(mu) * pochhammer(beta, mu))
            * inv_factor**mu
        )
        term *= krawtchouk(i + k - mu, k, sin_chi * sin_chi, i + k)
        term *= meixner(m + n - mu, i + k - mu, mu + beta, th_psi * th_psi)
        term *= krawtchouk(n, m + n - mu, sin_th * sin_th, m + n)
        total += term
    return prefactor * total


# ---------------------------------------------------------------------------
# general float matrix elements and the addition formula


class _FloatMeTable:
    """Float matrix elements for a matrix with nonzero last column.

    The degree recursion divides only by last-column entries, so matrices
    with zeros in the last row (which break the monic normalization) are
    still fine here.  Values are memoized with an explicit work stack to
    keep deep degree descents off the Python call stack.
    """

    def __init__(self, beta: Fraction, lam: PseudoRotation):
        e = lam.entries
        if e[0][2] == 0 or e[1][2] == 0:
            raise NonGenericMatrix(
                "matrix element recursion needs nonzero last-column entries"
            )
        self.beta = float(beta)
        self.r1 = (float(e[0][0] / e[0][2]), float(e[1][0] / e[1][2]), float(e[2][0] / e[2][2]))
        self.r2 = (float(e[0][1] / e[0][2]), float(e[1][1] / e[1][2]), float(e[2][1] / e[2][2]))
        self._beta_exact = beta
        self._lam = lam
        self._m: Dict[Tuple[int, int, int, int, int], float] = {}
        self._w: Dict[Tuple[int, int], float] = {}

    def me(self, i: int, k: int, m: int, n: int) -> float:
        return self._weight_amp(i, k) * self._m_value(m, n, i, k, 0)

    def _weight_amp(self, i: int, k: int) -> float:
        cached = self._w.get((i, k))
        if cached is None:
            cached = _amplitude_signed_float(self._beta_exact, self._lam, i, k)
            self._w[(i, k)] = cached
        return cached

    def _m_value(self, m, n, i, k, s) -> float:
        cache = self._m
        root = (m, n, i, k, s)
        stack = [root]
        while stack:
            key = stack[-1]
            if key in cache:
                stack.pop()
                continue
            mm, nn, ii, kk, ss = key
            if mm == 0 and nn == 0:
                cache[key] = 1.0
                stack.pop()
                continue
            if mm > 0:
                child_deg = (mm - 1, nn)
                ra, rb, rc = self.r1
                order = mm
            else:
                child_deg = (mm, nn - 1)
                ra, rb, rc = self.r2
                order = nn
            children = [(*child_deg, ii, kk, ss + 1)]
            if ii > 0:
                children.append((*child_deg, ii - 1, kk, ss + 1))
            if kk > 0:
                children.append((*child_deg, ii, kk - 1, ss + 1))
            missing = [c for c in children if c not in cache]
            if missing:
                stack.extend(missing)
                continue
            gamma = self.beta + ss
            acc = -rc * (ii + kk + gamma) * cache[children[0]]
            pos = 1
            if ii > 0:
                acc += ra * ii * cache[children[pos]]
                pos += 1
            if kk > 0:
                acc += rb * kk * cache[children[pos]]
            cache[key] = acc / math.sqrt(gamma * order)
            stack.pop()
        return cache[root]


def _is_identity(lam: PseudoRotation) -> bool:
    return lam.entries == lorentz_identity(lam.d).entries


def _match_rotation(lam: PseudoRotation):
    e = lam.entries
    if (
        e[2][2] == 1
        and e[0][2] == e[1][2] == e[2][0] == e[2][1] == 0
    ):
        return e[0][0], e[0][1]  # cos, sin
    return None


def _match_xi(lam: PseudoRotation):
    e = lam.entries
    if e[1][1] == 1 and e[0][1] == e[1][0] == e[1][2] == e[2][1] == 0:
        return e[2][2], e[0][2]  # cosh, sinh
    return None


def _match_psi(lam: PseudoRotation):
    e = lam.entries
    if e[0][0] == 1 and e[0][1] == e[0][2] == e[1][0] == e[2][0] == 0:
        return e[2][2], e[1][2]  # cosh, sinh
    return None


def me_evaluator(beta, lam: PseudoRotation) -> Callable[[int, int, int, int], float]:
    """Float evaluator (i, k, m, n) -> <i,k| F(lam) |m,n> for d = 2.

    Dispatches on structure: identity, pure rotation, pure boosts (their
    closed forms), otherwise the generic recursion, which needs a nonzero
    last column.
    """
    if lam.d != 2:
        raise ValueError("matrix elements implemented for d = 2")
    beta = as_rational(beta)
    if _is_identity(lam):
        return lambda i, k, m, n: 1.0 if (i, k) == (m, n) else 0.0
    rot = _match_rotation(lam)
    if rot is not None:
        cos, sin = rot
        return lambda i, k, m, n: _elliptic_me_core(cos, sin, i, k, m, n)
    xi = _match_xi(lam)
    if xi is not None:
        ch, sh = xi
        return lambda i, k, m, n: _hyperbolic_me_core(
            beta, ch, sh, i, k, m, n, first_axis=True
        )
    psi = _match_psi(lam)
    if psi is not None:
        ch, sh = psi
        return lambda i, k, m, n: _hyperbolic_me_core(
            beta, ch, sh, i, k, m, n, first_axis=False
        )
    table = _FloatMeTable(beta, lam)
    return table.me


def check_addition(
    A: PseudoRotation,
    B: PseudoRotation,
    beta,
    i: int,
    k: int,
    m: int,
    n: int,
    tol: float,
) -> EvalReport:
    """Group-product decomposition of a matrix element against the
    adaptively truncated bilinear sum over intermediate states."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    beta = as_rational(beta)
    C = compose(A, B)
    me_a = me_evaluator(beta, A)
    me_b = me_evaluator(beta, B)
    me_c = me_evaluator(beta, C)

    lhs = me_c(i, k, m, n)
    total = 0.0
    threshold = tol / 100.0
    level = 0
    while True:
        if level > SHELL_CAP:
            raise NonConvergence(
                f"addition sum did not settle within {SHELL_CAP} diagonal shells"
            )
        contrib = 0.0
        for rho in range(level + 1):
            sigma = level - rho
            contrib += me_a(i, k, rho, sigma) * me_b(rho, sigma, m, n)
        total += contrib
        if level >= max(m + n, i + k) and abs(contrib) < threshold:
            break
        level += 1

    disc = abs(lhs - total)
    counter = (i, k, m, n) if disc > tol else None
    return _report("addition", {"i": i, "k": k, "m": m, "n": n}, ScalarMode.FLOAT, disc, counter, tol)
