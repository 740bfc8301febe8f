"""The d = 2 case: the named system and the routes, closed forms and
matrix elements stated for two variables.

Route map
---------
* ``monic_eval_gf``       expansion of the three-factor generating product
                          (the independent oracle, read from the core's
                          graded coefficient store)
* ``monic_eval_raising``  the radical-free degree recursion obtained by
                          pushing the monic normalization through the
                          raising relations; descends in the base parameter
* ``monic_eval_hyp``      the terminating four-index hypergeometric sum,
                          read from one integer coefficient tensor per
                          degree, a product of linear forms (``hyp_sum``
                          is the literal four-index loop, its oracle)
* ``factorized_eval`` / ``general_sum_eval``
                          closed forms in univariate Meixner/Krawtchouk
                          factors, valid for specific product decompositions

The three routes, the weight, the polynomial coefficients, the
orthogonality sum and the exact recurrence, difference, lowering and
duality checkers are those of the d-variable core in ``multivariate``,
called at d = 2.

All identity checkers run on the monic values, which are rational, so an
identity either holds with discrepancy exactly zero or it is broken.  The
orthonormal family and the representation matrix elements carry square
roots and live in float mode only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Callable, Dict, Tuple

from . import multivariate
from .errors import ModeError, NonConvergence, NonGenericMatrix
from .lorentz import (
    PseudoRotation,
    boost_trig,
    compose,
    inverse_tilde,
    require_boost_param,
    require_rotation_param,
    rotation_trig,
)
from .lorentz import identity as lorentz_identity
from .multivariate import (
    MeixnerSystemD,
    MultiIndex,
    _LogMass,
    _RaisingTable,
    _as_multi_index,
    _gram_discrepancy,
    check_difference_d,
    check_duality_d,
    check_lowering_d,
    check_recurrence_d,
    matrix_element_d,
    monic_eval_gf_d,
    monic_eval_hyp_d,
    monic_eval_raising_d,
    monic_poly_coeffs_d,
    orthonormal_eval_d,
    weight_d,
)
from .numerics import (
    ScalarMode,
    as_rational,
    log_abs,
    pochhammer,
    require_beta,
    require_float,
    require_tol,
    rising_row,
    # unused here: the benchmark tracer binds these three on this module
    series_geom_pow,
    series_mul,
    solve_linear_system,
)
from .reports import EvalReport, LatticeBox, lattice
from .univariate import _hyp2f1_pair, krawtchouk, meixner


class MeixnerSystem(MeixnerSystemD):
    """The d = 2 system."""

    def __init__(self, beta, lam: PseudoRotation, mode=ScalarMode.EXACT):
        if lam.d != 2:
            raise ValueError(f"MeixnerSystem needs a 3x3 matrix, got d={lam.d}")
        super().__init__(beta, lam, mode)


# ---------------------------------------------------------------------------
# weights and amplitudes


def weight(sys: MeixnerSystem, i: int, k: int):
    """Negative trinomial mass at (i, k)."""
    return weight_d(sys, (i, k))


def amplitude_sq(sys: MeixnerSystem, i: int, k: int):
    """Squared amplitude; coincides with weight() by the metric row relations."""
    i, k = _check_point(i, k)
    b = sys.beta
    if sys.mode is ScalarMode.FLOAT:
        return _LogMass(b, sys.lam).root((i, k)) ** 2
    if b.denominator != 1:
        raise ModeError(f"exact amplitude needs integer beta, got {b}; use float mode")
    e = sys.lam.entries
    return (
        pochhammer(b, i + k)
        / (math.factorial(i) * math.factorial(k))
        * e[2][2] ** (-2 * int(b) - 2 * i - 2 * k)
        * e[0][2] ** (2 * i)
        * e[1][2] ** (2 * k)
    )


def _check_point(i: int, k: int) -> MultiIndex:
    return _as_multi_index((i, k), 2, "point")


def _check_degrees(m: int, n: int) -> MultiIndex:
    return _as_multi_index((m, n), 2, "degrees")


def _check_signs(m, n, i, k):  # factorized_eval is a polynomial in (i, k): rational points pass
    if min(m, n, i, k) < 0:
        raise ValueError(f"degrees and point must be non-negative, got ({m}, {n}), ({i}, {k})")


# ---------------------------------------------------------------------------
# routes 1 and 2 of the core at d = 2


def monic_eval_gf(sys: MeixnerSystem, m: int, n: int, i: int, k: int) -> Fraction:
    """Coefficient extraction from the three-factor generating product."""
    return monic_eval_gf_d(sys, (m, n), (i, k))


def monic_eval_raising(sys: MeixnerSystem, m: int, n: int, i: int, k: int) -> Fraction:
    """The radical-free raising recursion (see ``multivariate``)."""
    return monic_eval_raising_d(sys, (m, n), (i, k))


# ---------------------------------------------------------------------------
# route 3 of the core at d = 2, and its one-shot form


def monic_eval_hyp(sys: MeixnerSystem, m: int, n: int, i: int, k: int) -> Fraction:
    """The terminating four-index hypergeometric sum (see ``multivariate``)."""
    return monic_eval_hyp_d(sys, (m, n), (i, k))


def hyp_sum(m, n, i, k, negm, negn, negi, negk, invbeta, p11, p21, p12, p22):
    """The four-index sum in one shot, in integers: the literal loop over
    the matrices [[mu, rho], [nu, sigma]] (rows with i and k, columns with
    m and n) of the rows (-a)_t in negA, and the numerators of 1/(b)_t in
    invbeta and of (1 - uXY)^e / e! in pXY, the sum over their five
    denominators.  An oracle of the ``multivariate`` tensor."""
    total = 0
    for mu in range(min(m, i) + 1):
        for rho in range(min(n, i - mu) + 1):
            if not (head := negi[mu + rho] * p11[mu] * p12[rho]):
                continue
            for nu in range(min(m - mu, k) + 1):
                if not (left := head * negm[mu + nu] * p21[nu]):
                    continue
                for sigma in range(min(n - rho, k - nu) + 1):
                    total += (left * negn[rho + sigma] * negk[nu + sigma]
                              * invbeta[mu + nu + rho + sigma] * p22[sigma])
    return total


# ---------------------------------------------------------------------------
# exact polynomial coefficients (for fast float evaluation on big lattices)


def monic_poly_coeffs(sys: MeixnerSystem, m: int, n: int) -> Dict[Tuple[int, int], Fraction]:
    """Exact coefficients of the degree-(m+n) polynomial in (i, k)."""
    return monic_poly_coeffs_d(sys, (m, n))


# ---------------------------------------------------------------------------
# orthonormal family and representation matrix elements (float only)


def orthonormal_eval(sys: MeixnerSystem, m: int, n: int, i: int, k: int) -> float:
    """Orthonormal value (see ``multivariate.orthonormal_eval_d``)."""
    return orthonormal_eval_d(sys, (m, n), (i, k))


def matrix_element(sys: MeixnerSystem, i: int, k: int, m: int, n: int) -> float:
    """Representation matrix element (see ``multivariate.matrix_element_d``)."""
    return matrix_element_d(sys, (i, k), (m, n))


# ---------------------------------------------------------------------------
# exact identity checkers


def _on_box(core_check, sys: MeixnerSystem, box: LatticeBox) -> EvalReport:
    report = core_check(sys, (box.max_m, box.max_n), (box.max_i, box.max_k))
    return replace(report, box=box)


def check_recurrence(sys: MeixnerSystem, box: LatticeBox) -> EvalReport:
    """Both three-diagonal recurrences in the degrees, exactly."""
    return _on_box(check_recurrence_d, sys, box)


def check_difference(sys: MeixnerSystem, box: LatticeBox) -> EvalReport:
    """Both difference equations in the variables plus their nearest-neighbour
    combination, exactly; the combination needs nonzero interior entries."""
    return _on_box(check_difference_d, sys, box)


def check_lowering(sys: MeixnerSystem, box: LatticeBox) -> EvalReport:
    """Monic recast of the lowering relations, exactly; needs beta > 1."""
    return _on_box(check_lowering_d, sys, box)


def check_duality(sys: MeixnerSystem, box: LatticeBox) -> EvalReport:
    """Degrees and variables exchange against the inverse-matrix system."""
    return _on_box(check_duality_d, sys, box)


# ---------------------------------------------------------------------------
# orthogonality (float, adaptively truncated)


def check_orthogonality(sys: MeixnerSystem, box: LatticeBox, tol: float) -> EvalReport:
    """Truncated Gram matrix of the orthonormal family of degrees up to
    (max_m, max_n) against the identity (see ``multivariate``)."""
    degrees = lattice((box.max_m, box.max_n))
    max_disc, first = _gram_discrepancy(sys, degrees, tol, "check_orthogonality")
    counter = None if first is None else (*first[0], *first[1])
    return EvalReport("orthogonality", box, ScalarMode.FLOAT, max_disc, counter, tol)


# ---------------------------------------------------------------------------
# one-parameter subgroup matrix elements (closed forms, float)


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
    rational = (-1) ** deg * th ** (var + deg) * poly
    if not rational:
        return 0.0
    scale = pochhammer(gamma, var) * pochhammer(gamma, deg)
    scale /= math.factorial(var) * math.factorial(deg)
    # in log space: the monic value and the scale pass 1e308 at high levels
    log = log_abs(rational) + 0.5 * log_abs(scale) - require_float(gamma, "beta") * log_abs(ch)
    return (1 if rational > 0 else -1) * math.exp(log)


def _hyperbolic_me(beta, t, i: int, k: int, m: int, n: int, first_axis: bool) -> float:
    """The boost element at any t > 0 but the identity t = 1; at 1/t it is
    the transposed element at t, U(g^-1) = U(g)^T."""
    beta = require_beta(beta)
    ch, sh = boost_trig(require_boost_param(t))
    return _hyperbolic_me_core(beta, ch, sh, i, k, m, n, first_axis)


def hyperbolic_me_xi(beta, t, i: int, k: int, m: int, n: int) -> float:
    """Matrix element of the boost acting on the first axis pair."""
    return _hyperbolic_me(beta, t, i, k, m, n, first_axis=True)


def hyperbolic_me_psi(beta, t, i: int, k: int, m: int, n: int) -> float:
    """Matrix element of the boost acting on the second axis pair."""
    return _hyperbolic_me(beta, t, i, k, m, n, first_axis=False)


def _elliptic_me_core(cos: Fraction, sin: Fraction, i, k, m, n) -> float:
    if i + k != m + n:
        return 0.0
    N = i + k
    if cos == 0:
        raise NonGenericMatrix("quarter-turn rotation: tangent factor undefined")
    tan = sin / cos
    poly = krawtchouk(n, k, sin * sin, N)
    rational = (-1) ** k * cos**N * tan ** (k + n) * poly
    if not rational:
        return 0.0
    # in log space: the binomials pass 1e308 long before the element leaves [-1, 1]
    log = log_abs(rational) + 0.5 * (math.log(math.comb(N, k)) + math.log(math.comb(N, n)))
    return (1 if rational > 0 else -1) * math.exp(log)


def elliptic_me(beta, s, i: int, k: int, m: int, n: int) -> float:
    """Matrix element of the spacelike rotation; level-preserving by the
    Kronecker delta on i + k = m + n.  Note the last Krawtchouk slot is the
    level i + k itself, exactly as the closed form states.
    """
    require_beta(beta)  # beta does not enter the element, but it must be a valid parameter
    cos, sin = rotation_trig(require_rotation_param(s))
    return _elliptic_me_core(cos, sin, i, k, m, n)


# ---------------------------------------------------------------------------
# closed forms for product decompositions (exact)


@lru_cache(maxsize=64)
def _factorized_constants(beta, t_xi, t_psi):
    """beta and the 2F1 arguments z = -1/sh^2 of both boosts of
    ``factorized_eval``, once per parameter set."""
    beta = require_beta(beta)
    sh_xi, sh_psi = (boost_trig(require_boost_param(t))[1] for t in (t_xi, t_psi))
    # Meixner at c = tanh^2 is the 2F1 at z = 1 - 1/c = -1/sh^2
    return beta, -1 / sh_xi**2, -1 / sh_psi**2


def factorized_eval(beta, t_xi, t_psi, m: int, n: int, i: int, k: int) -> Fraction:
    """Product of two univariate Meixner factors; the polynomial family of
    the boost-times-boost matrix (second axis times first axis).

    The prefactor (i + beta)_n / (beta)_n, as integer rising products
    over powers of the denominators, and both Meixner sums are integer
    pairs, with i + beta and n + beta as integer pairs too; one
    ``Fraction`` is built from their product.  The form is a polynomial in
    (i, k), so rational points are accepted.
    """
    beta, z_xi, z_psi = _factorized_constants(beta, t_xi, t_psi)
    _check_signs(m, n, i, k)
    if not (isinstance(i, int) and isinstance(k, int)):  # a rational point
        i, k = as_rational(i), as_rational(k)
    bp, bq = beta.numerator, beta.denominator
    shifted = (i.numerator * bq + bp * i.denominator, i.denominator * bq)  # i + beta
    rise = rising_row(*shifted, n)[-1]
    base = rising_row(bp, bq, n)[-1]
    num1, den1 = _hyp2f1_pair(m, i, (n * bq + bp, bq), z_xi)
    num2, den2 = _hyp2f1_pair(n, k, shifted, z_psi)
    return Fraction(rise * bq**n * num1 * num2, shifted[1] ** n * base * den1 * den2)


@lru_cache(maxsize=64)
def _general_sum_constants(beta, s_chi, t_psi, s_theta):
    """The parameters of ``general_sum_eval``, once per parameter set:
    beta, -tan^2 of both rotations, the 2F1 arguments of the three
    factors and the factor 1 / (tan_chi tan_theta sh_psi th_psi)."""
    beta = require_beta(beta)
    cos_chi, sin_chi = rotation_trig(require_rotation_param(s_chi))
    cos_th, sin_th = rotation_trig(require_rotation_param(s_theta))
    ch_psi, sh_psi = boost_trig(require_boost_param(t_psi))
    tan_chi = sin_chi / cos_chi
    tan_th = sin_th / cos_th
    th_psi = sh_psi / ch_psi
    inv_factor = 1 / (tan_chi * tan_th * sh_psi * th_psi)
    # Krawtchouk at p is the 2F1 at z = 1/p; Meixner at c = tanh^2 at -1/sh^2
    z = (1 / sin_chi**2, -1 / sh_psi**2, 1 / sin_th**2)
    return beta, -(tan_chi**2), -(tan_th**2), z, inv_factor


def general_sum_eval(
    beta, s_chi, t_psi, s_theta, m: int, n: int, i: int, k: int
) -> Fraction:
    """Single-sum closed form for the rotation-boost-rotation decomposition,
    combining Krawtchouk, Meixner, and Krawtchouk factors.

    The sum runs over integer pairs: the mu-coefficient
    (-(i+k))_mu (-(m+n))_mu inv^mu / (mu! (beta)_mu) is built step by step
    and each term multiplies it with the three 2F1 pairs into one running
    (total, denominator); one ``Fraction`` is built with the prefactor at
    the end.  It is a function of lattice points only.
    """
    beta, tan_chi2, tan_th2, (z_chi, z_psi, z_th), inv_factor = _general_sum_constants(
        beta, s_chi, t_psi, s_theta
    )
    (m, n), (i, k) = _check_degrees(m, n), _check_point(i, k)
    ip, iq = inv_factor.numerator, inv_factor.denominator
    bp, bq = beta.numerator, beta.denominator
    coef, coef_den = 1, 1
    total, total_den = 0, 1
    for mu in range(min(i + k, m + n) + 1):
        num1, den1 = _hyp2f1_pair(i + k - mu, k, (-(i + k), 1), z_chi)
        num2, den2 = _hyp2f1_pair(m + n - mu, i + k - mu, (bp + mu * bq, bq), z_psi)
        num3, den3 = _hyp2f1_pair(n, m + n - mu, (-(m + n), 1), z_th)
        term_den = coef_den * den1 * den2 * den3
        total = total * term_den + coef * num1 * num2 * num3 * total_den
        total_den *= term_den
        coef *= (mu - (i + k)) * (mu - (m + n)) * ip * bq
        coef_den *= (mu + 1) * iq * (bp + mu * bq)
    # the prefactor (-tan_chi^2)^k (-tan_th^2)^n
    return Fraction(
        tan_chi2.numerator**k * tan_th2.numerator**n * total,
        tan_chi2.denominator**k * tan_th2.denominator**n * total_den,
    )


# ---------------------------------------------------------------------------
# general float matrix elements and the addition formula


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


def _match_boost(lam: PseudoRotation, axis: int):
    """(cosh, sinh) of a pure boost in the plane of ``axis`` and the last axis."""
    e, other = lam.entries, 1 - axis
    if e[other][other] == 1 and e[axis][other] == e[other][axis] == e[other][2] == e[2][other] == 0:
        return e[2][2], e[axis][2]
    return None


def _closed_form(beta: Fraction, lam: PseudoRotation):
    """The closed-form evaluator (i, k, m, n) -> <i,k| F(lam) |m,n> of the
    identity, a pure rotation or a pure boost, or None."""
    if _is_identity(lam):
        return lambda i, k, m, n: 1.0 if (i, k) == (m, n) else 0.0
    rot = _match_rotation(lam)
    if rot is not None:
        cos, sin = rot
        return lambda i, k, m, n: _elliptic_me_core(cos, sin, i, k, m, n)
    for axis in (0, 1):
        pair = _match_boost(lam, axis)
        if pair is not None:
            ch, sh, first = *pair, axis == 0
            return lambda i, k, m, n: _hyperbolic_me_core(beta, ch, sh, i, k, m, n, first)
    return None


def me_evaluator(beta, lam: PseudoRotation) -> Callable[[int, int, int, int], float]:
    """Float evaluator (i, k, m, n) -> <i,k| F(lam) |m,n> for d = 2.

    Dispatches on structure: identity, pure rotation, pure boosts (their
    closed forms), otherwise a one-point read of the integer raising table
    of the core (``multivariate._RaisingTable.matrix_element``), which
    keeps the band below the point and needs a nonzero last column but no
    nonzero last row.  Its values are exact integers until the one
    log-space conversion, so an element is good to about rel 1e-13 even on
    the level block i + k = m + n = 25.  A table past ``POINT_BUDGET``
    cells is refused with exit 3.
    """
    if lam.d != 2:
        raise ValueError("matrix elements implemented for d = 2")
    beta = require_beta(beta)
    closed = _closed_form(beta, lam)
    if closed is not None:
        return closed
    table = _RaisingTable(beta, lam)
    return lambda i, k, m, n: table.matrix_element((i, k), (m, n))


def _level_rows(beta: Fraction, lam: PseudoRotation, fixed: MultiIndex, left: bool):
    """The reader of one factor of the addition sum: the points ys of the
    next level -> <fixed| F(lam) |y> (``left``) or <y| F(lam) |fixed> over
    ys.  A closed form is read point by point; otherwise a right factor is
    the next level of lam's stream at degree ``fixed``
    (``_RaisingTable.levels``), and a left factor, by U(L)_{x,y} =
    U(L~)_{y,x} with L~ = ``inverse_tilde(L)``, that of L~'s stream; other
    points are refused.  Where L~ has a zero in its last column (L one in
    its last row) the left factor is read from L's table a degree at a time."""
    closed = _closed_form(beta, lam)
    if closed is not None:
        if left:
            return lambda ys: [closed(*fixed, *y) for y in ys]
        return lambda ys: [closed(*y, *fixed) for y in ys]
    table = _RaisingTable(beta, lam)  # a zero in the last column raises here
    if left and not all(lam.entries[-1][:-1]):
        return lambda ys: [table.matrix_element(fixed, y) for y in ys]
    if left:
        table = _RaisingTable(beta, inverse_tilde(lam))
    stream, count = table.levels(fixed), itertools.count()

    def read(ys):
        if tuple(ys) != multivariate._level(next(count), len(fixed))[0]:
            raise ValueError("a level stream is read one level after another, from level 0")
        return next(stream)

    return read


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
    """Group-product decomposition <i,k| F(AB) |m,n> against the adaptively
    truncated bilinear sum over intermediate states y, level by level:

      sum_L sum_{|y| = L} <i,k| F(A) |y> <y| F(B) |m,n>.

    Each level's two rows come from ``_level_rows``: the right factor is
    the next level of B's raising stream at degree (m, n), and the left
    one, by U(A)_{x,y} = U(A~)_{y,x} (the representation is unitary with
    real elements and A~ = ``inverse_tilde(A)`` is A's inverse), that of
    A~'s stream at degree (i, k).  A stream keeps two levels of its chain
    of |n| columns; level L costs |n| (L + 1) cells, and past POINT_BUDGET
    cells in all it is refused.  The sum stops at the first level past
    both degrees whose contribution is below tol / 100, or past SHELL_CAP."""
    require_tol(tol)
    beta = require_beta(beta)
    me_c = me_evaluator(beta, compose(A, B))  # refuses d != 2
    row_a = _level_rows(beta, A, (i, k), True)
    row_b = _level_rows(beta, B, (m, n), False)
    lhs = me_c(i, k, m, n)
    total = 0.0
    threshold = tol / 100.0
    level = 0
    while True:
        if level > multivariate.SHELL_CAP:
            raise NonConvergence(
                f"addition sum did not settle within {multivariate.SHELL_CAP} diagonal shells"
            )
        ys = [(rho, level - rho) for rho in range(level + 1)]
        contrib = sum(map(mul, row_a(ys), row_b(ys)))
        total += contrib
        if level >= max(m + n, i + k) and abs(contrib) < threshold:
            break
        level += 1

    disc = abs(lhs - total)
    counter = (i, k, m, n) if disc > tol else None
    box = {"i": i, "k": k, "m": m, "n": n}
    return EvalReport("addition", box, ScalarMode.FLOAT, disc, counter, tol)
