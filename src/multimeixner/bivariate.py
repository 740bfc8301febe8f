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
* ``monic_eval_hyp``      the terminating four-index hypergeometric sum
* ``factorized_eval`` / ``general_sum_eval``
                          closed forms in univariate Meixner/Krawtchouk
                          factors, valid for specific product decompositions

The first two routes, the weight, the polynomial coefficients, the
orthogonality sum and the exact recurrence, difference, lowering and
duality checkers are those of the d-variable core in ``multivariate``,
called at d = 2.

All identity checkers run on the monic values, which are rational, so an
identity either holds with discrepancy exactly zero or it is broken.  The
orthonormal family and the representation matrix elements carry square
roots and live in float mode only.
"""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, List, Tuple

from . import multivariate
from .errors import ModeError, NonConvergence, NonGenericMatrix, PreconditionError
from .lorentz import PseudoRotation, compose, identity as lorentz_identity
from .multivariate import (
    MeixnerSystemD,
    _LogMass,
    _gram_discrepancy,
    _neighbours_below,
    _raising_levels,
    check_difference_d,
    check_duality_d,
    check_lowering_d,
    check_recurrence_d,
    monic_eval_gf_d,
    monic_eval_raising_d,
    monic_poly_coeffs_d,
    weight_d,
)
from .numerics import (
    ScalarMode,
    _scaled_list,
    as_rational,
    log_abs,
    pochhammer,
    require_tol,
    # unused here: the benchmark tracer binds these three on this module
    series_geom_pow,
    series_mul,
    solve_linear_system,
)
from .reports import EvalReport, LatticeBox, lattice
from .univariate import krawtchouk, meixner


class MeixnerSystem(MeixnerSystemD):
    """The d = 2 system.

    ``_hyp_cache`` maps (row, length) to a row of the hypergeometric sum
    cleared to integers, built on first use and, like the core's caches,
    never invalidated.
    """

    def __init__(self, beta, lam: PseudoRotation, mode=ScalarMode.EXACT):
        if lam.d != 2:
            raise ValueError(f"MeixnerSystem needs a 3x3 matrix, got d={lam.d}")
        super().__init__(beta, lam, mode)
        self._hyp_cache: Dict[Tuple[object, int], Tuple[int, List[int]]] = {}


# ---------------------------------------------------------------------------
# weights and amplitudes


def weight(sys: MeixnerSystem, i: int, k: int):
    """Negative trinomial mass at (i, k)."""
    return weight_d(sys, (i, k))


def amplitude_sq(sys: MeixnerSystem, i: int, k: int):
    """Squared amplitude; coincides with weight() by the metric row relations."""
    _check_point(i, k)
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


def _check_point(i: int, k: int):
    if i < 0 or k < 0:
        raise ValueError(f"lattice point must be non-negative, got ({i}, {k})")


def _check_degrees(m: int, n: int):
    if m < 0 or n < 0:
        raise ValueError(f"degrees must be non-negative, got ({m}, {n})")


# ---------------------------------------------------------------------------
# routes 1 and 2 of the core at d = 2


def monic_eval_gf(sys: MeixnerSystem, m: int, n: int, i: int, k: int) -> Fraction:
    """Coefficient extraction from the three-factor generating product."""
    return monic_eval_gf_d(sys, (m, n), (i, k))


def monic_eval_raising(sys: MeixnerSystem, m: int, n: int, i: int, k: int) -> Fraction:
    """The radical-free raising recursion (see ``multivariate``)."""
    return monic_eval_raising_d(sys, (m, n), (i, k))


# ---------------------------------------------------------------------------
# route 3: terminating hypergeometric quadruple sum


def monic_eval_hyp(sys: MeixnerSystem, m: int, n: int, i: int, k: int) -> Fraction:
    _check_degrees(m, n)
    _check_point(i, k)
    # each row only as long as the sum reads it: negm, negn and invb are
    # read at mu + nu, rho + sigma and their total, with mu + rho <= i and
    # nu + sigma <= k, so never past i + k
    negm = _rising_of_negative(m, min(m, i + k))
    negn = _rising_of_negative(n, min(n, i + k))
    negi = _rising_of_negative(i, min(i, m + n))
    negk = _rising_of_negative(k, min(k, m + n))
    db, invb = _hyp_row(sys, "invbeta", min(m + n, i + k))
    d11, p11 = _hyp_row(sys, (0, 0), min(m, i))
    d21, p21 = _hyp_row(sys, (1, 0), min(m, k))
    d12, p12 = _hyp_row(sys, (0, 1), min(n, i))
    d22, p22 = _hyp_row(sys, (1, 1), min(n, k))
    total = hyp_sum(m, n, i, k, negm, negn, negi, negk, invb, p11, p21, p12, p22)
    return Fraction(total, db * d11 * d21 * d12 * d22)


def hyp_sum(m, n, i, k, negm, negn, negi, negk, invbeta, p11, p21, p12, p22):
    """Accumulate the four-index terminating sum, in integers.

    ``negm[t]`` holds the rising factorial of -m at length t (similarly for
    n, i, k), ``invbeta[t]`` the reciprocal rising factorial of the base
    parameter, and ``pXY[e]`` the e-th power of (1 - uXY) divided by e!,
    each of the last five as integer numerators over one denominator per
    row.  The return value is the sum over the product of those five
    denominators.  Loop bounds come from the vanishing of the rising
    factorials, so the sum is exact and finite.
    """
    total = 0
    for mu in range(min(m, i) + 1):
        for rho in range(min(n, i - mu) + 1):
            outer = negi[mu + rho] * p11[mu] * p12[rho]
            if not outer:
                continue
            for nu in range(min(m - mu, k) + 1):
                a = outer * negm[mu + nu] * p21[nu]
                if not a:
                    continue
                for sigma in range(min(n - rho, k - nu) + 1):
                    total += (
                        a
                        * negn[rho + sigma]
                        * negk[nu + sigma]
                        * invbeta[mu + nu + rho + sigma]
                        * p22[sigma]
                    )
    return total


def _rising_of_negative(a: int, top: int):
    """(-a)_t for t = 0..top, as integers."""
    out = [1]
    for s in range(top):
        out.append(out[-1] * (s - a))
    return out


def _hyp_row(sys: MeixnerSystem, row, length: int):
    """The system's row ``row`` of the hypergeometric sum up to ``length``,
    as (denominator, integer numerators), cleared on first use.

    ``"invbeta"`` is 1/(b)_t = q^t / prod_{s<t} (p + s q) for b = p/q; a
    pair (a, c) is (1 - u[a][c])^e / e!.  Both are read from the integer
    parameters the system's store was cleared from at construction.
    """
    key = (row, length)
    cached = sys._hyp_cache.get(key)
    if cached is None:
        store = sys._gf_cache
        if row == "invbeta":
            values = [Fraction(store.q**t, store.rising(t)) for t in range(length + 1)]
        else:
            a, c = row
            base = Fraction(store.denom - store.rows[a][c], store.denom)
            values = [Fraction(1)]
            for e in range(1, length + 1):
                values.append(values[-1] * base / e)
        cached = sys._hyp_cache[key] = _scaled_list(values)
    return cached


# ---------------------------------------------------------------------------
# exact polynomial coefficients (for fast float evaluation on big lattices)


def monic_poly_coeffs(sys: MeixnerSystem, m: int, n: int) -> Dict[Tuple[int, int], Fraction]:
    """Exact coefficients of the degree-(m+n) polynomial in (i, k)."""
    return monic_poly_coeffs_d(sys, (m, n))


# ---------------------------------------------------------------------------
# orthonormal family and representation matrix elements (float only)


def orthonormal_eval(sys: MeixnerSystem, m: int, n: int, i: int, k: int) -> float:
    """Orthonormal value: signed square-root normalization times the monic value."""
    sys.require_mode(ScalarMode.FLOAT, "orthonormal_eval")
    _check_degrees(m, n)
    _check_point(i, k)
    return _scaled_orthonormal(sys, (m, n), (i, k), 1, 0.0, "orthonormal value")


def matrix_element(sys: MeixnerSystem, i: int, k: int, m: int, n: int) -> float:
    """Representation matrix element: signed amplitude times orthonormal value."""
    sys.require_mode(ScalarMode.FLOAT, "matrix_element")
    _check_degrees(m, n)
    _check_point(i, k)
    column = _LogMass(sys.beta, sys.lam)
    x = (i, k)
    return _scaled_orthonormal(sys, (m, n), x, column.sign(x), 0.5 * column(x), "matrix element")


def _scaled_orthonormal(sys: MeixnerSystem, n, x, sign: int, log_scale: float, what: str) -> float:
    """sign exp(log_scale) times the orthonormal value at degrees n, point x.

    The logarithms of the monic value (``log_abs``, so neither integer
    passes through a float), half the row mass of the prefactor and
    ``log_scale`` are summed, the signs kept apart, so only the result can
    leave the float range: far below it reads 0.0, above it raises
    ``PreconditionError``.
    """
    value = monic_eval_raising(sys, *n, *x)
    if not value:
        return 0.0
    row = _LogMass(sys.beta, sys.lam, row=True)
    sign *= (-1) ** sum(n) * row.sign(n) * (1 if value > 0 else -1)
    log = log_abs(value) + 0.5 * row(n) + log_scale
    try:
        return sign * math.exp(log)
    except OverflowError:
        raise PreconditionError(
            f"the {what} is about 10^{log / math.log(10):.1f}, past the float range"
        ) from None


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


def _hyperbolic_me(beta, t, i: int, k: int, m: int, n: int, first_axis: bool) -> float:
    beta, t = as_rational(beta), as_rational(t)
    if t <= 1:
        raise PreconditionError(f"need t > 1 so the element is nontrivial, got {t}")
    ch, sh = _boost_trig(t)
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
    still fine here.  With r_i = L[i][j]/L[i][d], j the axis that the
    core's raising descent (``multivariate._raising_levels``) steps down,
    the values at shift s are 1.0 at degree zero and

      M[n](y) = (-r_d (|y| + b + s) M'[n - e_j](y)
                 + sum_i r_i y_i M'[n - e_j](y - e_i)) / sqrt((b + s) n_j),

    M' at shift s + 1, filled bottom up over the descent's levels.
    """

    def __init__(self, beta: Fraction, lam: PseudoRotation):
        e, d = lam.entries, lam.d
        if any(e[i][d] == 0 for i in range(d)):
            raise NonGenericMatrix(
                "matrix element recursion needs nonzero last-column entries"
            )
        self.beta = float(beta)
        self.ratios = [tuple(float(e[i][j] / e[i][d]) for i in range(d + 1)) for j in range(d)]
        self._amplitude = lru_cache(maxsize=None)(_LogMass(beta, lam).root)
        self._m: Dict[Tuple[Tuple[int, ...], Tuple[int, ...], int], float] = {}

    def me(self, i: int, k: int, m: int, n: int) -> float:
        return self._amplitude((i, k)) * self._m_value((m, n), (i, k))

    def _m_value(self, n, x) -> float:
        cache = self._m
        below = cache.get  # degree-zero values are 1.0 and are not stored
        for degree, j, lower, shift, points in reversed(_raising_levels(cache, n, x)):
            *r, rc = self.ratios[j]
            gamma = self.beta + shift
            norm = math.sqrt(gamma * degree[j])
            for y in points:
                acc = -rc * (sum(y) + gamma) * below((lower, y, shift + 1), 1.0)
                for i, v, z in _neighbours_below(y):
                    acc += r[i] * v * below((lower, z, shift + 1), 1.0)
                cache[(degree, y, shift)] = acc / norm
        return below((n, x, 0), 1.0)


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


def me_evaluator(beta, lam: PseudoRotation) -> Callable[[int, int, int, int], float]:
    """Float evaluator (i, k, m, n) -> <i,k| F(lam) |m,n> for d = 2.

    Dispatches on structure: identity, pure rotation, pure boosts (their
    closed forms), otherwise the generic recursion, which needs a nonzero
    last column.  The recursion agrees with ``matrix_element`` to rel 1e-9
    for i + k = m + n <= 10; its float error grows fast with the degree
    (rel 2e-6 on the canonical matrix and 3e-3 on a seeded one at
    i + k = m + n = 20), so deep values are rough.
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
    for axis in (0, 1):
        pair = _match_boost(lam, axis)
        if pair is not None:
            ch, sh, first = *pair, axis == 0
            return lambda i, k, m, n: _hyperbolic_me_core(beta, ch, sh, i, k, m, n, first)
    return _FloatMeTable(beta, lam).me


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
    require_tol(tol)
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
        if level > multivariate.SHELL_CAP:
            raise NonConvergence(
                f"addition sum did not settle within {multivariate.SHELL_CAP} diagonal shells"
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
    box = {"i": i, "k": k, "m": m, "n": n}
    return EvalReport("addition", box, ScalarMode.FLOAT, disc, counter, tol)
