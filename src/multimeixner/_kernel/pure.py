"""Pure-Python kernel: the inner loops behind series products and the
finite hypergeometric quadruple sum.

Both entry points clear denominators up front (one lcm per input list),
run the hot loop in plain big-integer arithmetic, and rebuild exact
rationals once per output value, so the per-term gcd cost of Fraction
arithmetic never enters the loop.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def _scaled_items(coeffs):
    """Common denominator and integer-scaled (degree, exponents, value) rows."""
    denom = 1
    for c in coeffs.values():
        denom = lcm(denom, c.denominator)
    items = [
        (sum(e), e, c.numerator * (denom // c.denominator)) for e, c in coeffs.items()
    ]
    items.sort()
    return denom, items


def _scaled_list(values):
    denom = 1
    for v in values:
        denom = lcm(denom, v.denominator)
    return denom, [v.numerator * (denom // v.denominator) for v in values]


def mul_trunc(a, b, cutoff):
    """Multiply two sparse coefficient maps, discarding total degree > cutoff.

    Keys are exponent tuples, values exact rationals.  Entries that cancel
    to zero are dropped so the representation stays canonical.
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


def hyp_sum(m, n, i, k, negm, negn, negi, negk, invbeta, p11, p21, p12, p22):
    """Accumulate the four-index terminating sum used by the closed-form
    polynomial route.

    ``negm[t]`` holds the rising factorial of -m at length t (similarly for
    n, i, k), ``invbeta[t]`` the reciprocal rising factorial of the base
    parameter, and ``pXY[e]`` the e-th power of (1 - uXY) divided by e!.
    Loop bounds come from the vanishing of the rising factorials, so the
    sum is exact and finite.
    """
    dm, jm = _scaled_list(negm)
    dn, jn = _scaled_list(negn)
    di, ji = _scaled_list(negi)
    dk, jk = _scaled_list(negk)
    db, jb = _scaled_list(invbeta)
    d11, j11 = _scaled_list(p11)
    d21, j21 = _scaled_list(p21)
    d12, j12 = _scaled_list(p12)
    d22, j22 = _scaled_list(p22)
    total = 0
    for mu in range(min(m, i) + 1):
        for rho in range(min(n, i - mu) + 1):
            outer = ji[mu + rho] * j11[mu] * j12[rho]
            if not outer:
                continue
            for nu in range(min(m - mu, k) + 1):
                a = outer * jm[mu + nu] * j21[nu]
                if not a:
                    continue
                for sigma in range(min(n - rho, k - nu) + 1):
                    total += (
                        a
                        * jn[rho + sigma]
                        * jk[nu + sigma]
                        * jb[mu + nu + rho + sigma]
                        * j22[sigma]
                    )
    return Fraction(total, dm * dn * di * dk * db * d11 * d21 * d12 * d22)
