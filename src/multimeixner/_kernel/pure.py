"""Pure-Python kernel: the inner loops behind series products and the
finite hypergeometric quadruple sum.

Both loops run in plain big-integer arithmetic, so the per-term gcd cost
of Fraction arithmetic never enters them.  The series product clears
its inputs' denominators up front (one lcm per input map) and rebuilds
one rational per output coefficient.  The hypergeometric sum takes rows
its caller has already cleared to integers and returns the integer
total; the caller divides by the product of the row denominators.
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
    polynomial route, in integers.

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
