"""One-variable Meixner and Krawtchouk polynomials, evaluated exactly.

These are the classical terminating Gauss hypergeometric sums; they feed
the closed-form factorizations of the two-variable polynomials.  The one
sum, ``_hyp2f1_pair``, runs its term ratios in integers: the current term,
the running total and their common denominator are kept as three integers
with no gcd taken, and the caller builds a single ``Fraction`` (the
closed forms first multiply several such pairs together).  No gamma
functions, no floats.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple

from .numerics import as_rational


def _hyp2f1_pair(n: int, x, delta, z) -> Tuple[int, int]:
    """Sum_{j=0..n} (-n)_j (-x)_j / ((delta)_j j!) z^j as an integer pair
    (total, denominator); x, delta and z are ints or Fractions.

    With x = xp/xq, delta = dp/dq and z = zp/zq the term ratio is
    (j-n)(j xq - xp) zp dq / r with r = xq zq (dp + j dq) (j+1), so the
    term's numerator, the total and their common denominator stay
    integers: term *= (j-n)(j xq - xp) zp dq, total = total r + term,
    den *= r.  Stops early once a numerator factor kills all remaining
    terms; raises if a denominator factor vanishes while terms are still
    alive.
    """
    if n < 0:
        raise ValueError("degree must be non-negative")
    xp, xq = x.numerator, x.denominator
    dp, dq = delta.numerator, delta.denominator
    zp, zq = z.numerator, z.denominator
    term = total = den = 1
    for j in range(n):
        num = (j - n) * (j * xq - xp) * zp
        if num == 0:
            break
        d = dp + j * dq
        if d == 0:
            raise ZeroDivisionError(
                f"vanishing Pochhammer factor in denominator at j={j + 1}"
            )
        r = xq * zq * d * (j + 1)
        term *= num * dq
        total = total * r + term
        den *= r
    return total, den


def meixner(n: int, x, delta, c) -> Fraction:
    """Meixner polynomial M_n(x; delta; c) as a terminating 2F1 at 1 - 1/c."""
    x = as_rational(x)
    delta = as_rational(delta)
    c = as_rational(c)
    if c == 0:
        raise ZeroDivisionError("c must be nonzero")
    return Fraction(*_hyp2f1_pair(n, x, delta, 1 - 1 / c))


def monic_meixner(n: int, x, delta, c) -> Fraction:
    """Monic Meixner polynomial m_n(x) built from its three-term recurrence.

    Linked to meixner() by M_n(x; delta; c) = ((c-1)/c)^n / (delta)_n * m_n(x).
    """
    if n < 0:
        raise ValueError("degree must be non-negative")
    x = as_rational(x)
    delta = as_rational(delta)
    c = as_rational(c)
    if c == 1:
        raise ZeroDivisionError("recurrence coefficients are singular at c = 1")
    prev = Fraction(0)  # m_{-1}
    cur = Fraction(1)  # m_0
    for j in range(n):
        diag = (j + (j + delta) * c) / (1 - c)
        sub = j * (j + delta - 1) * c / (1 - c) ** 2
        cur, prev = (x - diag) * cur - sub * prev, cur
    return cur


def krawtchouk(n: int, x, p, N: int) -> Fraction:
    """Krawtchouk polynomial K_n(x; p; N) as a terminating 2F1 at 1/p.

    Requires n <= N so the (-N)_j factors stay nonzero across the needed
    range; x may be any rational (the sum is polynomial in x).
    """
    if N < 0:
        raise ValueError("N must be a non-negative integer")
    if n > N:
        raise ValueError(f"degree n={n} exceeds N={N}: denominator Pochhammer vanishes")
    x = as_rational(x)
    p = as_rational(p)
    if p == 0:
        raise ZeroDivisionError("p must be nonzero")
    return Fraction(*_hyp2f1_pair(n, x, -N, 1 / p))
