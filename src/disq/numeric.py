"""Integer number theory: multiplicative order and continued-fraction
recovery of an order from a phase measurement.

Everything here is exact integer / Fraction arithmetic (Python ints do not
overflow), pure, and safe to call from any thread.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .bitstrings import BitString


def ceil_log2(x: Fraction | int) -> int:
    """Smallest integer k >= 0 with 2^k >= x, exact for rational x >= 1."""
    x = Fraction(x)
    if x < 1:
        raise ValueError(f"ceil_log2 needs x >= 1, got {x}")
    # 2^k is an integer, so 2^k >= x exactly when 2^k >= ceil(x).
    return (-(-x.numerator // x.denominator) - 1).bit_length()


def multiplicative_order(a: int, n: int) -> int:
    """Smallest r >= 1 with a^r = 1 (mod n), by brute-force iteration.

    Deliberately naive: this is the ground-truth oracle every protocol
    test is checked against, so it must stay independent of the clever
    paths it validates.
    """
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    if not 1 <= a < n:
        raise ValueError(f"need 1 <= a < n, got a={a}, n={n}")
    if math.gcd(a, n) != 1:
        raise ValueError(f"a={a} and n={n} are not coprime")
    cur = a % n
    r = 1
    while cur != 1:
        cur = cur * a % n
        r += 1
        if r > n:  # unreachable for coprime a; guards a broken precondition
            raise RuntimeError("order iteration exceeded modulus")
    return r


def convergents(x: Fraction) -> list[Fraction]:
    """All continued-fraction convergents of x in [0, 1), in lowest terms.

    The list starts at 0/1 (every x < 1 has leading coefficient 0) and ends
    with x itself, exactly.
    """
    x = Fraction(x)
    if not 0 <= x < 1:
        raise ValueError(f"x must be in [0, 1), got {x}")
    p, q = x.numerator, x.denominator
    out: list[Fraction] = []
    h_prev, h_pprev = 1, 0  # numerator recurrence seeds
    k_prev, k_pprev = 0, 1  # denominator recurrence seeds
    while q:
        coeff, rem = divmod(p, q)
        p, q = q, rem
        h_prev, h_pprev = coeff * h_prev + h_pprev, h_prev
        k_prev, k_pprev = coeff * k_prev + k_pprev, k_prev
        out.append(Fraction(h_prev, k_prev))
    return out


def recover_order(m: BitString, n: int, a: int) -> int | None:
    """Recover the order of a mod n from a measured phase estimate m/2^w.

    Candidate orders come from the continued-fraction convergents of
    m / 2^width: every convergent denominator q with 2 <= q <= n is
    expanded to its multiples c*q <= n (the measured numerator may share a
    factor with the order, in which case the convergent denominator is
    only a divisor of it).  The 0/1 convergent contributes the single
    candidate 1 -- an all-zero measurement carries no order information,
    so it must not degenerate into a brute-force sweep.  Candidates are
    tried in increasing value.  The order divides every verified exponent,
    so the first verified candidate is reduced to its least divisor that
    also verifies, which is the exact order.

    Returns None when no candidate verifies; the caller retries the whole
    protocol shot in that case.
    """
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    if math.gcd(a, n) != 1:
        raise ValueError(f"a={a} and n={n} are not coprime")
    x = Fraction(m.value, 1 << m.width)
    candidates = {1}
    for conv in convergents(x):
        q = conv.denominator
        if 2 <= q <= n:
            candidates.update(range(q, n + 1, q))
    for cand in sorted(candidates):
        if pow(a, cand, n) == 1:
            return next(d for d in range(1, cand + 1) if cand % d == 0 and pow(a, d, n) == 1)
    return None
