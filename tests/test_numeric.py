import math
from fractions import Fraction

import numpy as np
import pytest

from disq.bitstrings import BitString
from disq.numeric import ceil_log2, convergents, multiplicative_order, recover_order


def _totient(n: int) -> int:
    count = 0
    for k in range(1, n):
        if math.gcd(k, n) == 1:
            count += 1
    return count


class TestMultiplicativeOrder:
    def test_examples(self):
        assert multiplicative_order(7, 15) == 4
        assert multiplicative_order(2, 33) == 10
        assert multiplicative_order(1, 91) == 1

    def test_minimality_and_group_order_divisibility(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            n = int(rng.integers(3, 1 << 12))
            a = int(rng.integers(1, n))
            if math.gcd(a, n) != 1:
                continue
            r = multiplicative_order(a, n)
            assert pow(a, r, n) == 1
            for k in range(1, r):
                assert pow(a, k, n) != 1
            if n <= 600:  # totient scan is quadratic, keep it small
                assert _totient(n) % r == 0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            multiplicative_order(6, 15)
        with pytest.raises(ValueError):
            multiplicative_order(0, 15)
        with pytest.raises(ValueError):
            multiplicative_order(15, 15)


class TestConvergents:
    def test_known_expansion(self):
        got = convergents(Fraction(19661, 65536))
        assert Fraction(3, 10) in got
        assert got[0] == Fraction(0)
        assert got[-1] == Fraction(19661, 65536)

    def test_trivial_cases(self):
        assert convergents(Fraction(1, 2)) == [Fraction(0), Fraction(1, 2)]
        assert convergents(Fraction(0)) == [Fraction(0)]

    def test_domain(self):
        with pytest.raises(ValueError):
            convergents(Fraction(5, 4))
        with pytest.raises(ValueError):
            convergents(Fraction(-1, 4))

    def test_approximation_quality(self):
        # every convergent except possibly the exact last one satisfies the
        # classical |x - p/q| < 1/q^2 bound
        rng = np.random.default_rng(21)
        for _ in range(300):
            den = int(rng.integers(2, 100_000))
            x = Fraction(int(rng.integers(0, den)), den)
            convs = convergents(x)
            for c in convs[:-1]:
                assert abs(x - c) < Fraction(1, c.denominator**2)
            assert convs[-1] == x

    def test_convergents_in_lowest_terms(self):
        for c in convergents(Fraction(19661, 65536)):
            assert math.gcd(c.numerator, c.denominator) == 1


class TestRecoverOrder:
    def test_recovers_order_from_good_estimate(self):
        assert recover_order(BitString(16, 19661), 33, 2) == 10

    def test_zero_measurement_fails(self):
        assert recover_order(BitString(12, 0), 33, 2) is None
        assert recover_order(BitString(12, 0), 15, 7) is None

    def test_zero_measurement_succeeds_for_identity(self):
        assert recover_order(BitString(12, 0), 15, 1) == 1

    def test_half_recovers_even_order(self):
        # s/r = 1/2 for N=15, a=11 (order 2)
        assert recover_order(BitString(16, 1 << 15), 15, 11) == 2

    def test_multiples_bridge_shared_factors(self):
        # a=2 mod 33 has order 10; s=2 gives s/r = 1/5, so the convergent
        # denominator is 5 and only its multiple 10 verifies
        m = BitString(16, (1 << 16) // 5)
        assert recover_order(m, 33, 2) == 10

    def test_result_is_always_a_verified_order(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            n = int(rng.integers(3, 200))
            a = int(rng.integers(1, n))
            if math.gcd(a, n) != 1:
                continue
            m = BitString(14, int(rng.integers(0, 1 << 14)))
            got = recover_order(m, n, a)
            if got is not None:
                assert pow(a, got, n) == 1
                # reduced to the true order, never a proper multiple
                assert got == multiplicative_order(a, n)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            recover_order(BitString(8, 3), 15, 6)


class TestCeilLog2:
    def test_exact_at_powers_of_two(self):
        assert ceil_log2(4) == 2
        assert ceil_log2(Fraction(4)) == 2
        assert ceil_log2(Fraction(9, 2)) == 3
        assert ceil_log2(1) == 0
        assert ceil_log2(6) == 3

    def test_domain(self):
        with pytest.raises(ValueError):
            ceil_log2(Fraction(1, 2))
