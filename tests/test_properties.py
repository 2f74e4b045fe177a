"""Property tests over drawn sizes: result stitching, order recovery and ceil_log2.

Examples are derandomized so every run checks the same cases.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from disq.bitstrings import MAX_WIDTH, BitString
from disq.numeric import ceil_log2, multiplicative_order, recover_order
from disq.protocol import ProtocolParams, _stitch_arrays, control_widths, correct_results
from stitching_reference import slice_stitch

fixed = settings(derandomize=True, deadline=None)

even_L = st.integers(1, 20).map(lambda half: 2 * half)
paddings = st.integers(1, 12)


@st.composite
def coprime_pairs(draw):
    """(N, a) with 2 <= N <= 64 and gcd(a, N) = 1."""
    N = draw(st.integers(2, 64))
    return N, draw(st.sampled_from([a for a in range(1, N) if math.gcd(a, N) == 1]))


@fixed
@given(L=even_L, p=paddings, data=st.data())
def test_stitch_arrays_matches_correct_results(L, p, data):
    # N = 2^(L-1) + 1 has bit length L; base 1 only sizes the registers.
    params = ProtocolParams.with_padding((1 << (L - 1)) + 1, 1, p)
    assume(params.m_width < MAX_WIDTH)  # int64 arrays and 64-bit BitStrings
    pairs = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, (1 << params.t1) - 1), st.integers(0, (1 << params.t2) - 1)
            ),
            min_size=1,
            max_size=16,
        )
    )
    m1, m2 = np.array(pairs, dtype=np.int64).T
    stitched, ok, bit = _stitch_arrays(m1, m2, params)
    for (v1, v2), value, good, b in zip(pairs, stitched, ok, bit):
        pair = BitString(params.t1, v1), BitString(params.t2, v2)
        expected = slice_stitch(*pair, params)
        got = correct_results(*pair, params)
        assert got == expected and good == (expected is not None)
        if expected is not None:
            assert (b, value) == (expected[0], expected[1].value)
            assert type(got[0]) is int  # a record's correction bit goes to json.dumps


@fixed
@given(L=even_L, p=paddings, p_mono=paddings)
def test_stitching_identity(L, p, p_mono):
    # A's kept prefix (L/2 + 1 bits) and B's bits 3..t2 tile the estimate.
    _, t2, m_width, _ = control_widths(L, p, p_mono)
    assert (L // 2 + 1) + (t2 - 2) == m_width


@fixed
@given(pair=coprime_pairs(), p=paddings, data=st.data())
def test_recover_order_from_nearest_estimate(pair, p, data):
    N, a = pair
    params = ProtocolParams.with_padding(N, a, p)
    r = multiplicative_order(a, N)
    s = data.draw(st.sampled_from([s for s in range(r) if math.gcd(s, r) == 1]))
    w = params.m_width
    nearest = round(Fraction(s << w, r))  # within 2^-(w+1) of s/r, below 1/(2r^2)
    assert recover_order(BitString(w, nearest), N, a) == r


@fixed
@given(x=st.fractions(min_value=1, max_denominator=1 << 70))
def test_ceil_log2_brackets_x(x):
    k = ceil_log2(x)
    if x == 1:
        assert k == 0
    else:
        assert Fraction(1 << k, 2) < x <= 1 << k
