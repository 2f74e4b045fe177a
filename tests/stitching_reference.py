"""The stitching step in the paper's notation, as the reference the tests
hold ``protocol.correct_results`` and ``protocol._stitch_arrays`` to."""

from disq.bitstrings import BitString


def slice_stitch(m1: BitString, m2: BitString, params) -> tuple[int, BitString] | None:
    """(b, m) read off 1-based, MSB-first bit slices, or None.

    B's bits 1..2 re-measure A's bits L/2..L/2+1; the b in {-1, 0, +1} with
    m1[L/2..L/2+1] + b = m2[1..2] (mod 4) corrects A's prefix
    m1[1..L/2+1], and m is that corrected prefix followed by m2[3..t2].
    No such b (the overlaps differ by 2 mod 4) gives None.
    """
    half = params.L // 2
    overlap_a = m1.slice(half, half + 1).value
    overlap_b = m2.slice(1, 2).value
    for b in (-1, 0, 1):
        if (overlap_a + b) % 4 == overlap_b:
            prefix_width = half + 1
            prefix_val = (m1.slice(1, prefix_width).value + b) % (1 << prefix_width)
            return b, BitString(prefix_width, prefix_val).concat(m2.slice(3, params.t2))
    return None
