"""Fixed-width bit strings and the bit-slicing helpers used in result stitching.

Indexing convention, used everywhere in this package: bits are numbered
1-based with bit 1 the most significant.  A value omega = 0.b1 b2 b3 ... in
binary therefore has ``fraction_bits(omega, i, j) == b_i ... b_j``, and a
bit string x = a1 a2 ... aw has ``x.slice(i, j) == a_i ... a_j``.  This
matches the convention the protocol arithmetic is written in, so the
stitching formulas transcribe directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

MAX_WIDTH = 64


@dataclass(frozen=True)
class BitString:
    """An immutable bit sequence of fixed width, also readable as an integer.

    ``value`` holds the bits most-significant-first, so the canonical text
    form of ``BitString(6, 0b101100)`` is ``"101100"`` and its integer value
    is 44.  Width 0 is the empty string, the identity for ``concat``.
    """

    width: int
    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.width <= MAX_WIDTH:
            raise ValueError(f"width must be in [0, {MAX_WIDTH}], got {self.width}")
        if not 0 <= self.value < (1 << self.width):
            raise ValueError(f"value {self.value} out of range for width {self.width}")

    @classmethod
    def from_text(cls, bits: str) -> "BitString":
        """Parse the canonical text form, e.g. ``"101100"`` (empty string ok)."""
        if bits and set(bits) - {"0", "1"}:
            raise ValueError(f"not a bit string: {bits!r}")
        return cls(len(bits), int(bits, 2) if bits else 0)

    @property
    def text(self) -> str:
        return format(self.value, f"0{self.width}b") if self.width else ""

    def __str__(self) -> str:
        return self.text

    def slice(self, i: int, j: int) -> "BitString":
        """Bits i..j inclusive, 1-based from the most significant."""
        if not 1 <= i <= j <= self.width:
            raise ValueError(f"slice [{i}, {j}] out of range for width {self.width}")
        w = j - i + 1
        return BitString(w, (self.value >> (self.width - j)) & ((1 << w) - 1))

    def concat(self, other: "BitString") -> "BitString":
        """This string's bits followed by ``other``'s."""
        w = self.width + other.width
        if w > MAX_WIDTH:
            raise ValueError(f"concatenated width {w} exceeds {MAX_WIDTH}")
        return BitString(w, (self.value << other.width) | other.value)

    def __add__(self, other: "BitString") -> "BitString":
        return self.concat(other)


def fraction_bits(omega: Fraction, i: int, j: int) -> BitString:
    """Bits i..j of the binary expansion of omega's fractional part.

    omega must lie in [0, 1).  Dyadic rationals use the terminating
    expansion (0.1, never 0.0111...), which floor-based extraction gives
    for free.  Exact for any Fraction; no floating point involved.
    """
    omega = Fraction(omega)
    if not 0 <= omega < 1:
        raise ValueError(f"omega must be in [0, 1), got {omega}")
    if i < 1 or j < i:
        raise ValueError(f"need 1 <= i <= j, got i={i}, j={j}")
    if j > MAX_WIDTH:
        raise ValueError(f"bit index {j} exceeds {MAX_WIDTH}")
    w = j - i + 1
    # floor(omega * 2^j) has bits b1..bj; keep the low w of them.
    prefix = (omega.numerator << j) // omega.denominator
    return BitString(w, prefix & ((1 << w) - 1))


def circular_distance(x: BitString, y: BitString) -> int:
    """min(|x - y|, 2^t - |x - y|) for two t-bit strings.

    This is the wrap-around distance on the 2^t-point circle; it is the
    error metric for all phase-measurement accuracy statements here.
    """
    if x.width != y.width:
        raise ValueError(f"width mismatch: {x.width} vs {y.width}")
    d = abs(x.value - y.value)
    return min(d, (1 << x.width) - d)
