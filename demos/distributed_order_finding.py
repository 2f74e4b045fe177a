"""One verbose two-node shot, then batch statistics, for N = 33 and a = 2.

Node A estimates the leading t1 bits of s/r and node B, after receiving
the work register by teleportation, estimates bits L/2 .. 2L+1+p.  The
two estimates overlap in two bits; the stitching step uses B's copy of
the overlap to decide whether A's prefix needs a +/-1 nudge, then glues
the pieces into one 2L+1+p bit estimate.
"""

import math
from fractions import Fraction

from disq import ProtocolParams, multiplicative_order, run_shots, summarize

N, a = 33, 2
params = ProtocolParams.derive(N, a, Fraction(1, 4))
r_true = multiplicative_order(a, N)

print(f"N = {N}, a = {a}: true order r = {r_true} (non-dyadic phases s/{r_true})")
print(
    f"L = {params.L}, padding p = {params.p}: node A control {params.t1} qubits, "
    f"node B control {params.t2} qubits, stitched width {params.m_width}\n"
)

rec = run_shots(params, 1, seed=12)[0]
print("one shot, step by step:")
print(f"  node A measures   m1 = {rec.m1}")
print(f"  teleport moves the {params.L}-qubit work register using "
      f"{rec.classical_bits_used} classical bits: {rec.channel_transcript}")
print(f"  node B measures   m2 = {rec.m2}")
print(f"  overlap check: A's bits {params.L // 2}..{params.L // 2 + 1} = "
      f"{rec.m1.slice(params.L // 2, params.L // 2 + 1)}, "
      f"B's bits 1..2 = {rec.m2.slice(1, 2)}  ->  correction {rec.correction_bit:+d}")
print(f"  stitched estimate m = {rec.m}")
estimate = Fraction(rec.m.value, 1 << params.m_width)
print(f"  m/2^{params.m_width} = {float(estimate):.6f}, nearest s/r = {rec.nearest_s}/{r_true} "
      f"= {rec.nearest_s / r_true:.6f}")
print(f"  continued fractions recover r = {rec.recovered_r}\n")

shots = 100
records = run_shots(params, shots, seed=33)
summary = summarize(params, records)
sigma = math.sqrt(0.75 * 0.25 / shots)
print(f"{shots} seeded shots:")
print(f"  estimates within 2^-(2L+1) of some s/r: {summary['success_rate']:.2%}"
      f"  (target {summary['theorem2_bound']:.0%}, 3-sigma slack {3 * sigma:.2%})")
print(f"  order recovered: {summary['order_recovery_rate']:.2%}")
print(f"  stitching failures (no correction bit): {summary['correction_failures']}")
print(f"  shots landing nearest each s: {summary['per_s_histogram']}")
