"""Single-node order finding, start to finish, for N = 15 and a = 7.

The order of 7 mod 15 is 4, so the phase register concentrates on
multiples of 1/4 -- and because 4 is a power of two, it concentrates
*exactly*: the exact distribution is four point masses.  Each measured
m is then pushed through continued fractions to recover the order.
"""

from fractions import Fraction

import numpy as np

from disq import (
    ENGINE_MONOLITHIC,
    ProtocolParams,
    monolithic_exact_distribution,
    multiplicative_order,
    run_shots,
)

N, a = 15, 7
params = ProtocolParams.derive(N, a, Fraction(1, 4))
r_true = multiplicative_order(a, N)

print(f"N = {N}, a = {a}: true order r = {r_true}")
print(f"control register: {params.t_mono} qubits, work register: {params.L} qubits\n")

print("exact outcome distribution (nonzero entries):")
dist = monolithic_exact_distribution(params)
for m in np.nonzero(dist > 1e-12)[0]:
    print(f"  m = {int(m):>5}  m/2^t = {Fraction(int(m), len(dist))}  prob = {dist[m]:.4f}")

print("\n12 seeded shots:")
for shot, rec in enumerate(run_shots(params, 12, seed=0, engine=ENGINE_MONOLITHIC)):
    estimate = Fraction(rec.m.value, 1 << rec.m.width)
    verdict = f"r = {rec.recovered_r}" if rec.recovered_r else "no candidate verified"
    print(f"  shot {shot:>2}: m = {rec.m}  ({str(estimate):>4})  ->  {verdict}")

print("\nA measurement of m = 0 (the s = 0 branch) is uninformative and the")
print("recovery correctly gives up on it; any other branch lands the order.")
