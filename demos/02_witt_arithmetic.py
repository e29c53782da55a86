"""Witt vector arithmetic over concrete rings.

A vector is its Witt ring W_S(A) (family, index set, coefficient ring
and q binding, one interned object) and its coordinates; all arithmetic is exact and runs through the ghost map: over a
torsion-free ring it is injective and invertible whenever the
componentwise divisibilities work out, and over Z/m the same steps run
on integer lifts.
"""

import random

from qwitt import Family, TruncationSet, Z, ZModRing
from qwitt import witt

S = TruncationSet.make([6])
CL = Family.classical()

a = witt.make(CL, S, Z, [1, 2, 3, 4])
b = witt.make(CL, S, Z, [2, 0, 1, 1])
print("a       =", a)
print("b       =", b)
print("a + b   =", witt.add(a, b))
print("a * b   =", witt.mul(a, b))
print("ghost a =", witt.ghost(a))

print("\nghost is a ring map: ghost(a*b) =", witt.ghost(witt.mul(a, b)))
print("componentwise product          =",
      tuple(x * y for x, y in zip(witt.ghost(a), witt.ghost(b))))

print("\nunghost recovers coordinates:",
      witt.unghost(CL, S, Z, witt.ghost(a)).coords)

print("\nFrobenius and Verschiebung:")
print("  F_2(a) =", witt.frobenius(a, 2))
v = witt.make(CL, S.quotient(2), Z, [5, -1])
print("  V_2((5,-1)) =", witt.verschiebung(v, 2, S))
print("  F_2 V_2 = 2id:",
      witt.frobenius(witt.verschiebung(v, 2, S), 2).coords
      == witt.int_scale(2, v).coords)

print("\nTeichmueller lift is multiplicative:")
om2, om3 = witt.teichmuller(CL, S, Z, 2), witt.teichmuller(CL, S, Z, 3)
print("  omega(2) * omega(3) =", witt.mul(om2, om3))

print("\nover a finite ring the exact sequence")
print("  0 -> W_{S/p} -> W_S -> W_{S(p)} -> 0")
print("is verified by full enumeration:",
      witt.exact_sequence_check(TruncationSet.make([2]), 2, ZModRing(3)))

rng = random.Random(0)
zm = ZModRing(6)
ok = all(
    witt.eq(
        witt.mul(x, witt.add(y, z)),
        witt.add(witt.mul(x, y), witt.mul(x, z)),
    )
    for _ in range(200)
    for x, y, z in [[witt.random_vector(CL, S, zm, rng) for _ in range(3)]]
)
print("distributivity over Z/6, 200 random triples:", ok)
