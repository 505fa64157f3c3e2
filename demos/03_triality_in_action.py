"""Performing the triality: H cycles the three representations.

The 28 generators split into seven quartets; one 4x4 matrix H acts on all
seven at once and maps each basis exactly onto the next one: V -> L -> R
-> V.  The reflection K swaps the spinor bases (up to the change of basis
P), and together H and K close into the symmetric group S3 -- the outer
automorphism group.
"""

from triality import (apply_outer, outer_h, outer_k, s3_closure,
                      vector_basis, spinor_bases, P_MATRIX, GEN_INDICES)
from triality.outer import QUARTETS

print(__doc__)

print("the quartets (column k of the four rows is acted on together):")
for name, row in zip("abcd", QUARTETS):
    print(f"  {name}: " + " ".join(f"{i}{j}" for (i, j) in row))

h = outer_h()
print("\nH (including the factor 1/2):")
print(h.core)

v = vector_basis()
left, right = spinor_bases()

print("\none concrete instance: the new a_1 generator is")
print("  (-V_01 - V_23 + V_45 + V_67)/2, which equals L_01 exactly:")
combo = (v[(0, 1)].scale(h.core[0, 0]) + v[(2, 3)].scale(h.core[0, 1])
         + v[(4, 5)].scale(h.core[0, 2]) + v[(6, 7)].scale(h.core[0, 3]))
print(combo)
assert combo == left[(0, 1)]

step1 = apply_outer(h, v)
step2 = apply_outer(h, step1)
step3 = apply_outer(h, step2)
print("\nH(V) == L generator-by-generator:",
      all(step1[idx] == left[idx] for idx in GEN_INDICES))
print("H^2(V) == R:", all(step2[idx] == right[idx] for idx in GEN_INDICES))
print("H^3(V) == V:", all(step3[idx] == v[idx] for idx in GEN_INDICES))

k = outer_k()
mapped = apply_outer(k, left)
print("\nK flips the a-quartets; after the cleanup P . P^T it maps L to R:")
print("  P K(L) P^T == R:",
      all(P_MATRIX @ mapped[idx] @ P_MATRIX.T == right[idx]
          for idx in GEN_INDICES))

closure = s3_closure([h, k])
print(f"\nclosure of {{H, K}}: {len(closure.elements)} elements, "
      f"element orders {closure.order_counts}")
print("K H K == H^2:", closure.relation_holds)
print("that is the symmetric group S3, permuting {V, L, R}.")
