"""Three non-conjugate spin(7) subalgebras and their intersection: g2.

Dropping the 0th axis from each of V, L, R leaves three 21-generator
spin(7) subalgebras that no rotation can map to one another (the spinor
pair is related only by the determinant -1 reflection P).  Demanding
membership in all three spans at once solves to a 14-dimensional
subalgebra -- the compact exceptional algebra g2 -- with an orthogonal
basis whose first eight members are a standard su(3).
"""

from triality import (P_MATRIX, basis, g2_basis, intersect, intersect_pair,
                      lambda_gram, restrict, su3_embedding, su3_transform,
                      vector_basis, is_closed, det)

print(__doc__)

v = vector_basis()
rv = restrict(v, 0)
rl = restrict(basis("L"), 0)
rr = restrict(basis("R"), 0)
print(f"each restriction keeps {len(rv.gens)} generators and is closed:",
      is_closed(rv.matrices()) and is_closed(rl.matrices()))
print("restricted L and R related by the reflection P:",
      all(rl[idx] == P_MATRIX @ rr[idx] @ P_MATRIX.T for idx in rl.gens))

system = intersect_pair(rv, rl)
print(f"\nstacked system: {system.unknowns} unknowns, rank {system.rank}, "
      f"intersection dimension {system.subspace.dim}")
print("solved constraints on the spinor coefficients:")
for c in system.b_constraints():
    print("  ", c)
print("   (plus a_ij = b_ij for every pair)")

triple = intersect([rv.matrices(), rl.matrices(), rr.matrices()])
print("triple intersection equals the pairwise one:",
      triple == system.subspace)

g2 = g2_basis()
print("\nLambda_1 (two rotation planes locked together):")
print(g2[1])
print("\nLambda_8 (the sqrt3-weighted family):")
print(g2[8])
gram = lambda_gram(g2)
print("pairwise orthogonal with uniform norm^2 =", gram[0, 0])
print("all 14 inside the intersection:",
      all(system.subspace.contains_matrix(lam) for lam in g2.lambdas))
print("Lambda_1..Lambda_8 close into su(3):", is_closed(g2.su3_part()))
sw = g2.swapped()
print("after renaming 8 <-> 10: [Lambda_k, Lambda_k+7] = 0 for k = 1..7")

emb = su3_embedding(g2)
print(f"\nthe 7x7 unitary (det = {det(su3_transform())}) block-diagonalizes "
      "the su(3) part:")
print("U Lambda_1 U+ =")
print(emb.conjugated[0])
print("\nwhich is -(i/2) diag(0, lambda_1, -lambda_1^T) with the standard")
print("Gell-Mann lambda_1 -- the 1 + 3 + 3bar decomposition.")
