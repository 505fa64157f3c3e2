"""Exact constructions for the triality of so(8) and spin(1,7).

The package builds the three 8-dimensional representations (vector and
the two chiral spinors) in both signatures over the exact number field
Q(i, sqrt2, sqrt3), realizes the outer automorphism group S3 as explicit
operators on generator quartets, extracts g2 as the intersection of the
three spin(7) subalgebras and as the triality-invariant subspace, and
descends to su(3) in its 1 + 3 + 3bar decomposition.  Every claim is
machine-verified with zero tolerance; see ``triality.checks``.
"""

__version__ = "0.1.0"

from .clifford import (EUCLIDEAN, LORENTZIAN, GammaBasis, Signature,
                       chiral_transform, cl7_basis, cl8_basis, cl17_basis,
                       dirac_gammas, volume_element)
from .field import (ExactScalar, HALF, I, MINUS_ONE, ONE, OMEGA, OMEGA_BAR,
                    SQRT2, SQRT3, SQRT6, ZERO, from_parts, rational, scalar)
from .linalg import (CoordSolver, StructureConstants, Subspace, det,
                     is_closed, kernel_basis, rref, rref_kernel,
                     structure_constants)
from .matrix import Matrix, anticommutator, commutator, kron
from .outer import (GradedBasis, OuterOp, apply_outer, diagonalize,
                    graded_basis, killing_form, killing_trace, outer_conj,
                    outer_h, outer_k, outer_op, outer_t, quartet_terms,
                    s3_closure, signature_ops, unpack)
from .representations import (GEN_INDICES, LieBasis, M_MATRIX, P_MATRIX,
                              basis, real_span, same_span,
                              same_structure_constants, spinor_bases,
                              vector_basis)
from .subalgebras import (G2Basis, IntersectionSystem, Su3Embedding,
                          frobenius_pairing, g2_basis, gell_mann, intersect,
                          intersect_pair, lambda_gram, restrict,
                          su3_embedding, su3_transform)
