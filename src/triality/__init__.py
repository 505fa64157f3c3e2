"""Exact constructions for the triality of so(8) and spin(1,7).

The package builds the three 8-dimensional representations (vector and
the two chiral spinors) in both signatures over the exact number field
Q(i, sqrt2, sqrt3), realizes the outer automorphism group S3 as explicit
operators on generator quartets, extracts g2 as the intersection of the
three spin(7) subalgebras and as the triality-invariant subspace, and
descends to su(3) in its 1 + 3 + 3bar decomposition.  Every claim is
machine-verified with zero tolerance; see ``triality.checks``.

The names below are loaded lazily: ``triality.g2_basis`` imports
``triality.subalgebras`` on first use, so importing the package (or one
of its modules) loads only what is asked for.
"""

from importlib import import_module

__version__ = "0.1.0"

# each exported name, by the module that defines it
_EXPORTS = {
    "clifford": ("EUCLIDEAN", "LORENTZIAN", "GammaBasis", "Signature",
                 "chiral_transform", "cl7_basis", "cl8_basis", "cl17_basis",
                 "dirac_gammas", "volume_element"),
    "field": ("ExactScalar", "HALF", "I", "MINUS_ONE", "ONE", "OMEGA",
              "OMEGA_BAR", "SQRT2", "SQRT3", "SQRT6", "ZERO", "from_parts",
              "rational", "scalar"),
    "linalg": ("CoordSolver", "StructureConstants", "Subspace", "det",
               "is_closed", "rref", "structure_constants"),
    "matrix": ("Matrix", "anticommutator", "commutator", "kron"),
    "outer": ("GradedBasis", "OuterOp", "apply_outer", "diagonalize",
              "graded_basis", "killing_form", "killing_trace", "outer_conj",
              "outer_h", "outer_k", "outer_op", "outer_t", "quartet_terms",
              "s3_closure", "signature_ops", "unpack"),
    "representations": ("GEN_INDICES", "LieBasis", "M_MATRIX", "P_MATRIX",
                        "basis", "real_span", "same_span",
                        "same_structure_constants", "spinor_bases",
                        "vector_basis"),
    "subalgebras": ("G2Basis", "IntersectionSystem", "Su3Embedding",
                    "g2_basis", "gell_mann", "intersect", "intersect_pair",
                    "lambda_gram", "restrict", "su3_embedding",
                    "su3_transform"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
