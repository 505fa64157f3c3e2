"""Command-line front-end: run the verification suites and emit objects.

Subcommands: ``verify`` (the check suite), ``emit`` (serialize a
constructed object), ``map`` (apply an outer operator to a basis),
``grade`` (the triality-graded basis), ``s3`` (the closure of the outer
operators), ``g2`` (the Lambda basis or the solved constraints), ``su3``
(check and emit the embedding blocks).

Exit codes: 0 all checks pass, 1 at least one check failed, 2 internal
construction error, 64 usage error.  Output is deterministic: identical
arguments produce byte-identical stdout.

Each verb imports the modules it runs when it runs, so a new interpreter
loads only those (every verb also loads ``emit``, ``field`` and
``matrix``):

- ``verify``: ``checks``, and through it every construction module;
- ``emit``: ``clifford`` for the gamma ladders; ``representations`` (with
  ``linalg``) for ``vector``, ``spinor-left`` and ``spinor-right``;
  ``outer`` (with ``representations``) for ``H``, ``K``, ``T`` and
  ``graded``; ``subalgebras`` (with ``representations``) for
  ``g2-lambda``, ``g2-constraints`` and ``su3-blocks``;
- ``map``, ``grade`` and ``s3``: ``outer`` and ``representations``;
- ``g2`` and ``su3``: ``subalgebras`` and ``representations``.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .emit import Encoder, dumps, matrix_to_latex
from .suites import FAULT_NAMES, SUITES

USAGE_EXIT = 64

EMIT_OBJECTS = ("gammas-cl7", "gammas-cl8", "gammas-cl17", "vector",
                "spinor-left", "spinor-right", "H", "K", "T", "g2-lambda",
                "g2-constraints", "su3-blocks", "graded")

# objects that accept a --signature flag (defaulting to 8,0)
_SIGNED = {"vector", "spinor-left", "spinor-right", "graded"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _parse_signature(text):
    from .clifford import EUCLIDEAN, LORENTZIAN
    if text in ("8,0", "(8,0)"):
        return EUCLIDEAN
    if text in ("1,7", "(1,7)"):
        return LORENTZIAN
    return None


def _numbered(prefix, mats, start=1, suffix=""):
    return [(f"{prefix}_{k}{suffix}", m) for k, m in enumerate(mats, start)]


def _ladder_items(ladder, prefix, start):
    from . import clifford
    return _numbered(prefix, getattr(clifford, ladder)().gammas, start)


def _core_items(name):
    from .outer import outer_op
    return [(name, outer_op(name).core)]


def _basis_items(kind, signature):
    from .representations import basis
    b = basis(kind, signature)
    return [(b.name_of(idx), m) for idx, m in b.items()]


def _lambda_items():
    from .subalgebras import g2_basis
    return _numbered("Lambda", g2_basis().lambdas)


def _su3_blocks(emb):
    return _numbered("U_Lambda", emb.conjugated, suffix="_Udagger")


def _su3_items():
    from .subalgebras import g2_basis, su3_embedding
    return _su3_blocks(su3_embedding(g2_basis()))


def _graded_items(signature):
    from .outer import graded_basis, signature_ops
    from .representations import vector_basis
    g = graded_basis(vector_basis(signature), signature_ops(signature)[0])
    return (_numbered("invariant", g.g2_part)
            + _numbered("right", g.right_part)
            + _numbered("left", g.left_part))


# emit object -> signature -> its (name, matrix) list, in deterministic order
_NAMED_MATRICES = {
    "gammas-cl7": lambda sig: _ladder_items("cl7_basis", "g", 1),
    "gammas-cl8": lambda sig: _ladder_items("cl8_basis", "Gamma", 0),
    "gammas-cl17": lambda sig: _ladder_items("cl17_basis", "Gamma", 0),
    "H": lambda sig: _core_items("H"),
    "K": lambda sig: _core_items("K"),
    "T": lambda sig: _core_items("T"),
    "vector": lambda sig: _basis_items("V", sig),
    "spinor-left": lambda sig: _basis_items("L", sig),
    "spinor-right": lambda sig: _basis_items("R", sig),
    "g2-lambda": lambda sig: _lambda_items(),
    "su3-blocks": lambda sig: _su3_items(),
    "graded": _graded_items,
}


def _emit_constraints(fmt):
    from .representations import basis
    from .subalgebras import intersect_pair, restrict
    system = intersect_pair(restrict(basis("V"), 0), restrict(basis("L"), 0))
    records = [{"dependent": c.dependent,
                "terms": [{"coefficient": str(coeff), "variable": var}
                          for coeff, var in c.terms]}
               for c in system.constraints]
    if fmt == "json":
        return dumps({"object": "g2-constraints",
                      "rank": system.rank,
                      "unknowns": system.unknowns,
                      "dimension": system.subspace.dim,
                      "constraints": records}) + "\n"
    if fmt == "latex":
        lines = [f"{c.dependent} &= {str(c).split(' = ')[1]} \\\\"
                 for c in system.constraints]
        return "\n".join(lines) + "\n"
    return "".join(str(c) + "\n" for c in system.constraints)


def _render(obj, named, fmt, signature):
    if fmt == "json":
        encode = Encoder()
        payload = {
            "object": obj,
            "signature": str(signature) if obj in _SIGNED else None,
            "items": [{"name": name, "matrix": encode.matrix(m)}
                      for name, m in named],
        }
        return dumps(payload) + "\n"
    if fmt == "latex":
        return "".join(f"% {name}\n{matrix_to_latex(m)}\n"
                       for name, m in named)
    return "".join(f"{name} =\n{m}\n\n" for name, m in named)


def cmd_verify(args) -> int:
    from .checks import run_suite, usage_error
    reason = usage_error(args.suite, args.inject_fault)
    if reason:
        print(reason, file=sys.stderr)
        return USAGE_EXIT
    report = run_suite(args.suite, fault=args.inject_fault)
    text = report.to_json_text() if args.format == "json" else report.to_text()
    _write(args.out, text)
    return 1 if report.failed else 0


def cmd_emit(args) -> int:
    from .clifford import EUCLIDEAN
    signature = _parse_signature(args.signature) if args.signature else None
    if args.signature and signature is None:
        print(f"unknown signature {args.signature!r}", file=sys.stderr)
        return USAGE_EXIT
    if args.object not in EMIT_OBJECTS:
        print(f"unknown object {args.object!r}; choose from "
              f"{', '.join(EMIT_OBJECTS)}", file=sys.stderr)
        return USAGE_EXIT
    if args.object in _SIGNED:
        signature = signature or EUCLIDEAN
    elif signature is not None:
        print(f"object {args.object!r} does not take a signature",
              file=sys.stderr)
        return USAGE_EXIT
    if args.object == "g2-constraints":
        text = _emit_constraints(args.format)
    else:
        named = _NAMED_MATRICES[args.object](signature)
        text = _render(args.object, named, args.format, signature)
    _write(args.out, text)
    return 0


class _Unwritable(Exception):
    """An ``--out`` path that cannot be written: a usage error, exit 64."""


def _write(path, text):
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise _Unwritable(f"triality: cannot write {path}: "
                              f"{exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def cmd_map(args) -> int:
    from .outer import apply_outer, outer_op, quartet_terms
    from .representations import basis
    op = outer_op(args.op)
    source = basis(args.source, op.signature)
    mapped = apply_outer(op, source)
    encode = Encoder()
    items = [{"name": mapped.name_of(new),
              "coefficients": [{"generator": source.name_of(old),
                                "coefficient": encode.scalar(c),
                                "conjugated": op.antilinear}
                               for old, c in terms],
              "matrix": encode.matrix(mapped[new])}
             for new, terms in quartet_terms(op.core).items()]
    items.sort(key=lambda x: x["name"])
    payload = {"op": args.op, "from": args.source, "to": mapped.kind,
               "signature": str(op.signature), "items": items}
    _write(args.out, dumps(payload) + "\n")
    return 0


def cmd_grade(args) -> int:
    from .outer import graded_basis, signature_ops
    from .representations import vector_basis
    signature = _parse_signature(args.signature)
    op = signature_ops(signature)[0]
    graded = graded_basis(vector_basis(signature), op)
    encode = Encoder()
    def part(name, gens, eigenvalue):
        return [{"name": f"{name}_{k}", "eigenvalue": eigenvalue,
                 "matrix": encode.matrix(m)}
                for k, m in enumerate(gens, start=1)]
    payload = {
        "signature": str(signature),
        "operator": op.name,
        "provenance": graded.provenance,
        "invariant": part("invariant", graded.g2_part, "1"),
        "right": part("right", graded.right_part, "e^{+i2pi/3}"),
        "left": part("left", graded.left_part, "e^{-i2pi/3}"),
    }
    _write(args.out, dumps(payload) + "\n")
    return 0


def cmd_s3(args) -> int:
    from .outer import s3_closure, signature_ops
    signature = _parse_signature(args.signature)
    ops = signature_ops(signature)
    closure = s3_closure(ops)
    encode = Encoder()
    payload = {
        "signature": str(signature),
        "generators": [op.name for op in ops],
        "element_count": len(closure.elements),
        "element_orders": {str(k): v for k, v in
                           sorted(closure.order_counts.items())},
        "is_s3": closure.is_s3,
        "braid_relation_holds": closure.relation_holds,
        "elements": [{"antilinear": flag, "matrix": encode.matrix(m)}
                     for m, flag in closure.elements],
    }
    _write(args.out, dumps(payload) + "\n")
    return 0


def cmd_g2(args) -> int:
    if args.emit == "lambda":
        named = _NAMED_MATRICES["g2-lambda"](None)
        text = _render("g2-lambda", named, args.format, None)
    else:
        text = _emit_constraints(args.format)
    _write(args.out, text)
    return 0


def cmd_su3(args) -> int:
    from .errors import TrialityError
    from .subalgebras import g2_basis, su3_embedding
    try:
        emb = su3_embedding(g2_basis())
    except TrialityError as exc:
        print(f"su3 embedding check FAILED: {exc}", file=sys.stderr)
        return 1
    encode = Encoder()
    payload = {
        "check": "pass",
        "block_factor": encode.scalar(emb.block_factor),
        "transform": encode.matrix(emb.transform),
        "blocks": [{"name": name, "matrix": encode.matrix(m)}
                   for name, m in _su3_blocks(emb)],
    }
    _write(args.out, dumps(payload) + "\n")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="triality",
                     description="Exact verification and emission of the "
                                 "so(8)/spin(1,7) triality constructions.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the verification suite")
    verify.add_argument("--suite", choices=SUITES, default="all")
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.add_argument("--out", default=None, help="write to a file "
                        "instead of stdout")
    verify.add_argument("--inject-fault", choices=FAULT_NAMES,
                        default=None,
                        help="test-only negative control: corrupt one sign "
                             "in the triality core used by the cycling check")

    emit = sub.add_parser("emit", help="serialize a constructed object")
    emit.add_argument("--object", required=True,
                      help=f"one of: {', '.join(EMIT_OBJECTS)}")
    emit.add_argument("--signature", default=None,
                      help="8,0 (default) or 1,7 for basis objects")
    emit.add_argument("--format", choices=("text", "json", "latex"),
                      default="json")
    emit.add_argument("--out", default=None)

    map_cmd = sub.add_parser(
        "map", help="apply an outer operator to a basis (JSON)")
    map_cmd.add_argument("--op", choices=("H", "K", "T", "conj"),
                         required=True)
    map_cmd.add_argument("--from", dest="source", choices=("V", "L", "R"),
                         required=True)
    map_cmd.add_argument("--out", default=None)

    grade = sub.add_parser(
        "grade", help="the triality-graded basis for a signature (JSON)")
    grade.add_argument("--signature", choices=("8,0", "1,7"), required=True)
    grade.add_argument("--out", default=None)

    s3 = sub.add_parser(
        "s3", help="closure of the outer operators for a signature (JSON)")
    s3.add_argument("--signature", choices=("8,0", "1,7"), required=True)
    s3.add_argument("--out", default=None)

    g2 = sub.add_parser("g2", help="the intersection subalgebra")
    g2.add_argument("--emit", choices=("lambda", "constraints"),
                    default="lambda")
    g2.add_argument("--format", choices=("text", "json", "latex"),
                    default="json")
    g2.add_argument("--out", default=None)

    su3 = sub.add_parser("su3", help="verify and emit the su(3) embedding")
    su3.add_argument("--out", default=None)
    return parser


# built once: parsing reuses it, so a warm caller pays for it at import only
_PARSER = build_parser()
_HANDLERS = {"verify": cmd_verify, "emit": cmd_emit, "map": cmd_map,
             "grade": cmd_grade, "s3": cmd_s3, "g2": cmd_g2, "su3": cmd_su3}


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except _Unwritable as exc:
        print(exc, file=sys.stderr)
        return USAGE_EXIT
    except Exception as exc:  # construction failure, not a check failure
        print(f"internal construction error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
