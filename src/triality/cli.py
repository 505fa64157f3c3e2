"""Command-line front-end: run the verification suites and emit objects.

Subcommands: ``verify`` (the check suite), ``emit`` (serialize a
constructed object), ``map`` (apply an outer operator to a basis),
``grade`` (the triality-graded basis), ``s3`` (the closure of the outer
operators), ``g2`` (the Lambda basis or the solved constraints), ``su3``
(check and emit the embedding blocks).

Exit codes: 0 all checks pass, 1 at least one check failed, 2 internal
construction error, 64 usage error.  Output is deterministic: identical
arguments produce byte-identical stdout.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .checks import FAULT_H_SIGN, run_suite
from .clifford import (EUCLIDEAN, LORENTZIAN, cl7_basis, cl8_basis,
                       cl17_basis)
from .emit import matrix_to_json, matrix_to_latex, scalar_to_json
from .errors import TrialityError
from .outer import (apply_outer, graded_basis, outer_op, quartet_terms,
                    s3_closure, signature_ops)
from .representations import basis, vector_basis
from .subalgebras import g2_basis, intersect_pair, restrict, su3_embedding

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
    if text in ("8,0", "(8,0)"):
        return EUCLIDEAN
    if text in ("1,7", "(1,7)"):
        return LORENTZIAN
    return None


def _numbered(prefix, mats, start=1, suffix=""):
    return [(f"{prefix}_{k}{suffix}", m) for k, m in enumerate(mats, start)]


def _basis_items(kind, signature):
    b = basis(kind, signature)
    return [(b.name_of(idx), m) for idx, m in b.items()]


def _su3_blocks(emb):
    return _numbered("U_Lambda", emb.conjugated, suffix="_Udagger")


def _graded_items(signature):
    g = graded_basis(vector_basis(signature), signature_ops(signature)[0])
    return (_numbered("invariant", g.g2_part)
            + _numbered("right", g.right_part)
            + _numbered("left", g.left_part))


# emit object -> signature -> its (name, matrix) list, in deterministic order
_NAMED_MATRICES = {
    "gammas-cl7": lambda sig: _numbered("g", cl7_basis().gammas),
    "gammas-cl8": lambda sig: _numbered("Gamma", cl8_basis().gammas, 0),
    "gammas-cl17": lambda sig: _numbered("Gamma", cl17_basis().gammas, 0),
    "H": lambda sig: [("H", outer_op("H").core)],
    "K": lambda sig: [("K", outer_op("K").core)],
    "T": lambda sig: [("T", outer_op("T").core)],
    "vector": lambda sig: _basis_items("V", sig),
    "spinor-left": lambda sig: _basis_items("L", sig),
    "spinor-right": lambda sig: _basis_items("R", sig),
    "g2-lambda": lambda sig: _numbered("Lambda", g2_basis().lambdas),
    "su3-blocks": lambda sig: _su3_blocks(su3_embedding(g2_basis())),
    "graded": _graded_items,
}


def _emit_constraints(fmt):
    system = intersect_pair(restrict(basis("V"), 0), restrict(basis("L"), 0))
    records = [{"dependent": c.dependent,
                "terms": [{"coefficient": str(coeff), "variable": var}
                          for coeff, var in c.terms]}
               for c in system.constraints]
    if fmt == "json":
        return json.dumps({"object": "g2-constraints",
                           "rank": system.rank,
                           "unknowns": system.unknowns,
                           "dimension": system.subspace.dim,
                           "constraints": records},
                          indent=2, sort_keys=True) + "\n"
    if fmt == "latex":
        lines = [f"{c.dependent} &= {str(c).split(' = ')[1]} \\\\"
                 for c in system.constraints]
        return "\n".join(lines) + "\n"
    return "".join(str(c) + "\n" for c in system.constraints)


def _render(obj, named, fmt, signature):
    if fmt == "json":
        payload = {
            "object": obj,
            "signature": str(signature) if obj in _SIGNED else None,
            "items": [{"name": name, "matrix": matrix_to_json(m)}
                      for name, m in named],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if fmt == "latex":
        return "".join(f"% {name}\n{matrix_to_latex(m)}\n"
                       for name, m in named)
    return "".join(f"{name} =\n{m}\n\n" for name, m in named)


def cmd_verify(args) -> int:
    report = run_suite(args.suite, fault=args.inject_fault)
    text = report.to_json_text() if args.format == "json" else report.to_text()
    _write(args.out, text)
    return 1 if report.failed else 0


def cmd_emit(args) -> int:
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


def _write(path, text):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_map(args) -> int:
    op = outer_op(args.op)
    source = basis(args.source, op.signature)
    mapped = apply_outer(op, source)
    items = [{"name": mapped.name_of(new),
              "coefficients": [{"generator": source.name_of(old),
                                "coefficient": scalar_to_json(c),
                                "conjugated": op.antilinear}
                               for old, c in terms],
              "matrix": matrix_to_json(mapped[new])}
             for new, terms in quartet_terms(op.core).items()]
    items.sort(key=lambda x: x["name"])
    payload = {"op": args.op, "from": args.source, "to": mapped.kind,
               "signature": str(op.signature), "items": items}
    _write(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_grade(args) -> int:
    signature = _parse_signature(args.signature)
    op = signature_ops(signature)[0]
    graded = graded_basis(vector_basis(signature), op)
    def part(name, gens, eigenvalue):
        return [{"name": f"{name}_{k}", "eigenvalue": eigenvalue,
                 "matrix": matrix_to_json(m)}
                for k, m in enumerate(gens, start=1)]
    payload = {
        "signature": str(signature),
        "operator": op.name,
        "provenance": graded.provenance,
        "invariant": part("invariant", graded.g2_part, "1"),
        "right": part("right", graded.right_part, "e^{+i2pi/3}"),
        "left": part("left", graded.left_part, "e^{-i2pi/3}"),
    }
    _write(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_s3(args) -> int:
    signature = _parse_signature(args.signature)
    ops = signature_ops(signature)
    closure = s3_closure(ops)
    payload = {
        "signature": str(signature),
        "generators": [op.name for op in ops],
        "element_count": len(closure.elements),
        "element_orders": {str(k): v for k, v in
                           sorted(closure.order_counts.items())},
        "is_s3": closure.is_s3,
        "braid_relation_holds": closure.relation_holds,
        "elements": [{"antilinear": flag, "matrix": matrix_to_json(m)}
                     for m, flag in closure.elements],
    }
    _write(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
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
    try:
        emb = su3_embedding(g2_basis())
    except TrialityError as exc:
        print(f"su3 embedding check FAILED: {exc}", file=sys.stderr)
        return 1
    payload = {
        "check": "pass",
        "block_factor": scalar_to_json(emb.block_factor),
        "transform": matrix_to_json(emb.transform),
        "blocks": [{"name": name, "matrix": matrix_to_json(m)}
                   for name, m in _su3_blocks(emb)],
    }
    _write(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="triality",
                     description="Exact verification and emission of the "
                                 "so(8)/spin(1,7) triality constructions.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the verification suite")
    verify.add_argument("--suite", choices=("euclidean", "lorentzian", "all"),
                        default="all")
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.add_argument("--out", default=None, help="write to a file "
                        "instead of stdout")
    verify.add_argument("--inject-fault", choices=(FAULT_H_SIGN,),
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"verify": cmd_verify, "emit": cmd_emit, "map": cmd_map,
                "grade": cmd_grade, "s3": cmd_s3, "g2": cmd_g2,
                "su3": cmd_su3}
    try:
        return handlers[args.command](args)
    except Exception as exc:  # construction failure, not a check failure
        print(f"internal construction error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
