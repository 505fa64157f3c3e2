"""Command-line front-end: run the verification suites and emit objects.

Subcommands: ``verify`` (the check suite), ``emit`` (serialize a
constructed object), ``map`` (apply an outer operator to a basis),
``grade`` (the triality-graded basis), ``s3`` (the closure of the outer
operators), ``g2`` (the Lambda basis or the solved constraints), ``su3``
(check and emit the embedding blocks).

Every request takes one path: argparse validates the arguments, ``main``
refuses an ``--out`` it cannot write, the verb's handler returns its text
and exit code, and ``main`` writes the text to ``--out`` or stdout.  A
verb's arguments are parsed once, by that verb's own parser; the top-level
parser reads an argv that does not start with a verb (see ``_parse``).  Exit
codes: 0 all checks pass, 1 at least one check failed, 2 internal
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

Exit hook: a cold request's time splits into interpreter start, import,
``main`` and exit; on a 2-core host (min of 11, ``src`` compiled from source)
``verify --suite all --format json`` reads 32 + 20 + 104 + 10.1 ms and
``map --op T --from L`` 31 + 19 + 17 + 8.6 ms.  Exit is mostly the final
garbage collections, which walk every live object only to free it with the
process.  Importing this module registers ``gc.freeze`` with ``atexit``, so
those collections skip the heap: exit reads 3.2 and 2.5 ms.  In any process
that imports ``triality.cli``, an object in a reference cycle still alive
at exit is not finalized; ``main`` closes its ``--out`` file itself.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import sys
from gettext import gettext

from . import __version__
from .emit import _latex, _text, dumps_line
from .suites import FAULT_NAMES, SUITES

USAGE_EXIT = 64

# the exit hook of the module docstring
atexit.register(gc.freeze)

_SIGNATURES = ("8,0", "1,7")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


class _Usage(Exception):
    """A usage error: ``main`` prints it to stderr and exits 64."""


def _signature(text):
    from .clifford import EUCLIDEAN, LORENTZIAN
    return dict(zip(_SIGNATURES, (EUCLIDEAN, LORENTZIAN)))[text]


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


# emit object -> (whether it takes --signature, the builder of its
# (name, matrix) list from the signature, in deterministic order);
# g2-constraints has no builder, as its output is not a list of matrices
_OBJECTS = {
    "gammas-cl7": (False, lambda _: _ladder_items("cl7_basis", "g", 1)),
    "gammas-cl8": (False, lambda _: _ladder_items("cl8_basis", "Gamma", 0)),
    "gammas-cl17": (False, lambda _: _ladder_items("cl17_basis", "Gamma", 0)),
    "vector": (True, lambda sig: _basis_items("V", sig)),
    "spinor-left": (True, lambda sig: _basis_items("L", sig)),
    "spinor-right": (True, lambda sig: _basis_items("R", sig)),
    "H": (False, lambda _: _core_items("H")),
    "K": (False, lambda _: _core_items("K")),
    "T": (False, lambda _: _core_items("T")),
    "g2-lambda": (False, lambda _: _lambda_items()),
    "g2-constraints": (False, None),
    "su3-blocks": (False, lambda _: _su3_items()),
    "graded": (True, _graded_items),
}
EMIT_OBJECTS = tuple(_OBJECTS)


def _emit_constraints(fmt):
    from .representations import basis
    from .subalgebras import intersect_pair, restrict
    system = intersect_pair(restrict(basis("V"), 0), restrict(basis("L"), 0))
    records = [{"dependent": c.dependent,
                "terms": [{"coefficient": str(coeff), "variable": var}
                          for coeff, var in c.terms]}
               for c in system.constraints]
    if fmt == "json":
        return dumps_line({"object": "g2-constraints",
                           "rank": system.rank,
                           "unknowns": system.unknowns,
                           "dimension": system.subspace.dim,
                           "constraints": records})
    if fmt == "latex":
        lines = [f"{c.dependent} &= {c.right_side} \\\\"
                 for c in system.constraints]
        return "\n".join(lines) + "\n"
    return "".join(str(c) + "\n" for c in system.constraints)


def _render(obj, named, fmt, signature):
    if fmt == "json":
        payload = {
            "object": obj,
            "signature": None if signature is None else str(signature),
            "items": [{"name": name, "matrix": m} for name, m in named],
        }
        return dumps_line(payload)
    write, head, tail = ((_latex, "% {}\n", "\n") if fmt == "latex"
                         else (_text, "{} =\n", "\n\n"))
    out, texts = [], {}  # the payload's one memo of texts
    for name, m in named:
        out.append(head.format(name))
        write(m, out.append, texts)
        out.append(tail)
    return "".join(out)


def _emitted(obj, signature, fmt):
    """One emit object's text, given its ``--signature`` text or None."""
    signed, build = _OBJECTS[obj]
    if signature is not None and not signed:
        raise _Usage(f"object {obj!r} does not take a signature")
    if build is None:
        return _emit_constraints(fmt)
    sig = _signature(signature or "8,0") if signed else None
    return _render(obj, build(sig), fmt, sig)


def cmd_verify(args):
    from .checks import run_suite, usage_error
    reason = usage_error(args.suite, args.inject_fault)
    if reason:
        raise _Usage(reason)
    report = run_suite(args.suite, fault=args.inject_fault)
    text = report.to_json_text() if args.format == "json" else report.to_text()
    return text, 1 if report.failed else 0


def cmd_emit(args):
    return _emitted(args.object, args.signature, args.format), 0


def _unwritable(path, exc):
    return _Usage(f"triality: cannot write {path}: {exc.strerror or exc}")


def _write(path, text):
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise _unwritable(path, exc) from exc


def _check_writable(path):
    """Raise ``_Usage`` when ``open(path, "w")`` is bound to fail: the path
    is empty, the parent is missing or not a directory, the path is a
    directory, or writing is not permitted.  Nothing is opened, so an
    existing file keeps its bytes until ``_write`` has the text."""
    import errno
    import os
    parent = os.path.dirname(path) or "."
    try:
        if not path:
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT))
        # the trailing separator makes a parent that is a file fail too
        os.stat(os.path.join(parent, ""))
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        target = path if os.path.exists(path) else parent
        if not os.access(target, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
    except OSError as exc:
        raise _unwritable(path, exc) from exc


def cmd_map(args):
    from .outer import apply_outer, outer_op, quartet_terms
    from .representations import basis
    op = outer_op(args.op)
    source = basis(args.source, op.signature)
    mapped = apply_outer(op, source)
    items = [{"name": mapped.name_of(new),
              "coefficients": [{"generator": source.name_of(old),
                                "coefficient": c,
                                "conjugated": op.antilinear}
                               for old, c in terms],
              "matrix": mapped[new]}
             for new, terms in quartet_terms(op.core).items()]
    items.sort(key=lambda x: x["name"])
    payload = {"op": args.op, "from": args.source, "to": mapped.kind,
               "signature": str(op.signature), "items": items}
    return dumps_line(payload), 0


def cmd_grade(args):
    from .outer import graded_basis, signature_ops
    from .representations import vector_basis
    signature = _signature(args.signature)
    op = signature_ops(signature)[0]
    graded = graded_basis(vector_basis(signature), op)
    def part(name, gens, eigenvalue):
        return [{"name": f"{name}_{k}", "eigenvalue": eigenvalue, "matrix": m}
                for k, m in enumerate(gens, start=1)]
    payload = {
        "signature": str(signature),
        "operator": op.name,
        "provenance": graded.provenance,
        "invariant": part("invariant", graded.g2_part, "1"),
        "right": part("right", graded.right_part, "e^{+i2pi/3}"),
        "left": part("left", graded.left_part, "e^{-i2pi/3}"),
    }
    return dumps_line(payload), 0


def cmd_s3(args):
    from .outer import s3_closure, signature_ops
    signature = _signature(args.signature)
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
        "elements": [{"antilinear": flag, "matrix": m}
                     for m, flag in closure.elements],
    }
    return dumps_line(payload), 0


def cmd_g2(args):
    return _emitted(f"g2-{args.emit}", None, args.format), 0


def cmd_su3(args):
    from .errors import TrialityError
    from .subalgebras import g2_basis, su3_embedding
    try:
        emb = su3_embedding(g2_basis())
    except TrialityError as exc:
        print(f"su3 embedding check FAILED: {exc}", file=sys.stderr)
        return None, 1
    payload = {
        "check": "pass",
        "block_factor": emb.block_factor,
        "transform": emb.transform,
        "blocks": [{"name": name, "matrix": m} for name, m in _su3_blocks(emb)],
    }
    return dumps_line(payload), 0


def build_parser():
    """The top-level parser and its subparsers action's map of verb name
    to verb parser: the same parser objects, so each verb has one."""
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
    emit.add_argument("--object", required=True, choices=EMIT_OBJECTS,
                      metavar="OBJECT",
                      help=f"one of: {', '.join(EMIT_OBJECTS)}")
    emit.add_argument("--signature", default=None, choices=_SIGNATURES,
                      metavar="SIGNATURE",
                      help="8,0 (default) or 1,7 for basis objects")
    emit.add_argument("--format", choices=("text", "json", "latex"),
                      default="json")

    map_cmd = sub.add_parser(
        "map", help="apply an outer operator to a basis (JSON)")
    map_cmd.add_argument("--op", choices=("H", "K", "T", "conj"),
                         required=True)
    map_cmd.add_argument("--from", dest="source", choices=("V", "L", "R"),
                         required=True)

    grade = sub.add_parser(
        "grade", help="the triality-graded basis for a signature (JSON)")
    grade.add_argument("--signature", choices=_SIGNATURES, required=True)

    s3 = sub.add_parser(
        "s3", help="closure of the outer operators for a signature (JSON)")
    s3.add_argument("--signature", choices=_SIGNATURES, required=True)

    g2 = sub.add_parser("g2", help="the intersection subalgebra")
    g2.add_argument("--emit", choices=("lambda", "constraints"),
                    default="lambda")
    g2.add_argument("--format", choices=("text", "json", "latex"),
                    default="json")

    sub.add_parser("su3", help="verify and emit the su(3) embedding")
    # the other verbs take --out last; main checks and writes it for all
    for verb in ("emit", "map", "grade", "s3", "g2", "su3"):
        sub.choices[verb].add_argument("--out", default=None)
    return parser, sub.choices


# built once: parsing reuses it, so a warm caller pays for it at import only
_PARSER, _VERBS = build_parser()
_HANDLERS = {"verify": cmd_verify, "emit": cmd_emit, "map": cmd_map,
             "grade": cmd_grade, "s3": cmd_s3, "g2": cmd_g2, "su3": cmd_su3}


def _parse(argv):
    """``_PARSER.parse_args(argv)``, reading a verb's arguments once.

    The top-level parser reads every token of a verb's argv only to hand
    all but the verb to the verb's parser, so this hands them over itself
    and reports leftover tokens in the top-level parser's words.  An argv
    that does not start with a verb goes through ``_PARSER``, and so does
    one with a token that starts with ``--=``: the top-level parser reads
    that as an ambiguous abbreviation of its own ``--help`` and
    ``--version`` and refuses it before the verb sees it."""
    if argv is None:
        argv = sys.argv[1:]
    verb = _VERBS.get(argv[0]) if argv else None
    if verb is None or any(token.startswith("--=") for token in argv):
        return _PARSER.parse_args(argv)
    args, extras = verb.parse_known_args(argv[1:])
    if extras:
        _PARSER.error(gettext("unrecognized arguments: %s") % " ".join(extras))
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    """Run one request, ``argv`` or else ``sys.argv[1:]``, and return its
    exit code.  A verb's arguments are parsed once, by its own parser.
    argparse ends a usage error with ``SystemExit(64)``, and ``--help``
    and ``--version`` with ``SystemExit(0)``."""
    args = _parse(argv)
    try:
        if args.out is not None:
            _check_writable(args.out)
        text, code = _HANDLERS[args.command](args)
        if text is not None:
            _write(args.out, text)
        return code
    except _Usage as exc:
        print(exc, file=sys.stderr)
        return USAGE_EXIT
    except Exception as exc:  # construction failure, not a check failure
        print(f"internal construction error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
