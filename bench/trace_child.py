"""The traced run: the verify-cold pipeline driven stage by stage.

Usage: python3 bench/trace_child.py

Every call into the library sits in a span (id, operation id, name,
parent, start, end) kept in memory.  The seven stages run back to back
under one root span, so their durations sum to the traced total; the last
stage is ``run_suite("all")`` over the caches the earlier stages filled.
Prints one JSON object: the spans, the digest of the verify JSON text and
the report's count of exact sub-checks.
"""

import contextlib
import json
import sys
import time

from workloads import count_subchecks, digest

# The traced total starts here, after the tracer's own imports.
T0 = time.perf_counter()


class Tracer:
    """Nested spans of one operation, recorded in memory."""

    def __init__(self, op_id):
        self.op_id = op_id
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, start=None):
        record = {"id": len(self.spans), "op": self.op_id, "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter() if start is None else start,
                  "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)


def main():
    tr = Tracer("verify-cold-0")
    with tr.span("verify-cold", start=T0):
        with tr.span("stage.import", start=T0):
            with tr.span("import triality.cli", start=T0):
                import triality.cli  # noqa: F401
            from triality import (EUCLIDEAN, LORENTZIAN, apply_outer,
                                  cl7_basis, cl8_basis, cl17_basis, g2_basis,
                                  graded_basis, intersect_pair, outer_h,
                                  outer_t, restrict, same_span,
                                  same_structure_constants, spinor_bases,
                                  su3_embedding, vector_basis)
            from triality.checks import run_suite
        with tr.span("stage.ladders"):
            tr.call("cl7_basis", cl7_basis)
            tr.call("cl8_basis", cl8_basis)
            tr.call("cl17_basis", cl17_basis)
            tr.call("cl17_basis(chiral)", cl17_basis, chiral=True)
        bases = {}
        with tr.span("stage.bases"):
            for sig in (EUCLIDEAN, LORENTZIAN):
                v = tr.call(f"vector_basis{sig}", vector_basis, sig)
                left, right = tr.call(f"spinor_bases{sig}", spinor_bases, sig)
                bases[sig] = (v, left, right)
        with tr.span("stage.span_structure"):
            for sig, (v, left, right) in bases.items():
                for other in (left, right):
                    tr.call(f"same_span{sig}", same_span, v, other)
                for other in (left, right):
                    tr.call(f"same_structure_constants{sig}",
                            same_structure_constants, v, other)
        with tr.span("stage.outer"):
            for sig, op in ((EUCLIDEAN, outer_h()), (LORENTZIAN, outer_t())):
                for b in bases[sig]:
                    tr.call(f"apply_outer{sig}", apply_outer, op, b)
                tr.call(f"graded_basis{sig}", graded_basis, bases[sig][0], op)
        with tr.span("stage.subalgebras"):
            restricted = [tr.call("restrict", restrict, b, 0)
                          for b in bases[EUCLIDEAN]]
            for a, b in ((0, 1), (0, 2), (1, 2)):
                tr.call("intersect_pair", intersect_pair,
                        restricted[a], restricted[b])
            g2 = tr.call("g2_basis", g2_basis)
            tr.call("su3_embedding", su3_embedding, g2)
        with tr.span("stage.run_suite"):
            report = tr.call("run_suite", run_suite, "all")
            text = tr.call("to_json_text", report.to_json_text)
    json.dump({"spans": tr.spans, "verify_digest": digest(text.encode()),
               "subchecks_total": count_subchecks(report)}, sys.stdout)


if __name__ == "__main__":
    main()
