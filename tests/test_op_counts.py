"""The op counts of the verify pipeline, committed as one exact table.

Six counters run in process: built scalars (``ExactScalar._of`` and the
validated constructor), ``Matrix.__matmul__``, brackets
(``matrix._bracket``: commutators and anticommutators), ``linalg.rref``,
``CoordSolver.solve`` and calls of the row kernel ``matrix.add_scaled``.  A cold ``run_suite`` gets one row per
(check, signature) part in run order, labelled by
``test_checks_runner.label_parts`` (check 16's faulted control part is
the ``h-sign`` row and its second clean one the ``re-run`` row), then
``runner`` (checks 16 and 17) and ``total``.
Two more tables count single layer calls and one cold CLI request of
each read-only kind.  Entries are exact, not bounds, so that a count that falls cannot leave
room for a later rise; the README says how to update them.
"""

import contextlib
import io

import pytest

from test_caches import _lru_cached
from test_checks_runner import label_parts
from triality import cli, linalg, matrix, subalgebras
from triality.checks import FAULT_H_SIGN, run_suite
from triality.clifford import EUCLIDEAN
from triality.field import HALF, I, MINUS_ONE, SQRT2, SQRT6, ExactScalar
from triality.linalg import CoordSolver, is_closed
from triality.matrix import Matrix, add_scaled, commutator
from triality.outer import graded_basis, signature_ops
from triality.representations import (same_structure_constants, spinor_bases,
                                      structure_mismatches, vector_basis)
from triality.subalgebras import g2_basis, intersect_pair, lambda_gram, restrict

_COLUMNS = ("scalars", "@", "brackets", "rref", "solves", "kernel")


class _Recorder:
    """The six counters, and one row of their deltas per recorded call."""

    def __init__(self, monkeypatch):
        self.counts = [0] * len(_COLUMNS)
        self.rows = []
        patch, counting = monkeypatch.setattr, self._counting
        patch(ExactScalar, "__init__", counting(0, ExactScalar.__init__))
        patch(ExactScalar, "_of", staticmethod(counting(0, ExactScalar._of)))
        patch(Matrix, "__matmul__", counting(1, Matrix.__matmul__))
        patch(matrix, "_bracket", counting(2, matrix._bracket))
        patch(linalg, "rref", counting(3, linalg.rref))
        patch(CoordSolver, "solve", counting(4, CoordSolver.solve))
        patch(matrix, "add_scaled", counting(5, matrix.add_scaled))

    def _counting(self, column, real):
        def call(*args):
            self.counts[column] += 1
            return real(*args)
        return call

    def row(self, label, call, *args):
        """``call(*args)``, with its counts recorded under ``label``."""
        before = tuple(self.counts)
        result = call(*args)
        self.rows.append(
            (label, tuple(n - b for n, b in zip(self.counts, before))))
        return result

    def table(self):
        """The rows in the literal's own text."""
        lines = [f"{'':<16}" + "".join(f"{c:>9}" for c in _COLUMNS)]
        lines += [f"{label:<16}" + "".join(f"{n:>9,}" for n in counts)
                  for label, counts in self.rows]
        return "\n".join(lines)


def _cold_suite(monkeypatch, suite, fault):
    """The table of one cold ``run_suite``, one row per part as
    ``label_parts`` labels it."""
    rec = _Recorder(monkeypatch)
    label_parts(monkeypatch, rec.row)
    report = rec.row("total", run_suite, suite, fault)
    assert report.failed == (fault is not None)
    *parts, (_, total) = rec.rows
    rec.rows.insert(-1, ("runner", tuple(n - sum(c[k] for _, c in parts)
                                         for k, n in enumerate(total))))
    return rec.table()


OP_COUNTS = {
    "all": """
                  scalars        @ brackets     rref   solves   kernel
01 (8,0)            1,159        7       36        0        0    1,180
01 (1,7)            2,634       16       72        0        0    2,816
02 (8,0)              320       10        8        0        0      400
02 (1,7)              392        8        8        0        0      384
03 (8,0)            1,825       84        0        6        0    1,092
04 (8,0)            4,581        0      504        0      168    5,888
04 (1,7)            6,899      140      504        0      168    7,232
05 (8,0)            2,328        2        0        0        0      560
05 (1,7)            2,324        2        0        0        0      560
06 (8,0)              638      112        0        0        0      574
06 (1,7)               84        0        0        0        0        0
07 (8,0)              688       22        0        0        0      280
07 (1,7)              720       22        0        0        0      280
08 (8,0)              212        6        0        0        0       81
08 (1,7)              344        8        0        0        0      116
09 (8,0)            2,671        0        0       13        0      616
10 (8,0)            1,160        0       71        0       64      657
11 (8,0)              463       29        0        0        0      284
12 (8,0)            5,016        7      145        3       54    2,521
12 (1,7)            5,004        7      145        3       54    2,521
13 (8,0)            1,606        0        0        0        0        0
13 (1,7)            1,597        0        0        0        0        0
14 (8,0)              392       56        0        0        0      364
14 (1,7)              364       56        0        0        0      364
15 (1,7)              168        0        0        0        0        0
05 (8,0) h-sign     2,079        2        0        0        0      560
05 (8,0) re-run     2,328        2        0        0        0      560
runner                  0        0        0        0        0        0
total              47,996      598    1,493       25      508   29,890
""",
    "euclidean": """
                  scalars        @ brackets     rref   solves   kernel
01 (8,0)            1,159        7       36        0        0    1,180
02 (8,0)              320       10        8        0        0      400
03 (8,0)            1,825       84        0        6        0    1,092
04 (8,0)            4,581        0      504        0      168    5,888
05 (8,0)            2,328        2        0        0        0      560
06 (8,0)              638      112        0        0        0      574
07 (8,0)              688       22        0        0        0      280
08 (8,0)              212        6        0        0        0       81
09 (8,0)            2,671        0        0       13        0      616
10 (8,0)            1,160        0       71        0       64      657
11 (8,0)              463       29        0        0        0      284
12 (8,0)            5,016        7      145        3       54    2,521
13 (8,0)            1,606        0        0        0        0        0
14 (8,0)              392       56        0        0        0      364
05 (8,0) h-sign     2,079        2        0        0        0      560
05 (8,0) re-run     2,328        2        0        0        0      560
runner                  0        0        0        0        0        0
total              27,466      339      764       22      286   15,617
""",
    "lorentzian": """
                  scalars        @ brackets     rref   solves   kernel
01 (1,7)            2,770       23       72        0        0    2,844
02 (1,7)              392        8        8        0        0      384
04 (1,7)            6,899      140      504        0      168    7,232
05 (1,7)            2,324        2        0        0        0      560
06 (1,7)               84        0        0        0        0        0
07 (1,7)              720       22        0        0        0      280
08 (1,7)              344        8        0        0        0      116
12 (1,7)            5,004        7      145        3       54    2,521
13 (1,7)            1,597        0        0        0        0        0
14 (1,7)              364       56        0        0        0      364
15 (1,7)              168        0        0        0        0        0
05 (8,0)            3,884       86        0        0        0    1,456
05 (8,0) h-sign     2,079        2        0        0        0      560
05 (8,0) re-run     2,328        2        0        0        0      560
runner                  0        0        0        0        0        0
total              28,957      356      729        3      222   16,877
""",
}


@pytest.mark.parametrize("suite, fault", [
    ("all", None), ("all", FAULT_H_SIGN), ("euclidean", None),
    ("lorentzian", None)])
def test_a_cold_suite_makes_exactly_its_op_counts(monkeypatch, cold_caches,
                                                  suite, fault):
    measured = _cold_suite(monkeypatch, suite, fault)
    assert measured == OP_COUNTS[suite].strip("\n"), f"measured:\n{measured}"


LAYER_COUNTS = """
                  scalars        @ brackets     rref   solves   kernel
L(8,0) brackets     4,368        0      378        0        0    6,048
L(8,0) solves       1,092        0        0        0      378      378
intersect_pair        569        0        0        2        0      112
intersection          182        0        0        2        0       56
V/L (8,0)           2,432        0      336        0      168    3,102
V/L/R (8,0)         4,581        0      504        0      168    5,888
lambda_gram           200        0        0        0        0        0
g2_basis              728        0       46        0       46      430
is_closed su3         190        0       18        0       18      150
is_closed R+L         354        0        8        0        8      148
"""


def test_the_layers_make_exactly_their_op_counts(monkeypatch, cold_caches):
    """L(8,0)'s 378 brackets, computed and solved, the axis-0
    restrictions of V and L met both ways, and the structure-constant
    comparison of V with L (``same_structure_constants``) and of V, L and
    R (check 04's call), the Gram matrix of the 14 Lambdas that checks
    10 and 17 read, and the closure proofs of checks 10 and 12, each
    counted on its own: a cold ``g2_basis``, the su(3) part, and the
    handed part of the grading, which stops at its first bracket that
    leaves the span.  A certificate that picks more seeds shows here."""
    left, right = spinor_bases(EUCLIDEAN)
    v = vector_basis(EUCLIDEAN)
    gens = left.matrices()
    solver = CoordSolver(gens)
    rv, rl = restrict(v, 0), restrict(left, 0)
    span_v, span_l = rv.span(), rl.span()
    g2 = g2_basis()
    graded = graded_basis(v, signature_ops(EUCLIDEAN)[0])
    handed = graded.right_part + graded.left_part
    rec = _Recorder(monkeypatch)
    brackets = rec.row("L(8,0) brackets", lambda: [
        commutator(x, y) for k, x in enumerate(gens) for y in gens[k + 1:]])
    solved = rec.row("L(8,0) solves",
                     lambda: [solver.solve(x) for x in brackets])
    system = rec.row("intersect_pair", intersect_pair, rv, rl)
    meet = rec.row("intersection", span_v.intersection, span_l)
    report = rec.row("V/L (8,0)", same_structure_constants, v, left)
    mismatches = rec.row("V/L/R (8,0)", structure_mismatches, (v, left, right))
    gram = rec.row("lambda_gram", lambda_gram, g2)
    cold = rec.row("g2_basis", g2_basis.__wrapped__)
    su3 = rec.row("is_closed su3", is_closed, g2.su3_part())
    closed = rec.row("is_closed R+L", is_closed, handed)
    assert cold.lambdas == g2.lambdas and su3 and not closed
    assert report.equal and mismatches == (None, None)
    assert len(solved) == 378 and None not in solved
    assert meet == system.subspace and meet.dim == 14
    assert gram == Matrix.identity(14).scale(HALF)
    measured = rec.table()
    assert measured == LAYER_COUNTS.strip("\n"), f"measured:\n{measured}"


def test_the_row_kernel_builds_through_the_recorded_constructor(monkeypatch):
    """The fused kernel looks ``ExactScalar._of`` up at call time, so the
    recorder sees each scalar it builds: one per entry of a one-term row,
    and none for an update that cancels every entry."""
    row = dict(enumerate([HALF, I, MINUS_ONE, SQRT2, SQRT6 * I, -SQRT2 * HALF]))
    rec = _Recorder(monkeypatch)
    v = rec.row("add", add_scaled, {}, HALF, row)
    rec.row("cancel", add_scaled, v, HALF, row, -1)
    assert v == {}
    assert [counts for _, counts in rec.rows] == [(len(row), 0, 0, 0, 0, 0),
                                                  (0, 0, 0, 0, 0, 0)]


def test_the_row_kernel_never_runs_on_an_empty_row(monkeypatch, cold_caches):
    """``@``, the brackets, ``combination``, ``is_combination`` and
    ``linalg._ad`` skip a row or entry vector with no entries, so no call
    of the row kernel in a cold run is pure overhead."""
    empty = []
    real = matrix.add_scaled

    def scaled(v, c, w, sign=1):
        if not w:
            empty.append(c)
        return real(v, c, w, sign)

    monkeypatch.setattr(matrix, "add_scaled", scaled)
    assert not run_suite("all").failed
    assert not empty, f"{len(empty)} kernel calls on an empty row"


def test_every_row_update_enters_the_one_kernel_patch_point(monkeypatch,
                                                            cold_caches):
    """A cold ``run_suite("all")`` makes exactly 29,890 row-kernel calls,
    counted by wrapping the module attribute ``matrix.add_scaled``.  A caller
    that binds the kernel by name at import escapes the wrapper and reads
    lower; a restructure that adds kernel calls reads higher."""
    calls = []
    real = matrix.add_scaled

    def counted(v, c, w, sign=1):
        calls.append(sign)
        return real(v, c, w, sign)

    monkeypatch.setattr(matrix, "add_scaled", counted)
    assert not run_suite("all").failed
    assert len(calls) == 29_890


def test_one_run_builds_the_lambda_gram_once(monkeypatch, cold_caches):
    """Checks 10 and 17 read one Gram matrix per run, from the Euclidean
    fixtures, which call ``lambda_gram`` through its module."""
    calls = []
    real = subalgebras.lambda_gram
    monkeypatch.setattr(subalgebras, "lambda_gram",
                        lambda g2: calls.append(g2) or real(g2))
    assert not run_suite("all").failed
    assert len(calls) == 1


CLI_REQUESTS = {
    "emit L 1,7": ["emit", "--object", "spinor-left", "--signature", "1,7"],
    "map T L": ["map", "--op", "T", "--from", "L"],
    "map K L": ["map", "--op", "K", "--from", "L"],
    "map conj R": ["map", "--op", "conj", "--from", "R"],
    "grade 1,7": ["grade", "--signature", "1,7"],
    "s3 8,0": ["s3", "--signature", "8,0"],
    "g2 constraints": ["g2", "--emit", "constraints"],
    "su3": ["su3"],
}

CLI_COUNTS = """
                  scalars        @ brackets     rref   solves   kernel
emit L 1,7          3,227      163        0        0        0    1,884
map T L             4,011      163        0        0        0    1,996
map K L             1,748       91        0        0        0      931
map conj R          3,311      163        0        0        0    1,884
grade 1,7             312        3        0        0        0      133
s3 8,0                688       22        0        0        0      280
g2 constraints      2,261       91        0        2        0    1,036
su3                 1,132       28       46        0       46      698
"""


def test_each_cli_verb_kind_makes_exactly_its_op_counts(monkeypatch, cold_caches):
    """One row per kind of read-only request, each from cold caches, so
    the library-warm and cli-cold workloads are watched through counts
    and not only through wall time."""
    caches = list(_lru_cached().values())
    rec = _Recorder(monkeypatch)
    for label, argv in CLI_REQUESTS.items():
        for cached in caches:
            cached.cache_clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert rec.row(label, cli.main, argv) == 0
    measured = rec.table()
    assert measured == CLI_COUNTS.strip("\n"), f"measured:\n{measured}"
