"""Which functions memoize, and why each one still does.

A cache stays only where it carries meaning (interned bases whose
identity is their equality), measurably pays, or is a hook the benchmark
relies on.  Everything else is rebuilt on each call.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import triality
from triality import clifford, emit, field, matrix, subalgebras
from triality.checks import run_suite
from triality.clifford import EUCLIDEAN, LORENTZIAN
from triality.errors import TrialityError
from triality.representations import spinor_bases, vector_basis
from triality.subalgebras import g2_basis

BENCH = Path(__file__).resolve().parent.parent / "bench"

_LADDER = "bench/layers.py clear_ladders calls its cache_clear"

# Every lru_cache in the package, with the reason it stays.
SURVIVING_CACHES = {
    "clifford.dirac_gammas": _LADDER,
    "clifford.cl7_basis": _LADDER,
    "clifford.cl8_basis": _LADDER,
    "clifford.chiral_transform": _LADDER,
    "clifford.cl17_basis": _LADDER,
    "representations.vector_basis":
        "interns LieBasis, so each signature's V is built once per process",
    "representations.spinor_bases":
        "interns LieBasis; 5-7 ms per build; the bench times its __wrapped__",
    "subalgebras.g2_basis":
        "1.5 ms with 46 closure solves, hit 7 times per warm pass; the bench "
        "times its __wrapped__",
}


def _lru_cached():
    """Every lru_cache-wrapped function in triality.*, by 'module.qualname'."""
    found = {}
    for info in pkgutil.walk_packages(triality.__path__, "triality."):
        module = importlib.import_module(info.name)
        owners = [module] + [c for c in vars(module).values()
                             if inspect.isclass(c)
                             and c.__module__ == module.__name__]
        for owner in owners:
            for obj in vars(owner).values():
                if (hasattr(obj, "cache_info")
                        and obj.__module__ == module.__name__):
                    short = module.__name__.removeprefix("triality.")
                    found[f"{short}.{obj.__qualname__}"] = obj
    return found


def test_only_the_listed_functions_are_cached():
    assert _lru_cached().keys() == SURVIVING_CACHES.keys()


def _submodules():
    """Every ``triality.*`` module; the package ``__init__``, whose lazy
    ``__getattr__`` re-exports names for users, is not one of them."""
    return [importlib.import_module(info.name)
            for info in pkgutil.walk_packages(triality.__path__, "triality.")]


_BUILDER_MODULES = ("clifford", "representations", "outer", "subalgebras")


def test_each_builder_has_one_patch_point():
    """No other module holds a builder's public function at module level,
    so patching ``clifford.cl8_basis`` swaps it for every caller.  A
    function imported by name would keep the unpatched one."""
    builders = {}
    for short in _BUILDER_MODULES:
        module = importlib.import_module(f"triality.{short}")
        for name, obj in vars(module).items():
            if (not name.startswith("_") and callable(obj)
                    and not inspect.isclass(obj)
                    and getattr(obj, "__module__", None) == module.__name__):
                builders[id(obj)] = f"{short}.{name}"
    assert "clifford.cl8_basis" in builders.values()
    held = [(module.__name__, name, builders[id(obj)])
            for module in _submodules()
            for name, obj in vars(module).items()
            if id(obj) in builders
            and obj.__module__ != module.__name__]
    assert held == []


def test_no_check_fixture_outlives_its_run(monkeypatch):
    """A second ``run_suite`` rebuilds what its checks share: with
    ``intersect_pair`` broken after a clean run, and no cache cleared,
    the checks that read the intersections fail."""
    assert not run_suite("euclidean").failed

    def broken(first, second):
        raise TrialityError("intersect_pair is broken")

    monkeypatch.setattr(subalgebras, "intersect_pair", broken)
    report = run_suite("euclidean")
    assert [r.check_id[:2] for r in report.results
            if r.status == "fail"] == ["09", "10", "16"]


def _module_level_memos(module, memo_owner):
    """(owner, name) of every dict, list, set or bytearray held by the
    module or a class it defines; ``memo_owner`` must be one of those."""
    owners = [module] + [c for c in vars(module).values()
                         if inspect.isclass(c) and c.__module__ == module.__name__]
    assert memo_owner in owners
    return [(owner.__name__, name) for owner in owners
            for name, value in vars(owner).items()
            if not name.startswith("__")
            and isinstance(value, (dict, list, set, bytearray))]


def test_emit_keeps_no_memo_beyond_one_payload():
    """``emit.dumps_line`` keeps its memo of texts in a dict made for the call,
    so it dies with the payload; a dict, list or set at module level would
    outlive the call and become a cache across requests."""
    assert not _module_level_memos(emit, emit)


def test_matrix_keeps_no_memo_beyond_one_call():
    """``str(m)`` writes through ``emit``'s text writer with a memo of texts
    made for the call, so no ``Matrix`` state holds a text; module or class
    state would be a cache across matrices and requests."""
    assert not _module_level_memos(matrix, matrix.Matrix)


def test_field_keeps_no_memo_beyond_one_call():
    """``ExactScalar.__str__`` formats each coordinate from its numerator
    on every call; a text table at module or class level would be a cache
    across scalars and requests."""
    assert not _module_level_memos(field, field.ExactScalar)


@pytest.mark.parametrize("signature", [EUCLIDEAN, LORENTZIAN])
def test_bases_are_interned(signature):
    assert vector_basis(signature) is vector_basis(signature)
    assert spinor_bases(signature) is spinor_bases(signature)


def _triality_imports(path):
    """(module, name) of every ``from triality... import name`` in a file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "triality"
            for alias in node.names]


def test_bench_hooks_resolve():
    """The names bench/ imports exist, and the caches it clears or
    unwraps are still caches."""
    for script in ("layers.py", "trace_child.py"):
        imports = _triality_imports(BENCH / script)
        assert imports, script
        for module, name in imports:
            assert hasattr(importlib.import_module(module), name), (script, name)
    for fn in (clifford.dirac_gammas, clifford.cl7_basis, clifford.cl8_basis,
               clifford.chiral_transform, clifford.cl17_basis):
        assert callable(fn.cache_clear), fn
    assert callable(spinor_bases.__wrapped__)
    assert callable(g2_basis.__wrapped__)
    # layers.py spans the axis-0 restrictions with their own span()
    restricted = subalgebras.restrict(vector_basis(EUCLIDEAN), 0)
    assert restricted.span().dim == 21
