"""``local_solver.two_threads``, the one place that starts threads, and the
malloc arena bound that keeps its worker from raising the peak.

The calling thread and one worker take the next item in turn.  Results come
back in item order, fewer than two items start no thread, and a failure
stops both threads and raises what the serial loop would raise: the
exception of the lowest item that raised.
"""

import ast
import ctypes
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from hdgwave import local_solver
from hdgwave.local_solver import Assembler, ModelParams, one_malloc_arena, two_threads
from hdgwave.mesh import build_structured_coupled
from hdgwave.verify import make_case

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hdgwave"
THREAD_NAMES = {"ThreadPoolExecutor", "threading", "Thread"}
THREAD_MODULES = {"concurrent", "concurrent.futures", "threading", "_thread", "multiprocessing"}


class Failed(Exception):
    pass


def count_started(monkeypatch) -> list:
    """The threads started from now on, as a list that grows."""
    started, start = [], threading.Thread.start

    def count(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", count)
    return started


def test_one_worker_and_only_with_two_items(monkeypatch):
    started = count_started(monkeypatch)
    for items in ([], [3], [3, 4], list(range(5))):
        before = len(started)
        assert two_threads(lambda x: -x, items) == [-x for x in items]
        assert len(started) - before == (len(items) >= 2)
        assert not any(t.is_alive() for t in started)

    def fail(x):
        raise Failed(f"item {x}")

    with pytest.raises(Failed, match="item 3"):
        two_threads(fail, [3])
    assert len(started) == 2

    # the post-processing walk: a mesh of two blocks starts one worker
    case = make_case("coupled63")
    asm = Assembler(case.mesh_at(0), 1, case.params)
    assert len(asm.map_blocks(lambda blk: blk.domain)) == 2
    assert len(started) == 3


def test_local_assembly_starts_one_worker_per_domain_of_several_chunks(monkeypatch):
    # the jittered mesh has more than one chunk of shapes in each domain, so
    # each domain's call starts one worker
    monkeypatch.setattr(local_solver, "SHAPE_CHUNK", 7)
    mesh = build_structured_coupled(
        2, (-2.0, -2.0, 2.0, 2.0), (-1.0, -1.0, 1.0, 1.0), jitter=0.15, seed=5)
    asm = Assembler(mesh, 1, ModelParams())
    assert min(len(asm._shapes(domain).reps) for domain in ("E", "A")) > 7
    started = count_started(monkeypatch)
    asm.all_locals()
    assert len(started) == 2
    assert not any(t.is_alive() for t in started)

    # the structured mesh has two shapes per domain, one chunk each: no thread
    monkeypatch.undo()
    case = make_case("coupled63")
    started = count_started(monkeypatch)
    locs = Assembler(case.mesh_at(0), 1, case.params).all_locals()
    assert {loc.domain for loc in locs} == {"E", "A"}
    assert started == []


def test_the_lowest_failure_is_raised_and_no_item_starts_after_one():
    # item 1 fails at once; item 0 fails later, once item 1 has started, so
    # its failure is the last to arrive
    for _ in range(8):
        called, second_started = [], threading.Event()

        def item(i):
            called.append(i)
            if i == 0:
                second_started.wait(5.0)
                time.sleep(0.02)
                raise Failed(0)
            if i == 1:
                second_started.set()
                raise Failed(1)
            return i

        with pytest.raises(Failed) as info:
            two_threads(item, list(range(6)))
        assert info.value.args == (0,)
        assert sorted(called) == [0, 1]


def units(tree):
    """Each top-level statement of a module, and each statement of its
    classes, with the function or method that it is (else None)."""
    for top in tree.body:
        for node in top.body if isinstance(top, ast.ClassDef) else [top]:
            name = node.name if isinstance(node, ast.FunctionDef) else None
            yield (f"{top.name}.{name}" if top is not node and name else name), node


def test_one_function_of_the_package_names_threads():
    uses, importers = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for where, unit in units(ast.parse(path.read_text(encoding="utf-8"))):
            for node in ast.walk(unit):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = {alias.name for alias in node.names} | {getattr(node, "module", None)}
                    if names & (THREAD_NAMES | THREAD_MODULES):
                        importers.add(path.stem)
                elif getattr(node, "id", getattr(node, "attr", None)) in THREAD_NAMES:
                    uses.add((path.stem, where))
    assert uses == {("local_solver", "two_threads")}
    assert importers == {"local_solver"}


def test_the_arena_bound_is_one_arena_and_quiet_without_mallopt(monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    assert one_malloc_arena() is None
    assert calls == [(-8, 1)]  # M_ARENA_MAX

    def no_library(name):
        raise OSError("no C library")

    monkeypatch.setattr(ctypes, "CDLL", no_library)
    assert one_malloc_arena() is None
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())  # a library without mallopt
    assert one_malloc_arena() is None


def test_importing_the_package_with_the_arena_bound_exits_0():
    done = subprocess.run([sys.executable, "-c", "import hdgwave"], timeout=120,
                          env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
