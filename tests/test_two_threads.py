"""``local_solver.two_threads``, the one place that starts threads, and
``one_arena_one_blas_thread``, the one place that sets the process's malloc
arenas and BLAS threads, so that the worker does not raise the peak and
the results do not depend on the BLAS thread variables.

The calling thread and one worker take the next item in turn.  Results come
back in item order, fewer than two items start no thread, and a failure
stops both threads and raises what the serial loop would raise: the
exception of the lowest item that raised.
"""

import ast
import ctypes
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from hdgwave import local_solver
from hdgwave.local_solver import Assembler, ModelParams, one_arena_one_blas_thread, two_threads
from hdgwave.mesh import build_structured_coupled
from hdgwave.verify import make_case

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hdgwave"
THREAD_NAMES = {"ThreadPoolExecutor", "threading", "Thread"}
THREAD_MODULES = {"concurrent", "concurrent.futures", "threading", "_thread", "multiprocessing"}
# the extension modules whose handles find numpy's and scipy's OpenBLAS
BLAS_MODULES = ("numpy._core._multiarray_umath", "scipy.linalg._flapack")


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


def test_one_function_of_the_package_names_ctypes():
    # every process-wide setting is made in one place
    uses = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for where, unit in units(ast.parse(path.read_text(encoding="utf-8"))):
            for node in ast.walk(unit):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = {alias.name for alias in node.names} | {getattr(node, "module", None)}
                else:
                    names = {getattr(node, "id", getattr(node, "attr", None))}
                if "ctypes" in {name.split(".")[0] for name in names if name}:
                    uses.add((path.stem, where))
    assert uses == {("local_solver", "one_arena_one_blas_thread")}


def test_the_arena_bound_is_one_arena_and_quiet_without_mallopt(monkeypatch):
    calls = []

    def library(path, *symbols):
        """A fake C library whose functions record their calls."""
        def record(name):
            return lambda *args: calls.append((path, name, args))
        return SimpleNamespace(**{name: record(name) for name in symbols})

    numpy_blas, scipy_blas = (sys.modules[module].__file__ for module in BLAS_MODULES)
    libraries = {None: library(None, "mallopt"),
                 numpy_blas: library(numpy_blas, "scipy_openblas_set_num_threads64_"),
                 scipy_blas: library(scipy_blas, "scipy_openblas_set_num_threads")}
    monkeypatch.setattr(ctypes, "CDLL", libraries.__getitem__)
    assert one_arena_one_blas_thread() is None
    assert calls == [(None, "mallopt", (-8, 1)),  # M_ARENA_MAX
                     (numpy_blas, "scipy_openblas_set_num_threads64_", (1,)),
                     (scipy_blas, "scipy_openblas_set_num_threads", (1,))]

    def libc_only(path):
        if path is not None:
            raise OSError(f"no library {path}")
        return libraries[None]

    # libraries without the OpenBLAS setters, a CDLL that cannot load them,
    # and a missing extension module: what is there is still set
    for cdll in (lambda path: library(path, "mallopt"), libc_only):
        calls.clear()
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert one_arena_one_blas_thread() is None
        assert [name for _, name, _ in calls] == ["mallopt"]
    calls.clear()
    monkeypatch.setattr(ctypes, "CDLL", libraries.__getitem__)
    monkeypatch.setitem(sys.modules, BLAS_MODULES[1], None)  # importing it raises
    assert one_arena_one_blas_thread() is None
    assert [name for _, name, _ in calls] == ["mallopt", "scipy_openblas_set_num_threads64_"]

    def no_library(name):
        raise OSError("no C library")

    monkeypatch.setattr(ctypes, "CDLL", no_library)
    assert one_arena_one_blas_thread() is None
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())  # a library without mallopt
    assert one_arena_one_blas_thread() is None


def without_thread_variables(**env) -> dict:
    """This process's environment with the package on the path, without
    OpenBLAS's thread variables, plus ``env``."""
    kept = {name: value for name, value in os.environ.items()
            if name not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    return {**kept, "PYTHONPATH": str(PACKAGE.parent), **env}


def test_importing_the_package_with_the_arena_bound_exits_0():
    # each bundled OpenBLAS reads one thread after the import, wherever it
    # has a getter; unpinned, it reads the core count
    code = ("import ctypes, importlib, hdgwave\n"
            f"for module in {BLAS_MODULES!r}:\n"
            "    blas = ctypes.CDLL(importlib.import_module(module).__file__)\n"
            "    for name in ('scipy_openblas_get_num_threads64_',\n"
            "                 'scipy_openblas_get_num_threads', 'openblas_get_num_threads'):\n"
            "        if hasattr(blas, name):\n"
            "            print(module, name, getattr(blas, name)())\n")
    done = subprocess.run([sys.executable, "-c", code], timeout=120,
                          env=without_thread_variables(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    for line in done.stdout.splitlines():
        assert line.split()[-1] == "1", line


def test_the_results_do_not_depend_on_the_blas_thread_variables(tmp_path):
    # at elastic62 k=1 the last bits of the errors moved between 1 and 2
    # OpenBLAS threads before the package set its own count
    records = []
    for threads in ({}, {"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"}):
        out = tmp_path / str(len(records))
        subprocess.run([sys.executable, "-m", "hdgwave.cli", "solve", "--case", "elastic62",
                        "--k", "1", "--grid", "32", "--out", str(out)],
                       env=without_thread_variables(**threads), check=True,
                       capture_output=True, timeout=300)
        report = json.loads((out / "report.json").read_text())
        # the stage times and the peak differ from run to run
        records.append({key: report[key] for key in ("errors", "theta", "solve")})
    assert records[0] == records[1] == records[2]
