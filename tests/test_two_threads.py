"""``local_solver.two_threads``, the one place that starts threads.

The calling thread and one worker take the next item in turn.  Results come
back in item order, fewer than two items start no thread, and a failure
stops both threads and raises what the serial loop would raise: the
exception of the lowest item that raised.
"""

import ast
import threading
import time
from pathlib import Path

import pytest

from hdgwave.local_solver import Assembler, two_threads
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
