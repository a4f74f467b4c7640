"""Span arithmetic, boundary wrapping, and the benchmark's output checks."""

import json
import os
import sys
import types

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    recorded = [
        ("workload", 0.0, 10.0, -1),
        ("a", 1.0, 6.0, 0),
        ("b", 2.0, 3.0, 1),
        ("b", 4.0, 5.0, 1),
        ("c", 7.0, 9.0, 0),
    ]
    assert spans.self_times(recorded) == pytest.approx([3.0, 3.0, 1.0, 1.0, 2.0])
    calls, self_s, within, within_calls = spans.summarize(recorded)
    assert calls["b"] == 2
    assert self_s["b"] == pytest.approx(2.0)
    assert within[("a", "b")] == pytest.approx(2.0)
    assert within[("workload", "b")] == pytest.approx(2.0)
    assert within_calls[("a", "b")] == 2
    assert within[("c", "b")] == 0.0
    # self times partition the root span
    assert sum(self_s.values()) == pytest.approx(10.0)


def test_nested_same_name_spans_count_each_level_once():
    recorded = [("f", 0.0, 4.0, -1), ("f", 1.0, 3.0, 0), ("g", 1.5, 2.5, 1)]
    _, self_s, within, within_calls = spans.summarize(recorded)
    assert self_s["f"] == pytest.approx(3.0)
    assert within[("f", "g")] == pytest.approx(1.0)
    assert within_calls[("f", "g")] == 1


@pytest.fixture
def fake_package(monkeypatch):
    mod = types.ModuleType("fakepkg_layer")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    class Worker:
        def step(self, x):
            return mod.inner(x)

    mod.inner, mod.outer, mod.Worker = inner, outer, Worker
    monkeypatch.setitem(sys.modules, "fakepkg_layer", mod)
    return mod


def test_tracer_records_parents_and_restores(fake_package):
    original_inner = fake_package.inner
    original_step = vars(fake_package.Worker)["step"]
    tracer = spans.Tracer(boundaries=(
        ("layer.outer", (("fakepkg_layer", "outer"),)),
        ("layer.inner", (("fakepkg_layer", "inner"),)),
        ("layer.step", (("fakepkg_layer", "Worker.step"),)),
    ))
    tracer.install()
    try:
        with tracer.root():
            assert fake_package.outer(1) == 4
            assert fake_package.Worker().step(5) == 6
    finally:
        tracer.uninstall()
    names = [(name, parent) for name, _, _, parent in tracer.spans]
    assert names == [("workload", -1), ("layer.outer", 0), ("layer.inner", 1),
                     ("layer.step", 0), ("layer.inner", 3)]
    assert all(s >= 0.0 for s in spans.self_times(tracer.spans))
    assert tracer.missing == []
    assert fake_package.inner is original_inner
    assert vars(fake_package.Worker)["step"] is original_step


def test_missing_boundary_is_reported_not_fatal(fake_package, tmp_path):
    tracer = spans.Tracer(boundaries=(
        ("layer.inner", (("fakepkg_layer", "inner"),)),
        ("layer.gone", (("fakepkg_layer", "removed_function"),)),
        ("layer.gone_method", (("fakepkg_layer", "Worker.removed"),)),
        ("layer.gone_module", (("no_such_module_anywhere", "f"),)),
    ))
    tracer.install()
    try:
        with tracer.root():
            fake_package.inner(0)
    finally:
        tracer.uninstall()
    assert tracer.missing == ["layer.gone", "layer.gone_method", "layer.gone_module"]
    _, self_s, _, _ = spans.summarize(tracer.spans)
    assert self_s["layer.gone"] == 0.0
    tracer.write(tmp_path / "spans.json")
    written = json.loads((tmp_path / "spans.json").read_text())
    assert written["missing"] == tracer.missing
    assert len(written["spans"]) == 2


def test_benchmark_json_names_the_metrics_run_py_reports():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER_UNITS
    assert "skeleton.lu_fill" in run.EXACT_COUNTS
    assert "projections.face_rule_calls" in run.EXACT_COUNTS
    assert "mesh.class_reuse_share" in run.EXACT_COUNTS
    assert "mesh.build_s" not in run.EXACT_COUNTS


def test_exact_count_change_fails_the_run(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    assert run.check_counts_repeat("w-seed1-abc", {"skeleton.nnz": 10}) == []
    assert run.check_counts_repeat("w-seed1-abc", {"skeleton.nnz": 10}) == []
    problems = run.check_counts_repeat("w-seed1-abc", {"skeleton.nnz": 11})
    assert len(problems) == 1 and "skeleton.nnz" in problems[0]
    assert run.check_counts_repeat("w-seed1-def", {"skeleton.nnz": 11}) == []


def test_counts_are_keyed_by_the_inputs_a_workload_uses(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    # coupled_top ignores the seed, so every seed compares with the same entry
    first = run.counts_key("coupled_top", 1, "abc")
    assert run.counts_key("coupled_top", 2, "abc") == first
    assert run.check_counts_repeat(first, {"skeleton.nnz": 10}) == []
    problems = run.check_counts_repeat(run.counts_key("coupled_top", 2, "abc"),
                                       {"skeleton.nnz": 11})
    assert len(problems) == 1 and "skeleton.nnz" in problems[0]
    # jitter_assembly uses seed mod JITTER_SEEDS
    n = workloads.JITTER_SEEDS
    assert run.counts_key("jitter_assembly", 3, "abc") == \
        run.counts_key("jitter_assembly", 3 + n, "abc")
    assert run.counts_key("jitter_assembly", 3, "abc") != \
        run.counts_key("jitter_assembly", 4, "abc")
    assert run.counts_key("coupled_top", 1, "abc") != run.counts_key("coupled_top", 1, "def")


def test_output_check_uses_relative_tolerance_and_exact_n():
    ref = {"case": {"N": 10, "errors": {"v": 2.0e-3, "q": 1.0e-5}, "theta": 4.0e-4}}
    good = {"N": 10, "errors": {"v": 2.0e-3 * (1 + 5e-5), "q": 1.0e-5}, "theta": 4.0e-4}
    assert workloads.check_output("case", good, ref) == []
    off = {"N": 10, "errors": {"v": 2.0e-3 * (1 + 2e-4), "q": 1.0e-5}, "theta": 4.0e-4}
    assert len(workloads.check_output("case", off, ref)) == 1
    wrong_n = dict(good, N=12)
    assert len(workloads.check_output("case", wrong_n, ref)) == 1
    nan_theta = dict(good, theta=float("nan"))
    assert len(workloads.check_output("case", nan_theta, ref)) == 1
    assert len(workloads.check_output("other", good, ref)) == 1
