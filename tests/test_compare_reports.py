"""scripts/compare_reports.py on two small report trees."""

import json
import os
import subprocess
import sys

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "compare_reports.py")

CSV = "case,k,level,err_sigma,theta\nc,1,0,1.000000e-01,2.000000e-01\nc,1,1,{},5.000000e-02\n"
DAT = "# h err_sigma theta\n1.0 1.000000e-01 2.000000e-01\n0.5 {} 5.000000e-02\n"


def tree(root, err_sigma, sigma_float):
    run = root / "c_k1"
    run.mkdir(parents=True)
    (run / "report.csv").write_text(CSV.format(err_sigma))
    (run / "plot_c_k1.dat").write_text(DAT.format(err_sigma))
    rows = [{"errors": {"sigma": 0.1}, "theta": 0.2}, {"errors": {"sigma": sigma_float}}]
    (run / "report.json").write_text(json.dumps({"case": "c", "rows": rows}))
    return str(root)


def compare(*args):
    return subprocess.run([sys.executable, SCRIPT, *args], capture_output=True, text=True)


def test_identical_tables_exit_zero_and_report_the_json_move(tmp_path):
    old = tree(tmp_path / "old", "2.500000e-02", 0.025)
    new = tree(tmp_path / "new", "2.500000e-02", 0.025 * (1 + 4e-13))
    out = compare(old, new, "--floats")
    assert out.returncode == 0, out.stdout + out.stderr
    assert "c_k1/report.json: 1 floats moved, largest 4.0e-13 at rows[1].errors.sigma" in out.stdout
    assert "  rows[1].errors.sigma: 0.025 -> " in out.stdout
    assert "csv and dat files byte-identical" in out.stdout


def test_moved_lines_are_listed_by_row_and_column(tmp_path):
    old = tree(tmp_path / "old", "2.500000e-02", 0.025)
    new = tree(tmp_path / "new", "2.500001e-02", 0.025)
    os.remove(os.path.join(new, "c_k1", "report.json"))
    out = compare(old, new)
    assert out.returncode == 1
    lines = out.stdout.splitlines()
    assert "c_k1/report.csv row 1: err_sigma 2.500000e-02->2.500001e-02" in lines
    assert "c_k1/plot_c_k1.dat row 1: err_sigma 2.500000e-02->2.500001e-02" in lines
    assert f"c_k1/report.json: only in {old}" in lines
