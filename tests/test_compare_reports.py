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
    assert out.stdout.splitlines()[-1] == "1 report.json files moved"


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
    assert lines[-1] == "1 report.json files moved"  # one in one tree only counts


def test_error_and_theta_moves_are_printed_against_the_bound(tmp_path):
    # the bound is max(1e-11, 1e-12 |old|): an absolute 1e-14 move of 0.025
    # is 1e-3 of it, and a 4e-11 move of 87.3 is 0.46 of 8.73e-11
    old = tree(tmp_path / "old", "2.500000e-02", 87.3)
    new = tree(tmp_path / "new", "2.500000e-02", 87.3 + 4e-11)
    out = compare(old, new)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "c_k1/report.json: largest error or theta move 0.46 of the bound, at " \
           "rows[1].errors.sigma" in out.stdout.splitlines()
    same = tree(tmp_path / "same", "2.500000e-02", 87.3)
    out = compare(old, same)
    assert "c_k1/report.json: largest error or theta move 0 of the bound, at none" \
           in out.stdout.splitlines()
    assert out.stdout.splitlines()[-2:] == ["csv and dat files byte-identical",
                                            "no report.json file moved"]
    moved = tree(tmp_path / "moved", "2.500000e-02", 0.025)
    (tmp_path / "moved" / "c_k1" / "report.json").write_text(json.dumps(
        {"case": "c", "rows": [{"errors": {"sigma": 0.1}, "theta": 0.2 + 1e-14},
                               {"errors": {"sigma": 0.025}}]}))
    out = compare(tree(tmp_path / "base", "2.500000e-02", 0.025), moved)
    assert "c_k1/report.json: largest error or theta move 0.001 of the bound, at " \
           "rows[0].theta" in out.stdout.splitlines()
