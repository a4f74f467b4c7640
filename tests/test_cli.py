"""Command-line interface: parsing, precedence, exit codes, and artifacts."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.io as sio
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hdgwave.cli import (
    _KEYS,
    ConfigError,
    RunConfig,
    _build_parser,
    _parse_bool,
    _parse_complex_pair,
    load_config_file,
    main,
    parse_config,
)
from hdgwave.local_solver import RCOND_FLOOR
from hdgwave.mesh import (
    KINDS,
    FaceKind,
    build_structured_coupled,
    load_mesh,
    save_mesh,
    validate_mesh,
)

# -- low-level parsers --------------------------------------------------------


def test_complex_pair_parsing():
    assert _parse_complex_pair("2,-1") == 2.0 - 1.0j
    assert _parse_complex_pair("0.5,3") == 0.5 + 3.0j
    assert _parse_complex_pair(" 1.5 , -0.25 ") == 1.5 - 0.25j


@pytest.mark.parametrize("bad", ["2", "2,-1,0", "a,b", "2;1"])
def test_complex_pair_rejects_malformed(bad):
    with pytest.raises(ConfigError):
        _parse_complex_pair(bad)


def test_bool_parsing():
    for text in ("1", "true", "Yes", "ON"):
        assert _parse_bool(text) is True
    for text in ("0", "false", "No", "off"):
        assert _parse_bool(text) is False
    with pytest.raises(ConfigError):
        _parse_bool("maybe")


# -- configuration precedence ---------------------------------------------------


def parse(argv):
    return parse_config(_build_parser().parse_args(argv))


def test_defaults():
    cfg = parse(["study"])
    assert cfg == RunConfig(mode="study")
    assert cfg.s == 2.0 - 1.0j and cfg.k == 1 and cfg.case == "acoustic61"


def test_cli_overrides_defaults():
    cfg = parse(["solve", "--case", "coupled63", "--k", "3", "--s", "4,-2",
                 "--nu", "0.49999", "--tauA", "0.5", "--verbose"])
    assert cfg.mode == "solve" and cfg.case == "coupled63" and cfg.k == 3
    assert cfg.s == 4.0 - 2.0j and cfg.poisson == 0.49999
    assert cfg.tau_a == 0.5 and cfg.verbose is True


def test_config_file_overrides_defaults(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "case = elastic62\n"
        "k = 2   # inline comment\n"
        "s = 3,-1\n"
        "tauE = 2.5\n"
        "verbose = yes\n"
    )
    cfg = parse(["study", "--config", str(path)])
    assert cfg.case == "elastic62" and cfg.k == 2
    assert cfg.s == 3.0 - 1.0j and cfg.tau_e == 2.5 and cfg.verbose is True


def test_cli_beats_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("k = 2\ncase = elastic62\n")
    cfg = parse(["study", "--config", str(path), "--k", "3"])
    assert cfg.k == 3  # flag wins
    assert cfg.case == "elastic62"  # file still applies where no flag given


def test_bad_config_value_rejected_even_when_a_flag_overrides_it(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("k = banana\n")
    with pytest.raises(ConfigError, match="bad value for 'k'"):
        parse(["study", "--config", str(path), "--k", "3"])


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("degree = 2\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        parse(["study", "--config", str(path)])


def test_malformed_config_line_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("just a line without equals\n")
    with pytest.raises(ConfigError, match="expected key=value"):
        parse(["study", "--config", str(path)])


def test_repeated_config_key_rejected(tmp_path, capsys):
    # a repeated key is an error, not a silent override by the later line
    path = tmp_path / "run.cfg"
    path.write_text("case = coupled63\nk = 1\n# comment\ncase=acoustic61\n")
    with pytest.raises(ConfigError, match=r"run\.cfg:4: key 'case' already set on line 1"):
        load_config_file(str(path))
    assert main(["study", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "key 'case' already set on line 1" in capsys.readouterr().err
    assert not (tmp_path / "report.csv").exists()


_VALUES = ["1", "0", "7", "-3", "2,-1", "2", "nan", "inf", "1e400", "0.3", "0.7",
           "true", "off", "banana", "1,2,3", "", "9" * 5000]
_LINES = st.one_of(
    st.text(max_size=40),
    st.builds("{}{}{}".format, st.sampled_from(sorted(_KEYS) + ["K", "mode", ""]),
              st.sampled_from(["=", " = ", "==", " "]),
              st.one_of(st.sampled_from(_VALUES), st.text(max_size=20))),
)
_CONFIG_FILES = st.one_of(
    st.lists(_LINES, max_size=6).map(lambda lines: "\n".join(lines).encode("utf-8")),
    st.text().map(lambda text: text.encode("utf-8")),
    st.binary(max_size=60),
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(content=_CONFIG_FILES)
def test_config_reader_parses_or_rejects_any_file(tmp_path, content):
    # any file either parses or raises ConfigError, and from the command line
    # a rejected file exits 2; no other exception escapes
    path = tmp_path / "run.cfg"
    path.write_bytes(content)
    argv = ["study", "--config", str(path), "--out", str(tmp_path)]
    try:
        load_config_file(str(path))
        parse(argv)
    except ConfigError:
        assert main(argv) == 2


def _outcome(argv):
    try:
        return repr(parse(argv))  # repr, so that a nan compares equal to itself
    except ConfigError as exc:
        return f"ConfigError: {exc}"


def test_parser_flags_are_the_keys():
    flags = {opt for action in _build_parser()._actions if action.dest != "help"
             for opt in action.option_strings}
    assert flags == {f"--{key}" for key in _KEYS} | {"--config"}


# values a config file carries unchanged: no comment, line break or edge blanks
_FILE_VALUES = st.one_of(
    st.sampled_from(_VALUES + ["-0", "acoustic61", "x.mesh"]),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="#\r\n"),
            max_size=12),
).filter(lambda text: text == text.strip())


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mode=st.sampled_from(["solve", "study"]), key=st.sampled_from(sorted(_KEYS)),
       value=_FILE_VALUES)
def test_flag_and_config_file_parse_alike(tmp_path, mode, key, value):
    # a setting given as --key v and as 'key = v' in a file yields the same
    # RunConfig or the same ConfigError; a switch's flag alone means 'true'
    switch = _KEYS[key][1] is _parse_bool
    path = tmp_path / "run.cfg"
    path.write_text(f"{key} = {'true' if switch else value}\n", encoding="utf-8")
    flag = [f"--{key}"] if switch else [f"--{key}={value}"]
    assert _outcome([mode, *flag]) == _outcome([mode, "--config", str(path)])


@pytest.mark.parametrize("mode,key,value,owner", [
    ("study", "mesh", "absent.mesh", "solve"),
    ("study", "dump-system", "true", "solve"),
    ("solve", "levels", "3", "study"),
], ids=["study-mesh", "study-dump-system", "solve-levels"])
def test_mesh_outside_solve_exits_2(tmp_path, capsys, mode, key, value, owner):
    # a setting that only the other mode reads is rejected, not ignored, as
    # a flag and in a config file; a mesh even when the file does not exist
    path = tmp_path / "run.cfg"
    path.write_text(f"{key} = {value}\n")
    flag = [f"--{key}"] if key == "dump-system" else [f"--{key}", value]
    message = f"'{key}' applies to {owner} mode only, not to {mode}"
    for argv in (flag, ["--config", str(path)]):
        with pytest.raises(ConfigError, match=message):
            parse([mode, *argv])
        assert main([mode, *argv, "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
    assert sorted(f.name for f in tmp_path.iterdir()) == ["run.cfg"]


def test_grid_with_a_mesh_exits_2(tmp_path, capsys):
    # the grid sizes the case's own mesh, so with a mesh file it was ignored
    path, cfg = tmp_path / "square.mesh", tmp_path / "run.cfg"
    save_mesh(build_structured_coupled(2, (0.0, 0.0, 1.0, 1.0)), str(path))
    cfg.write_text("grid = 7\n")
    message = "'grid' sizes the case's own mesh and does not apply with 'mesh'"
    for given in (["--grid", "7"], ["--config", str(cfg)]):
        argv = ["solve", "--case", "acoustic61", "--mesh", str(path), *given]
        with pytest.raises(ConfigError, match=message):
            parse(argv)
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_missing_config_file_rejected():
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config_file("/nonexistent/run.cfg")


@pytest.mark.parametrize("argv", [
    ["study", "--k", "0"],
    ["study", "--k", "7"],
    ["study", "--levels", "0"],
    ["study", "--grid", "0"],
])
def test_out_of_range_values_rejected(argv):
    with pytest.raises(ConfigError):
        parse(argv)


# -- exit codes -----------------------------------------------------------------


def test_unknown_case_exits_2(capsys, tmp_path):
    assert main(["study", "--case", "helmholtz", "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_ill_posed_frequency_exits_2(capsys, tmp_path):
    # Re(s * tau) < 0 violates the solvability precondition
    assert main(["study", "--s=-2,1", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "well-posedness" in err


@pytest.mark.parametrize("flag", [
    ["--c", "nan"], ["--rhoE", "inf"], ["--rhoF", "nan"], ["--E", "inf"],
    ["--nu", "nan"], ["--tauE", "inf"], ["--tauA", "nan"], ["--s=nan,-1"],
    ["--s=2,inf"],
])
def test_non_finite_parameter_exits_2(flag, capsys, tmp_path):
    # exit code 2 comes from the configuration stage, before any assembly
    assert main(["solve", "--case", "acoustic61", *flag, "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_degree_exits_2(capsys, tmp_path):
    assert main(["study", "--k", "9", "--out", str(tmp_path)]) == 2


def test_bad_config_file_exits_2(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("k = banana\n")
    assert main(["study", "--config", str(path), "--out", str(tmp_path)]) == 2


def test_missing_mesh_file_exits_1(tmp_path, capsys):
    rc = main(["solve", "--mesh", str(tmp_path / "absent.mesh"),
               "--out", str(tmp_path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_invalid_mode_exits_nonzero(capsys):
    assert main(["tabulate"]) == 2
    # solve and study are the only modes
    assert main(["selftest"]) == 2
    assert "invalid choice: 'selftest'" in capsys.readouterr().err


# -- artifacts ------------------------------------------------------------------


def test_study_writes_reports(tmp_path, capsys):
    rc = main(["study", "--case", "acoustic61", "--k", "1", "--levels", "2",
               "--out", str(tmp_path)])
    assert rc == 0
    csv_path = tmp_path / "report.csv"
    assert csv_path.exists()
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "plot_acoustic61_k1.dat").exists()
    out = capsys.readouterr().out
    assert out.startswith("case,k,level")  # table echoed to stdout
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["case"] == "acoustic61"
    assert len(payload["rows"]) == 2


def test_study_csv_is_byte_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(["study", "--k", "1", "--levels", "2", "--out", str(d1)]) == 0
    assert main(["study", "--k", "1", "--levels", "2", "--out", str(d2)]) == 0
    assert (d1 / "report.csv").read_bytes() == (d2 / "report.csv").read_bytes()


def test_convergence_script_writes_the_study_reports(tmp_path, capsys):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    subprocess.run([sys.executable, str(root / "scripts" / "run_convergence.py"),
                    "--case", "acoustic61", "--k", "1", "--levels", "2",
                    "--out", str(tmp_path / "script")],
                   check=True, env=env, capture_output=True)
    run_dir = tmp_path / "script" / "acoustic61_k1"
    assert sorted(p.name for p in run_dir.iterdir()) == [
        "plot_acoustic61_k1.dat", "report.csv", "report.json"]
    assert main(["study", "--case", "acoustic61", "--k", "1", "--levels", "2",
                 "--out", str(tmp_path / "cli")]) == 0
    capsys.readouterr()
    assert (run_dir / "report.csv").read_bytes() == (tmp_path / "cli" / "report.csv").read_bytes()
    assert json.loads((run_dir / "report.json").read_text())["case"] == "acoustic61"


def test_solve_reports_errors_and_theta(tmp_path, capsys):
    rc = main(["solve", "--case", "acoustic61", "--k", "2",
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "err_v=" in out and "err_q=" in out and "theta=" in out
    payload = json.loads((tmp_path / "report.json").read_text())
    assert set(payload["errors"]) == {"q", "v", "vhat"}
    assert payload["theta"] > 0.0


def test_solve_reports_what_the_solve_did(tmp_path, capsys):
    rc = main(["solve", "--case", "coupled63", "--k", "1", "--verbose",
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    payload = json.loads((tmp_path / "report.json").read_text())
    stats = payload["solve"]
    assert set(stats) == {"n", "nnz", "factor_entries", "residual_rel", "local_rcond",
                          "forward_error"}
    assert stats["n"] == payload["N"]
    assert stats["factor_entries"] > 0 and stats["nnz"] > 0
    assert 0.0 <= stats["residual_rel"] < 1e-10
    assert RCOND_FLOOR < stats["local_rcond"] <= 1.0
    assert 0.0 <= stats["forward_error"] < 1e-8
    for name, value in stats.items():
        assert f"solve.{name}={value}\n" in out
    stages = payload["stages"]
    assert set(stages) == {"solve_problem", "compute_errors", "compute_theta"}
    for name, seconds in stages.items():
        assert 0.0 < seconds < 600.0
        assert f"stages.{name}={seconds:.6f}\n" in out
    # the whole process, imports and solve, in MB; ru_maxrss is in KiB on Linux
    assert 10.0 < payload["peak_rss_mb"] < 1e5
    assert f"peak_rss_mb={payload['peak_rss_mb']}\n" in out


def test_solve_dump_system_writes_matrix_market(tmp_path):
    rc = main(["solve", "--case", "acoustic61", "--k", "1", "--dump-system",
               "--out", str(tmp_path)])
    assert rc == 0
    mat = sio.mmread(str(tmp_path / "system_matrix.mtx"))
    rhs = np.asarray(sio.mmread(str(tmp_path / "system_rhs.mtx")))
    assert mat.shape[0] == mat.shape[1] == rhs.shape[0]
    assert np.iscomplexobj(rhs)


def test_solve_on_mesh_file(tmp_path, capsys):
    mesh = build_structured_coupled(4, (0.0, 0.0, 1.0, 1.0))
    path = tmp_path / "square.mesh"
    save_mesh(mesh, str(path))
    rc = main(["solve", "--case", "acoustic61", "--mesh", str(path),
               "--out", str(tmp_path)])
    assert rc == 0
    assert "elements=32" in capsys.readouterr().out


MESHES = {
    "coupled": lambda: build_structured_coupled(1, (-2.0, -2.0, 2.0, 2.0), (-1.0, -1.0, 1.0, 1.0)),
    "fluid": lambda: build_structured_coupled(2, (0.0, 0.0, 1.0, 1.0)),
    "solid": lambda: build_structured_coupled(2, (0.0, 0.0, 1.0, 1.0), domain="E"),
}


@pytest.mark.parametrize("case,mesh", [("acoustic61", "coupled"), ("acoustic61", "solid"),
                                       ("elastic62", "coupled"), ("elastic62", "fluid")])
def test_case_without_exact_fields_on_a_mesh_domain_exits_2(tmp_path, capsys, monkeypatch,
                                                             case, mesh):
    # rejected before any assembly, not after a full solve with exit 1
    domain = "solid domain (E)" if case == "acoustic61" else "fluid domain (A)"
    path = tmp_path / f"{mesh}.mesh"
    save_mesh(MESHES[mesh](), str(path))
    monkeypatch.setattr("hdgwave.cli.solve_problem", lambda *a, **kw: pytest.fail("solved"))
    assert main(["solve", "--case", case, "--mesh", str(path), "--out", str(tmp_path)]) == 2
    assert f"case '{case}' has no exact fields for the {domain}" in capsys.readouterr().err


def test_coupled_case_on_a_fluid_only_mesh_is_accepted(tmp_path, capsys):
    path = tmp_path / "fluid.mesh"
    save_mesh(MESHES["fluid"](), str(path))
    assert main(["solve", "--case", "coupled63", "--mesh", str(path),
                 "--out", str(tmp_path)]) == 0
    assert "elements=8" in capsys.readouterr().out
    errors = json.loads((tmp_path / "report.json").read_text())["errors"]
    # no solid errors for a solid that is not there
    assert sorted(errors) == ["q", "v", "vhat"]
    assert errors["v"] > 0.0


def solve_errors(tmp_path, case, mesh, name):
    """The report.json errors of a k=2 solve of ``case`` on ``mesh``."""
    path, out = tmp_path / f"{name}.mesh", tmp_path / name
    save_mesh(mesh, str(path))
    assert main(["solve", "--case", case, "--k", "2", "--mesh", str(path),
                 "--out", str(out)]) == 0
    return json.loads((out / "report.json").read_text())["errors"]


def test_acoustic_case_gives_its_flux_on_neumann_faces(tmp_path, capsys):
    # q.n_out on the x = 1 faces keeps err_q at its all-Dirichlet size; with
    # zero flux data it was 1.2e-1 against 1.4e-4
    mesh = build_structured_coupled(4, (0.0, 0.0, 1.0, 1.0))
    dirichlet = solve_errors(tmp_path, "acoustic61", mesh, "dirichlet")
    mid_x = mesh.vertices[mesh.face_vertices, 0].mean(axis=1)
    mesh.face_kind[mesh.is_kind(FaceKind.GAMMA_AD) & (mid_x == 1.0)] = \
        KINDS.index(FaceKind.GAMMA_AN)
    validate_mesh(mesh)
    neumann = solve_errors(tmp_path, "acoustic61", mesh, "neumann")
    assert neumann["q"] < 2.0 * dirichlet["q"]


def test_coupled_case_on_a_solid_only_mesh_solves_the_elastic_case(tmp_path, capsys):
    # coupled63 gives the same solid fields and displacement trace as
    # elastic62; with a zero trace its err_sigma was 2.4 against 2.0e-2
    mesh = build_structured_coupled(4, (0.0, 0.0, 1.0, 1.0), domain="E")
    assert (solve_errors(tmp_path, "coupled63", mesh, "coupled")
            == solve_errors(tmp_path, "elastic62", mesh, "elastic"))


@pytest.mark.parametrize("case,domain,kind", [
    ("acoustic61", "A", FaceKind.ELASTIC_BOUNDARY),
    ("elastic62", "E", FaceKind.GAMMA_AD),
    ("elastic62", "E", FaceKind.GAMMA_AN),
])
def test_boundary_faces_of_the_other_domain_exit_2(tmp_path, capsys, case, domain, kind):
    # the x = 1 faces relabeled: fluid faces read as elasticBoundary imposed
    # v = 0 (err_q 1.02 against 1.08e-3), solid faces read as gammaAD u = 0
    # (err_sigma 1.04 against 0.150), and as gammaAN gave a singular factor
    mesh = build_structured_coupled(2, (0.0, 0.0, 1.0, 1.0), domain=domain)
    mid_x = mesh.vertices[mesh.face_vertices, 0].mean(axis=1)
    mesh.face_kind[mid_x == 1.0] = KINDS.index(kind)
    path = tmp_path / "relabeled.mesh"
    save_mesh(mesh, str(path))
    assert main(["solve", "--case", case, "--k", "2", "--mesh", str(path),
                 "--out", str(tmp_path)]) == 2
    assert "kind does not match the domain of its element" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def _break_triangle_id(lines):
    header = next(i for i, line in enumerate(lines) if line.startswith("triangles"))
    nv = int(lines[1].split()[1])
    lines[header + 1] = f"0 1 {nv} A"
    return lines


def _replace(record, by):
    return lambda lines: [by if line == record else line for line in lines]


@pytest.mark.parametrize("edit", [
    _break_triangle_id,
    lambda lines: lines[:-1],
    # 4-8 is the diagonal of the upper right cell, 5-7 no edge at all
    _replace("4 8 interiorA", "5 7 interiorA"),
    # a second record for the Dirichlet face 0-1 would make it Neumann
    _replace("4 8 interiorA", "0 1 gammaAN"),
], ids=["triangle-id-equal-to-nv", "truncated", "face-record-names-no-edge",
        "face-record-repeats-an-edge"])
def test_malformed_mesh_file_exits_2(tmp_path, capsys, edit):
    path = tmp_path / "bad.mesh"
    save_mesh(build_structured_coupled(2, (0.0, 0.0, 1.0, 1.0)), str(path))
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    rc = main(["solve", "--case", "acoustic61", "--mesh", str(path),
               "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


_MESH_TOKENS = ["0", "1", "2", "-1", "7", "24", "25", "55", "56", "0.5", "-0", "1_0", "1e400",
                "nan", "inf", "x", "A", "E", "gamma", "gammaAD", "gammaAN", "interiorA",
                "interiorE", "elasticBoundary", "vertices", "faces", "9" * 30]
_MESH_EDITS = st.lists(
    st.tuples(st.sampled_from(["delete", "duplicate", "move", "token", "drop", "append"]),
              st.integers(0, 10**6), st.integers(0, 10**6), st.sampled_from(_MESH_TOKENS)),
    min_size=1, max_size=4)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=_MESH_EDITS)
def test_mesh_reader_loads_or_rejects_any_file(tmp_path, edits):
    # lines and tokens of a small valid coupled file, deleted, duplicated,
    # moved or replaced: the file either loads as a valid mesh or raises
    # ValueError, and from the command line a rejected file exits 2
    path = tmp_path / "fuzz.mesh"
    save_mesh(build_structured_coupled(1, (-2.0, -2.0, 2.0, 2.0), (-1.0, -1.0, 1.0, 1.0)),
              str(path))
    lines = path.read_text().splitlines()
    for op, at, to, token in edits:
        i = at % len(lines)
        fields = lines[i].split()
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(to % len(lines), lines[i])
        elif op == "move":
            lines.insert(to % len(lines), lines.pop(i))
        elif op == "token" and fields:
            fields[to % len(fields)] = token
        elif op == "drop" and fields:
            del fields[to % len(fields)]
        elif op == "append":
            fields.append(token)
        if op in ("token", "drop", "append"):
            lines[i] = " ".join(fields)
        if not lines:
            lines = [token]
    path.write_text("\n".join(lines) + "\n")
    try:
        mesh = load_mesh(str(path))
    except ValueError:
        assert main(["solve", "--case", "coupled63", "--mesh", str(path),
                     "--out", str(tmp_path)]) == 2
        return
    validate_mesh(mesh)


def test_out_dir_env_var(tmp_path, monkeypatch, capsys):
    target = tmp_path / "from_env"
    monkeypatch.setenv("HDG_OUT_DIR", str(target))
    assert main(["study", "--k", "1", "--levels", "1"]) == 0
    assert (target / "report.csv").exists()
