"""Command-line front end: single solves and convergence studies.

Configuration precedence is command line over config file over defaults.
Exit codes: 0 on success, 1 on runtime failure (solver or I/O), 2 when the
configuration or a solvability precondition is rejected.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from dataclasses import asdict, dataclass

from .local_solver import Assembler
from .mesh import load_mesh
from .projections import compute_theta
from .quadbasis import MAX_BASIS_DEGREE
from .skeleton import solve_problem
from .verify import compute_errors, make_case, run_study


class ConfigError(ValueError):
    """Configuration that cannot be accepted (maps to exit code 2)."""


def _parse_complex_pair(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"expected complex value as 're,im', got '{text}'")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise ConfigError(f"bad complex value '{text}': {exc}") from None


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got '{text}'")


@dataclass
class RunConfig:
    mode: str = "study"
    case: str = "acoustic61"
    mesh: str | None = None
    grid: int | None = None
    k: int = 1
    levels: int = 4
    s: complex = complex(2.0, -1.0)
    c: float = 1.0
    rho_e: float = 1.0
    rho_f: float = 1.0
    young: float = 1.0
    poisson: float = 0.3
    tau_e: float = 1.0
    tau_a: float = 1.0
    out: str | None = None
    dump_system: bool = False
    verbose: bool = False


# every run setting: config-file key and --flag -> (RunConfig field, parser, help)
_KEYS: dict[str, tuple[str, object, str]] = {
    "case": ("case", str, "acoustic61, elastic62, or coupled63"),
    "mesh": ("mesh", str, "mesh file to solve on (solve only)"),
    "grid": ("grid", int, "base cells per unit length"),
    "k": ("k", int, "polynomial degree"),
    "levels": ("levels", int, "refinement levels (study only)"),
    "s": ("s", _parse_complex_pair, "complex frequency as re,im"),
    "c": ("c", float, "sound speed"),
    "rhoE": ("rho_e", float, "solid density"),
    "rhoF": ("rho_f", float, "fluid density"),
    "E": ("young", float, "Young's modulus"),
    "nu": ("poisson", float, "Poisson ratio"),
    "tauE": ("tau_e", float, "solid stabilization"),
    "tauA": ("tau_a", float, "fluid stabilization"),
    "out": ("out", str, "output directory (or HDG_OUT_DIR)"),
    "verbose": ("verbose", _parse_bool, "print progress and solve statistics"),
    "dump-system": ("dump_system", _parse_bool, "write matrix/rhs as Matrix Market (solve only)"),
}

# the settings that only one mode reads; the other rejects them rather than ignore them
_MODE_ONLY = {"mesh": "solve", "dump-system": "solve", "levels": "study"}

# the RunConfig fields that make_case takes as keyword arguments
_CASE_FIELDS = ("grid", "s", "c", "rho_e", "rho_f", "young", "poisson", "tau_e", "tau_a")


def load_config_file(path: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    first_line: dict[str, int] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value")
                key, value = (part.strip() for part in line.split("=", 1))
                if key in first_line:
                    raise ConfigError(f"{path}:{lineno}: key '{key}' already set on line "
                                      f"{first_line[key]}")
                first_line[key] = lineno
                pairs[key] = value
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return pairs


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdgwave",
        description="Hybridized DG solver for time-harmonic fluid-solid waves",
    )
    parser.add_argument("mode", choices=("solve", "study"))
    for key, (_, parser_fn, text) in _KEYS.items():
        if parser_fn is _parse_bool:  # a switch: the flag alone means "true"
            parser.add_argument(f"--{key}", action="store_const", const="true", help=text)
        else:
            parser.add_argument(f"--{key}", help=text)
    parser.add_argument("--config", help="key=value configuration file")
    return parser


def parse_config(ns: argparse.Namespace) -> RunConfig:
    """The run settings of the config file, overridden by the flags given."""
    in_file = load_config_file(ns.config) if ns.config else {}
    for key in in_file:
        if key not in _KEYS:
            raise ConfigError(f"unknown config key '{key}'")
    flags = {key: value for key in _KEYS
             if (value := getattr(ns, key.replace("-", "_"))) is not None}
    for key, mode in _MODE_ONLY.items():
        if mode != ns.mode and (key in in_file or key in flags):
            raise ConfigError(f"'{key}' applies to {mode} mode only, not to {ns.mode}")
    cfg = RunConfig(mode=ns.mode)
    # every value is parsed, one that a flag overrides too; flags come last and win
    for key, text in [*in_file.items(), *flags.items()]:
        field_name, parser_fn, _ = _KEYS[key]
        try:
            setattr(cfg, field_name, parser_fn(text))
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"bad value for '{key}': {exc}") from None
    if not 1 <= cfg.k <= MAX_BASIS_DEGREE:
        raise ConfigError(f"degree k={cfg.k} outside the supported range 1..{MAX_BASIS_DEGREE}")
    if cfg.levels < 1:
        raise ConfigError("levels must be at least 1")
    if cfg.grid is not None and cfg.grid < 1:
        raise ConfigError("grid must be a positive cell count")
    if cfg.grid is not None and cfg.mesh is not None:
        raise ConfigError("'grid' sizes the case's own mesh and does not apply with 'mesh'")
    return cfg


def _case_from_config(cfg: RunConfig):
    return make_case(cfg.case, **{name: getattr(cfg, name) for name in _CASE_FIELDS})


def _out_dir(cfg: RunConfig) -> str:
    path = cfg.out or os.environ.get("HDG_OUT_DIR") or "."
    os.makedirs(path, exist_ok=True)
    return path


def _mode_study(cfg: RunConfig, case) -> int:
    report = run_study(case, cfg.k, cfg.levels, log=print if cfg.verbose else None)
    report.write(_out_dir(cfg), case.name)
    print(report.to_csv(), end="")
    return 0


def _mode_solve(cfg: RunConfig, case, mesh) -> int:
    if mesh is None:
        mesh = case.mesh_at(0)
    assembler = Assembler(mesh, cfg.k, case.params)
    out = _out_dir(cfg)
    dump_prefix = os.path.join(out, "system") if cfg.dump_system else None
    start = time.perf_counter()
    solution, system = solve_problem(
        mesh, cfg.k, case.params, case.data,
        assembler=assembler, dump_prefix=dump_prefix,
    )
    solved = time.perf_counter()
    errors = compute_errors(assembler, solution, case.exact)
    measured = time.perf_counter()
    theta = compute_theta(assembler, solution, case.exact)
    # wall seconds per stage; study reports carry none, so they keep their bytes
    stages = {"solve_problem": solved - start, "compute_errors": measured - solved,
              "compute_theta": time.perf_counter() - measured}
    print(f"case={case.name} k={cfg.k} elements={mesh.n_elements} "
          f"N={system.dofmap.n_dofs} h={mesh.h:.6e}")
    for name in sorted(errors):
        print(f"err_{name}={errors[name]:.6e}")
    print(f"theta={theta:.6e}")
    stats = asdict(system.solve_stats)
    payload = {
        "case": case.name,
        "k": cfg.k,
        "N": system.dofmap.n_dofs,
        "h": mesh.h,
        "errors": errors,
        "theta": theta,
        "solve": stats,
        "stages": stages,
        # the process's peak resident set so far; ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if cfg.verbose:
        for name, value in stats.items():
            print(f"solve.{name}={value}")
        for name, seconds in stages.items():
            print(f"stages.{name}={seconds:.6f}")
        print(f"peak_rss_mb={payload['peak_rss_mb']}")
    with open(os.path.join(out, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = parse_config(ns)
        case = _case_from_config(cfg)  # validates case name and parameters
        # a malformed mesh file is rejected before any assembly work
        mesh = load_mesh(cfg.mesh) if cfg.mesh else None
        # the error norms need the case's exact fields on every domain of the mesh
        if mesh is not None:
            try:
                case.exact.check_covers(mesh)
            except ValueError as exc:
                raise ConfigError(f"case '{case.name}' has {exc} (mesh {cfg.mesh})") from None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an unreadable mesh file is an I/O failure
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if cfg.mode == "study":
            return _mode_study(cfg, case)
        return _mode_solve(cfg, case, mesh)
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
