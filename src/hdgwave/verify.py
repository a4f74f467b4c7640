"""Manufactured solutions, error norms, and convergence studies.

Each case bundles exact fields, the matching sources and boundary data,
and a base mesh; studies refine the mesh, solve, and tabulate errors with
observed convergence orders.  Polynomial cases of exact degree k sit inside
the discrete spaces, so the solver must reproduce them to rounding — a
consistency check that needs no asymptotics.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .local_solver import Assembler, ModelParams, hooke_apply
from .mesh import FaceKind, Mesh, build_structured_coupled, refine
from .projections import compute_theta
from .skeleton import FieldSolution, ProblemData, solve_problem


@dataclass(frozen=True)
class ExactFields:
    """Exact solution callables; only the fields the case covers are set.

    ``gamma_p`` is the scalar generator p of the skew part [[0, p], [-p, 0]].
    """

    v: Callable | None = None        # (n,2) -> (n,)
    q: Callable | None = None        # (n,2) -> (n,2)
    u: Callable | None = None        # (n,2) -> (n,2)
    sigma: Callable | None = None    # (n,2) -> (n,2,2)
    gamma_p: Callable | None = None  # (n,2) -> (n,)


@dataclass
class ManufacturedCase:
    name: str
    params: ModelParams
    data: ProblemData
    exact: ExactFields
    base_mesh: Callable[[], Mesh]
    mesh_builder: Callable[[int], Mesh] | None = None
    _meshes: dict[int, Mesh] = field(default_factory=dict, repr=False)

    def mesh_at(self, level: int) -> Mesh:
        if level not in self._meshes:
            if self.mesh_builder is not None:
                self._meshes[level] = self.mesh_builder(level)
            elif level == 0:
                self._meshes[0] = self.base_mesh()
            else:
                self._meshes[level] = refine(self.mesh_at(level - 1))
        return self._meshes[level]

    @property
    def fields(self) -> tuple[str, ...]:
        names = []
        if self.exact.sigma is not None:
            names += ["sigma", "u", "gamma"]
        if self.exact.v is not None:
            names += ["q", "v"]
        return tuple(names)


def _trig_acoustic(params: ModelParams):
    freq = (params.s / params.c) ** 2

    def v(pts):
        return np.sin(pts[:, 0]) * np.sin(pts[:, 1])

    def q(pts):
        return np.stack(
            [np.cos(pts[:, 0]) * np.sin(pts[:, 1]),
             np.sin(pts[:, 0]) * np.cos(pts[:, 1])],
            axis=1,
        )

    def f(pts):
        return (2.0 + freq) * v(pts)

    return v, q, f


def _trig_elastic(params: ModelParams):
    lam, mu = params.lam, params.mu
    pi = np.pi

    def u(pts):
        return np.stack(
            [np.sin(pi * pts[:, 0]) * np.cos(pi * pts[:, 1]),
             np.cos(pi * pts[:, 0]) * np.sin(pi * pts[:, 1])],
            axis=1,
        )

    def sigma(pts):
        d = pi * np.cos(pi * pts[:, 0]) * np.cos(pi * pts[:, 1])
        off = -2.0 * mu * pi * np.sin(pi * pts[:, 0]) * np.sin(pi * pts[:, 1])
        out = np.zeros((pts.shape[0], 2, 2), dtype=complex)
        out[:, 0, 0] = 2.0 * (mu + lam) * d
        out[:, 1, 1] = 2.0 * (mu + lam) * d
        out[:, 0, 1] = off
        out[:, 1, 0] = off
        return out

    def f_e(pts):
        coef = 2.0 * pi**2 * (2.0 * mu + lam) + params.rho_e * params.s**2
        return coef * u(pts)

    def gamma_p(pts):
        return np.zeros(pts.shape[0], dtype=complex)

    return u, sigma, f_e, gamma_p


def _params_from_overrides(*, s=None, c=None, rho_e=None, rho_f=None, young=None,
                           poisson=None, tau_e=None, tau_a=None) -> ModelParams:
    return ModelParams.from_young_poisson(
        young=1.0 if young is None else young,
        poisson=0.3 if poisson is None else poisson,
        s=complex(2.0, -1.0) if s is None else complex(s),
        c=1.0 if c is None else c,
        rho_e=1.0 if rho_e is None else rho_e,
        rho_f=1.0 if rho_f is None else rho_f,
        tau_e=1.0 if tau_e is None else tau_e,
        tau_a=1.0 if tau_a is None else tau_a,
    )


def make_case(name: str, *, grid: int | None = None, **overrides) -> ManufacturedCase:
    """Build one of the named manufactured cases.

    ``acoustic61``: fluid-only unit square, all-Dirichlet.  ``elastic62``:
    solid-only unit square with prescribed displacement trace.
    ``coupled63``: solid square (-1,1)^2 inside a fluid frame out to
    (-2,2)^2, Dirichlet on the outer boundary.  ``grid`` sets the base
    cells per unit length; material overrides are keyword arguments.
    """
    params = _params_from_overrides(**overrides)
    if name == "acoustic61":
        n0 = 2 if grid is None else grid
        v, q, f = _trig_acoustic(params)
        return ManufacturedCase(
            name=name,
            params=params,
            data=ProblemData(f=f, dirichlet=v),
            exact=ExactFields(v=v, q=q),
            base_mesh=lambda: build_structured_coupled(n0, (0.0, 0.0, 1.0, 1.0)),
        )
    if name == "elastic62":
        n0 = 2 if grid is None else grid
        u, sigma, f_e, gamma_p = _trig_elastic(params)
        return ManufacturedCase(
            name=name,
            params=params,
            data=ProblemData(f_elastic=f_e, u_dirichlet=u),
            exact=ExactFields(u=u, sigma=sigma, gamma_p=gamma_p),
            base_mesh=lambda: build_structured_coupled(
                n0, (0.0, 0.0, 1.0, 1.0), domain="E"
            ),
        )
    if name == "coupled63":
        n0 = 1 if grid is None else grid
        v, q, f = _trig_acoustic(params)
        u, sigma, f_e, gamma_p = _trig_elastic(params)
        s = params.s

        def v_inc(pts):
            return -v(pts)

        def grad_v_inc(pts):
            return -q(pts)

        def g1(pts, n_e):
            return -s * (u(pts) * n_e).sum(axis=-1)

        def g2(pts, n_e):
            return -(sigma(pts) * n_e[..., None, :]).sum(axis=-1)

        def coupled_mesh(level: int) -> Mesh:
            # Non-nested ladder: refining by fresh construction (rather than
            # red subdivision) avoids the superconvergence that nested grids
            # show on coarse levels, and the final 16 -> 20 step reaches the
            # settled regime while staying within ~1e5 skeleton unknowns.
            ladder = (1, 2, 4, 8, 16, 20)
            n = ladder[level] if level < len(ladder) else ladder[-1] * 2 ** (level - len(ladder) + 1)
            return build_structured_coupled(
                n0 * n, (-2.0, -2.0, 2.0, 2.0), (-1.0, -1.0, 1.0, 1.0)
            )

        return ManufacturedCase(
            name=name,
            params=params,
            data=ProblemData(
                f=f, f_elastic=f_e, dirichlet=v,
                v_inc=v_inc, grad_v_inc=grad_v_inc, g1=g1, g2=g2,
            ),
            exact=ExactFields(v=v, q=q, u=u, sigma=sigma, gamma_p=gamma_p),
            base_mesh=lambda: build_structured_coupled(
                n0, (-2.0, -2.0, 2.0, 2.0), (-1.0, -1.0, 1.0, 1.0)
            ),
            mesh_builder=coupled_mesh,
        )
    raise ValueError(
        f"unknown case '{name}'; expected acoustic61, elastic62, or coupled63"
    )


@dataclass(frozen=True)
class AffinePower:
    """(c0 + ax*x + ay*y)**k with closed-form derivatives."""

    c0: float
    ax: float
    ay: float
    k: int

    def _base(self, pts):
        return self.c0 + self.ax * pts[:, 0] + self.ay * pts[:, 1]

    def val(self, pts):
        return self._base(pts) ** self.k

    def grad(self, pts):
        if self.k == 0:
            return np.zeros((pts.shape[0], 2))
        g = self.k * self._base(pts) ** (self.k - 1)
        return np.stack([self.ax * g, self.ay * g], axis=1)

    def hess(self, pts):
        out = np.zeros((pts.shape[0], 2, 2))
        if self.k < 2:
            return out
        h = self.k * (self.k - 1) * self._base(pts) ** (self.k - 2)
        out[:, 0, 0] = self.ax**2 * h
        out[:, 0, 1] = self.ax * self.ay * h
        out[:, 1, 0] = out[:, 0, 1]
        out[:, 1, 1] = self.ay**2 * h
        return out


def _poly_acoustic_fields(params: ModelParams, k: int):
    p = AffinePower(0.4, 0.6, -0.5, k)
    freq = (params.s / params.c) ** 2

    def v(pts):
        return p.val(pts).astype(complex)

    def q(pts):
        return p.grad(pts).astype(complex)

    def f(pts):
        lap = p.hess(pts)
        return freq * p.val(pts) - (lap[:, 0, 0] + lap[:, 1, 1])

    return v, q, f


def _poly_elastic_fields(params: ModelParams, k: int):
    p1 = AffinePower(0.3, 0.5, 0.4, k)
    p2 = AffinePower(-0.2, -0.3, 0.6, k)
    lam, mu = params.lam, params.mu

    def u(pts):
        return np.stack([p1.val(pts), p2.val(pts)], axis=1).astype(complex)

    def jac(pts):
        return np.stack([p1.grad(pts), p2.grad(pts)], axis=1)  # [comp, deriv]

    def gamma_p(pts):
        j = jac(pts)
        return (0.5 * (j[:, 0, 1] - j[:, 1, 0])).astype(complex)

    def sigma(pts):
        j = jac(pts)
        sym = 0.5 * (j + np.transpose(j, (0, 2, 1)))
        return hooke_apply(sym, lam, mu).astype(complex)

    def f_e(pts):
        h1, h2 = p1.hess(pts), p2.hess(pts)
        lap = np.stack([h1[:, 0, 0] + h1[:, 1, 1], h2[:, 0, 0] + h2[:, 1, 1]], axis=1)
        grad_div = np.stack(
            [h1[:, 0, 0] + h2[:, 0, 1], h1[:, 1, 0] + h2[:, 1, 1]], axis=1
        )
        div_sigma = mu * lap + (mu + lam) * grad_div
        return params.rho_e * params.s**2 * u(pts) - div_sigma

    return u, sigma, f_e, gamma_p


def make_polynomial_case(kind: str, k: int, *, grid: int | None = None,
                         **overrides) -> ManufacturedCase:
    """Exact-degree-k polynomial analogue of each named case."""
    params = _params_from_overrides(**overrides)
    if kind == "acoustic":
        v, q, f = _poly_acoustic_fields(params, k)
        return ManufacturedCase(
            name=f"poly-acoustic-k{k}",
            params=params,
            data=ProblemData(f=f, dirichlet=v),
            exact=ExactFields(v=v, q=q),
            base_mesh=lambda: build_structured_coupled(
                grid or 2, (0.0, 0.0, 1.0, 1.0)
            ),
        )
    if kind == "elastic":
        u, sigma, f_e, gamma_p = _poly_elastic_fields(params, k)
        return ManufacturedCase(
            name=f"poly-elastic-k{k}",
            params=params,
            data=ProblemData(f_elastic=f_e, u_dirichlet=u),
            exact=ExactFields(u=u, sigma=sigma, gamma_p=gamma_p),
            base_mesh=lambda: build_structured_coupled(
                grid or 2, (0.0, 0.0, 1.0, 1.0), domain="E"
            ),
        )
    if kind == "coupled":
        v, q, f = _poly_acoustic_fields(params, k)
        u, sigma, f_e, gamma_p = _poly_elastic_fields(params, k)
        s, rho_f = params.s, params.rho_f

        def g1(pts, n_e):
            return -((q(pts) + s * u(pts)) * n_e).sum(axis=-1)

        def g2(pts, n_e):
            sig_n = (sigma(pts) * n_e[..., None, :]).sum(axis=-1)
            return -sig_n - rho_f * s * v(pts)[:, None] * n_e

        return ManufacturedCase(
            name=f"poly-coupled-k{k}",
            params=params,
            data=ProblemData(f=f, f_elastic=f_e, dirichlet=v, g1=g1, g2=g2),
            exact=ExactFields(v=v, q=q, u=u, sigma=sigma, gamma_p=gamma_p),
            base_mesh=lambda: build_structured_coupled(
                grid or 1, (-2.0, -2.0, 2.0, 2.0), (-1.0, -1.0, 1.0, 1.0)
            ),
        )
    raise ValueError(f"unknown polynomial case kind '{kind}'")


def compute_errors(assembler: Assembler, solution: FieldSolution,
                   exact: ExactFields) -> dict[str, float]:
    """Absolute L2 errors of every recovered field plus the weighted trace norms.

    Trace norms follow the mesh-dependent convention: the squared face error
    is weighted by the diameter of each adjacent element (interior faces
    therefore count once per side).  The face error is that of the trace
    against the face-wise L2 projection of the exact field.  The skew field
    error uses the Frobenius norm of its matrix form.
    """
    parts = solution.parts
    acc = dict.fromkeys(("sigma", "u", "gamma", "q", "v", "uhat", "vhat"), 0.0)
    for blk in assembler.blocks():
        nb, n_p = blk.scalar.shape[:2]
        rows = solution.row[blk.elems]
        if blk.domain == "E":
            sig_h = blk.stress_at_points(parts["sigma"][rows])
            acc["sigma"] += blk.l2sq(sig_h - blk.sample_volume(exact.sigma))
            u_h = blk.at_points(parts["u"][rows].reshape(nb, 2, n_p))
            acc["u"] += blk.l2sq(u_h - blk.sample_volume(exact.u))
            g_h = blk.at_points(parts["gamma"][rows])
            acc["gamma"] += 2.0 * blk.l2sq(g_h - blk.sample_volume(exact.gamma_p))
            trace, trace_fn, traces = "uhat", exact.u, solution.uhat
        else:
            q_h = blk.at_points(parts["q"][rows].reshape(nb, 2, n_p))
            acc["q"] += blk.l2sq(q_h - blk.sample_volume(exact.q))
            acc["v"] += blk.l2sq(blk.at_points(parts["v"][rows]) - blk.sample_volume(exact.v))
            trace, trace_fn, traces = "vhat", exact.v, solution.vhat
        trace_err = blk.faces.moments(blk.faces.sample(trace_fn)) - traces[blk.face_ids]
        acc[trace] += float(blk.h @ np.sum(np.abs(trace_err) ** 2, axis=(1, 2)))

    names = []
    if exact.sigma is not None:
        names += ["sigma", "u", "gamma", "uhat"]
    if exact.v is not None:
        names += ["q", "v", "vhat"]
    return {name: math.sqrt(acc[name]) for name in names}


def eoc(err_coarse: float, err_fine: float, h_coarse: float, h_fine: float) -> float:
    """Observed order between two mesh levels."""
    if err_coarse <= 0.0 or err_fine <= 0.0:
        return float("nan")
    return math.log(err_coarse / err_fine) / math.log(h_coarse / h_fine)


_ERROR_COLUMNS = ("sigma", "u", "gamma", "q", "v", "uhat", "vhat")


@dataclass
class StudyRow:
    level: int
    n_skeleton: int
    h: float
    errors: dict[str, float]
    theta: float | None
    orders: dict[str, float]


@dataclass
class ConvergenceReport:
    case: str
    k: int
    rows: list[StudyRow]

    def final_orders(self) -> dict[str, float]:
        return dict(self.rows[-1].orders) if self.rows else {}

    def to_csv(self) -> str:
        header = (
            "case,k,level,N,h,"
            + ",".join(f"err_{c}" for c in _ERROR_COLUMNS)
            + ",theta,"
            + ",".join(f"eoc_{c}" for c in _ERROR_COLUMNS)
            + ",eoc_theta"
        )
        lines = [header]
        for row in self.rows:
            cells = [self.case, str(self.k), str(row.level),
                     str(row.n_skeleton), f"{row.h:.6e}"]
            for c in _ERROR_COLUMNS:
                cells.append(f"{row.errors[c]:.6e}" if c in row.errors else "")
            cells.append("" if row.theta is None else f"{row.theta:.6e}")
            for c in _ERROR_COLUMNS:
                cells.append(f"{row.orders[c]:.6e}" if c in row.orders else "")
            cells.append(
                f"{row.orders['theta']:.6e}" if "theta" in row.orders else ""
            )
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "case": self.case,
            "k": self.k,
            "rows": [
                {
                    "level": row.level,
                    "N": row.n_skeleton,
                    "h": row.h,
                    "errors": {c: row.errors.get(c) for c in _ERROR_COLUMNS},
                    "theta": row.theta,
                    "eoc": {
                        c: row.orders.get(c)
                        for c in (*_ERROR_COLUMNS, "theta")
                    },
                }
                for row in self.rows
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def to_dat(self) -> str:
        cols = [c for c in _ERROR_COLUMNS if self.rows and c in self.rows[0].errors]
        with_theta = bool(self.rows) and self.rows[0].theta is not None
        header = "# h " + " ".join(f"err_{c}" for c in cols)
        if with_theta:
            header += " theta"
        lines = [header]
        for row in self.rows:
            cells = [f"{row.h:.6e}"] + [f"{row.errors[c]:.6e}" for c in cols]
            if with_theta:
                cells.append(f"{row.theta:.6e}")
            lines.append(" ".join(cells))
        return "\n".join(lines) + "\n"


def run_study(case: ManufacturedCase, k: int, levels: int, *,
              with_theta: bool = True, verbose: bool = False,
              log=None) -> ConvergenceReport:
    """Solve on ``levels`` successively refined meshes and tabulate errors."""
    rows: list[StudyRow] = []
    prev: StudyRow | None = None
    for level in range(levels):
        mesh = case.mesh_at(level)
        assembler = Assembler(mesh, k, case.params)
        solution, system = solve_problem(
            mesh, k, case.params, case.data, assembler=assembler
        )
        errors = compute_errors(assembler, solution, case.exact)
        theta = compute_theta(assembler, solution, case.exact) if with_theta else None
        orders: dict[str, float] = {}
        if prev is not None:
            for name, err in errors.items():
                orders[name] = eoc(prev.errors[name], err, prev.h, mesh.h)
            if with_theta and prev.theta:
                orders["theta"] = eoc(prev.theta, theta, prev.h, mesh.h)
        row = StudyRow(
            level=level,
            n_skeleton=system.dofmap.n_dofs,
            h=mesh.h,
            errors=errors,
            theta=theta,
            orders=orders,
        )
        rows.append(row)
        prev = row
        if verbose and log is not None:
            err_txt = " ".join(f"{n}={e:.3e}" for n, e in sorted(errors.items()))
            log(f"{case.name} k={k} level={level} h={mesh.h:.4f} "
                f"N={row.n_skeleton} {err_txt}")
    return ConvergenceReport(case=case.name, k=k, rows=rows)
