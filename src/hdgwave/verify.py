"""Manufactured solutions, error norms, and convergence studies.

Each case bundles exact fields, the matching sources and boundary data,
and its meshes; studies refine the mesh, solve, and tabulate errors with
observed convergence orders.  Polynomial cases of exact degree k sit inside
the discrete spaces, so the solver must reproduce them to rounding — a
consistency check that needs no asymptotics.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .local_solver import Assembler, ModelParams, hooke_apply
from .mesh import Mesh, build_structured_coupled, refine
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

    def check_covers(self, mesh: Mesh) -> None:
        """Raise ValueError unless every domain of ``mesh`` has all its fields."""
        for domain, what, names in (("E", "solid", ("sigma", "u", "gamma_p")),
                                    ("A", "fluid", ("q", "v"))):
            missing = [name for name in names if getattr(self, name) is None]
            if missing and (mesh.tri_domain == domain).any():
                raise ValueError(f"no exact fields for the {what} domain ({domain}): "
                                 f"{', '.join(missing)} not set")


@dataclass
class ManufacturedCase:
    """A manufactured problem; ``mesh_at(level)`` builds each level's mesh once."""

    name: str
    params: ModelParams
    data: ProblemData
    exact: ExactFields
    mesh_at: Callable[[int], Mesh] = field(repr=False)


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


def _params_from_overrides(*, s=complex(2.0, -1.0), **overrides) -> ModelParams:
    """The ``ModelParams`` defaults (Young's modulus 1, Poisson ratio 0.3)
    with material and scheme overrides."""
    return ModelParams.from_young_poisson(s=complex(s), **overrides)


def _case(name: str, params: ModelParams, n0: int, *, acoustic=None, elastic=None,
          interface=None, ladder: bool = False) -> ManufacturedCase:
    """Wire fields into a case with its meshes.

    ``acoustic`` is (v, q, f) and ``elastic`` (u, sigma, f_e, gamma_p);
    their exact fields give every boundary datum (v, q.n_out and u).  With
    one of them the domain is the unit square; with both it is the solid
    square (-1,1)^2 inside a fluid frame out to (-2,2)^2, and ``interface``
    holds the transmission data.  The outer boundary is Dirichlet.  Level 0
    has ``n0`` cells per unit length; later levels refine it, or with
    ``ladder`` are built afresh at the ladder's cell counts.
    """
    data, exact = dict(interface or {}), {}
    if acoustic is not None:
        v, q, f = acoustic
        data.update(f=f, dirichlet=v,
                    neumann=lambda pts, n_out: np.sum(q(pts) * n_out, axis=1))
        exact.update(v=v, q=q)
    if elastic is not None:
        u, sigma, f_e, gamma_p = elastic
        data.update(f_elastic=f_e, u_dirichlet=u)
        exact.update(u=u, sigma=sigma, gamma_p=gamma_p)
    if acoustic is not None and elastic is not None:
        boxes, domain = ((-2.0, -2.0, 2.0, 2.0), (-1.0, -1.0, 1.0, 1.0)), "A"
    else:
        boxes, domain = ((0.0, 0.0, 1.0, 1.0),), "A" if elastic is None else "E"

    @functools.cache
    def mesh_at(level: int) -> Mesh:
        if ladder:
            # Non-nested ladder: refining by fresh construction (rather than
            # red subdivision) avoids the superconvergence that nested grids
            # show on coarse levels, and the final 16 -> 20 step reaches the
            # settled regime while staying within ~1e5 skeleton unknowns.
            rungs = (1, 2, 4, 8, 16, 20)
            n = rungs[level] if level < len(rungs) else rungs[-1] * 2 ** (level - len(rungs) + 1)
            return build_structured_coupled(n0 * n, *boxes, domain=domain)
        if level == 0:
            return build_structured_coupled(n0, *boxes, domain=domain)
        return refine(mesh_at(level - 1))

    return ManufacturedCase(name=name, params=params, data=ProblemData(**data),
                            exact=ExactFields(**exact), mesh_at=mesh_at)


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
        return _case(name, params, 2 if grid is None else grid,
                     acoustic=_trig_acoustic(params))
    if name == "elastic62":
        return _case(name, params, 2 if grid is None else grid,
                     elastic=_trig_elastic(params))
    if name == "coupled63":
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

        return _case(name, params, 1 if grid is None else grid,
                     acoustic=(v, q, f), elastic=(u, sigma, f_e, gamma_p),
                     interface=dict(v_inc=v_inc, grad_v_inc=grad_v_inc, g1=g1, g2=g2),
                     ladder=True)
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


def make_polynomial_case(kind: str, k: int, **overrides) -> ManufacturedCase:
    """Exact-degree-k polynomial analogue of each named case."""
    params = _params_from_overrides(**overrides)
    name = f"poly-{kind}-k{k}"
    if kind == "acoustic":
        return _case(name, params, 2, acoustic=_poly_acoustic_fields(params, k))
    if kind == "elastic":
        return _case(name, params, 2, elastic=_poly_elastic_fields(params, k))
    if kind == "coupled":
        v, q, f = _poly_acoustic_fields(params, k)
        u, sigma, f_e, gamma_p = _poly_elastic_fields(params, k)
        s, rho_f = params.s, params.rho_f

        def g1(pts, n_e):
            return -((q(pts) + s * u(pts)) * n_e).sum(axis=-1)

        def g2(pts, n_e):
            sig_n = (sigma(pts) * n_e[..., None, :]).sum(axis=-1)
            return -sig_n - rho_f * s * v(pts)[:, None] * n_e

        return _case(name, params, 1, acoustic=(v, q, f),
                     elastic=(u, sigma, f_e, gamma_p), interface=dict(g1=g1, g2=g2))
    raise ValueError(f"unknown polynomial case kind '{kind}'")


def compute_errors(assembler: Assembler, solution: FieldSolution,
                   exact: ExactFields) -> dict[str, float]:
    """Absolute L2 errors of every recovered field plus the weighted trace
    norms, those of each domain the mesh has.

    Trace norms follow the mesh-dependent convention: the squared face error
    is weighted by the diameter of each adjacent element (interior faces
    therefore count once per side).  The face error is that of the trace
    against the face-wise L2 projection of the exact field.  The skew field
    error uses the Frobenius norm of its matrix form.  The blocks are walked
    on two threads (``Assembler.map_blocks``); each gives its squared terms,
    which are summed here in block order, so the result has the bits of a
    serial walk.
    """
    exact.check_covers(assembler.mesh)
    parts = solution.parts

    def block_terms(blk) -> dict[str, float]:
        nb, n_p = blk.scalar.shape[:2]
        rows = solution.row[blk.elems]
        if blk.domain == "E":
            sig_h = blk.stress_at_points(parts["sigma"][rows])
            u_h = blk.at_points(parts["u"][rows].reshape(nb, 2, n_p))
            g_h = blk.at_points(parts["gamma"][rows])
            terms = {"sigma": blk.l2sq(sig_h - blk.sample_volume(exact.sigma)),
                     "u": blk.l2sq(u_h - blk.sample_volume(exact.u)),
                     "gamma": 2.0 * blk.l2sq(g_h - blk.sample_volume(exact.gamma_p))}
            trace, trace_fn, traces = "uhat", exact.u, solution.uhat
        else:
            q_h = blk.at_points(parts["q"][rows].reshape(nb, 2, n_p))
            terms = {"q": blk.l2sq(q_h - blk.sample_volume(exact.q)),
                     "v": blk.l2sq(blk.at_points(parts["v"][rows]) - blk.sample_volume(exact.v))}
            trace, trace_fn, traces = "vhat", exact.v, solution.vhat
        trace_err = blk.faces.moments(blk.faces.sample(trace_fn)) - traces[blk.face_ids]
        terms[trace] = float(blk.h @ np.sum(np.abs(trace_err) ** 2, axis=(1, 2)))
        return terms

    acc = dict.fromkeys(("sigma", "u", "gamma", "q", "v", "uhat", "vhat"), 0.0)
    for terms in assembler.map_blocks(block_terms):
        for name, term in terms.items():
            acc[name] += term
    names = [name for domain, named in (("E", ("sigma", "u", "gamma", "uhat")),
                                        ("A", ("q", "v", "vhat")))
             if (assembler.mesh.tri_domain == domain).any() for name in named]
    return {name: math.sqrt(acc[name]) for name in names}


def eoc(err_coarse: float, err_fine: float, h_coarse: float, h_fine: float) -> float:
    """Observed order between two mesh levels."""
    if err_coarse <= 0.0 or err_fine <= 0.0:
        return float("nan")
    return math.log(err_coarse / err_fine) / math.log(h_coarse / h_fine)


_ERROR_COLUMNS = ("sigma", "u", "gamma", "q", "v", "uhat", "vhat")
_COLUMNS = (*_ERROR_COLUMNS, "theta")  # the error columns, then theta


@dataclass
class StudyRow:
    level: int
    n_skeleton: int
    h: float
    errors: dict[str, float]
    theta: float
    orders: dict[str, float]


@dataclass
class ConvergenceReport:
    case: str
    k: int
    rows: list[StudyRow]

    def final_orders(self) -> dict[str, float]:
        return dict(self.rows[-1].orders) if self.rows else {}

    def to_csv(self) -> str:
        header = ["case,k,level,N,h", *(f"err_{c}" for c in _ERROR_COLUMNS), "theta",
                  *(f"eoc_{c}" for c in _COLUMNS)]
        lines = [",".join(header)]
        for row in self.rows:
            errors = {**row.errors, "theta": row.theta}
            cells = [self.case, str(self.k), str(row.level), str(row.n_skeleton), f"{row.h:.6e}"]
            cells += [f"{table[c]:.6e}" if c in table else ""
                      for table in (errors, row.orders) for c in _COLUMNS]
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
                    "eoc": {c: row.orders.get(c) for c in _COLUMNS},
                }
                for row in self.rows
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def to_dat(self) -> str:
        cols = [c for c in _ERROR_COLUMNS if self.rows and c in self.rows[0].errors]
        lines = ["# h " + " ".join(f"err_{c}" for c in cols) + " theta"]
        for row in self.rows:
            cells = [f"{row.h:.6e}"] + [f"{row.errors[c]:.6e}" for c in cols]
            lines.append(" ".join(cells + [f"{row.theta:.6e}"]))
        return "\n".join(lines) + "\n"

    def write(self, directory: str, tag: str) -> None:
        """Write report.csv, report.json and plot_<tag>_k<k>.dat into ``directory``."""
        for name, text in (("report.csv", self.to_csv()), ("report.json", self.to_json()),
                           (f"plot_{tag}_k{self.k}.dat", self.to_dat())):
            with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
                fh.write(text)


def run_study(case: ManufacturedCase, k: int, levels: int, *,
              log=None) -> ConvergenceReport:
    """Solve on ``levels`` successively refined meshes and tabulate errors;
    ``log``, when given, receives one line per level."""
    rows: list[StudyRow] = []
    prev: StudyRow | None = None
    for level in range(levels):
        mesh = case.mesh_at(level)
        assembler = Assembler(mesh, k, case.params)
        solution, system = solve_problem(
            mesh, k, case.params, case.data, assembler=assembler
        )
        errors = compute_errors(assembler, solution, case.exact)
        theta = compute_theta(assembler, solution, case.exact)
        orders: dict[str, float] = {}
        if prev is not None:
            for name, err in errors.items():
                orders[name] = eoc(prev.errors[name], err, prev.h, mesh.h)
            if prev.theta:
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
        if log is not None:
            err_txt = " ".join(f"{n}={e:.3e}" for n, e in sorted(errors.items()))
            log(f"{case.name} k={k} level={level} h={mesh.h:.4f} "
                f"N={row.n_skeleton} {err_txt}")
    return ConvergenceReport(case=case.name, k=k, rows=rows)
