"""Conforming triangulations of coupled solid/fluid domains.

Structured criss-cross meshes over axis-aligned boxes: every grid cell is
split along its bottom-left to top-right diagonal, cells inside the inner
box are solid (domain ``E``), the rest fluid (domain ``A``).  Each face
stores one global frame: canonical endpoint order is lexicographic in the
coordinates, the unit normal is the tangent rotated by -90 degrees, and
every adjacent element records the sign relating its outward normal to the
stored one.  ``face_rule`` integrates along that canonical direction, so both
neighbours of a face share its quadrature and basis.  Red refinement
quarters each triangle and child boundary faces inherit the parent kind.

The plain-text ``hdgmesh v1`` format serializes vertices, triangles with
their domain tag, and faces with their kind; adjacency, normals, and
lengths are derived on load.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .quadbasis import edge_basis_values, make_edge_quadrature


class FaceKind(str, Enum):
    INTERIOR_E = "interiorE"
    INTERIOR_A = "interiorA"
    GAMMA = "gamma"
    GAMMA_AD = "gammaAD"
    GAMMA_AN = "gammaAN"
    ELASTIC_BOUNDARY = "elasticBoundary"


ELASTIC_TRACE_KINDS = frozenset(
    {FaceKind.INTERIOR_E, FaceKind.GAMMA, FaceKind.ELASTIC_BOUNDARY}
)
ACOUSTIC_TRACE_KINDS = frozenset(
    {FaceKind.INTERIOR_A, FaceKind.GAMMA, FaceKind.GAMMA_AD, FaceKind.GAMMA_AN}
)

_LOCAL_EDGES = ((0, 1), (1, 2), (2, 0))


@dataclass(frozen=True)
class FaceSide:
    element: int
    local_edge: int
    sign: int  # +1 when the stored normal points out of this element


@dataclass
class Face:
    vertices: tuple[int, int]  # canonical (lexicographic by coordinates) order
    kind: FaceKind
    normal: np.ndarray
    length: float
    sides: tuple[FaceSide, ...]


@dataclass
class Mesh:
    vertices: np.ndarray       # (nv, 2)
    tri_vertices: np.ndarray   # (nt, 3) CCW
    tri_domain: np.ndarray     # (nt,) of 'E'/'A'
    faces: list[Face]
    element_faces: np.ndarray  # (nt, 3) face index per local edge
    h_e: float = 0.0
    h_a: float = 0.0

    @property
    def n_elements(self) -> int:
        return self.tri_vertices.shape[0]

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    @property
    def h(self) -> float:
        return max(self.h_e, self.h_a)

    def triangle(self, elem: int) -> np.ndarray:
        return self.vertices[self.tri_vertices[elem]]

    def element_diameter(self, elem: int) -> float:
        tri = self.triangle(elem)
        return float(
            max(np.linalg.norm(tri[(i + 1) % 3] - tri[i]) for i in range(3))
        )

    def faces_of_kind(self, *kinds: FaceKind) -> list[int]:
        wanted = set(kinds)
        return [i for i, f in enumerate(self.faces) if f.kind in wanted]


def _signed_area(tri: np.ndarray) -> float:
    return 0.5 * float(
        (tri[1, 0] - tri[0, 0]) * (tri[2, 1] - tri[0, 1])
        - (tri[2, 0] - tri[0, 0]) * (tri[1, 1] - tri[0, 1])
    )


def _lex_less(p: np.ndarray, q: np.ndarray) -> bool:
    if p[0] != q[0]:
        return p[0] < q[0]
    return p[1] < q[1]


def _assemble(
    vertices: np.ndarray,
    tri_vertices: np.ndarray,
    tri_domain: np.ndarray,
    kind_override: dict[tuple[int, int], FaceKind] | None,
    boundary_classifier: Callable[[np.ndarray, str], FaceKind] | None,
) -> Mesh:
    """Build faces, adjacency, and normals from raw triangles.

    Interior kinds follow the adjacent domains; boundary faces take their
    kind from ``kind_override`` (sorted vertex pair) or, failing that, from
    ``boundary_classifier(midpoint, domain)``.
    """
    vertices = np.asarray(vertices, dtype=float)
    tri_vertices = np.asarray(tri_vertices, dtype=int).copy()
    tri_domain = np.asarray(tri_domain)

    for t in range(tri_vertices.shape[0]):
        if _signed_area(vertices[tri_vertices[t]]) < 0.0:
            tri_vertices[t, [1, 2]] = tri_vertices[t, [2, 1]]

    edge_sides: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for t, tri in enumerate(tri_vertices):
        for le, (i0, i1) in enumerate(_LOCAL_EDGES):
            key = tuple(sorted((int(tri[i0]), int(tri[i1]))))
            edge_sides.setdefault(key, []).append((t, le))

    faces: list[Face] = []
    element_faces = np.full((tri_vertices.shape[0], 3), -1, dtype=int)
    for key in sorted(edge_sides):
        sides_raw = edge_sides[key]
        if len(sides_raw) > 2:
            raise ValueError(f"face {key} shared by more than two triangles")
        a, b = key
        if _lex_less(vertices[b], vertices[a]):
            a, b = b, a
        direction = vertices[b] - vertices[a]
        length = float(np.linalg.norm(direction))
        if length <= 0.0:
            raise ValueError(f"zero-length face {key}")
        tangent = direction / length
        normal = np.array([tangent[1], -tangent[0]])

        sides = []
        for t, le in sides_raw:
            tri = vertices[tri_vertices[t]]
            i0, i1 = _LOCAL_EDGES[le]
            d = tri[i1] - tri[i0]
            outward = np.array([d[1], -d[0]])  # CCW + clockwise rotation
            sign = 1 if float(outward @ normal) > 0.0 else -1
            sides.append(FaceSide(t, le, sign))
            element_faces[t, le] = len(faces)

        domains = sorted(tri_domain[s.element] for s in sides)
        key_sorted = (min(key), max(key))
        if len(sides) == 2:
            if domains == ["A", "A"]:
                kind = FaceKind.INTERIOR_A
            elif domains == ["E", "E"]:
                kind = FaceKind.INTERIOR_E
            else:
                kind = FaceKind.GAMMA
            forced = kind_override.get(key_sorted) if kind_override else None
            if forced is not None and forced != kind:
                raise ValueError(
                    f"face {key} adjacency implies {kind.value}, file says {forced.value}"
                )
        else:
            kind = kind_override.get(key_sorted) if kind_override else None
            if kind is None and boundary_classifier is not None:
                midpoint = 0.5 * (vertices[a] + vertices[b])
                kind = boundary_classifier(midpoint, domains[0])
            if kind is None:
                raise ValueError(f"boundary face {key} has no kind assignment")

        faces.append(
            Face(
                vertices=(a, b),
                kind=kind,
                normal=normal,
                length=length,
                sides=tuple(sides),
            )
        )

    mesh = Mesh(
        vertices=vertices,
        tri_vertices=tri_vertices,
        tri_domain=tri_domain,
        faces=faces,
        element_faces=element_faces,
    )
    mesh.h_e, mesh.h_a = _domain_diameters(mesh)
    validate_mesh(mesh)
    return mesh


def _domain_diameters(mesh: Mesh) -> tuple[float, float]:
    h_e = h_a = 0.0
    for t in range(mesh.n_elements):
        h = mesh.element_diameter(t)
        if mesh.tri_domain[t] == "E":
            h_e = max(h_e, h)
        else:
            h_a = max(h_a, h)
    return h_e, h_a


def validate_mesh(mesh: Mesh) -> None:
    """Raise on degenerate triangles, broken adjacency, or bad face frames."""
    for t in range(mesh.n_elements):
        tri = mesh.triangle(t)
        h = mesh.element_diameter(t)
        if _signed_area(tri) <= 1e-14 * h * h:
            raise ValueError(f"triangle {t} degenerate or mis-ordered")
    for i, face in enumerate(mesh.faces):
        if abs(np.linalg.norm(face.normal) - 1.0) > 1e-14:
            raise ValueError(f"face {i} normal not unit length")
        if not 1 <= len(face.sides) <= 2:
            raise ValueError(f"face {i} has {len(face.sides)} sides")
        domains = sorted(mesh.tri_domain[s.element] for s in face.sides)
        if face.kind == FaceKind.GAMMA and domains != ["A", "E"]:
            raise ValueError(f"gamma face {i} not between one solid and one fluid element")
        if face.kind in (FaceKind.INTERIOR_A, FaceKind.INTERIOR_E) and len(face.sides) != 2:
            raise ValueError(f"interior face {i} has one side")
        if len(face.sides) == 2 and face.sides[0].sign * face.sides[1].sign != -1:
            raise ValueError(f"face {i} outward normals do not oppose")
        for s in face.sides:
            if mesh.element_faces[s.element, s.local_edge] != i:
                raise ValueError(f"face {i} adjacency table inconsistent")


def _grid_count(lo: float, hi: float, n_per_unit: int, what: str) -> int:
    cells = (hi - lo) * n_per_unit
    if abs(cells - round(cells)) > 1e-9 or round(cells) < 1:
        raise ValueError(f"interface not resolvable: {what} extent {hi - lo} "
                         f"is not a positive multiple of 1/{n_per_unit}")
    return int(round(cells))


def _on_grid(value: float, origin: float, spacing: float) -> bool:
    steps = (value - origin) / spacing
    return abs(steps - round(steps)) < 1e-9


def build_structured_coupled(
    n_per_unit: int,
    outer_box,
    inner_box=None,
    *,
    dirichlet_only: bool = True,
    domain: str = "A",
    neumann_predicate: Callable[[np.ndarray], bool] | None = None,
    jitter: float = 0.0,
    seed: int = 0,
) -> Mesh:
    """Criss-cross grid over ``outer_box`` with ``inner_box`` as the solid.

    Boxes are (xmin, ymin, xmax, ymax).  Without an inner box the whole mesh
    belongs to ``domain`` ('A' for a fluid-only mesh whose boundary carries
    Dirichlet/Neumann scalar data, 'E' for a solid-only mesh with prescribed
    displacement traces).  The inner box must lie strictly inside the outer
    box with all four sides on grid lines, otherwise the transmission
    interface is not resolvable and a ValueError is raised.

    With ``dirichlet_only`` every fluid boundary face is Dirichlet; otherwise
    faces whose midpoint satisfies ``neumann_predicate`` (default: the
    x = xmax side) become Neumann.

    ``jitter`` displaces every lattice vertex away from the domain boundary
    and the transmission interface by a uniform random offset of at most
    ``jitter`` cell widths per coordinate (seeded, hence reproducible).
    This yields quasi-uniform meshes free of the lattice superconvergence
    that nested structured grids exhibit; boundary and interface geometry
    are preserved exactly.
    """
    if n_per_unit < 1:
        raise ValueError("n_per_unit must be a positive integer")
    x0, y0, x1, y1 = (float(v) for v in outer_box)
    if not (x1 > x0 and y1 > y0):
        raise ValueError("outer box is empty")
    nx = _grid_count(x0, x1, n_per_unit, "outer x")
    ny = _grid_count(y0, y1, n_per_unit, "outer y")
    spacing = 1.0 / n_per_unit

    if inner_box is not None:
        ix0, iy0, ix1, iy1 = (float(v) for v in inner_box)
        if not (ix1 > ix0 and iy1 > iy0):
            raise ValueError("interface not resolvable: inner box is empty")
        if not (x0 < ix0 and ix1 < x1 and y0 < iy0 and iy1 < y1):
            raise ValueError("interface not resolvable: inner box must lie strictly "
                             "inside the outer box")
        for v, o in ((ix0, x0), (ix1, x0)):
            if not _on_grid(v, o, spacing):
                raise ValueError("interface not resolvable: inner x bounds off-grid")
        for v, o in ((iy0, y0), (iy1, y0)):
            if not _on_grid(v, o, spacing):
                raise ValueError("interface not resolvable: inner y bounds off-grid")
    if domain not in ("A", "E"):
        raise ValueError("domain must be 'A' or 'E'")

    xs = x0 + spacing * np.arange(nx + 1)
    ys = y0 + spacing * np.arange(ny + 1)
    vid = lambda i, j: j * (nx + 1) + i
    vertices = np.array([[xs[i], ys[j]] for j in range(ny + 1) for i in range(nx + 1)])

    if jitter:
        if not 0.0 < jitter <= 0.2:
            raise ValueError("jitter must lie in (0, 0.2] cell widths")
        rng = np.random.default_rng(seed)
        offsets = rng.uniform(-jitter * spacing, jitter * spacing, size=vertices.shape)
        movable = np.ones(len(vertices), dtype=bool)
        for v, (x, y) in enumerate(vertices):
            on_outer = (abs(x - x0) < 1e-12 or abs(x - x1) < 1e-12
                        or abs(y - y0) < 1e-12 or abs(y - y1) < 1e-12)
            on_inner = False
            if inner_box is not None:
                on_inner = (((abs(x - ix0) < 1e-12 or abs(x - ix1) < 1e-12)
                             and iy0 - 1e-12 <= y <= iy1 + 1e-12)
                            or ((abs(y - iy0) < 1e-12 or abs(y - iy1) < 1e-12)
                                and ix0 - 1e-12 <= x <= ix1 + 1e-12))
            if on_outer or on_inner:
                movable[v] = False
        vertices = vertices + offsets * movable[:, None]

    tris = []
    domains = []
    for j in range(ny):
        for i in range(nx):
            cx = x0 + (i + 0.5) * spacing
            cy = y0 + (j + 0.5) * spacing
            if inner_box is not None and ix0 < cx < ix1 and iy0 < cy < iy1:
                cell_domain = "E"
            else:
                cell_domain = domain if inner_box is None else "A"
            bl, br = vid(i, j), vid(i + 1, j)
            tl, tr = vid(i, j + 1), vid(i + 1, j + 1)
            tris.append((bl, br, tr))  # diagonal bl -> tr, fixed for every cell
            tris.append((bl, tr, tl))
            domains.extend([cell_domain, cell_domain])

    if jitter:
        tv = vertices[np.array(tris)]
        signed = ((tv[:, 1, 0] - tv[:, 0, 0]) * (tv[:, 2, 1] - tv[:, 0, 1])
                  - (tv[:, 1, 1] - tv[:, 0, 1]) * (tv[:, 2, 0] - tv[:, 0, 0]))
        if float(signed.min()) <= 0.0:
            raise ValueError("jitter produced an inverted triangle; lower the amplitude")

    def classify_boundary(midpoint: np.ndarray, dom: str) -> FaceKind:
        if dom == "E":
            return FaceKind.ELASTIC_BOUNDARY
        if dirichlet_only:
            return FaceKind.GAMMA_AD
        pred = neumann_predicate or (lambda p: abs(p[0] - x1) < 1e-12)
        return FaceKind.GAMMA_AN if pred(midpoint) else FaceKind.GAMMA_AD

    mesh = _assemble(vertices, np.array(tris), np.array(domains), None, classify_boundary)

    if inner_box is not None:
        for i, face in enumerate(mesh.faces):
            if face.kind != FaceKind.GAMMA:
                continue
            mid = 0.5 * (mesh.vertices[face.vertices[0]] + mesh.vertices[face.vertices[1]])
            on_x = (abs(mid[0] - ix0) < 1e-12 or abs(mid[0] - ix1) < 1e-12) and iy0 <= mid[1] <= iy1
            on_y = (abs(mid[1] - iy0) < 1e-12 or abs(mid[1] - iy1) < 1e-12) and ix0 <= mid[0] <= ix1
            if not (on_x or on_y):
                raise ValueError(f"gamma face {i} strays from the inner box boundary")
    return mesh


def refine(mesh: Mesh) -> Mesh:
    """Red refinement: quarter every triangle through the edge midpoints.

    Child faces lying on a parent face inherit its kind; fresh interior
    faces get their kind from the adjacent domains.
    """
    vertices = [v for v in mesh.vertices]
    midpoint_of: dict[tuple[int, int], int] = {}

    def midpoint(a: int, b: int) -> int:
        key = (min(a, b), max(a, b))
        idx = midpoint_of.get(key)
        if idx is None:
            idx = len(vertices)
            vertices.append(0.5 * (mesh.vertices[a] + mesh.vertices[b]))
            midpoint_of[key] = idx
        return idx

    tris = []
    domains = []
    for t, (a, b, c) in enumerate(mesh.tri_vertices):
        mab, mbc, mca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        for child in ((a, mab, mca), (mab, b, mbc), (mca, mbc, c), (mab, mbc, mca)):
            tris.append(child)
            domains.append(mesh.tri_domain[t])

    kind_override: dict[tuple[int, int], FaceKind] = {}
    for face in mesh.faces:
        a, b = face.vertices
        m = midpoint_of[(min(a, b), max(a, b))]
        for pair in ((a, m), (m, b)):
            kind_override[(min(pair), max(pair))] = face.kind

    return _assemble(np.array(vertices), np.array(tris), np.array(domains),
                     kind_override, None)


@dataclass(frozen=True)
class FaceFrame:
    midpoint: np.ndarray
    tangent: np.ndarray
    normal: np.ndarray
    length: float


def face_geometry(mesh: Mesh, face_id: int) -> FaceFrame:
    """Midpoint, unit tangent (canonical direction), unit normal, length.

    The frame is right-handed in the sense that the normal is the tangent
    rotated by -90 degrees.
    """
    face = mesh.faces[face_id]
    pa = mesh.vertices[face.vertices[0]]
    pb = mesh.vertices[face.vertices[1]]
    tangent = (pb - pa) / face.length
    return FaceFrame(
        midpoint=0.5 * (pa + pb),
        tangent=tangent,
        normal=face.normal,
        length=face.length,
    )


def face_endpoints(mesh: Mesh, face_id: int) -> tuple[np.ndarray, np.ndarray]:
    face = mesh.faces[face_id]
    return mesh.vertices[face.vertices[0]], mesh.vertices[face.vertices[1]]


@functools.lru_cache(maxsize=None)
def edge_table(k: int, degree: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss nodes and weights on [0, 1] and the edge basis of degree k there."""
    rule = make_edge_quadrature(degree)
    return rule.points, rule.weights, edge_basis_values(k, rule.points)


@dataclass
class FaceRule:
    """Quadrature and orthonormal basis along a face's canonical direction.

    Every face integral goes through one rule per face, so both neighbours
    of a face test against identical basis values at identical points.
    """

    points: np.ndarray   # (n, 2)
    weights: np.ndarray  # (n,) physical measure
    basis: np.ndarray    # (k+1, n), orthonormal in L2 of the face

    def moments(self, vals) -> np.ndarray:
        """Moments of point values against the basis.

        Vector values of shape (n, 2) give the component-major stack
        (x modes, then y modes).
        """
        vals = np.asarray(vals, dtype=complex)
        if vals.ndim == 2:
            return np.concatenate([self.moments(vals[:, 0]), self.moments(vals[:, 1])])
        return np.einsum("p,mp,p->m", self.weights, self.basis, vals)


def face_rule(mesh: Mesh, face_id: int, k: int, degree: int | None = None) -> FaceRule:
    """Rule on one face, exact through ``degree`` (default 2k+6)."""
    a, b = face_endpoints(mesh, face_id)
    t, w, basis = edge_table(k, 2 * k + 6 if degree is None else degree)
    length = mesh.faces[face_id].length
    return FaceRule(
        points=a[None, :] + t[:, None] * (b - a)[None, :],
        weights=w * length,
        basis=basis / np.sqrt(length),
    )


def elastic_side_normal(mesh: Mesh, face_id: int) -> np.ndarray:
    """Outward normal of the solid element adjacent to an interface face."""
    face = mesh.faces[face_id]
    for side in face.sides:
        if mesh.tri_domain[side.element] == "E":
            return side.sign * face.normal
    raise ValueError(f"face {face_id} has no solid side")


def save_mesh(mesh: Mesh, path) -> None:
    """Write the ``hdgmesh v1`` plain-text format."""
    lines = ["hdgmesh v1"]
    lines.append(f"vertices {mesh.vertices.shape[0]}")
    for v in mesh.vertices:
        lines.append(f"{v[0]:.17g} {v[1]:.17g}")
    lines.append(f"triangles {mesh.n_elements}")
    for tri, dom in zip(mesh.tri_vertices, mesh.tri_domain):
        lines.append(f"{tri[0]} {tri[1]} {tri[2]} {dom}")
    lines.append(f"faces {mesh.n_faces}")
    for face in mesh.faces:
        lines.append(f"{face.vertices[0]} {face.vertices[1]} {face.kind.value}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_mesh(path) -> Mesh:
    """Read ``hdgmesh v1``; adjacency, normals, and kinds are revalidated."""
    with open(path) as fh:
        tokens = [line.strip() for line in fh if line.strip()]
    if not tokens or tokens[0] != "hdgmesh v1":
        raise ValueError("not an hdgmesh v1 file")
    pos = 1

    def expect_section(name: str) -> int:
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError(f"file ends before the '{name} <count>' line")
        parts = tokens[pos].split()
        if len(parts) != 2 or parts[0] != name:
            raise ValueError(f"expected '{name} <count>' at line {pos + 1}")
        pos += 1
        count = int(parts[1])
        if pos + count > len(tokens):
            raise ValueError(f"{name} section expects {count} records, "
                             f"file has only {len(tokens) - pos}")
        return count

    nv = expect_section("vertices")
    vertices = np.empty((nv, 2))
    for i in range(nv):
        coords = [float(x) for x in tokens[pos + i].split()]
        if len(coords) != 2 or not np.all(np.isfinite(coords)):
            raise ValueError(f"bad vertex record {i}: {tokens[pos + i]!r}")
        vertices[i] = coords
    pos += nv
    nt = expect_section("triangles")
    tris = np.empty((nt, 3), dtype=int)
    domains = np.empty(nt, dtype="<U1")
    for i in range(nt):
        parts = tokens[pos + i].split()
        if len(parts) != 4 or parts[3] not in ("E", "A"):
            raise ValueError(f"bad triangle record: {tokens[pos + i]!r}")
        ids = [int(p) for p in parts[:3]]
        if not all(0 <= v < nv for v in ids):
            raise ValueError(f"triangle record {i} has a vertex id outside "
                             f"[0, {nv}): {tokens[pos + i]!r}")
        tris[i] = ids
        domains[i] = parts[3]
    pos += nt
    nf = expect_section("faces")
    kind_override: dict[tuple[int, int], FaceKind] = {}
    for i in range(nf):
        parts = tokens[pos + i].split()
        if len(parts) != 3:
            raise ValueError(f"bad face record: {tokens[pos + i]!r}")
        try:
            kind = FaceKind(parts[2])
        except ValueError as exc:
            raise ValueError(f"unknown face kind {parts[2]!r}") from exc
        a, b = int(parts[0]), int(parts[1])
        kind_override[(min(a, b), max(a, b))] = kind

    mesh = _assemble(vertices, tris, domains, kind_override, None)
    if mesh.n_faces != nf:
        raise ValueError(f"file lists {nf} faces, triangulation has {mesh.n_faces}")
    return mesh
