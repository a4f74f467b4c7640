"""Conforming triangulations of coupled solid/fluid domains, stored as arrays.

Structured criss-cross meshes over axis-aligned boxes: every grid cell is
split along its bottom-left to top-right diagonal, cells inside the inner
box are solid (domain ``E``), the rest fluid (domain ``A``).  Red refinement
quarters each triangle and child faces on a parent face inherit its kind.

A mesh is a set of arrays.  Over the elements: ``tri_vertices`` (CCW),
``tri_domain`` and ``element_faces``, the face of each local edge (0, 1),
(1, 2), (2, 0).  Over the faces, numbered in lexicographic order of their
vertex pairs (lower id first):

- ``face_vertices`` in canonical order, the endpoint with the
  lexicographically smaller coordinates first;
- ``face_kind``, indices into ``KINDS``;
- ``face_normal``, the unit tangent of the canonical direction rotated by
  -90 degrees, and ``face_length``;
- ``face_element``, ``face_local_edge`` and ``face_sign`` per side, the
  lower element first.  The sign is +1 where the stored normal points out
  of the element.  A boundary face has no second side: -1 there for the
  element and the edge, 0 for the sign.

All of them come from one ``np.unique`` over the sorted vertex pairs of the
local edges.  ``face_rule`` integrates along the canonical direction, so
both neighbours of a face share its quadrature and basis.

The plain-text ``hdgmesh v1`` format serializes vertices, triangles with
their domain tag, and faces with their kind; adjacency, normals, and
lengths are derived on load.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .quadbasis import edge_rule


class FaceKind(str, Enum):
    INTERIOR_E = "interiorE"
    INTERIOR_A = "interiorA"
    GAMMA = "gamma"
    GAMMA_AD = "gammaAD"
    GAMMA_AN = "gammaAN"
    ELASTIC_BOUNDARY = "elasticBoundary"


KINDS = tuple(FaceKind)  # ``Mesh.face_kind`` holds indices into this tuple
_CODE = {kind: code for code, kind in enumerate(KINDS)}

_LOCAL_EDGES = np.array([(0, 1), (1, 2), (2, 0)])


@dataclass
class Mesh:
    vertices: np.ndarray         # (nv, 2)
    tri_vertices: np.ndarray     # (nt, 3) CCW
    tri_domain: np.ndarray       # (nt,) of 'E'/'A'
    element_faces: np.ndarray    # (nt, 3) face of each local edge
    face_vertices: np.ndarray    # (nf, 2) canonical order
    face_kind: np.ndarray        # (nf,) indices into KINDS
    face_normal: np.ndarray      # (nf, 2) unit
    face_length: np.ndarray      # (nf,)
    face_element: np.ndarray     # (nf, 2) adjacent elements, -1 for none
    face_local_edge: np.ndarray  # (nf, 2) their local edges, -1 for none
    face_sign: np.ndarray        # (nf, 2) +1/-1, 0 for none
    h_e: float = 0.0
    h_a: float = 0.0

    @property
    def n_elements(self) -> int:
        return self.tri_vertices.shape[0]

    @property
    def n_faces(self) -> int:
        return self.face_kind.shape[0]

    @property
    def h(self) -> float:
        return max(self.h_e, self.h_a)

    def is_kind(self, *kinds: FaceKind) -> np.ndarray:
        """Mask of the faces whose kind is one of ``kinds``."""
        return np.isin(self.face_kind, [_CODE[kind] for kind in kinds])


def _signed_areas(tri: np.ndarray) -> np.ndarray:
    """Signed areas of triangles (nt, 3, 2), positive when CCW."""
    return 0.5 * ((tri[:, 1, 0] - tri[:, 0, 0]) * (tri[:, 2, 1] - tri[:, 0, 1])
                  - (tri[:, 2, 0] - tri[:, 0, 0]) * (tri[:, 1, 1] - tri[:, 0, 1]))


def _diameters(tri: np.ndarray) -> np.ndarray:
    """Longest edge of each triangle (nt, 3, 2)."""
    edges = tri[:, (1, 2, 0)] - tri
    return np.sqrt(np.vecdot(edges, edges)).max(axis=1)


def _face_index(pairs: np.ndarray, nv: int, query: np.ndarray) -> np.ndarray:
    """Face of each vertex pair of ``query`` (m, 2) in either order, -1 where
    it names none; ``pairs`` are the faces' sorted pairs, in face order."""
    query = np.sort(query, axis=1)
    keys = pairs[:, 0] * nv + pairs[:, 1]  # ascending with the face numbering
    wanted = np.where((query[:, 0] >= 0) & (query[:, 1] < nv),
                      query[:, 0] * nv + query[:, 1], -1)
    at = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
    return np.where(keys[at] == wanted, at, -1)


def _assemble(
    vertices: np.ndarray,
    tri_vertices: np.ndarray,
    tri_domain: np.ndarray,
    listed: tuple[np.ndarray, np.ndarray] | None = None,
    dirichlet: bool = False,
) -> Mesh:
    """Build faces, adjacency, normals and kinds from raw triangles.

    Faces with two sides take their kind from the adjacent domains.  The
    ``listed`` faces, vertex pairs (m, 2) with kind codes (m,), give the
    kinds of boundary faces and must agree with the adjacency elsewhere;
    each must name a distinct edge.  With ``dirichlet``, boundary faces left
    over get the Dirichlet kind of their domain.
    """
    vertices = np.asarray(vertices, dtype=float)
    tris = np.asarray(tri_vertices, dtype=int).copy()
    tri_domain = np.asarray(tri_domain)
    if not len(tris):
        raise ValueError("mesh has no triangles")
    flip = _signed_areas(vertices[tris]) < 0.0
    tris[flip] = tris[flip][:, [0, 2, 1]]

    # one row per local edge, element-major: row 3 t + e is local edge e of t
    pairs, inverse, counts = np.unique(
        np.sort(tris[:, _LOCAL_EDGES].reshape(-1, 2), axis=1),
        axis=0, return_inverse=True, return_counts=True)
    inverse = inverse.reshape(-1)
    crowded = np.flatnonzero(counts > 2)
    if len(crowded):
        a, b = pairs[crowded[0]]
        raise ValueError(f"face ({a}, {b}) shared by more than two triangles")
    element_faces = inverse.reshape(-1, 3)

    ends = np.cumsum(counts)
    rows = np.argsort(inverse, kind="stable")
    sides = np.stack([rows[ends - counts], np.where(counts == 2, rows[ends - 1], -1)], axis=1)
    has = sides >= 0
    face_element = np.where(has, sides // 3, -1)
    face_local_edge = np.where(has, sides % 3, -1)

    pa, pb = vertices[pairs[:, 0]], vertices[pairs[:, 1]]
    swap = (pb[:, 0] < pa[:, 0]) | ((pb[:, 0] == pa[:, 0]) & (pb[:, 1] < pa[:, 1]))
    face_vertices = np.where(swap[:, None], pairs[:, ::-1], pairs)
    direction = vertices[face_vertices[:, 1]] - vertices[face_vertices[:, 0]]
    length = np.sqrt(np.vecdot(direction, direction))
    flat = np.flatnonzero(~(length > 0.0))
    if len(flat):
        a, b = pairs[flat[0]]
        raise ValueError(f"zero-length face ({a}, {b})")
    tangent = direction / length[:, None]
    normal = np.stack([tangent[:, 1], -tangent[:, 0]], axis=1)
    # a side's local edge runs along the canonical direction exactly when
    # the stored normal points out of its (CCW) element
    start = tris[np.where(has, face_element, 0), np.where(has, face_local_edge, 0)]
    face_sign = np.where(has, np.where(start == face_vertices[:, :1], 1, -1), 0)

    solid = has & (tri_domain[face_element] == "E")
    two = counts == 2
    implied = np.where(solid.all(axis=1), _CODE[FaceKind.INTERIOR_E],
                       np.where(solid.any(axis=1), _CODE[FaceKind.GAMMA],
                                _CODE[FaceKind.INTERIOR_A]))
    kind = np.full(len(pairs), -1)
    if listed is not None:
        listed_pairs, listed_codes = (np.asarray(x, dtype=int) for x in listed)
        at = _face_index(pairs, len(vertices), listed_pairs)

        def record(i: int) -> str:
            a, b = listed_pairs[i]
            return f"face record {i} ({a} {b} {KINDS[listed_codes[i]].value})"

        if np.any(at < 0):
            raise ValueError(f"{record(np.flatnonzero(at < 0)[0])} names no edge "
                             "of the triangulation")
        _, first = np.unique(at, return_index=True)
        repeats = np.setdiff1d(np.arange(len(at)), first)
        if len(repeats):
            j = repeats[0]
            raise ValueError(f"{record(j)} repeats the edge of face record "
                             f"{np.flatnonzero(at == at[j])[0]}")
        kind[at] = listed_codes
        clash = np.flatnonzero(two & (kind >= 0) & (kind != implied))
        if len(clash):
            f = clash[0]
            raise ValueError(f"face ({pairs[f, 0]}, {pairs[f, 1]}) adjacency implies "
                             f"{KINDS[implied[f]].value}, file says {KINDS[kind[f]].value}")
    kind = np.where(two, implied, kind)
    open_ = np.flatnonzero(kind < 0)
    if dirichlet:
        kind[open_] = np.where(tri_domain[face_element[open_, 0]] == "E",
                               _CODE[FaceKind.ELASTIC_BOUNDARY], _CODE[FaceKind.GAMMA_AD])
    elif len(open_):
        a, b = pairs[open_[0]]
        raise ValueError(f"boundary face ({a}, {b}) has no kind assignment")

    h = _diameters(vertices[tris])
    in_e = tri_domain == "E"
    mesh = Mesh(
        vertices=vertices,
        tri_vertices=tris,
        tri_domain=tri_domain,
        element_faces=element_faces,
        face_vertices=face_vertices,
        face_kind=kind.astype(np.int8),
        face_normal=normal,
        face_length=length,
        face_element=face_element,
        face_local_edge=face_local_edge,
        face_sign=face_sign,
        h_e=float(h[in_e].max(initial=0.0)),
        h_a=float(h[~in_e].max(initial=0.0)),
    )
    validate_mesh(mesh)
    return mesh


def validate_mesh(mesh: Mesh) -> None:
    """Raise on degenerate triangles, broken adjacency, or bad face frames,
    naming the first element or face at fault."""
    tri = mesh.vertices[mesh.tri_vertices]
    h = _diameters(tri)
    flat = np.flatnonzero(_signed_areas(tri) <= 1e-14 * h * h)
    if len(flat):
        raise ValueError(f"triangle {flat[0]} degenerate or mis-ordered")

    has = mesh.face_element >= 0
    elem = np.where(has, mesh.face_element, 0)
    n_sides = has.sum(axis=1)
    between = (n_sides == 2) & (np.sort(mesh.tri_domain[elem], axis=1) == ["A", "E"]).all(axis=1)
    linked = mesh.element_faces[elem, np.where(has, mesh.face_local_edge, 0)]
    normal_sq = np.vecdot(mesh.face_normal, mesh.face_normal)
    # one row per check, in the order a face is checked
    checks = [
        (np.abs(np.sqrt(normal_sq) - 1.0) > 1e-14, "face {f} normal not unit length"),
        (n_sides == 0, "face {f} has {n} sides"),
        (mesh.is_kind(FaceKind.GAMMA) & ~between,
         "gamma face {f} not between one solid and one fluid element"),
        (mesh.is_kind(FaceKind.INTERIOR_A, FaceKind.INTERIOR_E) & (n_sides != 2),
         "interior face {f} has one side"),
        ((n_sides == 1) & (mesh.is_kind(FaceKind.GAMMA_AD, FaceKind.GAMMA_AN)
                           != (mesh.tri_domain[elem[:, 0]] == "A")),
         "boundary face {f} kind does not match the domain of its element"),
        ((n_sides == 2) & (mesh.face_sign[:, 0] * mesh.face_sign[:, 1] != -1),
         "face {f} outward normals do not oppose"),
        ((has & (linked != np.arange(mesh.n_faces)[:, None])).any(axis=1),
         "face {f} adjacency table inconsistent"),
    ]
    failed = np.stack([mask for mask, _ in checks])
    faulty = np.flatnonzero(failed.any(axis=0))
    if len(faulty):
        f = faulty[0]
        message = checks[np.flatnonzero(failed[:, f])[0]][1]
        raise ValueError(message.format(f=f, n=n_sides[f]))


def _grid_count(lo: float, hi: float, n_per_unit: int, what: str) -> int:
    cells = (hi - lo) * n_per_unit
    if abs(cells - round(cells)) > 1e-9 or round(cells) < 1:
        raise ValueError(f"interface not resolvable: {what} extent {hi - lo} "
                         f"is not a positive multiple of 1/{n_per_unit}")
    return int(round(cells))


def _grid_line(value: float, origin: float, spacing: float, what: str) -> int:
    steps = (value - origin) / spacing
    if abs(steps - round(steps)) >= 1e-9:
        raise ValueError(f"interface not resolvable: inner {what} bounds off-grid")
    return int(round(steps))


def build_structured_coupled(
    n_per_unit: int,
    outer_box,
    inner_box=None,
    *,
    domain: str = "A",
    jitter: float = 0.0,
    seed: int = 0,
) -> Mesh:
    """Criss-cross grid over ``outer_box`` with ``inner_box`` as the solid.

    Boxes are (xmin, ymin, xmax, ymax).  Without an inner box the whole mesh
    belongs to ``domain`` ('A' for a fluid-only mesh, 'E' for a solid-only
    one).  The inner box must lie strictly inside the outer box with all four
    sides on grid lines, otherwise the transmission interface is not
    resolvable and a ValueError is raised.

    Every fluid boundary face is Dirichlet and every solid one carries a
    prescribed displacement trace.  Neumann faces come from mesh files
    (``load_mesh``), which list each boundary face with its kind.

    ``jitter`` displaces every lattice vertex away from the domain boundary
    and the transmission interface by a uniform random offset of at most
    ``jitter`` cell widths per coordinate (seeded, hence reproducible).
    This yields quasi-uniform meshes free of the lattice superconvergence
    that nested structured grids exhibit; boundary and interface geometry
    are preserved exactly.  Which vertices stay put is decided by their
    lattice indices, so it does not depend on the size of the box.
    """
    if n_per_unit < 1:
        raise ValueError("n_per_unit must be a positive integer")
    x0, y0, x1, y1 = (float(v) for v in outer_box)
    if not (x1 > x0 and y1 > y0):
        raise ValueError("outer box is empty")
    nx = _grid_count(x0, x1, n_per_unit, "outer x")
    ny = _grid_count(y0, y1, n_per_unit, "outer y")
    spacing = 1.0 / n_per_unit

    i0 = i1 = j0 = j1 = -1  # lattice lines of the inner box
    if inner_box is not None:
        ix0, iy0, ix1, iy1 = (float(v) for v in inner_box)
        if not (ix1 > ix0 and iy1 > iy0):
            raise ValueError("interface not resolvable: inner box is empty")
        if not (x0 < ix0 and ix1 < x1 and y0 < iy0 and iy1 < y1):
            raise ValueError("interface not resolvable: inner box must lie strictly "
                             "inside the outer box")
        i0, i1 = (_grid_line(v, x0, spacing, "x") for v in (ix0, ix1))
        j0, j1 = (_grid_line(v, y0, spacing, "y") for v in (iy0, iy1))
    if domain not in ("A", "E"):
        raise ValueError("domain must be 'A' or 'E'")

    col, row = (idx.ravel() for idx in np.meshgrid(np.arange(nx + 1), np.arange(ny + 1)))
    vertices = np.column_stack([x0 + spacing * col, y0 + spacing * row])

    if jitter:
        if not 0.0 < jitter <= 0.2:
            raise ValueError("jitter must lie in (0, 0.2] cell widths")
        rng = np.random.default_rng(seed)
        offsets = rng.uniform(-jitter * spacing, jitter * spacing, size=vertices.shape)
        fixed = (col == 0) | (col == nx) | (row == 0) | (row == ny)
        if inner_box is not None:  # lattice points on the inner box boundary
            fixed |= ((((col == i0) | (col == i1)) & (j0 <= row) & (row <= j1))
                      | (((row == j0) | (row == j1)) & (i0 <= col) & (col <= i1)))
        vertices = vertices + offsets * ~fixed[:, None]

    # cells row by row, each split along its diagonal bl -> tr
    cell_i, cell_j = (idx.ravel() for idx in np.meshgrid(np.arange(nx), np.arange(ny)))
    bl = cell_j * (nx + 1) + cell_i
    br, tl, tr = bl + 1, bl + nx + 1, bl + nx + 2
    tris = np.stack([bl, br, tr, bl, tr, tl], axis=1).reshape(-1, 3)
    solid = (i0 <= cell_i) & (cell_i < i1) & (j0 <= cell_j) & (cell_j < j1)
    domains = np.repeat(np.where(solid, "E", "A" if inner_box is not None else domain), 2)

    if jitter and float(_signed_areas(vertices[tris]).min()) <= 0.0:
        raise ValueError("jitter produced an inverted triangle; lower the amplitude")

    return _assemble(vertices, tris, domains, dirichlet=True)


def refine(mesh: Mesh) -> Mesh:
    """Red refinement: quarter every triangle through the edge midpoints.

    Midpoints are numbered in the order the triangles first reach their
    faces.  Child faces lying on a parent face inherit its kind; fresh
    interior faces get their kind from the adjacent domains.
    """
    nv, nf = len(mesh.vertices), mesh.n_faces
    _, first = np.unique(mesh.element_faces, return_index=True)
    order = np.argsort(first)
    mid = np.empty(nf, dtype=int)
    mid[order] = nv + np.arange(nf)
    ends = mesh.vertices[mesh.face_vertices]
    vertices = np.concatenate([mesh.vertices, 0.5 * (ends[order, 0] + ends[order, 1])])

    a, b, c = mesh.tri_vertices.T
    mab, mbc, mca = mid[mesh.element_faces].T
    tris = np.stack([a, mab, mca, mab, b, mbc, mca, mbc, c, mab, mbc, mca],
                    axis=1).reshape(-1, 3)
    start, end = mesh.face_vertices.T
    halves = np.stack([start, mid, mid, end], axis=1).reshape(-1, 2)
    return _assemble(vertices, tris, np.repeat(mesh.tri_domain, 4),
                     listed=(halves, np.repeat(mesh.face_kind, 2)))


@dataclass
class FaceRule:
    """Quadrature and orthonormal basis along faces' canonical directions.

    The one face path: every face sample and every face moment of the
    package goes through these rules, so both neighbours of a face test
    against identical basis values at identical points.  A rule over an
    array of face ids carries its axes in front; the tables of a block of
    elements hold the rule of their (nb, 3) faces, element-first.
    """

    points: np.ndarray   # (..., n, 2)
    weights: np.ndarray  # (..., n) physical measure
    basis: np.ndarray    # (..., k+1, n), orthonormal in L2 of each face

    def moments(self, vals) -> np.ndarray:
        """Moments of point values (..., n) against the basis, (..., k+1).

        Values with m trailing components (..., n, m) give the
        component-major stack (..., m (k+1)): the k+1 moments of component
        0, then those of component 1, and so on (x modes, then y modes for
        a vector).
        """
        vals = np.asarray(vals, dtype=complex)
        if vals.ndim > self.weights.ndim:
            return np.concatenate([self.moments(vals[..., j]) for j in range(vals.shape[-1])],
                                  axis=-1)
        return np.einsum("...p,...mp,...p->...m", self.weights, self.basis, vals)

    def sample(self, fn, *normals) -> np.ndarray:
        """Values (..., n, ...) of a pointwise function at every point, from
        one call; ``normals`` (..., 2), one per face, reach it per point."""
        n = self.weights.shape[-1]
        per_point = [np.repeat(np.reshape(v, (-1, 2)), n, axis=0) for v in normals]
        vals = np.asarray(fn(self.points.reshape(-1, 2), *per_point), dtype=complex)
        return vals.reshape(self.points.shape[:-1] + vals.shape[1:])


def face_rule(mesh: Mesh, face_id, k: int) -> FaceRule:
    """Rule on one face, or on each face of an array of ids, exact through
    degree 2k+6 like the volume rules, with the face basis of degree k."""
    ends = mesh.vertices[mesh.face_vertices[face_id]]
    a, b = ends[..., 0, :], ends[..., 1, :]
    t, w, basis = edge_rule(k)
    length = mesh.face_length[face_id]
    return FaceRule(
        points=a[..., None, :] + t[:, None] * (b - a)[..., None, :],
        weights=w * length[..., None],
        basis=basis / np.sqrt(length)[..., None, None],
    )


def elastic_side_normal(mesh: Mesh, face_id) -> np.ndarray:
    """Outward normal of the solid element adjacent to an interface face, or
    to each face of an array of ids."""
    ids = np.asarray(face_id)
    elem = mesh.face_element[ids]
    solid = (elem >= 0) & (mesh.tri_domain[elem] == "E")
    lacking = np.flatnonzero(~solid.any(axis=-1))
    if len(lacking):
        raise ValueError(f"face {ids.reshape(-1)[lacking[0]]} has no solid side")
    sign = np.where(solid[..., 0], mesh.face_sign[ids, 0], mesh.face_sign[ids, 1])
    return sign[..., None] * mesh.face_normal[ids]


def save_mesh(mesh: Mesh, path) -> None:
    """Write the ``hdgmesh v1`` plain-text format."""
    kinds = np.array([kind.value for kind in KINDS])[mesh.face_kind]
    lines = ["hdgmesh v1", f"vertices {mesh.vertices.shape[0]}"]
    lines += [f"{x:.17g} {y:.17g}" for x, y in mesh.vertices.tolist()]
    lines.append(f"triangles {mesh.n_elements}")
    lines += [f"{a} {b} {c} {dom}"
              for (a, b, c), dom in zip(mesh.tri_vertices.tolist(), mesh.tri_domain.tolist())]
    lines.append(f"faces {mesh.n_faces}")
    lines += [f"{a} {b} {kind}"
              for (a, b), kind in zip(mesh.face_vertices.tolist(), kinds.tolist())]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _reject(ok: np.ndarray, what: str, lines: list[str], why: str = "") -> None:
    """Raise on the first record whose entry of ``ok`` is False."""
    bad = np.flatnonzero(~np.asarray(ok, dtype=bool))
    if len(bad):
        raise ValueError(f"bad {what} record {bad[0]}{why}: {lines[bad[0]]!r}")


def _numbers(rows: list[list[str]], width: int, dtype, what: str,
             lines: list[str]) -> np.ndarray:
    """Fields of records as numbers, one row per record."""
    try:
        return np.array(rows, dtype=str).astype(dtype).reshape(-1, width)
    except (ValueError, OverflowError):
        # name the first record that does not convert
        for i, row in enumerate(rows):
            try:
                np.array(row, dtype=str).astype(dtype)
            except (ValueError, OverflowError):
                raise ValueError(f"bad {what} record {i}: {lines[i]!r}") from None
        raise


def load_mesh(path) -> Mesh:
    """Read ``hdgmesh v1``; adjacency, normals, and kinds are revalidated.

    Every face record must name a distinct edge of the triangulation.
    """
    with open(path) as fh:
        tokens = [line.strip() for line in fh if line.strip()]
    if not tokens or tokens[0] != "hdgmesh v1":
        raise ValueError("not an hdgmesh v1 file")
    pos = 1

    def section(name: str, what: str, width: int) -> tuple[list[str], list[list[str]]]:
        """The lines and fields of a section's records, each ``width`` wide."""
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError(f"file ends before the '{name} <count>' line")
        parts = tokens[pos].split()
        if len(parts) != 2 or parts[0] != name or not parts[1].isdecimal():
            raise ValueError(f"expected '{name} <count>' at line {pos + 1}")
        pos += 1
        count = int(parts[1])
        if pos + count > len(tokens):
            raise ValueError(f"{name} section expects {count} records, "
                             f"file has only {len(tokens) - pos}")
        lines = tokens[pos : pos + count]
        pos += count
        rows = [line.split() for line in lines]
        _reject([len(row) == width for row in rows], what, lines)
        return lines, rows

    lines, rows = section("vertices", "vertex", 2)
    vertices = _numbers(rows, 2, float, "vertex", lines)
    _reject(np.isfinite(vertices).all(axis=1), "vertex", lines)
    nv = len(vertices)

    lines, rows = section("triangles", "triangle", 4)
    domains = np.array([row[3] for row in rows], dtype=str)
    _reject(np.isin(domains, ["E", "A"]), "triangle", lines)
    tris = _numbers([row[:3] for row in rows], 3, int, "triangle", lines)
    _reject(((tris >= 0) & (tris < nv)).all(axis=1), "triangle", lines,
            f" (a vertex id outside [0, {nv}))")

    lines, rows = section("faces", "face", 3)
    names = np.array([row[2] for row in rows], dtype=str)
    values = np.array([kind.value for kind in KINDS])
    _reject(np.isin(names, values), "face", lines, " (unknown face kind)")
    pairs = _numbers([row[:2] for row in rows], 2, int, "face", lines)
    order = np.argsort(values)
    codes = order[np.searchsorted(values[order], names)]

    mesh = _assemble(vertices, tris, domains, listed=(pairs, codes))
    if mesh.n_faces != len(rows):
        raise ValueError(f"file lists {len(rows)} faces, triangulation has {mesh.n_faces}")
    return mesh
