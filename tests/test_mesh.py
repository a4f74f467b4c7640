"""Mesh construction, face classification, refinement, jitter, and file IO.

Counting oracles are worked out by hand: an n-cells-per-unit criss-cross
grid over a w x h box has 2*w*h*n^2 triangles, and edge counts follow from
3T = 2*interior + boundary.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdgwave.mesh import (
    KINDS,
    FaceKind,
    build_structured_coupled,
    elastic_side_normal,
    load_mesh,
    refine,
    save_mesh,
    validate_mesh,
)
from hdgwave.verify import make_case


def unit_square(n=2, **kw):
    return build_structured_coupled(n, (0.0, 0.0, 1.0, 1.0), **kw)


def annulus(n=1, **kw):
    return build_structured_coupled(n, (-2.0, -2.0, 2.0, 2.0), (-1.0, -1.0, 1.0, 1.0), **kw)


def mark_neumann(mesh):
    """Make the fluid boundary faces on the x = xmax side Neumann, as a mesh
    file may, and check the marked mesh."""
    mid_x = mesh.vertices[mesh.face_vertices, 0].mean(axis=1)
    side = mesh.is_kind(FaceKind.GAMMA_AD) & (mid_x == mesh.vertices[:, 0].max())
    mesh.face_kind[side] = KINDS.index(FaceKind.GAMMA_AN)
    validate_mesh(mesh)
    return mesh


def kind_counts(mesh):
    return Counter(KINDS[code] for code in mesh.face_kind)


def faces_of_kind(mesh, *kinds):
    return set(np.flatnonzero(mesh.is_kind(*kinds)).tolist())


def endpoints(mesh, fid):
    return mesh.vertices[mesh.face_vertices[fid]]


def test_unit_square_n2_counts():
    mesh = unit_square(2)
    assert mesh.n_elements == 8
    assert mesh.n_faces == 16
    counts = kind_counts(mesh)
    # 8 boundary edges on the 2x2 grid, rest interior fluid faces
    assert counts[FaceKind.GAMMA_AD] == 8
    assert counts[FaceKind.INTERIOR_A] == 8
    assert set(mesh.tri_domain) == {"A"}


def test_unit_square_elastic_domain_flag():
    mesh = unit_square(2, domain="E")
    counts = kind_counts(mesh)
    assert counts[FaceKind.ELASTIC_BOUNDARY] == 8
    assert counts[FaceKind.INTERIOR_E] == 8
    assert set(mesh.tri_domain) == {"E"}


def test_annulus_counts():
    mesh = annulus(1)
    # fluid frame: 12 unit cells -> 24 triangles; solid: 4 cells -> 8
    assert int(np.sum(mesh.tri_domain == "A")) == 24
    assert int(np.sum(mesh.tri_domain == "E")) == 8
    counts = kind_counts(mesh)
    assert counts[FaceKind.GAMMA] == 8          # perimeter of the solid square
    assert counts[FaceKind.GAMMA_AD] == 16      # outer boundary
    assert counts[FaceKind.INTERIOR_E] == 8
    assert counts[FaceKind.INTERIOR_A] == 24
    assert mesh.n_faces == 56


def test_trace_kind_partitions():
    mesh = annulus(1)
    elastic = faces_of_kind(mesh, FaceKind.INTERIOR_E, FaceKind.GAMMA, FaceKind.ELASTIC_BOUNDARY)
    acoustic = faces_of_kind(mesh, FaceKind.INTERIOR_A, FaceKind.GAMMA, FaceKind.GAMMA_AD,
                             FaceKind.GAMMA_AN)
    gammas = faces_of_kind(mesh, FaceKind.GAMMA)
    # interface faces carry both trace fields
    assert gammas <= elastic and gammas <= acoustic
    assert elastic & acoustic == gammas


def test_face_orientation_and_geometry():
    mesh = unit_square(2)
    for fid in range(mesh.n_faces):
        a, b = endpoints(mesh, fid)
        # canonical order: lexicographically smaller endpoint first
        assert (a[0], a[1]) <= (b[0], b[1])
        assert mesh.face_length[fid] == pytest.approx(np.linalg.norm(b - a), rel=1e-14)
        tangent = (b - a) / np.linalg.norm(b - a)
        normal = mesh.face_normal[fid]
        # normal is the tangent rotated by -90 degrees, unit length
        assert np.allclose(normal, [tangent[1], -tangent[0]])
        assert np.allclose([-normal[1], normal[0]], tangent)
        for elem, sign in zip(mesh.face_element[fid], mesh.face_sign[fid]):
            if elem < 0:
                continue
            centroid = mesh.vertices[mesh.tri_vertices[elem]].mean(axis=0)
            outward = sign * normal
            # outward normal points away from the element centroid
            assert np.dot(0.5 * (a + b) - centroid, outward) > 0.0


def test_interior_faces_have_two_sides_with_opposite_signs():
    mesh = annulus(1)
    two_sided = mesh.is_kind(FaceKind.INTERIOR_A, FaceKind.INTERIOR_E, FaceKind.GAMMA)
    for fid in range(mesh.n_faces):
        elems, signs = mesh.face_element[fid], mesh.face_sign[fid]
        if two_sided[fid]:
            assert (elems >= 0).all()
            assert set(signs.tolist()) == {-1, 1}
        else:
            assert elems[0] >= 0 and elems[1] == -1 and signs[1] == 0


def test_elastic_side_normal_points_into_fluid():
    mesh = annulus(1)
    gammas = sorted(faces_of_kind(mesh, FaceKind.GAMMA))
    for fid, row in zip(gammas, elastic_side_normal(mesh, np.array(gammas))):
        n_e = elastic_side_normal(mesh, fid)
        assert np.array_equal(n_e, row)
        mid = endpoints(mesh, fid).mean(axis=0)
        # the solid is the inner square, so its outward normal points away
        # from the origin
        assert np.dot(n_e, mid) > 0.0


def test_refine_multiplies_elements_and_inherits_kinds():
    mesh = annulus(1)
    fine = refine(mesh)
    assert fine.n_elements == 4 * mesh.n_elements
    coarse_counts = kind_counts(mesh)
    fine_counts = kind_counts(fine)
    # boundary-ish kinds double (each parent face splits in two)
    for kind in (FaceKind.GAMMA, FaceKind.GAMMA_AD):
        assert fine_counts[kind] == 2 * coarse_counts[kind]
    assert fine.h == pytest.approx(mesh.h / 2.0, rel=1e-12)
    validate_mesh(fine)


def test_refine_keeps_gamma_faces_on_the_interface():
    fine = refine(refine(annulus(1)))
    for fid in faces_of_kind(fine, FaceKind.GAMMA):
        a, b = endpoints(fine, fid)
        for p in (a, b):
            assert max(abs(p[0]), abs(p[1])) == pytest.approx(1.0, abs=1e-12)


def test_interface_must_be_resolvable():
    with pytest.raises(ValueError, match="not resolvable"):
        build_structured_coupled(1, (-2, -2, 2, 2), (-1.5, -1, 1, 1))
    with pytest.raises(ValueError, match="not resolvable"):
        build_structured_coupled(1, (-2, -2, 2, 2), (-3, -1, 1, 1))
    with pytest.raises(ValueError, match="not resolvable"):
        build_structured_coupled(1, (-2, -2, 2, 2), (1, 1, -1, -1))


def test_box_must_align_with_unit_grid():
    with pytest.raises(ValueError):
        build_structured_coupled(2, (0.0, 0.0, 1.3, 1.0))
    with pytest.raises(ValueError):
        build_structured_coupled(0, (0.0, 0.0, 1.0, 1.0))


def test_jitter_moves_interior_but_not_boundary_or_interface():
    straight = annulus(2)
    shaken = annulus(2, jitter=0.15, seed=3)
    assert shaken.n_elements == straight.n_elements
    assert kind_counts(shaken) == kind_counts(straight)
    moved = np.linalg.norm(shaken.vertices - straight.vertices, axis=1)
    for v, (x, y) in enumerate(straight.vertices):
        on_outer = max(abs(x), abs(y)) >= 2.0 - 1e-12
        on_gamma = (
            (abs(abs(x) - 1.0) < 1e-12 and abs(y) <= 1.0 + 1e-12)
            or (abs(abs(y) - 1.0) < 1e-12 and abs(x) <= 1.0 + 1e-12)
        )
        if on_outer or on_gamma:
            assert moved[v] == 0.0
    assert moved.max() > 0.0
    validate_mesh(shaken)


def test_jitter_is_deterministic_and_seed_sensitive():
    a = annulus(2, jitter=0.1, seed=5)
    b = annulus(2, jitter=0.1, seed=5)
    c = annulus(2, jitter=0.1, seed=6)
    assert np.array_equal(a.vertices, b.vertices)
    assert not np.array_equal(a.vertices, c.vertices)


def test_jitter_amplitude_validated():
    with pytest.raises(ValueError):
        unit_square(2, jitter=0.5)


def test_all_triangles_positively_oriented():
    for mesh in (unit_square(3), annulus(2, jitter=0.15, seed=1)):
        for elem in range(mesh.n_elements):
            tri = mesh.vertices[mesh.tri_vertices[elem]]
            area2 = (tri[1, 0] - tri[0, 0]) * (tri[2, 1] - tri[0, 1]) - (
                tri[1, 1] - tri[0, 1]
            ) * (tri[2, 0] - tri[0, 0])
            assert area2 > 0.0


def test_element_diameter_and_h():
    mesh = unit_square(2)
    # every triangle is a half-cell with hypotenuse sqrt(2)/2
    tri = mesh.vertices[mesh.tri_vertices]
    diameters = np.linalg.norm(np.roll(tri, -1, axis=1) - tri, axis=2).max(axis=1)
    for elem in range(mesh.n_elements):
        assert diameters[elem] == pytest.approx(np.sqrt(2.0) / 2.0)
    assert mesh.h == pytest.approx(np.sqrt(2.0) / 2.0)


def test_save_load_round_trip(tmp_path):
    mesh = mark_neumann(annulus(1))
    path = tmp_path / "mesh.txt"
    save_mesh(mesh, str(path))
    assert path.read_text().startswith("hdgmesh v1")
    back = load_mesh(str(path))
    assert back.n_elements == mesh.n_elements
    assert back.n_faces == mesh.n_faces
    assert np.allclose(back.vertices, mesh.vertices)
    assert np.array_equal(back.tri_vertices, mesh.tri_vertices)
    assert np.array_equal(back.face_kind, mesh.face_kind)
    validate_mesh(back)


def test_load_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a mesh\n")
    with pytest.raises(ValueError):
        load_mesh(str(path))


@pytest.mark.parametrize("section,record,message", [
    ("triangles", "-1 1 2 A", "triangle record 0"),
    ("triangles", "0 1 4 A", "triangle record 0"),
    ("vertices", "nan 0", "vertex record 0"),
    ("vertices", "0 inf", "vertex record 0"),
])
def test_load_rejects_bad_records(tmp_path, section, record, message):
    path = tmp_path / "mesh.txt"
    save_mesh(unit_square(1), str(path))  # 4 vertices, 2 triangles
    lines = path.read_text().splitlines()
    header = next(i for i, line in enumerate(lines) if line.startswith(section))
    lines[header + 1] = record
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=message):
        load_mesh(str(path))


@pytest.mark.parametrize("keep,message", [
    (-1, "faces section expects 5 records, file has only 4"),
    (4, "vertices section expects 4 records, file has only 2"),
    (6, "file ends before the 'triangles <count>' line"),
])
def test_load_rejects_truncated_file(tmp_path, keep, message):
    path = tmp_path / "mesh.txt"
    save_mesh(unit_square(1), str(path))  # 4 vertices, 2 triangles, 5 faces
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:keep]) + "\n")
    with pytest.raises(ValueError, match=message):
        load_mesh(str(path))


_FUZZ_VERTICES = ("0 0", "1 0", "1 1", "0 1", "0.5 0.5")
_FUZZ_FAN = (0, 1, 4, 1, 2, 4, 2, 3, 4, 3, 0, 4)  # four triangles around vertex 4


@settings(max_examples=80, deadline=None)
@given(n_tris=st.integers(1, 4),
       edits=st.lists(st.tuples(st.integers(0, 11), st.integers()), max_size=3))
def test_load_accepts_or_rejects_any_triangle_ids(tmp_path_factory, n_tris, edits):
    ids = list(_FUZZ_FAN[: 3 * n_tris])
    for pos, value in edits:
        ids[pos % len(ids)] = value
    tris = [tuple(ids[i : i + 3]) for i in range(0, len(ids), 3)]
    # faces are listed as a well-formed file would list them, so that valid
    # triangulations load and every rejection comes from the triangle ids
    edges = Counter(
        (min(a, b), max(a, b)) for tri in tris for a, b in zip(tri, tri[1:] + tri[:1])
    )
    lines = ["hdgmesh v1", f"vertices {len(_FUZZ_VERTICES)}", *_FUZZ_VERTICES,
             f"triangles {len(tris)}", *(f"{a} {b} {c} A" for a, b, c in tris),
             f"faces {len(edges)}",
             *(f"{a} {b} {'interiorA' if n == 2 else 'gammaAD'}"
               for (a, b), n in edges.items())]
    path = tmp_path_factory.getbasetemp() / "fuzz_ids.mesh"
    path.write_text("\n".join(lines) + "\n")
    try:
        mesh = load_mesh(str(path))
    except ValueError:
        return
    assert mesh.tri_vertices.min() >= 0
    assert mesh.tri_vertices.max() < len(_FUZZ_VERTICES)


# a fluid and a solid triangle across the interface 0-2; the boundary faces
# 0-1 and 1-2 are the fluid's, 2-3 and 0-3 the solid's (face ids 0, 3, 4, 2)
_TWO_DOMAINS = ("hdgmesh v1\nvertices 4\n0 0\n1 0\n1 1\n0 1\ntriangles 2\n0 1 2 A\n"
                "0 2 3 E\nfaces 5\n0 1 {}\n1 2 {}\n2 3 {}\n0 3 {}\n0 2 gamma\n")


@settings(max_examples=60, deadline=None)
@given(kinds=st.lists(st.sampled_from(["gammaAD", "gammaAN", "elasticBoundary"]),
                      min_size=4, max_size=4))
def test_boundary_kinds_load_if_and_only_if_they_match_the_domain(tmp_path_factory, kinds):
    path = tmp_path_factory.getbasetemp() / "kinds.mesh"
    path.write_text(_TWO_DOMAINS.format(*kinds))
    solid = [False, False, True, True]
    wrong = [fid for fid, kind, on_solid in zip((0, 3, 4, 2), kinds, solid)
             if (kind == "elasticBoundary") != on_solid]
    if not wrong:
        assert load_mesh(str(path)).n_faces == 5
        return
    with pytest.raises(ValueError, match=f"boundary face {min(wrong)} kind does not match"):
        load_mesh(str(path))


# -- reader: face records -------------------------------------------------------

_SQUARE = ("hdgmesh v1\nvertices 4\n0 0\n1 0\n1 1\n0 1\ntriangles 2\n0 1 2 A\n0 2 3 A\n"
           "faces 5\n0 1 gammaAD\n1 2 gammaAD\n2 3 gammaAD\n0 3 gammaAD\n0 2 interiorA\n")


@pytest.mark.parametrize("record,message", [
    # the triangles share the diagonal 0-2; 1-3 is no edge of theirs
    ("1 3 interiorA", r"face record 4 \(1 3 interiorA\) names no edge"),
    # a second record for face 0-1 would silently turn it into a Neumann face
    ("0 1 gammaAN", r"face record 4 \(0 1 gammaAN\) repeats the edge of face record 0"),
], ids=["no-edge", "repeated"])
def test_load_rejects_face_records_that_miss_or_repeat_an_edge(tmp_path, record, message):
    path = tmp_path / "square.mesh"
    path.write_text(_SQUARE)
    assert load_mesh(str(path)).n_faces == 5
    path.write_text(_SQUARE.replace("0 2 interiorA", record))
    with pytest.raises(ValueError, match=message):
        load_mesh(str(path))


# -- face numbering against a plain-Python oracle -------------------------------


def face_oracle(mesh, boundary_kind):
    """The face table by plain Python: a sorted dict of edges, each with its
    sides (element, local edge, sign of the stored normal seen from it)."""
    verts = mesh.vertices.tolist()
    edges = {}
    for elem, tri in enumerate(mesh.tri_vertices.tolist()):
        for edge, (i, j) in enumerate(((0, 1), (1, 2), (2, 0))):
            edges.setdefault(tuple(sorted((tri[i], tri[j]))), []).append((elem, edge, i, j))
    rows = []
    for (a, b), sides in sorted(edges.items()):
        start, end = (a, b) if verts[a] <= verts[b] else (b, a)
        dx, dy = verts[end][0] - verts[start][0], verts[end][1] - verts[start][1]
        normal = (dy, -dx)  # not normalized: only its direction matters here
        entries = []
        for elem, edge, i, j in sides:
            tri = mesh.tri_vertices[elem].tolist()
            ex = verts[tri[j]][0] - verts[tri[i]][0]
            ey = verts[tri[j]][1] - verts[tri[i]][1]
            outward = (ey, -ex)  # CCW element: the edge turned clockwise
            dot = outward[0] * normal[0] + outward[1] * normal[1]
            entries.append((elem, edge, 1 if dot > 0 else -1))
        domains = sorted(str(mesh.tri_domain[elem]) for elem, *_ in sides)
        if len(sides) == 2:
            kind = {("A", "A"): FaceKind.INTERIOR_A, ("E", "E"): FaceKind.INTERIOR_E,
                    ("A", "E"): FaceKind.GAMMA}[tuple(domains)]
        else:
            kind = boundary_kind((a, b), domains[0])
        rows.append(((start, end), kind, entries))
    return rows


def _dirichlet_kind(pair, domain):
    return FaceKind.ELASTIC_BOUNDARY if domain == "E" else FaceKind.GAMMA_AD


def _oracle_meshes(tmp_path):
    listed = mark_neumann(unit_square(3))
    path = tmp_path / "listed.mesh"
    save_mesh(listed, str(path))
    records = {}
    for line in path.read_text().splitlines()[-listed.n_faces:]:
        a, b, kind = line.split()
        records[tuple(sorted((int(a), int(b))))] = FaceKind(kind)
    return [
        (annulus(2, jitter=0.15, seed=7), _dirichlet_kind),
        (make_case("acoustic61").mesh_at(2), _dirichlet_kind),
        (load_mesh(str(path)), lambda pair, domain: records[pair]),
    ]


def test_face_numbering_matches_plain_python_oracle(tmp_path):
    for mesh, boundary_kind in _oracle_meshes(tmp_path):
        rows = face_oracle(mesh, boundary_kind)
        assert mesh.n_faces == len(rows)
        assert mesh.face_vertices.tolist() == [list(ends) for ends, _, _ in rows]
        assert [KINDS[code] for code in mesh.face_kind] == [kind for _, kind, _ in rows]
        for fid, (_, _, entries) in enumerate(rows):
            padded = entries + [(-1, -1, 0)] * (2 - len(entries))
            assert mesh.face_element[fid].tolist() == [e for e, _, _ in padded]
            assert mesh.face_local_edge[fid].tolist() == [le for _, le, _ in padded]
            assert mesh.face_sign[fid].tolist() == [sg for _, _, sg in padded]
            for elem, edge, _ in entries:
                assert mesh.element_faces[elem, edge] == fid
        assert (mesh.element_faces >= 0).all()


def test_save_load_save_is_byte_identical(tmp_path):
    for i, (mesh, _) in enumerate(_oracle_meshes(tmp_path)):
        first, second = tmp_path / f"first{i}.mesh", tmp_path / f"second{i}.mesh"
        save_mesh(mesh, str(first))
        save_mesh(load_mesh(str(first)), str(second))
        assert first.read_bytes() == second.read_bytes()


# -- validation names the first element or face at fault ------------------------


def _broken(mesh, **arrays):
    return dataclasses.replace(mesh, **{name: value.copy() for name, value in arrays.items()})


def test_validate_names_the_first_face_at_fault():
    mesh = annulus(1)
    f, g = np.flatnonzero(mesh.face_element[:, 1] >= 0)[[2, 6]]
    sign = mesh.face_sign.copy()
    sign[[f, g], 1] *= -1
    with pytest.raises(ValueError, match=f"^face {f} outward normals do not oppose$"):
        validate_mesh(_broken(mesh, face_sign=sign))
    faces = mesh.element_faces.copy()
    faces[mesh.face_element[g, 0], mesh.face_local_edge[g, 0]] = g + 1
    with pytest.raises(ValueError, match=f"^face {g} adjacency table inconsistent$"):
        validate_mesh(_broken(mesh, element_faces=faces))
    normal = mesh.face_normal.copy()
    normal[[f + 1, g]] *= 1.5
    # the first face at fault decides, whichever check it fails
    with pytest.raises(ValueError, match=f"^face {f} outward normals do not oppose$"):
        validate_mesh(_broken(mesh, face_normal=normal, face_sign=sign))
    with pytest.raises(ValueError, match=f"^face {f + 1} normal not unit length$"):
        validate_mesh(_broken(mesh, face_normal=normal))
    kind = mesh.face_kind.copy()
    kind[mesh.is_kind(FaceKind.GAMMA_AD)] = KINDS.index(FaceKind.GAMMA)
    first = int(np.flatnonzero(mesh.is_kind(FaceKind.GAMMA_AD))[0])
    with pytest.raises(ValueError, match=f"^gamma face {first} not between one solid"):
        validate_mesh(_broken(mesh, face_kind=kind))


def test_validate_names_the_first_degenerate_triangle():
    mesh = unit_square(2)
    vertices = mesh.vertices.copy()
    vertices[4] = vertices[0]  # the centre vertex onto a corner
    first = int(np.flatnonzero((mesh.tri_vertices == 4).any(axis=1))[0])
    with pytest.raises(ValueError, match=f"^triangle {first} degenerate or mis-ordered$"):
        validate_mesh(_broken(mesh, vertices=vertices))


# -- jitter mask by lattice index ------------------------------------------------


@pytest.mark.parametrize("scale", [1e-6, 1e-13])
def test_jitter_mask_is_dimensionless(scale):
    # the box shrunk by ``scale`` with the grid refined to match has the
    # same lattice: the same vertices move, by the same offsets times scale
    n = 2

    def build(factor, **kw):
        return build_structured_coupled(
            int(round(n / factor)), tuple(factor * v for v in (-2, -2, 2, 2)),
            tuple(factor * v for v in (-1, -1, 1, 1)), **kw)

    offsets = build(1.0, jitter=0.15, seed=3).vertices - build(1.0).vertices
    small = build(scale, jitter=0.15, seed=3)
    small_offsets = small.vertices - build(scale).vertices
    movable = (offsets != 0).any(axis=1)
    assert np.array_equal((small_offsets != 0).any(axis=1), movable)
    assert 0 < movable.sum() < len(movable)
    assert np.allclose(small_offsets, scale * offsets, rtol=1e-9, atol=0.0)
    assert kind_counts(small) == kind_counts(build(1.0))
