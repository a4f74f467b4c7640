"""Mesh construction, face classification, refinement, jitter, and file IO.

Counting oracles are worked out by hand: an n-cells-per-unit criss-cross
grid over a w x h box has 2*w*h*n^2 triangles, and edge counts follow from
3T = 2*interior + boundary.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdgwave.mesh import (
    ACOUSTIC_TRACE_KINDS,
    ELASTIC_TRACE_KINDS,
    FaceKind,
    build_structured_coupled,
    elastic_side_normal,
    face_endpoints,
    face_geometry,
    load_mesh,
    refine,
    save_mesh,
    validate_mesh,
)


def unit_square(n=2, **kw):
    return build_structured_coupled(n, (0.0, 0.0, 1.0, 1.0), **kw)


def annulus(n=1, **kw):
    return build_structured_coupled(n, (-2.0, -2.0, 2.0, 2.0), (-1.0, -1.0, 1.0, 1.0), **kw)


def kind_counts(mesh):
    out = {}
    for face in mesh.faces:
        out[face.kind] = out.get(face.kind, 0) + 1
    return out


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


def test_neumann_classification_predicate():
    mesh = unit_square(2, dirichlet_only=False)  # default: x = xmax side
    counts = kind_counts(mesh)
    assert counts[FaceKind.GAMMA_AN] == 2
    assert counts[FaceKind.GAMMA_AD] == 6
    top = unit_square(2, dirichlet_only=False,
                      neumann_predicate=lambda p: p[1] > 1.0 - 1e-9)
    assert kind_counts(top)[FaceKind.GAMMA_AN] == 2


def test_trace_kind_partitions():
    mesh = annulus(1)
    elastic = set(mesh.faces_of_kind(*ELASTIC_TRACE_KINDS))
    acoustic = set(mesh.faces_of_kind(*ACOUSTIC_TRACE_KINDS))
    gammas = set(mesh.faces_of_kind(FaceKind.GAMMA))
    # interface faces carry both trace fields
    assert gammas <= elastic and gammas <= acoustic
    assert elastic & acoustic == gammas


def test_face_orientation_and_geometry():
    mesh = unit_square(2)
    for fid, face in enumerate(mesh.faces):
        a, b = face_endpoints(mesh, fid)
        # canonical order: lexicographically smaller endpoint first
        assert (a[0], a[1]) <= (b[0], b[1])
        frame = face_geometry(mesh, fid)
        assert frame.length == pytest.approx(np.linalg.norm(b - a), rel=1e-14)
        tangent = (b - a) / np.linalg.norm(b - a)
        assert np.allclose(frame.tangent, tangent)
        # normal is the tangent rotated by -90 degrees, unit length
        assert np.allclose(frame.normal, [tangent[1], -tangent[0]])
        for side in face.sides:
            tri = mesh.triangle(side.element)
            centroid = tri.mean(axis=0)
            outward = side.sign * face.normal
            # outward normal points away from the element centroid
            assert np.dot(frame.midpoint - centroid, outward) > 0.0


def test_interior_faces_have_two_sides_with_opposite_signs():
    mesh = annulus(1)
    for face in mesh.faces:
        if face.kind in (FaceKind.INTERIOR_A, FaceKind.INTERIOR_E, FaceKind.GAMMA):
            assert len(face.sides) == 2
            assert {side.sign for side in face.sides} == {-1, 1}
        else:
            assert len(face.sides) == 1


def test_elastic_side_normal_points_into_fluid():
    mesh = annulus(1)
    for fid in mesh.faces_of_kind(FaceKind.GAMMA):
        n_e = elastic_side_normal(mesh, fid)
        mid = face_geometry(mesh, fid).midpoint
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
    for fid in fine.faces_of_kind(FaceKind.GAMMA):
        a, b = face_endpoints(fine, fid)
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
            tri = mesh.triangle(elem)
            area2 = (tri[1, 0] - tri[0, 0]) * (tri[2, 1] - tri[0, 1]) - (
                tri[1, 1] - tri[0, 1]
            ) * (tri[2, 0] - tri[0, 0])
            assert area2 > 0.0


def test_element_diameter_and_h():
    mesh = unit_square(2)
    # every triangle is a half-cell with hypotenuse sqrt(2)/2
    for elem in range(mesh.n_elements):
        assert mesh.element_diameter(elem) == pytest.approx(np.sqrt(2.0) / 2.0)
    assert mesh.h == pytest.approx(np.sqrt(2.0) / 2.0)


def test_save_load_round_trip(tmp_path):
    mesh = annulus(1, dirichlet_only=False)
    path = tmp_path / "mesh.txt"
    save_mesh(mesh, str(path))
    assert path.read_text().startswith("hdgmesh v1")
    back = load_mesh(str(path))
    assert back.n_elements == mesh.n_elements
    assert back.n_faces == mesh.n_faces
    assert np.allclose(back.vertices, mesh.vertices)
    assert np.array_equal(back.tri_vertices, mesh.tri_vertices)
    assert [f.kind for f in back.faces] == [f.kind for f in mesh.faces]
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
