"""Global face system: conservation rows, interface coupling, and recovery.

Unknowns live on mesh faces only: a vector trace on solid-side faces and a
scalar trace on fluid-side faces (interface faces carry both).  Dirichlet
faces are eliminated up front by projecting the boundary data onto the face
basis.  Each interior face equates the sum of the adjacent elements'
outward numerical-flux moments to zero; interface faces instead couple the
two fields through the normal-velocity and traction matching conditions.

Assembly, recovery and the residual checks work block by block on the
arrays of ``local_solver`` (``BlockLocals``, ``BlockTables``), looping over
blocks and local faces only.  Two assembly routes produce the same solution
from the same blocks: the condensed route scatters the Schur complements
of the elements' shapes, while the monolithic route rebuilds each shape's
blocks and keeps all volume unknowns alongside the trace unknowns.  The
second exists to cross-check the first.

Both routes write the matrix straight into its CSC arrays.  The pattern
comes first, from the mesh: dense blocks between the nodes (the k+1 trace
unknowns of one face and field component; monolithic, each element's
volume unknowns) that an element couples, and diagonal interface blocks;
the system keeps this node table for the fronts.  Each block is then added
in place.  An entry sums at most two terms (the two elements of a face),
whose order cannot move a bit, onto -0.0, which adds to any x as x; so
the matrix has the bits of summed COO triplets.

The system is solved on the dense fronts of a nested dissection of the mesh
(A. George 1973; I. S. Duff and J. K. Reid 1983).  The elements are bisected
recursively at the median of their centroids, along the longer extent of
each part, into leaves of at most 4 elements, numbered as a heap
(``_bisect``).  An element couples only its own faces, so the faces a
bisection cuts separate its halves: a face's trace unknowns belong to the
front of the lowest common ancestor of its elements' leaves, and an
element's volume unknowns (monolithic) to its leaf.  Assembly weights the
solid's flux rows, the interface traction rows among them, by -1/rho_f
(monolithic, each volume field's rows by its sign), which makes the matrix
complex-symmetric, so a front keeps only its panel, F11 and F21 F11^-1, and
hands its parent the update F22 - F21 F11^-1 F21^T.
Fronts of one subtree, depth and size are factored as one batch of numpy
kernels, which release the GIL, and the root's two subtrees on the calling
thread and one worker (``two_threads``); each factors the two halves of its
subtree in turn, so that only one half's updates wait at a time.  The root
adds the left subtree's updates, then the right one's, so every run has the
same bits.  The sweeps run on the calling thread, in one vector, one pass
over the batches each way: forward children first, then backward.  The
fronts hold the symmetric part of the matrix, which is symmetric only to
round-off, so one refinement step against the assembled matrix follows the
solve.  The residual check of ``solve_assembled`` is the only guard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .local_solver import (
    Assembler,
    BlockLocals,
    ModelParams,
    hooke_inverse_apply,
    reconstruct_flux,
    two_threads,
)
from .mesh import (
    FaceKind,
    Mesh,
    elastic_side_normal,
    face_rule,
)


class SingularSkeletonSystem(RuntimeError):
    """Raised when the global face system cannot be solved reliably."""


@dataclass
class SolveStats:
    """What one sparse solve did: the order ``n`` and the stored entries
    ``nnz`` of the matrix, the entries the fronts store (``factor_entries``,
    F11 and F21 F11^-1), ``residual_rel`` = ||A x - b|| / ||b|| (||A x - b|| if
    b = 0) of the stored, row-weighted system, the elements' least local
    ``rcond`` (1 without any), and ``forward_error`` = ||d|| / ||x|| (||d|| if
    x = 0), d the correction of the refinement step, an estimate of the first
    solve's relative error."""

    n: int
    nnz: int
    factor_entries: int
    residual_rel: float
    local_rcond: float
    forward_error: float


@dataclass
class ProblemData:
    """Sources and boundary/interface data; any callable may be omitted.

    Point arrays have shape (n, 2).  ``neumann`` receives the outward unit
    normal of the fluid domain, ``g1``/``g2`` receive the outward normal of
    the solid domain; both may depend on it.  Every face of a kind is
    sampled in one call, so the normals come as one row (n, 2) per point.
    """

    f: Callable | None = None            # fluid volume source -> (n,)
    f_elastic: Callable | None = None    # solid volume source -> (n, 2)
    dirichlet: Callable | None = None    # scalar trace on Dirichlet faces -> (n,)
    neumann: Callable | None = None      # (pts, n_out) -> (n,) prescribed flux
    u_dirichlet: Callable | None = None  # displacement trace -> (n, 2)
    v_inc: Callable | None = None        # incident scalar on the interface -> (n,)
    grad_v_inc: Callable | None = None   # its gradient -> (n, 2)
    g1: Callable | None = None           # (pts, n_e) -> (n,) velocity-row data
    g2: Callable | None = None           # (pts, n_e) -> (n, 2) traction-row data


_UHAT_UNKNOWN = frozenset({FaceKind.INTERIOR_E, FaceKind.GAMMA})
_VHAT_UNKNOWN = frozenset({FaceKind.INTERIOR_A, FaceKind.GAMMA, FaceKind.GAMMA_AN})


@dataclass
class DofMap:
    """Offsets of each face's trace unknowns in the skeleton vector (-1: none)."""

    mesh: Mesh
    k: int
    uhat_offset: np.ndarray
    vhat_offset: np.ndarray
    n_dofs: int


def build_dof_map(mesh: Mesh, k: int) -> DofMap:
    """Face by face, the scalar trace's k+1 unknowns, then the displacement
    trace's 2(k+1)."""
    has_v = mesh.is_kind(*_VHAT_UNKNOWN)
    has_u = mesh.is_kind(*_UHAT_UNKNOWN)
    width = has_v * (k + 1) + has_u * 2 * (k + 1)
    start = np.cumsum(width) - width
    return DofMap(mesh=mesh, k=k, uhat_offset=np.where(has_u, start + has_v * (k + 1), -1),
                  vhat_offset=np.where(has_v, start, -1), n_dofs=int(width.sum()))


@dataclass
class AssembledSystem:
    matrix: sp.csc_matrix
    rhs: np.ndarray
    dofmap: DofMap
    locals_: list[BlockLocals]
    fixed_uhat: np.ndarray      # (n_faces, 2(k+1))
    fixed_vhat: np.ndarray      # (n_faces, k+1)
    volume_offsets: np.ndarray | None
    nodes: _NodePattern         # the matrix's node bounds and blocks
    solve_stats: SolveStats | None = None  # set by solve_assembled


def _element_faces(mesh: Mesh, dofmap: DofMap, first: int, rho_f: float):
    """Of each element face (n_elements, 3): its trace's skeleton offset
    (-1: eliminated), its flux-row weight (0: no row; 1 on the fluid, -1/rho_f
    on the solid, which makes the matrix complex-symmetric), and (..., 2) its
    trace nodes from ``first`` on, one (fluid) or two (solid; -1: none)."""
    faces = mesh.element_faces
    solid = (mesh.tri_domain == "E")[:, None]
    offset = np.where(solid, dofmap.uhat_offset[faces], dofmap.vhat_offset[faces])
    has = (offset >= 0)[..., None] & (solid[..., None] | np.array([True, False]))
    nodes = np.where(has, first + offset[..., None] // (dofmap.k + 1) + np.arange(2), -1)
    return offset, np.where(offset >= 0, np.where(solid, -1.0 / rho_f, 1.0), 0.0), nodes


class _NodePattern:
    """CSC arrays of a matrix of full or diagonal blocks between the nodes
    ``bounds[i]:bounds[i+1]``, node pairs given as broadcastable arrays (-1:
    none), and its node table: the pairs p = (R, C) sorted by their key
    ``keys[p]`` = C n_nodes + R, so by column node, then row node, and whether
    each is diagonal (``diag[p]``).  Column c of node C holds the rows of each
    row node R paired with it in order (one row if diagonal), so the entry in
    row bounds[R] + r of the pair p lies at indptr[c] + off[p] + r (r = 0 if
    diagonal).  The index arrays are int32, so the matrix shares them."""

    def __init__(self, bounds: np.ndarray, full: list, diagonal: list):
        self.bounds, self.start, width = bounds, bounds[:-1], np.diff(bounds)
        self.n_nodes = len(width)
        # twice the key, plus one for a diagonal pair
        keys = np.sort(np.concatenate([2 * self._keys(*pair[:2])[1] + diag for diag, pairs
                                       in enumerate((full, diagonal)) for pair in pairs]))
        self.keys, diag = np.divmod(keys[np.diff(keys, prepend=-1) != 0], 2)
        self.diag = diag.astype(bool)
        col, row = np.divmod(self.keys, self.n_nodes)
        per_column = np.where(self.diag, 1, width[row])
        self.length = np.bincount(col, per_column, self.n_nodes).astype(int)
        before = np.cumsum(per_column) - per_column
        self.off = before - before[np.searchsorted(col, col)]
        self.indptr = np.append(0, np.cumsum(np.repeat(self.length, width))).astype(np.int32)
        self.data = np.full(self.indptr[-1], complex(-0.0, -0.0))
        self.indices = np.empty(self.indptr[-1], dtype=np.int32)

    def _keys(self, rn, cn):
        rn, cn = np.broadcast_arrays(rn, cn)
        ok = (rn >= 0) & (cn >= 0)
        return ok, cn[ok] * self.n_nodes + rn[ok]

    def add(self, rn, cn, vals: np.ndarray) -> None:
        """Add the blocks vals (..., rows, columns) of the pairs (rn, cn)."""
        ok, keys = self._keys(rn, cn)
        vals = np.broadcast_to(vals, ok.shape + vals.shape[-2:])[ok]
        p = np.searchsorted(self.keys, keys)
        cn, rn = np.divmod(keys, self.n_nodes)
        r, c = np.arange(vals.shape[1])[:, None], np.arange(vals.shape[2])
        at = self.indptr[self.start[cn]] + self.off[p]
        at = (at[:, None] + self.length[cn][:, None] * c)[:, None] + r
        np.add.at(self.data, at.ravel(), vals.ravel())  # a 1-d index takes numpy's fast loop
        self.indices[at] = (self.start[rn][:, None] + self.diag[p][:, None] * c)[:, None] + r


# the weights of the monolithic volume rows, per field, in units of 1/rho_f on
# the solid; with them the matrix equals its (unconjugated) transpose
_VOLUME_ROW_SCALE = {"sigma": 1.0, "u": -1.0, "gamma": 1.0, "q": -1.0, "v": 1.0}


def assemble_system(assembler: Assembler, data: ProblemData,
                    monolithic: bool = False) -> AssembledSystem:
    mesh, k, rho_f = assembler.mesh, assembler.k, assembler.params.rho_f
    dofmap = build_dof_map(mesh, k)
    gamma = np.flatnonzero(mesh.is_kind(FaceKind.GAMMA))
    n_e = elastic_side_normal(mesh, gamma)
    moments = _data_moments(mesh, k, data, gamma, n_e)
    # the eliminated Dirichlet traces, zero on the faces whose trace is an unknown
    fixed_uhat, fixed_vhat = moments["u_dirichlet"], moments["dirichlet"]
    locals_ = assembler.all_locals(f_acoustic=data.f, f_elastic=data.f_elastic)

    vol_off = None
    trace_base = 0  # the number of volume unknowns, numbered first
    if monolithic:
        dims = np.zeros(mesh.n_elements, dtype=int)
        for loc in locals_:
            dims[loc.elems] = loc.ops.volume_dim
        vol_off = np.concatenate([[0], np.cumsum(dims)])
        trace_base = int(vol_off[-1])
    n_total = trace_base + dofmap.n_dofs
    rhs = np.zeros(n_total, dtype=complex)

    # one node per element's volume unknowns (monolithic), then one per the
    # k+1 unknowns of a face and trace component
    first = mesh.n_elements if monolithic else 0
    offsets, weights, nodes = _element_faces(mesh, dofmap, first, rho_f)
    flat, vn = nodes.reshape(len(nodes), -1), np.arange(mesh.n_elements)[:, None]
    pairs = ([(nodes[..., None], nodes[..., None, :]), (vn, flat), (flat, vn), (vn, vn)]
             if monolithic else [(flat[:, :, None], flat[:, None, :])])
    bounds = np.concatenate([vol_off[:-1] if monolithic else [],
                             np.arange(trace_base, n_total + 1, k + 1)]).astype(int)
    couplings = _interface_blocks(assembler, dofmap, first, gamma, n_e)
    pattern = _NodePattern(bounds, pairs, couplings)

    for loc in locals_:
        nb = len(loc.elems)
        blk = loc.ops.trace_dim // 3
        split = (nb, 3, blk // (k + 1), k + 1)  # (..., face, component, mode)
        tn = nodes[loc.elems, :, : split[2]]
        faces, offset, w = mesh.element_faces[loc.elems], offsets[loc.elems], weights[loc.elems]
        fixed = (fixed_uhat if loc.domain == "E" else fixed_vhat)[faces].reshape(nb, -1)
        idx = trace_base + offset[..., None] + np.arange(blk)  # (nb, 3, blk)
        known = offset >= 0
        if monolithic:
            (a, b, c, d), slices, _ = assembler.shape_blocks(loc.elems, loc.domain)
            vw = np.empty(loc.ops.volume_dim)  # the volume rows' weights
            for name, sl in slices.items():
                vw[sl] = _VOLUME_ROW_SCALE[name] / (rho_f if loc.domain == "E" else 1.0)
            a, b = vw[:, None] * a, vw[:, None] * b
            vn = loc.elems[:, None, None]  # the volume node
            # the direct trace block is face-diagonal
            d = np.einsum("efixfjz->efijxz", d.reshape(split + split[1:]))
            pattern.add(tn[..., None], tn[..., None, :], w[..., None, None, None, None] * d)
            pattern.add(tn, vn, w[..., None, None, None] * c.reshape(split + (-1,)))
            pattern.add(loc.elems, loc.elems, a)
            pattern.add(vn, tn, -b.reshape((nb, -1) + split[1:]).transpose(0, 2, 3, 1, 4))
            v_idx = vol_off[loc.elems, None] + np.arange(loc.ops.volume_dim)
            rhs[v_idx] += (b @ fixed[..., None])[..., 0] + vw * loc.source_moments
        else:
            condensed = loc.ops.condensed_map[loc.shape].reshape(nb, 3, blk, 3, blk)
            pattern.add(tn[..., None, None], tn[:, None, None], w[..., None, None, None, None, None]
                        * condensed.reshape(split + split[1:]).transpose(0, 1, 2, 4, 5, 3, 6))
            # per element and row face: the flux of each eliminated trace,
            # then that of the source, subtracted one at a time in element
            # order, so that the rounding does not depend on the blocking
            by_face = condensed.transpose(0, 1, 3, 2, 4)  # (nb, row face, column face, ...)
            terms = np.concatenate(
                [(by_face @ fixed.reshape(nb, 1, 3, blk, 1))[..., 0],
                 loc.rhs_trace.reshape(nb, 3, 1, blk)], axis=2) * w[..., None, None]
            used = np.concatenate([~known, np.ones((nb, 1), dtype=bool)], axis=1)
            use = known[:, :, None] & used[:, None, :]
            np.subtract.at(rhs, np.broadcast_to(idx[:, :, None], terms.shape)[use], terms[use])

    for rn, cn, vals in couplings:
        pattern.add(rn, cn, vals)
    _face_terms(assembler, moments, dofmap, rhs, trace_base, gamma, n_e)

    matrix = sp.csc_matrix((pattern.data, pattern.indices, pattern.indptr),
                           shape=(n_total, n_total))
    # what only assembly reads goes before the factorization; the solve and
    # recovery read the lift maps, ``rhs_volume``, ``rcond`` and the slices
    for loc in locals_:
        loc.ops.condensed_map = loc.source_moments = loc.rhs_trace = None
    return AssembledSystem(
        matrix=matrix,
        rhs=rhs,
        dofmap=dofmap,
        locals_=locals_,
        fixed_uhat=fixed_uhat,
        fixed_vhat=fixed_vhat,
        volume_offsets=vol_off,
        nodes=pattern,
    )


def _data_moments(mesh: Mesh, k: int, data: ProblemData, gamma: np.ndarray,
                  n_e: np.ndarray) -> dict[str, np.ndarray]:
    """Face-basis moments of the boundary and interface data: per datum of m
    components one array (n_faces, m(k+1)), zero off its face kind and if it
    is not given.  Each datum is sampled on all faces of its kind at once,
    with the outward normal its row names, the fluid's ("A") or the solid's
    ("E"; ``n_e`` on the interface faces ``gamma``); ``grad_v_inc`` enters
    by its normal part against the fluid's."""
    n_a = mesh.face_sign[:, :1] * mesh.face_normal
    n_a[gamma] = -n_e
    normal = {"A": n_a, "E": -n_a}
    rules, out = {}, {}
    for name, kind, m, side in (("dirichlet", FaceKind.GAMMA_AD, 1, None),
                                ("u_dirichlet", FaceKind.ELASTIC_BOUNDARY, 2, None),
                                ("neumann", FaceKind.GAMMA_AN, 1, "A"),
                                ("grad_v_inc", FaceKind.GAMMA, 1, "A"),
                                ("g1", FaceKind.GAMMA, 1, "E"),
                                ("v_inc", FaceKind.GAMMA, 1, None),
                                ("g2", FaceKind.GAMMA, 2, "E")):
        out[name] = np.zeros((mesh.n_faces, m * (k + 1)), dtype=complex)
        faces = gamma if kind is FaceKind.GAMMA else np.flatnonzero(mesh.is_kind(kind))
        if (fn := getattr(data, name)) is None or not len(faces):
            continue
        fr = rules[kind] = rules.get(kind) or face_rule(mesh, faces, k)
        normals = [normal[side][faces]] if side else []
        if name == "grad_v_inc":
            vals = (fr.sample(fn) @ normals[0][:, :, None])[..., 0]
        else:
            vals = fr.sample(fn, *normals)
        out[name][faces] = fr.moments(vals)
    return out


def _interface_blocks(assembler: Assembler, dofmap: DofMap, first: int, gamma: np.ndarray,
                      n_e: np.ndarray) -> list:
    """The diagonal interface blocks (row nodes, column nodes, values (n_gamma, 1, k+1)): velocity
    row to displacement trace and traction row to scalar trace, mode by mode through one normal
    component, both -s n_e (the traction row is weighted by -1/rho_f as the solid's flux rows
    are, so the two are each other's transpose); a zero component pairs no nodes, so that the
    matrix stores no zero.  ``gamma`` and ``n_e`` are as in ``_data_moments``."""
    kp1, s = assembler.k + 1, assembler.params.s
    v, u = (first + offset[gamma] // kp1 for offset in (dofmap.vhat_offset, dofmap.uhat_offset))
    return [(np.where(n_e[:, c] == 0, -1, rn), cn,
             np.broadcast_to((-s * n_e[:, c])[:, None, None], (len(gamma), 1, kp1)))
            for c in (0, 1) for rn, cn in ((v, u + c), (u + c, v))]


def _face_terms(assembler: Assembler, moments: dict[str, np.ndarray], dofmap: DofMap,
                rhs: np.ndarray, trace_base: int, gamma: np.ndarray, n_e: np.ndarray) -> None:
    """Neumann and interface data moments (those of ``_data_moments``; the
    traction rows' over rho_f), all faces of a kind at once; ``gamma`` and ``n_e`` as there."""
    mesh, kp1, params = assembler.mesh, assembler.k + 1, assembler.params
    neumann = np.flatnonzero(mesh.is_kind(FaceKind.GAMMA_AN))
    rhs[trace_base + dofmap.vhat_offset[neumann, None] + np.arange(kp1)] += \
        moments["neumann"][neumann]
    v_idx = trace_base + dofmap.vhat_offset[gamma, None] + np.arange(kp1)
    rhs[v_idx] -= moments["grad_v_inc"][gamma]
    rhs[v_idx] += moments["g1"][gamma]
    # per displacement component: the incident field through n_A = -n_e, then g2
    g2 = moments["g2"][gamma].reshape(len(gamma), 2, kp1)
    for c in (0, 1):
        u_idx = trace_base + dofmap.uhat_offset[gamma, None] + c * kp1 + np.arange(kp1)
        rhs[u_idx] -= params.s * -n_e[:, c, None] * moments["v_inc"][gamma]
        rhs[u_idx] += g2[:, c] / params.rho_f


def _ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The ranges lo[i]:hi[i], concatenated."""
    size = hi - lo
    return np.repeat(lo - np.cumsum(size) + size, size) + np.arange(size.sum())


def _bisect(centroids: np.ndarray) -> np.ndarray:
    """Recursive bisection of the elements at the median of their centroids,
    along the longer extent of each part, into leaves of at most 4 elements,
    numbered as a heap: the root 1, and the halves of part f are 2f (the
    lower) and 2f + 1.  Returns the leaf of each element."""
    order, leaf = np.arange(len(centroids)), np.zeros(len(centroids), dtype=int)
    ids, lo, hi = np.array([1]), np.array([0]), np.array([len(centroids)])
    while True:
        split = hi - lo > 4
        leaf[order[_ranges(lo[~split], hi[~split])]] = np.repeat(ids[~split], (hi - lo)[~split])
        ids, lo, hi = ids[split], lo[split], hi[split]
        if not len(ids):
            return leaf
        pos, size = _ranges(lo, hi), hi - lo
        part, pts = np.repeat(np.arange(len(ids)), size), centroids[order[pos]]
        first = np.cumsum(size) - size
        extent = np.maximum.reduceat(pts, first) - np.minimum.reduceat(pts, first)
        along = (extent[:, 1] > extent[:, 0])[part]
        order[pos] = order[pos[np.lexsort((np.where(along, pts[:, 1], pts[:, 0]), part))]]
        mid = (lo + hi) // 2
        ids = np.column_stack([2 * ids, 2 * ids + 1]).ravel()
        lo, hi = np.column_stack([lo, mid]).ravel(), np.column_stack([mid, hi]).ravel()


def _nodes(system: AssembledSystem):
    """The element centroids, and each node's elements (n_nodes, 2; -1:
    none) and face (-1: none)."""
    dofmap, n_nodes = system.dofmap, system.nodes.n_nodes
    mesh, kp1 = dofmap.mesh, dofmap.k + 1
    node_elems, node_face = np.full((n_nodes, 2), -1), np.full(n_nodes, -1)
    first = n_nodes - dofmap.n_dofs // kp1
    node_elems[:first, 0] = np.arange(first)
    for offsets, count in ((dofmap.vhat_offset, 1), (dofmap.uhat_offset, 2)):
        faces = np.flatnonzero(offsets >= 0)
        at = first + offsets[faces, None] // kp1 + np.arange(count)
        node_elems[at], node_face[at] = mesh.face_element[faces, None], faces[:, None]
    return mesh.vertices[mesh.tri_vertices].mean(axis=1), node_elems, node_face


def _runs(key: np.ndarray) -> list[np.ndarray]:
    """The row indices of ``key`` (n, columns) sorted by its columns, split
    into runs of equal rows; stable, so each run is in index order."""
    order = np.lexsort(key.T[::-1])
    cut = np.flatnonzero((np.diff(key[order], axis=0) != 0).any(axis=1)) + 1
    return [run for run in np.split(order, cut) if len(run)]


def _lca(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The lowest common ancestor of the fronts a[i] and b[i]: the larger of
    two different heap numbers lies below it, so it is halved until they meet."""
    while (a != b).any():
        a, b = np.where(a > b, a >> 1, a), np.where(b > a, b >> 1, b)
    return a


@dataclass
class _Batch:
    """Fronts (heap numbers) of one of the root's subtrees (``group``, the
    thread that factors them; 2: the root), half of it, depth, front size m
    and own size n1, in front order.  Their own unknowns are the places
    ``start : start + nb n1`` of the permuted vector (``_Fronts.perm``), their
    boundary unknowns the places ``bidx`` (nb, n2); ``li`` (nb, n2) are those
    unknowns' places in the parent's front, in increasing order.  ``blocks``
    are the node blocks of the matrix (``AssembledSystem.nodes``) that the
    fronts gather, and ``children`` the (child batch, its members, their
    parents' places here, the number of the children's boundary unknowns
    that the parent owns) whose updates are added, left children first."""

    group: int
    fronts: np.ndarray
    m: int
    n1: int
    start: int
    bidx: np.ndarray
    li: np.ndarray
    blocks: list
    children: list


class _Fronts:
    """The nested dissection of a system and its fronts.

    A node is a block of unknowns of the matrix pattern: the k+1 unknowns of
    one face and trace component or, monolithic, an element's volume
    unknowns.  The elements are bisected (``_bisect``); a node belongs to
    the front (by heap number) of the lowest common ancestor of its
    elements' leaves, and it is a boundary unknown of every front between
    one of its elements' leaves and its own front.  The nodes and the
    matrix's blocks between them are the system's node table
    (``AssembledSystem.nodes``).  Unknowns are numbered by subtree of the
    root (its left, its right, the root itself), half of that subtree, depth
    (deepest first), front and node (``perm``: the unknown at each place),
    and the ``batches`` are stored in that order, so each comes before the
    batch of its fronts' parents.
    """

    def __init__(self, system: AssembledSystem):
        table = system.nodes
        bounds, n_nodes, width = table.bounds, table.n_nodes, np.diff(table.bounds)
        centroids, node_elems, node_face = _nodes(system)
        leaf = _bisect(centroids)
        n_fronts = leaf.max() + 1  # the deepest leaf's number is the largest
        number = np.arange(n_fronts)
        depth = np.frexp(number)[1] - 1  # the bit length less one
        on_path = np.bincount((leaf[:, None] >> np.arange(depth[-1] + 1)).ravel()) > 0
        fronts = np.flatnonzero(on_path & (number > 0))  # the leaves and their ancestors
        # a node's other element or its only one (a face lists its elements in increasing order)
        owner = _lca(leaf[node_elems[:, 0]], leaf[node_elems.max(axis=1)])
        self.node_face, self.node_elems, self.owner = node_face, node_elems, owner

        # boundary nodes: from each element's leaf up to, not including, the node's front
        node, which = np.nonzero(node_elems >= 0)
        front, keys = leaf[node_elems[node, which]], [np.zeros(0, dtype=int)]
        while len(node):
            keep = front > owner[node]  # on one root path, the deeper front is the larger
            node, front = node[keep], front[keep]
            keys.append(front * n_nodes + node)
            front = front >> 1
        # (a node's elements have disjoint paths below its front: no pair repeats)
        bfront, bnode = np.divmod(np.concatenate(keys), n_nodes)
        n1 = np.bincount(owner, width, n_fronts).astype(int)
        n2 = np.bincount(bfront, width[bnode], n_fronts).astype(int)
        m = n1 + n2
        # the side of a front's ancestors at depth 1 (its thread) and 2 (the
        # half of that subtree it is factored in; 2 above either)
        group, half = (np.where(depth >= level, (number >> np.maximum(depth - level, 0)) & 1, 2)
                       for level in (1, 2))

        # the numbering: fronts by subtree, depth (deepest first), size and number
        key = np.stack([group, half, -depth, m, n1], axis=1)
        order = fronts[np.lexsort(key[fronts].T[::-1])]
        rank = np.empty(n_fronts, dtype=int)
        rank[order] = np.arange(len(order))
        nodes = np.lexsort((np.arange(n_nodes), rank[owner]))
        npos = np.empty(n_nodes, dtype=int)
        npos[nodes] = np.cumsum(width[nodes]) - width[nodes]
        self.perm = _ranges(bounds[nodes], bounds[nodes + 1])
        fstart = np.empty(n_fronts, dtype=int)
        fstart[order] = np.cumsum(n1[order]) - n1[order]

        # each (front, node) pair's place in the front: own nodes first
        bsort = np.lexsort((npos[bnode], bfront))
        bfront, bnode = bfront[bsort], bnode[bsort]
        bw = width[bnode]
        before = np.cumsum(bw) - bw
        bptr = np.concatenate([[0], np.cumsum(np.bincount(bfront, minlength=n_fronts))])
        bplace = n1[bfront] + before - before[bptr[bfront]]
        pair = np.concatenate([owner * n_nodes + np.arange(n_nodes), bfront * n_nodes + bnode])
        sort = np.argsort(pair)
        pair, place = pair[sort], np.concatenate([npos - fstart[owner], bplace])[sort]

        def place_of(front, node):
            return place[np.searchsorted(pair, front * n_nodes + node)]

        bpos = _ranges(npos[bnode], npos[bnode] + bw).astype(np.int32)
        at_parent = place_of(bfront >> 1, bnode)
        li = _ranges(at_parent, at_parent + bw).astype(np.int32)
        uptr = np.concatenate([[0], np.cumsum(n2)])
        to_own = np.bincount(bfront, bw * (at_parent < n1[bfront >> 1]), n_fronts).astype(int)

        # a block of the matrix goes to the front of its column node if its
        # row node is that front's or an ancestor's; the rest is the transpose's
        cn, rn = np.divmod(table.keys, n_nodes)
        at = owner[cn]
        keep = owner[rn] <= at
        cn, rn, off, diag, at = (a[keep] for a in (cn, rn, table.off, table.diag, at))
        lr, lc = place_of(at, rn), npos[cn] - fstart[at]

        # batches: runs of equal subtree, depth, m and n1 in front order
        runs = [order[run] for run in _runs(key[order])]
        batch_of, slot = np.empty(n_fronts, dtype=int), np.empty(n_fronts, dtype=int)
        for b, run in enumerate(runs):
            batch_of[run], slot[run] = b, np.arange(len(run))
        self.batches = []
        for b, run in enumerate(runs):
            f, units = run[0], _ranges(uptr[run], uptr[run + 1])
            self.batches.append(_Batch(
                group=group[f], fronts=run, m=m[f], n1=n1[f], start=fstart[f],
                bidx=bpos[units].reshape(len(run), n2[f]),
                li=li[units].reshape(len(run), n2[f]), blocks=[], children=[]))
        # each batch's blocks by row and column width and diagonality
        kind = np.stack([batch_of[at], width[rn], width[cn], diag], axis=1)
        maps = np.stack([bounds[cn], off, lr, lc]).astype(np.int32)
        for grp in _runs(kind):
            b, wr, wc, dg = kind[grp[0]]
            self.batches[b].blocks.append((wr, wc, dg, *maps[:, grp], slot[at[grp]]))
        # each batch's children by side (left first), batch and the number
        # of their boundary unknowns that the parent owns
        child = fronts[fronts > 1]
        kind = np.stack([batch_of[child >> 1], child & 1, batch_of[child], to_own[child]], axis=1)
        for grp in _runs(kind):
            c = child[grp]
            self.batches[kind[grp[0], 0]].children.append(
                (batch_of[c[0]], slot[c], slot[c >> 1], to_own[c[0]]))

    def site(self, front: int) -> str:
        """The first face of a front's own unknowns (or their element)."""
        own = np.flatnonzero(self.owner == front)
        faces = self.node_face[own][self.node_face[own] >= 0]
        return f"face {faces[0]}" if len(faces) else f"element {self.node_elems[own[0], 0]}"


class _Factors:
    """The factored fronts: per batch, in the order of ``fronts.batches``,
    the panels [F11; F21 F11^-1] (nb, m, n1) of the complex-symmetric matrix
    as assembled."""

    def __init__(self, fronts: _Fronts, panels: list):
        self.fronts, self.panels = fronts, panels
        self.entries = sum(p.size for p in panels)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """A^-1 rhs in one permuted vector y: forward through the batches in
        their order, children first (b2 -= L b1, z = F11^-1 b1), then
        backward in reverse (x1 = z - L^T x2); L = F21 F11^-1."""
        fr = self.fronts
        y = rhs[fr.perm]
        parts = [(b, p[:, : b.n1], p[:, b.n1 :],
                  y[b.start : b.start + len(b.fronts) * b.n1].reshape(len(b.fronts), b.n1, 1))
                 for b, p in zip(fr.batches, self.panels)]
        for b, f11, low, own in parts:
            np.subtract.at(y, b.bidx.ravel(), (low @ own).ravel())
            own[:] = np.linalg.solve(f11, own)
        for b, _, low, own in reversed(parts):
            own -= low.transpose(0, 2, 1) @ y[b.bidx][..., None]
        x = np.empty_like(y)
        x[fr.perm] = y
        return x


def factor_fronts(fronts: _Fronts, matrix: sp.csc_matrix) -> _Factors:
    """Eliminate each front's own unknowns, batch by batch, the root's two
    subtrees (if it has any) on ``two_threads``, then the root.  A front is
    gathered as its panel [F11; F21] (m, n1) from the matrix's blocks, as
    assembled, and its children's updates, and kept as [F11; F21 F11^-1];
    it passes on its update U = F22 - F21 F11^-1 F21^T (n2, n2).  A front
    with an exactly singular F11 raises ``SingularSkeletonSystem`` naming
    its first face, the left subtree's if both subtrees have one."""
    sizes = [len(b.fronts) * b.m * b.n1 for b in fronts.batches]
    panels = np.split(np.zeros(sum(sizes), dtype=complex), np.cumsum(sizes)[:-1])
    uses = np.bincount([cb for b in fronts.batches for cb, *_ in b.children],
                       minlength=len(sizes))
    updates = {}  # by batch, until their parents have them; a subtree's only by its thread

    def eliminate(b: _Batch, panel: np.ndarray) -> np.ndarray:
        n1, m, n2 = b.n1, b.m, b.m - b.n1
        for wr, wc, diag, col, off, lr, lc, slot in b.blocks:
            c = np.arange(wc)
            r = np.zeros((1, 1), dtype=int) if diag else np.arange(wr)[:, None]
            src = matrix.indptr[col[:, None] + c][:, None] + off[:, None, None] + r
            panel[((slot[:, None, None] * m + lr[:, None, None] + (c if diag else r)) * n1
                   + lc[:, None, None] + c).ravel()] = matrix.data[src].ravel()
        # a child's update rows that the parent owns add to the panel,
        # transposed (the update is symmetric); the rest of its lower right
        # block adds to F22
        parts = [(fronts.batches[cb].li[members], cb, members, slots, t)
                 for cb, members, slots, t in b.children]
        for li, cb, members, slots, t in parts:
            np.add.at(panel, ((slots[:, None, None] * m + li[:, None, :]) * n1
                              + li[:, :t, None]).ravel(), updates[cb][members, :t].ravel())
        panel = panel.reshape(len(b.fronts), m, n1)
        a11, a21 = panel[:, :n1], panel[:, n1:]
        try:
            w = np.linalg.solve(a11, a21.transpose(0, 2, 1))
        except np.linalg.LinAlgError:  # an exactly singular F11: name the least rank's front
            front = b.fronts[np.argmin(np.linalg.matrix_rank(a11))]
            raise SingularSkeletonSystem(f"singular front at {fronts.site(front)}") from None
        update = a21 @ np.negative(w, out=w)  # -F21 W
        np.negative(w.transpose(0, 2, 1), out=a21)  # F21 F11^-1 = W^T, as F11 is symmetric
        for li, cb, members, slots, t in parts:
            np.add.at(update.reshape(-1), ((slots[:, None, None] * n2 + li[:, t:, None] - n1) * n2
                                           + li[:, None, t:] - n1).ravel(),
                      updates[cb][members, t:, t:].ravel())
            uses[cb] -= 1
            if not uses[cb]:
                del updates[cb]
        return update

    def run(group: int) -> None:
        for i, b in enumerate(fronts.batches):
            if b.group == group:
                updates[i] = eliminate(b, panels[i])

    two_threads(run, sorted({b.group for b in fronts.batches} - {2}))  # none if one front
    run(2)
    return _Factors(fronts, [p.reshape(len(b.fronts), b.m, b.n1) for p, b in
                             zip(panels, fronts.batches)])


def solve_assembled(system: AssembledSystem) -> np.ndarray:
    """Solve the assembled system on its nested-dissection fronts, with one
    step of refinement; records what the solve did in ``system.solve_stats``,
    also when the residual check then fails."""
    matrix = sp.csc_matrix(system.matrix)  # no copy of a CSC matrix
    fronts = _Fronts(system)
    factors = factor_fronts(fronts, matrix)
    x = factors.solve(system.rhs)
    correction = factors.solve(system.rhs - matrix @ x)
    x += correction
    step, size = float(np.linalg.norm(correction)), float(np.linalg.norm(x))
    # relative to the right-hand side alone, so that the check does not
    # loosen on problems whose data are small; a zero rhs solves exactly
    residual = float(np.linalg.norm(matrix @ x - system.rhs))
    scale = float(np.linalg.norm(system.rhs))
    system.solve_stats = SolveStats(
        n=matrix.shape[0], nnz=matrix.nnz, factor_entries=factors.entries,
        residual_rel=residual / scale if scale else residual,
        local_rcond=min((float(loc.ops.rcond[loc.shape].min())
                               for loc in system.locals_), default=1.0),
        forward_error=step / size if size else step,
    )
    if not np.isfinite(residual) or residual > 1e-10 * scale:
        raise SingularSkeletonSystem(
            f"face-system residual {residual:.3e} exceeds 1e-10 x {scale:.3e}"
        )
    return x


@dataclass
class FieldSolution:
    """Recovered coefficients of every field, as arrays over elements and faces.

    ``volume[domain]`` is (n_domain_elements, volume_dim), one row of volume
    unknowns per element of the domain ("E" or "A"; only domains that have
    elements), the rows in element order.  ``row`` (n_elements,) is the row
    of each element in its domain's array, so the unknowns of elements
    ``elems`` are ``volume[domain][row[elems]]``.  ``parts[name]`` is the
    column slice of one field, a view of its domain's array: sigma, u and
    gamma on solid elements, q and v on fluid ones.  ``uhat``
    (n_faces, 2(k+1)) and ``vhat`` (n_faces, k+1) are the solved or fixed
    trace coefficients of every face, zero where a face has no such trace;
    the traces of elements ``elems`` are ``uhat[mesh.element_faces[elems]]``.
    ``dof_values`` is the solved vector of skeleton unknowns.
    """

    volume: dict[str, np.ndarray]
    parts: dict[str, np.ndarray]
    row: np.ndarray
    uhat: np.ndarray
    vhat: np.ndarray
    dof_values: np.ndarray


def _face_values(skeleton: np.ndarray, offsets: np.ndarray, fixed: np.ndarray) -> np.ndarray:
    """Trace coefficients of every face (n_faces, width): solved or fixed."""
    vals = fixed.copy()
    known = offsets >= 0
    vals[known] = skeleton[offsets[known, None] + np.arange(fixed.shape[1])]
    return vals


def recover_fields(assembler: Assembler, system: AssembledSystem,
                   x: np.ndarray) -> FieldSolution:
    mesh = assembler.mesh
    dofmap = system.dofmap
    skeleton = x[len(x) - dofmap.n_dofs :]
    uhat = _face_values(skeleton, dofmap.uhat_offset, system.fixed_uhat)
    vhat = _face_values(skeleton, dofmap.vhat_offset, system.fixed_vhat)

    row = np.empty(mesh.n_elements, dtype=int)
    blocks: dict[str, list[np.ndarray]] = {}
    slices: dict[str, dict[str, slice]] = {}
    for loc in system.locals_:
        if system.volume_offsets is not None:
            vol = x[system.volume_offsets[loc.elems, None] + np.arange(loc.ops.volume_dim)]
        else:
            faces = mesh.element_faces[loc.elems]
            tr = (uhat if loc.domain == "E" else vhat)[faces].reshape(len(loc.elems), -1)
            vol = (loc.ops.lift_map[loc.shape] @ tr[..., None])[..., 0] + loc.rhs_volume
        done = blocks.setdefault(loc.domain, [])
        row[loc.elems] = sum(map(len, done)) + np.arange(len(loc.elems))
        done.append(vol)
        slices[loc.domain] = loc.ops.slices
    volume = {domain: np.concatenate(vols) for domain, vols in blocks.items()}
    parts = {name: volume[domain][:, sl]
             for domain, named in slices.items() for name, sl in named.items()}
    return FieldSolution(volume=volume, parts=parts, row=row, uhat=uhat, vhat=vhat,
                         dof_values=skeleton)


def solve_problem(mesh: Mesh, k: int, params: ModelParams, data: ProblemData,
                  monolithic: bool = False, assembler: Assembler | None = None,
                  dump_prefix: str | None = None):
    """Assemble, solve, and recover; returns (solution, assembled system).

    A given ``assembler`` must be the one of this mesh object, ``k`` and
    ``params``."""
    if assembler is None:
        assembler = Assembler(mesh, k, params)
    elif assembler.mesh is not mesh or assembler.k != k or assembler.params != params:
        raise ValueError("the assembler was built for another mesh, degree or parameters")
    system = assemble_system(assembler, data, monolithic=monolithic)
    if dump_prefix:
        dump_system(dump_prefix, system)
    x = solve_assembled(system)
    return recover_fields(assembler, system, x), system


def dump_system(prefix: str, system: AssembledSystem) -> None:
    """Write the matrix and right-hand side in Matrix Market format, as
    assembled: row-weighted (the solid's flux rows by -1/rho_f), so complex-symmetric."""
    from scipy.io import mmwrite  # here, its one use: the import takes about 8 ms
    mmwrite(f"{prefix}_matrix.mtx", system.matrix)
    mmwrite(f"{prefix}_rhs.mtx", system.rhs.reshape(-1, 1))


def conservation_report(assembler: Assembler, data: ProblemData,
                        solution: FieldSolution) -> dict[str, float]:
    """Residuals of every face equation, rebuilt from pointwise fluxes.

    The fluxes are re-integrated from their definition (not taken from the
    assembled blocks), so this exercises an independent route through the
    discrete solution.  Returns the worst absolute residual per face class
    together with the largest flux moment for scale.
    """
    mesh, params, k = assembler.mesh, assembler.params, assembler.k
    kp1 = k + 1
    s, rho_f = params.s, params.rho_f

    def block_flux(blk):
        vol = solution.volume[blk.domain][solution.row[blk.elems]]
        traces = (solution.uhat if blk.domain == "E" else solution.vhat)[blk.face_ids]
        return blk.domain, blk.elems, reconstruct_flux(blk, params, vol, traces)

    # outward flux moments of every element face, per domain
    flux = {"E": np.zeros((mesh.n_elements, 3, 2 * kp1), dtype=complex),
            "A": np.zeros((mesh.n_elements, 3, kp1), dtype=complex)}
    for domain, elems, block in assembler.map_blocks(block_flux):
        flux[domain][elems] = block
    gamma = np.flatnonzero(mesh.is_kind(FaceKind.GAMMA))
    n_e = elastic_side_normal(mesh, gamma)
    moments = _data_moments(mesh, k, data, gamma, n_e)

    def side_flux(domain: str, faces: np.ndarray, side) -> np.ndarray:
        return flux[domain][mesh.face_element[faces, side], mesh.face_local_edge[faces, side]]

    def worst(vals: np.ndarray) -> float:
        return float(np.abs(vals).max(initial=0.0))

    report = {"interior_jump": 0.0, "gamma_velocity": 0.0,
              "gamma_traction": 0.0, "neumann": 0.0,
              "flux_scale": max(worst(flux["E"]), worst(flux["A"]))}
    for domain, kind in (("A", FaceKind.INTERIOR_A), ("E", FaceKind.INTERIOR_E)):
        faces = np.flatnonzero(mesh.is_kind(kind))
        report["interior_jump"] = max(report["interior_jump"], worst(
            side_flux(domain, faces, 0) + side_flux(domain, faces, 1)))

    solid_first = mesh.tri_domain[mesh.face_element[gamma, 0]] == "E"
    fe = np.where(solid_first[:, None], side_flux("E", gamma, 0), side_flux("E", gamma, 1))
    fa = np.where(solid_first[:, None], side_flux("A", gamma, 1), side_flux("A", gamma, 0))
    n_a = -n_e
    uh = solution.uhat[gamma]
    r1 = (fa - s * (n_e[:, :1] * uh[:, :kp1] + n_e[:, 1:] * uh[:, kp1:])
          + moments["grad_v_inc"][gamma] - moments["g1"][gamma])
    report["gamma_velocity"] = worst(r1)
    v_tot = solution.vhat[gamma] + moments["v_inc"][gamma]
    r2 = -fe + rho_f * s * np.concatenate([n_a[:, :1] * v_tot, n_a[:, 1:] * v_tot], axis=1)
    report["gamma_traction"] = worst(r2 - moments["g2"][gamma])

    neumann = np.flatnonzero(mesh.is_kind(FaceKind.GAMMA_AN))
    report["neumann"] = worst(side_flux("A", neumann, 0) - moments["neumann"][neumann])
    return report


def energy_quantities(assembler: Assembler, solution: FieldSolution) -> dict[str, float]:
    """Squared energy functionals whose positivity drives uniqueness.

    Solid part: Re(s) (compliance sigma, sigma) plus Re(s tau_E) times the
    squared face mismatch of the displacement and its trace; fluid part the
    same with the mass-weighted flux and scalar mismatch.
    """
    params = assembler.params
    re_s = params.s.real
    parts = solution.parts

    def block_terms(blk) -> tuple[str, list[float]]:
        nb, n_p = blk.scalar.shape[:2]
        rows = solution.row[blk.elems]
        tr = (solution.uhat if blk.domain == "E" else solution.vhat)[blk.face_ids]
        if blk.domain == "E":
            sig = blk.stress_at_points(parts["sigma"][rows])
            comp = hooke_inverse_apply(sig, params.lam, params.mu)
            u_f = blk.at_face_points(parts["u"][rows].reshape(nb, 2, n_p))
            mism = u_f - blk.traces_at_face_points(tr.reshape(nb, 3, 2, -1))
            return "elastic", [
                re_s * float(np.einsum("eq,eqrc->", blk.weights, (comp * sig.conj()).real)),
                (params.s * params.tau_e).real * float(
                    np.einsum("efp,efpc->", blk.faces.weights, np.abs(mism) ** 2))]
        q = blk.at_points(parts["q"][rows].reshape(nb, 2, n_p))
        mism = (blk.at_face_points(parts["v"][rows])
                - blk.traces_at_face_points(tr.reshape(nb, 3, -1)))
        return "acoustic", [
            re_s * params.rho_f * blk.l2sq(q),
            (params.s * params.tau_a).real * params.rho_f * float(
                np.einsum("efp,efp->", blk.faces.weights, np.abs(mism) ** 2))]

    energies = {"elastic": 0.0, "acoustic": 0.0}
    for name, terms in assembler.map_blocks(block_terms):
        for term in terms:
            energies[name] += term
    return energies
