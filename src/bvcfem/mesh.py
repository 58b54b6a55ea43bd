"""Structured meshes and boundary facet geometry.

Annulus triangulations, inside-the-curve staircase quad grids, one edge
numbering per mesh (Mesh.cell_edges) whose once-used edges become the
boundary facets, held in one array record (FacetGeometry) with outward
discrete normals, and per-quadrature-point signed distances / pullback
points to the true boundary.  A mesh is built complete, affine cell maps
included, and never changes.  REFERENCE_CELLS, keyed by cell kind, is the one
reference-cell table: vertices and counterclockwise local edges.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import geometry
from .geometry import ImplicitDomain, NoIntersection


class MeshError(Exception):
    pass


class InvalidResolution(MeshError):
    pass


class EmptyMesh(MeshError):
    pass


# Reference cells by cell kind: vertices, and local edges in counterclockwise order.
REFERENCE_CELLS = {
    "triangle": (np.array([[0, 0], [1, 0], [0, 1]], float), ((0, 1), (1, 2), (2, 0))),
    "quad": (np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float), ((0, 1), (1, 2), (2, 3), (3, 0))),
}


@dataclass(frozen=True)
class FacetGeometry:
    """Boundary facets of a mesh as arrays, one row per facet, cell-major.

    Facet f is local edge local_edge[f] of cell cell[f], running from vertex
    endpoints[f, 0] to endpoints[f, 1], with outward discrete normal n_h[f].
    precompute_boundary_geometry fills in the Gauss parameters s in [0, 1]
    (shared by every facet), the physical points, the weights (including the
    facet length), the discrete signed distance rho and the pullback points
    on the true boundary.
    """

    cell: np.ndarray                    # (nf,)
    local_edge: np.ndarray              # (nf,)
    endpoints: np.ndarray               # (nf, 2)
    n_h: np.ndarray                     # (nf, 2)
    length: np.ndarray                  # (nf,)
    s: np.ndarray | None = None         # (nq,)
    points: np.ndarray | None = None    # (nf, nq, 2)
    weights: np.ndarray | None = None   # (nf, nq)
    rho: np.ndarray | None = None       # (nf, nq)
    pullback: np.ndarray | None = None  # (nf, nq, 2)

    def __len__(self) -> int:
        return len(self.cell)


@dataclass(frozen=True)
class Mesh:
    """Cells with their affine reference maps x = origins + J @ xi.

    J's columns run from a cell's vertex 0 to vertex 1 and to its last
    vertex, which is exact for straight triangles and axis-aligned
    (parallelogram) quads.
    """

    vertices: np.ndarray            # (nno, 2)
    cells: np.ndarray               # (nc, 3) or (nc, 4), CCW
    cell_kind: str                  # "triangle" | "quad"
    boundary_facets: FacetGeometry
    cell_edges: np.ndarray          # (nc, 3) or (nc, 4) edge ids, per local edge
    origins: np.ndarray             # (nc, 2)
    J: np.ndarray                   # (nc, 2, 2)
    Jinv: np.ndarray                # (nc, 2, 2)
    detJ: np.ndarray                # (nc,)

    @property
    def nno(self) -> int:
        return len(self.vertices)

    @property
    def h(self) -> float:
        return 1.0 / np.sqrt(self.nno)

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    @property
    def num_edges(self) -> int:
        return int(self.cell_edges.max()) + 1

    def to_physical(self, xi) -> np.ndarray:
        """Physical points (nc, nq, 2) of the reference points xi (nq, 2) in every cell."""
        return self.origins[:, None, :] + xi @ self.J.transpose(0, 2, 1)

    def facet_points(self, s) -> np.ndarray:
        """Physical points (nf, len(s), 2) at edge parameters s on every boundary facet."""
        p = self.vertices[self.boundary_facets.endpoints[:, 0]]
        q = self.vertices[self.boundary_facets.endpoints[:, 1]]
        return p[:, None, :] + s[None, :, None] * (q - p)[:, None, :]


def _number_by_first_use(keys):
    """Number the distinct keys 0, 1, ... in order of first occurrence.

    Returns (ids, counts, first): the id of every key, how often its value
    occurs, and the position of each id's first occurrence.
    """
    _, first, inverse, counts = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True
    )
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[inverse], counts[inverse], first[order]


def mesh_from_arrays(vertices, cells, cell_kind: str) -> Mesh:
    """Build a Mesh from raw arrays: edge numbering, facets and cell maps.

    Edges are numbered in one pass over the sorted vertex pairs of every
    cell, in cell-major, local-edge order of first use; the edges used once
    are the boundary facets.  vertices has shape (nno, 2), cells one row of
    vertex ids in [0, nno) per cell, as many as the cell kind's reference
    cell has, counterclockwise, and every vertex finite.  Raises EmptyMesh
    for no cells and MeshError, naming the first bad vertex or cell,
    otherwise, and for a cell kind other than "triangle" or "quad".
    """
    if cell_kind not in REFERENCE_CELLS:
        raise MeshError(f"unknown cell kind {cell_kind!r}; have {', '.join(REFERENCE_CELLS)}")
    corners, edges = REFERENCE_CELLS[cell_kind]
    vertices = np.asarray(vertices, dtype=float)
    cells = np.asarray(cells)
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise MeshError(f"vertices must have shape (nno, 2), got {vertices.shape}")
    bad = np.flatnonzero(~np.all(np.isfinite(vertices), axis=1))
    if len(bad):
        raise MeshError(f"vertex {bad[0]} is {vertices[bad[0]].tolist()}, not finite")
    if cells.shape[:1] == (0,):
        raise EmptyMesh(f"cells is empty: shape {cells.shape}, a mesh needs at least one cell")
    if cells.ndim != 2 or cells.shape[1] != len(corners):
        raise MeshError(
            f"cell 0: a {cell_kind} has {len(corners)} vertices, cells has shape {cells.shape}"
        )
    bad = np.flatnonzero(np.any(cells != np.floor(cells), axis=1))
    if len(bad):
        raise MeshError(f"cell {bad[0]} has vertex ids {cells[bad[0]].tolist()}, not all integers")
    bad = np.flatnonzero(np.any((cells < 0) | (cells >= len(vertices)), axis=1))
    if len(bad):
        raise MeshError(
            f"cell {bad[0]} has vertex ids {cells[bad[0]].tolist()}, "
            f"not all in [0, {len(vertices)})"
        )
    cells = cells.astype(np.int64)
    edges = np.array(edges)
    ends = cells[:, edges].reshape(-1, 2)  # CCW edge of every cell, cell-major
    lo, hi = np.sort(ends, axis=1).T
    edge_ids, uses, _ = _number_by_first_use(lo * len(vertices) + hi)
    boundary = np.flatnonzero(uses == 1)
    cell, local_edge = np.divmod(boundary, len(edges))
    endpoints = ends[boundary]
    edge_vec = vertices[endpoints[:, 1]] - vertices[endpoints[:, 0]]
    length = np.hypot(edge_vec[:, 0], edge_vec[:, 1])
    # CCW cells: outward normal is the edge direction rotated -90 deg.
    n_h = np.stack([edge_vec[:, 1], -edge_vec[:, 0]], axis=1) / length[:, None]
    facets = FacetGeometry(
        cell=cell, local_edge=local_edge, endpoints=endpoints, n_h=n_h, length=length
    )
    v = vertices[cells]
    J = np.stack([v[:, 1] - v[:, 0], v[:, -1] - v[:, 0]], axis=-1)
    detJ = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    # Written so that a NaN determinant (overflow in J) fails it too.
    flipped = ~(detJ > 0)
    if np.any(flipped):
        raise MeshError(
            f"{int(np.sum(flipped))} cells are not counterclockwise, first cell {np.argmax(flipped)}"
        )
    Jinv = np.empty_like(J)
    Jinv[:, 0, 0] = J[:, 1, 1] / detJ
    Jinv[:, 0, 1] = -J[:, 0, 1] / detJ
    Jinv[:, 1, 0] = -J[:, 1, 0] / detJ
    Jinv[:, 1, 1] = J[:, 0, 0] / detJ
    return Mesh(
        vertices=vertices,
        cells=cells,
        cell_kind=cell_kind,
        boundary_facets=facets,
        cell_edges=edge_ids.reshape(len(cells), len(edges)),
        origins=v[:, 0, :],
        J=J,
        Jinv=Jinv,
        detJ=detJ,
    )


def _split_quads(quads, parity):
    """Split CCW quads (a, b, c, d) into two CCW triangles each, quad-major.

    The diagonal is a-c where parity is even and b-d where it is odd.
    """
    a, b, c, d = quads.T
    even = (parity % 2 == 0)[:, None]
    first = np.where(even, np.stack([a, b, c], axis=1), np.stack([a, b, d], axis=1))
    second = np.where(even, np.stack([a, c, d], axis=1), np.stack([b, c, d], axis=1))
    return np.stack([first, second], axis=1).reshape(-1, 3)


def build_annulus_mesh(n_theta: int, n_r: int) -> Mesh:
    """Structured triangulation of the ring 1/4 <= r <= 3/4 (geometry.RING_RADII).

    Vertices sit on n_r+1 exact circles at n_theta equispaced angles; each
    polar quad is split into two triangles along the (i+j)-parity diagonal.
    """
    if n_theta < 8 or n_r < 2:
        raise InvalidResolution(f"need n_theta >= 8 and n_r >= 2, got ({n_theta}, {n_r})")
    inner, outer = geometry.RING_RADII
    radii = inner + (outer - inner) * np.arange(n_r + 1) / n_r
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    circle = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    vertices = (radii[:, None, None] * circle).reshape(-1, 2)

    # CCW polar quads: inner at theta_i, outer at theta_i, outer at
    # theta_{i+1}, inner at theta_{i+1}; ring j-major.
    j, i = np.divmod(np.arange(n_r * n_theta), n_theta)
    quads = (j[:, None] + [0, 1, 1, 0]) * n_theta + (i[:, None] + [0, 0, 1, 1]) % n_theta
    return mesh_from_arrays(vertices, _split_quads(quads, i + j), "triangle")


def build_staircase_mesh(n: int, domain: ImplicitDomain) -> Mesh:
    """Axis-aligned staircase mesh of square cells inside a curved domain.

    A uniform grid of side 4/n covers [-2,2] x [-1,1]; a cell is kept iff
    all four corners are strictly inside (level_set < 0).  Boundary facets
    of the kept union form the staircase with axis-aligned normals.
    """
    if n < 8:
        raise InvalidResolution(f"need n >= 8, got {n}")
    if n % 2 != 0:
        raise InvalidResolution(f"need even n (square cells on [-2,2]x[-1,1]), got {n}")
    ny = n // 2
    a = 4.0 / n
    xs = -2.0 + a * np.arange(n + 1)
    ys = -1.0 + a * np.arange(ny + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    grid_pts = np.stack([gx, gy], axis=-1)
    inside = domain.level_set(grid_pts.reshape(-1, 2)).reshape(n + 1, ny + 1) < 0.0

    keep = inside[:-1, :-1] & inside[1:, :-1] & inside[1:, 1:] & inside[:-1, 1:]
    if not np.any(keep):
        raise EmptyMesh("no grid cell lies strictly inside the domain")

    # Kept cells in (j, i) order; corners CCW from (i, j), as grid ids.
    j, i = np.nonzero(keep.T)
    corners = ((i[:, None] + [0, 1, 1, 0]) * (ny + 1) + (j[:, None] + [0, 0, 1, 1])).ravel()
    ids, _, first = _number_by_first_use(corners)
    gi, gj = np.divmod(corners[first], ny + 1)
    vertices = np.stack([xs[gi], ys[gj]], axis=1)
    return mesh_from_arrays(vertices, ids.reshape(-1, 4), "quad")


def build_square_mesh(n: int, cell_kind: str = "triangle") -> Mesh:
    """Uniform mesh of the unit square (patch-test fixture)."""
    xs = np.linspace(0.0, 1.0, n + 1)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    vertices = np.stack([gx.ravel(), gy.ravel()], axis=-1)

    i, j = np.divmod(np.arange(n * n), n)
    quads = (i[:, None] + [0, 1, 1, 0]) * (n + 1) + (j[:, None] + [0, 0, 1, 1])
    cells = quads if cell_kind == "quad" else _split_quads(quads, i + j)
    return mesh_from_arrays(vertices, cells, cell_kind)


def gauss_01(n: int):
    """n-point Gauss-Legendre rule on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def precompute_boundary_geometry(mesh: Mesh, domain: ImplicitDomain, n_gauss: int) -> Mesh:
    """A copy of mesh whose facets carry Gauss points, rho_h and pullback points.

    n_gauss is the number of Gauss points per facet (>= 2).  Ray distances
    are computed in one batch across all facets; a missing intersection is
    re-raised as NoIntersection("boundary geometry failed: ..."), whose
    message names the point the ray starts from.  The input mesh is left
    untouched.
    """
    if n_gauss < 2:
        raise InvalidResolution(f"need at least 2 Gauss points per facet, got {n_gauss}")
    facets = mesh.boundary_facets
    s, w = gauss_01(n_gauss)
    pts = mesh.facet_points(s)
    flat_pts = pts.reshape(-1, 2)
    flat_nrm = np.repeat(facets.n_h, n_gauss, axis=0)
    try:
        rho = geometry.ray_distance_batch(domain, flat_pts, flat_nrm)
    except NoIntersection as exc:
        raise NoIntersection(f"boundary geometry failed: {exc}") from exc
    pullback = flat_pts + rho[:, None] * flat_nrm
    return replace(
        mesh,
        boundary_facets=replace(
            facets,
            s=s,
            points=pts,
            weights=w[None, :] * facets.length[:, None],
            rho=rho.reshape(pts.shape[:2]),
            pullback=pullback.reshape(pts.shape),
        ),
    )
