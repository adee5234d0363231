"""Structured unit-square meshes with an embedded interface polyline.

The computational domain is the unit square, one structured grid, with a
polyline interface (a horizontal segment or a snapped Koch prefractal) whose
vertices are mesh vertices.  The interface carries its own measure: positive
nodal weights approximating an arc-length or self-similar mass distribution
of prescribed dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .textio import write_table


class GeometryError(ValueError):
    """Invalid geometry request (interface touching the boundary, bad y0, ...)."""


class ResolutionError(GeometryError):
    """Interface features finer than the mesh can resolve."""


#: Hausdorff dimension of the Koch curve, ln 4 / ln 3.
KOCH_DIMENSION = math.log(4.0) / math.log(3.0)

#: The values of build_square_mesh's dirichlet_side.
DIRICHLET_SIDES = ("left", "right", "bottom", "top", "all", "none")


@dataclass(frozen=True)
class Segment:
    """Horizontal interface through y = y0, spanning the full square width."""

    y0: float = 0.5


@dataclass(frozen=True)
class KochPrefractal:
    """Koch prefractal of the given level on the baseline y = y0, bumps up."""

    level: int = 1
    y0: float = 0.5


InterfaceSpec = Segment | KochPrefractal


@dataclass
class MeshedDomain:
    """Conforming triangulation of the unit square with a tagged boundary
    and an embedded interface.

    ``interface_nodes`` are the measure-carrying vertices, ordered along the
    interface.  For a segment they are the whole mesh row; for a Koch
    prefractal they are the prefractal vertices snapped to the grid.  The
    grid itself does not depend on the interface: the field is continuous
    across it, with one degree of freedom per vertex, so no triangle is
    assigned to a side.  ``_cache`` holds what `assembly` derives from the
    mesh alone, once: the P1 geometry and the unit-tensor bulk matrices.
    """

    vertices: np.ndarray          # (N, 2) float
    triangles: np.ndarray         # (T, 3) int
    boundary_edges: np.ndarray    # (B, 2) int
    boundary_tags: np.ndarray     # (B,) '<U10', 'dirichlet' or 'neumann'
    interface_nodes: np.ndarray   # (K,) int, ordered along the interface
    interface: InterfaceSpec = field(default_factory=Segment)
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def domain_area(self) -> float:
        return float(np.sum(triangle_areas(self.vertices, self.triangles)))

    def dirichlet_vertices(self) -> np.ndarray:
        """Sorted vertex indices lying on Dirichlet-tagged boundary edges."""
        mask = self.boundary_tags == "dirichlet"
        if not mask.any():
            return np.empty(0, dtype=int)
        return np.unique(self.boundary_edges[mask].ravel())


@dataclass
class InterfaceMeasure:
    """Weighted interface nodes approximating a d-dimensional mass on the
    interface, together with the underlying polyline and per-segment mass
    (needed for ball-overlap diagnostics)."""

    node_positions: np.ndarray   # (K, 2)
    weights: np.ndarray          # (K,) > 0
    dim_d: float
    segment_mass: np.ndarray     # (K-1,) mass carried by each polyline edge

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))


def triangle_areas(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    p0 = vertices[triangles[:, 0]]
    p1 = vertices[triangles[:, 1]]
    p2 = vertices[triangles[:, 2]]
    return 0.5 * np.abs(
        (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
        - (p2[:, 0] - p0[:, 0]) * (p1[:, 1] - p0[:, 1])
    )


def _koch_vertices(level: int) -> np.ndarray:
    """Vertices of the level-L Koch prefractal on the base segment (0,0)-(1,0),
    bumps toward +y.  Returns (4^L + 1, 2)."""
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    cos60, sin60 = 0.5, math.sqrt(3.0) / 2.0
    for _ in range(level):
        out = [pts[0]]
        for a, b in zip(pts[:-1], pts[1:]):
            d = (b - a) / 3.0
            p1 = a + d
            p3 = a + 2.0 * d
            # apex: rotate the middle third by +60 degrees around p1
            p2 = p1 + np.array([cos60 * d[0] - sin60 * d[1],
                                sin60 * d[0] + cos60 * d[1]])
            out.extend([p1, p2, p3, b])
        pts = np.array(out)
    return pts


def _self_intersects(polyline: np.ndarray) -> bool:
    """Whether two non-adjacent edges of the polyline cross: the ends of each
    lie strictly on either side of the other's line."""
    p, q = polyline[:-1, None], polyline[1:, None]

    def orient(r):
        # [a, b]: the side of edge a's line that point r[b] lies on
        return ((q[..., 0] - p[..., 0]) * (r[:, 1] - p[..., 1])
                - (q[..., 1] - p[..., 1]) * (r[:, 0] - p[..., 0]))

    straddles = orient(polyline[:-1]) * orient(polyline[1:]) < 0
    return bool(np.triu(straddles & straddles.T, 2).any())


def build_square_mesh(n: int, interface: InterfaceSpec,
                      dirichlet_side: str = "left") -> MeshedDomain:
    """Triangulate the unit square with n subdivisions per side and embed the
    interface so that its vertices are mesh vertices.

    dirichlet_side, one of DIRICHLET_SIDES, selects the Dirichlet part of
    the boundary.
    """
    if n < 2:
        raise GeometryError(f"subdivision count n={n} too small (need n >= 2)")
    if dirichlet_side not in DIRICHLET_SIDES:
        raise GeometryError(f"unknown dirichlet_side {dirichlet_side!r}")

    h = 1.0 / n
    xs = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(xs, xs)
    vertices = np.column_stack([xx.ravel(), yy.ravel()])
    vid = np.arange((n + 1) ** 2).reshape(n + 1, n + 1)   # vid[j, i] is (i h, j h)

    # each cell's lower (a, b, c) and upper (a, c, d) triangle, diagonal a-c
    a, b, c, d = vid[:-1, :-1], vid[:-1, 1:], vid[1:, 1:], vid[1:, :-1]
    triangles = np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3)

    # for each i: the i-th edge of the bottom, top, left and right sides
    sides = ("bottom", "top", "left", "right")
    runs = (vid[0], vid[n], vid[:, 0], vid[:, n])
    boundary_edges = np.stack([np.column_stack([r[:-1], r[1:]]) for r in runs],
                              axis=1).reshape(-1, 2)
    dirichlet = np.tile([dirichlet_side in (s, "all") for s in sides], n)
    boundary_tags = np.where(dirichlet, "dirichlet", "neumann").astype("<U10")

    # interface row index; the baseline must be an interior mesh row
    if not isinstance(interface, InterfaceSpec):
        raise GeometryError(f"unknown interface type {interface!r}")
    level = interface.level if isinstance(interface, KochPrefractal) else 0
    if level < 0:
        raise GeometryError("Koch level must be >= 0")
    y0 = interface.y0
    if not (0.0 < y0 < 1.0):
        raise GeometryError(f"interface baseline y0={y0} touches the boundary")
    j0 = int(round(y0 * n))
    if j0 <= 0 or j0 >= n:
        raise GeometryError(
            f"interface baseline y0={y0} snaps onto the boundary at n={n}"
        )

    if level == 0:
        iface_nodes = vid[j0]
    else:
        if 3.0 ** (-level) < h:
            raise ResolutionError(
                f"Koch level {level} has polyline edges of length 3^-{level} "
                f"shorter than the mesh edge 1/{n}"
            )
        pts = _koch_vertices(level) + np.array([0.0, y0])
        if pts[:, 1].max() >= 1.0 - h or pts[:, 1].min() <= h:
            raise GeometryError("Koch interface touches the outer boundary")
        gnodes = np.rint(pts * n).astype(int)
        if len(np.unique(gnodes[:, 0] * (n + 1) + gnodes[:, 1])) != len(gnodes):
            raise ResolutionError(
                "distinct Koch vertices snap to the same mesh vertex; increase n"
            )
        if _self_intersects(gnodes / n):
            raise ResolutionError("snapped interface polyline self-intersects; increase n")
        iface_nodes = vid[gnodes[:, 1], gnodes[:, 0]]

    return MeshedDomain(
        vertices=vertices,
        triangles=triangles,
        boundary_edges=boundary_edges,
        boundary_tags=boundary_tags,
        interface_nodes=iface_nodes,
        interface=interface,
    )


def build_interface_measure(mesh: MeshedDomain,
                            total_mass: float = 1.0) -> InterfaceMeasure:
    """Nodal weights for the interface measure.

    Segment: arc-length (trapezoidal) weights, dimension d = 1, total mass =
    interface length.  Koch prefractal of level L: dimension d = ln4/ln3 and
    each of the 4^L elementary segments carries mass total_mass / 4^L, split
    half-and-half onto its endpoints.
    """
    interface = mesh.interface
    pos = mesh.vertices[mesh.interface_nodes]
    seg_len = np.linalg.norm(np.diff(pos, axis=0), axis=1)
    if (seg_len <= 0.0).any():
        raise GeometryError("zero-length interface polyline edge")

    if isinstance(interface, Segment) or interface.level == 0:
        d = 1.0
        seg_mass = seg_len.copy()
    else:
        d = KOCH_DIMENSION
        seg_mass = np.full(len(seg_len), total_mass / len(seg_len))

    w = np.zeros(len(pos))
    w[:-1] += 0.5 * seg_mass
    w[1:] += 0.5 * seg_mass
    if (w <= 0.0).any():
        raise GeometryError("nonpositive interface weight")
    return InterfaceMeasure(node_positions=pos, weights=w, dim_d=d,
                            segment_mass=seg_mass)


def export_mesh_csv(mesh: MeshedDomain, out_dir) -> None:
    """Plain-text mesh export: vertices.csv, triangles.csv, boundary_edges.csv."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    x, y = mesh.vertices.T
    write_table(out / "vertices.csv", "vertex,x,y", np.arange(len(x)), x, y)
    write_table(out / "triangles.csv", "triangle,v0,v1,v2",
                np.arange(len(mesh.triangles)), *mesh.triangles.T)
    write_table(out / "boundary_edges.csv", "v0,v1,tag",
                *mesh.boundary_edges.T, mesh.boundary_tags)


def export_measure_csv(mesh: MeshedDomain, measure: InterfaceMeasure, path) -> None:
    """Interface measure export: node id, position and weight per row."""
    write_table(path, "node,x,y,w", mesh.interface_nodes,
                *measure.node_positions.T, measure.weights)
