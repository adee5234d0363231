import numpy as np
import pytest

from paper_checks import ahlfors_upper_check
from transmission.geometry import (
    DIRICHLET_SIDES,
    KOCH_DIMENSION,
    GeometryError,
    KochPrefractal,
    ResolutionError,
    Segment,
    build_interface_measure,
    build_square_mesh,
    export_measure_csv,
    export_mesh_csv,
)


def test_smallest_structured_case():
    mesh = build_square_mesh(2, Segment(0.5))
    assert len(mesh.vertices) == 9
    assert len(mesh.interface_nodes) == 3
    assert np.allclose(mesh.vertices[mesh.interface_nodes][:, 1], 0.5)


def test_segment_n16_counts_and_area():
    mesh = build_square_mesh(16, Segment(0.5))
    assert len(mesh.interface_nodes) == 17
    assert mesh.domain_area == pytest.approx(1.0, abs=1e-14)
    assert len(mesh.triangles) == 2 * 16 * 16
    assert len(mesh.vertices) == 17 * 17


def test_koch_level2_counts():
    mesh = build_square_mesh(81, KochPrefractal(level=2, y0=0.5))
    assert len(mesh.interface_nodes) == 4**2 + 1
    # 16 elementary segments between the 17 prefractal vertices
    assert len(mesh.interface_nodes) - 1 == 16


def test_mesh_is_conforming():
    mesh = build_square_mesh(8, Segment(0.5))
    owners = {}
    for t, (a, b, c) in enumerate(mesh.triangles):
        for e in ((a, b), (b, c), (c, a)):
            owners.setdefault(tuple(sorted(e)), []).append(t)
    counts = {k: len(v) for k, v in owners.items()}
    assert max(counts.values()) <= 2
    for (a, b), _tag in zip(mesh.boundary_edges, mesh.boundary_tags):
        assert counts[tuple(sorted((a, b)))] == 1


def _reference_grid(n, dirichlet_side):
    """Triangles and tagged boundary edges by the per-cell loops."""
    def vid(i, j):
        return j * (n + 1) + i

    tris = []
    for j in range(n):
        for i in range(n):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))
    bedges, btags = [], []
    for i in range(n):
        bedges.append((vid(i, 0), vid(i + 1, 0)))
        btags.append("bottom")
        bedges.append((vid(i, n), vid(i + 1, n)))
        btags.append("top")
        bedges.append((vid(0, i), vid(0, i + 1)))
        btags.append("left")
        bedges.append((vid(n, i), vid(n, i + 1)))
        btags.append("right")
    if dirichlet_side == "all":
        tags = np.full(len(btags), "dirichlet")
    elif dirichlet_side == "none":
        tags = np.full(len(btags), "neumann")
    else:
        tags = np.where(np.array(btags) == dirichlet_side, "dirichlet", "neumann")
    return np.array(tris, dtype=int), np.array(bedges, dtype=int), tags.astype("<U10")


@pytest.mark.parametrize("n", [2, 3, 16])
@pytest.mark.parametrize("side", DIRICHLET_SIDES)
def test_grid_matches_reference_loops(n, side):
    mesh = build_square_mesh(n, Segment(0.5), dirichlet_side=side)
    got = (mesh.triangles, mesh.boundary_edges, mesh.boundary_tags)
    for new, old in zip(got, _reference_grid(n, side)):
        assert new.dtype == old.dtype and np.array_equal(new, old)
    row = int(round(0.5 * n)) * (n + 1) + np.arange(n + 1)
    assert mesh.interface_nodes.dtype == row.dtype
    assert np.array_equal(mesh.interface_nodes, row)


@pytest.mark.parametrize("n,level,y0", [(27, 2, 0.4), (81, 3, 0.4), (160, 4, 0.5),
                                        (6, 1, 0.4)])
def test_koch_mesh_is_the_grid_with_snapped_prefractal_nodes(n, level, y0):
    from transmission.geometry import _koch_vertices

    mesh = build_square_mesh(n, KochPrefractal(level, y0))
    grid = build_square_mesh(n, Segment(y0))
    for name in ("vertices", "triangles", "boundary_edges", "boundary_tags"):
        new, old = getattr(mesh, name), getattr(grid, name)
        assert new.dtype == old.dtype and np.array_equal(new, old)
    nodes = mesh.interface_nodes
    assert len(nodes) == 4 ** level + 1 == len(np.unique(nodes))
    target = _koch_vertices(level) + np.array([0.0, y0])
    assert np.abs(mesh.vertices[nodes] - target).max() <= 0.5 / n + 1e-12


def _reference_self_intersects(polyline):
    """Whether two non-adjacent edges cross, by the scalar double loop."""
    def orient(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

    for a in range(len(polyline) - 1):
        for b in range(a + 2, len(polyline) - 1):
            a0, a1, b0, b1 = polyline[a], polyline[a + 1], polyline[b], polyline[b + 1]
            if orient(a0, a1, b0) * orient(a0, a1, b1) < 0 \
                    and orient(b0, b1, a0) * orient(b0, b1, a1) < 0:
                return True
    return False


def test_self_intersection_matches_reference_loop():
    from transmission.geometry import _self_intersects

    rng = np.random.default_rng(5)
    outcomes = []
    for k in range(3, 12):
        for _ in range(40):
            # grid points also give touching and collinear edges, which the
            # strict signs must not count as crossings
            for poly in (rng.random((k, 2)), rng.integers(0, 4, (k, 2)) / 3.0):
                expect = _reference_self_intersects(poly)
                assert _self_intersects(poly) == expect
                outcomes.append(expect)
    assert any(outcomes) and not all(outcomes)


def test_interface_touching_boundary_rejected():
    with pytest.raises(GeometryError):
        build_square_mesh(16, Segment(0.0))
    with pytest.raises(GeometryError):
        build_square_mesh(16, Segment(1.0))
    # baseline so high the bumps leave the square
    with pytest.raises(GeometryError):
        build_square_mesh(81, KochPrefractal(2, y0=0.9))


def test_koch_too_fine_for_mesh_rejected():
    with pytest.raises(ResolutionError):
        build_square_mesh(8, KochPrefractal(level=3, y0=0.5))


def test_n_too_small_rejected():
    with pytest.raises(GeometryError):
        build_square_mesh(1, Segment(0.5))


def test_segment_measure_trapezoidal():
    mesh = build_square_mesh(2, Segment(0.5))
    m = build_interface_measure(mesh)
    assert m.dim_d == 1.0
    assert np.allclose(m.weights, [0.25, 0.5, 0.25])
    assert m.total_mass == pytest.approx(1.0, abs=1e-15)


def test_koch_measure_equal_mass_per_segment():
    mesh = build_square_mesh(27, KochPrefractal(level=1, y0=0.5))
    m = build_interface_measure(mesh, total_mass=1.0)
    assert m.dim_d == pytest.approx(KOCH_DIMENSION)
    assert np.allclose(m.segment_mass, 0.25)
    assert m.total_mass == pytest.approx(1.0, abs=1e-14)
    # halving per adjacent segment: ends get 1/8, interior vertices 1/4
    assert m.weights[0] == pytest.approx(0.125)
    assert m.weights[-1] == pytest.approx(0.125)
    assert np.allclose(m.weights[1:-1], 0.25)


@pytest.mark.parametrize("spec,n,total", [
    (Segment(0.5), 16, 1.0),
    (KochPrefractal(1, 0.5), 27, 1.0),
    (KochPrefractal(2, 0.5), 81, 3.5),
])
def test_weights_partition_total_mass(spec, n, total):
    mesh = build_square_mesh(n, spec)
    m = build_interface_measure(mesh, total_mass=total)
    expected = total if isinstance(spec, KochPrefractal) else 1.0
    assert m.total_mass == pytest.approx(expected, abs=1e-12)


def test_ahlfors_segment_ratio_two():
    mesh = build_square_mesh(16, Segment(0.5))
    m = build_interface_measure(mesh)
    ratio = ahlfors_upper_check(m, n_samples=17, radii=[0.1], seed=1)
    # a ball of radius r covers at most 2r of a unit-density line
    assert ratio == pytest.approx(2.0, abs=1e-12)

    for r in (0.01, 0.03, 0.25, 1.0):
        assert ahlfors_upper_check(m, 17, [r], seed=1) <= 2.05


def test_ahlfors_koch_bounded_across_scales():
    mesh = build_square_mesh(81, KochPrefractal(level=3, y0=0.4))
    m = build_interface_measure(mesh)
    ratios = [ahlfors_upper_check(m, 30, [3.0 ** (-k)], seed=2) for k in (1, 2, 3)]
    assert max(ratios) < 4.0
    assert min(ratios) > 0.0


def test_ahlfors_empty_radii():
    mesh = build_square_mesh(8, Segment(0.5))
    m = build_interface_measure(mesh)
    assert ahlfors_upper_check(m, 5, []) == 0.0


def test_ahlfors_deterministic_given_seed():
    mesh = build_square_mesh(16, Segment(0.25))
    m = build_interface_measure(mesh)
    a = ahlfors_upper_check(m, 5, [0.07, 0.2], seed=7)
    b = ahlfors_upper_check(m, 5, [0.07, 0.2], seed=7)
    assert a == b


def test_dirichlet_vertices_left_edge():
    mesh = build_square_mesh(16, Segment(0.5))
    dv = mesh.dirichlet_vertices()
    assert len(dv) == 17
    assert np.allclose(mesh.vertices[dv][:, 0], 0.0)


def test_dirichlet_none_and_all():
    mesh = build_square_mesh(8, Segment(0.5), dirichlet_side="none")
    assert len(mesh.dirichlet_vertices()) == 0
    mesh = build_square_mesh(8, Segment(0.5), dirichlet_side="all")
    assert len(mesh.dirichlet_vertices()) == 4 * 8


def test_mesh_export_roundtrip(tmp_path):
    mesh = build_square_mesh(4, Segment(0.5))
    export_mesh_csv(mesh, tmp_path)
    verts = np.loadtxt(tmp_path / "vertices.csv", delimiter=",", skiprows=1)
    assert verts.shape == (25, 3)
    assert np.allclose(verts[:, 1:], mesh.vertices)
    tris = np.loadtxt(tmp_path / "triangles.csv", delimiter=",", skiprows=1, dtype=int)
    assert np.array_equal(tris[:, 1:], mesh.triangles)
    m = build_interface_measure(mesh)
    export_measure_csv(mesh, m, tmp_path / "measure.csv")
    rows = (tmp_path / "measure.csv").read_text().strip().splitlines()
    assert rows[0] == "node,x,y,w"
    assert len(rows) == 1 + len(m.weights)
