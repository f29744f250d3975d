import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import Delaunay

from qlert import mesh as qm


def polygon_deficit(nsides):
    # inscribed regular polygon misses the disk area by this fraction
    return 1.0 - nsides / (2 * math.pi) * math.sin(2 * math.pi / nsides)


class TestGenerateDisk:
    def test_small_disk_is_nontrivial_and_oriented(self):
        m = qm.generate_disk(1.0, 1)
        assert m.element_count >= 8
        assert np.all(qm.element_areas(m) > 0)

    def test_area_converges_to_disk_area(self):
        r = 0.6e-3
        m = qm.generate_disk(r, 4)
        exact = math.pi * r**2
        assert abs(qm.element_areas(m).sum() - exact) / exact < 0.005

    def test_refinement_shrinks_elements(self):
        d = [qm.max_element_diameter(qm.generate_disk(1.0, k)) for k in (1, 2, 3)]
        assert d[0] > d[1] > d[2]

    def test_area_gap_drops_by_3x_per_level(self):
        exact = math.pi
        gaps = [
            abs(qm.element_areas(qm.generate_disk(1.0, k)).sum() - exact)
            for k in (2, 3, 4)
        ]
        assert gaps[0] / gaps[1] >= 3.0
        assert gaps[1] / gaps[2] >= 3.0

    def test_boundary_nodes_near_circle(self):
        m = qm.generate_disk(2.0, 3)
        h = qm.max_element_diameter(m)
        rims = np.hypot(*m.nodes[qm.outer_boundary_nodes(m)].T)
        assert np.all(np.abs(rims - 2.0) <= h)

    def test_zero_refinement_rejected(self):
        with pytest.raises(qm.MeshError):
            qm.generate_disk(1.0, 0)
        with pytest.raises(qm.MeshError):
            qm.generate_disk(-1.0, 2)


class TestGenerateAnnulus:
    def test_area_within_one_percent(self):
        m = qm.generate_annulus(1.0, 10.0, 3)
        exact = math.pi * (100 - 1)
        assert abs(qm.element_areas(m).sum() - exact) / exact < 0.01

    def test_nodes_stay_in_radial_band(self):
        m = qm.generate_annulus(1.0, 10.0, 2)
        h = qm.max_element_diameter(m)
        rho = np.hypot(*m.nodes.T)
        assert np.all(rho >= 1 - h) and np.all(rho <= 10 + h)

    def test_inner_boundary_single_closed_loop(self):
        m = qm.generate_annulus(1.0, 2.0, 2)
        loops = qm.boundary_loops(m)
        inner = [lp for lp in loops if not lp["outer"]]
        assert len(inner) == 1
        # the clockwise loop hugs the inner circle
        rho = np.hypot(*m.nodes[inner[0]["nodes"]].T)
        assert np.allclose(rho, 1.0)

    def test_bad_radii_rejected(self):
        with pytest.raises(qm.MeshError):
            qm.generate_annulus(2.0, 1.0, 2)
        with pytest.raises(qm.MeshError):
            qm.generate_annulus(0.0, 1.0, 2)

    def test_area_gap_drops_by_3x_per_level(self):
        exact = math.pi * (4 - 1)
        gaps = [
            abs(qm.element_areas(qm.generate_annulus(1, 2, k)).sum() - exact)
            for k in (2, 3, 4)
        ]
        assert gaps[0] / gaps[1] >= 3.0
        assert gaps[1] / gaps[2] >= 3.0


def symmetric_petal_centers(n, ring_radius, rotation=0.0):
    ang = rotation + 2 * np.pi * (np.arange(n) + 0.5) / n
    return np.column_stack([ring_radius * np.cos(ang), ring_radius * np.sin(ang)])


class TestGeneratePetalCable:
    def test_no_petals_is_plain_matrix(self):
        m = qm.generate_petal_cable(1.0, [], 0.1, 2)
        assert set(np.unique(m.element_region)) == {"matrix"}

    def test_centered_petal_area(self):
        m = qm.generate_petal_cable(1.0, [(0.0, 0.0)], 0.5, 3)
        a = qm.element_areas(m)[m.region_mask("inclusion-1")].sum()
        exact = math.pi * 0.25
        assert abs(a - exact) / exact < 0.02

    def test_six_symmetric_petals_mesh_evenly(self):
        centers = symmetric_petal_centers(6, 0.55)
        m = qm.generate_petal_cable(1.0, centers, 0.21, 3)
        counts = [int(m.region_mask(f"inclusion-{k}").sum()) for k in range(1, 7)]
        assert min(counts) > 0
        assert max(counts) <= 1.1 * min(counts)
        assert m.inclusion_regions() == [f"inclusion-{k}" for k in range(1, 7)]

    def test_petal_areas_track_exact_area(self):
        centers = symmetric_petal_centers(6, 0.55)
        m = qm.generate_petal_cable(1.0, centers, 0.21, 3)
        exact = math.pi * 0.21**2
        for k in range(1, 7):
            a = qm.element_areas(m)[m.region_mask(f"inclusion-{k}")].sum()
            assert abs(a - exact) / exact < 0.05

    def test_total_area_still_matches_disk(self):
        centers = symmetric_petal_centers(6, 0.55)
        m = qm.generate_petal_cable(1.0, centers, 0.21, 3)
        assert abs(qm.element_areas(m).sum() - math.pi) / math.pi < 0.01

    def test_petal_touching_boundary_rejected(self):
        with pytest.raises(qm.MeshError):
            qm.generate_petal_cable(1.0, [(0.8, 0.0)], 0.25, 2)

    def test_overlapping_petals_rejected(self):
        with pytest.raises(qm.MeshError):
            qm.generate_petal_cable(1.0, [(-0.2, 0.0), (0.2, 0.0)], 0.25, 2)

    def test_first_failed_check_names_its_petals(self):
        # petals 1 and 4 overlap, and so do 2 and 3: the first pair is
        # named; a petal past the boundary is reported before any overlap
        centers = [(0.5, 0.0), (-0.5, 0.0), (-0.5, 0.1), (0.5, 0.1)]
        with pytest.raises(qm.MeshError, match="^petals 1 and 4 overlap$"):
            qm.generate_petal_cable(1.0, centers, 0.1, 3)
        with pytest.raises(qm.MeshError, match=(
                "^petal 5 touches or crosses the outer boundary$")):
            qm.generate_petal_cable(1.0, centers + [(0.0, 0.95)], 0.1, 3)

    @pytest.mark.parametrize("refinement", [2, 3])
    def test_collar_past_the_outer_boundary_rejected(self, refinement):
        # the petal fits, but its collar ring would reach radius 1.075
        with pytest.raises(qm.MeshError, match=(
                f"collar ring of petal 1 reaches the outer boundary "
                f"at refinement {refinement}")):
            qm.generate_petal_cable(1.0, [(0.7, 0.0)], 0.25, refinement)

    def test_collar_reaching_another_petal_rejected(self):
        # disjoint petals whose collar rings reach into each other
        with pytest.raises(qm.MeshError, match=(
                "collar ring of petal 1 reaches petal 2 at refinement 3")):
            qm.generate_petal_cable(1.0, [(-0.2, 0.0), (0.2, 0.0)], 0.19, 3)

    def test_labels_partition_elements(self):
        centers = symmetric_petal_centers(3, 0.5)
        m = qm.generate_petal_cable(1.0, centers, 0.2, 3)
        total = sum(
            int(m.region_mask(lab).sum()) for lab in np.unique(m.element_region)
        )
        assert total == m.element_count


class TestElectrodes:
    def test_sixteen_electrodes_all_present(self):
        m = qm.generate_disk(1.0, 4)
        tagged = qm.tag_electrodes(m, qm.ElectrodeLayout(16, 0.5))
        ids = set(tagged.boundary_edges[:, 2].tolist()) - {-1}
        assert ids == set(range(16))

    def test_full_coverage_rejected(self):
        with pytest.raises(qm.MeshError):
            qm.ElectrodeLayout(2, 1.0)

    def test_four_electrodes_equal_edge_counts(self):
        m = qm.generate_disk(1.0, 3)
        tagged = qm.tag_electrodes(m, qm.ElectrodeLayout(4, 0.5))
        ids = tagged.boundary_edges[:, 2]
        counts = [int((ids == k).sum()) for k in range(4)]
        assert len(set(counts)) == 1 and counts[0] > 0

    def test_rotation_by_one_pitch_permutes_ids(self):
        m = qm.generate_disk(1.0, 3)
        base = qm.tag_electrodes(m, qm.ElectrodeLayout(4, 0.5))
        rot = qm.tag_electrodes(
            m, qm.ElectrodeLayout(4, 0.5, rotation=2 * np.pi / 4)
        )
        a = base.boundary_edges[:, 2]
        b = rot.boundary_edges[:, 2]
        tagged = a >= 0
        assert np.array_equal(tagged, b >= 0)
        # centers moved forward one pitch, so each edge's id steps back one
        assert np.array_equal(np.where(tagged, (a - 1) % 4, -1), b)

    def test_gaps_stay_untagged(self):
        m = qm.generate_disk(1.0, 4)
        tagged = qm.tag_electrodes(m, qm.ElectrodeLayout(8, 0.5))
        ids = tagged.boundary_edges[:, 2]
        assert (ids == -1).sum() > 0

    def test_annulus_inner_loop_never_tagged(self):
        m = qm.generate_annulus(1.0, 2.0, 3)
        tagged = qm.tag_electrodes(m, qm.ElectrodeLayout(4, 0.5))
        inner = [lp for lp in qm.boundary_loops(tagged) if not lp["outer"]][0]
        inner_nodes = set(inner["nodes"].tolist())
        for i, j, eid in tagged.boundary_edges:
            if int(i) in inner_nodes:
                assert eid == -1


class TestRelabel:
    def test_relabel_carves_defect(self):
        m = qm.generate_disk(1.0, 3)
        c = qm.element_centroids(m)
        mask = np.hypot(c[:, 0] - 0.4, c[:, 1]) < 0.2
        d = qm.relabel_elements(m, mask, "defect-1")
        assert d.defect_regions() == ["defect-1"]
        assert int(d.region_mask("defect-1").sum()) == int(mask.sum())
        # original untouched
        assert "defect-1" not in m.region_elements()

    @pytest.mark.parametrize("label", ["matrix", "inclusion-2"])
    def test_relabel_keeps_region_kinds(self, label):
        # a matrix or inclusion label would change the region's kind
        m = qm.generate_petal_cable(6.0, [(3.0, 0.0), (-3.0, 0.0)], 1.0, 2)
        with pytest.raises(qm.MeshError, match="not a defect label"):
            qm.relabel_elements(m, m.region_mask("matrix"), label)

    def test_region_kinds_follow_the_labels(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0],
                          [2.0, 0.0]])
        m = qm.Mesh(nodes, [[0, 1, 2], [1, 3, 2], [1, 4, 3]],
                    ["matrix", "inclusion-2", "hole"], np.zeros((0, 3)))
        assert m.inclusion_regions() == ["inclusion-2"]
        assert m.defect_regions() == ["hole"]

    def test_empty_mask_rejected(self):
        m = qm.generate_disk(1.0, 2)
        with pytest.raises(qm.MeshError):
            qm.relabel_elements(m, np.zeros(m.element_count, bool), "defect-1")

    def test_region_elements_match_masks_and_are_kept(self):
        m = qm.generate_petal_cable(6.0, [(3.0, 0.0), (-3.0, 0.0)], 1.0, 2)
        index = m.region_elements()
        assert list(index) == sorted(np.unique(m.element_region))
        for label, elements in index.items():
            assert np.array_equal(elements,
                                  np.flatnonzero(m.region_mask(label)))
            with pytest.raises(ValueError):
                elements[0] = 0
        again = m.region_elements()
        assert all(again[lab] is index[lab] for lab in index)
        with pytest.raises(TypeError):
            index["matrix"] = np.arange(3)
        d = qm.relabel_elements(m, np.arange(m.element_count) < 4, "defect-1")
        assert "defect-1" in d.region_elements()
        assert "defect-1" not in m.region_elements()
        # the cache does not stop a mesh from pickling
        copy = pickle.loads(pickle.dumps(m))
        assert list(copy.region_elements()) == list(index)

    def test_mesh_arrays_immutable(self):
        m = qm.generate_disk(1.0, 2)
        with pytest.raises(ValueError):
            m.nodes[0, 0] = 5.0


class TestInterfaceEdges:
    def test_petal_rim_is_a_closed_loop(self):
        m = qm.generate_petal_cable(1.0, [(0.0, 0.0)], 0.3, 3)
        edges, inside, outside = qm.region_interface_edges(m, "inclusion-1")
        # every rim node belongs to exactly two interface edges
        counts = np.bincount(edges.ravel())
        assert np.all(counts[counts > 0] == 2)
        assert np.all(m.element_region[inside] == "inclusion-1")
        assert np.all(m.element_region[outside] != "inclusion-1")
        # rim nodes sit on the petal circle
        rim = np.unique(edges)
        radii = np.hypot(m.nodes[rim, 0], m.nodes[rim, 1])
        assert np.allclose(radii, 0.3, rtol=1e-9)

    def test_interface_elements_share_their_edge(self):
        m = qm.generate_petal_cable(1.0, [(0.0, 0.0)], 0.3, 2)
        edges, inside, outside = qm.region_interface_edges(m, "inclusion-1")
        for (i, j), a, b in zip(edges, inside, outside):
            assert {i, j} <= set(m.elements[a])
            assert {i, j} <= set(m.elements[b])

    def test_unknown_region_rejected(self):
        m = qm.generate_disk(1.0, 2)
        with pytest.raises(qm.MeshError):
            qm.region_interface_edges(m, "inclusion-9")

    def test_region_without_interface_rejected(self):
        m = qm.generate_disk(1.0, 2)
        with pytest.raises(qm.MeshError, match="interface"):
            qm.region_interface_edges(m, "matrix")


def interface_edges_loop(mesh, label):
    """Element-by-element reference for ``region_interface_edges``: each
    edge key meets its first owner in a dict, the next owner pops it."""
    in_region = mesh.region_mask(label)
    if not in_region.any():
        raise qm.MeshError(f"region '{label}' has no elements")
    owner = {}
    rows = []
    for e, tri in enumerate(mesh.elements):
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (int(min(a, b)), int(max(a, b)))
            if key in owner:
                other = owner.pop(key)
                if in_region[e] != in_region[other]:
                    inside, outside = (e, other) if in_region[e] else (other, e)
                    rows.append((key[0], key[1], inside, outside))
            else:
                owner[key] = e
    if not rows:
        raise qm.MeshError(f"region '{label}' has no interface edges")
    rows.sort()
    arr = np.array(rows, dtype=np.int64)
    return arr[:, :2], arr[:, 2], arr[:, 3]


def _carve_ring(mesh, lo, hi):
    cen = qm.element_centroids(mesh)
    rad = np.hypot(cen[:, 0], cen[:, 1])
    return qm.relabel_elements(mesh, (rad > lo) & (rad < hi), "defect-1")


def _edge_fan():
    # four triangles on the edge (0, 1), as a hand-built `Mesh` may hold: the
    # loop pairs its owners first with second and third with fourth
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0],
                      [0.5, 2.0], [0.5, -2.0]])
    elements = [[0, 1, 2], [0, 1, 3], [0, 1, 4], [0, 1, 5]]
    labels = ["matrix", "inclusion-1", "matrix", "inclusion-1"]
    return qm._make_mesh(nodes, elements, labels)


class TestInterfaceEdgesMatchLoop:
    MESHES = {
        "fan": _edge_fan,
        "disk": lambda: _carve_ring(qm.generate_disk(1.0, 3), 0.3, 0.6),
        "annulus": lambda: _carve_ring(qm.generate_annulus(1.0, 4.0, 2), 1.5, 2.5),
        "cable": lambda: qm.generate_petal_cable(
            0.6e-3,
            [(0.35e-3 * np.cos(np.radians(30 + 60 * k)),
              0.35e-3 * np.sin(np.radians(30 + 60 * k))) for k in range(6)],
            0.12e-3, 4,
        ),
    }

    @pytest.mark.parametrize("name", sorted(MESHES))
    def test_rows_equal_the_loop_for_every_region(self, name):
        m = self.MESHES[name]()
        for label in m.region_elements():
            try:
                expect = interface_edges_loop(m, label)
            except qm.MeshError as err:
                with pytest.raises(qm.MeshError) as got:
                    qm.region_interface_edges(m, label)
                assert str(got.value) == str(err)
                continue
            got = qm.region_interface_edges(m, label)
            for g, e in zip(got, expect):
                assert g.dtype == e.dtype and g.shape == e.shape
                assert np.array_equal(g, e)

    @pytest.mark.parametrize("mesh, label", [
        (qm.generate_disk(1.0, 2), "matrix"),
        (qm.generate_annulus(1.0, 4.0, 1), "matrix"),
        (qm.generate_disk(1.0, 2), "inclusion-9"),
    ])
    def test_errors_equal_the_loop(self, mesh, label):
        with pytest.raises(qm.MeshError) as expect:
            interface_edges_loop(mesh, label)
        with pytest.raises(qm.MeshError) as got:
            qm.region_interface_edges(mesh, label)
        assert str(got.value) == str(expect.value)


# The edge passes as they were before one sort served both, kept as the
# reference: single-owner edges from ``np.unique(axis=0)``, and element
# pairs from a second ``lexsort`` of the same half-edges.


def boundary_edges_by_unique(elements):
    e = np.asarray(elements)
    edges = np.concatenate([e[:, [0, 1]], e[:, [1, 2]], e[:, [2, 0]]])
    key = np.sort(edges, axis=1)
    _, inverse, counts = np.unique(
        key, axis=0, return_inverse=True, return_counts=True
    )
    single = counts[inverse] == 1
    out = edges[single]
    order = np.lexsort((out[:, 1], out[:, 0]))
    out = out[order]
    return np.column_stack([out, np.full(len(out), -1, dtype=np.int64)])


def paired_edges_by_lexsort(mesh):
    keys = np.sort(mesh.elements[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    owner = np.repeat(np.arange(mesh.element_count, dtype=np.int64), 3)
    order = np.lexsort((keys[:, 1], keys[:, 0]))
    keys, owner = keys[order], owner[order]
    new_run = np.ones(len(keys), dtype=bool)
    new_run[1:] = np.any(keys[1:] != keys[:-1], axis=1)
    run_start = np.maximum.accumulate(np.where(new_run, np.arange(len(keys)), 0))
    second = np.flatnonzero((np.arange(len(keys)) - run_start) % 2 == 1)
    return keys[second], owner[second - 1], owner[second]


README_PETALS = [(0.35e-3 * np.cos(a), 0.35e-3 * np.sin(a))
                 for a in (np.arange(6) + 0.5) * np.pi / 3]


class TestEdgeRunsMatchReference:
    GENERATORS = {
        "disk": lambda r: qm.generate_disk(1.0, r),
        "annulus": lambda r: qm.generate_annulus(1.0, 4.0, r),
        "centred-petal": lambda r: qm.generate_petal_cable(
            1.0, [(0.0, 0.0)], 0.3, r),
        "oracle-petal": lambda r: qm.generate_petal_cable(
            10.0, [(0.0, 0.0)], 1.0, r),
        "six-petal": lambda r: qm.generate_petal_cable(
            0.6e-3, README_PETALS, 0.12e-3, r),
    }

    @staticmethod
    def assert_match(mesh):
        want = boundary_edges_by_unique(mesh.elements)
        got = qm._boundary_edges(mesh.elements,
                                 qm._neighbours(mesh.elements, mesh.node_count))
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(mesh.boundary_edges[:, :2], want[:, :2])
        for got, want in zip(qm._paired_edges(mesh),
                             paired_edges_by_lexsort(mesh)):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("refinement", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_generated_meshes(self, name, refinement):
        self.assert_match(self.GENERATORS[name](refinement))

    def test_edge_fan(self):
        # the edge (0, 1) has four owners: two pairs and no boundary edge
        self.assert_match(_edge_fan())

    def test_equal_pairs_take_each_run_two_by_two(self):
        # runs of 3 to 12 equal keys, paired in key order, then position
        key = np.random.default_rng(0).integers(0, 12, 100)
        want = [[], []]
        for k in np.unique(key):
            at = np.flatnonzero(key == k)
            want[0] += at[0:len(at) - 1:2].tolist()
            want[1] += at[1::2].tolist()
        got = qm._equal_pairs(key)
        assert [g.tolist() for g in got] == want


# The strip rule as the two-pointer loop that the one merge replaced, kept
# as the reference: disk, annulus and centred-petal meshes stay the same
# element for element.


def strip_loop(inner_ids, inner_angles, outer_ids, outer_angles):
    ni, no = len(inner_ids), len(outer_ids)
    tris = []
    i = j = 0
    while i < ni or j < no:
        nxt_i = inner_angles[i + 1] if i + 1 <= ni - 1 else inner_angles[0] + 2 * np.pi
        nxt_j = outer_angles[j + 1] if j + 1 <= no - 1 else outer_angles[0] + 2 * np.pi
        if i >= ni:
            nxt_i = np.inf
        if j >= no:
            nxt_j = np.inf
        if nxt_j <= nxt_i:
            tris.append((inner_ids[i % ni], outer_ids[j % no], outer_ids[(j + 1) % no]))
            j += 1
        else:
            tris.append((inner_ids[i % ni], outer_ids[j % no], inner_ids[(i + 1) % ni]))
            i += 1
    return tris


def ring_bands_loop(rings):
    tris = []
    for inner, outer in zip(rings[:-1], rings[1:]):
        a_in = 2.0 * np.pi * np.arange(len(inner)) / len(inner)
        a_out = 2.0 * np.pi * np.arange(len(outer)) / len(outer)
        tris.extend(strip_loop(inner, a_in, outer, a_out))
    return tris


def spiderweb_triangles_loop(rings):
    first = rings[0]
    fan = [(0, first[j], first[(j + 1) % len(first)]) for j in range(len(first))]
    return fan + ring_bands_loop(rings)


class TestStripMerge:
    @pytest.mark.parametrize("ni, no, shift", [
        (6, 12, 0.0), (12, 18, 0.0), (24, 24, 0.0), (24, 24, 0.1),
        (5, 7, 0.3), (30, 12, 0.05), (1, 6, 0.0),
    ])
    def test_merge_equals_the_loop(self, ni, no, shift):
        inner = np.arange(ni) + 100
        outer = np.arange(no) + 200
        a_in = 2 * np.pi * np.arange(ni) / ni
        a_out = shift + 2 * np.pi * np.arange(no) / no
        want = np.array(strip_loop(inner, a_in, outer, a_out))
        got, band = qm._bands(inner, a_in, np.zeros(ni, dtype=np.int64),
                              outer, a_out, np.zeros(no, dtype=np.int64))
        assert np.array_equal(got, want) and not band.any()

    GENERATORS = {
        "disk": lambda r: qm.generate_disk(1.0, r),
        "annulus": lambda r: qm.generate_annulus(1.0, 4.0, r),
        "centred-petal": lambda r: qm.generate_petal_cable(
            1.0, [(0.0, 0.0)], 0.3, r),
        "oracle-petal": lambda r: qm.generate_petal_cable(
            10.0, [(0.0, 0.0)], 1.0, r),
    }

    @pytest.mark.parametrize("refinement", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_meshes_equal_the_loop_built(self, monkeypatch, name, refinement):
        got = self.GENERATORS[name](refinement)
        monkeypatch.setattr(qm, "_ring_bands", ring_bands_loop)
        monkeypatch.setattr(qm, "_spiderweb_triangles", spiderweb_triangles_loop)
        want = self.GENERATORS[name](refinement)
        assert got.elements.dtype == want.elements.dtype
        assert np.array_equal(got.elements, want.elements)
        assert np.array_equal(got.boundary_edges, want.boundary_edges)


# General petal layouts are stitched without Qhull. The checks below hold
# the stitch to the Delaunay triangulation that scipy.spatial (Qhull)
# builds on the same nodes, up to cocircular ties, where either diagonal
# is Delaunay.

# In-circle values, relative to the fourth power of the quadrilateral's
# longest side or diagonal, within this of zero are cocircular ties to
# rounding; the stitch decides every other edge exactly.
TIE_TOL = 1e-12


def head_cloud(outer_radius, centers, petal_radius, refinement):
    """The node cloud as the Qhull-based mesher built it, node for node."""
    nglobal = 2**refinement
    h = outer_radius / nglobal
    gpts, grings = qm._spiderweb_points(outer_radius, nglobal)
    on_boundary = np.zeros(len(gpts), dtype=bool)
    on_boundary[grings[-1]] = True
    clouds = []
    prings = max(2, round(petal_radius / h))
    ru = petal_radius / prings
    keep = np.ones(len(gpts), dtype=bool)
    for c in np.asarray(centers, dtype=float).reshape(-1, 2):
        local, _ = qm._spiderweb_points(ru * (prings + 1), prings + 1)
        clouds.append(c + local)
        d = np.hypot(gpts[:, 0] - c[0], gpts[:, 1] - c[1])
        keep &= (d > petal_radius + ru + 0.6 * h) | on_boundary
    return np.concatenate([gpts[keep]] + clouds)


def interior_edges(nodes, elements):
    """Sorted node pairs of the interior edges and the relative in-circle
    value of each: the far vertex against the near element, positive
    inside, over the fourth power of the quadrilateral's longest side or
    diagonal, which is the same from either diagonal."""
    e = np.asarray(elements)
    keys = {}
    rows = []
    for t, tri in enumerate(e):
        for k in range(3):
            a, b, c = tri[k], tri[(k + 1) % 3], tri[(k + 2) % 3]
            key = (min(b, c), max(b, c))
            if key in keys:
                rows.append((key, keys.pop(key), a))
            else:
                keys[key] = t
    pairs = np.array([key for key, _, _ in rows])
    near = e[[t for _, t, _ in rows]]
    quad = nodes[np.column_stack([near, [d for _, _, d in rows]])]
    (ax, ay), (bx, by), (cx, cy) = [(quad[:, k] - quad[:, 3]).T for k in range(3)]
    al, bl, cl = ax**2 + ay**2, bx**2 + by**2, cx**2 + cy**2
    det = al * (bx * cy - cx * by) + bl * (cx * ay - ax * cy) + cl * (ax * by - bx * ay)
    side = ((quad[:, :, None] - quad[:, None]) ** 2).sum(-1).max(axis=(1, 2))
    return pairs, det / side**2


def counterclockwise(nodes, elements):
    e = np.array(elements)
    flip = qm._signed_areas(nodes, e) < 0
    e[flip] = e[flip][:, ::-1]
    return e


def assert_delaunay_stitch(mesh, outer_radius, centers, petal_radius, refinement):
    nodes = mesh.nodes
    assert np.array_equal(nodes, head_cloud(outer_radius, centers, petal_radius,
                                            refinement))
    areas = qm.element_areas(mesh)
    assert np.all(areas > 0)
    nouter = 6 * 2**refinement
    polygon = 0.5 * nouter * outer_radius**2 * math.sin(2 * math.pi / nouter)
    assert abs(areas.sum() - polygon) <= 1e-12 * polygon
    # each petal region is its rim spiderweb: rim nodes on the interface,
    # every node within the rim, the rim polygon's area
    nrim = 6 * max(2, round(petal_radius / (outer_radius / 2**refinement)))
    rim_polygon = 0.5 * nrim * petal_radius**2 * math.sin(2 * math.pi / nrim)
    for k, c in enumerate(np.asarray(centers, dtype=float).reshape(-1, 2)):
        label = f"inclusion-{k + 1}"
        inside = mesh.region_mask(label)
        edges, _, _ = qm.region_interface_edges(mesh, label)
        rim = np.unique(edges)
        assert len(rim) == nrim and len(edges) == nrim
        assert np.allclose(np.hypot(*(nodes[rim] - c).T), petal_radius, rtol=1e-12)
        region = np.unique(mesh.elements[inside])
        assert np.all(np.hypot(*(nodes[region] - c).T) <= petal_radius * (1 + 1e-12))
        assert abs(areas[inside].sum() - rim_polygon) <= 1e-12 * rim_polygon
    # Delaunay, and Qhull's triangulation up to ties
    ours, rel = interior_edges(nodes, mesh.elements)
    assert rel.max() <= TIE_TOL
    qhull, qrel = interior_edges(nodes, counterclockwise(nodes, Delaunay(nodes).simplices))
    ours_set, qhull_set = set(map(tuple, ours)), set(map(tuple, qhull))
    ties = set(map(tuple, ours[np.abs(rel) <= TIE_TOL]))
    qties = set(map(tuple, qhull[np.abs(qrel) <= TIE_TOL]))
    assert ours_set - qhull_set <= ties
    assert qhull_set - ours_set <= qties


def symmetric(n, ring, rotation=0.0):
    return [tuple(c) for c in symmetric_petal_centers(n, ring, rotation)]


STITCH_LAYOUTS = {
    # every general layout the tests mesh, and the README cable
    "six-petal": (1.0, symmetric(6, 0.55), 0.21, 3),
    "three-petal": (1.0, symmetric(3, 0.5), 0.2, 3),
    "two-petal-r1": (6.0, [(3.0, 0.0), (-3.0, 0.0)], 1.0, 1),
    "two-petal-r2": (6.0, [(3.0, 0.0), (-3.0, 0.0)], 1.0, 2),
    "two-petal-r3": (6.0, [(3.0, 0.0), (-3.0, 0.0)], 1.0, 3),
    "one-off-centre-r1": (6.0, [(3.0, 0.0)], 1.0, 1),
    "one-off-centre-r2": (6.0, [(3.0, 0.0)], 1.0, 2),
    "holed": (1.0, [(0.3, -0.2)], 0.25, 3),
    "pair": (1.0, [(-0.5, 0.0), (0.5, 0.0)], 0.3, 2),
    **{f"readme-r{r}": (0.6e-3, README_PETALS, 0.12e-3, r) for r in range(1, 7)},
}


@st.composite
def petal_layouts(draw):
    """1-8 disjoint petals in the unit disk, refinement 1-4."""
    refinement = draw(st.integers(1, 4))
    petal_radius = draw(st.floats(0.02, 0.3))
    centers = []
    for _ in range(draw(st.integers(1, 8))):
        r = draw(st.floats(0.0, 1.0 - petal_radius))
        a = draw(st.floats(0.0, 2 * math.pi))
        c = (r * math.cos(a), r * math.sin(a))
        if all(math.hypot(c[0] - d[0], c[1] - d[1]) > 2 * petal_radius
               for d in centers):
            centers.append(c)
    return 1.0, centers, petal_radius, refinement


class TestDelaunayStitch:
    @pytest.mark.parametrize("name", sorted(STITCH_LAYOUTS))
    def test_layout_is_delaunay_up_to_ties(self, name):
        layout = STITCH_LAYOUTS[name]
        assert_delaunay_stitch(qm.generate_petal_cable(*layout), *layout)

    @settings(max_examples=60, deadline=None)
    @given(petal_layouts())
    def test_accepted_layouts_are_delaunay_up_to_ties(self, layout):
        assume(layout[1] != [(0.0, 0.0)])  # the structured centred mesh
        try:
            mesh = qm.generate_petal_cable(*layout)
        except qm.MeshError as err:
            assert "stitch" not in str(err)
            assume(False)
        assert_delaunay_stitch(mesh, *layout)
