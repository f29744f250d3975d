"""Assembly, constraint handling, and conjugate-gradient tests."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from qlert import cli, fem, materials, oracle, solver, tomography
from qlert import mesh as qm


def linear_field(mesh, a, b, c):
    return a + b * mesh.nodes[:, 0] + c * mesh.nodes[:, 1]


def all_boundary_nodes(mesh):
    loops = qm.boundary_loops(mesh)
    return np.unique(np.concatenate([lo["nodes"] for lo in loops]))


def solve_linear(mesh, bc_nodes, bc_values, sigma=None, **kw):
    if sigma is None:
        sigma = np.ones(mesh.element_count)
    asm = fem.Assembler(mesh, bc_nodes, **kw)
    values = np.asarray(bc_values)[np.argsort(bc_nodes)]
    result = fem.solve_spd(asm.assemble(sigma, values), tol=1e-12)
    return asm.expand(result.x, values), asm, result


def local_stiffness(coords, sigma=1.0):
    """3x3 P1 stiffness of a single triangle: the per-element reference
    that ``Assembler.raw_matrix`` and ``element_stiffness`` must match."""
    coords = np.asarray(coords, dtype=float)
    x, y = coords[:, 0], coords[:, 1]
    b = np.array([y[1] - y[2], y[2] - y[0], y[0] - y[1]])
    c = np.array([x[2] - x[1], x[0] - x[2], x[1] - x[0]])
    area = 0.5 * (b[0] * c[1] - b[1] * c[0])
    return sigma * (np.outer(b, b) + np.outer(c, c)) / (4.0 * area)


def merged_groups(parent):
    """Masters of multi-node constant-potential groups -> node arrays."""
    masters, counts = np.unique(parent, return_counts=True)
    return {int(m): np.flatnonzero(parent == m) for m in masters[counts > 1]}


class TestLocalStiffness:
    def test_reference_triangle(self):
        k = local_stiffness([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        expect = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
        assert np.allclose(k, expect, atol=1e-14)

    def test_cotangent_identity(self):
        # off-diagonal K[i,j] = -cot(angle at the opposite vertex)/2
        def cross2(a, b):
            return a[0] * b[1] - a[1] * b[0]

        rng = np.random.default_rng(7)
        p = rng.normal(size=(3, 2))
        if cross2(p[1] - p[0], p[2] - p[0]) < 0:
            p = p[[0, 2, 1]]
        k = local_stiffness(p, sigma=3.0)
        for i, j, opp in [(0, 1, 2), (1, 2, 0), (0, 2, 1)]:
            e1, e2 = p[i] - p[opp], p[j] - p[opp]
            cot = float(e1 @ e2) / abs(cross2(e1, e2))
            assert k[i, j] == pytest.approx(-3.0 * cot / 2.0, rel=1e-12)

    def test_raw_assembly_is_sum_of_locals(self):
        mesh = qm.generate_disk(1.0, 1)
        asm = fem.Assembler(mesh, qm.outer_boundary_nodes(mesh))
        sigma = np.linspace(1.0, 2.0, mesh.element_count)
        k = asm.raw_matrix(sigma).toarray()
        ref = np.zeros((mesh.node_count, mesh.node_count))
        for tri, s in zip(mesh.elements, sigma):
            ref[np.ix_(tri, tri)] += local_stiffness(mesh.nodes[tri], s)
        assert np.allclose(k, ref, atol=1e-12)


class TestPatchTest:
    @pytest.mark.parametrize(
        "mesh",
        [
            qm.generate_disk(1.0, 2),
            qm.generate_annulus(1.0, 4.0, 2),
            qm.generate_petal_cable(6.0, [(3.0, 0.0), (-3.0, 0.0)], 1.0, 2),
            qm.generate_petal_cable(10.0, [(0.0, 0.0)], 1.0, 2),
        ],
        ids=["disk", "annulus", "two-petals", "centered-petal"],
    )
    def test_linear_reproduced_exactly(self, mesh):
        bn = all_boundary_nodes(mesh)
        exact = linear_field(mesh, 1.0, 2.0, -3.0)
        u, _, _ = solve_linear(mesh, bn, exact[bn])
        assert np.max(np.abs(u - exact)) < 1e-9

    def test_disk_u_equals_x(self):
        mesh = qm.generate_disk(1.0, 3)
        bn = qm.outer_boundary_nodes(mesh)
        u, _, _ = solve_linear(mesh, bn, mesh.nodes[bn, 0])
        assert np.max(np.abs(u - mesh.nodes[:, 0])) < 1e-10

    @settings(max_examples=25, deadline=None)
    @given(
        a=st.floats(-5, 5), b=st.floats(-5, 5), c=st.floats(-5, 5),
        scale=st.floats(0.1, 10),
    )
    def test_any_linear_any_uniform_sigma(self, a, b, c, scale):
        mesh = MESH_DISK1
        bn = qm.outer_boundary_nodes(mesh)
        exact = linear_field(mesh, a, b, c)
        sigma = np.full(mesh.element_count, scale)
        u, _, _ = solve_linear(mesh, bn, exact[bn], sigma=sigma)
        span = max(1.0, np.max(np.abs(exact)))
        assert np.max(np.abs(u - exact)) < 1e-9 * span


MESH_DISK1 = qm.generate_disk(1.0, 1)


class TestPecMerging:
    def pec_solution(self, ref):
        fields = oracle.annulus_fields(10.0)
        mesh = qm.generate_petal_cable(10.0, [(0.0, 0.0)], 1.0, ref)
        bn = qm.outer_boundary_nodes(mesh)
        u, asm, result = solve_linear(
            mesh, bn, fields.gamma * mesh.nodes[bn, 0],
            pec_regions=("inclusion-1",),
        )
        return fields, mesh, u, asm, result

    def relative_l2(self, fields, mesh, u):
        cen = qm.element_centroids(mesh)
        area = qm.element_areas(mesh)
        ue = u[mesh.elements].mean(axis=1)
        ve = np.zeros(mesh.element_count)
        mat = mesh.region_mask("matrix")
        ve[mat] = fields.v(cen[mat, 0], cen[mat, 1])
        return np.sqrt(np.sum(area * (ue - ve) ** 2) / np.sum(area * ve**2))

    def test_merged_value_is_zero_by_symmetry(self):
        _, mesh, u, asm, _ = self.pec_solution(2)
        groups = merged_groups(asm.parent)
        assert len(groups) == 1
        (nodes,) = groups.values()
        vals = u[nodes]
        assert np.all(vals == vals[0])  # one dof, by construction
        assert abs(vals[0]) < 1e-9

    def test_l2_convergence_order(self):
        errs = []
        for ref in (1, 2, 3):
            fields, mesh, u, _, _ = self.pec_solution(ref)
            errs.append(self.relative_l2(fields, mesh, u))
        assert errs[1] < 1e-3
        order = np.log2(errs[0] / errs[2]) / 2.0
        assert order >= 1.9

    def test_floating_group_current_balance(self):
        mesh = qm.generate_petal_cable(6.0, [(3.0, 0.0), (-3.0, 0.0)], 1.0, 3)
        bn = qm.outer_boundary_nodes(mesh)
        asm = fem.Assembler(mesh, bn, pec_regions=("inclusion-1", "inclusion-2"))
        sigma = np.ones(mesh.element_count)
        values = mesh.nodes[asm.bc_nodes, 0]
        k_ff, rhs = asm.assemble(sigma, values)
        result = fem.solve_spd((k_ff, rhs), tol=1e-12)
        u = asm.expand(result.x, values)
        reactions = asm.raw_matrix(sigma) @ u
        budget = 1e-12 * np.linalg.norm(rhs) * 10
        groups = merged_groups(asm.parent)
        assert len(groups) == 2
        for nodes in groups.values():
            assert abs(reactions[nodes].sum()) < budget

    def test_mirror_petals_take_opposite_values(self):
        mesh = qm.generate_petal_cable(6.0, [(3.0, 0.0), (-3.0, 0.0)], 1.0, 3)
        bn = qm.outer_boundary_nodes(mesh)
        u, asm, _ = solve_linear(
            mesh, bn, mesh.nodes[bn, 0],
            pec_regions=("inclusion-1", "inclusion-2"),
        )
        vals = sorted(u[nodes[0]] for nodes in merged_groups(asm.parent).values())
        assert vals[0] == pytest.approx(-vals[1], abs=1e-8)

    def test_pec_touching_dirichlet_is_a_conflict(self):
        mesh = qm.generate_petal_cable(6.0, [(3.0, 0.0)], 1.0, 2)
        inc = np.unique(mesh.elements[mesh.region_mask("inclusion-1")])
        bad = np.concatenate([qm.outer_boundary_nodes(mesh), inc[:1]])
        with pytest.raises(fem.ConflictError):
            fem.Assembler(mesh, bad, pec_regions=("inclusion-1",))


def _find(parent, i):
    root = i
    while parent[root] != root:
        root = parent[root]
    while parent[i] != root:
        parent[i], i = root, parent[i]
    return root


def _union(parent, a, b):
    ra, rb = _find(parent, a), _find(parent, b)
    if ra != rb:
        parent[max(ra, rb)] = min(ra, rb)


def union_find_groups(mesh, bc_nodes, pec_regions=(), excluded_regions=()):
    """Union-find reference for the Assembler's merge and anchoring checks:
    returns the master of every node, or raises the error the Assembler
    must raise, with the same message."""
    bc_nodes = np.unique(np.asarray(bc_nodes, dtype=np.int64))
    region = mesh.element_region
    pec = np.isin(region, pec_regions)
    kept = ~np.isin(region, tuple(pec_regions) + tuple(excluded_regions))
    parent = np.arange(mesh.node_count, dtype=np.int64)
    for tri in mesh.elements[pec]:
        _union(parent, tri[0], tri[1])
        _union(parent, tri[0], tri[2])
    for i in range(len(parent)):
        parent[i] = _find(parent, i)
    group_size = np.bincount(parent, minlength=mesh.node_count)
    if np.any(group_size[parent[bc_nodes]] > 1):
        raise fem.ConflictError(
            "constant-potential group touches the Dirichlet boundary"
        )
    kept_tris = parent[mesh.elements[kept]]
    active = np.zeros(mesh.node_count, dtype=bool)
    active[kept_tris.ravel()] = True
    conn = np.arange(mesh.node_count, dtype=np.int64)
    for tri in kept_tris:
        _union(conn, tri[0], tri[1])
        _union(conn, tri[0], tri[2])
    roots = np.array([_find(conn, int(m)) for m in np.flatnonzero(active)])
    anchored = {int(_find(conn, int(parent[n]))) for n in bc_nodes}
    stranded = set(roots.tolist()) - anchored
    if stranded:
        raise fem.SingularSystemError(
            f"{len(stranded)} mesh component(s) carry no boundary value"
        )
    return parent


def _ring_bands(mesh, bands):
    cen = qm.element_centroids(mesh)
    rad = np.hypot(cen[:, 0], cen[:, 1])
    mask = np.zeros(mesh.element_count, dtype=bool)
    for lo, hi in bands:
        mask |= (rad > lo) & (rad < hi)
    return qm.relabel_elements(mesh, mask, "defect-band")


def _outer_nodes(mesh):
    return [lo for lo in qm.boundary_loops(mesh) if lo["outer"]][0]["nodes"]


class TestGroupsMatchUnionFind:
    def _cases(self):
        disk = qm.generate_disk(1.0, 3)
        two = qm.generate_petal_cable(6.0, [(3.0, 0.0), (-3.0, 0.0)], 1.0, 3)
        cable = qm.generate_petal_cable(
            0.6e-3,
            [(0.35e-3 * np.cos(np.radians(30 + 60 * k)),
              0.35e-3 * np.sin(np.radians(30 + 60 * k))) for k in range(6)],
            0.12e-3, 4,
        )
        petals = cable.inclusion_regions()
        annulus = qm.generate_annulus(1.0, 4.0, 3)
        banded = _ring_bands(annulus, [(1.4, 1.9), (2.6, 3.1)])
        one_band = _ring_bands(qm.generate_annulus(1.0, 4.0, 2), [(1.4, 2.4)])
        return [
            (disk, qm.outer_boundary_nodes(disk), {}),
            (two, qm.outer_boundary_nodes(two),
             {"pec_regions": ("inclusion-1", "inclusion-2")}),
            (two, qm.outer_boundary_nodes(two),
             {"excluded_regions": ("inclusion-1",),
              "pec_regions": ("inclusion-2",)}),
            (cable, qm.outer_boundary_nodes(cable), {"pec_regions": petals}),
            (cable, qm.outer_boundary_nodes(cable), {"excluded_regions": petals}),
            (annulus, all_boundary_nodes(annulus), {}),
            (banded, all_boundary_nodes(banded),
             {"pec_regions": ("defect-band",)}),
            # conflict: a petal node is a Dirichlet node
            (two, np.concatenate([
                qm.outer_boundary_nodes(two),
                np.unique(two.elements[two.region_mask("inclusion-1")])[:1],
            ]), {"pec_regions": ("inclusion-1",)}),
            # two stranded rings inside two insulating bands
            (banded, np.asarray(_outer_nodes(banded)),
             {"excluded_regions": ("defect-band",)}),
            # one stranded ring inside one insulating band
            (one_band, np.asarray(_outer_nodes(one_band)),
             {"excluded_regions": ("defect-band",)}),
        ]

    def test_parent_and_errors_equal_union_find(self):
        outcomes = set()
        for mesh, bc, kw in self._cases():
            try:
                expect = union_find_groups(mesh, bc, **kw)
            except (fem.ConflictError, fem.SingularSystemError) as err:
                with pytest.raises(type(err)) as got:
                    fem.Assembler(mesh, bc, **kw)
                assert str(got.value) == str(err)
                outcomes.add(str(err))
                continue
            asm = fem.Assembler(mesh, bc, **kw)
            parent = asm.parent
            assert parent.dtype == expect.dtype
            assert np.array_equal(parent, expect)
            outcomes.add("ok")
        assert outcomes == {
            "ok",
            "constant-potential group touches the Dirichlet boundary",
            "2 mesh component(s) carry no boundary value",
            "1 mesh component(s) carry no boundary value",
        }

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 40).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(*[st.integers(0, n - 1)] * 3), max_size=30),
    )))
    def test_component_min_equals_union_find(self, case):
        n, tris = case
        tris = np.array(tris, dtype=np.int64).reshape(-1, 3)
        parent = np.arange(n, dtype=np.int64)
        for tri in tris:
            _union(parent, tri[0], tri[1])
            _union(parent, tri[0], tri[2])
        expect = np.array([_find(parent, i) for i in range(n)])
        assert np.array_equal(fem._component_min(n, tris), expect)


@pytest.fixture(scope="module")
def excluded_solution():
    mesh = qm.generate_petal_cable(6.0, [(3.0, 0.0), (-3.0, 0.0)], 1.0, 3)
    bn = qm.outer_boundary_nodes(mesh)
    u, _, _ = solve_linear(
        mesh, bn, mesh.nodes[bn, 0],
        excluded_regions=("inclusion-1", "inclusion-2"),
    )
    return mesh, u


class TestExclusion:

    def test_interior_nodes_undefined(self, excluded_solution):
        mesh, u = excluded_solution
        inc = np.unique(mesh.elements[mesh.region_mask("inclusion-1")])
        mat = np.unique(mesh.elements[mesh.region_mask("matrix")])
        interior = np.setdiff1d(inc, mat)
        assert len(interior) > 0
        assert np.all(np.isnan(u[interior]))
        assert np.all(np.isfinite(u[np.intersect1d(inc, mat)]))

    def test_separating_band_makes_system_singular(self):
        mesh = qm.generate_annulus(1.0, 4.0, 2)
        cen = qm.element_centroids(mesh)
        rad = np.hypot(cen[:, 0], cen[:, 1])
        band = (rad > 1.4) & (rad < 2.4)
        cut = qm.relabel_elements(mesh, band, "defect-band")
        outer = [lo for lo in qm.boundary_loops(cut) if lo["outer"]][0]["nodes"]
        with pytest.raises(fem.SingularSystemError):
            fem.Assembler(cut, np.asarray(outer), excluded_regions=("defect-band",))


@pytest.fixture(scope="module")
def disk_system():
    mesh = qm.generate_disk(1.0, 3)
    bn = qm.outer_boundary_nodes(mesh)
    bv = mesh.nodes[bn, 0] ** 2 - mesh.nodes[bn, 1]
    asm = fem.Assembler(mesh, bn)
    return asm.assemble(np.ones(mesh.element_count), bv[np.argsort(bn)])


class TestSolveSpd:
    def test_identity(self):
        b = np.array([1.0, 2.0, 3.0, 4.0])
        result = fem.solve_spd((np.eye(4), b))
        assert np.allclose(result.x, b, atol=1e-14)
        assert result.iterations == 1

    def test_two_by_two(self):
        result = fem.solve_spd((np.array([[2.0, 1.0], [1.0, 2.0]]), np.ones(2)))
        assert np.allclose(result.x, [1.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    def test_zero_rhs(self):
        result = fem.solve_spd((np.eye(3), np.zeros(3)))
        assert np.all(result.x == 0.0)
        assert result.iterations == 0

    def test_preconditioned_residual_decreases_monotonically(self, disk_system):
        result = fem.solve_spd(disk_system, tol=1e-10)
        assert len(result.residuals) > 10
        assert np.all(np.diff(result.residuals) < 0)

    def test_tolerance_is_met(self, disk_system):
        result = fem.solve_spd(disk_system, tol=1e-8)
        assert result.final_relative_residual <= 1e-8

    def test_max_iter_raises_with_history(self, disk_system):
        with pytest.raises(fem.NonConvergenceError) as err:
            fem.solve_spd(disk_system, tol=1e-14, max_iter=3)
        assert len(err.value.residuals) == 4


class TestDirichletEnergy:
    MAP = materials.MaterialMap({"matrix": materials.linear(1.0)})

    @staticmethod
    def energy(mesh, material_map, u, labels=None):
        """The energy of the nodal potentials u over ``labels``, every
        region by default."""
        e_mag = np.hypot(*fem.element_gradients(mesh, u).T)
        if labels is None:
            labels = list(mesh.region_elements())
        return fem.dirichlet_energy(mesh, material_map, e_mag, labels)

    def test_constant_is_zero(self):
        mesh = qm.generate_disk(1.0, 2)
        u = np.full(mesh.node_count, 3.3)
        assert self.energy(mesh, self.MAP, u) < 1e-20

    def test_u_equals_x_on_unit_disk(self):
        mesh = qm.generate_disk(1.0, 3)
        u = mesh.nodes[:, 0]
        energy = self.energy(mesh, self.MAP, u)
        assert energy == pytest.approx(qm.element_areas(mesh).sum() / 2.0,
                                       rel=1e-12)
        assert energy == pytest.approx(np.pi / 2.0, rel=1e-2)

    def test_doubling_theta_doubles_energy(self):
        mesh = qm.generate_disk(1.0, 2)
        rng = np.random.default_rng(3)
        u = rng.normal(size=mesh.node_count)
        one = materials.MaterialMap({"matrix": materials.weighted_power(2.0, 3.0)})
        two = materials.MaterialMap({"matrix": materials.weighted_power(4.0, 3.0)})
        e1 = self.energy(mesh, one, u)
        e2 = self.energy(mesh, two, u)
        assert e2 == pytest.approx(2.0 * e1, rel=1e-12)

    def test_skip_regions_drops_contribution(self):
        # a region left out of the labels adds nothing
        mesh = qm.generate_petal_cable(6.0, [(3.0, 0.0)], 1.0, 2)
        mmap = materials.MaterialMap(
            {"matrix": materials.linear(1.0), "inclusion-1": materials.linear(1.0)}
        )
        u = mesh.nodes[:, 0]
        whole = self.energy(mesh, mmap, u)
        part = self.energy(mesh, mmap, u, ["matrix"])
        area = qm.element_areas(mesh)
        inc = mesh.region_mask("inclusion-1")
        assert whole - part == pytest.approx(area[inc].sum() / 2.0,
                                             rel=1e-12)

    def test_given_field_gives_the_same_energy(self):
        # the energy of the given field, summed region by region in the
        # order of the labels, bit for bit; other fields are never read
        mesh = qm.generate_petal_cable(6.0, [(3.0, 0.0)], 1.0, 2)
        mmap = materials.MaterialMap(
            {"matrix": materials.linear(2.0),
             "inclusion-1": materials.weighted_power(1.0, 1.5)})
        u = mesh.nodes[:, 0] ** 2 + mesh.nodes[:, 1]
        e_mag = np.hypot(*fem.element_gradients(mesh, u).T)
        _, _, area = fem.element_geometry(mesh)
        index = mesh.region_elements()
        for labels in (["matrix"], ["inclusion-1", "matrix"],
                       ["matrix", "inclusion-1"]):
            want = 0.0
            for label in labels:
                m = index[label]
                dens = materials.energy_density(mmap.for_region(label),
                                                e_mag[m])
                want += float(np.sum(dens * area[m]))
            others = np.full(mesh.element_count, np.nan)
            for label in labels:
                others[index[label]] = e_mag[index[label]]
            assert fem.dirichlet_energy(mesh, mmap, others, labels) == want

    def test_skipped_region_needs_no_material(self):
        mesh = qm.generate_petal_cable(6.0, [(3.0, 0.0)], 1.0, 2)
        u = mesh.nodes[:, 0]
        only_matrix = materials.MaterialMap({"matrix": materials.linear(1.0)})
        val = self.energy(mesh, only_matrix, u, ["matrix"])
        assert np.isfinite(val) and val > 0


class TestValidation:
    def test_unknown_region(self):
        mesh = qm.generate_disk(1.0, 1)
        with pytest.raises(ValueError, match="unknown region"):
            fem.Assembler(mesh, qm.outer_boundary_nodes(mesh), pec_regions=("nope",))

    def test_region_in_both_roles(self):
        mesh = qm.generate_petal_cable(6.0, [(3.0, 0.0)], 1.0, 1)
        with pytest.raises(ValueError, match="both"):
            fem.Assembler(
                mesh, qm.outer_boundary_nodes(mesh),
                pec_regions=("inclusion-1",), excluded_regions=("inclusion-1",),
            )

    def test_empty_bc(self):
        mesh = qm.generate_disk(1.0, 1)
        with pytest.raises(ValueError, match="empty"):
            fem.Assembler(mesh, np.array([], dtype=np.int64))

    def test_nonpositive_sigma(self):
        mesh = qm.generate_disk(1.0, 1)
        asm = fem.Assembler(mesh, qm.outer_boundary_nodes(mesh))
        sigma = np.ones(mesh.element_count)
        sigma[0] = 0.0
        with pytest.raises(ValueError, match="positive"):
            asm.assemble(sigma, np.zeros(len(asm.bc_nodes)))

    def test_sigma_shape(self):
        mesh = qm.generate_disk(1.0, 1)
        asm = fem.Assembler(mesh, qm.outer_boundary_nodes(mesh))
        with pytest.raises(ValueError, match="per element"):
            asm.assemble(np.ones(3), np.zeros(len(asm.bc_nodes)))

    def test_bc_values_alignment(self):
        mesh = qm.generate_disk(1.0, 1)
        asm = fem.Assembler(mesh, qm.outer_boundary_nodes(mesh))
        with pytest.raises(ValueError, match="align"):
            asm.assemble(np.ones(mesh.element_count), np.zeros(2))


def dof_map_expand(parent, index, fixed_value, x_free, fill=np.nan):
    """Reference: ``DofMap.expand``, the free-dof -> nodal map that
    ``Assembler.expand`` replaced, copied unchanged."""
    idx = index[parent]
    out = np.full(len(parent), fill, dtype=float)
    free = idx >= 0
    out[free] = np.asarray(x_free)[idx[free]]
    fixed = idx == fem.FIXED
    out[fixed] = fixed_value[parent[fixed]]
    return out


TWO_PETALS = qm.generate_petal_cable(6.0, [(3.0, 0.0), (-3.0, 0.0)], 1.0, 3)


class TestFactorAndExpand:
    @pytest.mark.parametrize("regions", [
        {},
        {"pec_regions": ("inclusion-1", "inclusion-2")},
        {"excluded_regions": ("inclusion-1", "inclusion-2")},
    ], ids=["plain", "merged", "excluded"])
    def test_expand_matches_dof_map_expand(self, regions):
        asm = fem.Assembler(TWO_PETALS, qm.outer_boundary_nodes(TWO_PETALS),
                            **regions)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(asm.n_free, 3))
        bc = rng.normal(size=(len(asm.bc_nodes), 3))
        u = asm.expand(x, bc)
        assert u.shape == (TWO_PETALS.node_count, 3)
        # the DofMap fields: index classifies masters, and node_dof is
        # index[parent], so node_dof holds index on every master
        for k in range(3):
            fixed_value = np.full(TWO_PETALS.node_count, np.nan)
            fixed_value[asm.parent[asm.bc_nodes]] = bc[:, k]
            ref = dof_map_expand(asm.parent, asm.node_dof, fixed_value,
                                 x[:, k])
            one = asm.expand(x[:, k], bc[:, k])
            assert one.shape == ref.shape
            assert np.array_equal(one, ref, equal_nan=True)
            assert np.array_equal(u[:, k], ref, equal_nan=True)
        assert np.isnan(u).any() == ("excluded_regions" in regions)

    @pytest.mark.parametrize("regions", [
        {"pec_regions": ("inclusion-1",)},
        {"excluded_regions": ("inclusion-1", "inclusion-2")},
    ])
    def test_columns_match_one_cg_solve_each(self, regions):
        mesh = TWO_PETALS
        asm = fem.Assembler(mesh, qm.outer_boundary_nodes(mesh), **regions)
        sigma = 1.0 + qm.element_centroids(mesh)[:, 0] ** 2
        x, y = mesh.nodes[asm.bc_nodes].T
        columns = np.column_stack([x, x * y - 2.0, np.full_like(x, 3.0)])
        lu, k_fd = asm.factor(sigma)
        u = asm.expand(lu.solve(-k_fd @ columns), columns)
        assert u.shape == (mesh.node_count, 3)
        for k in range(3):
            ref = asm.expand(fem.solve_spd(asm.assemble(sigma, columns[:, k]),
                                           tol=1e-13).x, columns[:, k])
            assert np.array_equal(np.isnan(u[:, k]), np.isnan(ref))
            ok = ~np.isnan(ref)
            assert np.abs(u[ok, k] - ref[ok]).max() <= 1e-10 * np.abs(ref[ok]).max()
        assert np.all(u[asm.bc_nodes] == columns)

    def test_rejects_misaligned_boundary_values(self):
        asm = fem.Assembler(TWO_PETALS, qm.outer_boundary_nodes(TWO_PETALS),
                            pec_regions=("inclusion-1",))
        sigma = np.ones(TWO_PETALS.element_count)
        nb = len(asm.bc_nodes)
        for bad in (np.zeros(nb + 1), np.zeros(nb - 1), np.zeros((nb + 1, 2)),
                    np.zeros((nb, 2, 1)), np.float64(0.0)):
            with pytest.raises(ValueError, match="bc_values must align"):
                asm.assemble(sigma, bad)
            x = np.zeros((asm.n_free, *np.shape(bad)[1:2]))
            with pytest.raises(ValueError, match="bc_values must align"):
                asm.expand(x, bad)


class TestElementStiffness:
    def test_matches_local_stiffness_of_kept_elements(self):
        mesh = qm.generate_petal_cable(6.0, [(3.0, 0.0)], 1.0, 2)
        asm = fem.Assembler(mesh, qm.outer_boundary_nodes(mesh),
                            pec_regions=("inclusion-1",))
        kept = np.flatnonzero(mesh.element_region == "matrix")[::7]
        unit = asm.element_stiffness(kept)
        for e, s in zip(kept, unit):
            assert np.allclose(s, local_stiffness(
                mesh.nodes[mesh.elements[e]]), rtol=1e-13, atol=0.0)

    def test_rejects_merged_elements(self):
        mesh = qm.generate_petal_cable(6.0, [(3.0, 0.0)], 1.0, 2)
        asm = fem.Assembler(mesh, qm.outer_boundary_nodes(mesh),
                            pec_regions=("inclusion-1",))
        merged = np.flatnonzero(mesh.element_region == "inclusion-1")[:1]
        with pytest.raises(ValueError, match="merged"):
            asm.element_stiffness(merged)
        with pytest.raises(ValueError, match="merged"):
            asm.element_stiffness([mesh.element_count])


def coo_blocks(asm, sigma):
    """Reference: (K_ff, K_fd) as ``Assembler`` built them before its CSR
    plan, element triplets summed by scipy's COO -> CSR conversion."""
    mesh = asm.mesh
    tris = mesh.elements[asm.kept]
    gi = asm.node_dof[tris]
    rows = np.repeat(gi[:, :, None], 3, axis=2)
    cols = np.repeat(gi[:, None, :], 3, axis=1)
    ff = (rows >= 0) & (cols >= 0)
    fd = (rows >= 0) & (cols == fem.FIXED)
    masters = np.repeat(asm.parent[tris][:, None, :], 3, axis=1)
    vals = sigma[asm.kept][:, None, None] * asm.element_stiffness(asm.kept)
    n = asm.n_free
    k_ff = sparse.coo_matrix((vals[ff], (rows[ff], cols[ff])),
                             shape=(n, n)).tocsr()
    k_fd = sparse.coo_matrix(
        (vals[fd], (rows[fd], np.searchsorted(asm.bc_nodes, masters[fd]))),
        shape=(n, len(asm.bc_nodes))).tocsr()
    return k_ff, k_fd


def assert_same_csr(got, ref):
    assert got.shape == ref.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


class TestCsrPlan:
    """Assembly from the cached CSR plan against the COO -> CSR
    conversion it replays: equal index arrays and bit-equal sums."""

    @pytest.mark.parametrize("refinement", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("role", [None, "pec_regions", "excluded_regions"])
    def test_readme_cables_with_random_sigma(self, refinement, role):
        mesh = cli.build_mesh(readme_cable(refinement, 1e-3))
        split = {role: tuple(mesh.inclusion_regions())} if role else {}
        asm = fem.Assembler(mesh, qm.outer_boundary_nodes(mesh), **split)
        rng = np.random.default_rng(refinement)
        for _ in range(2):
            sigma = 10.0 ** rng.uniform(-9.0, 16.0, mesh.element_count)
            bv = rng.standard_normal(len(asm.bc_nodes))
            k_ff, k_fd = asm._blocks(sigma)
            ref_ff, ref_fd = coo_blocks(asm, sigma)
            assert_same_csr(k_ff, ref_ff)
            assert_same_csr(k_fd, ref_fd)
            _, rhs = asm.assemble(sigma, bv)
            assert np.array_equal(rhs, -ref_fd @ bv)

    def test_tagged_disk_with_electrode_gaps(self):
        mesh = qm.tag_electrodes(qm.generate_disk(1.0, 3),
                                 qm.ElectrodeLayout(8, 0.5))
        nodes = np.concatenate(list(qm.electrode_nodes(mesh).values()))
        asm = fem.Assembler(mesh, nodes)
        sigma = 10.0 ** np.random.default_rng(7).uniform(
            -9.0, 16.0, mesh.element_count)
        for got, ref in zip(asm._blocks(sigma), coo_blocks(asm, sigma)):
            assert_same_csr(got, ref)

    def test_no_free_dof(self):
        mesh = qm.generate_disk(1.0, 1)
        asm = fem.Assembler(mesh, np.arange(mesh.node_count))
        sigma = np.ones(mesh.element_count)
        assert asm.n_free == 0
        for got, ref in zip(asm._blocks(sigma), coo_blocks(asm, sigma)):
            assert_same_csr(got, ref)

    @pytest.mark.parametrize("refinement", [5, 6])
    @pytest.mark.parametrize("pec", [False, True])
    def test_setup_peak_is_small_against_what_is_kept(self, refinement, pec):
        # the set-up of a large solve's Assembler sets its memory peak
        mesh = cli.build_mesh(readme_cable(refinement, 1e-3))
        split = {"pec_regions": tuple(mesh.inclusion_regions())} if pec else {}
        nodes = qm.outer_boundary_nodes(mesh)
        fem.element_geometry(mesh)  # kept by the mesh, not the Assembler
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            asm = fem.Assembler(mesh, nodes, **split)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert asm.n_free > 0
        assert peak - base <= 2.5 * (kept - base)

    def test_plan_arrays_are_shared_and_read_only(self):
        asm = fem.Assembler(TWO_PETALS, qm.outer_boundary_nodes(TWO_PETALS))
        sigma = np.ones(TWO_PETALS.element_count)
        first, _ = asm.assemble(sigma, np.zeros(len(asm.bc_nodes)))
        second, _ = asm.assemble(2.0 * sigma, np.zeros(len(asm.bc_nodes)))
        assert np.shares_memory(first.indices, second.indices)
        with pytest.raises(ValueError):
            first.indices[0] = 0


def plain_pcg(system, tol=1e-10, max_iter=None):
    """Jacobi-PCG as ``solve_spd`` ran it before deflation, kept unchanged
    as the reference for a solve with no coarse vector."""
    a, b = system
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    if max_iter is None:
        max_iter = max(1000, int(30 * np.sqrt(n)))
    inv_d = 1.0 / a.diagonal()
    x = np.zeros(n)
    b_norm = float(np.linalg.norm(b))
    r = b - a @ x
    z = inv_d * r
    p = z.copy()
    rz = float(r @ z)
    history = [np.sqrt(rz)]
    res = float(np.linalg.norm(r))
    it = 0
    while res > tol * b_norm:
        assert it < max_iter
        ap = a @ p
        alpha = rz / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
        z = inv_d * r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
        history.append(np.sqrt(max(rz, 0.0)))
        res = float(np.linalg.norm(r))
        it += 1
    return x, it, np.array(history), res / b_norm


def readme_cable(refinement, amplitude_v):
    """The README cable: six E-J petals in a linear copper matrix."""
    return {
        "units": "SI",
        "geometry": {
            "shape": "cable", "outer_radius_m": 0.6e-3,
            "petal_radius_m": 0.12e-3,
            "petals": {"count": 6, "ring_radius_m": 0.35e-3,
                       "phase_deg": 30.0},
            "refinement": refinement,
        },
        "materials": {
            "matrix": {"model": "linear", "sigma_s_per_m": 5.55e7},
            "inclusions": {"model": "ej-power-law", "jc_a_per_mm2": 8000.0,
                           "n": 27.0, "e0_v_per_m": 1e-4},
        },
        "boundary": {"profile": "x-linear", "amplitude_v": amplitude_v},
    }


def last_picard_system(refinement, amplitude_v):
    """(K_ff, rhs, coarse) of the last linearized solve of a README
    nonlinear solve: petals near sigma_cap next to copper."""
    tree = readme_cable(refinement, amplitude_v)
    mesh = cli.build_mesh(tree)
    mmap = materials.MaterialMap(cli.build_material_models(tree, mesh))
    f, _, _ = cli.build_boundary(tree, mesh)
    calls = []
    solve = fem.solve_spd

    def recording(system, *args, **kwargs):
        calls.append((*system, kwargs["coarse"]))
        return solve(system, *args, **kwargs)

    fem.solve_spd = recording
    try:
        solver.solve_nonlinear(mesh, mmap, f)
    finally:
        fem.solve_spd = solve
    return calls[-1]


@pytest.fixture(scope="module")
def saturated_systems():
    return {"r5-0.5mV": last_picard_system(5, 0.5e-3),
            "r6-1mV": last_picard_system(6, 1e-3)}


class TestDeflatedSolveSpd:
    """Deflated PCG against the plain loop it extends and a direct solve,
    on the systems whose floating petals made plain Jacobi-PCG slow."""

    def test_no_coarse_vector_is_the_plain_loop_bit_for_bit(
            self, disk_system, saturated_systems):
        a, b, _ = saturated_systems["r5-0.5mV"]
        for system in (disk_system, (a, b)):
            x, it, history, rel = plain_pcg(system)
            result = fem.solve_spd(system)
            assert np.array_equal(result.x, x)
            assert result.iterations == it
            assert np.array_equal(result.residuals, history)
            assert result.final_relative_residual == rel

    @pytest.mark.parametrize("name", ["r5-0.5mV", "r6-1mV"])
    def test_matches_a_direct_solve(self, saturated_systems, name):
        from scipy.sparse.linalg import splu

        a, b, coarse = saturated_systems[name]
        assert len(coarse) == 6
        ref = splu(a.tocsc()).solve(b)
        deflated = fem.solve_spd((a, b), coarse=coarse).x
        plain = fem.solve_spd((a, b)).x
        # At a contrast of 1e16 / 5.55e7 no solver pins the petal
        # constants below 1e-7 of max|x|: the direct solve itself leaves
        # a relative residual of 1e-7, and plain CG lands 1.1e-7 (r5) and
        # 3.5e-7 (r6) away from it. Measured deflated: 1.04e-7 and 4.4e-7.
        bound = {"r5-0.5mV": 2e-7, "r6-1mV": 6e-7}[name]
        scale = np.abs(ref).max()
        assert np.abs(deflated - ref).max() <= bound * scale
        assert np.abs(plain - ref).max() <= bound * scale
        # and its true residual is no worse than plain CG's (measured
        # 4.6e-8 against 3.1e-7 at r5, 7.6e-8 against 7.2e-7 at r6)
        b_norm = np.linalg.norm(b)
        true_deflated = np.linalg.norm(b - a @ deflated) / b_norm
        true_plain = np.linalg.norm(b - a @ plain) / b_norm
        assert true_deflated <= true_plain

    @pytest.mark.parametrize("name", ["r5-0.5mV", "r6-1mV"])
    def test_needs_far_fewer_iterations(self, saturated_systems, name):
        # measured 128 / 363 at r5 and 243 / 747 at r6
        a, b, coarse = saturated_systems[name]
        deflated = fem.solve_spd((a, b), coarse=coarse)
        plain = fem.solve_spd((a, b))
        assert deflated.final_relative_residual <= 1e-10
        assert deflated.iterations <= 0.6 * plain.iterations

    def test_max_iter_raises_with_history(self, saturated_systems):
        a, b, coarse = saturated_systems["r5-0.5mV"]
        with pytest.raises(fem.NonConvergenceError) as err:
            fem.solve_spd((a, b), coarse=coarse, max_iter=3)
        assert len(err.value.residuals) == 4
        assert "after 3 iterations" in str(err.value)

    def test_any_disjoint_basis_keeps_the_answer(self, disk_system):
        a, b = disk_system
        ref = fem.solve_spd((a, b), tol=1e-13).x
        n = a.shape[0]
        coarse = (np.arange(0, n, 3), np.array([1, 4, 7]), np.array([5]))
        result = fem.solve_spd((a, b), tol=1e-13, coarse=coarse)
        assert np.abs(result.x - ref).max() <= 1e-11 * np.abs(ref).max()
        with pytest.raises(ValueError, match="disjoint"):
            fem.solve_spd((a, b), coarse=(np.array([0, 1]), np.array([1])))


def petal_dofs(asm, label):
    mesh = asm.mesh
    nodes = np.unique(mesh.elements[mesh.element_region == label])
    dofs = np.unique(asm.node_dof[nodes])
    return dofs[dofs >= 0]


class TestDeflationBasis:
    MESH = cli.build_mesh(readme_cable(3, 1e-3))
    PETALS = tuple(MESH.inclusion_regions())

    def test_one_column_per_floating_petal(self):
        mesh = self.MESH
        asm = fem.Assembler(mesh, qm.outer_boundary_nodes(mesh))
        basis = asm.deflation_basis
        assert len(basis) == 6
        for label, dofs in zip(sorted(self.PETALS), basis):
            assert np.array_equal(dofs, petal_dofs(asm, label))
        every = np.concatenate(basis)
        assert len(np.unique(every)) == len(every)
        assert asm.deflation_basis is basis  # computed once

    @pytest.mark.parametrize("role", ["pec_regions", "excluded_regions"])
    def test_no_column_for_merged_or_excluded_petals(self, role):
        mesh = self.MESH
        asm = fem.Assembler(mesh, qm.outer_boundary_nodes(mesh),
                            **{role: self.PETALS})
        assert asm.deflation_basis == ()

    def test_no_column_for_a_region_touching_a_dirichlet_node(self):
        mesh = self.MESH
        pinned = mesh.elements[mesh.element_region == "inclusion-2"][0, 0]
        bc = np.append(qm.outer_boundary_nodes(mesh), pinned)
        asm = fem.Assembler(mesh, bc, pec_regions=("inclusion-5",))
        floating = ("inclusion-1", "inclusion-3", "inclusion-4",
                    "inclusion-6")
        assert len(asm.deflation_basis) == 4
        for label, dofs in zip(floating, asm.deflation_basis):
            assert np.array_equal(dofs, petal_dofs(asm, label))

    def test_shared_dofs_go_to_the_first_label(self):
        # a floating defect disc overlapping petal 1's rim shares its
        # interface nodes with the petal; "defect" sorts first
        mesh = self.MESH
        x0, y0 = qm.element_centroids(mesh)[
            mesh.element_region == "inclusion-1"].mean(axis=0)
        c = qm.element_centroids(mesh)
        near = np.hypot(c[:, 0] - x0, c[:, 1] - y0) <= 0.18e-3
        defect = qm.relabel_elements(
            mesh, near & (mesh.element_region == "matrix"), "defect")
        asm = fem.Assembler(defect, qm.outer_boundary_nodes(defect))
        basis = asm.deflation_basis
        assert len(basis) == 7
        shared = np.intersect1d(petal_dofs(asm, "defect"),
                                petal_dofs(asm, "inclusion-1"))
        assert len(shared) > 0
        assert np.array_equal(basis[0], petal_dofs(asm, "defect"))
        assert np.array_equal(
            basis[1], np.setdiff1d(petal_dofs(asm, "inclusion-1"), shared))
        every = np.concatenate(basis)
        assert len(np.unique(every)) == len(every)

    def test_conductance_operator_never_builds_it(self, monkeypatch):
        def refuse(self):
            raise AssertionError("deflation basis built")

        monkeypatch.setattr(fem.Assembler, "deflation_basis",
                            property(refuse))
        mesh = qm.tag_electrodes(self.MESH, qm.ElectrodeLayout(8, 0.5))
        models = {"matrix": materials.linear(5.55e7)}
        op = tomography.ConductanceOperator(
            mesh, materials.MaterialMap(models), amplitude=1e-3)
        op.background()
        mask = np.zeros(mesh.element_count, dtype=bool)
        mask[np.flatnonzero(mesh.element_region == "matrix")[:5]] = True
        op.matrix(mask, materials.linear(5.55e4), "disc")


class TestElementGeometryCache:
    def counting(self, monkeypatch):
        calls = []
        compute = fem._element_geometry

        def counted(mesh):
            calls.append(mesh)
            return compute(mesh)

        monkeypatch.setattr(fem, "_element_geometry", counted)
        return calls

    def test_computed_once_per_mesh(self, monkeypatch):
        calls = self.counting(monkeypatch)
        mesh = qm.generate_petal_cable(6.0, [(3.0, 0.0)], 1.0, 2)
        mmap = materials.MaterialMap({"matrix": materials.linear(1.0),
                                      "inclusion-1": materials.linear(5.0)})
        bn = qm.outer_boundary_nodes(mesh)
        sol = solver.solve_nonlinear(mesh, mmap, (bn, mesh.nodes[bn, 0]))
        e_mag = np.hypot(*fem.element_gradients(mesh, sol.nodal_potential).T)
        fem.dirichlet_energy(mesh, mmap, e_mag, ["inclusion-1", "matrix"])
        assert len(calls) == 1 and calls[0] is mesh

    def test_read_only_and_equal_to_a_fresh_computation(self):
        mesh = qm.generate_petal_cable(6.0, [(3.0, 0.0)], 1.0, 2)
        cached = fem.element_geometry(mesh)
        assert fem.element_geometry(mesh) is cached
        for got, fresh in zip(cached, fem._element_geometry(mesh)):
            assert not got.flags.writeable
            assert np.array_equal(got, fresh)
        with pytest.raises(ValueError):
            cached[2][0] = 1.0

    def test_relabelled_mesh_gets_its_own(self, monkeypatch):
        mesh = qm.generate_petal_cable(6.0, [(3.0, 0.0)], 1.0, 2)
        first = fem.element_geometry(mesh)
        calls = self.counting(monkeypatch)
        mask = np.zeros(mesh.element_count, dtype=bool)
        mask[:4] = True
        other = qm.relabel_elements(mesh, mask, "defect")
        second = fem.element_geometry(other)
        assert calls == [other]
        assert second is not first
        for a, b in zip(first, second):
            assert np.array_equal(a, b)
        assert fem.element_geometry(mesh) is first
