"""Assembly, constraint handling, and conjugate-gradient tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlert import fem, materials, oracle
from qlert import mesh as qm


def linear_field(mesh, a, b, c):
    return a + b * mesh.nodes[:, 0] + c * mesh.nodes[:, 1]


def all_boundary_nodes(mesh):
    loops = qm.boundary_loops(mesh)
    return np.unique(np.concatenate([lo["nodes"] for lo in loops]))


def solve_linear(mesh, bc_nodes, bc_values, sigma=None, **kw):
    if sigma is None:
        sigma = np.ones(mesh.element_count)
    system = fem.assemble(mesh, sigma, (bc_nodes, bc_values), **kw)
    result = fem.solve_spd(system, tol=1e-12)
    return system.dof_map.expand(result.x), system, result


class TestLocalStiffness:
    def test_reference_triangle(self):
        k = fem.local_stiffness([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
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
        k = fem.local_stiffness(p, sigma=3.0)
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
            ref[np.ix_(tri, tri)] += fem.local_stiffness(mesh.nodes[tri], s)
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
        u, system, result = solve_linear(
            mesh, bn, fields.gamma * mesh.nodes[bn, 0],
            pec_regions=("inclusion-1",),
        )
        return fields, mesh, u, system, result

    def relative_l2(self, fields, mesh, u):
        cen = qm.element_centroids(mesh)
        area = qm.element_areas(mesh)
        ue = u[mesh.elements].mean(axis=1)
        ve = np.zeros(mesh.element_count)
        mat = mesh.region_mask("matrix")
        ve[mat] = fields.v(cen[mat, 0], cen[mat, 1])
        return np.sqrt(np.sum(area * (ue - ve) ** 2) / np.sum(area * ve**2))

    def test_merged_value_is_zero_by_symmetry(self):
        _, mesh, u, system, _ = self.pec_solution(2)
        groups = system.dof_map.merged_groups()
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
        system = asm.assemble(sigma, mesh.nodes[bn, 0])
        result = fem.solve_spd(system, tol=1e-12)
        u = system.dof_map.expand(result.x, fill=0.0)
        reactions = asm.raw_matrix(sigma) @ u
        budget = 1e-12 * np.linalg.norm(system.rhs) * 10
        groups = system.dof_map.merged_groups()
        assert len(groups) == 2
        for nodes in groups.values():
            assert abs(reactions[nodes].sum()) < budget

    def test_mirror_petals_take_opposite_values(self):
        mesh = qm.generate_petal_cable(6.0, [(3.0, 0.0), (-3.0, 0.0)], 1.0, 3)
        bn = qm.outer_boundary_nodes(mesh)
        u, system, _ = solve_linear(
            mesh, bn, mesh.nodes[bn, 0],
            pec_regions=("inclusion-1", "inclusion-2"),
        )
        vals = sorted(u[nodes[0]] for nodes in system.dof_map.merged_groups().values())
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
    return qm.relabel_elements(mesh, mask, "defect-band", kind="defect")


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
            parent = asm.dof_map_template[0]
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
    u, system, _ = solve_linear(
        mesh, bn, mesh.nodes[bn, 0],
        excluded_regions=("inclusion-1", "inclusion-2"),
    )
    return mesh, u, system


class TestExclusion:

    def test_interior_nodes_undefined(self, excluded_solution):
        mesh, u, _ = excluded_solution
        inc = np.unique(mesh.elements[mesh.region_mask("inclusion-1")])
        mat = np.unique(mesh.elements[mesh.region_mask("matrix")])
        interior = np.setdiff1d(inc, mat)
        assert len(interior) > 0
        assert np.all(np.isnan(u[interior]))
        assert np.all(np.isfinite(u[np.intersect1d(inc, mat)]))

    def test_expand_fill_override(self, excluded_solution):
        mesh, u, system = excluded_solution
        full = system.dof_map.expand(
            np.zeros(system.dof_map.n_free), fill=-7.0
        )
        assert np.all(full[np.isnan(u)] == -7.0)

    def test_separating_band_makes_system_singular(self):
        mesh = qm.generate_annulus(1.0, 4.0, 2)
        cen = qm.element_centroids(mesh)
        rad = np.hypot(cen[:, 0], cen[:, 1])
        band = (rad > 1.4) & (rad < 2.4)
        cut = qm.relabel_elements(mesh, band, "defect-band", kind="defect")
        outer = [lo for lo in qm.boundary_loops(cut) if lo["outer"]][0]["nodes"]
        with pytest.raises(fem.SingularSystemError):
            fem.Assembler(cut, np.asarray(outer), excluded_regions=("defect-band",))


@pytest.fixture(scope="module")
def disk_system():
    mesh = qm.generate_disk(1.0, 3)
    bn = qm.outer_boundary_nodes(mesh)
    bv = mesh.nodes[bn, 0] ** 2 - mesh.nodes[bn, 1]
    return fem.assemble(mesh, np.ones(mesh.element_count), (bn, bv))


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

    def test_warm_start_skips_work(self, disk_system):
        cold = fem.solve_spd(disk_system, tol=1e-10)
        warm = fem.solve_spd(disk_system, tol=1e-10, x0=cold.x)
        assert warm.iterations == 0

    def test_max_iter_raises_with_history(self, disk_system):
        with pytest.raises(fem.NonConvergenceError) as err:
            fem.solve_spd(disk_system, tol=1e-14, max_iter=3)
        assert len(err.value.residuals) == 4


class TestDirichletEnergy:
    MAP = materials.MaterialMap({"matrix": materials.linear(1.0)})

    def test_constant_is_zero(self):
        mesh = qm.generate_disk(1.0, 2)
        u = np.full(mesh.node_count, 3.3)
        assert fem.dirichlet_energy(mesh, self.MAP, u) < 1e-20

    def test_u_equals_x_on_unit_disk(self):
        mesh = qm.generate_disk(1.0, 3)
        u = mesh.nodes[:, 0]
        energy = fem.dirichlet_energy(mesh, self.MAP, u)
        assert energy == pytest.approx(qm.total_area(mesh) / 2.0, rel=1e-12)
        assert energy == pytest.approx(np.pi / 2.0, rel=1e-2)

    def test_doubling_theta_doubles_energy(self):
        mesh = qm.generate_disk(1.0, 2)
        rng = np.random.default_rng(3)
        u = rng.normal(size=mesh.node_count)
        one = materials.MaterialMap({"matrix": materials.weighted_power(2.0, 3.0)})
        two = materials.MaterialMap({"matrix": materials.weighted_power(4.0, 3.0)})
        e1 = fem.dirichlet_energy(mesh, one, u)
        e2 = fem.dirichlet_energy(mesh, two, u)
        assert e2 == pytest.approx(2.0 * e1, rel=1e-12)

    def test_skip_regions_drops_contribution(self):
        mesh = qm.generate_petal_cable(6.0, [(3.0, 0.0)], 1.0, 2)
        mmap = materials.MaterialMap(
            {"matrix": materials.linear(1.0), "inclusion-1": materials.linear(1.0)}
        )
        u = mesh.nodes[:, 0]
        whole = fem.dirichlet_energy(mesh, mmap, u)
        part = fem.dirichlet_energy(mesh, mmap, u, skip_regions=("inclusion-1",))
        area = qm.element_areas(mesh)
        inc = mesh.region_mask("inclusion-1")
        assert whole - part == pytest.approx(area[inc].sum() / 2.0, rel=1e-12)

    def test_skipped_region_needs_no_material(self):
        mesh = qm.generate_petal_cable(6.0, [(3.0, 0.0)], 1.0, 2)
        u = mesh.nodes[:, 0]
        only_matrix = materials.MaterialMap({"matrix": materials.linear(1.0)})
        val = fem.dirichlet_energy(mesh, only_matrix, u, skip_regions=("inclusion-1",))
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

    def test_dof_map_matches_assemble_and_checks_alignment(self):
        mesh = qm.generate_petal_cable(6.0, [(3.0, 0.0)], 1.0, 2)
        asm = fem.Assembler(mesh, qm.outer_boundary_nodes(mesh),
                            pec_regions=("inclusion-1",))
        values = mesh.nodes[asm.bc_nodes, 0]
        dof_map = asm.dof_map(values)
        ref = asm.assemble(np.ones(mesh.element_count), values).dof_map
        for name in ("parent", "index", "fixed_value"):
            assert np.array_equal(getattr(dof_map, name), getattr(ref, name),
                                  equal_nan=True)
        assert dof_map.n_free == ref.n_free == asm.n_free
        assert np.array_equal(dof_map.fixed_value[asm.bc_nodes], values)
        with pytest.raises(ValueError, match="align"):
            asm.dof_map(np.zeros(len(asm.bc_nodes) + 1))


class TestSolveDirect:
    @pytest.mark.parametrize("regions", [
        {"pec_regions": ("inclusion-1",)},
        {"excluded_regions": ("inclusion-1", "inclusion-2")},
    ])
    def test_columns_match_one_cg_solve_each(self, regions):
        mesh = qm.generate_petal_cable(6.0, [(3.0, 0.0), (-3.0, 0.0)], 1.0, 3)
        asm = fem.Assembler(mesh, qm.outer_boundary_nodes(mesh), **regions)
        sigma = 1.0 + qm.element_centroids(mesh)[:, 0] ** 2
        x, y = mesh.nodes[asm.bc_nodes].T
        columns = np.column_stack([x, x * y - 2.0, np.full_like(x, 3.0)])
        u = asm.solve_direct(sigma, columns)
        assert u.shape == (mesh.node_count, 3)
        for k in range(3):
            system = asm.assemble(sigma, columns[:, k])
            ref = system.dof_map.expand(fem.solve_spd(system, tol=1e-13).x)
            assert np.array_equal(np.isnan(u[:, k]), np.isnan(ref))
            ok = ~np.isnan(ref)
            assert np.abs(u[ok, k] - ref[ok]).max() <= 1e-10 * np.abs(ref[ok]).max()
        assert np.all(u[asm.bc_nodes] == columns)

    def test_rejects_misaligned_columns(self):
        mesh = qm.generate_disk(1.0, 1)
        asm = fem.Assembler(mesh, qm.outer_boundary_nodes(mesh))
        with pytest.raises(ValueError, match="bc_nodes"):
            asm.solve_direct(np.ones(mesh.element_count),
                             np.zeros(len(asm.bc_nodes)))
