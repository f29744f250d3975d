"""Fixed-point solver, limiting solves, and sweep-driver tests."""

import functools
import warnings

import numpy as np
import pytest
from scipy.spatial import cKDTree

from qlert import fem, materials, solver
from qlert import mesh as qm

CABLE_RADIUS = 0.6e-3
PETAL_RADIUS = 0.12e-3
PETAL_CENTERS = [
    (0.35e-3 * np.cos(a), 0.35e-3 * np.sin(a))
    for a in (np.arange(6) + 0.5) * np.pi / 3
]


def cable_mesh(refinement):
    return qm.generate_petal_cable(
        CABLE_RADIUS, PETAL_CENTERS, PETAL_RADIUS, refinement
    )


def cable_materials(mesh, petal=materials.ej_power_law(8000e6, 27, 1e-4)):
    models = {"matrix": materials.linear(5.55e7)}
    for label in mesh.inclusion_regions():
        models[label] = petal
    return materials.MaterialMap(models)


def disk_profile(mesh, values_of):
    nodes = qm.outer_boundary_nodes(mesh)
    return nodes, values_of(mesh.nodes[nodes, 0], mesh.nodes[nodes, 1])


def warm_start(asm, u):
    """``solve_nonlinear`` keywords that start it, as a sweep point
    starts, from the free-dof values on ``asm`` of the nodal potentials
    ``u``, with a last solve of its own, at lambda 1."""
    free = asm.node_dof >= 0
    x = np.empty(asm.n_free)
    x[asm.node_dof[free]] = u[free]
    return {"_warm": (x, solver._LastSolve(), 1.0)}


# the solves that take boundary data: the limit solve builds its own
# Assembler, with the holed disk's inclusion merged or excluded
ENTRY_POINTS = {
    "": solver.solve_nonlinear,
    "pec-limit": functools.partial(solver.solve_limit, limit_kind="pec"),
    "pei-limit": functools.partial(solver.solve_limit, limit_kind="pei"),
}

# a unit linear matrix, all that a limit solve on the holed disk reads
UNIT_MATRIX = materials.MaterialMap({"matrix": materials.linear(1.0)})


@pytest.fixture(scope="module")
def disk3():
    return qm.generate_disk(1.0, 3)


@pytest.fixture(scope="module")
def holed_disk():
    # unit disk with one concentric inclusion
    return qm.generate_petal_cable(1.0, [(0.0, 0.0)], 0.3, 3)


class TestConfig:
    def test_defaults_are_valid(self):
        cfg = solver.NonlinearSolveConfig()
        assert cfg.max_picard_iter == 200
        assert cfg.picard_tol == 1e-8

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"picard_tol": 0.0},
            {"picard_tol": -1e-10},
            {"max_picard_iter": 0},
            {"max_picard_iter": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            solver.NonlinearSolveConfig(**kwargs)


class TestSolveNonlinear:
    def test_linear_material_converges_in_one_iteration(self, disk3):
        nodes, values = disk_profile(disk3, lambda x, y: x**2 - y**2)
        mmap = materials.MaterialMap({"matrix": materials.linear(4.0)})
        sol = solver.solve_nonlinear(disk3, mmap, (nodes, values))
        assert sol.iterations == 1
        assert sol.monitors["max_principle_ok"]
        assert sol.monitors["energy_descent_ok"]

    @pytest.mark.parametrize("case", ["linear", "pec-limit"])
    def test_field_independent_map_takes_one_linear_solve(
            self, disk3, holed_disk, monkeypatch, case):
        if case == "linear":
            mesh, split = disk3, {}
            mmap = materials.MaterialMap({"matrix": materials.linear(4.0)})
        else:
            mesh, split = holed_disk, {"pec_regions": ("inclusion-1",)}
            mmap = materials.MaterialMap(
                {"matrix": materials.weighted_power(3.0, 2.0)})
        nodes, values = disk_profile(mesh, lambda x, y: x**2 - y**2)
        solve = fem.solve_spd
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(fem, "solve_spd", counting)
        sol = solver.solve_nonlinear(
            mesh, mmap, (nodes, values),
            assembler=fem.Assembler(mesh, nodes, **split))
        assert len(calls) == 1
        # the two-solve path: the initial iterate, then one step that
        # solves the same system again from zero and lands on it exactly
        asm = fem.Assembler(mesh, nodes, **split)
        bv = values[np.argsort(nodes)]
        sig = mmap.sigma_elements(mesh, np.ones(mesh.element_count),
                                  asm.kept_regions)
        first, second = (
            solve(asm.assemble(sig, bv), coarse=asm.deflation_basis).x
            for _ in range(2)
        )
        assert np.array_equal(first, second)
        u = asm.expand(second, bv)
        e_mag = np.hypot(*fem.element_gradients(mesh, u).T)
        energy = fem.dirichlet_energy(mesh, mmap, e_mag, asm.kept_regions)
        assert np.array_equal(sol.nodal_potential, u)
        assert np.array_equal(sol.element_gradient,
                              fem.element_gradients(mesh, u))
        assert sol.energy == energy
        assert np.array_equal(sol.picard_energy, [energy, energy])
        assert np.array_equal(sol.picard_change, [0.0])
        assert sol.iterations == 1

    def test_degree_one_homogeneity_is_exact(self, disk3):
        # doubling the data doubles the solution bitwise: every CG and
        # Picard step scales by the same power of two
        nodes, values = disk_profile(disk3, lambda x, y: x)
        mmap = materials.MaterialMap({"matrix": materials.weighted_power(3.0, 2.0)})
        one = solver.solve_nonlinear(disk3, mmap, (nodes, values))
        two = solver.solve_nonlinear(disk3, mmap, (nodes, 2.0 * values))
        assert np.array_equal(two.nodal_potential, 2.0 * one.nodal_potential)

    def test_sublinear_power_converges_with_energy_descent(self, disk3):
        nodes, values = disk_profile(disk3, lambda x, y: x**2 - y**2)
        mmap = materials.MaterialMap({"matrix": materials.weighted_power(1.0, 1.5)})
        sol = solver.solve_nonlinear(disk3, mmap, (nodes, values))
        assert sol.iterations > 1
        assert sol.picard_change[-1] <= 1e-8
        rises = np.diff(sol.picard_energy)
        assert np.all(rises <= 1e-9 * np.abs(sol.picard_energy[:-1]) + 1e-300)
        assert sol.monitors["energy_descent_ok"]
        assert sol.monitors["max_principle_ok"]

    def test_odd_data_gives_odd_solution_under_refinement(self):
        # the triangulation is not mirror symmetric, so discrete oddness
        # holds only up to discretization error; it must shrink fast
        asym = []
        mmap = materials.MaterialMap({"matrix": materials.weighted_power(1.0, 1.5)})
        for refinement in (2, 4):
            mesh = qm.generate_disk(1.0, refinement)
            mirrored = np.column_stack([-mesh.nodes[:, 0], mesh.nodes[:, 1]])
            dist, perm = cKDTree(mesh.nodes).query(mirrored)
            assert dist.max() < 1e-12
            nodes, values = disk_profile(mesh, lambda x, y: x**3)
            u = solver.solve_nonlinear(mesh, mmap, (nodes, values)).nodal_potential
            asym.append(np.max(np.abs(u[perm] + u)) / np.max(np.abs(u)))
        assert asym[0] < 1e-2
        assert asym[1] < 2e-4
        assert asym[0] / asym[1] > 10.0

    def test_field_perpendicular_to_steep_power_law_petals(self):
        # petals driven far into their steep branch act as conductors;
        # the tangential field on their rims sits at the solver's own
        # noise floor except where the outside field genuinely vanishes
        # (the two stagnation poles of each petal)
        mesh = cable_mesh(3)
        f = solver.linear_profile(mesh, 1e-6 / CABLE_RADIUS)
        sol = solver.solve_nonlinear(mesh, cable_materials(mesh), f)
        span = float(f[1].max() - f[1].min())
        for label in mesh.inclusion_regions():
            edges, _, outside = qm.region_interface_edges(mesh, label)
            du = sol.nodal_potential[edges[:, 1]] - sol.nodal_potential[edges[:, 0]]
            length = np.linalg.norm(
                mesh.nodes[edges[:, 1]] - mesh.nodes[edges[:, 0]], axis=1
            )
            tangential = np.abs(du) / length
            magnitude = np.hypot(*sol.element_gradient[outside].T)
            noise = 10.0 * 1e-8 * span / length
            assert np.all(tangential <= 0.05 * magnitude + noise)

    def test_warm_start_from_solution_converges_immediately(self, disk3):
        nodes, values = disk_profile(disk3, lambda x, y: x**2 - y**2)
        mmap = materials.MaterialMap({"matrix": materials.weighted_power(1.0, 1.5)})
        cold = solver.solve_nonlinear(disk3, mmap, (nodes, values))
        warm = solver.solve_nonlinear(
            disk3, mmap, (nodes, values),
            **warm_start(fem.Assembler(disk3, nodes), cold.nodal_potential))
        assert warm.iterations == 1
        diff = np.abs(warm.nodal_potential - cold.nodal_potential)
        assert diff.max() < 1e-8 * np.max(np.abs(cold.nodal_potential))

    def test_constant_data_short_circuits(self, disk3):
        nodes = qm.outer_boundary_nodes(disk3)
        mmap = materials.MaterialMap({"matrix": materials.weighted_power(1.0, 1.5)})
        sol = solver.solve_nonlinear(disk3, mmap, (nodes, np.full(len(nodes), 2.5)))
        assert sol.iterations == 0
        assert sol.energy == 0.0
        assert np.all(sol.nodal_potential == 2.5)

    @pytest.mark.parametrize("case", ["-".join(filter(None, (data, entry)))
                                      for data in ("constant", "varying")
                                      for entry in ENTRY_POINTS])
    def test_repeated_boundary_nodes_rejected_for_any_data(self, holed_disk,
                                                           case):
        data, _, entry = case.partition("-")
        nodes = qm.outer_boundary_nodes(holed_disk)
        nodes = np.concatenate([nodes, nodes[:1]])
        values = holed_disk.nodes[nodes, 0]
        if data == "constant":
            values = np.full_like(values, 2.5)
        mmap = materials.MaterialMap({"matrix": materials.linear(1.0),
                                      "inclusion-1": materials.linear(2.0)})
        with pytest.raises(ValueError, match="bc_values must align"):
            ENTRY_POINTS[entry](holed_disk, mmap, f=(nodes, values))

    def test_nonfinite_boundary_data_rejected(self, disk3):
        nodes = qm.outer_boundary_nodes(disk3)
        values = disk3.nodes[nodes, 0].copy()
        values[0] = np.nan
        mmap = materials.MaterialMap({"matrix": materials.linear(1.0)})
        with pytest.raises(ValueError, match="finite"):
            solver.solve_nonlinear(disk3, mmap, (nodes, values))

    def test_iteration_cap_raises_with_history(self, disk3):
        nodes, values = disk_profile(disk3, lambda x, y: x**2 - y**2)
        mmap = materials.MaterialMap({"matrix": materials.weighted_power(1.0, 1.5)})
        cfg = solver.NonlinearSolveConfig(max_picard_iter=1)
        with pytest.raises(solver.PicardNonConvergenceError) as info:
            solver.solve_nonlinear(disk3, mmap, (nodes, values), cfg)
        assert len(info.value.energy_history) == 2
        assert len(info.value.change_history) == 1
        assert "tolerance" in str(info.value)

    def test_breakdown_error_names_the_element(self):
        field = np.array([1.0, np.nan, 2.0])
        with pytest.raises(solver.NumericalBreakdownError) as info:
            solver._check_finite_field(field, np.arange(3), "probe")
        assert info.value.element == 1
        assert "element 1" in str(info.value)

    def test_non_finite_solve_names_an_element_at_its_dof(self, disk3,
                                                          monkeypatch):
        nodes, values = disk_profile(disk3, lambda x, y: x**2 - y**2)
        mmap = materials.MaterialMap(
            {"matrix": materials.weighted_power(1.0, 3.0)})
        asm = fem.Assembler(disk3, nodes)
        dof = asm.n_free // 2
        corner_dofs = asm.node_dof[disk3.elements[asm.kept]]
        assert dof not in corner_dofs[0]  # the first element is no answer
        solve = fem.solve_spd
        calls = []

        def poisoned(*args, **kwargs):
            # the start solves cleanly; the first step's solve has a NaN
            result = solve(*args, **kwargs)
            calls.append(result)
            if len(calls) > 1:
                result.x[dof] = np.nan
            return result

        monkeypatch.setattr(fem, "solve_spd", poisoned)
        with pytest.raises(solver.NumericalBreakdownError,
                           match="non-finite value") as info:
            solver.solve_nonlinear(disk3, mmap, (nodes, values),
                                   assembler=asm)
        assert len(calls) == 2
        assert dof in asm.node_dof[disk3.elements[info.value.element]]


def cli_cable_solve(phase_deg, amplitude_v):
    """The README cable at refinement 5, built the way ``qlert solve``
    builds it, solved in nonlinear mode with the default controls."""
    from qlert import cli

    tree = {
        "geometry": {
            "shape": "cable", "outer_radius_m": 0.6e-3,
            "petal_radius_m": 0.12e-3, "refinement": 5,
            "petals": {"count": 6, "ring_radius_m": 0.35e-3,
                       "phase_deg": phase_deg},
        },
        "materials": {
            "matrix": {"model": "linear", "sigma_s_per_m": 5.55e7},
            "inclusions": {"model": "ej-power-law", "jc_a_per_mm2": 8000.0,
                           "n": 27.0, "e0_v_per_m": 1e-4},
        },
        "boundary": {"profile": "x-linear", "amplitude_v": amplitude_v},
    }
    mesh = cli.build_mesh(tree)
    mmap = materials.MaterialMap(cli.build_material_models(tree, mesh))
    f, _, _ = cli.build_boundary(tree, mesh)
    return solver.solve_nonlinear(mesh, mmap, f, cli.build_solver_config(tree))


class TestSaturatedPetals:
    # Petals whose E-J conductivity sits at sigma_cap next to a copper
    # matrix: the fixed-point change must settle once sigma does, rather
    # than track linear-solver noise up to the iteration cap.

    @pytest.mark.parametrize("phase_deg, amplitude_v", [
        (30.0, 10e-3),  # the README cable
        (90.0, 2e-3),
    ])
    def test_cable_converges_with_clean_monitors(self, phase_deg, amplitude_v):
        sol = cli_cable_solve(phase_deg, amplitude_v)
        assert sol.iterations <= 40
        assert sol.monitors["energy_descent_ok"]
        assert sol.monitors["max_principle_ok"]


class TestCaplessEjLaw:
    # without e_floor and sigma_cap an E-J conductivity is infinite where
    # the field vanishes

    LAW = materials.ej_power_law(8000e6, 27).without_regularization()

    def cable_solve(self, amplitude):
        mesh = cable_mesh(3)
        nodes = qm.outer_boundary_nodes(mesh)
        f = (nodes, amplitude * mesh.nodes[nodes, 0] / CABLE_RADIUS)
        return mesh, solver.solve_nonlinear(
            mesh, cable_materials(mesh, petal=self.LAW), f)

    def test_infinite_conductivity_names_its_element(self):
        with pytest.raises(solver.NumericalBreakdownError) as info:
            self.cable_solve(1e-3)
        assert f"element {info.value.element} " in str(info.value)
        assert "conductivity is not finite" in str(info.value)

    def test_converges_at_large_data(self):
        _, sol = self.cable_solve(1.0)
        assert sol.monitors["energy_descent_ok"]
        assert sol.monitors["max_principle_ok"]


class TestWeightedPowerDamping:
    # sigma = theta * E**(p-2) grows with the field for p > 2, and the
    # undamped fixed point overshoots it: both cases below stall at the
    # 200-step cap with damping 1

    def test_default_damping_for_growing_weighted_power(self):
        mmap = materials.MaterialMap({"matrix": materials.weighted_power(2.0, 3.0)})
        assert solver._auto_damping(mmap, ["matrix"]) == 0.7
        flat = materials.MaterialMap({"matrix": materials.weighted_power(2.0, 1.5)})
        assert solver._auto_damping(flat, ["matrix"]) == 1.0

    def test_saddle_data_converges_with_clean_monitors(self, disk3):
        mmap = materials.MaterialMap({"matrix": materials.weighted_power(2.0, 3.0)})
        f = disk_profile(disk3, lambda x, y: x**2 - y**2)
        sol = solver.solve_nonlinear(disk3, mmap, f)
        assert sol.iterations < 200
        assert sol.monitors["energy_descent_ok"]
        assert sol.monitors["max_principle_ok"]

    def test_conductance_matrix_converges(self):
        from qlert import tomography

        disk = qm.tag_electrodes(qm.generate_disk(1.0, 3),
                                 qm.ElectrodeLayout(8, 0.5))
        mmap = materials.MaterialMap({"matrix": materials.weighted_power(2.0, 3.0)})
        g = tomography.ConductanceOperator(disk, mmap, amplitude=1.0,
                                           mode="nonlinear").background()
        assert g.size == 8
        assert np.all(np.isfinite(g.matrix))
        assert solver.VIOLATIONS == []


class TestEjUndamped:
    # E-J conductivity does not grow with the field, so each undamped
    # Kachanov step minimises a quadratic majorant of the convex energy
    # and needs no damping

    @pytest.mark.parametrize("model, damping", [
        pytest.param(materials.ej_power_law(8000e6, 27, 1e-4), 1.0,
                     id="readme-ej"),
        *[pytest.param(materials.preset(name), 1.0, id=name)
          for name in materials.PRESET_TABLE],
        pytest.param(materials.weighted_power(2.0, 3.0), 0.7,
                     id="weighted-power-p3"),
    ])
    def test_auto_damping(self, model, damping):
        mmap = materials.MaterialMap({"matrix": materials.linear(5.55e7),
                                      "petal": model})
        assert solver._auto_damping(mmap, ["matrix", "petal"]) == damping

    @pytest.mark.parametrize("amplitude", [1e-3, 10e-3, 1.0])
    def test_agrees_with_damped_iteration(self, amplitude, monkeypatch):
        mesh = cable_mesh(3)
        mmap = cable_materials(mesh)
        nodes = qm.outer_boundary_nodes(mesh)
        f = (nodes, amplitude * mesh.nodes[nodes, 0] / CABLE_RADIUS)
        full = solver.solve_nonlinear(mesh, mmap, f)
        # the damped reference: the rule the solver would follow if E-J
        # conductivity grew with the field
        monkeypatch.setattr(solver, "_auto_damping", lambda *args: 0.7)
        damped = solver.solve_nonlinear(mesh, mmap, f)
        assert damped.monitors["damping"] == 0.7
        assert full.monitors["damping"] == 1.0
        assert full.energy <= damped.energy * (1.0 + 1e-12)
        assert abs(full.energy - damped.energy) <= 1e-8 * damped.energy
        u, v = full.nodal_potential, damped.nodal_potential
        assert np.max(np.abs(u - v)) <= 1e-7 * np.max(np.abs(v))
        if amplitude < 0.1:
            # below saturation both start at the petals' sigma_cap limit,
            # which is already the fixed point
            assert full.iterations == damped.iterations == 1
        else:
            assert full.iterations < damped.iterations


def data_scale_start(mesh, material_map, f):
    """``solve_nonlinear`` keywords that start it from the iterate a cold
    solve started from before the small-data start: one linear solve with
    sigma frozen at the data-scale field."""
    nodes, values = f
    order = np.argsort(nodes)
    nodes, values = nodes[order], values[order]
    asm = fem.Assembler(mesh, nodes)
    diam = float(np.max(mesh.nodes.max(axis=0) - mesh.nodes.min(axis=0)))
    e_char = float(values.max() - values.min()) / diam
    sig = material_map.sigma_elements(
        mesh, np.full(mesh.element_count, e_char), asm.kept_regions)
    x = fem.solve_spd(asm.assemble(sig, values),
                      coarse=asm.deflation_basis).x
    return warm_start(asm, asm.expand(x, values))


class TestSmallDataStart:
    # A cold solve first tries sigma at zero field wherever it exceeds
    # the data-scale sigma, the perfect-conductor limit of saturating
    # petals, and keeps it only when it is its own fixed point; otherwise
    # it starts from the data-scale iterate. The reference replays the
    # data-scale path through the private start a sweep point takes.

    @staticmethod
    def cable_case(refinement, amplitude, *petal):
        mesh = cable_mesh(refinement)
        mmap = cable_materials(mesh, *petal)
        nodes = qm.outer_boundary_nodes(mesh)
        return mesh, mmap, (nodes, amplitude * mesh.nodes[nodes, 0]
                            / CABLE_RADIUS)

    @pytest.mark.parametrize("refinement, amplitude", [
        (3, 0.5e-3), (3, 1e-3), (3, 10e-3), (5, 0.5e-3), (5, 10e-3),
    ])
    def test_saturated_petals_take_one_step_to_the_same_answer(
            self, refinement, amplitude):
        mesh, mmap, f = self.cable_case(refinement, amplitude)
        new = solver.solve_nonlinear(mesh, mmap, f)
        ref = solver.solve_nonlinear(mesh, mmap, f,
                                     **data_scale_start(mesh, mmap, f))
        assert new.iterations == 1
        assert np.array_equal(new.picard_change, [0.0])
        assert ref.iterations > 1
        if amplitude < 10e-3:
            # the reference, too, ends on a repeated sigma
            assert ref.picard_change[-1] == 0.0
        assert np.array_equal(new.nodal_potential, ref.nodal_potential)
        assert new.energy == ref.energy

    def test_one_linear_solve(self, monkeypatch):
        mesh, mmap, f = self.cable_case(3, 1e-3)
        solve = fem.solve_spd
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(fem, "solve_spd", counting)
        sol = solver.solve_nonlinear(mesh, mmap, f)
        assert sol.iterations == 1
        assert len(calls) == 1

    @staticmethod
    def assert_replays_the_data_scale_path(mesh, mmap, f):
        new = solver.solve_nonlinear(mesh, mmap, f)
        ref = solver.solve_nonlinear(mesh, mmap, f,
                                     **data_scale_start(mesh, mmap, f))
        assert new.iterations == ref.iterations > 1
        assert np.array_equal(new.picard_change, ref.picard_change)
        assert np.array_equal(new.nodal_potential, ref.nodal_potential)
        assert new.energy == ref.energy

    @pytest.mark.parametrize("amplitude", [30e-3, 0.1, 1.0])
    def test_above_saturation_falls_back(self, amplitude):
        self.assert_replays_the_data_scale_path(
            *self.cable_case(3, amplitude))

    def test_law_without_cap_falls_back(self):
        # sigma is infinite at zero field: no small-data start to try
        bare = materials.ej_power_law(8000e6, 27, 1e-4).without_regularization()
        self.assert_replays_the_data_scale_path(
            *self.cable_case(3, 1.0, bare))

    def test_sublinear_power_matrix_falls_back(self, disk3):
        mmap = materials.MaterialMap(
            {"matrix": materials.weighted_power(2.0, 1.5)})
        self.assert_replays_the_data_scale_path(
            disk3, mmap, disk_profile(disk3, lambda x, y: x**2 - y**2))

    def test_fallback_stops_at_the_cap_like_the_data_scale_path(self):
        # n = 36 petals at 1 mV stop at the 200-step cap on either path
        mesh, mmap, f = self.cable_case(
            3, 1e-3, materials.preset("YBCO-SP-SCS12050"))
        errors = []
        for start in ({}, data_scale_start(mesh, mmap, f)):
            with pytest.raises(solver.PicardNonConvergenceError) as info:
                solver.solve_nonlinear(mesh, mmap, f, **start)
            errors.append(info.value)
        new, ref = errors
        assert str(new) == str(ref)
        assert np.array_equal(new.energy_history, ref.energy_history)
        assert np.array_equal(new.change_history, ref.change_history)


def scalar_max_principle(u, bc_values, context):
    """Reference: the one-column rule the column-wise monitor replaced,
    copied unchanged except that it returns its record instead of filing
    it."""
    finite = u[np.isfinite(u)]
    lo, hi = float(bc_values.min()), float(bc_values.max())
    span = max(hi - lo, abs(hi), abs(lo), 1e-300)
    under = lo - float(finite.min())
    over = float(finite.max()) - hi
    worst = max(under, over)
    ok = worst <= solver.MAX_PRINCIPLE_RTOL * span
    record = None
    if not ok:
        record = {"kind": "max-principle", "context": context,
                  "magnitude": float(worst), "detail": f"span={span}"}
    return ok, max(worst, 0.0), record


class TestMaxPrinciple:
    def test_columns_follow_the_scalar_rule(self):
        rng = np.random.default_rng(11)
        bc = rng.uniform(-2.0, 3.0, size=(9, 8))
        bc[:, 3] = 0.0  # a zero span
        lo, hi = bc.min(axis=0), bc.max(axis=0)
        u = np.vstack([bc, lo + (hi - lo) * rng.uniform(size=(40, 8))])
        u[12, 1] = hi[1] + 0.5          # far above
        u[20, 2] = lo[2] - 1e-3         # below
        u[30, 4] = hi[4] + 1e-9 * (hi[4] - lo[4])  # within the tolerance
        u[5, 3] = 1e-200                # above a zero span
        u[::7, 5] = np.nan              # undefined nodes
        u[18, 5] = hi[5] + 2.0
        contexts = [f"column {j}" for j in range(8)]
        ok, excess = solver.check_max_principle(u, bc, contexts)
        filed = list(solver.VIOLATIONS)
        solver.clear_violations()
        expect = [scalar_max_principle(u[:, j], bc[:, j], contexts[j])
                  for j in range(8)]
        assert ok.tolist() == [e[0] for e in expect]
        assert excess.tolist() == [e[1] for e in expect]
        assert filed == [e[2] for e in expect if e[2] is not None]
        assert [v["context"] for v in filed] == [
            "column 1", "column 2", "column 3", "column 5"]


class TestLimitSolves:
    def test_pec_zero_data_gives_zero_solution(self, holed_disk):
        nodes = qm.outer_boundary_nodes(holed_disk)
        sol = solver.solve_limit(
            holed_disk, UNIT_MATRIX, (nodes, np.zeros(len(nodes))), "pec")
        assert np.all(sol.nodal_potential == 0.0)
        assert sol.energy == 0.0
        assert sol.iterations == 0

    def test_pec_solution_rotates_with_the_data(self):
        # the matrix annulus of this mesh is invariant under rotation by
        # one angular pitch, nodes and triangles both
        mesh = qm.generate_petal_cable(10.0, [(0.0, 0.0)], 1.0, 2)
        outer = qm.outer_boundary_nodes(mesh)
        pitch = 2.0 * np.pi / len(outer)
        c, s = np.cos(pitch), np.sin(pitch)
        x, y = mesh.nodes[outer, 0], mesh.nodes[outer, 1]
        base = solver.solve_limit(mesh, UNIT_MATRIX, (outer, 7.12 * x), "pec")
        turned = solver.solve_limit(
            mesh, UNIT_MATRIX, (outer, 7.12 * (c * x + s * y)), "pec")
        rotated = np.column_stack(
            [c * mesh.nodes[:, 0] - s * mesh.nodes[:, 1],
             s * mesh.nodes[:, 0] + c * mesh.nodes[:, 1]]
        )
        dist, perm = cKDTree(mesh.nodes).query(rotated)
        petal = np.zeros(mesh.node_count, dtype=bool)
        petal[np.unique(mesh.elements[mesh.region_mask("inclusion-1")])] = True
        assert dist[~petal].max() < 1e-9
        diff = np.abs(turned.nodal_potential[perm] - base.nodal_potential)
        assert diff[~petal].max() < 1e-8

    def test_pei_with_no_inclusions_is_a_plain_solve(self, disk3):
        nodes, values = disk_profile(disk3, lambda x, y: x)
        mmap = materials.MaterialMap({"matrix": materials.linear(2.0)})
        excluded = solver.solve_limit(disk3, mmap, (nodes, values), "pei")
        plain = solver.solve_nonlinear(disk3, mmap, (nodes, values))
        assert np.array_equal(excluded.nodal_potential, plain.nodal_potential)
        assert excluded.energy == plain.energy

    def test_pei_hole_boundary_carries_no_flux(self, holed_disk):
        nodes, values = disk_profile(holed_disk, lambda x, y: x)
        sol = solver.solve_limit(holed_disk, UNIT_MATRIX, (nodes, values), "pei")
        asm = fem.Assembler(
            holed_disk, nodes, excluded_regions=("inclusion-1",)
        )
        reactions = asm.raw_matrix(np.ones(holed_disk.element_count)) @ (
            np.nan_to_num(sol.nodal_potential)
        )
        edges, _, _ = qm.region_interface_edges(holed_disk, "inclusion-1")
        rim = np.unique(edges)
        assert abs(reactions[rim].sum()) < 1e-12
        assert np.abs(reactions[rim]).max() < 1e-12

    def test_pec_energy_dominates_pei_energy(self, holed_disk):
        # restricted to the matrix, every conductor-limit trial function
        # is admissible for the insulator limit, so its minimum is lower
        nodes, values = disk_profile(holed_disk, lambda x, y: x)
        pec = solver.solve_limit(holed_disk, UNIT_MATRIX, (nodes, values), "pec")
        pei = solver.solve_limit(holed_disk, UNIT_MATRIX, (nodes, values), "pei")
        assert pec.energy >= pei.energy > 0.0

    def test_rejects_unknown_limit_kind(self, holed_disk):
        nodes, values = disk_profile(holed_disk, lambda x, y: x)
        with pytest.raises(ValueError, match="limit_kind"):
            solver.solve_limit(holed_disk, UNIT_MATRIX, (nodes, values),
                               "dirichlet")


class TestLambdaSweep:
    def test_pure_quadratic_material_is_scale_invariant(self, disk3):
        nodes, values = disk_profile(disk3, lambda x, y: x**2 - y**2)
        mmap = materials.MaterialMap({"matrix": materials.weighted_power(3.0, 2.0)})
        grid = solver.log_grid(1.0, 1e-4, per_decade=1)
        sweep = solver.lambda_sweep(disk3, mmap, (nodes, values), grid, "pec")
        assert sweep.all_ok
        assert np.nanmax(sweep.e2) <= 1e-9
        assert np.nanmax(sweep.einf) <= 1e-9
        g0 = sweep.g0
        assert np.all(np.abs(g0 - g0[0]) <= 1e-9 * g0[0])

    def test_normalized_energy_approaches_the_limit_energy(self, holed_disk):
        # inclusion grows slower at small fields than the matrix, so the
        # conductor limit applies and the normalized energy tends to its
        # matrix-only minimum
        mmap = materials.MaterialMap(
            {"matrix": materials.weighted_power(2.0, 2.0),
             "inclusion-1": materials.weighted_power(1.0, 1.5)}
        )
        nodes, values = disk_profile(holed_disk, lambda x, y: x)
        grid = solver.log_grid(1.0, 1e-4, per_decade=2)
        sweep = solver.lambda_sweep(holed_disk, mmap, (nodes, values), grid, "pec")
        assert sweep.all_ok
        assert abs(sweep.g0[-1] - sweep.limit.energy) <= 0.02 * sweep.limit.energy
        assert sweep.e2[-1] < sweep.e2[0]
        assert sweep.einf[-1] < sweep.einf[0]

    def test_claimed_limit_is_cross_checked_against_exponents(self, holed_disk):
        mmap = materials.MaterialMap(
            {"matrix": materials.weighted_power(2.0, 2.0),
             "inclusion-1": materials.weighted_power(1.0, 1.5)}
        )
        nodes, values = disk_profile(holed_disk, lambda x, y: x)
        grid = solver.log_grid(1.0, 0.1, per_decade=1)
        with pytest.warns(UserWarning, match="perfect-insulator"):
            solver.lambda_sweep(holed_disk, mmap, (nodes, values), grid, "pei")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solver.lambda_sweep(holed_disk, mmap, (nodes, values), grid, "pec")

    def test_linear_inclusion_warns_against_the_conductor_limit(
            self, holed_disk):
        # small-field exponent 2 = p0: the inclusion does not outgrow the
        # matrix at small fields, so the perfect-conductor limit is unsure
        mmap = materials.MaterialMap(
            {"matrix": materials.weighted_power(2.0, 2.0),
             "inclusion-1": materials.linear(5.0)}
        )
        nodes, values = disk_profile(holed_disk, lambda x, y: x)
        with pytest.warns(UserWarning, match="perfect-conductor"):
            solver.lambda_sweep(holed_disk, mmap, (nodes, values),
                                np.array([1.0, 0.1]), "pec")

    def test_p0_is_the_one_the_matrix_law_declares(self):
        # a p = 3 matrix: the q0 = 2.5 inclusion grows slower at small
        # fields, so the conductor limit applies without a warning, and
        # g0 divides by lambda**3, approaching the limit energy
        mesh = qm.generate_petal_cable(1.0, [(0.0, 0.0)], 0.3, 2)
        mmap = materials.MaterialMap(
            {"matrix": materials.weighted_power(1.0, 3.0),
             "inclusion-1": materials.weighted_power(1.0, 2.5)})
        nodes, values = disk_profile(mesh, lambda x, y: x)
        grid = np.array([1.0, 0.1, 0.01])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sweep = solver.lambda_sweep(mesh, mmap, (nodes, values), grid,
                                        "pec")
        assert sweep.all_ok
        energies = np.array([sol.energy for sol in sweep.solutions])
        assert sweep.g0 == pytest.approx(energies / grid**3, rel=1e-14)
        assert sweep.g0 == pytest.approx([1.054, 1.194, 1.322], abs=1e-3)
        assert sweep.limit.energy == pytest.approx(1.511, abs=1e-3)
        assert np.all(np.diff(sweep.g0) > 0)
        assert sweep.g0[-1] < sweep.limit.energy

    def test_regions_that_disagree_on_p0_are_refused(self, holed_disk,
                                                     monkeypatch):
        # a defect region outside the inclusions declares p0 = 3, the
        # matrix p0 = 2: the sweep has no one g0 exponent and never solves
        def refuse(*args, **kwargs):
            raise AssertionError("solved")

        monkeypatch.setattr(solver, "solve_nonlinear", refuse)
        centers = qm.element_centroids(holed_disk)
        mesh = qm.relabel_elements(holed_disk, centers[:, 0] > 0.8,
                                   "defect-1")
        mmap = materials.MaterialMap(
            {"matrix": materials.linear(1.0),
             "defect-1": materials.weighted_power(1.0, 3.0),
             "inclusion-1": materials.weighted_power(1.0, 1.5)})
        nodes, values = disk_profile(mesh, lambda x, y: x)
        with pytest.raises(ValueError, match="one small-field exponent p0"):
            solver.lambda_sweep(mesh, mmap, (nodes, values),
                                np.array([1.0, 0.1]), "pec")

    def test_linear_inclusion_warns_against_the_insulator_limit(
            self, holed_disk):
        # small-field exponent 2 = p0: the inclusion does not undergrow
        # the matrix either, so the perfect-insulator limit is unsure too
        mmap = materials.MaterialMap(
            {"matrix": materials.weighted_power(2.0, 2.0),
             "inclusion-1": materials.linear(5.0)}
        )
        nodes, values = disk_profile(holed_disk, lambda x, y: x)
        with pytest.warns(UserWarning, match="perfect-insulator"):
            solver.lambda_sweep(holed_disk, mmap, (nodes, values),
                                np.array([1.0, 0.1]), "pei")

    def test_exponent_just_below_p0_does_not_warn(self, holed_disk):
        # q0 = 1.97 < p0 = 2: the comparison is exact, with no tolerance
        mmap = materials.MaterialMap(
            {"matrix": materials.linear(1.0),
             "inclusion-1": materials.weighted_power(1.0, 1.97)}
        )
        nodes, values = disk_profile(holed_disk, lambda x, y: x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sweep = solver.lambda_sweep(holed_disk, mmap, (nodes, values),
                                        np.array([1.0, 0.1]), "pec")
        assert sweep.all_ok

    def test_inclusion_without_a_material_fails_before_any_solve(
            self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("solved")

        monkeypatch.setattr(solver, "solve_nonlinear", refuse)
        mesh = qm.generate_petal_cable(1.0, [(0.0, 0.0)], 0.3, 2)
        mmap = materials.MaterialMap({"matrix": materials.linear(1.0)})
        nodes, values = disk_profile(mesh, lambda x, y: x)
        with pytest.raises(KeyError, match="no material for region "
                                           "'inclusion-1'"):
            solver.lambda_sweep(mesh, mmap, (nodes, values),
                                np.array([1.0, 0.1]), "pec")

    def test_petals_that_share_a_model_are_checked_once(self):
        # the six petals' one linear model warns once for each petal
        mesh = cable_mesh(3)
        mmap = cable_materials(mesh, petal=materials.linear(1e8))
        f = solver.linear_profile(mesh, 1e-3 / CABLE_RADIUS)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            solver.lambda_sweep(mesh, mmap, f, np.array([1.0, 0.1]), "pec")
        assert [str(w.message).split("'")[1] for w in caught] == [
            f"inclusion-{k}" for k in range(1, 7)]
        assert all("perfect-conductor limit may not apply" in str(w.message)
                   for w in caught)

    @pytest.mark.parametrize(
        "grid",
        [
            np.array([1.0, 2.0]),
            np.array([1.0, -0.5]),
            np.array([]),
            np.array([[1.0, 0.1]]),
        ],
        ids=["increasing", "nonpositive", "empty", "not-1d"],
    )
    def test_rejects_bad_grids(self, holed_disk, grid):
        nodes, values = disk_profile(holed_disk, lambda x, y: x)
        mmap = materials.MaterialMap({"matrix": materials.linear(1.0)})
        with pytest.raises(ValueError):
            solver.lambda_sweep(holed_disk, mmap, (nodes, values), grid, "pec")

    def test_rejects_unknown_limit_kind(self, disk3):
        nodes, values = disk_profile(disk3, lambda x, y: x)
        mmap = materials.MaterialMap({"matrix": materials.linear(1.0)})
        with pytest.raises(ValueError, match="limit_kind"):
            solver.lambda_sweep(
                disk3, mmap, (nodes, values), np.array([1.0, 0.1]), "dirichlet",
            )

    def test_rejects_nonzero_mean_profile(self, disk3):
        nodes = qm.outer_boundary_nodes(disk3)
        values = disk3.nodes[nodes, 0] + 0.5
        mmap = materials.MaterialMap({"matrix": materials.linear(1.0)})
        with pytest.raises(ValueError, match="zero weighted mean"):
            solver.lambda_sweep(
                disk3, mmap, (nodes, values), np.array([1.0, 0.1]), "pec",
            )

    def test_per_scale_failures_are_flagged_not_raised(self):
        mesh = cable_mesh(3)
        mmap = cable_materials(mesh)
        # amplitudes 6 V, 0.6 V and 60 mV: every point lies above the
        # petals' saturation, so a cold solve needs more than one step
        f = solver.linear_profile(mesh, 1e5)
        # the linear pec limit converges in one step even so
        starved = solver.NonlinearSolveConfig(max_picard_iter=1)
        grid = np.array([1e-1, 1e-2, 1e-3])
        sweep = solver.lambda_sweep(mesh, mmap, f, grid, "pec", config=starved)
        assert sweep.limit.iterations == 1
        assert not sweep.all_ok
        assert len(sweep.status) == 3
        assert all(s.startswith("error:") for s in sweep.status)
        assert np.all(np.isnan(sweep.e2))
        assert sweep.solutions == (None, None, None)

    def test_rows_match_the_csv_header(self, disk3):
        nodes, values = disk_profile(disk3, lambda x, y: x)
        mmap = materials.MaterialMap({"matrix": materials.linear(1.0)})
        grid = np.array([1.0, 0.1])
        sweep = solver.lambda_sweep(disk3, mmap, (nodes, values), grid, "pec")
        columns = sweep.columns()
        assert len(columns) == len(solver.LambdaSweep.CSV_HEADER)
        assert all(len(c) == 2 for c in columns)
        assert columns[0][0] == 1.0
        assert columns[4][1] == sweep.picard_iters[1]

    # Points of a sweep share their last linear solve: every point solves
    # the unit profile, so a step whose sigma equals it bit for bit takes
    # it as it is. The reference replays the sweep with every point solved
    # on its own, and since a linear solve is a fixed function of sigma,
    # it matches bit for bit.

    @staticmethod
    def unshared_sweep(monkeypatch, *args, **kwargs):
        """``lambda_sweep`` with each point's solve_nonlinear given a
        fresh last solve instead of the shared one: the same starts and
        lambdas, no reuse across points."""
        solve = solver.solve_nonlinear

        def alone(*a, _warm=None, **kw):
            # a renamed private keyword would pass the shared state on
            assert not any(key.startswith("_") for key in kw)
            if _warm is not None:  # a point; the limit solve takes none
                start, _, lam = _warm
                kw["_warm"] = (start, solver._LastSolve(), lam)
            return solve(*a, **kw)

        with monkeypatch.context() as patch:
            patch.setattr(solver, "solve_nonlinear", alone)
            return solver.lambda_sweep(*args, **kwargs)

    @staticmethod
    def saturated_cable_sweep(amplitude):
        # the README cable at amplitude x lambda: below 10 mV the petals
        # sit at sigma_cap, so points there share one sigma
        mesh = cable_mesh(3)
        mmap = cable_materials(mesh)
        f = solver.linear_profile(mesh, amplitude / CABLE_RADIUS)
        grid = solver.log_grid(1e-1, 1e-8, per_decade=1)
        return mesh, mmap, f, grid, "pec"

    @staticmethod
    def assert_bit_for_bit(sweep, ref):
        assert sweep.status == ref.status
        for got, want in zip(sweep.columns(), ref.columns()):
            assert np.array_equal(got, want, equal_nan=True)
        for got, want in zip(sweep.solutions, ref.solutions):
            assert (got is None) == (want is None)
            if got is not None:
                assert np.array_equal(got.nodal_potential,
                                      want.nodal_potential)
                assert got.energy == want.energy

    def test_points_that_share_sigma_rescale_the_last_solve(
            self, monkeypatch):
        solve = fem.solve_spd
        calls = []
        per_solve = []

        def counting(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        solve_nonlinear = solver.solve_nonlinear

        def counted(*args, **kwargs):
            before = len(calls)
            try:
                return solve_nonlinear(*args, **kwargs)
            finally:
                per_solve.append(len(calls) - before)

        monkeypatch.setattr(fem, "solve_spd", counting)
        monkeypatch.setattr(solver, "solve_nonlinear", counted)
        # 1 mV x lambda: every point lies below saturation
        sweep = solver.lambda_sweep(*self.saturated_cable_sweep(1e-3))
        assert sweep.all_ok and len(sweep.lambdas) == 8
        assert np.array_equal(sweep.picard_iters, [1] * 8)
        # the limit, the first point (its small-data start), then none
        assert per_solve == [1, 1] + [0] * 7

    def test_rescaled_points_compute_one_field_and_one_energy(
            self, monkeypatch):
        counts = {"field": 0, "energy": 0}
        per_solve = []

        def counted(fn, key):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        solve_nonlinear = solver.solve_nonlinear

        def per_point(*args, **kwargs):
            before = dict(counts)
            try:
                return solve_nonlinear(*args, **kwargs)
            finally:
                per_solve.append((counts["field"] - before["field"],
                                  counts["energy"] - before["energy"]))

        monkeypatch.setattr(fem, "element_gradients",
                            counted(fem.element_gradients, "field"))
        monkeypatch.setattr(fem, "dirichlet_energy",
                            counted(fem.dirichlet_energy, "energy"))
        monkeypatch.setattr(solver, "solve_nonlinear", per_point)
        # 1 mV x lambda: every point lies below saturation
        sweep = solver.lambda_sweep(*self.saturated_cable_sweep(1e-3))
        assert sweep.all_ok
        # the limit and the first point solve; every later point starts on
        # the last point's solution, which its first step's lookup returns,
        # and keeps it
        assert per_solve == [(1, 1)] * 9

    def test_rescaled_solves_agree_with_unshared_points(self, monkeypatch):
        # 1 V x lambda: the first two points move sigma, the rest share it
        args = self.saturated_cable_sweep(1.0)
        solve = fem.solve_spd
        calls = []

        def counting(*a, **kw):
            calls.append(a)
            return solve(*a, **kw)

        monkeypatch.setattr(fem, "solve_spd", counting)
        sweep = solver.lambda_sweep(*args)
        shared = len(calls)
        ref = self.unshared_sweep(monkeypatch, *args)
        # the reference solves what the sweep reuses
        assert len(calls) - shared > shared
        assert sweep.all_ok
        self.assert_bit_for_bit(sweep, ref)

    def test_moving_sigma_matches_unshared_points_bit_for_bit(
            self, holed_disk, monkeypatch):
        mmap = materials.MaterialMap(
            {"matrix": materials.weighted_power(2.0, 2.0),
             "inclusion-1": materials.weighted_power(1.0, 1.5)})
        nodes, values = disk_profile(holed_disk, lambda x, y: x)
        grid = solver.log_grid(1.0, 1e-7, per_decade=1)
        args = (holed_disk, mmap, (nodes, values), grid, "pec")
        sweep = solver.lambda_sweep(*args)
        ref = self.unshared_sweep(monkeypatch, *args)
        assert len(grid) == 8 and sweep.all_ok
        self.assert_bit_for_bit(sweep, ref)

    def test_points_match_plain_solves_of_the_scaled_data(self):
        # each point is the normalized solution: a cold solve at data
        # lam*f, divided by lam, up to the Picard and CG tolerances
        mesh, mmap, (nodes, values), _, kind = self.saturated_cable_sweep(1.0)
        grid = solver.log_grid(1e-1, 1e-6, per_decade=2)
        sweep = solver.lambda_sweep(mesh, mmap, (nodes, values), grid, kind)
        assert sweep.all_ok
        for lam, sol in zip(grid, sweep.solutions):
            plain = solver.solve_nonlinear(mesh, mmap, (nodes, lam * values))
            want = plain.nodal_potential / lam
            assert (np.max(np.abs(sol.nodal_potential - want))
                    <= 1e-7 * np.max(np.abs(want)))
            assert abs(sol.energy - plain.energy) <= 1e-10 * plain.energy

    def test_failed_point_leaves_later_points_correct(self, monkeypatch):
        # one step per point: the 0.1 V point, above saturation, fails;
        # the later ones start cold and converge at once
        starved = solver.NonlinearSolveConfig(max_picard_iter=1)
        args = self.saturated_cable_sweep(1.0)
        sweep = solver.lambda_sweep(*args, config=starved)
        ref = self.unshared_sweep(monkeypatch, *args, config=starved)
        assert sweep.status[0].startswith("error:")
        assert sweep.status[1:] == ("ok",) * 7
        self.assert_bit_for_bit(sweep, ref)


class TestSharedAssembler:
    MAP = materials.MaterialMap({"matrix": materials.linear(1.0),
                                 "inclusion-1": materials.linear(5.0)})

    def test_same_solution_as_a_fresh_assembler(self, holed_disk):
        nodes, values = disk_profile(holed_disk, lambda x, y: x)
        asm = fem.Assembler(holed_disk, nodes)
        fresh = solver.solve_nonlinear(holed_disk, self.MAP, (nodes, values))
        for _ in range(2):
            shared = solver.solve_nonlinear(holed_disk, self.MAP,
                                            (nodes, values), assembler=asm)
            assert np.array_equal(shared.nodal_potential,
                                  fresh.nodal_potential)
            assert shared.energy == fresh.energy

    def test_rejects_an_assembler_of_another_problem(self, holed_disk):
        nodes, values = disk_profile(holed_disk, lambda x, y: x)
        twin = qm.generate_petal_cable(1.0, [(0.0, 0.0)], 0.3, 3)
        cases = [
            (fem.Assembler(twin, nodes), "another mesh"),
            (fem.Assembler(holed_disk, nodes[1:]), "another boundary node set"),
        ]
        for asm, what in cases:
            with pytest.raises(ValueError, match=what):
                solver.solve_nonlinear(holed_disk, self.MAP, (nodes, values),
                                       assembler=asm)

    @pytest.mark.parametrize("split, limit", [
        ({"pec_regions": ("inclusion-1",)}, "pec"),
        ({"excluded_regions": ("inclusion-1",)}, "pei")])
    def test_the_split_is_the_assemblers(self, holed_disk, split, limit):
        nodes, values = disk_profile(holed_disk, lambda x, y: x)
        asm = fem.Assembler(holed_disk, nodes, **split)
        sol = solver.solve_nonlinear(holed_disk, self.MAP, (nodes, values),
                                     assembler=asm)
        ref = solver.solve_limit(holed_disk, self.MAP, (nodes, values), limit)
        assert np.array_equal(sol.nodal_potential, ref.nodal_potential,
                              equal_nan=True)
        assert sol.energy == ref.energy

    def test_eight_point_pec_sweep_builds_two_assemblers(self, holed_disk,
                                                         monkeypatch):
        built = []

        class Counting(fem.Assembler):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(fem, "Assembler", Counting)
        mmap = materials.MaterialMap(
            {"matrix": materials.weighted_power(2.0, 2.0),
             "inclusion-1": materials.weighted_power(1.0, 1.5)})
        nodes, values = disk_profile(holed_disk, lambda x, y: x)
        grid = solver.log_grid(1.0, 1e-7, per_decade=1)
        sweep = solver.lambda_sweep(holed_disk, mmap, (nodes, values), grid,
                                    "pec")
        assert len(grid) == 8 and sweep.all_ok
        # the limit solve's, with the petal merged, and one for all points
        assert [a.pec_regions for a in built] == [("inclusion-1",), ()]


class TestProfilesAndGrids:
    def test_log_grid_shape(self):
        grid = solver.log_grid(1.0, 1e-2, per_decade=9)
        assert len(grid) == 19
        assert grid[0] == 1.0
        assert grid[-1] == pytest.approx(1e-2, rel=1e-12)
        assert np.all(np.diff(grid) < 0)

    def test_log_grid_rejects_bad_range(self):
        with pytest.raises(ValueError):
            solver.log_grid(1e-3, 1.0)

    def test_boundary_weights_sum_to_perimeter(self, disk3):
        nodes = qm.outer_boundary_nodes(disk3)
        w = solver.boundary_weights(disk3, nodes)
        assert np.all(w > 0)
        total = sum(
            np.linalg.norm(disk3.nodes[j] - disk3.nodes[i])
            for i, j, _ in disk3.boundary_edges
        )
        assert w.sum() == pytest.approx(total, rel=1e-12)
        assert w.sum() == pytest.approx(2.0 * np.pi, rel=1e-2)

    def test_linear_profile_has_zero_weighted_mean(self, disk3):
        nodes, values = solver.linear_profile(disk3, scale=3.0)
        assert np.array_equal(nodes, qm.outer_boundary_nodes(disk3))
        assert np.allclose(values, 3.0 * disk3.nodes[nodes, 0])
        w = solver.boundary_weights(disk3, nodes)
        assert abs(w @ values) <= 1e-10 * np.max(np.abs(values)) * w.sum()

    def test_violation_registry_round_trip(self):
        solver.record_violation("energy-descent", "probe", 1.5, "detail")
        assert solver.VIOLATIONS[-1]["kind"] == "energy-descent"
        assert solver.VIOLATIONS[-1]["magnitude"] == 1.5
        solver.clear_violations()
        assert solver.VIOLATIONS == []
