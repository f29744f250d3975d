"""End-to-end acceptance battery.

One test per headline guarantee of the package, each run at the
tolerance stated in the README. These are deliberately heavier than the
unit tests; together they exercise the full pipeline from meshing to
imaging on the reference cable geometry."""

import numpy as np
import pytest
from scipy.spatial import Delaunay

from qlert import cli, materials, oracle, solver, tomography as tomo
from qlert import mesh as qm

CABLE_RADIUS = 0.6e-3
PETAL_RADIUS = 0.12e-3
PETAL_RING = 0.35e-3
PETAL_CENTERS = [
    (PETAL_RING * np.cos(a), PETAL_RING * np.sin(a))
    for a in (np.arange(6) + 0.5) * np.pi / 3
]
SIGMA_MATRIX = 5.55e7
DEFECT_DROP = 1e-3
AMPLITUDE = 1e-3


def cable_mesh(refinement):
    return qm.generate_petal_cable(
        CABLE_RADIUS, PETAL_CENTERS, PETAL_RADIUS, refinement
    )


def cable_models(mesh):
    models = {"matrix": materials.linear(SIGMA_MATRIX)}
    for label in mesh.inclusion_regions():
        models[label] = materials.ej_power_law(8000e6, 27.0, 1e-4)
    return models


def x_profile(mesh, amplitude):
    radius = float(np.hypot(*mesh.nodes.T).max())
    return solver.linear_profile(mesh, scale=amplitude / radius)


@pytest.fixture(scope="module")
def imaging_setup():
    """Measurement geometry shared by the imaging tests: tagged cable,
    background conductance, and the full test-domain dictionary (the
    dominant cost, built once)."""
    mesh = qm.tag_electrodes(
        cable_mesh(3), qm.ElectrodeLayout(16, 0.5)
    )
    models = cable_models(mesh)
    defect_model = materials.linear(DEFECT_DROP * SIGMA_MATRIX)
    g_bg = tomo.ConductanceOperator(
        mesh, materials.MaterialMap(models), amplitude=AMPLITUDE,
        mode="pec-limit",
    ).background()
    domains = tomo.disc_test_domains(
        mesh, (0.05e-3, 0.08e-3), spacing=0.05e-3
    )
    tests = []
    for dom in domains:
        tm = qm.relabel_elements(mesh, dom.element_mask, "test-domain")
        g_t = tomo.ConductanceOperator(
            tm, materials.MaterialMap({**models, "test-domain": defect_model}),
            amplitude=AMPLITUDE, mode="pec-limit",
        ).background()
        tests.append((dom, g_t))
    return mesh, models, defect_model, g_bg, tests


def test_pec_limit_matches_annulus_closed_form():
    # conductor-replacement solve against the exact exterior field:
    # relative L2 error at the finest level and second-order decay
    rows = cli.annulus_validation([2, 3, 4], r=10.0)
    errors = [row[2] for row in rows]
    orders = [row[3] for row in rows[1:]]
    assert errors[-1] <= 1e-2, f"refinement-4 error {errors[-1]:.3e}"
    assert min(orders) >= 1.9, f"observed orders {orders}"


def test_energy_separation_ingredients():
    model = oracle.build_counterexample(11.0, 1.0, n_terms=8)
    L, ld, lp = model.L, model.lambda_double, model.lambda_prime

    # scale sequences: interleaved plateaus with an exact geometric ratio
    n = len(lp)
    assert np.all(L * ld[1:n + 1] < lp[:n])
    assert np.all(L * lp[:n] < ld[:n])
    assert np.max(np.abs(ld[1:] * (oracle.CSQ * L**2) / ld[:-1] - 1)) <= 1e-12
    assert np.max(np.abs(lp * (oracle.C2 * L) / ld[:n] - 1)) <= 1e-12

    # the oscillating density is continuous and convex at every breakpoint
    b = model.breakpoints()
    below, above = b * (1 - 1e-9), b * (1 + 1e-9)
    jump = np.abs(model.psi(above) - model.psi(below)) / model.psi(b)
    assert np.max(jump) <= 1e-6
    slope_below = model.sigma_psi(below) * below
    slope_above = model.sigma_psi(above) * above
    assert np.all(slope_above >= slope_below * (1 - 1e-12))

    # energy separation grows with the annulus and the gradient-band
    # ratio approaches one from below
    margins = []
    for r in (10.0, 20.0, 40.0):
        fields = oracle.annulus_fields(r)
        assert fields.ell1() < fields.ell2()
        margins.append(fields.ell2() - fields.ell1())
    assert margins[0] < margins[1] < margins[2]
    gaps = []
    for r in (10.0, 100.0, 1000.0):
        fields = oracle.annulus_fields(r)
        ratio = (fields.band_energy("v", "outer")
                 / fields.band_energy("w", "outer"))
        gaps.append(abs(ratio - 1.0))
    assert gaps[0] > gaps[1] > gaps[2]


def qhull_cable(mesh):
    """The Qhull triangulation of the cable's nodes, labelled by element
    centroid as the Qhull-based mesher did."""
    simplices = Delaunay(mesh.nodes).simplices
    cent = mesh.nodes[simplices].mean(axis=1)
    names = ["matrix"] + mesh.inclusion_regions()
    codes = np.zeros(len(simplices), dtype=np.int64)
    for k, (cx, cy) in enumerate(PETAL_CENTERS):
        codes[np.hypot(cent[:, 0] - cx, cent[:, 1] - cy) < PETAL_RADIUS] = k + 1
    return qm._make_mesh(mesh.nodes, simplices, np.array(names)[codes])


@pytest.mark.parametrize("refinement, amplitudes", [
    (3, (1e-3, 20e-3)), (5, (0.5e-3, 1e-3, 2e-3, 5e-3, 10e-3)), (6, (1e-3,)),
])
def test_stitch_moves_solves_by_rounding_only(refinement, amplitudes):
    # The stitch equals Qhull's triangulation up to cocircular ties, on
    # which constant-sigma element pairs have the same P1 stiffness. The
    # amplitudes stay below saturation, where a solve is one exact step;
    # above it (30 mV) the fixed-point iteration stops on its 1e-8 change,
    # which a rounding-level change can move by one step.
    mesh = cable_mesh(refinement)
    ref = qhull_cable(mesh)
    for amplitude in amplitudes:
        got, want = (
            solver.solve_nonlinear(m, materials.MaterialMap(cable_models(m)),
                                   x_profile(m, amplitude))
            for m in (mesh, ref))
        assert got.iterations == want.iterations
        assert abs(got.energy - want.energy) <= 1e-10 * abs(want.energy)
    layout = qm.ElectrodeLayout(16, 0.5)
    got, want = (
        tomo.ConductanceOperator(m, materials.MaterialMap(cable_models(m)),
                                 amplitude=AMPLITUDE, mode="pec-limit",
                                 ).background().matrix
        for m in (qm.tag_electrodes(mesh, layout), qm.tag_electrodes(ref, layout)))
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_cable_limit_error_decays_with_excitation():
    # reference cable, conductor-limit error against excitation scale:
    # both error norms nonincreasing, one order of magnitude between
    # 10 mV-scale and uV-scale excitation
    mesh = cable_mesh(3)
    mmap = materials.MaterialMap(cable_models(mesh))
    f = x_profile(mesh, 1.0)
    grid = solver.log_grid(1e-1, 1e-8, per_decade=1)
    sweep = solver.lambda_sweep(mesh, mmap, f, grid, "pec")
    assert sweep.all_ok, sweep.status
    at = {lam: k for k, lam in enumerate(np.round(np.log10(sweep.lambdas)))}
    e2_coarse, e2_fine = sweep.e2[at[-2.0]], sweep.e2[at[-6.0]]
    worst_rise_e2 = float(np.max(np.diff(sweep.e2)))
    worst_rise_einf = float(np.max(np.diff(sweep.einf)))
    assert (worst_rise_e2 <= 0 and worst_rise_einf <= 0
            and e2_fine <= e2_coarse / 10.0), (
        f"e2 = {np.array2string(sweep.e2, precision=3)}; "
        f"worst e2 rise {worst_rise_e2:.2e}, worst einf rise "
        f"{worst_rise_einf:.2e} (needed <= 0); e2(1e-6 V) = {e2_fine:.3e} "
        f"vs e2(1e-2 V)/10 = {e2_coarse / 10:.3e} (needed <=)"
    )


def test_quadratic_material_scale_invariance():
    mesh = qm.generate_disk(1.0, 3)
    mmap = materials.MaterialMap({"matrix": materials.weighted_power(2.0, 2.0)})
    nodes = qm.outer_boundary_nodes(mesh)
    f = (nodes, mesh.nodes[nodes, 0] ** 2 - mesh.nodes[nodes, 1] ** 2)
    grid = solver.log_grid(1.0, 1e-4, per_decade=1)
    sweep = solver.lambda_sweep(mesh, mmap, f, grid, "pec")
    assert sweep.all_ok
    assert np.max(sweep.e2) <= 1e-9, f"e2 = {sweep.e2}"
    assert np.max(sweep.einf) <= 1e-9, f"einf = {sweep.einf}"


def test_nested_defects_yield_ordered_conductance():
    # conductivity drop on a larger region can only lower the measured
    # conductance: G_small - G_large stays positive semidefinite
    mesh = qm.tag_electrodes(
        qm.generate_disk(1.0, 3), qm.ElectrodeLayout(8, 0.5)
    )
    matrix = materials.linear(1.0)
    low = materials.linear(DEFECT_DROP)
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 5:
        angle = rng.uniform(0.0, 2 * np.pi)
        rc = rng.uniform(0.0, 0.4)
        center = (rc * np.cos(angle), rc * np.sin(angle))
        r1 = rng.uniform(0.12, 0.22)
        r2 = r1 + rng.uniform(0.1, 0.2)
        inner, m1 = tomo.disc_defect(mesh, center, r1)
        outer, m2 = tomo.disc_defect(mesh, center, r2)
        if not (m2 & ~m1).any():
            continue
        assert np.all(m2[m1])
        pair = []
        for dmesh in (inner, outer):
            pair.append(tomo.conductance_matrix(
                dmesh,
                materials.MaterialMap({"matrix": matrix, "defect-1": low}),
                amplitude=1.0,
            ))
        scale = np.abs(pair[0].matrix).max()
        low_eig = tomo.symmetric_eigenvalues(
            pair[0].matrix - pair[1].matrix)[0]
        assert low_eig >= -10 * 1e-10 * scale, (
            f"pair {checked}: min eigenvalue {low_eig:.3e}"
        )
        checked += 1


def test_noisy_reconstruction_upper_bounds_defect(imaging_setup):
    mesh, models, defect_model, g_bg, tests = imaging_setup
    centroids = qm.element_centroids(mesh)
    in_matrix = mesh.element_region == "matrix"

    def disc_union(discs):
        mask = np.zeros(mesh.element_count, dtype=bool)
        for (cx, cy), radius in discs:
            d = np.hypot(centroids[:, 0] - cx, centroids[:, 1] - cy)
            mask |= (d <= radius) & in_matrix
        return mask

    scenarios = {
        "center": [((0.0, 0.0), 0.16e-3)],
        "between-petals": [((0.225e-3, 0.39e-3), 0.11e-3)],
        "two-gaps": [((0.45e-3, 0.0), 0.10e-3), ((-0.45e-3, 0.0), 0.10e-3)],
    }
    psd_tol = 1e-9 * float(np.abs(g_bg.matrix).max())
    failures = []
    for name, discs in scenarios.items():
        vmask = disc_union(discs)
        assert vmask.sum() >= 10, f"{name}: defect too small to resolve"
        dmesh = qm.relabel_elements(mesh, vmask, "defect-1")
        g_v = tomo.ConductanceOperator(
            dmesh, materials.MaterialMap({**models, "defect-1": defect_model}),
            amplitude=AMPLITUDE, mode="pec-limit",
        ).background()
        dg_max = float(np.abs(g_v.matrix - g_bg.matrix).max())
        for seed in (1, 2, 3):
            noise = tomo.goe_noise(g_v.size, 0.01, dg_max, seed=seed)
            measured = tomo.ConductanceMatrix(g_v.matrix + noise,
                                              g_v.electrode_ids)
            rec = tomo.mpm_reconstruct(
                measured, tests, tomo.spectral_norm(noise), tol=psd_tol
            )
            missed = int((vmask & ~rec.union_mask).sum())
            if missed:
                failures.append(f"{name} seed {seed}: {missed} elements "
                                "of the defect left uncovered")
    assert not failures, "; ".join(failures)


def test_field_perpendicular_to_superconducting_petals():
    # small-signal solve: the field outside each petal meets its rim at
    # a right angle, up to the solver's own noise floor at the dipole
    # stagnation points
    mesh = cable_mesh(4)
    mmap = materials.MaterialMap(cable_models(mesh))
    nodes, values = x_profile(mesh, 1e-6)
    sol = solver.solve_nonlinear(mesh, mmap, (nodes, values))
    span = float(values.max() - values.min())
    grad = sol.element_gradient
    for label in mesh.inclusion_regions():
        edges, _, outside = qm.region_interface_edges(mesh, label)
        d = mesh.nodes[edges[:, 1]] - mesh.nodes[edges[:, 0]]
        lengths = np.hypot(d[:, 0], d[:, 1])
        du = sol.nodal_potential[edges[:, 1]] - sol.nodal_potential[edges[:, 0]]
        tangential = np.abs(du) / lengths
        magnitude = np.hypot(grad[outside, 0], grad[outside, 1])
        floor = 10.0 * 1e-8 * span / lengths
        ok = tangential <= 0.05 * magnitude + floor
        assert ok.all(), (
            f"{label}: worst tangential/|E| = "
            f"{np.max(tangential / np.maximum(magnitude, 1e-300)):.3e}"
        )


def test_monitor_battery_logs_no_violations():
    # a spread of solve kinds: each files energy-descent and
    # maximum-principle breaches into the registry if they occur
    solver.clear_violations()
    disk = qm.generate_disk(1.0, 3)
    nodes = qm.outer_boundary_nodes(disk)
    x = disk.nodes[nodes, 0]
    # the superlinear fixed point contracts slowly; give it headroom
    budget = solver.NonlinearSolveConfig(max_picard_iter=1000)

    for p in (1.5, 2.0, 3.0):
        mmap = materials.MaterialMap({"matrix": materials.weighted_power(2.0, p)})
        solver.solve_nonlinear(disk, mmap, (nodes, x**3), budget,
                               context=f"battery-p{p}")

    cable = cable_mesh(2)
    cmap = materials.MaterialMap(cable_models(cable))
    f = x_profile(cable, AMPLITUDE)
    solver.solve_nonlinear(cable, cmap, f, context="battery-cable")
    solver.solve_limit(cable, cmap, f, "pec")
    solver.solve_limit(cable, cmap, f, "pei")

    holed = qm.generate_petal_cable(1.0, [(0.3, -0.2)], 0.25, 3)
    hmap = materials.MaterialMap({"matrix": materials.linear(2.0)})
    hnodes = qm.outer_boundary_nodes(holed)
    hx = holed.nodes[hnodes, 0]
    solver.solve_limit(holed, hmap, (hnodes, hx), "pec")
    solver.solve_limit(holed, hmap, (hnodes, hx), "pei")

    assert solver.VIOLATIONS == [], solver.VIOLATIONS
