"""Conductance matrices, eigen tools, noise model, and imaging tests."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from qlert import cli, fem, materials, solver, tomography as tomo
from qlert import mesh as qm
from test_cli import cable_tomo_config

SIGMA_BG = 5.55e7


@pytest.fixture(scope="module")
def tagged_disk():
    mesh = qm.generate_disk(1.0, 3)
    return qm.tag_electrodes(mesh, qm.ElectrodeLayout(8, 0.5))


@pytest.fixture(scope="module")
def tagged_cable():
    centers = [
        (0.35e-3 * np.cos(a), 0.35e-3 * np.sin(a))
        for a in (np.arange(6) + 0.5) * np.pi / 3
    ]
    mesh = qm.generate_petal_cable(0.6e-3, centers, 0.12e-3, 3)
    return qm.tag_electrodes(mesh, qm.ElectrodeLayout(16, 0.5))


def cable_map(mesh, **extra):
    models = {"matrix": materials.linear(SIGMA_BG)}
    for label in mesh.inclusion_regions():
        models[label] = materials.ej_power_law(8000e6, 27, 1e-4)
    models.update(extra)
    return materials.MaterialMap(models)


def fake_g(matrix, ids=None):
    matrix = np.asarray(matrix, dtype=float)
    ids = tuple(range(matrix.shape[0])) if ids is None else ids
    return tomo.ConductanceMatrix(matrix, ids)


class TestConductanceMatrix:
    def test_disk_four_electrodes_nearly_circulant(self):
        # the disk triangulation is only approximately rotation
        # symmetric (ring transitions), so this holds at mesh accuracy
        mesh = qm.tag_electrodes(
            qm.generate_disk(1.0, 3), qm.ElectrodeLayout(4, 0.5)
        )
        mmap = materials.MaterialMap({"matrix": materials.linear(2.0)})
        g = tomo.ConductanceOperator(mesh, mmap, amplitude=1.0,
                                     mode="nonlinear").background()
        m = g.matrix
        scale = np.abs(m).max()
        for i in range(4):
            for j in range(4):
                assert abs(m[i, j] - m[(i + 1) % 4, (j + 1) % 4]) <= 1e-2 * scale

    def test_annulus_four_electrodes_exactly_circulant(self):
        # this triangulation is invariant under one angular pitch
        mesh = qm.tag_electrodes(
            qm.generate_annulus(0.5, 1.0, 3), qm.ElectrodeLayout(4, 0.5)
        )
        mmap = materials.MaterialMap({"matrix": materials.linear(2.0)})
        g = tomo.ConductanceOperator(mesh, mmap, amplitude=1.0,
                                     mode="nonlinear").background()
        m = g.matrix
        scale = np.abs(m).max()
        for i in range(4):
            for j in range(4):
                assert abs(m[i, j] - m[(i + 1) % 4, (j + 1) % 4]) <= 1e-12 * scale

    def test_conductivity_scale_carries_through_exactly(self, tagged_disk):
        one = tomo.ConductanceOperator(
            tagged_disk, materials.MaterialMap({"matrix": materials.linear(2.0)}),
            amplitude=1.0, mode="nonlinear",
        ).background()
        four = tomo.ConductanceOperator(
            tagged_disk, materials.MaterialMap({"matrix": materials.linear(8.0)}),
            amplitude=1.0, mode="nonlinear",
        ).background()
        assert np.array_equal(four.matrix, 4.0 * one.matrix)

    def test_symmetry_row_sums_and_reciprocity(self, tagged_disk):
        mmap = materials.MaterialMap({"matrix": materials.linear(3.0)})
        g = tomo.conductance_matrix(tagged_disk, mmap, amplitude=1.0)
        m = g.matrix
        scale = np.abs(m).max()
        assert np.array_equal(m, m.T)
        assert np.abs(m.sum(axis=1)).max() <= 1e-9 * scale
        assert g.asymmetry <= 1e-9

    def test_nonlinear_reciprocity_within_picard_tolerance(self, tagged_cable):
        g = tomo.ConductanceOperator(
            tagged_cable, cable_map(tagged_cable), amplitude=1e-3,
            mode="nonlinear",
        ).background()
        assert g.asymmetry <= 1e-8

    def test_limit_and_nonlinear_pipelines_agree_at_small_data(self, tagged_cable):
        mmap = cable_map(tagged_cable)
        gp = tomo.ConductanceOperator(
            tagged_cable, mmap, amplitude=1e-6, mode="pec-limit"
        ).background()
        gn = tomo.ConductanceOperator(
            tagged_cable, mmap, amplitude=1e-6, mode="nonlinear"
        ).background()
        rel = np.linalg.norm(gp.matrix - gn.matrix) / np.linalg.norm(gp.matrix)
        assert rel <= 1e-2

    def test_pattern_constant_shift_changes_no_current(self, tagged_disk):
        electrodes = qm.electrode_nodes(tagged_disk)
        all_nodes = np.concatenate([electrodes[i] for i in sorted(electrodes)])
        pattern = np.where(np.isin(all_nodes, electrodes[0]), 1.0, -1.0 / 7.0)
        sigma = np.ones(tagged_disk.element_count)

        def currents(values):
            asm = fem.Assembler(tagged_disk, all_nodes)
            values = values[np.argsort(all_nodes)]
            res = fem.solve_spd(asm.assemble(sigma, values), tol=1e-12)
            u = asm.expand(res.x, values)
            return (asm.raw_matrix(sigma) @ u)[all_nodes]

        drift = currents(pattern + 5.0) - currents(pattern)
        assert np.abs(drift).max() <= 1e-9 * np.abs(currents(pattern)).max()

    def test_rejects_bad_amplitude_mode_and_untagged_mesh(self, tagged_disk):
        mmap = materials.MaterialMap({"matrix": materials.linear(1.0)})
        with pytest.raises(ValueError, match="amplitude"):
            tomo.conductance_matrix(tagged_disk, mmap, amplitude=0.0)
        with pytest.raises(ValueError, match="mode"):
            tomo.ConductanceOperator(tagged_disk, mmap, mode="impedance")
        with pytest.raises(ValueError, match="electrode"):
            tomo.conductance_matrix(qm.generate_disk(1.0, 2), mmap)


class TestEigenTools:
    def test_identity_is_psd(self):
        low = tomo.symmetric_eigenvalues(np.eye(3))[0]
        assert low >= 0.0
        assert low == pytest.approx(1.0, abs=1e-14)

    def test_indefinite_diagonal(self):
        low = tomo.symmetric_eigenvalues(np.diag([1.0, -2.0]))[0]
        assert low < 0.0
        assert low == pytest.approx(-2.0, abs=1e-14)

    def test_tridiagonal_minimum(self):
        m = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
        low = tomo.symmetric_eigenvalues(m)[0]
        assert low == pytest.approx(2.0 - np.sqrt(2.0), rel=1e-12)

    @pytest.mark.parametrize("n", [2, 7, 16, 33])
    def test_matches_lapack_on_random_matrices(self, n):
        rng = np.random.default_rng(n)
        a = rng.normal(size=(n, n))
        a = a + a.T
        mine = tomo.symmetric_eigenvalues(a)
        ref = np.linalg.eigvalsh(a)
        assert np.allclose(mine, ref, atol=1e-11 * np.abs(ref).max())

    def test_spectral_norm_is_largest_magnitude(self):
        a = np.diag([3.0, -5.0, 1.0])
        assert tomo.spectral_norm(a) == pytest.approx(5.0, abs=1e-13)

    def test_one_by_one(self):
        low = tomo.symmetric_eigenvalues(np.array([[-4.0]]))[0]
        assert low == -4.0

    def test_rejects_asymmetric_and_bad_tol(self):
        with pytest.raises(ValueError, match="symmetric"):
            tomo.symmetric_eigenvalues(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="square"):
            tomo.symmetric_eigenvalues(np.ones((2, 3)))
        # the semidefinite test's tolerance is mpm_reconstruct's
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            tomo.mpm_reconstruct(None, [], 0.0, tol=-1.0)


class TestStackedEigenvalues:
    def test_stack_equals_per_matrix_calls(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(2, 3, 7, 7))
        a = a + np.swapaxes(a, -1, -2)
        stacked = tomo.symmetric_eigenvalues(a)
        assert stacked.shape == (2, 3, 7)
        for i in np.ndindex(2, 3):
            assert np.array_equal(stacked[i], tomo.symmetric_eigenvalues(a[i]))

    def test_rejects_a_stack_with_one_asymmetric_member(self):
        # the tolerance is relative to each matrix's own largest entry: a
        # skew of 1e-6 is within 1e-8 of the large matrix but not of the
        # small one
        big, small = 1e3 * np.eye(3), np.eye(3)
        big[0, 1] += 1e-6
        small[0, 1] += 1e-6
        assert tomo.symmetric_eigenvalues(np.stack([big, big])).shape == (2, 3)
        with pytest.raises(ValueError, match=r"\[1\] is not symmetric"):
            tomo.symmetric_eigenvalues(np.stack([big, small, big]))
        with pytest.raises(ValueError, match="square"):
            tomo.symmetric_eigenvalues(np.ones((2, 2, 3)))


class TestGoeNoise:
    def test_zero_level_gives_zero_matrix(self):
        assert np.all(tomo.goe_noise(8, 0.0, 5.0, seed=1) == 0.0)

    def test_seed_determinism_and_symmetry(self):
        a = tomo.goe_noise(12, 0.5, 2.0, seed=7)
        b = tomo.goe_noise(12, 0.5, 2.0, seed=7)
        c = tomo.goe_noise(12, 0.5, 2.0, seed=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert np.array_equal(a, a.T)

    def test_ensemble_statistics(self):
        a = tomo.goe_noise(1000, 1.0, 1.0, seed=42)
        iu = np.triu_indices(1000, k=1)
        assert abs(a[iu].var() - 1.0) <= 0.05
        assert abs(np.diag(a).var() - 2.0) <= 0.2

    def test_scaling_by_level_and_contrast(self):
        a = tomo.goe_noise(6, 1.0, 1.0, seed=3)
        b = tomo.goe_noise(6, 0.25, 2.0, seed=3)
        assert np.allclose(b, 0.5 * a, rtol=1e-15)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            tomo.goe_noise(0, 0.1, 1.0, seed=1)
        with pytest.raises(ValueError):
            tomo.goe_noise(4, -0.1, 1.0, seed=1)


class TestScenarios:
    def test_disc_defect_lands_in_matrix(self, tagged_cable):
        mesh, mask = tomo.disc_defect(tagged_cable, (0.0, 0.0), 0.15e-3)
        assert mask.sum() > 0
        assert mesh.defect_regions() == ["defect-1"]
        assert np.all(tagged_cable.element_region[mask] == "matrix")
        assert np.array_equal(mesh.region_mask("defect-1"), mask)

    def test_dictionary_masks_live_in_the_matrix(self, tagged_cable):
        doms = tomo.disc_test_domains(tagged_cable, 0.1e-3, spacing=0.2e-3)
        assert len(doms) > 4
        ids = [d.id for d in doms]
        assert len(set(ids)) == len(ids)
        seen = set()
        for d in doms:
            assert np.all(tagged_cable.element_region[d.element_mask] == "matrix")
            key = d.element_mask.tobytes()
            assert key not in seen
            seen.add(key)

    def test_two_radii_dictionary_is_larger(self, tagged_disk):
        one = tomo.disc_test_domains(tagged_disk, 0.3)
        two = tomo.disc_test_domains(tagged_disk, (0.3, 0.5))
        assert len(two) > len(one)

    @pytest.mark.parametrize("mesh_name, radii, spacing", [
        ("tagged_disk", (0.3, 0.5), None),
        ("tagged_cable", (0.05e-3, 0.08e-3), 0.05e-3),
    ])
    def test_grid_equals_the_per_point_loop(self, mesh_name, radii, spacing,
                                            request):
        mesh = request.getfixturevalue(mesh_name)
        got = tomo.disc_test_domains(mesh, radii, spacing=spacing)
        want = looped_disc_test_domains(mesh, radii, spacing)
        assert len(got) == len(want)
        for d, w in zip(got, want):
            assert (d.id, d.center, d.radius) == (w.id, w.center, w.radius)
            assert np.array_equal(d.element_mask, w.element_mask), d.id

    def test_duplicate_masks_are_dropped(self, tagged_disk):
        # discs of 0.1 on a 0.02 grid: neighbouring centres often cover the
        # same elements, and only the first of each mask is kept
        got = tomo.disc_test_domains(tagged_disk, (0.1, 0.12), spacing=0.02)
        want = looped_disc_test_domains(tagged_disk, (0.1, 0.12), 0.02)
        masks = [d.element_mask.tobytes() for d in got]
        assert len(set(masks)) == len(masks)
        c = qm.element_centroids(tagged_disk)
        in_matrix = tagged_disk.element_region == "matrix"
        grid = np.arange(-1.0 + 0.01, 1.0, 0.02)
        overlapping = sum(
            int(((np.hypot(c[:, 0] - grid[:, None], c[:, 1] - y) <= r)
                 & in_matrix).any(axis=1).sum())
            for r in (0.1, 0.12) for y in grid)
        assert len(got) < overlapping / 2  # most grid points repeat a mask
        assert len(got) == len(want)
        for d, w in zip(got, want):
            assert (d.id, d.center, d.radius) == (w.id, w.center, w.radius)
            assert np.array_equal(d.element_mask, w.element_mask), d.id

    def test_rejects_bad_geometry(self, tagged_disk):
        with pytest.raises(ValueError):
            tomo.disc_test_domains(tagged_disk, -0.1)
        with pytest.raises(ValueError):
            tomo.disc_test_domains(tagged_disk, 0.3, spacing=0.0)
        # a spacing wider than the mesh leaves an empty grid of centers
        with pytest.raises(ValueError, match="no disc center"):
            tomo.disc_test_domains(tagged_disk, 0.3, spacing=10.0)
        with pytest.raises(ValueError):
            tomo.TestDomain("empty", np.zeros(5, bool), (0.0, 0.0), 1.0)


def looped_disc_test_domains(mesh, radii, spacing):
    """``disc_test_domains`` as it was written before its grid became one
    broadcast: one distance per grid point, radius by radius."""
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    step = float(spacing) if spacing is not None else float(radii.min())
    c = qm.element_centroids(mesh)
    in_matrix = mesh.element_region == "matrix"
    lo, hi = mesh.nodes.min(axis=0), mesh.nodes.max(axis=0)
    out, seen = [], set()
    for r in radii:
        for y in np.arange(lo[1] + step / 2, hi[1], step):
            for x in np.arange(lo[0] + step / 2, hi[0], step):
                mask = (np.hypot(c[:, 0] - x, c[:, 1] - y) <= r) & in_matrix
                if mask.any() and mask.tobytes() not in seen:
                    seen.add(mask.tobytes())
                    out.append(tomo.TestDomain(
                        id=f"disc-{len(out)}", element_mask=mask,
                        center=(float(x), float(y)), radius=float(r)))
    return out


class TestMonotonicity:
    def test_nested_defects_order_the_matrices(self, tagged_disk):
        mmap = materials.MaterialMap({"matrix": materials.linear(1.0)})
        inner, m1 = tomo.disc_defect(tagged_disk, (0.3, 0.0), 0.2)
        outer, m2 = tomo.disc_defect(tagged_disk, (0.3, 0.0), 0.4)
        assert np.all(m2[m1])
        low = materials.linear(1e-3)
        g1 = tomo.conductance_matrix(
            inner, materials.MaterialMap({"matrix": materials.linear(1.0),
                                          "defect-1": low}),
            amplitude=1.0,
        )
        g2 = tomo.conductance_matrix(
            outer, materials.MaterialMap({"matrix": materials.linear(1.0),
                                          "defect-1": low}),
            amplitude=1.0,
        )
        scale = np.abs(g1.matrix).max()
        min_eig = tomo.symmetric_eigenvalues(g1.matrix - g2.matrix)[0]
        assert min_eig >= -1e-9 * scale


class TestReconstruction:
    def test_huge_delta_accepts_everything(self):
        measured = fake_g(np.zeros((3, 3)))
        doms = [
            tomo.TestDomain(f"d{k}", np.arange(6) % 3 == k, (0.0, 0.0), 1.0)
            for k in range(3)
        ]
        tests = [(d, fake_g(np.diag([-5.0, 1.0, 1.0]))) for d in doms]
        rec = tomo.mpm_reconstruct(measured, tests, delta=1e6)
        assert rec.accepted == (0, 1, 2)
        assert np.all(rec.union_mask)

    def test_noiseless_true_defect_accepts_itself(self):
        g_v = fake_g([[2.0, -1.0], [-1.0, 2.0]])
        dom = tomo.TestDomain("v", np.array([True, False]), (0.0, 0.0), 1.0)
        rec = tomo.mpm_reconstruct(g_v, [(dom, g_v)], delta=0.0)
        assert rec.accepted == (0,)
        assert rec.min_eigenvalues[0] == pytest.approx(0.0, abs=1e-14)

    def test_acceptance_set_grows_with_delta(self):
        measured = fake_g(np.zeros((4, 4)))
        rng = np.random.default_rng(5)
        doms = []
        tests = []
        for k in range(6):
            a = rng.normal(size=(4, 4))
            doms.append(tomo.TestDomain(f"d{k}", np.arange(8) % 6 == k,
                                        (0.0, 0.0), 1.0))
            tests.append((doms[-1], fake_g(a + a.T)))
        sets = []
        for delta in (0.0, 1.0, 3.0, 10.0):
            rec = tomo.mpm_reconstruct(measured, tests, delta)
            sets.append(set(rec.accepted))
        for small, big in zip(sets, sets[1:]):
            assert small <= big

    def test_acceptance_matches_reported_eigenvalues(self):
        measured = fake_g(np.zeros((4, 4)))
        rng = np.random.default_rng(9)
        tests = []
        for k in range(5):
            a = rng.normal(size=(4, 4))
            dom = tomo.TestDomain(f"d{k}", np.arange(5) == k, (0.0, 0.0), 1.0)
            tests.append((dom, fake_g(a + a.T)))
        rec = tomo.mpm_reconstruct(measured, tests, delta=0.5, tol=1e-3)
        expected = tuple(np.flatnonzero(rec.min_eigenvalues >= -1e-3))
        assert rec.accepted == expected

    def test_all_ones_direction_is_deflated(self):
        # a deficit along the unobservable constant pattern must not
        # veto a domain; the undeflated value is kept for diagnosis
        m = 4
        g_t = fake_g(np.eye(m) - 2.0 * np.ones((m, m)) / m)
        measured = fake_g(np.zeros((m, m)))
        dom = tomo.TestDomain("d", np.array([True]), (0.0, 0.0), 1.0)
        rec = tomo.mpm_reconstruct(measured, [(dom, g_t)], delta=0.0)
        assert rec.accepted == (0,)
        assert rec.min_eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
        assert rec.raw_min_eigenvalues[0] == pytest.approx(-1.0, abs=1e-12)

    def test_rejects_inconsistent_inputs(self):
        measured = fake_g(np.zeros((3, 3)))
        dom = tomo.TestDomain("d", np.array([True, False]), (0.0, 0.0), 1.0)
        with pytest.raises(ValueError, match="electrodes"):
            tomo.mpm_reconstruct(measured, [(dom, fake_g(np.zeros((2, 2))))], 0.0)
        other = tomo.TestDomain("e", np.array([True, False, True]), (0.0, 0.0), 1.0)
        with pytest.raises(ValueError, match="different mesh"):
            tomo.mpm_reconstruct(
                measured,
                [(dom, fake_g(np.zeros((3, 3)))),
                 (other, fake_g(np.zeros((3, 3))))],
                0.0,
            )
        with pytest.raises(ValueError, match="delta"):
            tomo.mpm_reconstruct(measured, [(dom, fake_g(np.zeros((3, 3))))], -1.0)
        with pytest.raises(ValueError, match="test domain"):
            tomo.mpm_reconstruct(measured, [], 0.0)

    def test_imaging_round_trip_on_a_disk(self, tagged_disk):
        # compact end-to-end: carve a defect, measure with noise, image
        # it, and check the upper-bound property
        sigma0 = materials.linear(1.0)
        low = materials.linear(1e-3)
        g_bg = tomo.conductance_matrix(
            tagged_disk, materials.MaterialMap({"matrix": sigma0}), amplitude=1.0
        )
        dmesh, vmask = tomo.disc_defect(tagged_disk, (0.0, 0.0), 0.45)
        g_v = tomo.conductance_matrix(
            dmesh, materials.MaterialMap({"matrix": sigma0, "defect-1": low}),
            amplitude=1.0,
        )
        dg_max = float(np.abs(g_v.matrix - g_bg.matrix).max())
        noise = tomo.goe_noise(g_v.size, 0.01, dg_max, seed=2)
        delta = tomo.spectral_norm(noise)
        measured = tomo.ConductanceMatrix(g_v.matrix + noise,
                                          g_v.electrode_ids)
        tests = []
        for dom in tomo.disc_test_domains(tagged_disk, 0.2, spacing=0.2):
            tm = qm.relabel_elements(tagged_disk, dom.element_mask, "test-domain")
            g_t = tomo.conductance_matrix(
                tm, materials.MaterialMap({"matrix": sigma0, "test-domain": low}),
                amplitude=1.0,
            )
            tests.append((dom, g_t))
        scale = np.abs(g_bg.matrix).max()
        rec = tomo.mpm_reconstruct(measured, tests, delta, tol=1e-9 * scale)
        contained = [
            k for k, (d, _) in enumerate(tests)
            if not np.any(d.element_mask & ~vmask)
        ]
        assert len(contained) >= 3
        assert set(contained) <= set(rec.accepted)
        assert np.all(rec.union_mask[vmask])


def fixed_point_g(mesh, mmap, amplitude, pec_regions=()):
    """Conductance matrix built the replaced way: one fixed-point solve
    per pattern, currents read per electrode group, then symmetrized."""
    electrodes = qm.electrode_nodes(mesh)
    groups = [electrodes[i] for i in sorted(electrodes)]
    all_nodes = np.concatenate(groups)
    m = len(groups)
    asm = fem.Assembler(mesh, all_nodes, pec_regions=pec_regions)
    g = np.zeros((m, m))
    for j in range(m):
        values = np.full(len(all_nodes), -amplitude / m)
        values[np.isin(all_nodes, groups[j])] += amplitude
        sol = solver.solve_nonlinear(
            mesh, mmap, (all_nodes, values),
            assembler=fem.Assembler(mesh, all_nodes, pec_regions=pec_regions))
        e_mag = np.hypot(*sol.element_gradient.T)
        reactions = (asm.raw_matrix(mmap.sigma_elements(mesh, e_mag,
                                                        asm.kept_regions))
                     @ np.nan_to_num(sol.nodal_potential))
        g[:, j] = [reactions[gr].sum() for gr in groups]
    return 0.5 * (g + g.T)


@pytest.fixture
def counts(monkeypatch):
    calls = {"assemblers": 0, "fixed_point": 0}
    assembler, solve_nonlinear = fem.Assembler, solver.solve_nonlinear

    class CountingAssembler(assembler):
        def __init__(self, *args, **kwargs):
            calls["assemblers"] += 1
            super().__init__(*args, **kwargs)

    def counting_solve(*args, **kwargs):
        calls["fixed_point"] += 1
        return solve_nonlinear(*args, **kwargs)

    monkeypatch.setattr(fem, "Assembler", CountingAssembler)
    monkeypatch.setattr(solver, "solve_nonlinear", counting_solve)
    return calls


class TestDirectConductance:
    def test_cable_pec_limit_matches_fixed_point_path(self, tagged_cable):
        mmap = cable_map(tagged_cable)
        g = tomo.conductance_matrix(tagged_cable, mmap, amplitude=1e-3)
        ref = fixed_point_g(tagged_cable, mmap, 1e-3,
                            pec_regions=tagged_cable.inclusion_regions())
        assert np.abs(g.matrix - ref).max() <= 1e-10 * np.abs(ref).max()
        assert g.asymmetry <= 1e-12

    def test_disk_matches_fixed_point_path(self, tagged_disk):
        mmap = materials.MaterialMap({"matrix": materials.linear(3.0)})
        g = tomo.conductance_matrix(tagged_disk, mmap, amplitude=1.0)
        ref = fixed_point_g(tagged_disk, mmap, 1.0)
        assert np.abs(g.matrix - ref).max() <= 1e-10 * np.abs(ref).max()
        assert g.asymmetry <= 1e-12

    def test_nonlinear_readout_matches_group_sums(self, tagged_disk):
        mmap = materials.MaterialMap(
            {"matrix": materials.weighted_power(2.0, 1.5)})
        g = tomo.ConductanceOperator(tagged_disk, mmap, amplitude=1.0,
                                     mode="nonlinear").background()
        ref = fixed_point_g(tagged_disk, mmap, 1.0)
        assert np.abs(g.matrix - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("model", [materials.linear(2.0),
                                       materials.weighted_power(2.0, 2.0)])
    def test_field_independent_matrix_factors_once(self, tagged_disk, counts,
                                                   model):
        mmap = materials.MaterialMap({"matrix": model})
        g = tomo.ConductanceOperator(tagged_disk, mmap, amplitude=1.0,
                                     mode="nonlinear").background()
        assert counts == {"assemblers": 1, "fixed_point": 0}
        assert g.size == 8

    def test_ej_nonlinear_matrix_keeps_one_solve_per_pattern(self, tagged_cable,
                                                             counts):
        g = tomo.ConductanceOperator(tagged_cable, cable_map(tagged_cable),
                                     amplitude=1e-3,
                                     mode="nonlinear").background()
        assert counts["fixed_point"] == g.size == 16
        assert counts["assemblers"] == 1

    def test_direct_path_files_max_principle_breaches(self, tagged_disk,
                                                      monkeypatch):
        monkeypatch.setattr(solver, "MAX_PRINCIPLE_RTOL", -1.0)
        mmap = materials.MaterialMap({"matrix": materials.linear(1.0)})
        tomo.conductance_matrix(tagged_disk, mmap, amplitude=1.0)
        filed = list(solver.VIOLATIONS)
        solver.clear_violations()
        ids = sorted(qm.electrode_nodes(tagged_disk))
        assert [v["kind"] for v in filed] == ["max-principle"] * len(ids)
        assert [v["context"] for v in filed] == [
            f"conductance pattern {i}" for i in ids
        ]


def parent_direct_g(mesh, mmap, amplitude, pec_regions=()):
    """Conductance matrix built the replaced way for a field-independent
    map: one Assembler.factor solving all patterns, currents read
    through the electrode incidence matrix, then symmetrized."""
    electrodes = qm.electrode_nodes(mesh)
    ids = sorted(electrodes)
    groups = [electrodes[i] for i in ids]
    all_nodes = np.concatenate(groups)
    m = len(ids)
    owner = np.repeat(np.arange(m), [len(gr) for gr in groups])
    patterns = np.full((len(all_nodes), m), -amplitude / m)
    patterns[np.arange(len(all_nodes)), owner] += amplitude
    incidence = sparse.csr_matrix(
        (np.ones(len(all_nodes)), (owner, all_nodes)),
        shape=(m, mesh.node_count))
    active = sorted(set(np.unique(mesh.element_region)) - set(pec_regions))
    asm = fem.Assembler(mesh, all_nodes, pec_regions=pec_regions)
    sig = mmap.sigma_elements(mesh, np.zeros(mesh.element_count), active)
    bc = patterns[np.argsort(all_nodes)]
    lu, k_fd = asm.factor(sig)
    u = asm.expand(lu.solve(-k_fd @ bc), bc)
    g = incidence @ (asm.raw_matrix(sig) @ np.nan_to_num(u))
    return 0.5 * (g + g.T)


def refactored_g(mesh, models, mask, model, amplitude):
    """The test matrix by relabelling and a fresh conductance matrix."""
    tm = qm.relabel_elements(mesh, mask, "test-domain")
    mmap = materials.MaterialMap({**models, "test-domain": model})
    return tomo.conductance_matrix(tm, mmap, amplitude=amplitude)


def with_electrode_nodes(mesh, eid, nodes):
    """``mesh`` with ``nodes`` added to electrode ``eid``, each tagged
    through a zero-length boundary edge."""
    rows = [[node, node, eid] for node in nodes]
    return replace(mesh, boundary_edges=np.vstack([mesh.boundary_edges, rows]))


def replayed_matrix(op, mask, model):
    """The Woodbury update of one mask as ``ConductanceOperator.matrix``
    made it before dictionaries were batched: the mask's own K^-1
    columns in one ``lu.solve``, S and db summed by ``np.add.at``, the
    energy read from nodal potentials built by ``Assembler.expand``, and
    the matrix symmetrized on its own. Returns (matrix, those nodal
    potentials, one column per pattern)."""
    asm = op._asm
    elements = np.flatnonzero(mask)
    tri = op.mesh.elements[elements]
    delta = ((materials.sigma(model, 0.0) - op._sigma[elements])[:, None, None]
             * asm.element_stiffness(elements))
    dof = asm.node_dof[tri]
    dofs = np.unique(dof[dof >= 0])
    k = len(dofs)
    x, energy = op._x, 0.0
    if k:
        free = dof >= 0
        pos = np.searchsorted(dofs, dof)
        pair = free[:, :, None] & free[:, None, :]
        s = np.zeros((k, k))
        np.add.at(s, (np.broadcast_to(pos[:, :, None], pair.shape)[pair],
                      np.broadcast_to(pos[:, None, :], pair.shape)[pair]),
                  delta[pair])
        fixed = (dof == fem.FIXED)[:, None, :]
        push = -(delta * fixed) @ op._u[tri]
        db = np.zeros((k, push.shape[2]))
        np.add.at(db, pos[free], push[free])
        rhs = np.zeros((asm.n_free, k))
        rhs[dofs, np.arange(k)] = 1.0
        z = op._lu.solve(rhs)
        z_nn = z[dofs]
        c = np.linalg.solve(np.eye(k) + s @ z_nn, db - s @ x[dofs])
        x = x + z @ c
        energy = c.T @ z_nn @ c
    u = asm.expand(x, op._patterns)
    corner = u[tri]
    m = corner.shape[2]
    energy = energy + (corner.reshape(-1, m).T
                       @ (delta @ corner).reshape(-1, m))
    g = op._g + energy / op.amplitude
    scale = max(float(np.max(np.abs(g))), 1e-300)
    return tomo.ConductanceMatrix(
        matrix=0.5 * (g + g.T), electrode_ids=op._ids,
        asymmetry=float(np.max(np.abs(g - g.T))) / scale), u


def relative_gap(g, ref):
    return np.abs(g.matrix - ref.matrix).max() / np.abs(ref.matrix).max()


@pytest.fixture
def factorizations(monkeypatch):
    import scipy.sparse.linalg as spla

    calls = []
    splu = spla.splu

    def counting_splu(*args, **kwargs):
        calls.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    return calls


class TestConductanceOperator:
    LOW = materials.linear(1e-3 * SIGMA_BG)

    @pytest.fixture(scope="class")
    def cable_setup(self, tagged_cable):
        models = dict(cable_map(tagged_cable).models)
        op = tomo.ConductanceOperator(tagged_cable,
                                      materials.MaterialMap(models),
                                      amplitude=1e-3)
        domains = tomo.disc_test_domains(tagged_cable, 0.08e-3,
                                         spacing=0.1e-3)
        return models, op, domains

    def test_rejects_overlapping_electrodes(self, tagged_disk):
        # a node in two groups would be driven by two patterns at once
        mesh = with_electrode_nodes(
            tagged_disk, 1, qm.electrode_nodes(tagged_disk)[0][:1])
        with pytest.raises(ValueError, match="electrode node sets overlap"):
            tomo.ConductanceOperator(
                mesh, materials.MaterialMap({"matrix": materials.linear(1.0)}),
                amplitude=1.0)

    def test_cable_dictionary_matches_refactorization(self, tagged_cable,
                                                      cable_setup):
        models, op, domains = cable_setup
        electrode = np.zeros(tagged_cable.node_count, dtype=bool)
        for nodes in qm.electrode_nodes(tagged_cable).values():
            electrode[nodes] = True
        petal = np.isin(tagged_cable.element_region,
                        tagged_cable.inclusion_regions())
        in_petal = np.zeros(tagged_cable.node_count, dtype=bool)
        in_petal[tagged_cable.elements[petal]] = True
        touches_electrode = touches_petal = 0
        for dom in domains:
            nodes = tagged_cable.elements[dom.element_mask]
            touches_electrode += bool(electrode[nodes].any())
            touches_petal += bool(in_petal[nodes].any())
            g = op.matrix(dom.element_mask, self.LOW, dom.id)
            ref = refactored_g(tagged_cable, models, dom.element_mask,
                               self.LOW, 1e-3)
            assert relative_gap(g, ref) <= 1e-10, dom.id
            assert g.electrode_ids == ref.electrode_ids
            assert g.asymmetry <= 1e-12
        # the right-hand-side change and merged petal dofs both occur
        assert touches_electrode > 0 and touches_petal > 0

    def test_disk_dictionary_matches_refactorization(self, tagged_disk):
        models = {"matrix": materials.linear(1.0)}
        op = tomo.ConductanceOperator(tagged_disk,
                                      materials.MaterialMap(models),
                                      amplitude=1.0)
        low = materials.linear(1e-3)
        for dom in tomo.disc_test_domains(tagged_disk, 0.2, spacing=0.2):
            g = op.matrix(dom.element_mask, low, dom.id)
            ref = refactored_g(tagged_disk, models, dom.element_mask, low, 1.0)
            assert relative_gap(g, ref) <= 1e-10, dom.id

    def test_conductivity_increase(self, tagged_disk):
        models = {"matrix": materials.linear(1.0)}
        op = tomo.ConductanceOperator(tagged_disk,
                                      materials.MaterialMap(models),
                                      amplitude=1.0)
        high = materials.weighted_power(1e3, 2.0)
        for dom in tomo.disc_test_domains(tagged_disk, 0.3, spacing=0.4):
            g = op.matrix(dom.element_mask, high, dom.id)
            ref = refactored_g(tagged_disk, models, dom.element_mask, high,
                               1.0)
            assert relative_gap(g, ref) <= 1e-10, dom.id

    def test_element_without_free_dof(self, tagged_disk):
        # two extra electrodes on the corners of one interior element
        # leave that element no free dof: only the currents change
        electrodes = qm.electrode_nodes(tagged_disk)
        taken = np.concatenate(list(electrodes.values()))
        element = next(e for e, tri in enumerate(tagged_disk.elements)
                       if not np.isin(tri, taken).any())
        corners = np.sort(tagged_disk.elements[element])
        mesh = with_electrode_nodes(tagged_disk, len(electrodes), corners[:2])
        mesh = with_electrode_nodes(mesh, len(electrodes) + 1, corners[2:])
        mask = np.arange(mesh.element_count) == element
        models = {"matrix": materials.linear(1.0)}
        op = tomo.ConductanceOperator(mesh, materials.MaterialMap(models),
                                      amplitude=1.0)
        assert op.background().size == len(electrodes) + 2
        g = op.matrix(mask, materials.linear(1e-3), "corner-element")
        ref = refactored_g(mesh, models, mask, materials.linear(1e-3), 1.0)
        assert relative_gap(g, ref) <= 1e-10
        assert not np.array_equal(g.matrix, op.background().matrix)

    @pytest.mark.parametrize("mesh_name", ["tagged_disk", "tagged_cable"])
    def test_background_is_the_replaced_direct_matrix(self, mesh_name,
                                                      request):
        mesh = request.getfixturevalue(mesh_name)
        mmap = cable_map(mesh)
        pec = mesh.inclusion_regions()
        ref = parent_direct_g(mesh, mmap, 1e-3, pec_regions=pec)
        g = tomo.ConductanceOperator(mesh, mmap, amplitude=1e-3).background()
        assert np.array_equal(g.matrix, ref)
        via = tomo.conductance_matrix(mesh, mmap, amplitude=1e-3)
        assert np.array_equal(via.matrix, ref)

    def test_one_assembler_and_one_factorization_per_dictionary(
            self, tagged_disk, counts, factorizations):
        op = tomo.ConductanceOperator(
            tagged_disk, materials.MaterialMap({"matrix": materials.linear(1.0)}),
            amplitude=1.0)
        domains = tomo.disc_test_domains(tagged_disk, 0.2, spacing=0.2)
        for dom in domains:
            op.matrix(dom.element_mask, materials.linear(1e-3), dom.id)
        assert len(domains) > 10
        assert counts == {"assemblers": 1, "fixed_point": 0}
        assert len(factorizations) == 1

    @pytest.mark.parametrize("columns", [3, 20])
    def test_bounded_column_cache_gives_the_same_matrices(self, tagged_disk,
                                                          monkeypatch,
                                                          columns):
        # a domain here has 1 to 17 free dofs: a cache of 3 columns is
        # smaller than most (solved directly), one of 20 holds any one
        # domain and keeps evicting as the dictionary is walked twice
        mmap = materials.MaterialMap({"matrix": materials.linear(1.0)})
        low = materials.linear(1e-3)
        domains = tomo.disc_test_domains(tagged_disk, 0.2, spacing=0.2)
        full = tomo.ConductanceOperator(tagged_disk, mmap, amplitude=1.0)
        expected = [full.matrix(d.element_mask, low, d.id) for d in domains]
        n_free = full._asm.n_free
        monkeypatch.setattr(tomo._InverseColumns, "MAX_BYTES",
                            8 * n_free * columns)
        small = tomo.ConductanceOperator(tagged_disk, mmap, amplitude=1.0)
        for d, ref in zip(domains + domains[::-1], expected + expected[::-1]):
            assert relative_gap(small.matrix(d.element_mask, low, d.id),
                                ref) <= 1e-13, d.id

    def test_every_pattern_of_every_matrix_is_monitored(self, tagged_disk,
                                                        monkeypatch):
        op = tomo.ConductanceOperator(
            tagged_disk, materials.MaterialMap({"matrix": materials.linear(1.0)}),
            amplitude=1.0)
        solver.clear_violations()
        monkeypatch.setattr(solver, "MAX_PRINCIPLE_RTOL", -1.0)
        domains = tomo.disc_test_domains(tagged_disk, 0.4, spacing=0.6)
        for dom in domains:
            op.matrix(dom.element_mask, materials.linear(1e-3), dom.id)
        filed = list(solver.VIOLATIONS)
        solver.clear_violations()
        ids = sorted(qm.electrode_nodes(tagged_disk))
        assert [v["kind"] for v in filed] == ["max-principle"] * (
            len(ids) * len(domains))
        assert [v["context"] for v in filed] == [
            f"{dom.id} conductance pattern {i}" for dom in domains for i in ids
        ]

    def test_rejects_field_dependent_or_nonpositive_test_material(
            self, tagged_disk):
        op = tomo.ConductanceOperator(
            tagged_disk, materials.MaterialMap({"matrix": materials.linear(1.0)}),
            amplitude=1.0)
        dom = tomo.disc_test_domains(tagged_disk, 0.3)[3]
        with pytest.raises(ValueError, match=f"{dom.id}: .*field"):
            op.matrix(dom.element_mask, materials.weighted_power(1.0, 3.0),
                      dom.id)
        bad = materials.MaterialModel(theta=-1.0)
        with pytest.raises(ValueError, match=f"{dom.id}: .*positive"):
            op.matrix(dom.element_mask, bad, dom.id)
        with pytest.raises(ValueError, match=f"{dom.id}: mask"):
            op.matrix(np.zeros(tagged_disk.element_count, bool),
                      materials.linear(1.0), dom.id)

    def test_field_dependent_background_and_petal_masks(self, tagged_cable,
                                                        cable_setup):
        # a field-dependent map runs one fixed-point solve per pattern
        mmap = cable_map(tagged_cable)
        g = tomo.ConductanceOperator(tagged_cable, mmap, amplitude=1e-3,
                                     mode="nonlinear").background()
        ref = fixed_point_g(tagged_cable, mmap, 1e-3)
        assert np.abs(g.matrix - ref).max() <= 1e-14 * np.abs(ref).max()
        petal = tagged_cable.region_mask(tagged_cable.inclusion_regions()[0])
        # both paths share the perfect-conductor check
        op = tomo.ConductanceOperator(
            tagged_cable,
            cable_map(tagged_cable,
                      matrix=materials.weighted_power(SIGMA_BG, 1.95)),
            amplitude=1e-3)
        with pytest.raises(ValueError, match="petal-disc: .*conducting"):
            op.matrix(petal, self.LOW, "petal-disc")
        _, op, _ = cable_setup
        with pytest.raises(ValueError, match="petal-disc: .*conducting"):
            op.matrix(petal, self.LOW, "petal-disc")

    def test_fixed_point_matrices_name_their_matrix_in_monitors(
            self, monkeypatch):
        disk = qm.tag_electrodes(qm.generate_disk(1.0, 2),
                                 qm.ElectrodeLayout(4, 0.5))
        solver.clear_violations()
        monkeypatch.setattr(solver, "MAX_PRINCIPLE_RTOL", -1.0)
        op = tomo.ConductanceOperator(
            disk,
            materials.MaterialMap({"matrix": materials.weighted_power(1.0,
                                                                      1.5)}),
            amplitude=1.0, mode="nonlinear")
        domains = tomo.disc_test_domains(disk, 0.4, spacing=0.6)[:2]
        for dom in domains:
            op.matrix(dom.element_mask, materials.linear(1e-3), dom.id)
        filed = list(solver.VIOLATIONS)
        solver.clear_violations()
        ids = sorted(qm.electrode_nodes(disk))
        assert [v["kind"] for v in filed] == ["max-principle"] * (
            len(ids) * (len(domains) + 1))
        assert [v["context"] for v in filed] == [
            f"conductance pattern {i}" for i in ids] + [
            f"{dom.id} conductance pattern {i}" for dom in domains for i in ids
        ]

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 120),
           log_factor=st.floats(-3.0, 3.0))
    # breaches the maximum principle on patterns 2-5, by up to 4.3e-4
    @example(seed=1549191253, count=62, log_factor=3.0)
    def test_random_masks_match_refactorization(self, tagged_disk, seed,
                                                count, log_factor):
        rng = np.random.default_rng(seed)
        mask = np.zeros(tagged_disk.element_count, dtype=bool)
        mask[rng.choice(tagged_disk.element_count, count, replace=False)] = True
        models = {"matrix": materials.linear(2.0)}
        op = tomo.ConductanceOperator(tagged_disk,
                                      materials.MaterialMap(models),
                                      amplitude=1.0)
        model = materials.linear(2.0 * 10.0 ** log_factor)
        # P1 elements at a high contrast can breach the discrete maximum
        # principle for real; both paths then file the same breaches,
        # which are cleared here, and a breach filed by one path alone
        # fails the test
        start = len(solver.VIOLATIONS)
        g = op.matrix(mask, model, "random")
        updated = solver.VIOLATIONS[start:]
        del solver.VIOLATIONS[start:]
        ref = refactored_g(tagged_disk, models, mask, model, 1.0)
        refactored = solver.VIOLATIONS[start:]
        assert ([(v["kind"], v["context"]) for v in updated]
                == [(v["kind"], "random " + v["context"]) for v in refactored])
        assert np.allclose([v["magnitude"] for v in updated],
                           [v["magnitude"] for v in refactored],
                           rtol=0.0, atol=1e-10)
        del solver.VIOLATIONS[start:]
        assert relative_gap(g, ref) <= 1e-10


class TestBatchedDictionary:
    """``matrices`` builds a dictionary in one pass and ``mpm_reconstruct``
    tests it in stacked eigenvalue calls; both give the per-domain
    results bit for bit."""

    @staticmethod
    def dictionary(name, request):
        """(mesh, map, amplitude, mode, domains, test material)."""
        if name == "disk":
            mesh = request.getfixturevalue("tagged_disk")
            return (mesh,
                    materials.MaterialMap({"matrix": materials.linear(1.0)}),
                    1.0, "pec-limit",
                    tomo.disc_test_domains(mesh, 0.2, spacing=0.2),
                    materials.linear(1e-3))
        mesh = request.getfixturevalue("tagged_cable")
        # linear petals in nonlinear mode keep their dofs free
        petals = {lab: materials.linear(1e2 * SIGMA_BG)
                  for lab in mesh.inclusion_regions()}
        return (mesh, cable_map(mesh, **petals if name == "petals" else {}),
                1e-3, "nonlinear" if name == "petals" else "pec-limit",
                tomo.disc_test_domains(mesh, 0.08e-3, spacing=0.1e-3),
                materials.linear(1e-3 * SIGMA_BG))

    @pytest.mark.parametrize("columns", [None, 3, 20])
    @pytest.mark.parametrize("name", ["disk", "cable", "petals"])
    def test_matrices_equal_the_per_mask_replay(self, name, columns,
                                                request, monkeypatch):
        # a store of 3 or 20 columns holds fewer than the dictionary, so
        # its columns are solved in several batches or per mask
        mesh, mmap, amplitude, mode, domains, low = self.dictionary(name,
                                                                    request)
        op = tomo.ConductanceOperator(mesh, mmap, amplitude, mode)
        if columns is not None:
            monkeypatch.setattr(tomo._InverseColumns, "MAX_BYTES",
                                8 * op._asm.n_free * columns)
            op = tomo.ConductanceOperator(mesh, mmap, amplitude, mode)
        got = op.matrices([d.element_mask for d in domains], low,
                          [d.id for d in domains])
        assert len(got) == len(domains) > 20
        for d, g in zip(domains, got):
            want, _ = replayed_matrix(op, d.element_mask, low)
            assert np.array_equal(g.matrix, want.matrix), d.id
            assert g.asymmetry == want.asymmetry
        one = op.matrix(domains[5].element_mask, low, domains[5].id)
        assert np.array_equal(one.matrix, got[5].matrix)

    @staticmethod
    def batch_sizes(monkeypatch):
        """The number of masks of each stacked update, in call order."""
        update, sizes = tomo.ConductanceOperator._update, []

        def recording(self, elements, *args):
            sizes.append(len(elements))
            return update(self, elements, *args)

        monkeypatch.setattr(tomo.ConductanceOperator, "_update", recording)
        return sizes

    @staticmethod
    def shapes(op, domains):
        """(free dofs, elements) of each domain: masks of one shape are
        updated together."""
        out = []
        for d in domains:
            dof = op._asm.node_dof[op.mesh.elements[d.element_mask]]
            out.append((len(np.unique(dof[dof >= 0])), d.element_mask.sum()))
        return out

    @pytest.mark.parametrize("split", [False, True])
    def test_stacked_groups_equal_the_per_mask_replay(self, tagged_disk,
                                                      monkeypatch, split):
        # two radii mix shapes that one mask has alone with shapes that
        # many share; a budget of n columns still holds the whole
        # dictionary's columns at once but splits the larger groups
        mmap = materials.MaterialMap({"matrix": materials.linear(1.0)})
        low = materials.linear(1e-3)
        domains = tomo.disc_test_domains(tagged_disk, (0.2, 0.35),
                                         spacing=0.2)
        op = tomo.ConductanceOperator(tagged_disk, mmap, amplitude=1.0)
        if split:
            monkeypatch.setattr(tomo._InverseColumns, "MAX_BYTES",
                                8 * op._asm.n_free ** 2)
            op = tomo.ConductanceOperator(tagged_disk, mmap, amplitude=1.0)
        sizes = self.batch_sizes(monkeypatch)
        got = op.matrices([d.element_mask for d in domains], low,
                          [d.id for d in domains])
        shapes = self.shapes(op, domains)
        counts = [shapes.count(shape) for shape in set(shapes)]
        assert min(counts) == 1 and max(counts) > 1
        assert sum(sizes) == len(domains) and max(sizes) > 1
        if split:
            assert len(sizes) > len(counts)
        else:
            assert sorted(sizes) == sorted(counts)
        for d, g in zip(domains, got):
            want, _ = replayed_matrix(op, d.element_mask, low)
            assert np.array_equal(g.matrix, want.matrix), d.id
            assert g.asymmetry == want.asymmetry

    @pytest.mark.parametrize("name", ["disk", "cable"])
    def test_one_monitor_check_files_the_per_mask_breaches(
            self, name, request, monkeypatch):
        # with a negative tolerance every pattern of every mask breaches;
        # the dictionary's one check must file what a check per mask on
        # the same potentials files, in the same order
        mesh, mmap, amplitude, mode, domains, low = self.dictionary(name,
                                                                    request)
        op = tomo.ConductanceOperator(mesh, mmap, amplitude, mode)
        # each mask's nodal potentials hold the same values as the
        # free-dof and boundary values the dictionary's check reads
        potentials = [replayed_matrix(op, d.element_mask, low)[1]
                      for d in domains]
        monkeypatch.setattr(solver, "MAX_PRINCIPLE_RTOL", -1.0)
        scenarios = [d.id for d in domains]
        scenarios[1] = ""  # an unnamed mask's contexts carry no prefix
        try:
            got = op.matrices([d.element_mask for d in domains], low,
                              scenarios)
            filed = list(solver.VIOLATIONS)
            solver.clear_violations()
            for values, scenario in zip(potentials, scenarios):
                where = f"{scenario} " if scenario else ""
                solver.check_max_principle(values, op._patterns, [
                    f"{where}conductance pattern {i}"
                    for i in got[0].electrode_ids])
            replayed = list(solver.VIOLATIONS)
        finally:
            solver.clear_violations()
        assert len(potentials) == len(domains)
        assert len(filed) == len(domains) * got[0].size
        assert filed == replayed
        assert filed[got[0].size]["context"] == "conductance pattern 0"

    def test_one_validation_per_dictionary(self, tagged_disk, monkeypatch):
        op = tomo.ConductanceOperator(
            tagged_disk, materials.MaterialMap({"matrix": materials.linear(1.0)}),
            amplitude=1.0)
        domains = tomo.disc_test_domains(tagged_disk, 0.2, spacing=0.2)
        calls = []

        def counting_sigma(*args, **kwargs):
            calls.append(1)
            return materials.sigma(*args, **kwargs)

        monkeypatch.setattr(tomo, "material_sigma", counting_sigma)
        op.matrices([d.element_mask for d in domains], materials.linear(1e-3),
                    [d.id for d in domains])
        assert len(calls) == 1
        assert op.matrices([], materials.linear(1e-3), []) == []
        with pytest.raises(ValueError, match="one scenario per mask"):
            op.matrices([domains[0].element_mask], materials.linear(1e-3), [])
        masks = [d.element_mask for d in domains[:3]]
        with pytest.raises(ValueError, match=f"{domains[0].id} and 2 more: "
                                             ".*field"):
            op.matrices(masks, materials.weighted_power(1.0, 3.0),
                        [d.id for d in domains[:3]])
        empty = np.zeros(tagged_disk.element_count, bool)
        with pytest.raises(ValueError, match=f"{domains[1].id}: mask"):
            op.matrices([masks[0], empty], materials.linear(1e-3),
                        [domains[0].id, domains[1].id])

    def test_reconstruction_equals_per_domain_tests(self, tagged_disk):
        mmap = materials.MaterialMap({"matrix": materials.linear(1.0)})
        op = tomo.ConductanceOperator(tagged_disk, mmap, amplitude=1.0)
        low = materials.linear(1e-3)
        _, vmask = tomo.disc_defect(tagged_disk, (0.2, 0.1), 0.35)
        g_v = op.matrix(vmask, low, "defect")
        noise = tomo.goe_noise(g_v.size, 0.01, 1.0, seed=4)
        measured = fake_g(g_v.matrix + noise, g_v.electrode_ids)
        domains = tomo.disc_test_domains(tagged_disk, 0.2, spacing=0.2)
        tests = list(zip(domains, op.matrices(
            [d.element_mask for d in domains], low, [d.id for d in domains])))
        delta, tol = tomo.spectral_norm(noise), 1e-9
        rec = tomo.mpm_reconstruct(measured, tests, delta, tol=tol)

        m = g_v.size
        basis = tomo._zero_mean_basis(m)
        raw, low_eigs, accepted = [], [], []
        union = np.zeros(tagged_disk.element_count, dtype=bool)
        for k, (dom, g_test) in enumerate(tests):
            shifted = g_test.matrix - measured.matrix + delta * np.eye(m)
            raw.append(tomo.symmetric_eigenvalues(shifted)[0])
            value = tomo.symmetric_eigenvalues(basis.T @ shifted @ basis)[0]
            low_eigs.append(value)
            if value >= -tol:
                accepted.append(k)
                union |= dom.element_mask
        assert np.array_equal(rec.raw_min_eigenvalues, raw)
        assert np.array_equal(rec.min_eigenvalues, low_eigs)
        assert rec.accepted == tuple(accepted)
        assert 0 < len(accepted) < len(domains)
        assert np.array_equal(rec.union_mask, union)


class TestPecLimitTomoCommand:
    """``qlert tomo`` in pec-limit mode: one operator, factored once,
    gives the background, the defect and every test-domain matrix."""

    def test_one_assembler_and_one_factorization(self, tmp_path, counts,
                                                 factorizations):
        path = tmp_path / "tomo.json"
        path.write_text(json.dumps(cable_tomo_config()), encoding="utf-8")
        assert cli.main(["tomo", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == cli.EXIT_OK
        assert counts == {"assemblers": 1, "fixed_point": 0}
        assert len(factorizations) == 1

    def test_defect_matrix_matches_refactorization(self, tmp_path):
        tree = cable_tomo_config()
        tree["task"]["eta"] = 0.0  # the measured matrix is the defect's
        path = tmp_path / "tomo.json"
        path.write_text(json.dumps(tree), encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["tomo", "--config", str(path),
                         "--out", str(out)]) == cli.EXIT_OK
        g = np.loadtxt(out / "measured_g.csv", delimiter=",", skiprows=2)

        mesh = qm.tag_electrodes(cli.build_mesh(tree),
                                 qm.ElectrodeLayout(16, 0.5))
        models = cli.build_material_models(tree, mesh)
        disc = tree["task"]["defects"][0]
        vmask = tomo.disc_mask(mesh, disc["center_m"], disc["radius_m"])
        ref = refactored_g(mesh, models, vmask,
                           materials.linear(1e-3 * SIGMA_BG), 1e-3)
        assert np.abs(g - ref.matrix).max() <= 1e-12 * np.abs(ref.matrix).max()
