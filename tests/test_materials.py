from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlert import materials as qmat


class TestSigma:
    def test_ej_power_law_at_criterion_field(self):
        # J_c = 8000 A/mm^2 = 8e9 A/m^2, criterion field 1e-4 V/m
        m = qmat.ej_power_law(8e9, 27, e0=1e-4)
        assert qmat.sigma(m, 1e-4) == pytest.approx(8e13, rel=1e-12)

    def test_linear_ignores_field(self):
        m = qmat.linear(5.55e7)
        for e in (0.0, 1e-9, 3.7, 1e5):
            assert qmat.sigma(m, e) == 5.55e7

    def test_weighted_power_p2_is_constant(self):
        m = qmat.weighted_power(1.0, 2.0)
        assert qmat.sigma(m, 0.37) == pytest.approx(1.0)

    def test_negative_field_rejected(self):
        m = qmat.linear(1.0)
        with pytest.raises(ValueError):
            qmat.sigma(m, -1.0)
        with pytest.raises(ValueError):
            qmat.energy_density(m, np.array([1.0, -2.0]))

    def test_cap_engages_at_small_fields(self):
        m = qmat.ej_power_law(8e9, 27, e0=1e-4)
        assert qmat.sigma(m, 1e-9) == m.sigma_cap
        assert qmat.sigma(m, 1e-4) < m.sigma_cap

    def test_floor_freezes_tiny_fields(self):
        m = qmat.weighted_power(2.0, 3.0)
        assert qmat.sigma(m, 0.0) == qmat.sigma(m, m.e_floor / 2)

    def test_vectorized_matches_scalar(self):
        m = qmat.preset("YBCO-AMSC")
        es = np.logspace(-9, 0, 40)
        vec = qmat.sigma(m, es)
        assert vec == pytest.approx([qmat.sigma(m, float(e)) for e in es])


class TestEnergyDensity:
    def test_linear_quadratic(self):
        assert qmat.energy_density(qmat.linear(2.0), 3.0) == pytest.approx(9.0)

    def test_weighted_power_quartic(self):
        m = qmat.weighted_power(1.0, 4.0)
        assert qmat.energy_density(m, 2.0) == pytest.approx(4.0, rel=1e-9)

    def test_ej_power_law_closed_form(self):
        jc, n, e0 = 8e9, 27.0, 1e-4
        m = qmat.ej_power_law(jc, n, e0=e0).without_regularization()
        assert qmat.energy_density(m, e0) == pytest.approx(
            jc * e0 * n / (n + 1), rel=1e-12
        )

    def test_regularization_shifts_energy_only_slightly_at_scale(self):
        bare = qmat.ej_power_law(8e9, 27).without_regularization()
        reg = qmat.ej_power_law(8e9, 27)
        qb, qr = qmat.energy_density(bare, 1e-4), qmat.energy_density(reg, 1e-4)
        assert qr != qb
        assert abs(qr - qb) / qb < 0.01

    def test_zero_field_zero_energy(self):
        for m in (qmat.linear(3.0), qmat.weighted_power(1.0, 4.0), qmat.preset("BSCCO-EAS")):
            assert qmat.energy_density(m, 0.0) == 0.0

    def test_tabulated_matches_hand_integral(self):
        # sigma: 2 on [0,1] rising to 4 at E=3, constant after
        m = replace(qmat.tabulated([1.0, 3.0], [2.0, 4.0]), e_floor=0.0)
        assert qmat.energy_density(m, 1.0) == pytest.approx(1.0)
        # integral of (1+E)*E from 1 to 2 = [E^2/2 + E^3/3] = (2+8/3)-(0.5+1/3)
        assert qmat.energy_density(m, 2.0) == pytest.approx(1.0 + 1.5 + 7 / 3)


def piece_bounds(model):
    """Finite breakpoints of the regularized law."""
    bounds, _, _ = model._pieces
    return bounds[np.isfinite(bounds) & (bounds > 0)]


def finite_difference_consistency(model, e_lo, e_hi):
    es = np.geomspace(e_lo, e_hi, 120)
    cuts = piece_bounds(model)
    h = es * 1e-4
    for cut in cuts:
        es = es[np.abs(es - cut) > 3 * np.interp(es, es, h)]
    h = es * 1e-4
    dq = (qmat.energy_density(model, es + h) - qmat.energy_density(model, es - h)) / (
        2 * h
    )
    j = qmat.sigma(model, es) * es
    np.testing.assert_allclose(dq, j, rtol=1e-6)


class TestConsistency:
    @pytest.mark.parametrize(
        "model",
        [
            qmat.linear(5.55e7),
            qmat.weighted_power(1.0, 4.0),
            qmat.weighted_power(3.0, 1.5),
            qmat.ej_power_law(8e9, 27),
            qmat.ej_power_law(8e9, 27).without_regularization(),
            qmat.tabulated([1e-6, 1.0, 2.0], [3.0, 4.0, 3.5]),
        ],
    )
    def test_energy_derivative_matches_current(self, model):
        e0 = model.e0 if model.e0 > 0 else 1.0
        finite_difference_consistency(model, max(model.e_floor, 1e-3 * e0), 1e3 * e0)

    @given(
        theta=st.floats(0.1, 10.0),
        p=st.floats(1.2, 4.0),
        e=st.floats(1e-6, 1e3),
    )
    @settings(max_examples=60, deadline=None)
    def test_weighted_power_consistency_property(self, theta, p, e):
        m = qmat.weighted_power(theta, p).without_regularization()
        h = e * 1e-5
        dq = (qmat.energy_density(m, e + h) - qmat.energy_density(m, e - h)) / (2 * h)
        assert dq == pytest.approx(qmat.sigma(m, e) * e, rel=1e-5)

    @given(jc=st.floats(1e6, 1e10), n=st.floats(5.0, 50.0))
    @settings(max_examples=40, deadline=None)
    def test_current_nondecreasing_property(self, jc, n):
        m = qmat.ej_power_law(jc, n).without_regularization()
        es = np.geomspace(1e-10, 1e2, 200)
        j = qmat.sigma(m, es) * es
        assert np.all(np.diff(j) >= 0)

    @given(e=st.floats(1e-8, 1e2))
    @settings(max_examples=40, deadline=None)
    def test_regularization_vanishes_pointwise(self, e):
        bare = qmat.ej_power_law(8e9, 20).without_regularization()
        vals = [
            qmat.sigma(replace(bare, e_floor=f, sigma_cap=c), e)
            for f, c in [(1e-6, 1e12), (1e-9, 1e14), (1e-12, 1e18), (1e-15, 1e20)]
        ]
        target = qmat.sigma(bare, e)
        assert vals[-1] == pytest.approx(target, rel=1e-12)


class TestPresets:
    def test_table_complete(self):
        assert set(qmat.PRESET_TABLE) == {
            "BSCCO-EAS",
            "BSCCO-AMSC",
            "YBCO-AMSC",
            "YBCO-SP-SF12100",
            "YBCO-SP-SCS12050",
        }

    def test_units_converted_to_si(self):
        m = qmat.preset("BSCCO-EAS")
        # 85 A/mm^2 = 85e6 A/m^2 carried at the criterion field e0
        assert qmat.sigma(m, 1e-4) == pytest.approx(85e6 / 1e-4, rel=1e-12)
        assert m.p0 == 1.0 + 1.0 / 17
        assert m.e0 == 1e-4

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            qmat.preset("YBCO-IMAGINARY")


class TestValidateAssumptions:
    def grid(self, e0):
        return np.geomspace(e0 * 1e-5, e0 * 1e5, 400)

    def test_weighted_power_p2(self):
        m = qmat.weighted_power(1.0, 2.0)
        rep = qmat.validate_assumptions(m, self.grid(1.0))
        assert rep.convex_ok
        assert rep.small_exponent == pytest.approx(2.0, abs=0.05)
        assert rep.large_exponent == pytest.approx(2.0, abs=0.05)
        assert rep.exponents_ok and rep.a3_ok and rep.a4_ok
        assert rep.beta0 == pytest.approx(0.5)

    def test_ej_power_law_exponents(self):
        m = qmat.preset("BSCCO-EAS")
        rep = qmat.validate_assumptions(m, self.grid(m.e0))
        # n = 17: 1 + 1/17, which abs=1e-6 tells from n = 27's 1 + 1/27
        want = m.p0
        assert rep.small_exponent == pytest.approx(want, abs=1e-6)
        assert rep.large_exponent == pytest.approx(want, abs=1e-6)
        assert rep.all_ok()

    def test_mixed_growth_reports_envelope(self):
        # sigma = 1 + E: quadratic small-field energy, cubic large-field
        m = replace(qmat.tabulated(
            np.geomspace(1e-6, 1e6, 600),
            1.0 + np.geomspace(1e-6, 1e6, 600),
        ), e_floor=0.0)
        rep = qmat.validate_assumptions(m, np.geomspace(1e-5, 1e5, 500))
        assert rep.small_exponent == pytest.approx(2.0, abs=0.05)
        assert rep.large_exponent == pytest.approx(3.0, abs=0.1)

    def test_small_grid_rejected(self):
        m = qmat.linear(1.0)
        with pytest.raises(ValueError):
            qmat.validate_assumptions(m, np.geomspace(0.1, 10, 100))
        with pytest.raises(ValueError):
            qmat.validate_assumptions(m, np.array([1e-5, 1e5]))


def validate_for(material_map, mesh):
    """The map itself when it has a model for every region of the mesh."""
    missing = [lab for lab in mesh.region_elements()
               if lab not in material_map.models]
    if missing:
        raise ValueError(f"regions without a material: {missing}")
    return material_map


def with_model(material_map, label, model):
    """A new map with ``model`` on ``label``."""
    return qmat.MaterialMap({**material_map.models, label: model})


class TestMaterialMap:
    def test_missing_region_detected(self):
        from qlert import mesh as qm

        cable = qm.generate_petal_cable(1.0, [(0.0, 0.0)], 0.5, 2)
        mm = qmat.MaterialMap({"matrix": qmat.linear(1.0)})
        with pytest.raises(ValueError):
            validate_for(mm, cable)
        mm2 = with_model(mm, "inclusion-1", qmat.preset("BSCCO-EAS"))
        assert validate_for(mm2, cable) is mm2

    def test_sigma_elements_respects_regions(self):
        from qlert import mesh as qm

        cable = qm.generate_petal_cable(1.0, [(0.0, 0.0)], 0.5, 2)
        mm = qmat.MaterialMap(
            {"matrix": qmat.linear(2.0), "inclusion-1": qmat.linear(5.0)}
        )
        E = np.ones(cable.element_count)
        s = mm.sigma_elements(cable, E, ["matrix", "inclusion-1"])
        assert np.all(s[cable.region_mask("matrix")] == 2.0)
        assert np.all(s[cable.region_mask("inclusion-1")] == 5.0)


# ---------------------------------------------------------------------------
# references: the per-function piece loops and the solver's per-element
# evaluator that sigma, energy_density and MaterialMap.sigma_elements replaced
# ---------------------------------------------------------------------------


def reference_sigma(model, E):
    E = qmat._check_field(E)
    scalar = E.ndim == 0
    E = np.atleast_1d(E)
    bounds, pieces, _ = model._pieces
    idx = np.clip(np.searchsorted(bounds, E, side="right") - 1, 0, len(pieces) - 1)
    out = np.empty_like(E)
    with np.errstate(divide="ignore"):
        for i, pc in enumerate(pieces):
            m = idx == i
            if m.any():
                out[m] = pc.sigma_at(E[m])
    return float(out[0]) if scalar else out


def reference_energy_density(model, E):
    E = qmat._check_field(E)
    scalar = E.ndim == 0
    E = np.atleast_1d(E)
    bounds, pieces, cum = model._pieces
    idx = np.clip(np.searchsorted(bounds, E, side="right") - 1, 0, len(pieces) - 1)
    out = np.empty_like(E)
    for i, pc in enumerate(pieces):
        m = idx == i
        if m.any():
            out[m] = cum[i] + pc.integral(pc.lo, E[m])
    return float(out[0]) if scalar else out


def reference_sigma_for(mesh, material_map, labels, e_elements):
    out = np.ones(mesh.element_count)
    for lab in labels:
        mask = mesh.region_mask(lab)
        out[mask] = qmat.sigma(material_map.for_region(lab), e_elements[mask])
    return out


LAWS = {
    "linear": qmat.linear(5.55e7),
    "weighted-p2": qmat.weighted_power(2.0, 2.0),
    "weighted-p3": qmat.weighted_power(1.5, 3.0),
    "ej": qmat.ej_power_law(8e9, 27),
    "ej-bare": qmat.ej_power_law(8e9, 27).without_regularization(),
    "preset": qmat.preset("YBCO-AMSC"),
    "tabulated": replace(qmat.tabulated([1e-6, 1.0, 2.0], [3.0, 4.0, 3.5]),
                         e_floor=1e-8, sigma_cap=3.8),
}


def probe_fields(model):
    """Zero, the floor, every breakpoint with its float neighbours, and a
    log sweep plus random draws over twenty decades."""
    cuts = np.concatenate([piece_bounds(model), [model.e_floor]])
    cuts = cuts[np.isfinite(cuts) & (cuts > 0)]
    rng = np.random.default_rng(7)
    return np.concatenate([
        [0.0, model.e_floor / 2],
        cuts, np.nextafter(cuts, 0.0), np.nextafter(cuts, np.inf),
        np.geomspace(1e-16, 1e4, 2000),
        10.0 ** rng.uniform(-16, 4, 2000),
    ])


class TestOneLookup:
    @pytest.mark.parametrize("kind", sorted(LAWS))
    def test_arrays_match_reference_exactly(self, kind):
        model = LAWS[kind]
        e = probe_fields(model)
        np.testing.assert_array_equal(qmat.sigma(model, e),
                                      reference_sigma(model, e))
        np.testing.assert_array_equal(qmat.energy_density(model, e),
                                      reference_energy_density(model, e))

    @pytest.mark.parametrize("kind", sorted(LAWS))
    def test_scalars_match_reference_exactly(self, kind):
        model = LAWS[kind]
        for e in (0, 0.0, model.e_floor, np.float64(1e-4), np.array(2.5),
                  *(float(c) for c in piece_bounds(model))):
            for fn, ref in ((qmat.sigma, reference_sigma),
                            (qmat.energy_density, reference_energy_density)):
                got, want = fn(model, e), ref(model, e)
                assert type(got) is float and type(want) is float
                assert got == want

    def test_shapes_and_errors_follow_the_input(self):
        model = LAWS["ej"]
        e = np.geomspace(1e-6, 1.0, 6).reshape(2, 3)
        assert qmat.sigma(model, e).shape == (2, 3)
        assert qmat.energy_density(model, e).shape == (2, 3)
        for fn in (qmat.sigma, qmat.energy_density):
            with pytest.raises(ValueError):
                fn(model, np.nan)


# ---------------------------------------------------------------------------
# every built-in law is one weighted power law theta * E**m: pinned bit for
# bit to the per-kind formulas each factory's law was evaluated by before
# ---------------------------------------------------------------------------


def kind_law(theta, m, E):
    """(sigma, energy density) of the regularized law theta * E**m on the
    pieces of the per-kind evaluator: cuts at 0, e_floor, the cap field
    (cap/theta)**(1/m) and infinity; sigma frozen at its floor value below
    e_floor, clipped at sigma_cap, theta * E**m elsewhere; the energy the
    exact integral of sigma * E, summed piece by piece from zero."""
    floor, cap = qmat.DEFAULT_E_FLOOR, qmat.DEFAULT_SIGMA_CAP
    cuts = {0.0, floor, np.inf}
    if m != 0.0:
        cuts.add((cap / theta) ** (1.0 / m))
    bounds = np.array(sorted(cuts))
    sig, q = np.empty_like(E), np.empty_like(E)
    below = 0.0  # the energy at the lower end of the piece
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if np.isinf(hi):
            mid = 2 * lo if lo > 0 else 1.0
        else:
            mid = 0.5 * hi if lo == 0 else 0.5 * (lo + hi)
        value = theta * max(mid, floor) ** m
        sel = (E >= lo) & (E < hi)
        if mid < floor or m == 0.0 or value > cap:
            c = min(value, cap)
            sig[sel] = c
            q[sel] = below + 0.5 * c * (E[sel] ** 2 - lo**2)
            whole = 0.5 * c * (hi**2 - lo**2)
        else:
            g = m + 2.0
            sig[sel] = theta * E[sel] ** m
            q[sel] = below + theta * (E[sel] ** g - lo**g) / g
            whole = theta * (hi**g - lo**g) / g
        below = below + whole if np.isfinite(hi) else np.inf
    return sig, q


def ej_theta_m(jc, n, e0):
    m = (1.0 - n) / n
    return (jc / e0) * e0 ** (-m), m


# each factory's law and the (theta, m) its kind stated: linear sigma0 and
# 0, weighted power theta and p - 2, E-J from (jc, n, e0)
KIND_LAWS = {
    "linear": (qmat.linear(5.55e7), (5.55e7, 0.0)),
    "weighted-p1.5": (qmat.weighted_power(2.0, 1.5), (2.0, 1.5 - 2.0)),
    "weighted-p2": (qmat.weighted_power(3.0, 2.0), (3.0, 2.0 - 2.0)),
    "weighted-p3": (qmat.weighted_power(3e9, 3.0), (3e9, 3.0 - 2.0)),
    "ej": (qmat.ej_power_law(8e9, 27, 1e-4), ej_theta_m(8e9, 27.0, 1e-4)),
    "preset": (qmat.preset("YBCO-AMSC"), ej_theta_m(136.0 * 1e6, 28.0, 1e-4)),
}


class TestOneWeightedPowerLaw:
    @pytest.mark.parametrize("name", sorted(KIND_LAWS))
    def test_laws_equal_the_per_kind_formulas_bit_for_bit(self, name):
        model, (theta, m) = KIND_LAWS[name]
        assert (model.theta, model.m) == (theta, m)
        cap_field = (model.sigma_cap / theta) ** (1.0 / m) if m else 1.0
        cuts = np.array([model.e_floor, cap_field])
        # from below the floor to past the cap, and across every cut
        e = np.concatenate([
            [0.0], cuts, np.nextafter(cuts, 0.0), np.nextafter(cuts, np.inf),
            np.geomspace(1e-40, 1e20, 3001),
        ])
        sig, q = kind_law(theta, m, e)
        np.testing.assert_array_equal(qmat.sigma(model, e), sig)
        np.testing.assert_array_equal(qmat.energy_density(model, e), q)

    def test_ej_exponent_is_not_p_minus_2(self):
        # m is (1 - n)/n, not (1 + 1/n) - 2, which differs in the last bit
        # for n = 27; the growth exponent is m + 2, not 1 + 1/n either
        model = qmat.ej_power_law(8e9, 27)
        assert model.m == (1.0 - 27.0) / 27.0
        assert model.m != (1.0 + 1.0 / 27.0) - 2.0
        assert model.p0 == model.m + 2.0 == 1.0370370370370372

    @pytest.mark.parametrize("name", sorted(KIND_LAWS) + ["table"])
    def test_exponents_are_derived_from_the_law(self, name):
        model = (LAWS["tabulated"] if name == "table"
                 else KIND_LAWS[name][0])
        want = 2.0 if name == "table" else model.m + 2.0
        assert model.p0 == model.p == want
        grid = np.geomspace(model.e0 * 1e-5, model.e0 * 1e5, 400)
        assert qmat.validate_assumptions(model, grid).exponents_ok

    @pytest.mark.parametrize("name", sorted(KIND_LAWS) + ["table"])
    def test_field_independent_is_exponent_zero(self, name):
        # a constant table is no power law
        model = (qmat.tabulated([1.0, 2.0], [3.0, 3.0]) if name == "table"
                 else KIND_LAWS[name][0])
        assert model.field_independent is (name in ("linear", "weighted-p2"))


class TestSigmaElements:
    @pytest.fixture(scope="class")
    def cable(self):
        from qlert import mesh as qm

        return qm.generate_petal_cable(1.0, [(-0.5, 0.0), (0.5, 0.0)], 0.3, 2)

    @pytest.fixture(scope="class")
    def full_map(self):
        return qmat.MaterialMap({
            "matrix": LAWS["linear"],
            "inclusion-1": LAWS["ej"],
            "inclusion-2": LAWS["tabulated"],
        })

    def test_matches_reference_on_every_subset(self, cable, full_map):
        e = 10.0 ** np.random.default_rng(3).uniform(-14, 2, cable.element_count)
        labels = sorted(set(cable.element_region))
        for subset in ([], labels[:1], labels[1:], labels):
            np.testing.assert_array_equal(
                full_map.sigma_elements(cable, e, subset),
                reference_sigma_for(cable, full_map, subset, e),
            )

    def test_placeholder_one_outside_the_labels(self, cable, full_map):
        e = np.full(cable.element_count, 1e-3)
        s = full_map.sigma_elements(cable, e, ["inclusion-1"])
        inside = cable.region_mask("inclusion-1")
        assert np.all(s[~inside] == 1.0)
        assert np.all(s[inside] == qmat.sigma(LAWS["ej"], 1e-3))

    def test_other_regions_are_neither_looked_up_nor_read(self, cable,
                                                          full_map):
        partial = qmat.MaterialMap({"matrix": qmat.linear(2.0)})
        e = np.full(cable.element_count, np.nan)
        matrix = cable.region_mask("matrix")
        e[matrix] = 1.0
        s = partial.sigma_elements(cable, e, ["matrix"])
        assert np.all(s[matrix] == 2.0) and np.all(s[~matrix] == 1.0)
        with pytest.raises(KeyError, match="inclusion-1"):
            partial.sigma_elements(cable, np.ones(cable.element_count),
                                   list(cable.region_elements()))
        with pytest.raises(ValueError, match="finite"):
            full_map.sigma_elements(cable, e, ["matrix", "inclusion-1"])


class TestSharedModels:
    """Regions that share one model object take one law call on their
    elements together, with the values and the energy total that one call
    per region gives, bit for bit."""

    EJ = qmat.ej_power_law(8e9, 27)
    TABULATED = LAWS["tabulated"]

    @pytest.fixture(scope="class")
    def cable(self):
        from qlert import mesh as qm

        angles = (np.arange(6) + 0.5) * np.pi / 3
        centers = [(0.6 * np.cos(a), 0.6 * np.sin(a)) for a in angles]
        return qm.generate_petal_cable(1.0, centers, 0.2, 3)

    @pytest.fixture(scope="class")
    def shared_map(self, cable):
        # odd petals share one E-J law, even ones one tabulated law, so a
        # model's elements are not contiguous in mesh order
        models = {"matrix": LAWS["linear"]}
        for k, label in enumerate(sorted(cable.inclusion_regions())):
            models[label] = self.EJ if k % 2 == 0 else self.TABULATED
        return qmat.MaterialMap(models)

    def fields(self, cable):
        """Per-element fields below e_floor, at sigma_cap and on the power
        branch of the E-J law, drawn in random order."""
        floor, ecap = piece_bounds(self.EJ)
        rng = np.random.default_rng(11)
        pools = np.stack([
            rng.uniform(0.0, floor, cable.element_count),
            10.0 ** rng.uniform(np.log10(floor), np.log10(ecap),
                                cable.element_count),
            10.0 ** rng.uniform(np.log10(ecap), 4.0, cable.element_count),
        ])
        e = pools[rng.integers(0, 3, cable.element_count),
                  np.arange(cable.element_count)]
        sig = qmat.sigma(self.EJ, e)
        assert np.any(e < floor) and np.any(sig == self.EJ.sigma_cap)
        assert np.any((e > ecap) & (sig < self.EJ.sigma_cap))
        return e

    @staticmethod
    def reference_energy(mesh, material_map, e_mag):
        from qlert import fem

        _, _, area = fem.element_geometry(mesh)
        total = 0.0
        for label, elements in mesh.region_elements().items():
            dens = qmat.energy_density(material_map.for_region(label),
                                       e_mag[elements])
            total += float(np.sum(dens * area[elements]))
        return total

    def test_sigma_matches_one_call_per_region(self, cable, shared_map,
                                               monkeypatch):
        e = self.fields(cable)
        labels = sorted(cable.region_elements())
        want = reference_sigma_for(cable, shared_map, labels, e)
        sigma = qmat.sigma
        called = []

        def counting(model, E):
            called.append(model)
            return sigma(model, E)

        monkeypatch.setattr(qmat, "sigma", counting)
        got = shared_map.sigma_elements(cable, e, labels)
        np.testing.assert_array_equal(got, want)
        # one call per model, in the order the labels first name it
        assert [id(m) for m in called] == [
            id(self.EJ), id(self.TABULATED), id(LAWS["linear"])]

    def test_energy_matches_one_call_per_region(self, cable, shared_map,
                                                monkeypatch):
        from qlert import fem

        e = self.fields(cable)
        want = self.reference_energy(cable, shared_map, e)
        energy_density = fem.energy_density
        called = []

        def counting(model, E):
            called.append(model)
            return energy_density(model, E)

        monkeypatch.setattr(fem, "energy_density", counting)
        labels = list(cable.region_elements())
        assert fem.dirichlet_energy(cable, shared_map, e, labels) == want
        assert len(called) == 3
