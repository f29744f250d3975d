import math

import numpy as np
import pytest
from scipy.integrate import quad

from qlert import materials as qmat
from qlert import oracle as qo


def outer_gradient_ratio(fields):
    """Outer-band energy of v over that of w; approaches 1 as r grows."""
    return fields.band_energy("v", "outer") / fields.band_energy("w", "outer")


def gradient_range(fields, field, band):
    """Exact (min, max) of the gradient magnitude over a band."""
    a, b = fields._coeffs(field, band)
    lo, hi = (1.0, 2.0) if band == "inner" else (2.0, fields.r)
    # |grad|^2 = (a - b/rho^2)^2 cos^2 + (a + b/rho^2) ^2 sin^2
    vals = []
    for rho in (lo, hi):
        vals.extend((abs(a - b / rho**2), abs(a + b / rho**2)))
    return min(vals), max(vals)


def counterexample_material(model):
    """Tabulated conductivity law of a ``CounterexampleModel`` for the
    growth checks (claimed quadratic exponents; the small-field weight
    limit is the thing this model refuses to have)."""
    b = model.breakpoints()
    es = [np.geomspace(b[0] / 1e3, b[0], 8)]
    for lo, hi in zip(b[:-1], b[1:]):
        es.append(np.geomspace(lo * (1 + 1e-9), hi, 24))
    es.append(np.geomspace(b[-1] * (1 + 1e-9), b[-1] * 10, 8))
    e = np.unique(np.concatenate(es))
    return qmat.tabulated(e, model.sigma_psi(e)).without_regularization()


class TestAnnulusFields:
    def test_v_vanishes_on_unit_circle(self):
        f = qo.annulus_fields(10.0)
        th = np.linspace(0, 2 * np.pi, 17)
        assert np.allclose(f.v(np.cos(th), np.sin(th)), 0.0, atol=1e-14)

    def test_v_outer_trace(self):
        f = qo.annulus_fields(10.0)
        assert f.gamma == pytest.approx(7.12)
        assert f.v(10.0, 0.0) == pytest.approx(71.2, rel=1e-12)
        th = np.linspace(0, 2 * np.pi, 23)
        x, y = 10 * np.cos(th), 10 * np.sin(th)
        assert np.allclose(f.v(x, y), f.gamma * x, rtol=1e-12, atol=1e-12)

    def test_gradient_magnitudes_outer_band(self):
        f = qo.annulus_fields(10.0)
        rng = np.random.default_rng(7)
        rho = rng.uniform(2.0, 10.0, 4000)
        th = rng.uniform(0, 2 * np.pi, 4000)
        x, y = rho * np.cos(th), rho * np.sin(th)
        gv = np.hypot(*f.grad_v(x, y))
        gw = np.hypot(*f.grad_w(x, y))
        assert gv.min() >= 1.0 and gv.max() <= 10.0
        assert gw.min() >= 4.0 - 1e-12 and gw.max() <= 10.0 + 1e-12
        lo, hi = gradient_range(f, "v", "outer")
        assert lo >= 1.0 and hi <= 10.0

    def test_v_is_harmonic_second_order(self):
        f = qo.annulus_fields(10.0)

        def disc_lap(x, y, h):
            return (
                f.v(x + h, y) + f.v(x - h, y) + f.v(x, y + h) + f.v(x, y - h)
                - 4 * f.v(x, y)
            ) / h**2

        for x, y in ((3.3, 1.7), (-5.0, 2.0), (1.2, -0.9)):
            c, fine = abs(disc_lap(x, y, 1e-2)), abs(disc_lap(x, y, 5e-3))
            assert fine <= c / 3.0 or fine < 1e-8

    def test_gradients_match_finite_differences(self):
        f = qo.annulus_fields(10.0)
        h = 1e-6
        for fn, gr in ((f.v, f.grad_v), (f.w, f.grad_w)):
            for x, y in ((3.0, 1.0), (-1.5, 0.3), (0.5, 1.5)):
                gx, gy = gr(x, y)
                assert gx == pytest.approx((fn(x + h, y) - fn(x - h, y)) / (2 * h), rel=1e-6)
                assert gy == pytest.approx((fn(x, y + h) - fn(x, y - h)) / (2 * h), rel=1e-6)

    def test_w_continuous_with_flux_match(self):
        f = qo.annulus_fields(10.0)
        th = np.linspace(0, 2 * np.pi, 13)
        e = 1e-9
        out = f.w((2 + e) * np.cos(th), (2 + e) * np.sin(th))
        inn = f.w((2 - e) * np.cos(th), (2 - e) * np.sin(th))
        assert np.allclose(out, inn, atol=1e-6)
        # conductivity-weighted radial flux balances: 3 * 4 = 2 * 6
        gx_o, _ = f.grad_w(2 + 1e-9, 0.0)
        gx_i, _ = f.grad_w(2 - 1e-9, 0.0)
        assert 3 * gx_o == pytest.approx(2 * gx_i, rel=1e-6)
        assert gx_o == pytest.approx(4.0, rel=1e-6)

    def test_small_radius_warns_tiny_radius_raises(self):
        with pytest.warns(UserWarning):
            qo.annulus_fields(5.0)
        with pytest.raises(ValueError):
            qo.annulus_fields(1.0)


def radial_energy(a, b, lo, hi):
    # analytic theta reduction of |grad (a rho + b/rho) cos(theta)|^2
    f = lambda rho: math.pi * ((a - b / rho**2) ** 2 + (a + b / rho**2) ** 2) * rho
    val, err = quad(f, lo, hi)
    assert err < 1e-8 * abs(val)
    return val


class TestBandEnergies:
    def test_closed_forms_against_scipy(self):
        f = qo.annulus_fields(10.0)
        assert f.band_energy("v", "outer") == pytest.approx(
            radial_energy(f.kappa, -f.kappa, 2, 10), rel=1e-10
        )
        assert f.band_energy("v", "inner") == pytest.approx(
            radial_energy(f.kappa, -f.kappa, 1, 2), rel=1e-10
        )
        assert f.band_energy("w", "outer") == pytest.approx(
            radial_energy(7, 12, 2, 10), rel=1e-10
        )
        assert f.band_energy("w", "inner") == pytest.approx(
            radial_energy(8, 8, 1, 2), rel=1e-10
        )

    def test_inner_band_values(self):
        f = qo.annulus_fields(10.0)
        assert f.band_energy("w", "inner") == pytest.approx(240 * math.pi, rel=1e-12)
        assert f.band_energy("v", "inner") == pytest.approx(
            math.pi * f.kappa**2 * 15 / 4, rel=1e-12
        )

    def test_separation_and_growing_margin(self):
        margins = []
        for r in (10.0, 20.0, 40.0):
            f = qo.annulus_fields(r)
            assert f.ell1() < f.ell2()
            margins.append(f.ell2() - f.ell1())
        assert margins[0] < margins[1] < margins[2]

    def test_outer_ratio_tends_to_one(self):
        gaps = [
            abs(outer_gradient_ratio(qo.annulus_fields(r)) - 1.0)
            for r in (10.0, 100.0, 1000.0)
        ]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-3

    def test_both_energies_diverge_with_radius(self):
        f10, f100 = qo.annulus_fields(10.0), qo.annulus_fields(100.0)
        assert f100.ell1() > f10.ell1()
        assert f100.ell2() > f10.ell2()


class TestCounterexampleModel:
    def setup_method(self):
        self.m = qo.build_counterexample(11.0, 1.0, n_terms=6)

    def test_first_prime_scale(self):
        assert self.m.lambda_prime[0] == pytest.approx(1 / (qo.C2 * 11), rel=1e-14)
        assert self.m.lambda_prime[0] == pytest.approx(0.05326, abs=1e-5)

    def test_geometric_ratios_exact(self):
        ld, lp = self.m.lambda_double, self.m.lambda_prime
        ratio = 1.0 / (qo.CSQ * 11.0**2)
        assert ld[1] / ld[0] == pytest.approx(ratio, rel=1e-12)
        for n in range(len(lp) - 1):
            assert lp[n + 1] / lp[n] == pytest.approx(ratio, rel=1e-12)
            assert ld[n + 1] / ld[n] == pytest.approx(ratio, rel=1e-12)

    def test_interleaving(self):
        L, ld, lp = self.m.L, self.m.lambda_double, self.m.lambda_prime
        for n in range(len(lp)):
            assert L * ld[n + 1] < lp[n] * (1 + 1e-12)
            assert L * lp[n] < ld[n] * (1 + 1e-12)

    def test_plateau_values(self):
        for n in range(5):
            lp, ld = self.m.lambda_prime[n], self.m.lambda_double[n]
            for e in (lp, math.sqrt(lp * self.m.L * lp), self.m.L * lp):
                assert self.m.psi(e) / e**2 == pytest.approx(2.0, rel=1e-12)
            for e in (ld, math.sqrt(ld * self.m.L * ld), self.m.L * ld):
                assert self.m.psi(e) / e**2 == pytest.approx(3.0, rel=1e-12)

    def test_psi_continuous_at_breakpoints(self):
        for b in self.m.breakpoints():
            lo = self.m.psi(b * (1 - 1e-13))
            hi = self.m.psi(b * (1 + 1e-13))
            assert abs(hi - lo) <= 1e-11 * abs(hi)

    def test_psi_convex_slopes_nondecreasing(self):
        e = np.geomspace(self.m.lambda_double[-1] / 10, 20.0, 20_000)
        q = self.m.psi(e)
        s = np.diff(q) / np.diff(e)
        scale = np.maximum(np.abs(s[:-1]), np.abs(s[1:]))
        assert np.all(np.diff(s) >= -1e-10 * scale)

    def test_phi_sandwiched_between_envelopes(self):
        e = np.geomspace(self.m.lambda_double[-1] / 10, 50.0, 5000)
        phi = self.m.phi(e)
        assert np.all(phi >= e**2 * (1 - 1e-12))
        assert np.all(phi <= 2 * e**2 * (1 + 1e-12))

    def test_sigma_psi_bounded(self):
        e = np.geomspace(self.m.lambda_double[-1] / 10, 50.0, 5000)
        s = self.m.sigma_psi(e)
        assert np.all(s >= 6 - 2 * math.sqrt(2) - 1e-9)
        assert np.all(s <= 6 + 2 * math.sqrt(2) + 1e-9)

    def test_sigma_psi_is_derivative_of_psi(self):
        rng = np.random.default_rng(3)
        e = rng.uniform(0.01, 2.0, 200)
        h = e * 1e-7
        dpsi = (self.m.psi(e + h) - self.m.psi(e - h)) / (2 * h)
        np.testing.assert_allclose(dpsi, self.m.sigma_psi(e) * e, rtol=1e-5)

    def test_small_L_rejected(self):
        with pytest.raises(ValueError):
            qo.build_counterexample(10.0, 1.0)
        with pytest.raises(ValueError):
            qo.build_counterexample(11.0, -1.0)

    def test_material_view_fails_small_field_limit_only(self):
        mat = counterexample_material(self.m)
        rep = qmat.validate_assumptions(mat, np.geomspace(1e-8, 1e4, 600))
        assert rep.convex_ok
        # the quadratic envelope bounds hold (constants near 2 and 3):
        assert rep.a3_ok
        assert rep.a3_lower == pytest.approx(2.0, rel=0.01)
        assert 2.9 < rep.a3_upper < 3.2
        # but the small-field weight has no limit
        assert not rep.a4_ok
        assert rep.a4_oscillation > 0.1
        assert math.isnan(rep.beta0)


class TestEnergyComparison:
    def test_quadrature_matches_closed_forms(self):
        rep = qo.counterexample_energies(10.0, n_scales=1, rtol=1e-7)
        assert rep.ell1 == pytest.approx(rep.ell1_exact, rel=1e-6)
        assert rep.ell2 == pytest.approx(rep.ell2_exact, rel=1e-6)
        assert rep.separated

    def test_scaled_functionals_bracket_the_energies(self):
        rep = qo.counterexample_energies(10.0, n_scales=2, rtol=2e-4)
        # v rides the 2E^2 plateau: its functional never exceeds ell1
        for g in rep.g_prime:
            assert g <= rep.ell1_exact * (1 + 1e-3)
            assert g >= 2 / 3 * rep.ell1_exact * (1 - 1e-3)
        # w rides the 3E^2 plateau: its functional never drops below ell2
        for h in rep.h_double:
            assert h >= rep.ell2_exact * (1 - 1e-3)

    def test_functional_gap_certifies_two_limits(self):
        rep = qo.counterexample_energies(10.0, n_scales=2, rtol=2e-4)
        assert max(rep.g_prime) < min(rep.h_double)
