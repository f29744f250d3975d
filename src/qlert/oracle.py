"""Closed-form reference fields and the bounded-oscillation energy density.

Two independent validators for the solver and the limit theory:

* ``AnnulusFields``: explicit harmonic-type fields v and w on the annulus
  1 < |x| < r whose weighted Dirichlet energies are known in closed form.
  The comparison functionals ell1 (built on v) and ell2 (built on w)
  separate strictly, with a margin that grows with r.

* ``CounterexampleModel``: a convex quadratic-growth energy density Psi
  that keeps oscillating between the envelopes 2E^2 and 3E^2 on a
  geometric cascade of field scales, so the small-field weight
  Psi(E)/E^2 has no limit. Scaled energy functionals evaluated along the
  cascade's two interleaved scale sequences therefore settle on two
  different values, which is exactly what the separation ell1 < ell2
  certifies.

Everything here is analytic; the only numerics are a midpoint polar
quadrature with a Richardson convergence check.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "AnnulusFields",
    "CounterexampleModel",
    "EnergySeparation",
    "QuadratureError",
    "annulus_fields",
    "build_counterexample",
    "counterexample_energies",
    "C1",
    "C2",
    "CSQ",
]

SQRT2 = math.sqrt(2.0)
C1 = 2.0 + SQRT2
C2 = 1.0 + SQRT2 / 2.0
CSQ = C1 * C2  # = 3 + 2*sqrt(2)


class QuadratureError(RuntimeError):
    """Midpoint quadrature failed its Richardson convergence check."""


# ---------------------------------------------------------------------------
# annulus reference fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnnulusFields:
    """Reference fields on the annulus 1 < |x| < r.

    ``v`` vanishes on the unit circle and matches gamma*x1 on the outer
    circle; ``w`` is the two-branch comparison field, x1-odd with a
    conductivity-weighted flux match across |x| = 2. Gradient magnitudes
    of both live in [1, 10] on the outer band 2 < |x| < r once r >= 10.
    """

    r: float

    @property
    def gamma(self):
        return 7.0 + 12.0 / self.r**2

    @property
    def kappa(self):
        return (7.0 * self.r**2 + 12.0) / (self.r**2 - 1.0)

    # -- pointwise evaluation ------------------------------------------------

    def v(self, x, y):
        x, y = np.asarray(x, float), np.asarray(y, float)
        rho2 = x**2 + y**2
        return self.kappa * (1.0 - 1.0 / rho2) * x

    def grad_v(self, x, y):
        x, y = np.asarray(x, float), np.asarray(y, float)
        rho2 = x**2 + y**2
        gx = self.kappa * (1.0 - 1.0 / rho2 + 2.0 * x**2 / rho2**2)
        gy = self.kappa * 2.0 * x * y / rho2**2
        return gx, gy

    def w(self, x, y):
        x, y = np.asarray(x, float), np.asarray(y, float)
        rho2 = x**2 + y**2
        outer = (7.0 + 12.0 / rho2) * x
        inner = 8.0 * (1.0 + 1.0 / rho2) * x
        return np.where(rho2 >= 4.0, outer, inner)

    def grad_w(self, x, y):
        x, y = np.asarray(x, float), np.asarray(y, float)
        rho2 = x**2 + y**2
        gx_o = 7.0 + 12.0 / rho2 - 24.0 * x**2 / rho2**2
        gy_o = -24.0 * x * y / rho2**2
        gx_i = 8.0 * (1.0 + 1.0 / rho2) - 16.0 * x**2 / rho2**2
        gy_i = -16.0 * x * y / rho2**2
        mask = rho2 >= 4.0
        return np.where(mask, gx_o, gx_i), np.where(mask, gy_o, gy_i)

    # -- closed-form band energies -------------------------------------------

    def _coeffs(self, field, band):
        # every branch has the separable form (A*rho + B/rho) * cos(theta)
        if field == "v":
            return self.kappa, -self.kappa
        return (7.0, 12.0) if band == "outer" else (8.0, 8.0)

    def band_energy(self, field, band):
        """Exact integral of |grad field|^2 over the band (inner: 1<rho<2,
        outer: 2<rho<r)."""
        a, b = self._coeffs(field, band)
        lo, hi = (1.0, 2.0) if band == "inner" else (2.0, self.r)
        return math.pi * (
            a**2 * (hi**2 - lo**2) + b**2 * (1.0 / lo**2 - 1.0 / hi**2)
        )

    def ell1(self):
        """Weighted energy of v: twice the outer band plus three times the
        inner band."""
        return 2.0 * self.band_energy("v", "outer") + 3.0 * self.band_energy(
            "v", "inner"
        )

    def ell2(self):
        """Weighted energy of w: three times the outer band plus twice the
        inner band."""
        return 3.0 * self.band_energy("w", "outer") + 2.0 * self.band_energy(
            "w", "inner"
        )


def annulus_fields(r):
    """Build the reference fields; warns below the intended r >= 10 range."""
    if r <= 1:
        raise ValueError("outer radius must exceed the unit inner radius")
    if r < 10:
        warnings.warn(
            "gradient-range argument assumes r >= 10; computing anyway",
            stacklevel=2,
        )
    return AnnulusFields(float(r))


# ---------------------------------------------------------------------------
# oscillating energy density
# ---------------------------------------------------------------------------

# interval kinds: the 2E^2 and 3E^2 plateaus, and the tangent-line
# bridges between them (the same expressions whichever way they climb)
_TWO, _THREE, _BRIDGE = 0, 1, 2


@dataclass(frozen=True)
class CounterexampleModel:
    """Convex energy density Psi oscillating between 2E^2 and 3E^2.

    Built from two interleaved geometric scale sequences with common
    ratio 1/(CSQ * L^2):

    * ``lambda_prime[n]``: Psi(E) = 2 E^2 on [lp_n, L*lp_n]
    * ``lambda_double[n]``: Psi(E) = 3 E^2 on [ld_n, L*ld_n]

    joined by tangent-line bridges of the middle quadratic, which keeps
    Psi convex and continuously differentiable at the tangency points and
    convex (with upward slope kinks) at the crossings. Above the largest
    scale and below the smallest, Psi(E) = 3 E^2.
    """

    L: float
    lambda_double_1: float
    n_terms: int = 8

    def __post_init__(self):
        if self.L <= 10:
            raise ValueError("need L > 10 so the [1,10] gradient range fits a plateau")
        if self.lambda_double_1 <= 0:
            raise ValueError("seed scale must be positive")
        if not 1 <= self.n_terms <= 50:
            raise ValueError("n_terms out of range")

    @cached_property
    def lambda_double(self):
        """Scales of the 3E^2 plateaus, descending; n_terms + 1 entries."""
        out = [self.lambda_double_1]
        for _ in range(self.n_terms):
            out.append(out[-1] / (C2 * self.L) / (C1 * self.L))
        return np.array(out)

    @cached_property
    def lambda_prime(self):
        """Scales of the 2E^2 plateaus, descending; n_terms entries."""
        return self.lambda_double[: self.n_terms] / (C2 * self.L)

    @cached_property
    def _segments(self):
        """(bounds, kinds, params): ascending breakpoints; kind and bridge
        parameter for each interval between them."""
        L = self.L
        bounds = [0.0]
        kinds = []
        params = []

        def add(hi, kind, param=0.0):
            bounds.append(hi)
            kinds.append(kind)
            params.append(param)

        for n in range(self.n_terms, 0, -1):
            ld_next = self.lambda_double[n]
            lp = self.lambda_prime[n - 1]
            ld = self.lambda_double[n - 1]
            add(L * ld_next, _THREE)  # covers [ld_next, L*ld_next] and below
            add(lp, _BRIDGE, L * ld_next)  # tangent point a = L*ld_next
            add(L * lp, _TWO)
            add(ld, _BRIDGE, ld)  # tangent point at the upper plateau
        add(np.inf, _THREE)
        return np.array(bounds), np.array(kinds), np.array(params)

    def breakpoints(self):
        b, _, _ = self._segments
        return b[np.isfinite(b) & (b > 0)]

    def _by_kind(self, E, two, three, bridge):
        """``two(e, a)``, ``three(e, a)`` or ``bridge(e, a)`` on the field
        magnitudes e that fall in an interval of that kind, a being the
        interval's bridge parameter; a float for scalar ``E``. Zero,
        negative and non-finite fields fall in a 3E^2 interval."""
        E = np.asarray(E, dtype=float)
        scalar = E.ndim == 0
        E = np.atleast_1d(E)
        b, kinds, params = self._segments
        idx = np.clip(np.searchsorted(b, E, side="right") - 1, 0, len(kinds) - 1)
        out = np.empty_like(E)
        for code, expr in ((_TWO, two), (_THREE, three), (_BRIDGE, bridge)):
            m = kinds[idx] == code
            if m.any():
                out[m] = expr(E[m], params[idx][m])
        return float(out[0]) if scalar else out

    def phi(self, E):
        """The oscillating part: Psi = phi + E^2."""
        return self._by_kind(E, lambda e, a: e**2, lambda e, a: 2.0 * e**2,
                             lambda e, a: 4.0 * a * e - 2.0 * a**2)

    def psi(self, E):
        E = np.asarray(E, dtype=float)
        return self.phi(E) + E**2

    def sigma_psi(self, E):
        """Conductivity realizing Psi: sigma(E) = Psi'(E)/E, and its limit
        6 at E = 0. Bridges lie at positive E, so none divides by zero."""
        return self._by_kind(E, lambda e, a: np.full_like(e, 4.0),
                             lambda e, a: np.full_like(e, 6.0),
                             lambda e, a: 2.0 + 4.0 * a / e)


def build_counterexample(L, lambda_double_1, n_terms=8):
    """Scale cascade and energy density per the tangent-bridge recipe."""
    return CounterexampleModel(float(L), float(lambda_double_1), int(n_terms))


# ---------------------------------------------------------------------------
# quadrature and the separation report
# ---------------------------------------------------------------------------


def _polar_integral(f, rho_lo, rho_hi, n_rho, n_theta):
    rho = rho_lo + (np.arange(n_rho) + 0.5) * (rho_hi - rho_lo) / n_rho
    th = (np.arange(n_theta) + 0.5) * 2.0 * np.pi / n_theta
    cos_t, sin_t = np.cos(th), np.sin(th)
    total = 0.0
    for block in np.array_split(rho, max(1, n_rho * n_theta // 2_000_000)):
        X = block[:, None] * cos_t[None, :]
        Y = block[:, None] * sin_t[None, :]
        total += float(np.sum(f(X, Y) * block[:, None]))
    return total * (rho_hi - rho_lo) / n_rho * 2.0 * np.pi / n_theta


#: radial cells of the first midpoint rule, and how often they double
_N0, _MAX_DOUBLINGS = 32, 6


def _converged_polar_integral(f, rho_lo, rho_hi, rtol):
    # accept when successive Richardson extrapolants of the midpoint rule
    # agree; the raw rule alone converges too slowly to test against rtol
    raw_prev = ext_prev = None
    n = _N0
    for _ in range(_MAX_DOUBLINGS + 1):
        raw = _polar_integral(f, rho_lo, rho_hi, n, 2 * n)
        if raw_prev is not None:
            ext = raw + (raw - raw_prev) / 3.0
            if ext_prev is not None and abs(ext - ext_prev) <= rtol * max(
                abs(ext), 1e-300
            ):
                return ext
            ext_prev = ext
        raw_prev, n = raw, 2 * n
    raise QuadratureError(
        f"polar quadrature did not converge to rtol={rtol} on [{rho_lo}, {rho_hi}]"
    )


@dataclass(frozen=True)
class EnergySeparation:
    """Quadrature-validated comparison of the two weighted energies and
    the scaled oscillating functionals along both scale sequences.

    ``g_prime[n]`` is the Psi-functional of v at scale lambda_prime[n];
    ``h_double[n]`` the Psi-functional of w at lambda_double[n]. On their
    matching plateaus the outer-band contributions are exactly
    2x and 3x the respective gradient energies."""

    r: float
    L: float
    ell1: float
    ell2: float
    ell1_exact: float
    ell2_exact: float
    lambda_prime: np.ndarray
    g_prime: np.ndarray
    lambda_double: np.ndarray
    h_double: np.ndarray

    @property
    def separated(self):
        return self.ell1 < self.ell2

    @property
    def margin(self):
        return self.ell2 - self.ell1


def _psi_functional(fields, model, lam, which, rtol):
    """(1/lam^2) * integral of Psi(lam * |grad field|) over both bands."""
    grad = fields.grad_v if which == "v" else fields.grad_w

    def f(x, y):
        gx, gy = grad(x, y)
        return model.psi(lam * np.hypot(gx, gy))

    total = 0.0
    for lo, hi in ((1.0, 2.0), (2.0, fields.r)):
        total += _converged_polar_integral(f, lo, hi, rtol=rtol)
    return total / lam**2


def counterexample_energies(r, L=11.0, model=None, n_scales=4, rtol=1e-7):
    """Quadrature evaluation of the weighted energies ell1 and ell2 and of
    the scaled Psi-functionals along the first ``n_scales`` entries of
    each scale sequence. Raises QuadratureError when the Richardson check
    fails."""
    fields = annulus_fields(r)
    if model is None:
        model = build_counterexample(L, 1.0, n_terms=max(n_scales, 1))

    def sq(g):
        def squared(x, y):
            gx, gy = g(x, y)
            return gx ** 2 + gy ** 2
        return squared

    v2, w2 = sq(fields.grad_v), sq(fields.grad_w)
    ell1 = 2.0 * _converged_polar_integral(
        v2, 2.0, r, rtol=rtol
    ) + 3.0 * _converged_polar_integral(v2, 1.0, 2.0, rtol=rtol)
    ell2 = 3.0 * _converged_polar_integral(
        w2, 2.0, r, rtol=rtol
    ) + 2.0 * _converged_polar_integral(w2, 1.0, 2.0, rtol=rtol)

    lp = model.lambda_prime[:n_scales]
    ld = model.lambda_double[:n_scales]
    g = np.array([_psi_functional(fields, model, s, "v", rtol) for s in lp])
    h = np.array([_psi_functional(fields, model, s, "w", rtol) for s in ld])
    return EnergySeparation(
        r=float(r),
        L=model.L,
        ell1=ell1,
        ell2=ell2,
        ell1_exact=fields.ell1(),
        ell2_exact=fields.ell2(),
        lambda_prime=lp,
        g_prime=g,
        lambda_double=ld,
        h_double=h,
    )
