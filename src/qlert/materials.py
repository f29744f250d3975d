"""Conductivity laws sigma(E), their energy densities, and growth checks.

Every model evaluates through one piecewise representation (constant,
power, and affine pieces in the field magnitude E), built once per model
from the regularized law. The energy density is the exact integral of
sigma(xi)*xi over those same pieces, so the differential consistency
dQ/dE = sigma(E)*E holds for precisely the function the solver sees, not
for an idealized cousin of it.

Built-in laws
-------------
Every factory but ``tabulated`` builds one weighted power law,
sigma(E) = theta * E**m, with energy theta*E**(m+2)/(m+2), so both its
growth exponents p and p0 are m + 2:

linear
    m = 0, theta = sigma0; p = p0 = 2.
weighted_power
    m = p - 2; sigma(E) = theta * E**(p-2).
ej_power_law
    sigma(E) = (jc/e0) * (E/e0)**((1-n)/n), the standard superconductor
    E-J characterization: m = (1-n)/n, theta = (jc/e0) * e0**(-m). Its
    energy grows like E**(1/n+1): p = p0 = m + 2.
tabulated
    Piecewise-linear sigma between samples, constant beyond the ends,
    so its energy grows like E**2 at both ends: p = p0 = 2.

Regularization: evaluation uses max(E, e_floor) and caps sigma at
sigma_cap (``DEFAULT_E_FLOOR`` and ``DEFAULT_SIGMA_CAP`` for every
factory), so assembled systems stay bounded even for laws that blow up
as E -> 0. ``MaterialModel.without_regularization()`` gives the bare
law; ``dataclasses.replace`` sets other values.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

__all__ = [
    "MaterialModel",
    "MaterialMap",
    "ValidationReport",
    "linear",
    "weighted_power",
    "ej_power_law",
    "tabulated",
    "preset",
    "PRESET_TABLE",
    "sigma",
    "energy_density",
    "validate_assumptions",
    "DEFAULT_E_FLOOR",
    "DEFAULT_SIGMA_CAP",
]

DEFAULT_E_FLOOR = 1e-12  # V/m
DEFAULT_SIGMA_CAP = 1e16  # S/m

# critical current density in A/mm^2 and power-law index n
PRESET_TABLE = {
    "BSCCO-EAS": (85.0, 17.0),
    "BSCCO-AMSC": (135.0, 16.0),
    "YBCO-AMSC": (136.0, 28.0),
    "YBCO-SP-SF12100": (290.0, 30.0),
    "YBCO-SP-SCS12050": (210.0, 36.0),
}

_CONST, _POWER, _AFFINE = 0, 1, 2


@dataclass(frozen=True)
class _Piece:
    lo: float
    hi: float
    code: int
    a: float  # const value | power prefactor | affine intercept
    c: float  # unused | power exponent | affine slope

    def sigma_at(self, E):
        if self.code == _CONST:
            return np.full_like(E, self.a, dtype=float)
        if self.code == _POWER:
            return self.a * E**self.c
        return self.a + self.c * E

    def integral(self, lo, hi):
        """Exact integral of sigma(xi)*xi over [lo, hi]."""
        if self.code == _CONST:
            return 0.5 * self.a * (hi**2 - lo**2)
        if self.code == _POWER:
            m = self.c + 2.0  # growth exponent, positive for admissible laws
            return self.a * (hi**m - lo**m) / m
        return 0.5 * self.a * (hi**2 - lo**2) + self.c * (hi**3 - lo**3) / 3.0


@dataclass(frozen=True)
class MaterialModel:
    """Immutable isotropic conductivity law: the weighted power law
    sigma = theta * E**m, or the table (``e_table``, ``sigma_table``)
    when one is given.

    ``p`` and ``p0``, the large- and small-field growth exponents of the
    energy density, follow from the law (module docstring). ``e0`` is the
    field scale used for growth comparisons (the power-law criterion
    field for superconductors).
    """

    theta: float = 0.0
    m: float = 0.0
    e0: float = 1.0
    e_table: np.ndarray | None = None
    sigma_table: np.ndarray | None = None
    e_floor: float = DEFAULT_E_FLOOR
    sigma_cap: float = DEFAULT_SIGMA_CAP

    def __post_init__(self):
        if self.e_floor < 0 or self.sigma_cap <= 0:
            raise ValueError("need e_floor >= 0 and sigma_cap > 0")
        if self.e_table is not None:
            et = np.ascontiguousarray(self.e_table, dtype=float)
            st = np.ascontiguousarray(self.sigma_table, dtype=float)
            if et.ndim != 1 or et.shape != st.shape or len(et) < 2:
                raise ValueError("tabulated law needs matching 1D arrays, >= 2 rows")
            if np.any(np.diff(et) <= 0) or et[0] < 0:
                raise ValueError("tabulated E grid must be nonnegative increasing")
            if np.any(st <= 0):
                raise ValueError("tabulated sigma must be positive")
            et.setflags(write=False)
            st.setflags(write=False)
            object.__setattr__(self, "e_table", et)
            object.__setattr__(self, "sigma_table", st)

    # -- piecewise machinery -------------------------------------------------

    @cached_property
    def _pieces(self):
        cap, floor = self.sigma_cap, self.e_floor
        cuts = {0.0, np.inf}
        if floor > 0:
            cuts.add(floor)
        if self.e_table is not None:
            cuts.update(float(e) for e in self.e_table if e > 0)
        elif self.m != 0.0 and np.isfinite(cap) and self.theta > 0:
            ecap = (cap / self.theta) ** (1.0 / self.m)
            if np.isfinite(ecap) and ecap > 0:
                cuts.add(ecap)
        bounds = np.array(sorted(cuts))
        pieces = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if np.isinf(hi):
                mid = 2 * lo if lo > 0 else 1.0
            else:
                mid = 0.5 * hi if lo == 0 else 0.5 * (lo + hi)
            pieces.append(self._classify(lo, hi, mid))
        cum = np.zeros(len(pieces) + 1)
        for i, pc in enumerate(pieces):
            if np.isfinite(pc.hi):
                cum[i + 1] = cum[i] + pc.integral(pc.lo, pc.hi)
            else:
                cum[i + 1] = np.inf
        return bounds, pieces, cum

    def _classify(self, lo, hi, mid):
        cap, floor = self.sigma_cap, self.e_floor
        e_eff = max(mid, floor)
        if self.e_table is None:
            theta, m = self.theta, self.m
            val = theta * e_eff**m if e_eff > 0 else np.inf
            if mid < floor or m == 0.0:
                return _Piece(lo, hi, _CONST, min(val, cap), 0.0)
            if val > cap:
                return _Piece(lo, hi, _CONST, cap, 0.0)
            return _Piece(lo, hi, _POWER, theta, m)
        # tabulated: constant below floor / outside the table, affine inside
        et, st = self.e_table, np.minimum(self.sigma_table, cap)
        if mid < floor or e_eff <= et[0] or e_eff >= et[-1]:
            return _Piece(lo, hi, _CONST, float(np.interp(e_eff, et, st)), 0.0)
        k = int(np.searchsorted(et, e_eff) - 1)
        slope = (st[k + 1] - st[k]) / (et[k + 1] - et[k])
        return _Piece(lo, hi, _AFFINE, float(st[k] - slope * et[k]), float(slope))

    def without_regularization(self):
        return replace(self, e_floor=0.0, sigma_cap=np.inf)

    @property
    def p(self):
        """Growth exponent of the energy density at large and small fields
        alike: m + 2, or 2 for a table, constant beyond its samples."""
        return 2.0 if self.e_table is not None else self.m + 2.0

    p0 = p

    @property
    def field_independent(self):
        """True when sigma is one constant for every field: a power law
        with exponent m = 0 (linear, or weighted power with p = 2)."""
        return self.e_table is None and self.m == 0.0


def _check_field(E):
    E = np.asarray(E, dtype=float)
    if np.any(~np.isfinite(E)) or np.any(E < 0):
        raise ValueError("field magnitude must be finite and nonnegative")
    return E


def _by_piece(model, E, value):
    """``value(i, piece, E_i)`` on the field magnitudes ``E_i`` that fall
    in piece i, assembled elementwise; a float for scalar ``E``."""
    E = _check_field(E)
    scalar = E.ndim == 0
    E = np.atleast_1d(E)
    bounds, pieces, _ = model._pieces
    idx = np.clip(np.searchsorted(bounds, E, side="right") - 1, 0, len(pieces) - 1)
    out = np.empty_like(E)
    for i, pc in enumerate(pieces):
        m = idx == i
        if m.any():
            out[m] = value(i, pc, E[m])
    return float(out[0]) if scalar else out


def sigma(model, E):
    """Regularized conductivity at field magnitude ``E`` (elementwise)."""
    with np.errstate(divide="ignore"):
        return _by_piece(model, E, lambda i, pc, e: pc.sigma_at(e))


def energy_density(model, E):
    """Energy density Q(E) = integral of sigma(xi)*xi from 0 to E."""
    cum = model._pieces[2]
    return _by_piece(model, E, lambda i, pc, e: cum[i] + pc.integral(pc.lo, e))


# ---------------------------------------------------------------------------
# factories
# ---------------------------------------------------------------------------


def linear(sigma0):
    if sigma0 <= 0:
        raise ValueError("sigma0 must be positive")
    return MaterialModel(theta=float(sigma0), m=0.0)


def weighted_power(theta, p):
    """sigma(E) = theta * E**(p-2), energy theta*E**p/p."""
    if theta <= 0 or p <= 1:
        raise ValueError("need theta > 0 and p > 1")
    return MaterialModel(theta=float(theta), m=float(p) - 2.0)


def ej_power_law(jc, n, e0=1e-4):
    """Superconductor power law: sigma(E) = (jc/e0)*(E/e0)**((1-n)/n).

    ``jc`` in A/m^2, ``e0`` in V/m. The energy density grows like
    E**(1/n + 1): p = p0 = m + 2 with m = (1-n)/n.
    """
    if jc <= 0 or n <= 1 or e0 <= 0:
        raise ValueError("need jc > 0, n > 1, e0 > 0")
    jc, n, e0 = float(jc), float(n), float(e0)
    # m is not p - 2: for n = 27, (1 + 1/n) - 2 != (1 - n)/n in floats
    m = (1.0 - n) / n
    return MaterialModel(theta=(jc / e0) * e0 ** (-m), m=m, e0=e0)


def tabulated(e_values, sigma_values):
    """Piecewise-linear sigma through the given samples, constant beyond
    the ends, so both growth exponents are 2."""
    return MaterialModel(
        e_table=np.asarray(e_values, dtype=float),
        sigma_table=np.asarray(sigma_values, dtype=float),
    )


def preset(name, e0=1e-4):
    """Named superconducting tape, critical current given in A/mm^2."""
    try:
        jc_mm2, n = PRESET_TABLE[name]
    except KeyError:
        raise ValueError(
            f"unknown preset '{name}', choose from {sorted(PRESET_TABLE)}"
        ) from None
    return ej_power_law(jc_mm2 * 1e6, n, e0=e0)


# ---------------------------------------------------------------------------
# region map
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MaterialMap:
    """Region label -> MaterialModel."""

    models: dict = field(default_factory=dict)

    def for_region(self, label):
        try:
            return self.models[label]
        except KeyError:
            raise KeyError(f"no material for region '{label}'") from None

    def _by_model(self, regions):
        """The ``(label, elements)`` pairs of ``regions`` grouped by the
        identity of their model, in order of first appearance: a list of
        (model, the elements of its regions concatenated). A law is
        elementwise, so one call on a group's elements gives each element
        the value that one call per region would."""
        groups = {}
        for label, elements in regions:
            model = self.for_region(label)
            groups.setdefault(id(model), (model, []))[1].append(elements)
        return [(model, parts[0] if len(parts) == 1 else np.concatenate(parts))
                for model, parts in groups.values()]

    def sigma_elements(self, mesh, E_elements, labels):
        """Per-element conductivity for per-element field magnitudes.

        Evaluates the regions in ``labels`` and looks up no other; the
        elements of the others get the placeholder 1, and their fields are
        never read, so they may be NaN. Regions that share one model
        object take one ``sigma`` call on their elements together."""
        index = mesh.region_elements()
        regions = [(label, index[label]) for label in labels]
        out = np.ones(mesh.element_count)
        for model, m in self._by_model(regions):
            out[m] = sigma(model, E_elements[m])
        return out


# ---------------------------------------------------------------------------
# assumption checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of sampling-based growth and convexity checks.

    ``a3_lower``/``a3_upper`` sandwich Q between multiples of
    max((E/e0)**p0, (E/e0)**p) when ``a3_ok``; ``beta0`` is the small-field
    limit of Q/E**p0 when ``a4_ok``, else NaN and ``a4_oscillation``
    records how strongly that ratio keeps oscillating."""

    convex_ok: bool
    small_exponent: float
    large_exponent: float
    exponents_ok: bool
    a3_ok: bool
    a3_lower: float
    a3_upper: float
    a4_ok: bool
    beta0: float
    a4_oscillation: float

    EXPONENT_TOL = 0.05

    def all_ok(self):
        return self.convex_ok and self.exponents_ok and self.a3_ok and self.a4_ok


def validate_assumptions(model, e_grid):
    """Sample the (unregularized, for built-in laws) energy density over
    ``e_grid`` and check convexity, growth exponents, two-sided growth
    bounds, and existence of the small-field weight limit.

    The grid must span at least four decades on each side of the model's
    field scale ``e0``."""
    e = np.sort(_check_field(e_grid).ravel())
    e = e[e > 0]
    ref = model.e0 if model.e0 > 0 else 1.0
    if len(e) < 16:
        raise ValueError("grid too small: need at least 16 positive samples")
    if e[0] > ref * 1e-4 or e[-1] < ref * 1e4:
        raise ValueError("grid too small: must span e0/1e4 .. e0*1e4")

    probe = model if model.e_table is not None else model.without_regularization()
    q = energy_density(probe, e)
    s = np.diff(q) / np.diff(e)  # secant slopes; convexity = nondecreasing
    scale = np.maximum(np.abs(s[:-1]), np.abs(s[1:]))
    convex_ok = bool(np.all(np.diff(s) >= -1e-9 * scale))

    def loglog_slope(mask):
        if mask.sum() < 2:
            return np.nan
        return float(np.polyfit(np.log(e[mask]), np.log(q[mask]), 1)[0])

    small = loglog_slope(e <= e[0] * 10)
    large = loglog_slope(e >= e[-1] / 10)
    tol = ValidationReport.EXPONENT_TOL
    exponents_ok = bool(
        np.isfinite(small)
        and np.isfinite(large)
        and abs(small - model.p0) <= tol
        and abs(large - model.p) <= tol
    )

    envelope = np.maximum((e / ref) ** model.p0, (e / ref) ** model.p)
    ratio = q / envelope
    a3_lower, a3_upper = float(ratio.min()), float(ratio.max())
    # bounded spread = the claimed envelope really sandwiches Q; a drifting
    # ratio (misclaimed exponents) blows the spread up with the grid span.
    # An oscillating-but-bounded weight passes here even though the
    # pointwise slope fit above wanders.
    a3_ok = a3_lower > 0 and np.isfinite(a3_upper) and a3_upper / a3_lower <= 100.0

    low = e <= e[0] * 1e3
    t = q[low] / e[low] ** model.p0
    med = float(np.median(t))
    osc = float((t.max() - t.min()) / med) if med > 0 else np.inf
    a4_ok = osc <= 0.10
    beta0 = med if a4_ok else np.nan

    return ValidationReport(
        convex_ok=convex_ok,
        small_exponent=small,
        large_exponent=large,
        exponents_ok=exponents_ok,
        a3_ok=a3_ok,
        a3_lower=a3_lower,
        a3_upper=a3_upper,
        a4_ok=a4_ok,
        beta0=beta0,
        a4_oscillation=osc,
    )
