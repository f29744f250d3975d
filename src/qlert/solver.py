"""Nonlinear field solves, limiting solves, and the small-data sweep.

The quasilinear problem is solved by fixed-point (Kachanov) iteration:
freeze sigma at the previous iterate's element gradients, solve the
resulting weighted linear problem, repeat. Only a growing conductivity
needs damping; elsewhere each full step minimises a quadratic majorant of
the convex energy (Heid & Wihler, Math. Comp. 89, 2020; Diening,
Fornasier, Tomasi & Wank, Numer. Math. 145, 2020). Each linearized solve
goes to deflated conjugate gradients with one coarse vector per floating
region (``fem.Assembler.deflation_basis``): saturated petals next to a
copper matrix are near-constant, and plain Jacobi-PCG left an error of
1e-8..1e-7 of max|u| in each petal's constant, above ``picard_tol``, which
cost a Picard step per sweep point. Deflation solves those constants
exactly. Each linearized solve still starts cold, from zero, so that a
step is a fixed function of sigma and the loop stops once sigma stops
changing; it also lets a step whose sigma equals the last solved one bit
for bit reuse that solution, so a field-independent map takes one linear
solve. A sweep point solves the normalized problem for u/lambda on the
unit profile, with sigma and the stored energy taken at the physical
field, lambda times its own, so every point has the same data and a
point whose sigma did not move reuses the last point's solution as it
is. A cold solve (any but a warm-started sweep point) starts from the
small-data limit of the paper: sigma at zero field wherever it exceeds
sigma at the data-scale field, which puts saturating petals at
sigma_cap, the perfect conductor, and leaves every other region at its
data-scale sigma. That start is
kept only if sigma at its own field equals it bit for bit, so that it is
the exact fixed point of the regularized problem and one step confirms
it with change 0; otherwise the solve starts from sigma frozen at the
data-scale field. On the README cable below petal saturation (up to
about 20 mV at refinement 3) this replaces 5 to 40 steps by one linear
solve. Each iterate's field is computed once and read by both its energy
and the next step's sigma; a step that leaves the iterate unchanged bit
for bit keeps it. A solve's conductor split is that of its
``fem.Assembler``, and sigma and the stored energy are evaluated on its
``kept_regions`` alone: ``solve_limit`` and ``lambda_sweep`` build the
limit's through one helper, and the sweep reads its matrix regions and
elements from it; ``lambda_sweep`` shares one more across its points,
``tomography.ConductanceOperator`` one across the patterns of each
field-dependent matrix. Every converged solve runs two cheap monitors —
energy descent along the iterates and the discrete maximum principle —
and files anything suspicious in the module-level ``VIOLATIONS``
registry so a test session can assert that nothing was ever silently
wrong.

``iterations`` on a returned FieldSolution counts fixed-point steps.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import fem
from . import mesh as qmesh
# bench/spans.py checks and wraps this binding; nothing here calls it
from .materials import sigma as material_sigma  # noqa: F401

__all__ = [
    "NonlinearSolveConfig",
    "LambdaSweep",
    "PicardNonConvergenceError",
    "NumericalBreakdownError",
    "VIOLATIONS",
    "record_violation",
    "clear_violations",
    "check_max_principle",
    "solve_nonlinear",
    "solve_limit",
    "lambda_sweep",
    "log_grid",
    "linear_profile",
    "boundary_weights",
]

#: Monitor findings from every solve in the process, appended in order.
#: A clean run leaves this empty; tests assert that at teardown.
VIOLATIONS: list = []

ENERGY_DESCENT_RTOL = 1e-9
MAX_PRINCIPLE_RTOL = 1e-8


def record_violation(kind, context, magnitude, detail=""):
    VIOLATIONS.append(
        {"kind": kind, "context": context, "magnitude": float(magnitude),
         "detail": detail}
    )


def clear_violations():
    VIOLATIONS.clear()


class PicardNonConvergenceError(RuntimeError):
    """Fixed-point iteration hit its cap. Carries both histories."""

    def __init__(self, message, energy_history, change_history):
        super().__init__(message)
        self.energy_history = np.asarray(energy_history)
        self.change_history = np.asarray(change_history)


class NumericalBreakdownError(RuntimeError):
    """A non-finite field value appeared; ``element`` locates it."""

    def __init__(self, message, element):
        super().__init__(message)
        self.element = int(element)


@dataclass(frozen=True)
class NonlinearSolveConfig:
    """Fixed-point controls.

    The damping is not a control: the solve damps by 0.7 when a weighted
    power law with p > 2, whose conductivity grows with the field, is
    active, and takes full steps otherwise (E-J, linear), each of which
    minimises a majorant of the energy (module docstring). Linearized
    systems go to ``fem.solve_spd`` at defaults.
    """

    max_picard_iter: int = 200
    picard_tol: float = 1e-8

    def __post_init__(self):
        if self.picard_tol <= 0:
            raise ValueError("picard_tol must be positive")
        if self.max_picard_iter < 1:
            raise ValueError("max_picard_iter must be at least 1")


def _boundary_pair(f):
    nodes, values = f
    nodes = np.asarray(nodes, dtype=np.int64)
    values = np.asarray(values, dtype=float)
    order = np.argsort(nodes)
    nodes, values = nodes[order], values[order]
    if not np.all(np.isfinite(values)):
        raise ValueError("boundary values must be finite")
    return nodes, values


def _auto_damping(material_map, labels):
    for lab in labels:
        model = material_map.for_region(lab)
        if model.p > 2.0:
            return 0.7
    return 1.0


def _check_finite_field(e_mag, kept, context):
    bad = ~np.isfinite(e_mag[kept])
    if bad.any():
        el = kept[np.argmax(bad)]
        raise NumericalBreakdownError(
            f"{context}: non-finite field in element {el}", el
        )


def _monitor(u, bc_values, energies, context, damping):
    """Energy descent + maximum principle; files violations, returns dict."""
    monitors = {"context": context, "damping": float(damping)}
    energies = np.asarray(energies)
    if len(energies) >= 2:
        scale = np.abs(energies[:-1]) * ENERGY_DESCENT_RTOL + 1e-300
        rise = energies[1:] - energies[:-1]
        ok = bool(np.all(rise <= scale))
        monitors["energy_descent_ok"] = ok
        monitors["energy_max_rise"] = float(np.max(rise))
        if not ok:
            record_violation(
                "energy-descent", context, float(np.max(rise)),
                f"damping={damping}",
            )
    else:
        monitors["energy_descent_ok"] = True
    ok, excess = check_max_principle(u[:, None], bc_values[:, None],
                                     [context])
    monitors["max_principle_ok"] = bool(ok[0])
    monitors["max_principle_excess"] = float(excess[0])
    return monitors


def check_max_principle(u, bc_values, contexts):
    """Discrete maximum principle, column by column: the finite entries of
    each column of ``u`` (n, k) stay within the range of the same column
    of ``bc_values`` up to MAX_PRINCIPLE_RTOL of its span. Files a breach
    of column j under ``contexts[j]``; returns (ok, excess >= 0), one
    entry per column."""
    finite = np.isfinite(u)
    lo, hi = bc_values.min(axis=0), bc_values.max(axis=0)
    span = np.maximum.reduce([hi - lo, np.abs(hi), np.abs(lo),
                              np.full_like(hi, 1e-300)])
    under = lo - np.where(finite, u, np.inf).min(axis=0)
    over = np.where(finite, u, -np.inf).max(axis=0) - hi
    worst = np.maximum(under, over)
    ok = worst <= MAX_PRINCIPLE_RTOL * span
    for j in np.flatnonzero(~ok):
        record_violation("max-principle", contexts[j], worst[j],
                         f"span={float(span[j])}")
    return ok, np.maximum(worst, 0.0)


def _check_assembler(asm, mesh, nodes):
    """Raise ValueError unless ``asm`` was built for this mesh object and
    boundary node set; a repeated node is left to the values' alignment
    check, which every entry point raises alike."""
    if asm.mesh is not mesh:
        raise ValueError("assembler was built for another mesh")
    if not np.array_equal(asm.bc_nodes, np.unique(nodes)):
        raise ValueError("assembler was built for another boundary node set")


def _field(mesh, u, lam):
    """(element gradients, lam times their magnitudes) of nodal
    potentials u: the physical field of u scaled by lam."""
    grads = fem.element_gradients(mesh, u)
    return grads, lam * np.hypot(grads[:, 0], grads[:, 1])


class _LastSolve:
    """The last linearized system solved: its sigma and its solution.
    Every system that shares one has the same boundary data, so one whose
    sigma equals the last bit for bit is solved by that solution. A solve
    holds one for its own steps; ``lambda_sweep`` shares one across its
    points, which all solve the unit profile."""

    def __init__(self):
        self._last = None

    def lookup(self, sigma):
        """The last solution if ``sigma`` was the last solved, else None."""
        if self._last is None or not np.array_equal(sigma, self._last[0]):
            return None
        return self._last[1]

    def store(self, sigma, x):
        self._last = (sigma, x)


def solve_nonlinear(mesh, material_map, f, config=None, context="nonlinear",
                    assembler=None, *, _warm=None):
    """Quasilinear Dirichlet solve by fixed-point (Kachanov) iteration.

    ``f`` is a (nodes, values) pair. ``assembler``, a ``fem.Assembler``
    built for this mesh object and the nodes of ``f`` (or ValueError
    names what differs), carries the conductor split and its cached
    deflation basis; its ``pec_regions`` float, its ``excluded_regions``
    are dropped, and only its ``kept_regions`` need a material and set
    the damping (``NonlinearSolveConfig``). By default the solve builds
    one that keeps every region. ``_warm`` is ``lambda_sweep``'s triple
    (free-dof start or None, shared ``_LastSolve``, lambda) for a point:
    ``f`` is then the unit profile and the solution u/lambda, whose sigma
    and stored energy are those of u. A solve of its own has lambda 1 and
    starts cold with a fresh ``_LastSolve``.
    """
    config = config or NonlinearSolveConfig()
    nodes, values = _boundary_pair(f)
    if assembler is not None:
        _check_assembler(assembler, mesh, nodes)
    asm = assembler or fem.Assembler(mesh, nodes)
    active = asm.kept_regions
    for lab in active:
        material_map.for_region(lab)  # fail early on a missing material
    damping = _auto_damping(material_map, active)
    kept = asm.kept

    def energy_of(e_mag):
        _check_finite_field(e_mag, kept, context)
        return fem.dirichlet_energy(mesh, material_map, e_mag, active)

    span = float(values.max() - values.min())
    if span == 0.0:
        # constant data: the constant field is the exact minimizer
        u = asm.expand(np.full(asm.n_free, values[0]), values)
        monitors = _monitor(u, values, [0.0], context, damping)
        return fem.FieldSolution(
            nodal_potential=u,
            element_gradient=fem.element_gradients(mesh, u),
            energy=0.0,
            iterations=0,
            monitors=monitors,
        )

    # Each linearized solve starts cold, so it is a fixed function of
    # sigma and the data, and a step whose sigma equals the last solved
    # one bit for bit reuses that answer (``_LastSolve``): a
    # field-independent map takes one linear solve, not two, and a sweep
    # point whose sigma did not move reuses the last point's solve.
    start, last, lam = (_warm if _warm is not None
                        else (None, _LastSolve(), 1.0))

    def linear_solve(sig):
        x_lin = last.lookup(sig)
        if x_lin is not None:
            return x_lin
        bad = kept[~np.isfinite(sig[kept])]
        if len(bad):
            raise NumericalBreakdownError(
                f"{context}: conductivity is not finite on element "
                f"{bad[0]} ({sig[bad[0]]})", bad[0])
        x_lin = fem.solve_spd(asm.assemble(sig, values),
                              coarse=asm.deflation_basis).x
        last.store(sig, x_lin)
        return x_lin

    # initial iterate; fixed when it is the small-data start, whose field
    # and sigma the fixed-point check below has already computed. sig is
    # sigma at the current field once computed, None before
    fixed, sig = False, None
    if start is not None:
        x = start
    else:
        # per column: a reduction over axis 0 of (n, 2) is many times slower
        px, py = mesh.nodes.T
        diam = float(max(px.max() - px.min(), py.max() - py.min()))
        e_char = lam * span / max(diam, 1e-300)
        n_el = mesh.element_count
        sig_data = material_map.sigma_elements(
            mesh, np.full(n_el, e_char), active)
        # the small-data limit: laws that saturate at small fields start
        # at their zero-field sigma, sigma_cap for E-J petals; the rest
        # keep the data-scale one. Kept only if it is its own fixed point;
        # a law without a cap is infinite at zero field and never tried.
        sig_small = np.maximum(sig_data, material_map.sigma_elements(
            mesh, np.zeros(n_el), active))
        if np.all(np.isfinite(sig_small)):
            x = linear_solve(sig_small)
            u = asm.expand(x, values)
            grads, e_mag = _field(mesh, u, lam)
            if np.all(np.isfinite(e_mag[kept])):
                sig = material_map.sigma_elements(mesh, e_mag, active)
                fixed = np.array_equal(sig, sig_small)
        if not fixed:
            x = linear_solve(sig_data)
    if not fixed:
        u = asm.expand(x, values)
        # each iterate's field feeds both its energy and the next step's
        # sigma
        grads, e_mag = _field(mesh, u, lam)
        sig = None  # if any, of the rejected start's field

    energies = [energy_of(e_mag)]
    changes = []
    converged = False
    for _ in range(config.max_picard_iter):
        if sig is None:
            sig = material_map.sigma_elements(mesh, e_mag, active)
        # Start from zero, not from x: CG stops at a relative residual of
        # 1e-10, and where it lands inside that ball depends on its
        # start, so a warm start would make the change criterion measure
        # solver noise. Without deflation that noise sits in the constant
        # mode of each floating petal at 1e-8..1e-7 nodally, above
        # picard_tol; the coarse vectors solve that mode exactly. Cold,
        # each step stays a fixed function of sigma.
        x_lin = linear_solve(sig)
        if not np.all(np.isfinite(x_lin)):
            # an element touching the first non-finite free dof
            dof = np.argmin(np.isfinite(x_lin))
            touches = asm.node_dof[mesh.elements[kept]] == dof
            el = kept[np.argmax(touches.any(axis=1))]
            raise NumericalBreakdownError(
                f"{context}: linear solve produced a non-finite value", el
            )
        x_new = (1.0 - damping) * x + damping * x_lin
        scale = max(float(np.max(np.abs(x_new))), 1e-300)
        change = float(np.max(np.abs(x_new - x))) / scale
        if np.array_equal(x_new.view(np.int64), x.view(np.int64)):
            # the iterate did not move, signed zeros included: it keeps
            # its field, sigma and energy
            energies.append(energies[-1])
        else:
            x = x_new
            u = asm.expand(x, values)
            grads, e_mag = _field(mesh, u, lam)
            sig = None  # of the old field
            energies.append(energy_of(e_mag))
        changes.append(change)
        if change <= config.picard_tol:
            converged = True
            break
    if not converged:
        raise PicardNonConvergenceError(
            f"{context}: fixed-point change {changes[-1]:.3e} above tolerance "
            f"{config.picard_tol} after {config.max_picard_iter} iterations",
            energies, changes,
        )
    monitors = _monitor(u, values, energies, context, damping)
    return fem.FieldSolution(
        nodal_potential=u,
        element_gradient=grads,
        energy=energies[-1],
        iterations=len(changes),
        picard_energy=np.asarray(energies),
        picard_change=np.asarray(changes),
        monitors=monitors,
    )


def solve_limit(mesh, material_map, f, limit_kind, config=None):
    """Limiting solve with the mesh's inclusions replaced by perfect
    conductors (``limit_kind`` "pec": its Assembler merges them) or by
    perfect insulators ("pei": its Assembler excludes them). Only the
    other regions need a material; a field-independent map converges in
    one step."""
    return solve_nonlinear(mesh, material_map, f, config,
                           f"{limit_kind}-limit",
                           _limit_assembler(mesh, f[0], limit_kind))


def _limit_assembler(mesh, nodes, limit_kind):
    """The Assembler of the limit ``limit_kind`` on the boundary
    ``nodes``: the mesh's inclusions merged ("pec") or excluded ("pei"),
    so that its kept regions and elements are the rest, the matrix."""
    inclusions = tuple(mesh.inclusion_regions())
    if limit_kind == "pec":
        return fem.Assembler(mesh, nodes, pec_regions=inclusions)
    if limit_kind == "pei":
        return fem.Assembler(mesh, nodes, excluded_regions=inclusions)
    raise ValueError("limit_kind must be 'pec' or 'pei'")


# ---------------------------------------------------------------------------
# boundary profiles and the sweep driver
# ---------------------------------------------------------------------------


def boundary_weights(mesh, nodes):
    """Lumped boundary-edge lengths for the given boundary nodes."""
    nodes = np.asarray(nodes, dtype=np.int64)
    in_set = np.zeros(mesh.node_count, dtype=bool)
    in_set[nodes] = True
    i, j = mesh.boundary_edges[:, 0], mesh.boundary_edges[:, 1]
    both = in_set[i] & in_set[j]
    i, j = i[both], j[both]
    half = 0.5 * np.linalg.norm(mesh.nodes[j] - mesh.nodes[i], axis=1)
    w = np.zeros(mesh.node_count)
    np.add.at(w, i, half)
    np.add.at(w, j, half)
    return w[nodes]


def linear_profile(mesh, scale=1.0):
    """Boundary data proportional to x on the outer boundary.

    Returns (nodes, values) with values = scale * x, which has zero
    weighted boundary mean on a symmetric outer loop."""
    nodes = qmesh.outer_boundary_nodes(mesh)
    return nodes, scale * mesh.nodes[nodes, 0]


def log_grid(high, low, per_decade=9):
    """Strictly decreasing log-uniform grid from high down to low."""
    if not (high > low > 0):
        raise ValueError("need high > low > 0")
    decades = np.log10(high / low)
    count = max(2, int(round(decades * per_decade)) + 1)
    return np.geomspace(high, low, count)


@dataclass(frozen=True)
class LambdaSweep:
    """Per-scale results of a normalized-solution convergence study.

    ``e2``/``einf`` compare the normalized solution u/lam against the
    limiting solution in relative L2 (element-area weighted) and max
    norm, both restricted to the matrix region. ``g0`` is the full
    stored energy divided by lam**p0. Entries are NaN where ``status``
    records a failure."""

    lambdas: np.ndarray
    e2: np.ndarray
    einf: np.ndarray
    g0: np.ndarray
    picard_iters: np.ndarray
    status: tuple
    limit: fem.FieldSolution
    solutions: tuple

    CSV_HEADER = ("lambda", "e2", "einf", "G0_lambda", "picard_iters")

    def columns(self):
        """The per-scale arrays in ``CSV_HEADER`` order."""
        return (self.lambdas, self.e2, self.einf, self.g0, self.picard_iters)

    @property
    def all_ok(self):
        return all(s == "ok" for s in self.status)


def _check_zero_mean(mesh, nodes, values):
    w = boundary_weights(mesh, nodes)
    if w.sum() == 0:
        raise ValueError("boundary profile nodes carry no boundary edges")
    mean = float(w @ values) / float(w.sum())
    scale = max(float(np.max(np.abs(values))), 1e-300)
    if abs(mean) > 1e-8 * scale:
        raise ValueError(
            f"boundary profile must have zero weighted mean "
            f"(got relative mean {mean / scale:.2e})"
        )


def _limit_exponent(material_map, matrix_labels, inclusion_regions,
                    limit_kind):
    """The small-field exponent p0 that the laws of ``matrix_labels``
    share; ValueError unless they share one, KeyError for a region with
    no material. Warns once per inclusion whose small-field exponent q0
    is not below p0 ("pec") or not above it ("pei"), where the limit
    may not apply."""
    declared = {lab: material_map.for_region(lab).p0 for lab in matrix_labels}
    if len(set(declared.values())) != 1:
        raise ValueError(f"the regions outside the inclusions must declare "
                         f"one small-field exponent p0, got {declared}")
    p0 = next(iter(declared.values()))
    for lab in inclusion_regions:
        q0 = material_map.for_region(lab).p0
        if limit_kind == "pec" and q0 >= p0:
            warnings.warn(
                f"region '{lab}' has small-field exponent {q0:.3f}, not below "
                f"p0={p0}; the perfect-conductor limit may not apply",
                stacklevel=3,
            )
        if limit_kind == "pei" and q0 <= p0:
            warnings.warn(
                f"region '{lab}' has small-field exponent {q0:.3f}, not above "
                f"p0={p0}; the perfect-insulator limit may not apply",
                stacklevel=3,
            )
    return p0


def lambda_sweep(mesh, material_map, f, lambda_grid, limit_kind, config=None):
    """Solve the normalized problems for u_lam/lam, u_lam the solution
    at boundary data lam*f, over a decreasing grid of lam and compare
    them against the stated limiting problem.

    The mesh's inclusions are the regions that the limit replaces: by
    perfect conductors when ``limit_kind`` is "pec", by perfect
    insulators when it is "pei". The limiting solution is solved here,
    with ``config``, like every point. Each point solves for u_lam/lam
    on the profile ``f`` itself, with sigma and the stored energy taken
    at lam times its field, so every linearized system has the same data:
    a step whose sigma equals the last one solved in the sweep bit for bit
    (at every point where saturated petals sit at ``sigma_cap`` and the
    rest is linear) takes that solution instead of a linear solve. Each
    point after the first starts from the last converged point's
    solution, so a point whose sigma does not move computes one field and
    one energy. ``solutions`` holds the normalized fields; the ``energy``
    of each is the stored energy of u_lam, which ``g0`` divides by
    lam**p0, p0 the small-field exponent that the laws of the regions
    outside the inclusions declare (ValueError, before any solve, unless
    they declare one; KeyError, also before any solve, for a region with
    no material). Each inclusion whose own exponent is not strictly on
    the limit's side of p0 warns. Individual failures are recorded in
    ``status`` and do not abort the sweep."""
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    if lambda_grid.ndim != 1 or len(lambda_grid) == 0:
        raise ValueError("lambda grid must be a non-empty 1-d array")
    if np.any(lambda_grid <= 0) or np.any(np.diff(lambda_grid) >= 0):
        raise ValueError("lambda grid must be positive and strictly decreasing")

    nodes, values = _boundary_pair(f)
    _check_zero_mean(mesh, nodes, values)
    limit_asm = _limit_assembler(mesh, nodes, limit_kind)
    p0 = _limit_exponent(material_map, limit_asm.kept_regions,
                         mesh.inclusion_regions(), limit_kind)

    # a module global, so bench/spans.py's wrapper sees the limit solve
    limit_solution = solve_nonlinear(mesh, material_map, (nodes, values),
                                     config, f"{limit_kind}-limit", limit_asm)

    mat_el = limit_asm.kept
    del limit_asm  # freed before the points' Assembler is built
    area = qmesh.element_areas(mesh)[mat_el]
    mat_nodes = np.unique(mesh.elements[mat_el])
    v_lim = limit_solution.nodal_potential
    lim_el = v_lim[mesh.elements[mat_el]].mean(axis=1)
    lim_l2 = float(np.sqrt(np.sum(area * lim_el**2)))
    lim_max = float(np.max(np.abs(v_lim[mat_nodes])))

    # one assembler, and one deflation basis, for every point: they share
    # the mesh, the boundary nodes and the (empty) conductor split; and
    # one last linear solve, since they share the data too
    asm = fem.Assembler(mesh, nodes)
    last = _LastSolve()
    n = len(lambda_grid)
    e2 = np.full(n, np.nan)
    einf = np.full(n, np.nan)
    g0 = np.full(n, np.nan)
    iters = np.zeros(n, dtype=int)
    status = []
    solutions = []
    start = None  # the first point starts cold
    free = asm.node_dof >= 0
    for k, lam in enumerate(lambda_grid):
        try:
            # a module global, so bench/spans.py's wrapper sees each point
            sol = solve_nonlinear(
                mesh, material_map, (nodes, values), config,
                context=f"sweep lambda={lam:.3e}", assembler=asm,
                _warm=(start, last, lam),
            )
        except (PicardNonConvergenceError, NumericalBreakdownError,
                fem.NonConvergenceError) as err:
            status.append(f"error: {err}")
            solutions.append(None)
            continue
        v = sol.nodal_potential
        v_el = v[mesh.elements[mat_el]].mean(axis=1)
        e2[k] = float(np.sqrt(np.sum(area * (v_el - lim_el) ** 2))) / lim_l2
        einf[k] = float(np.max(np.abs(v[mat_nodes] - v_lim[mat_nodes]))) / lim_max
        g0[k] = sol.energy / lam**p0
        iters[k] = sol.iterations
        status.append("ok")
        solutions.append(sol)
        start = np.empty(asm.n_free)
        start[asm.node_dof[free]] = v[free]
    return LambdaSweep(
        lambdas=lambda_grid, e2=e2, einf=einf, g0=g0, picard_iters=iters,
        status=tuple(status), limit=limit_solution, solutions=tuple(solutions),
    )
