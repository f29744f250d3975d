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
solve. Each iterate's field is computed once and read by both its energy
and the next step's sigma. A solve takes an optional ``fem.Assembler``
built for its mesh, boundary nodes and conductor split: ``lambda_sweep``
shares one across its points, ``tomography.conductance_matrix`` across
its patterns. Every converged solve runs two cheap monitors — energy descent
along the iterates and the discrete maximum principle — and files
anything suspicious in the module-level ``VIOLATIONS`` registry so a test
session can assert that nothing was ever silently wrong.

``iterations`` on a returned FieldSolution counts fixed-point steps.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import fem
from . import mesh as qmesh
# bench/spans.py checks and wraps this binding; nothing here calls it
from .materials import sigma as material_sigma  # noqa: F401
from .materials import validate_assumptions

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
    "solve_pec_limit",
    "solve_pei_limit",
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
    minimises a majorant of the energy (module docstring).
    ``initial_guess`` is None (solve once with sigma frozen at a
    data-scale field) or a nodal array whose free-dof values start the
    iteration; linearized systems go to ``fem.solve_spd`` at defaults.
    """

    max_picard_iter: int = 200
    picard_tol: float = 1e-8
    initial_guess: np.ndarray | None = None

    def __post_init__(self):
        if self.picard_tol <= 0:
            raise ValueError("picard_tol must be positive")
        if self.max_picard_iter < 1:
            raise ValueError("max_picard_iter must be at least 1")
        if self.initial_guess is not None and np.ndim(self.initial_guess) != 1:
            raise ValueError("initial_guess must be None or a nodal array")


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
        if model.kind == "weighted-power" and model.p > 2.0:
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


def _check_assembler(asm, mesh, nodes, pec_regions, excluded_regions):
    """Raise ValueError unless ``asm`` was built for this mesh object,
    boundary node set and conductor split."""
    if asm.mesh is not mesh:
        raise ValueError("assembler was built for another mesh")
    if not np.array_equal(asm.bc_nodes, nodes):
        raise ValueError("assembler was built for another boundary node set")
    if (set(asm.pec_regions) != set(pec_regions)
            or set(asm.excluded_regions) != set(excluded_regions)):
        raise ValueError(
            f"assembler was built for another conductor split: pec "
            f"{sorted(asm.pec_regions)} and excluded "
            f"{sorted(asm.excluded_regions)}, not {sorted(pec_regions)} and "
            f"{sorted(excluded_regions)}"
        )


def _field(mesh, u):
    """(element gradients, their magnitudes) of nodal potentials u."""
    grads = fem.element_gradients(mesh, u)
    return grads, np.hypot(grads[:, 0], grads[:, 1])


def solve_nonlinear(mesh, material_map, f, config=None, pec_regions=(),
                    excluded_regions=(), context="nonlinear", assembler=None):
    """Quasilinear Dirichlet solve by fixed-point (Kachanov) iteration.

    ``f`` is a (nodes, values) pair. Regions in ``pec_regions`` are
    merged to floating constants, regions in ``excluded_regions`` are
    dropped from assembly; neither needs an entry in ``material_map``.
    The damping follows from the active materials (``NonlinearSolveConfig``).
    ``assembler`` is an optional ``fem.Assembler`` to reuse, with its
    cached deflation basis, across solves; it must have been built for
    this mesh object, the nodes of ``f`` and this conductor split, or
    ValueError names what differs.
    """
    config = config or NonlinearSolveConfig()
    nodes, values = _boundary_pair(f)
    if assembler is None:
        asm = fem.Assembler(mesh, nodes, pec_regions, excluded_regions)
    else:
        _check_assembler(assembler, mesh, nodes, pec_regions,
                         excluded_regions)
        asm = assembler
    skip = tuple(pec_regions) + tuple(excluded_regions)
    active = [lab for lab in mesh.region_elements() if lab not in skip]
    for lab in active:
        material_map.for_region(lab)  # fail early on a missing material
    damping = _auto_damping(material_map, active)
    kept = asm.kept

    def energy_of(u, e_mag):
        return fem.dirichlet_energy(mesh, material_map, u, skip_regions=skip,
                                    e_mag=e_mag)

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

    # The system last solved: (sigma, x). Each linearized solve starts
    # cold, so it is a fixed function of sigma (the boundary values never
    # change within a solve), and a step whose sigma equals the last one
    # bit for bit reuses its answer instead of solving again. A
    # field-independent map then takes one linear solve, not two.
    solved = None

    def linear_solve(sig):
        nonlocal solved
        if solved is not None and np.array_equal(sig, solved[0]):
            return solved[1]
        x_lin = fem.solve_spd(asm.assemble(sig, values),
                              coarse=asm.deflation_basis).x
        solved = (sig, x_lin)
        return x_lin

    # initial iterate
    if config.initial_guess is not None:
        u = np.asarray(config.initial_guess, dtype=float)
        if u.shape != (mesh.node_count,):
            raise ValueError("provided initial guess must be a nodal vector")
        # project the guess onto this bc: free dofs only
        free = asm.node_dof >= 0
        x = np.zeros(asm.n_free)
        x[asm.node_dof[free]] = u[free]
    else:
        diam = float(np.max(mesh.nodes.max(axis=0) - mesh.nodes.min(axis=0)))
        e_char = span / max(diam, 1e-300)
        x = linear_solve(material_map.sigma_elements(
            mesh, np.full(mesh.element_count, e_char), active))
    u = asm.expand(x, values)
    # each iterate's field feeds both its energy and the next step's sigma
    grads, e_mag = _field(mesh, u)

    energies = [energy_of(u, e_mag)]
    changes = []
    converged = False
    for _ in range(config.max_picard_iter):
        _check_finite_field(e_mag, kept, context)
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
            el = kept[0] if len(kept) else 0
            raise NumericalBreakdownError(
                f"{context}: linear solve produced a non-finite value", el
            )
        x_new = (1.0 - damping) * x + damping * x_lin
        scale = max(float(np.max(np.abs(x_new))), 1e-300)
        change = float(np.max(np.abs(x_new - x))) / scale
        x = x_new
        u = asm.expand(x, values)
        grads, e_mag = _field(mesh, u)
        energies.append(energy_of(u, e_mag))
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


def _as_map(mesh, matrix_material, hidden_regions):
    from .materials import MaterialMap, MaterialModel

    if isinstance(matrix_material, MaterialModel):
        return MaterialMap({lab: matrix_material
                            for lab in mesh.region_elements()
                            if lab not in hidden_regions})
    return matrix_material


def solve_pec_limit(mesh, matrix_material, pec_regions, f, config=None):
    """Limiting solve with the inclusions replaced by perfect conductors.

    ``matrix_material`` is a single model applied to every non-merged
    region, or a full MaterialMap. A field-independent model (linear, or
    weighted power with exponent 2) converges in one step."""
    mmap = _as_map(mesh, matrix_material, pec_regions)
    return solve_nonlinear(mesh, mmap, f, config, pec_regions=pec_regions,
                           context="pec-limit")


def solve_pei_limit(mesh, matrix_material, pei_regions, f, config=None):
    """Limiting solve with the inclusions replaced by perfect insulators."""
    mmap = _as_map(mesh, matrix_material, pei_regions)
    return solve_nonlinear(mesh, mmap, f, config,
                           excluded_regions=pei_regions, context="pei-limit")


# ---------------------------------------------------------------------------
# boundary profiles and the sweep driver
# ---------------------------------------------------------------------------


def boundary_weights(mesh, nodes):
    """Lumped boundary-edge lengths for the given boundary nodes."""
    nodes = np.asarray(nodes, dtype=np.int64)
    in_set = np.zeros(mesh.node_count, dtype=bool)
    in_set[nodes] = True
    w = np.zeros(mesh.node_count)
    for i, j, _ in mesh.boundary_edges:
        if in_set[i] and in_set[j]:
            length = float(np.linalg.norm(mesh.nodes[j] - mesh.nodes[i]))
            w[i] += 0.5 * length
            w[j] += 0.5 * length
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
    f_nodes: np.ndarray
    f_values: np.ndarray
    p0: float

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


def _warn_exponent_mismatch(material_map, inclusion_regions, p0, limit_kind):
    for lab in inclusion_regions:
        try:
            model = material_map.for_region(lab)
            ref = model.e0 if model.e0 > 0 else 1.0
            grid = np.geomspace(ref * 1e-5, ref * 1e5, 121)
            report = validate_assumptions(model, grid)
        except (KeyError, ValueError):
            # no material for the region, or a law the check cannot sample
            continue
        q0 = report.small_exponent
        if not np.isfinite(q0):
            continue
        tol = report.EXPONENT_TOL
        if limit_kind == "pec" and q0 >= p0 - tol:
            warnings.warn(
                f"region '{lab}' has small-field exponent {q0:.3f}, not below "
                f"p0={p0}; the perfect-conductor limit may not apply",
                stacklevel=3,
            )
        if limit_kind == "pei" and q0 <= p0 + tol:
            warnings.warn(
                f"region '{lab}' has small-field exponent {q0:.3f}, not above "
                f"p0={p0}; the perfect-insulator limit may not apply",
                stacklevel=3,
            )


def lambda_sweep(mesh, material_map, f, lambda_grid, limit_kind, p0=2.0,
                 config=None):
    """Solve at boundary data lam*f over a decreasing grid of lam and
    compare normalized solutions against the stated limiting problem.

    The mesh's inclusions are the regions that the limit replaces: by
    perfect conductors when ``limit_kind`` is "pec", by perfect
    insulators when it is "pei". The limiting solution is solved here,
    with ``config``, like every point. Individual failures are recorded
    in ``status`` and do not abort the sweep."""
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    if lambda_grid.ndim != 1 or len(lambda_grid) == 0:
        raise ValueError("lambda grid must be a non-empty 1-d array")
    if np.any(lambda_grid <= 0) or np.any(np.diff(lambda_grid) >= 0):
        raise ValueError("lambda grid must be positive and strictly decreasing")
    if limit_kind not in ("pec", "pei"):
        raise ValueError("limit_kind must be 'pec' or 'pei'")

    nodes, values = _boundary_pair(f)
    _check_zero_mean(mesh, nodes, values)

    inclusion_regions = tuple(mesh.inclusion_regions())
    _warn_exponent_mismatch(material_map, inclusion_regions, p0, limit_kind)

    matrix_labels = [lab for lab in mesh.region_elements()
                     if lab not in inclusion_regions]
    limit = solve_pec_limit if limit_kind == "pec" else solve_pei_limit
    limit_solution = limit(mesh, material_map, inclusion_regions,
                           (nodes, values), config)

    mat_el = np.isin(mesh.element_region, matrix_labels)
    area = qmesh.element_areas(mesh)[mat_el]
    mat_nodes = np.unique(mesh.elements[mat_el])
    v_lim = limit_solution.nodal_potential
    lim_el = v_lim[mesh.elements[mat_el]].mean(axis=1)
    lim_l2 = float(np.sqrt(np.sum(area * lim_el**2)))
    lim_max = float(np.max(np.abs(v_lim[mat_nodes])))

    # one assembler, and one deflation basis, for every point: they share
    # the mesh, the boundary nodes and the (empty) conductor split
    asm = fem.Assembler(mesh, nodes)
    base = config or NonlinearSolveConfig()
    n = len(lambda_grid)
    e2 = np.full(n, np.nan)
    einf = np.full(n, np.nan)
    g0 = np.full(n, np.nan)
    iters = np.zeros(n, dtype=int)
    status = []
    solutions = []
    prev = None
    prev_lam = None
    for k, lam in enumerate(lambda_grid):
        cfg = base
        if prev is not None:
            guess = prev.nodal_potential * (lam / prev_lam)
            cfg = replace(base, initial_guess=guess)
        try:
            sol = solve_nonlinear(
                mesh, material_map, (nodes, lam * values), cfg,
                context=f"sweep lambda={lam:.3e}", assembler=asm,
            )
        except (PicardNonConvergenceError, NumericalBreakdownError,
                fem.NonConvergenceError) as err:
            status.append(f"error: {err}")
            solutions.append(None)
            continue
        v = sol.nodal_potential / lam
        v_el = v[mesh.elements[mat_el]].mean(axis=1)
        e2[k] = float(np.sqrt(np.sum(area * (v_el - lim_el) ** 2))) / lim_l2
        einf[k] = float(np.max(np.abs(v[mat_nodes] - v_lim[mat_nodes]))) / lim_max
        g0[k] = sol.energy / lam**p0
        iters[k] = sol.iterations
        status.append("ok")
        solutions.append(sol)
        prev, prev_lam = sol, lam
    return LambdaSweep(
        lambdas=lambda_grid, e2=e2, einf=einf, g0=g0, picard_iters=iters,
        status=tuple(status), limit=limit_solution, solutions=tuple(solutions),
        f_nodes=nodes, f_values=values, p0=float(p0),
    )
