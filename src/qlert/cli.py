"""Configuration-driven command line.

Four subcommands over one JSON config format: ``solve`` (forward field),
``sweep`` (limit-approximation error versus excitation scale), ``oracle``
(closed-form validation battery), ``tomo`` (defect imaging pipeline; one
``tomography.ConductanceOperator`` serves the background, the defect and
every test domain).

The config is a strict tree read through one reader per object
(``_Reader``): each key is named once, where a command reads it, and the
read checks its type and range; whatever no read asked for is rejected
as an unknown key, and every error names the offending dotted key path.
Each command reads and checks its whole config, mesh-dependent checks
included, before it creates the output directory or starts a solve.
Physical quantities carry their unit in the key name (``radius_m``,
``amplitude_v``, ``sigma_s_per_m``) under a mandatory top-level
``units: "SI"`` marker. CSV cells are formatted by the byte-cell
kernel of ``_cells``, SVGs by ``render``. Every artifact embeds the
sha256 of the config file for provenance, and identical (config, seed)
runs produce byte-identical outputs at the same BLAS thread count. The
conjugate gradients' dot products go to BLAS, whose threaded reduction
order depends on the thread count: the refinement-6 README cable at
1 mV writes potentials that differ by up to 3.6e-18 V between 1 and 2
OpenBLAS threads.

Exit codes: 0 success, 2 config error, 3 solver non-convergence,
4 filesystem error.
"""

import argparse
import hashlib
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import _cells, fem, materials, render, solver, tomography
from . import mesh as qmesh

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4

_MISSING = object()


class ConfigError(ValueError):
    """Malformed configuration; the message starts with the key path."""


def _fail(path, message):
    raise ConfigError(f"{path}: {message}")


@contextmanager
def _blame(path, errors=ValueError):
    """Report ``errors`` raised in the block as a fault at ``path``."""
    try:
        yield
    except errors as exc:
        _fail(path, str(exc))


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(value):
    """``value``, a number, as a float; None unless it is finite. JSON as
    Python reads it allows NaN and Infinity, and an integer may be too
    large for a float."""
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def _xy(value, path):
    """``value`` as an (x, y) pair of finite floats."""
    if not (isinstance(value, list) and len(value) == 2
            and all(map(_is_number, value))):
        _fail(path, "expected [x, y] numbers")
    xy = tuple(map(_finite, value))
    if None in xy:
        _fail(path, "must be finite")
    return xy


class _Reader:
    """One config object and its dotted key path.

    Each read names a key once: it marks the key as known, fails when a
    required key is missing, checks the value's type and range, and puts
    the key path in every error. A default is returned as it is when the
    key is absent. ``done`` then rejects every key that no read asked
    for, so a key is allowed exactly where a command reads it."""

    def __init__(self, tree, path=""):
        self.tree, self.path, self._asked = tree, path, set()

    def key(self, key):
        return f"{self.path}.{key}" if self.path else key

    def fail(self, key, message):
        _fail(self.key(key), message)

    def _get(self, key, default):
        """(value, whether the config gives it)."""
        self._asked.add(key)
        if key in self.tree:
            return self.tree[key], True
        if default is _MISSING:
            self.fail(key, "missing required key")
        return default, False

    def _wrong_type(self, key, expected, value):
        self.fail(key, f"expected {expected}, got {type(value).__name__}")

    def raw(self, key, default=_MISSING):
        """The value, unchecked, and its key path."""
        return self._get(key, default)[0], self.key(key)

    def number(self, key, default=_MISSING, *, positive=False, minimum=None,
               below=None, sentinel=_MISSING):
        """A float, ``> 0`` when ``positive``, ``>= minimum`` and
        ``< below`` when given. ``sentinel`` (a word such as "noise-norm",
        or None) is the default and may stand in for the number."""
        if sentinel is not _MISSING:
            default = sentinel
        value, given = self._get(key, default)
        if not given or value == sentinel:
            return value
        if not _is_number(value):
            self._wrong_type(key, "a number", value)
        value = _finite(value)
        if value is None:
            self.fail(key, "must be finite")
        if positive and not value > 0:
            self.fail(key, "must be positive")
        if minimum is not None and value < minimum:
            self.fail(key, "must be nonnegative" if minimum == 0
                      else f"must be at least {minimum:g}")
        if below is not None and value >= below:
            self.fail(key, f"must be below {below:g}")
        return value

    def integer(self, key, default=_MISSING, *, minimum=None):
        value, given = self._get(key, default)
        if not given:
            return value
        if isinstance(value, bool) or not isinstance(value, int):
            self._wrong_type(key, "an integer", value)
        if minimum is not None and value < minimum:
            self.fail(key, f"must be at least {minimum}")
        return int(value)

    def string(self, key, default=_MISSING, *, choices=None):
        value, given = self._get(key, default)
        if given and not isinstance(value, str):
            self._wrong_type(key, "a string", value)
        if given and choices is not None and value not in choices:
            self.fail(key, f"must be one of {sorted(choices)}")
        return value

    def object(self, key, default=_MISSING):
        """The reader of the object at ``key``; a None default is
        returned as it is when the key is absent."""
        value, given = self._get(key, default)
        if not given and value is None:
            return None
        if not isinstance(value, dict):
            self._wrong_type(key, "an object", value)
        return _Reader(value, self.key(key))

    def accept(self, *keys):
        """Allow ``keys`` without reading them."""
        self._asked.update(keys)

    def done(self):
        """Reject every key that no read asked for."""
        for key in sorted(set(self.tree) - self._asked):
            self.fail(key, "unknown key")


def _top(tree):
    """The reader of a config's top level: ``tree`` itself when it is
    one, so that a command's reads of each section are recorded."""
    return tree if isinstance(tree, _Reader) else _Reader(tree)


def load_config(path):
    """Parse the JSON config; returns (tree, sha256 hex of the bytes)."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config ({exc})") from exc
    digest = hashlib.sha256(raw).hexdigest()
    try:
        tree = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(tree, dict):
        _fail(path, "top level must be an object")
    return tree, digest


# ---------------------------------------------------------------------------
# config -> domain objects
# ---------------------------------------------------------------------------


def build_mesh(tree):
    geo = _top(tree).object("geometry")
    shape = geo.string("shape", choices={"disk", "annulus", "cable"})
    refinement = geo.integer("refinement", minimum=1)
    if shape == "disk":
        radius = geo.number("radius_m", positive=True)
        geo.done()
        return qmesh.generate_disk(radius, refinement)
    outer = geo.number("outer_radius_m", positive=True)
    if shape == "annulus":
        inner = geo.number("inner_radius_m", positive=True)
        geo.done()
        with _blame(geo.key("inner_radius_m"), qmesh.MeshError):
            return qmesh.generate_annulus(inner, outer, refinement)
    petal_r = geo.number("petal_radius_m", positive=True)
    petals = geo.object("petals")
    absent = object()
    listed, lpath = petals.raw("centers_m", absent)
    if listed is not absent:
        if not isinstance(listed, list) or not listed:
            _fail(lpath, "expected a non-empty list of [x, y]")
        centers = [_xy(item, f"{lpath}[{k}]") for k, item in enumerate(listed)]
    else:
        count = petals.integer("count", minimum=1)
        ring = petals.number("ring_radius_m", positive=True)
        phase = math.radians(petals.number("phase_deg", default=0.0))
        centers = [
            (ring * math.cos(phase + 2 * math.pi * k / count),
             ring * math.sin(phase + 2 * math.pi * k / count))
            for k in range(count)
        ]
    petals.done()
    geo.done()
    with _blame(petals.path, qmesh.MeshError):
        return qmesh.generate_petal_cable(outer, centers, petal_r, refinement)


def _build_model(entry):
    model = entry.string("model", choices={"linear", "ej-power-law",
                                           "weighted-power", "preset"})
    if model == "linear":
        return materials.linear(entry.number("sigma_s_per_m", positive=True))
    if model == "weighted-power":
        theta = entry.number("theta", positive=True)
        p = entry.number("p", positive=True)
        with _blame(entry.key("p")):
            return materials.weighted_power(theta, p)
    e0 = entry.number("e0_v_per_m", default=1e-4, positive=True)
    if model == "ej-power-law":
        jc = entry.number("jc_a_per_mm2", positive=True) * 1e6
        n = entry.number("n", positive=True)
        with _blame(entry.key("n")):
            return materials.ej_power_law(jc, n, e0=e0)
    name = entry.string("name")
    with _blame(entry.key("name")):
        return materials.preset(name, e0=e0)


def build_material_models(tree, mesh):
    """Per-region model dict; ``inclusions`` is a fallback for every
    inclusion region without its own entry."""
    block = _top(tree).object("materials")
    models = {}
    fallback = None
    for key in sorted(block.tree):
        entry = block.object(key)
        built = _build_model(entry)
        entry.done()
        if key == "inclusions":
            fallback = built
        else:
            models[key] = built
    inclusion_set = set(mesh.inclusion_regions())
    for label in sorted(set(mesh.region_elements()) - set(models)):
        if label in inclusion_set and fallback is not None:
            models[label] = fallback
        elif label not in mesh.defect_regions():
            block.fail(label, "no material model for this region")
    for label in sorted(set(models) - set(mesh.region_elements())):
        block.fail(label, "no such region in the mesh")
    return models


def build_boundary(tree, mesh, require_electrodes=False):
    """Returns (profile pair or None, amplitude, electrode layout or None)."""
    block = _top(tree).object("boundary")
    block.string("profile", choices={"x-linear"})
    amplitude = block.number("amplitude_v", positive=True)
    el = block.object("electrodes", _MISSING if require_electrodes else None)
    layout = None
    if el is not None:
        count = el.integer("count", minimum=2)
        coverage = el.number("coverage", positive=True, below=1.0)
        rotation = math.radians(el.number("rotation_deg", default=0.0))
        el.done()
        layout = qmesh.ElectrodeLayout(count, coverage, rotation)
    block.done()
    radius = float(np.hypot(*mesh.nodes.T).max())
    f = solver.linear_profile(mesh, scale=amplitude / radius)
    return f, amplitude, layout


def build_solver_config(tree):
    block = _top(tree).object("solver", default={})
    cfg = solver.NonlinearSolveConfig(  # its class attributes hold defaults
        max_picard_iter=block.integer(
            "max_picard_iter", minimum=1,
            default=solver.NonlinearSolveConfig.max_picard_iter),
        picard_tol=block.number(
            "picard_tol", positive=True,
            default=solver.NonlinearSolveConfig.picard_tol),
    )
    block.done()
    return cfg


def _task(config, kind):
    """The reader of the task of a ``kind`` command, after the units
    marker and the task's kind are checked."""
    units = config.string("units")
    if units != "SI":
        config.fail("units", f"must be 'SI', got '{units}'")
    task = config.object("task")
    named = task.string("kind", choices=set(_COMMANDS))
    if named != kind:
        task.fail("kind", f"is '{named}' but the subcommand is '{kind}'")
    return task


def _ready(out, *readers):
    """The end of a command's config checks: reject every key that no
    read asked for, then create the output directory."""
    for reader in readers:
        reader.done()
    out.mkdir(parents=True, exist_ok=True)


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------


def _write_csv(path, digest, header, columns):
    """CSV of equal-length columns (1-D arrays or lists of str) under a
    provenance comment and the header row.

    Cells are formatted in numpy by ``_cells._csv_block``,
    ``_cells._CSV_BLOCK`` rows at a time; their bytes equal ``str`` of
    each integer and ``repr(float(v))`` of each float."""
    columns = [np.asarray(c) for c in columns]
    n = len(columns[0]) if columns else 0
    if len(columns) != len(header) or any(c.shape != (n,) for c in columns):
        raise ValueError("need one 1-d column of equal length per header")
    for c in columns:
        if c.dtype.kind not in "iufU":
            raise TypeError(f"no CSV format for dtype {c.dtype}")
    with path.open("wb") as fh:
        fh.write(f"# config sha256:{digest}\n{','.join(header)}\n".encode())
        block = _cells._CSV_BLOCK
        for start in range(0, n, block):
            fh.write(_cells._csv_block([c[start:start + block]
                                        for c in columns]))


def _jsonable(value):
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not serializable: {type(value).__name__}")


def _write_report(path, payload):
    text = json.dumps(payload, indent=2, sort_keys=True, default=_jsonable)
    path.write_text(text + "\n", encoding="utf-8")


def _region_outlines(mesh):
    pairs = qmesh._paired_edges(mesh)
    segs = []
    for label in sorted(mesh.inclusion_regions()) + sorted(mesh.defect_regions()):
        edges, _, _ = qmesh.region_interface_edges(mesh, label, pairs)
        segs.append(render.edge_segments(mesh, edges))
    return segs


def _element_mean(mesh, nodal):
    return np.asarray(nodal)[mesh.elements].mean(axis=1)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_solve(config, digest, out, seed):
    task = _task(config, "solve")
    mode = task.string("mode", default="nonlinear",
                       choices={"nonlinear", "pec-limit", "pei-limit"})
    mesh = build_mesh(config)
    models = build_material_models(config, mesh)
    mmap = materials.MaterialMap(models)
    f, _, _ = build_boundary(config, mesh)  # electrodes play no part here
    cfg = build_solver_config(config)
    _ready(out, task, config)

    seen = len(solver.VIOLATIONS)  # the registry spans the process
    if mode == "nonlinear":
        sol = solver.solve_nonlinear(mesh, mmap, f, cfg)
    else:
        sol = solver.solve_limit(mesh, mmap, f, mode.removesuffix("-limit"),
                                 cfg)

    u = sol.nodal_potential
    grad = sol.element_gradient
    mag = np.hypot(grad[:, 0], grad[:, 1])
    centroids = qmesh.element_centroids(mesh)
    _write_csv(
        out / "potential.csv", digest, ("node", "x_m", "y_m", "u_v"),
        (np.arange(mesh.node_count), mesh.nodes[:, 0], mesh.nodes[:, 1], u),
    )
    _write_csv(
        out / "field.csv", digest,
        ("element", "cx_m", "cy_m", "ex_v_per_m", "ey_v_per_m", "e_v_per_m"),
        (np.arange(mesh.element_count), centroids[:, 0], centroids[:, 1],
         -grad[:, 0], -grad[:, 1], mag),
    )
    outlines = _region_outlines(mesh)
    comment = f"config sha256:{digest}"
    (out / "potential.svg").write_text(
        render.heatmap(mesh, _element_mean(mesh, u), title="potential u [V]",
                       comment=comment, outlines=outlines),
        encoding="utf-8",
    )
    (out / "field.svg").write_text(
        render.heatmap(mesh, mag, title="|E| [V/m]", comment=comment,
                       outlines=outlines),
        encoding="utf-8",
    )
    _write_report(out / "report.json", {
        "command": "solve",
        "config_sha256": digest,
        "mode": mode,
        "iterations": sol.iterations,
        "energy": sol.energy,
        "final_picard_change": (float(sol.picard_change[-1])
                                if len(sol.picard_change) else 0.0),
        "monitors": sol.monitors,
        "violations": solver.VIOLATIONS[seen:],
    })
    print(f"solve: {sol.iterations} iterations, energy {sol.energy:.6g} "
          f"-> {out}")
    return EXIT_OK


def cmd_sweep(config, digest, out, seed):
    task = _task(config, "sweep")
    limit_kind = task.string("limit", choices={"pec", "pei"})
    high = task.number("lambda_high", positive=True)
    low = task.number("lambda_low", positive=True)
    if not high > low:
        task.fail("lambda_high", "must exceed lambda_low")
    per_decade = task.integer("per_decade", default=9, minimum=1)
    mesh = build_mesh(config)
    mmap = materials.MaterialMap(build_material_models(config, mesh))
    f, _, _ = build_boundary(config, mesh)
    cfg = build_solver_config(config)
    _ready(out, task, config)

    grid = solver.log_grid(high, low, per_decade)
    sweep = solver.lambda_sweep(mesh, mmap, f, grid, limit_kind, config=cfg)
    bad = sum(s != "ok" for s in sweep.status)
    if bad == len(grid):
        return _solver_error(f"all {bad} sweep points failed, the first with "
                             f"{sweep.status[0]}")

    _write_csv(out / "sweep.csv", digest, solver.LambdaSweep.CSV_HEADER,
               sweep.columns())
    (out / "sweep.svg").write_text(
        render.line_plot(
            [("e2", sweep.lambdas, sweep.e2),
             ("einf", sweep.lambdas, sweep.einf)],
            title=f"{limit_kind} limit approximation error",
            xlabel="lambda", ylabel="relative error",
            comment=f"config sha256:{digest}",
        ),
        encoding="utf-8",
    )
    _write_report(out / "report.json", {
        "command": "sweep",
        "config_sha256": digest,
        "limit": limit_kind,
        "points": len(grid),
        "all_ok": sweep.all_ok,
        "status": list(sweep.status),
        "limit_energy": sweep.limit.energy,
    })
    print(f"sweep: {len(grid)} scales, {bad} failed -> {out}")
    return EXIT_OK


def annulus_validation(refinements, r=10.0, config=None):
    """Limit solve against the closed-form annulus field.

    The unit inclusion of the r-disk is merged to a floating conductor
    and the outer boundary driven with the field's own trace; returns
    (refinement, h, relative L2 error, observed order) rows, order from
    consecutive refinements."""
    from . import oracle  # only the oracle command loads the references

    fields = oracle.annulus_fields(r)
    mmap = materials.MaterialMap({"matrix": materials.linear(1.0)})
    rows = []
    prev = None
    for ref in refinements:
        mesh = qmesh.generate_petal_cable(r, [(0.0, 0.0)], 1.0, ref)
        nodes = qmesh.outer_boundary_nodes(mesh)
        f = (nodes, fields.gamma * mesh.nodes[nodes, 0])
        sol = solver.solve_limit(mesh, mmap, f, "pec", config)
        keep = mesh.region_mask("matrix")
        areas = qmesh.element_areas(mesh)[keep]
        cx, cy = qmesh.element_centroids(mesh)[keep].T
        uh = _element_mean(mesh, sol.nodal_potential)[keep]
        exact = fields.v(cx, cy)
        err = math.sqrt(float(areas @ (uh - exact) ** 2))
        err /= math.sqrt(float(areas @ exact**2))
        h = qmesh.max_element_diameter(mesh)
        order = (math.log(prev[1] / err) / math.log(prev[0] / h)
                 if prev else float("nan"))
        rows.append((int(ref), h, err, order))
        prev = (h, err)
    return rows


def cmd_oracle(config, digest, out, seed):
    from . import oracle  # only this command loads the references

    task = _task(config, "oracle")
    r = task.number("annulus_r", default=10.0, minimum=10)
    big_l = task.number("L", default=11.0)
    n_scales = task.integer("n_scales", default=2, minimum=1)
    rtol = task.number("quad_rtol", default=1e-7, positive=True)
    refinements, rpath = task.raw("refinements", default=[2, 3, 4])
    if (not isinstance(refinements, list) or len(refinements) < 2
            or any(isinstance(v, bool) or not isinstance(v, int) or v < 1
                   for v in refinements)
            or len(set(refinements)) < len(refinements)):
        # a repeated level has no observed order: log(h/h) = 0
        _fail(rpath, "expected a list of at least two distinct refinement "
                     "levels")
    cfg = build_solver_config(config)
    # a config shared with the other commands may hold their sections
    config.accept("geometry", "materials", "boundary")
    with _blame(task.key("L")):
        model = oracle.build_counterexample(big_l, 1.0,
                                            n_terms=max(n_scales, 4))
    _ready(out, task, config)

    rows = annulus_validation(refinements, r=r, config=cfg)
    ld, lp = model.lambda_double, model.lambda_prime
    n = len(lp)
    interleaved = bool(
        np.all(big_l * ld[1:n + 1] < lp[:n])
        and np.all(big_l * lp[:n] < ld[:n])
    )
    ratio_err = float(np.max(np.abs(
        ld[1:] * (oracle.CSQ * big_l**2) / ld[:-1] - 1.0
    )))
    b = model.breakpoints()
    below, above = b * (1 - 1e-9), b * (1 + 1e-9)
    jump = float(np.max(np.abs(model.psi(above) - model.psi(below))
                        / model.psi(b)))
    slopes = model.sigma_psi(np.concatenate([below, above])) * \
        np.concatenate([below, above])
    order = np.argsort(np.concatenate([below, above]))
    convex = bool(np.all(np.diff(slopes[order]) > -1e-12 * slopes.max()))

    try:
        sep = oracle.counterexample_energies(r, L=big_l, model=model,
                                             n_scales=n_scales, rtol=rtol)
    except oracle.QuadratureError as exc:
        return _solver_error(exc)
    _write_csv(out / "oracle.csv", digest,
               ("refinement", "h", "rel_l2_error", "observed_order"),
               zip(*rows))
    _write_report(out / "report.json", {
        "command": "oracle",
        "config_sha256": digest,
        "annulus": {
            "r": r,
            "rows": [list(row) for row in rows],
        },
        "scales": {
            "interleaved": interleaved,
            "ratio_error": ratio_err,
            "psi_breakpoint_jump": jump,
            "psi_convex": convex,
        },
        "energies": {
            "ell1": sep.ell1,
            "ell2": sep.ell2,
            "ell1_exact": sep.ell1_exact,
            "ell2_exact": sep.ell2_exact,
            "margin": sep.margin,
            "separated": sep.separated,
            "g_prime": sep.g_prime,
            "h_double": sep.h_double,
        },
    })
    print(f"oracle: error {rows[-1][2]:.3e} at refinement {rows[-1][0]}, "
          f"margin {sep.margin:.6g} -> {out}")
    return EXIT_OK


def _tag_distinct_electrodes(mesh, layout):
    """``tag_electrodes``; a layout in which some arc tags no boundary
    edge, or neighbouring arcs share a boundary node, cannot measure a
    conductance matrix with the configured electrodes."""
    mesh = qmesh.tag_electrodes(mesh, layout)
    groups = list(qmesh.electrode_nodes(mesh).values())
    if len(groups) != layout.count:
        _fail("boundary.electrodes",
              f"{layout.count} arcs configured but {len(groups)} of them "
              f"cover a boundary edge")
    if len(np.unique(np.concatenate(groups))) != sum(map(len, groups)):
        _fail("boundary.electrodes", "neighbouring arcs share a boundary node")
    return mesh


def cmd_tomo(config, digest, out, seed):
    task = _task(config, "tomo")
    mode = task.string("mode", default="pec-limit",
                       choices={"pec-limit", "nonlinear"})
    eta = task.number("eta", minimum=0)
    cfg_seed = task.integer("seed", minimum=0)
    seed = cfg_seed if seed is None else seed
    factor = task.number("defect_sigma_factor", default=1e-3, positive=True)
    if factor >= 1.0:
        task.fail("defect_sigma_factor", "must drop conductivity (< 1)")
    defects, dpath = task.raw("defects")
    if not isinstance(defects, list) or not defects:
        _fail(dpath, "expected a non-empty list of discs")
    discs = []
    for k, entry in enumerate(defects):
        if not isinstance(entry, dict):
            _fail(f"{dpath}[{k}]", "expected an object")
        disc = _Reader(entry, f"{dpath}[{k}]")
        discs.append((_xy(*disc.raw("center_m")),
                      disc.number("radius_m", positive=True)))
        disc.done()
    radii, rpath = task.raw("test_radii_m")
    if _is_number(radii):
        radii = [radii]
    if (not isinstance(radii, list) or not radii
            or not all(map(_is_number, radii))):
        _fail(rpath, "expected a radius or list of radii")
    if None in map(_finite, radii):
        _fail(rpath, "must be finite")
    spacing = task.number("test_spacing_m", sentinel=None, positive=True)
    delta = task.number("delta", sentinel="noise-norm", minimum=0)
    psd_tol = task.number("psd_tol", sentinel="solver-noise", minimum=0)

    mesh = build_mesh(config)
    models = build_material_models(config, mesh)
    _, amplitude, layout = build_boundary(config, mesh,
                                          require_electrodes=True)
    mesh = _tag_distinct_electrodes(mesh, layout)
    cfg = build_solver_config(config)
    matrix_model = models["matrix"]
    if not matrix_model.field_independent:
        _fail("materials.matrix",
              "defect imaging needs a linear matrix model")
    defect_model = materials.linear(factor * matrix_model.theta)
    vmask = np.zeros(mesh.element_count, dtype=bool)
    for center, radius in discs:
        vmask |= tomography.disc_mask(mesh, center, radius)
    if not vmask.any():
        _fail(dpath, "defect discs select no matrix elements")
    try:
        domains = tomography.disc_test_domains(mesh, radii, spacing=spacing)
    except ValueError as exc:
        # the grid's step is the spacing when one is set
        spaced = spacing is not None and str(exc).startswith("spacing")
        _fail(task.key("test_spacing_m") if spaced else rpath, str(exc))
    _ready(out, task, config)

    operator = tomography.ConductanceOperator(
        mesh, materials.MaterialMap(models), amplitude=amplitude, mode=mode,
        config=cfg)
    g_bg = operator.background()
    g_v = operator.matrix(vmask, defect_model, "defect")
    dg_max = float(np.abs(g_v.matrix - g_bg.matrix).max())
    noise = tomography.goe_noise(g_v.size, eta, dg_max, seed=seed)
    if delta == "noise-norm":
        delta = tomography.spectral_norm(noise) if eta > 0 else 0.0
    measured = tomography.ConductanceMatrix(
        g_v.matrix + noise, g_v.electrode_ids, g_v.asymmetry)
    if psd_tol == "solver-noise":
        psd_tol = 1e-9 * float(np.abs(g_bg.matrix).max())

    tests = list(zip(domains, operator.matrices(
        [domain.element_mask for domain in domains], defect_model,
        [domain.id for domain in domains])))
    rec = tomography.mpm_reconstruct(measured, tests, delta, tol=psd_tol)

    areas = qmesh.element_areas(mesh)
    v_area = float(areas[vmask].sum())
    coverage = float(areas[vmask & rec.union_mask].sum()) / v_area
    excess = float(areas[rec.union_mask & ~vmask].sum()) / v_area
    upper_bound = bool(np.all(rec.union_mask[vmask]))

    ids = [f"electrode_{i}" for i in g_bg.electrode_ids]
    _write_csv(out / "background_g.csv", digest, ids, g_bg.matrix.T)
    _write_csv(out / "measured_g.csv", digest, ids, measured.matrix.T)
    accepted = np.zeros(len(domains), dtype=int)
    accepted[list(rec.accepted)] = 1
    _write_csv(
        out / "domains.csv", digest,
        ("domain", "cx_m", "cy_m", "radius_m", "min_eig", "raw_min_eig",
         "margin", "accepted"),
        ([d.id for d in domains], [d.center[0] for d in domains],
         [d.center[1] for d in domains], [d.radius for d in domains],
         rec.min_eigenvalues, rec.raw_min_eigenvalues,
         rec.min_eigenvalues + psd_tol, accepted),
    )
    centroids = qmesh.element_centroids(mesh)
    _write_csv(
        out / "reconstruction.csv", digest,
        ("element", "cx_m", "cy_m", "true_defect", "accepted"),
        (np.arange(mesh.element_count), centroids[:, 0], centroids[:, 1],
         vmask.astype(int), rec.union_mask.astype(int)),
    )
    dmesh = qmesh.relabel_elements(mesh, vmask, "defect-1")  # its outline
    edges, _, _ = qmesh.region_interface_edges(dmesh, "defect-1")
    (out / "reconstruction.svg").write_text(
        render.mask_overlay(
            mesh, rec.union_mask,
            true_boundary=render.edge_segments(mesh, edges),
            outlines=_region_outlines(mesh),
            title="defect upper bound",
            comment=f"config sha256:{digest}",
        ),
        encoding="utf-8",
    )
    _write_report(out / "report.json", {
        "command": "tomo",
        "config_sha256": digest,
        "mode": mode,
        "eta": eta,
        "seed": seed,
        "delta": delta,
        "dg_max": dg_max,
        "psd_tol": psd_tol,
        "electrodes": len(ids),
        "test_domains": len(domains),
        "accepted": len(rec.accepted),
        "coverage": coverage,
        "excess": excess,
        "upper_bound": upper_bound,
        "measurement_asymmetry": g_v.asymmetry,
    })
    print(f"tomo: accepted {len(rec.accepted)}/{len(domains)} domains, "
          f"coverage {coverage:.3f}, excess {excess:.3f}, "
          f"upper bound {'holds' if upper_bound else 'VIOLATED'} -> {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {"solve": cmd_solve, "sweep": cmd_sweep, "oracle": cmd_oracle,
             "tomo": cmd_tomo}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qlert",
        description="quasilinear steady-current solves and defect imaging",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the configured noise seed")
    return parser


def _solver_error(exc):
    print(f"solver error: {exc}", file=sys.stderr)
    return EXIT_SOLVER


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        tree, digest = load_config(args.config)
        return _COMMANDS[args.command](_Reader(tree), digest, Path(args.out),
                                       args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (solver.PicardNonConvergenceError, solver.NumericalBreakdownError,
            fem.NonConvergenceError, fem.SingularSystemError) as exc:
        return _solver_error(exc)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
