"""Configuration-driven command line.

Four subcommands over one JSON config format: ``solve`` (forward field),
``sweep`` (limit-approximation error versus excitation scale), ``oracle``
(closed-form validation battery), ``tomo`` (defect imaging pipeline; one
``tomography.ConductanceOperator`` serves the background, the defect and
every test domain).

The config is a strict tree: unknown keys are rejected and every error
names the offending dotted key path. Physical quantities carry their
unit in the key name (``radius_m``, ``amplitude_v``, ``sigma_s_per_m``)
under a mandatory top-level ``units: "SI"`` marker. Every artifact
embeds the sha256 of the config file for provenance, and identical
(config, seed) runs produce byte-identical outputs at the same BLAS
thread count. The conjugate gradients' dot products go to BLAS, whose
threaded reduction order depends on the thread count: the refinement-6
README cable at 1 mV writes potentials that differ by up to 4.3e-18 V
between 1 and 2 OpenBLAS threads.

Exit codes: 0 success, 2 config error, 3 solver non-convergence,
4 filesystem error.
"""

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import fem, materials, render, solver, tomography
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


def _typename(value):
    return type(value).__name__


def _pick(tree, key, path, default=_MISSING):
    full = f"{path}.{key}" if path else key
    if key not in tree:
        if default is _MISSING:
            _fail(full, "missing required key")
        return default, full
    return tree[key], full


def _number(tree, key, path, default=_MISSING, positive=False):
    value, full = _pick(tree, key, path, default)
    if value is default and key not in tree:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(full, f"expected a number, got {_typename(value)}")
    if positive and not value > 0:
        _fail(full, "must be positive")
    return float(value)


def _integer(tree, key, path, default=_MISSING, minimum=None):
    value, full = _pick(tree, key, path, default)
    if value is default and key not in tree:
        return value
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(full, f"expected an integer, got {_typename(value)}")
    if minimum is not None and value < minimum:
        _fail(full, f"must be at least {minimum}")
    return int(value)


def _string(tree, key, path, default=_MISSING, choices=None):
    value, full = _pick(tree, key, path, default)
    if value is default and key not in tree:
        return value
    if not isinstance(value, str):
        _fail(full, f"expected a string, got {_typename(value)}")
    if choices is not None and value not in choices:
        _fail(full, f"must be one of {sorted(choices)}")
    return value


def _object(tree, key, path, default=_MISSING):
    value, full = _pick(tree, key, path, default)
    if value is default and key not in tree:
        return value, full
    if not isinstance(value, dict):
        _fail(full, f"expected an object, got {_typename(value)}")
    return value, full


def _xy(value, path):
    """``value`` as an (x, y) pair of floats."""
    if (not isinstance(value, list) or len(value) != 2
            or any(isinstance(c, bool) or not isinstance(c, (int, float))
                   for c in value)):
        _fail(path, "expected [x, y] numbers")
    return float(value[0]), float(value[1])


def _no_extras(tree, allowed, path):
    for key in sorted(set(tree) - set(allowed)):
        _fail(f"{path}.{key}" if path else key, "unknown key")


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
    geo, path = _object(tree, "geometry", "")
    shape = _string(geo, "shape", path, choices={"disk", "annulus", "cable"})
    refinement = _integer(geo, "refinement", path, minimum=1)
    if shape == "disk":
        _no_extras(geo, {"shape", "refinement", "radius_m"}, path)
        return qmesh.generate_disk(
            _number(geo, "radius_m", path, positive=True), refinement
        )
    if shape == "annulus":
        _no_extras(
            geo, {"shape", "refinement", "inner_radius_m", "outer_radius_m"},
            path,
        )
        inner = _number(geo, "inner_radius_m", path, positive=True)
        outer = _number(geo, "outer_radius_m", path, positive=True)
        try:
            return qmesh.generate_annulus(inner, outer, refinement)
        except qmesh.MeshError as exc:
            _fail(f"{path}.inner_radius_m", str(exc))
    _no_extras(
        geo,
        {"shape", "refinement", "outer_radius_m", "petal_radius_m", "petals"},
        path,
    )
    outer = _number(geo, "outer_radius_m", path, positive=True)
    petal_r = _number(geo, "petal_radius_m", path, positive=True)
    petals, ppath = _object(geo, "petals", path)
    if "centers_m" in petals:
        _no_extras(petals, {"centers_m"}, ppath)
        raw = petals["centers_m"]
        if not isinstance(raw, list) or not raw:
            _fail(f"{ppath}.centers_m", "expected a non-empty list of [x, y]")
        centers = []
        for k, item in enumerate(raw):
            centers.append(_xy(item, f"{ppath}.centers_m[{k}]"))
    else:
        _no_extras(petals, {"count", "ring_radius_m", "phase_deg"}, ppath)
        count = _integer(petals, "count", ppath, minimum=1)
        ring = _number(petals, "ring_radius_m", ppath, positive=True)
        phase = math.radians(_number(petals, "phase_deg", ppath, default=0.0))
        centers = [
            (ring * math.cos(phase + 2 * math.pi * k / count),
             ring * math.sin(phase + 2 * math.pi * k / count))
            for k in range(count)
        ]
    try:
        return qmesh.generate_petal_cable(outer, centers, petal_r, refinement)
    except qmesh.MeshError as exc:
        _fail(ppath, str(exc))


def _build_model(entry, path):
    if not isinstance(entry, dict):
        _fail(path, f"expected an object, got {_typename(entry)}")
    model = _string(entry, "model", path,
                    choices={"linear", "ej-power-law", "weighted-power",
                             "preset"})
    if model == "linear":
        _no_extras(entry, {"model", "sigma_s_per_m"}, path)
        return materials.linear(_number(entry, "sigma_s_per_m", path,
                                        positive=True))
    if model == "ej-power-law":
        _no_extras(entry, {"model", "jc_a_per_mm2", "n", "e0_v_per_m"}, path)
        jc = _number(entry, "jc_a_per_mm2", path, positive=True) * 1e6
        n = _number(entry, "n", path, positive=True)
        e0 = _number(entry, "e0_v_per_m", path, default=1e-4, positive=True)
        try:
            return materials.ej_power_law(jc, n, e0=e0)
        except ValueError as exc:
            _fail(f"{path}.n", str(exc))
    if model == "weighted-power":
        _no_extras(entry, {"model", "theta", "p"}, path)
        theta = _number(entry, "theta", path, positive=True)
        p = _number(entry, "p", path, positive=True)
        try:
            return materials.weighted_power(theta, p)
        except ValueError as exc:
            _fail(f"{path}.p", str(exc))
    _no_extras(entry, {"model", "name", "e0_v_per_m"}, path)
    name = _string(entry, "name", path)
    try:
        return materials.preset(
            name, e0=_number(entry, "e0_v_per_m", path, default=1e-4,
                             positive=True)
        )
    except ValueError as exc:
        _fail(f"{path}.name", str(exc))


def build_material_models(tree, mesh):
    """Per-region model dict; ``inclusions`` is a fallback for every
    inclusion region without its own entry."""
    block, path = _object(tree, "materials", "")
    models = {}
    fallback = None
    for key in sorted(block):
        built = _build_model(block[key], f"{path}.{key}")
        if key == "inclusions":
            fallback = built
        else:
            models[key] = built
    inclusion_set = set(mesh.inclusion_regions())
    for label in sorted(set(mesh.region_table) - set(models)):
        if label in inclusion_set and fallback is not None:
            models[label] = fallback
        elif label not in mesh.defect_regions():
            _fail(f"{path}.{label}", "no material model for this region")
    for label in sorted(set(models) - set(mesh.region_table)):
        _fail(f"{path}.{label}", "no such region in the mesh")
    return models


def build_boundary(tree, mesh, require_electrodes=False):
    """Returns (profile pair or None, amplitude, electrode layout or None)."""
    block, path = _object(tree, "boundary", "")
    _no_extras(block, {"profile", "amplitude_v", "electrodes"}, path)
    _string(block, "profile", path, choices={"x-linear"})
    amplitude = _number(block, "amplitude_v", path, positive=True)
    layout = None
    if "electrodes" in block:
        el, epath = _object(block, "electrodes", path)
        _no_extras(el, {"count", "coverage", "rotation_deg"}, epath)
        count = _integer(el, "count", epath, minimum=2)
        coverage = _number(el, "coverage", epath, positive=True)
        if coverage >= 1.0:
            _fail(f"{epath}.coverage", "must be below 1")
        rotation = math.radians(_number(el, "rotation_deg", epath, default=0.0))
        layout = qmesh.ElectrodeLayout.uniform(count, coverage, rotation)
    elif require_electrodes:
        _fail(f"{path}.electrodes", "missing required key")
    radius = float(np.hypot(*mesh.nodes.T).max())
    f = solver.linear_profile(mesh, scale=amplitude / radius)
    return f, amplitude, layout


def build_solver_config(tree):
    block, path = _object(tree, "solver", "", default={})
    _no_extras(block, {"max_picard_iter", "picard_tol"}, path)
    kwargs = {}
    if "max_picard_iter" in block:
        kwargs["max_picard_iter"] = _integer(block, "max_picard_iter", path,
                                             minimum=1)
    if "picard_tol" in block:
        kwargs["picard_tol"] = _number(block, "picard_tol", path,
                                       positive=True)
    return solver.NonlinearSolveConfig(**kwargs)


def _task_block(tree, expected):
    block, path = _object(tree, "task", "")
    kind = _string(block, "kind", path,
                   choices={"solve", "sweep", "oracle", "tomo"})
    if kind != expected:
        _fail(f"{path}.kind", f"is '{kind}' but the subcommand is '{expected}'")
    return block, path


def _validate_top(tree, needs_geometry):
    _no_extras(tree, {"units", "geometry", "materials", "boundary", "solver",
                      "task"}, "")
    units = _string(tree, "units", "")
    if units != "SI":
        _fail("units", f"must be 'SI', got '{units}'")
    for key in ("geometry", "materials", "boundary") if needs_geometry else ():
        if key not in tree:
            _fail(key, "missing required key")


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------


#: CSV rows formatted per block; bounds the transient cell lists.
_CSV_BLOCK = 1024


def _csv_cells(column):
    """Text of one column's cells: integers through ``str``, floats as
    ``repr(float(v))``, strings as they are."""
    kind = column.dtype.kind
    if kind in "iu":
        return list(map(str, column.tolist()))
    if kind == "f":
        return list(map(repr, column.astype(float, copy=False).tolist()))
    if kind == "U":
        return column.tolist()
    raise TypeError(f"no CSV format for dtype {column.dtype}")


def _write_csv(path, digest, header, columns):
    """CSV of equal-length columns (1-D arrays or lists of str) under a
    provenance comment and the header row."""
    columns = [np.asarray(c) for c in columns]
    n = len(columns[0]) if columns else 0
    if len(columns) != len(header) or any(c.shape != (n,) for c in columns):
        raise ValueError("need one 1-d column of equal length per header")
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"# config sha256:{digest}\n{','.join(header)}\n")
        for start in range(0, n, _CSV_BLOCK):
            cells = [_csv_cells(c[start:start + _CSV_BLOCK]) for c in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


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


def cmd_solve(tree, digest, out, seed):
    task, tpath = _task_block(tree, "solve")
    _no_extras(task, {"kind", "mode"}, tpath)
    mode = _string(task, "mode", tpath, default="nonlinear",
                   choices={"nonlinear", "pec-limit", "pei-limit"})
    mesh = build_mesh(tree)
    models = build_material_models(tree, mesh)
    mmap = materials.MaterialMap(models)
    f, _, _ = build_boundary(tree, mesh)  # electrodes play no part here
    cfg = build_solver_config(tree)

    seen = len(solver.VIOLATIONS)  # the registry spans the process
    regions = mesh.inclusion_regions()
    if mode == "pec-limit":
        sol = solver.solve_pec_limit(mesh, mmap, regions, f, cfg)
    elif mode == "pei-limit":
        sol = solver.solve_pei_limit(mesh, mmap, regions, f, cfg)
    else:
        sol = solver.solve_nonlinear(mesh, mmap, f, cfg)

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


def cmd_sweep(tree, digest, out, seed):
    task, tpath = _task_block(tree, "sweep")
    _no_extras(task, {"kind", "limit", "lambda_high", "lambda_low",
                      "per_decade", "p0"}, tpath)
    limit_kind = _string(task, "limit", tpath, choices={"pec", "pei"})
    high = _number(task, "lambda_high", tpath, positive=True)
    low = _number(task, "lambda_low", tpath, positive=True)
    if not high > low:
        _fail(f"{tpath}.lambda_high", "must exceed lambda_low")
    per_decade = _integer(task, "per_decade", tpath, default=9, minimum=1)
    p0 = _number(task, "p0", tpath, default=2.0, positive=True)

    mesh = build_mesh(tree)
    mmap = materials.MaterialMap(build_material_models(tree, mesh))
    f, _, _ = build_boundary(tree, mesh)
    cfg = build_solver_config(tree)
    grid = solver.log_grid(high, low, per_decade)
    sweep = solver.lambda_sweep(mesh, mmap, f, grid, limit_kind, p0=p0,
                                config=cfg)

    _write_csv(out / "sweep.csv", digest, solver.LambdaSweep.CSV_HEADER,
               sweep.columns())
    (out / "sweep.svg").write_text(
        render.line_plot(
            [("e2", sweep.lambdas, sweep.e2),
             ("einf", sweep.lambdas, sweep.einf)],
            title=f"{limit_kind} limit approximation error",
            xlabel="lambda", ylabel="relative error",
            log_x=True, log_y=True, comment=f"config sha256:{digest}",
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
    bad = sum(s != "ok" for s in sweep.status)
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
    rows = []
    prev = None
    for ref in refinements:
        mesh = qmesh.generate_petal_cable(r, [(0.0, 0.0)], 1.0, ref)
        nodes = qmesh.outer_boundary_nodes(mesh)
        f = (nodes, fields.gamma * mesh.nodes[nodes, 0])
        sol = solver.solve_pec_limit(mesh, materials.linear(1.0),
                                     mesh.inclusion_regions(), f, config)
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


def cmd_oracle(tree, digest, out, seed):
    from . import oracle  # only this command loads the references

    task, tpath = _task_block(tree, "oracle")
    _no_extras(task, {"kind", "annulus_r", "L", "n_scales", "refinements",
                      "quad_rtol"}, tpath)
    r = _number(task, "annulus_r", tpath, default=10.0)
    if r < 10.0:
        _fail(f"{tpath}.annulus_r", "must be at least 10")
    big_l = _number(task, "L", tpath, default=11.0)
    n_scales = _integer(task, "n_scales", tpath, default=2, minimum=1)
    rtol = _number(task, "quad_rtol", tpath, default=1e-7, positive=True)
    refinements, rpath = _pick(task, "refinements", tpath, default=[2, 3, 4])
    if (not isinstance(refinements, list) or len(refinements) < 2
            or any(isinstance(v, bool) or not isinstance(v, int) or v < 1
                   for v in refinements)):
        _fail(rpath, "expected a list of at least two refinement levels")
    cfg = build_solver_config(tree)

    rows = annulus_validation(refinements, r=r, config=cfg)
    _write_csv(out / "oracle.csv", digest,
               ("refinement", "h", "rel_l2_error", "observed_order"),
               zip(*rows))

    try:
        model = oracle.build_counterexample(big_l, 1.0,
                                            n_terms=max(n_scales, 4))
    except ValueError as exc:
        _fail(f"{tpath}.L", str(exc))
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


def cmd_tomo(tree, digest, out, seed):
    task, tpath = _task_block(tree, "tomo")
    _no_extras(task, {"kind", "defects", "eta", "seed", "delta",
                      "test_radii_m", "test_spacing_m", "mode",
                      "defect_sigma_factor", "psd_tol"}, tpath)
    mode = _string(task, "mode", tpath, default="pec-limit",
                   choices={"pec-limit", "nonlinear"})
    eta = _number(task, "eta", tpath)
    if eta < 0:
        _fail(f"{tpath}.eta", "must be nonnegative")
    cfg_seed = _integer(task, "seed", tpath, minimum=0)
    seed = cfg_seed if seed is None else seed
    factor = _number(task, "defect_sigma_factor", tpath, default=1e-3,
                     positive=True)
    if factor >= 1.0:
        _fail(f"{tpath}.defect_sigma_factor", "must drop conductivity (< 1)")

    defects, dpath = _pick(task, "defects", tpath)
    if not isinstance(defects, list) or not defects:
        _fail(dpath, "expected a non-empty list of discs")
    radii, rpath = _pick(task, "test_radii_m", tpath)
    if isinstance(radii, (int, float)) and not isinstance(radii, bool):
        radii = [float(radii)]
    if (not isinstance(radii, list) or not radii
            or any(isinstance(v, bool) or not isinstance(v, (int, float))
                   for v in radii)):
        _fail(rpath, "expected a radius or list of radii")
    spacing = None
    if task.get("test_spacing_m") is not None:
        spacing = _number(task, "test_spacing_m", tpath, positive=True)

    mesh = build_mesh(tree)
    models = build_material_models(tree, mesh)
    _, amplitude, layout = build_boundary(tree, mesh, require_electrodes=True)
    mesh = _tag_distinct_electrodes(mesh, layout)
    cfg = build_solver_config(tree)
    matrix_model = models["matrix"]
    if matrix_model.kind != "linear":
        _fail("materials.matrix",
              "defect imaging needs a linear matrix model")
    defect_model = materials.linear(factor * matrix_model.sigma0)

    vmask = np.zeros(mesh.element_count, dtype=bool)
    for k, disc in enumerate(defects):
        if not isinstance(disc, dict):
            _fail(f"{dpath}[{k}]", "expected an object")
        _no_extras(disc, {"center_m", "radius_m"}, f"{dpath}[{k}]")
        center = _xy(_pick(disc, "center_m", f"{dpath}[{k}]")[0],
                     f"{dpath}[{k}].center_m")
        radius = _number(disc, "radius_m", f"{dpath}[{k}]", positive=True)
        vmask |= tomography.disc_mask(mesh, center, radius)
    if not vmask.any():
        _fail(dpath, "defect discs select no matrix elements")

    operator = tomography.ConductanceOperator(
        mesh, materials.MaterialMap(models), amplitude=amplitude, mode=mode,
        config=cfg)
    g_bg = operator.background("background")
    g_v = operator.matrix(vmask, defect_model, "defect")
    dg_max = float(np.abs(g_v.matrix - g_bg.matrix).max())
    noise = tomography.goe_noise(g_v.size, eta, dg_max, seed=seed)
    delta_key = task.get("delta", "noise-norm")
    if delta_key == "noise-norm":
        delta = tomography.spectral_norm(noise) if eta > 0 else 0.0
    else:
        delta = _number(task, "delta", tpath)
        if delta < 0:
            _fail(f"{tpath}.delta", "must be nonnegative")
    measured = tomography.ConductanceMatrix(
        g_v.matrix + noise, amplitude, g_v.electrode_ids, mode, "measured",
        g_v.asymmetry,
    )

    scale = float(np.abs(g_bg.matrix).max())
    psd_key = task.get("psd_tol", "solver-noise")
    if psd_key == "solver-noise":
        psd_tol = 1e-9 * scale
    else:
        psd_tol = _number(task, "psd_tol", tpath)
        if psd_tol < 0:
            _fail(f"{tpath}.psd_tol", "must be nonnegative")

    try:
        domains = tomography.disc_test_domains(mesh, radii, spacing=spacing)
    except ValueError as exc:
        _fail(rpath, str(exc))

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

_COMMANDS = {
    "solve": (cmd_solve, True),
    "sweep": (cmd_sweep, True),
    "oracle": (cmd_oracle, False),
    "tomo": (cmd_tomo, True),
}


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
    handler, needs_geometry = _COMMANDS[args.command]
    try:
        tree, digest = load_config(args.config)
        _validate_top(tree, needs_geometry)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return handler(tree, digest, out, args.seed)
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
