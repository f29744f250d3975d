"""The benchmark's span tracer keeps working on the package as it stands.

``bench/spans.py`` wraps ``materials.sigma`` and also the
``material_sigma`` aliases that ``solver`` and ``tomography`` bind at
import time, and refuses to trace when an alias is gone. Install it, as
it is, on freshly imported modules in a child process (so the wrappers
never reach this test session) and check that every conductivity
evaluation of a solve and of a conductance matrix is still seen."""

import json
import os
import subprocess
import sys
from pathlib import Path

import qlert

REPO = Path(__file__).resolve().parents[1]

PROBE = r"""
import importlib.util, json, sys

spec = importlib.util.spec_from_file_location("spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)

from qlert import cli, fem, materials, mesh, render, solver, tomography

tracer = spans.Tracer()
tracer.install({"cli": cli, "fem": fem, "materials": materials,
                "mesh": mesh, "render": render, "solver": solver,
                "tomography": tomography})
disk = mesh.tag_electrodes(mesh.generate_disk(1.0, 2),
                           mesh.ElectrodeLayout(4, 0.5))
nodes = mesh.outer_boundary_nodes(disk)
solver.solve_nonlinear(
    disk, materials.MaterialMap({"matrix": materials.weighted_power(1.0, 1.5)}),
    (nodes, disk.nodes[nodes, 0]))
tomography.conductance_matrix(
    disk, materials.MaterialMap({"matrix": materials.linear(2.0)}),
    amplitude=1.0)

under = {}
for name, _, _, parent, _ in tracer.spans:
    if name != "materials.sigma":
        continue
    while parent >= 0 and tracer.spans[parent][3] >= 0:
        parent = tracer.spans[parent][3]
    root = tracer.spans[parent][0] if parent >= 0 else ""
    under[root] = under.get(root, 0) + 1
metrics = spans.layer_metrics(tracer, solver.VIOLATIONS)
print(json.dumps({"under": under, "calls": metrics["materials.sigma.calls"]}))
"""


def test_tracer_sees_sigma_under_solves_and_conductance_matrices():
    env = dict(os.environ, PYTHONPATH=str(Path(qlert.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", PROBE, str(REPO / "bench" / "spans.py")],
        env=env, capture_output=True, text=True, check=True,
    )
    result = json.loads(out.stdout)
    under = result["under"]
    assert set(under) == {"solver.solve_nonlinear",
                          "tomography.conductance_matrix"}
    assert under["solver.solve_nonlinear"] >= 2  # initial iterate + a step
    assert under["tomography.conductance_matrix"] == 1  # one region, once
    assert result["calls"] == sum(under.values())


# the imports, the tracer and the disk of PROBE, then a field-dependent
# conductance matrix: the disk has no inclusion to replace by a perfect
# conductor, so its matrix material keeps its law
NONLINEAR_PROBE = PROBE[:PROBE.index("nodes = ")] + r"""
tomography.conductance_matrix(
    disk, materials.MaterialMap({"matrix": materials.weighted_power(1.0, 1.5)}),
    amplitude=1.0)

roots = {}
for name, _, _, parent, _ in tracer.spans:
    while parent >= 0 and tracer.spans[parent][3] >= 0:
        parent = tracer.spans[parent][3]
    root = tracer.spans[parent][0] if parent >= 0 else ""
    roots.setdefault(name, set()).add(root)
metrics = spans.layer_metrics(tracer, solver.VIOLATIONS)
print(json.dumps({
    "roots": {name: sorted(r) for name, r in roots.items()},
    "metrics": {k: metrics[k] for k in (
        "fem.assemblers_per_matrix", "fem.solves_per_pattern",
        "solver.solve_nonlinear.calls", "tomography.conductance_matrix.calls")},
}))
"""


def test_tracer_nests_nonlinear_matrix_solves_under_the_matrix():
    env = dict(os.environ, PYTHONPATH=str(Path(qlert.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", NONLINEAR_PROBE,
         str(REPO / "bench" / "spans.py")],
        env=env, capture_output=True, text=True, check=True,
    )
    result = json.loads(out.stdout)
    roots = result["roots"]
    for name in ("solver.solve_nonlinear", "fem.Assembler", "materials.sigma"):
        assert roots[name] == ["tomography.conductance_matrix"], name
    metrics = result["metrics"]
    assert metrics["tomography.conductance_matrix.calls"] == 1
    assert metrics["solver.solve_nonlinear.calls"] == 4  # one per electrode
    assert metrics["fem.assemblers_per_matrix"] == 1
    assert metrics["fem.solves_per_pattern"] > 1  # Picard steps


# the imports and the tracer of PROBE, then a 3-point pec sweep on a small
# holed disk: the sweep calls solve_nonlinear through the module, so the
# tracer sees the limit solve and every point, and counts their steps
SWEEP_PROBE = PROBE[:PROBE.index("disk = ")] + r"""
disk = mesh.generate_petal_cable(1.0, [(0.0, 0.0)], 0.3, 2)
mmap = materials.MaterialMap({"matrix": materials.weighted_power(1.0, 2.0),
                              "inclusion-1": materials.weighted_power(1.0, 1.5)})
sweep = solver.lambda_sweep(disk, mmap, solver.linear_profile(disk),
                            [1.0, 0.1, 0.01], "pec")
metrics = spans.layer_metrics(tracer, solver.VIOLATIONS)
print(json.dumps({
    "ok": sweep.all_ok,
    "limit": sweep.limit.iterations,
    "points": sweep.picard_iters.tolist(),
    "metrics": {k: metrics[k] for k in (
        "solver.solve_nonlinear.calls", "solver.picard_iterations")},
}))
"""


def test_tracer_counts_every_sweep_point():
    env = dict(os.environ, PYTHONPATH=str(Path(qlert.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", SWEEP_PROBE, str(REPO / "bench" / "spans.py")],
        env=env, capture_output=True, text=True, check=True,
    )
    result = json.loads(out.stdout)
    assert result["ok"]
    metrics = result["metrics"]
    assert metrics["solver.solve_nonlinear.calls"] == 4  # limit + 3 points
    assert metrics["solver.picard_iterations"] == (
        result["limit"] + sum(result["points"]))
    assert sum(result["points"]) > 3  # the inclusion's law moves sigma
