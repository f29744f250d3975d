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
                           mesh.ElectrodeLayout.uniform(4, 0.5))
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
