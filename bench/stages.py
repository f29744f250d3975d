"""Single-stage timings at refinement 3, for comparison with the table in
ROADMAP direction 1: one pec-limit conductance matrix, one 16x16
eigensolve, and the 1 mV nonlinear cable solve.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 bench/stages.py

The 1 mV solve runs on two cables: the one ``cli.build_mesh`` makes from
the README config, and the one the README's Python snippet builds, whose
petal centres differ in the last bits. Prints one JSON object.
"""

import json
import statistics
import time

import numpy as np

import workloads
from qlert import cli, materials, solver, tomography
from qlert import mesh as qmesh


def _timed(fn, repeats):
    times, out = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        times.append(1e3 * (time.perf_counter() - t0))
    return out, {"median_ms": statistics.median(times), "min_ms": min(times),
                 "max_ms": max(times), "samples": repeats}


def _nonlinear(mesh, amplitude=1e-3):
    models = {"matrix": materials.linear(5.55e7)}
    models.update({lab: materials.ej_power_law(8000e6, 27.0, 1e-4)
                   for lab in mesh.inclusion_regions()})
    nodes = qmesh.outer_boundary_nodes(mesh)
    radius = float(np.hypot(*mesh.nodes.T).max())
    f = (nodes, amplitude * mesh.nodes[nodes, 0] / radius)
    sol, timing = _timed(
        lambda: solver.solve_nonlinear(mesh, materials.MaterialMap(models), f),
        3)
    return {"picard_steps": sol.iterations, **timing}


def main():
    tree = workloads.commands("tomo-r3", 0)[0].config
    mesh = cli.build_mesh(tree)
    models = cli.build_material_models(tree, mesh)
    _, amplitude, layout = cli.build_boundary(tree, mesh)
    tagged = qmesh.tag_electrodes(mesh, layout)
    g, g_timing = _timed(lambda: tomography.conductance_matrix(
        tagged, materials.MaterialMap(models), amplitude=amplitude), 7)
    _, eig_timing = _timed(lambda: tomography.symmetric_eigenvalues(g.matrix),
                           20)
    readme = qmesh.generate_petal_cable(
        0.6e-3,
        [(0.35e-3 * np.cos(a), 0.35e-3 * np.sin(a))
         for a in (np.arange(6) + 0.5) * np.pi / 3],
        0.12e-3, refinement=3,
    )
    print(json.dumps({
        "pec_limit_conductance_matrix": g_timing,
        "symmetric_eigenvalues_16x16": eig_timing,
        "nonlinear_1mV_r3.cli_cable": _nonlinear(mesh),
        "nonlinear_1mV_r3.readme_snippet_cable": _nonlinear(readme),
        "max_node_offset_m": float(np.abs(readme.nodes - mesh.nodes).max())
        if readme.nodes.shape == mesh.nodes.shape else None,
    }))


if __name__ == "__main__":
    main()
