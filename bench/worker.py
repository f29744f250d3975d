"""One benchmark process: a set-up timing, or a measured command sequence.

``run.py`` starts this script in a fresh interpreter with the BLAS thread
cap in its environment:

    python3 bench/worker.py setup   --workload W --seed N
    python3 bench/worker.py measure --workload W --seed N --seconds T \
        --trace 0|1 --out DIR

It prints one JSON object as the last line of its standard output.
"""

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import time
import traceback
from collections import Counter
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference.json"


def setup(args):
    """Cold import of qlert plus the workload's meshes and material maps."""
    t0 = time.perf_counter()
    from qlert import cli, materials
    from qlert import mesh as qmesh

    built = set()
    for command in workloads.commands(args.workload, args.seed):
        tree = command.config
        key = json.dumps(tree["geometry"], sort_keys=True)
        if key in built:
            continue
        built.add(key)
        mesh = cli.build_mesh(tree)
        materials.MaterialMap(cli.build_material_models(tree, mesh))
        _, _, layout = cli.build_boundary(tree, mesh)
        if layout is not None:
            qmesh.tag_electrodes(mesh, layout)
    return {"t0": t0, "setup_s": time.perf_counter() - t0}


def _run_sequence(cmds, work, cli, solver, checker, captured, tracer):
    """Issue the commands one at a time; only cli.main is timed."""
    ops = []
    for k, command in enumerate(cmds):
        out = work / f"{k}-{command.name}"
        config = work / f"{k}-{command.name}.json"
        shutil.rmtree(out, ignore_errors=True)
        config.write_text(json.dumps(command.config), encoding="utf-8")
        captured.clear()
        seen = len(solver.VIOLATIONS)
        if tracer is not None:
            tracer.op = k
        err = io.StringIO()
        c0 = time.process_time()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            try:
                rc = cli.main([command.subcommand, "--config", str(config),
                               "--out", str(out)])
            except Exception:  # a crash fails the operation and the check
                traceback.print_exc()
                rc = None
        seconds = time.perf_counter() - t0
        cpu = time.process_time() - c0
        rec = captured[-1] if captured else None
        ok = checker.check(command, rc, out, rec, solver.VIOLATIONS[seen:])
        ops.append({"name": command.name, "t0": t0, "s": seconds,
                    "cpu_s": cpu, "exit": rc, "ok": ok,
                    "stderr": err.getvalue().strip()[-300:]})
    return ops


def measure(args):
    from qlert import cli, fem, materials, mesh, render, solver, tomography

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install({"cli": cli, "fem": fem, "materials": materials,
                        "mesh": mesh, "render": render, "solver": solver,
                        "tomography": tomography})
    # The correctness check needs the per-domain decisions, which no
    # artifact holds; keep the reconstruction that cli passes on.
    captured = []
    reconstruct = tomography.mpm_reconstruct

    def capture(*a, **kw):
        rec = reconstruct(*a, **kw)
        captured.append(rec)
        return rec

    tomography.mpm_reconstruct = capture
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}

    work = Path(args.out)
    work.mkdir(parents=True, exist_ok=True)
    cmds = workloads.commands(args.workload, args.seed)
    sequences, problems, observed = [], [], []
    t_start = time.perf_counter()
    while True:
        checker = workloads.Checker(reference.get("values"))
        ops = _run_sequence(cmds, work, cli, solver, checker, captured, tracer)
        sequences.append(ops)
        problems += checker.problems
        observed.append((checker.values, checker.counts))
        walls = [sum(op["s"] for op in seq) for seq in sequences]
        # A traced run traces one sequence. Otherwise start another only
        # when a sequence of median length still fits in the time left.
        if tracer is not None or (time.perf_counter() - t_start
                                  + statistics.median(walls) > args.seconds):
            break
    for later in observed[1:]:
        if json.dumps(later) != json.dumps(observed[0]):
            problems.append("outputs differ between repeated sequences")
            break

    result = {
        "sequences": sequences,
        "problems": problems,
        "values": observed[0][0],
        "counts": observed[0][1],
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        from spans import layer_metrics, wrapper_cost_s
        metrics = layer_metrics(tracer, solver.VIOLATIONS)
        metrics["trace.wall_s"] = walls[0]
        metrics["trace.overhead_s"] = wrapper_cost_s() * len(tracer.spans)
        metrics["trace.overhead_ratio"] = (metrics["trace.overhead_s"]
                                           / walls[0])
        result["per_layer"] = metrics
        result["counters"] = {
            "fem.Assembler": metrics["fem.Assembler.calls"],
            "fem.solve_spd": metrics["fem.solve_spd.calls"],
            "fem.cg_iterations": metrics["fem.cg_iterations"],
            "solver.picard_iterations": metrics["solver.picard_iterations"],
            "tomography.symmetric_eigenvalues":
                metrics["tomography.symmetric_eigenvalues.calls"],
            "solver.picard_steps_histogram": {
                str(k): v
                for k, v in sorted(Counter(tracer.picard_steps).items())
            },
        }
        tracer.write(work / "trace.json")
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    result = setup(args) if args.mode == "setup" else measure(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
