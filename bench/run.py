"""qlert benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 bench/run.py --workload tomo-r3 --seed 0 --seconds 20 --trace 0

Run from the root of a qlert checkout. Each run times the workload's
set-up in several fresh interpreters, then issues the workload's qlert
commands through ``cli.main`` in one more process: one closed-loop client,
one command at a time, repeated while a further sequence fits in
``--seconds`` (at least once). ``--trace 1`` traces one sequence instead
and reports per-layer metrics. Outputs are checked; see bench/README.md.

All processes of a run share one CPU. In untraced runs ``probe.py`` runs
on that CPU too and times a fixed unit of work throughout, and the times
that the result line reports are rescaled to the reference host speed,
on which one probe unit takes ``PROBE_REF_S``. The report line keeps the
raw wall-clock times as well.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``. The line before it is a report with every
named metric, the checks, counters and the machine. The exit code is
nonzero, with no result line, when the benchmark itself cannot run.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOAD_NAMES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
#: One client issues one command at a time, so BLAS gets one thread; the
#: cap is set only in the environment of the processes started here.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
#: A run must end within 180 s; leave room for interpreter start-up.
RUN_BUDGET_S = 170.0
#: The reference host speed: the gated times are rescaled to a host on
#: which one unit of probe.py takes this long.
PROBE_REF_S = 1e-3
OP_KEYS = ("name", "s", "ref_s", "cpu_s", "exit", "ok")


class BenchError(RuntimeError):
    pass


def worker_env():
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _worker(args, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget of the run exhausted")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *map(str, args)],
            cwd=ROOT, env=worker_env(), capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[0]} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited with {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Probe:
    """probe.py running beside the measured processes, on the same CPU."""

    def __init__(self, path, deadline):
        self.path = path
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "probe.py"), str(path)],
            cwd=ROOT, env=worker_env(), stdout=subprocess.DEVNULL,
        )
        while not (path.exists() and path.read_text().strip()):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise BenchError("the host-speed probe did not start")
            time.sleep(0.05)

    def stop(self):
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()

    def samples(self):
        """(midpoint, duration) of every complete unit."""
        out = []
        for line in self.path.read_text().splitlines():
            parts = line.split()
            if len(parts) == 2:
                t0, t1 = map(float, parts)
                out.append(((t0 + t1) / 2, t1 - t0))
        return out


def host_speed(samples, t0, seconds):
    """Mean host speed over an interval, relative to the reference speed.

    The mean of PROBE_REF_S / duration over the probe units inside the
    interval, or the unit nearest to its middle when none lies inside. A
    unit that the scheduler delays reads as slow, and can only lower its
    share of the mean.
    """
    inside = [PROBE_REF_S / d for mid, d in samples
              if t0 <= mid <= t0 + seconds]
    if not inside:
        middle = t0 + seconds / 2
        _, d = min(samples, key=lambda sample: abs(sample[0] - middle))
        inside = [PROBE_REF_S / d]
    return statistics.fmean(inside)


def machine(nproc, cpu):
    import numpy
    import scipy
    return {
        "nproc": nproc,
        "cpu": cpu,
        "arch": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads_cap": BLAS_THREADS,
    }


def _report_metrics(workload, result, setups):
    """Every named end-to-end metric, including the workload-specific ones
    that only the report line carries. Times are at the reference speed,
    except those named ``*_raw_s``."""
    seqs = result["sequences"]
    ops = [op for seq in seqs for op in seq]

    def median_of(names, key="ref_s"):
        return statistics.median(
            sum(op[key] for op in seq if names is None or op["name"] in names)
            for seq in seqs)

    m = {
        "wall_s": median_of(None),
        "setup_s": statistics.median(s["ref_s"] for s in setups),
        "peak_rss_mb": result["peak_rss_mb"],
        "failed_ratio": sum(not op["ok"] for op in ops) / len(ops),
        "wall_raw_s": median_of(None, "s"),
        "setup_raw_s": statistics.median(s["setup_s"] for s in setups),
        "host_speed": (sum(op["ref_s"] for op in ops)
                       / sum(op["s"] for op in ops)),
    }
    if workload == "tomo-r3":
        m["domains_per_s"] = (result["counts"].get("tomo.test_domains", 0)
                              / median_of({"tomo"}))
    elif workload == "forward-r5-r6":
        m["ladder_s.r5"] = median_of({op["name"] for op in seqs[0]
                                      if op["name"].startswith("r5-")})
        m["solve_s.r6"] = median_of({"r6-1mV"})
    return m


def _count_changes(counts, counters, reference, workload, seed):
    """Deterministic counts that differ from the seed-commit record."""
    changed = {}
    for key, ref in reference.get("counts", {}).items():
        if key in counts and counts[key] != ref:
            changed[key] = {"now": counts[key], "reference": ref}
    ref = reference.get("counters", {}).get(workload, {}).get(str(seed))
    if counters is not None and ref is not None:
        for key, value in counters.items():
            if ref.get(key) != value:
                changed[key] = {"now": value, "reference": ref.get(key)}
    return changed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that the probe and the worker are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (ROOT / "src" / "qlert" / "__init__.py").is_file():
        print(f"error: no qlert sources under {ROOT / 'src'}; run from the "
              f"root of a qlert checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    # Children inherit the affinity: the probe sees the CPU they run on.
    nproc, cpu = len(os.sched_getaffinity(0)), min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    work = OUT / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    common = ["--workload", args.workload, "--seed", args.seed]
    measure = ["measure", *common, "--seconds", args.seconds,
               "--trace", args.trace, "--out", work]
    setups, probe = [], None
    try:
        if args.trace:
            result = _worker(measure, deadline)
        else:
            probe = Probe(work / "probe.txt", deadline)
            setups = [_worker(["setup", *common], deadline)
                      for _ in range(SETUP_REPEATS)]
            result = _worker(measure, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if probe is not None:
            probe.stop()
    if probe is not None:
        samples = probe.samples()
        for timed in setups:
            timed["ref_s"] = timed["setup_s"] * host_speed(
                samples, timed["t0"], timed["setup_s"])
        for op in (op for seq in result["sequences"] for op in seq):
            op["ref_s"] = op["s"] * host_speed(samples, op["t0"], op["s"])

    reference = json.loads((BENCH / "reference.json").read_text()) \
        if (BENCH / "reference.json").exists() else {}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    ops = [op for seq in result["sequences"] for op in seq]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine(nproc, cpu),
        "sequences": len(result["sequences"]),
        "operations": [{k: op[k] for k in OP_KEYS if k in op}
                       for op in result["sequences"][0]],
        "problems": result["problems"],
        "counts": result["counts"],
        "counts_changed": _count_changes(result["counts"],
                                         result.get("counters"), reference,
                                         args.workload, args.seed),
        "values": result["values"],
    }
    if args.trace:
        report["counters"] = result["counters"]
        named = report["per_layer"] = result["per_layer"]
        declared = declared["per_layer"]
    else:
        named = report["end_to_end"] = _report_metrics(args.workload, result,
                                                       setups)
        report["setup_samples_s"] = [s["setup_s"] for s in setups]
        declared = declared["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in named]
    if missing:
        print(f"error: metrics {missing} declared in BENCHMARK.json were not "
              f"measured", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": named[m["name"]], "unit": m["unit"]}
               for m in declared}
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": len(ops),
        "failed": sum(not op["ok"] for op in ops),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
