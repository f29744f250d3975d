"""Run every workload over several seeds and write one trajectory point.

    python3 bench/record.py --tag c78e161 --seeds 10 --seconds 20

Runs ``run.py`` untraced for seeds 0..N-1 and traced for ``--trace-seeds``,
runs ``stages.py``, and writes bench/results/<tag>.json with the machine,
every run's report, and per metric the median, the quartiles and the
spread (interquartile distance over median) across seeds; ``--out``
writes elsewhere, for a repeat that is not a trajectory point. With
``--write-reference`` it also stores the seed-0 values and counts, and the
traced counters, as bench/reference.json, against which later runs are
checked.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import BENCH, ROOT, worker_env
from workloads import WORKLOAD_NAMES


def _run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def summarize(values):
    values = sorted(values)
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "n": len(values)}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--tag", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace-seeds", type=int, nargs="*", default=[0])
    parser.add_argument("--write-reference", action="store_true")
    parser.add_argument("--out", help="default: bench/results/<tag>.json")
    args = parser.parse_args()

    point = {"tag": args.tag, "workloads": {}}
    reference = {"recorded_at": args.tag, "values": {}, "counts": {},
                 "counters": {}}
    for workload in WORKLOAD_NAMES:
        runs, traced = [], []
        for seed in range(args.seeds):
            report, result = _run(workload, seed, args.seconds, 0)
            runs.append({"report": report, "result": result})
            values = report.pop("values")  # kept only for the reference
            if seed == 0:
                first_values = values
            print(workload, seed, report["end_to_end"], result["failed"],
                  result["correct"], flush=True)
        for seed in args.trace_seeds:
            report, result = _run(workload, seed, args.seconds, 1)
            del report["values"]
            traced.append({"report": report, "result": result})
        names = runs[0]["report"]["end_to_end"]
        point["machine"] = runs[0]["report"]["machine"]
        point["workloads"][workload] = {
            "end_to_end": {
                name: summarize([r["report"]["end_to_end"][name]
                                 for r in runs])
                for name in names
            },
            "runs": runs,
            "traced": traced,
        }
        if args.write_reference:
            reference["values"].update(first_values)
            reference["counts"].update(runs[0]["report"]["counts"])
            reference["counters"][workload] = {
                str(t["report"]["seed"]): t["report"]["counters"]
                for t in traced
            }
    proc = subprocess.run([sys.executable, str(BENCH / "stages.py")],
                          cwd=ROOT, env=worker_env(), capture_output=True,
                          text=True, check=True)
    point["stages_r3"] = json.loads(proc.stdout.strip().splitlines()[-1])
    out = Path(args.out or BENCH / "results" / f"{args.tag}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(point, indent=1) + "\n", encoding="utf-8")

    if args.write_reference:
        (BENCH / "reference.json").write_text(
            json.dumps(reference, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
