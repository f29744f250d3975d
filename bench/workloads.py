"""Workload definitions: the qlert commands each workload issues, built
from the seed, and the checks applied to their outputs.

Importing this module imports neither qlert nor numpy, so that the set-up
timing in ``worker.py`` starts from a cold interpreter.
"""

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOAD_NAMES = ("tomo-r3", "forward-r5-r6", "sweep-r5")

#: qlert exit code for solver non-convergence: a failed operation, not a
#: broken benchmark. Any other nonzero code fails the correctness check.
EXIT_SOLVER = 3

#: Relative tolerances against the values recorded at the seed commit.
#: The linear solves stop at a relative residual of 1e-10, so a correct
#: change of solver (direct factorization, another preconditioner) moves
#: conductances by about 1e-11 and energies by less; 1e-8 and 1e-6 leave
#: room for that and still catch a wrong stiffness matrix or material law.
G_RTOL = 1e-8
ENERGY_RTOL = 1e-6
#: Reciprocity and current conservation of a conductance matrix.
ASYMMETRY_MAX = 1e-8
COLUMN_SUM_RTOL = 1e-8

FORWARD_R5_MV = (0.5, 1.0, 2.0, 5.0, 10.0)
SWEEP_GRID = {"lambda_high": 1e-1, "lambda_low": 1e-8, "per_decade": 1}


@dataclass(frozen=True)
class Command:
    """One ``qlert`` invocation: an operation of the closed-loop client."""

    name: str
    subcommand: str
    config: dict


def _cable(refinement, amplitude_v, phase_deg=30.0):
    """The README cable: six E-J petals in a linear copper matrix."""
    return {
        "units": "SI",
        "geometry": {
            "shape": "cable",
            "outer_radius_m": 0.6e-3,
            "petal_radius_m": 0.12e-3,
            "petals": {"count": 6, "ring_radius_m": 0.35e-3,
                       "phase_deg": phase_deg},
            "refinement": refinement,
        },
        "materials": {
            "matrix": {"model": "linear", "sigma_s_per_m": 5.55e7},
            "inclusions": {"model": "ej-power-law", "jc_a_per_mm2": 8000.0,
                           "n": 27.0, "e0_v_per_m": 1e-4},
        },
        "boundary": {"profile": "x-linear", "amplitude_v": amplitude_v},
    }


def _tomo_commands(seed):
    # Seed 0 is the README imaging config with the coarse dictionary. Other
    # seeds move the defect centre within 0.03 mm of the axis, which keeps
    # at least one dictionary disc inside the defect, and draw new noise.
    center = [0.0, 0.0]
    if seed:
        rng = random.Random(seed)
        r = 0.03e-3 * math.sqrt(rng.random())
        a = 2.0 * math.pi * rng.random()
        center = [r * math.cos(a), r * math.sin(a)]
    tree = _cable(3, 1e-3)
    tree["boundary"]["electrodes"] = {"count": 16, "coverage": 0.5}
    tree["task"] = {
        "kind": "tomo",
        "defects": [{"center_m": center, "radius_m": 0.16e-3}],
        "eta": 0.01,
        "seed": seed + 1,
        "delta": "noise-norm",
        "test_radii_m": [0.08e-3],
        "test_spacing_m": 0.1e-3,
        "mode": "pec-limit",
    }
    return [Command("tomo", "tomo", tree)]


def _forward_commands(seed):
    # The geometry stays the README cable for every seed: Picard step
    # counts jump between 16 and the 200-step cap when the petal phase
    # moves (see README.md), so a seeded phase would measure the seed,
    # not the code. The seed sets the order in which the client issues
    # the six solves; seed 0 keeps the ladder order, refinement 6 last.
    out = []
    for mv in FORWARD_R5_MV:
        tree = _cable(5, mv * 1e-3)
        tree["task"] = {"kind": "solve", "mode": "nonlinear"}
        out.append(Command(f"r5-{mv:g}mV", "solve", tree))
    tree = _cable(6, 1e-3)
    tree["task"] = {"kind": "solve", "mode": "nonlinear"}
    out.append(Command("r6-1mV", "solve", tree))
    if seed:
        random.Random(seed).shuffle(out)
    return out


def _sweep_commands(seed):
    # The red test's lambda grid on the README config's 1 mV data at
    # refinement 5; for the same reason as the forward solves, no input
    # depends on the seed.
    tree = _cable(5, 1e-3)
    tree["task"] = {"kind": "sweep", "limit": "pec", **SWEEP_GRID}
    return [Command("sweep", "sweep", tree)]


_BUILDERS = {
    "tomo-r3": _tomo_commands,
    "forward-r5-r6": _forward_commands,
    "sweep-r5": _sweep_commands,
}


def commands(workload, seed):
    return _BUILDERS[workload](seed)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def read_csv(path):
    """qlert CSV artifact -> (header, rows of floats)."""
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader)
    return header, [[float(v) for v in row] for row in reader]


def _rel_diff(a, b):
    scale = max(max(abs(x) for x in b), 1e-300)
    return max(abs(x - y) for x, y in zip(a, b)) / scale


class Checker:
    """Collects correctness problems and the seed-independent quantities
    recorded in reference.json: ``values`` are compared with a relative
    tolerance, ``counts`` are deterministic work counts that should repeat
    exactly and are reported, not failed, when they change."""

    def __init__(self, reference_values):
        self.reference = reference_values or {}
        self.problems = []
        self.values = {}
        self.counts = {}

    def fail(self, command, message):
        self.problems.append(f"{command.name}: {message}")

    def check(self, command, rc, out, reconstruction, violations):
        """Returns True when the operation succeeded. A solver
        non-convergence exit fails the operation; any other deviation
        also fails the correctness check."""
        before = len(self.problems)
        if violations:
            self.fail(command, f"{len(violations)} monitor violation(s): "
                               f"{violations[:3]}")
        if rc == EXIT_SOLVER:
            return False
        if rc != 0:
            self.fail(command, f"exit code {rc}, expected 0 or {EXIT_SOLVER}"
                               if rc is not None else "qlert raised")
            return False
        try:
            done = getattr(self, "_" + command.subcommand)(
                command, Path(out), reconstruction)
        except (OSError, KeyError, IndexError, ValueError) as exc:
            self.fail(command, f"unreadable output: {exc!r}")
            return False
        return done is not False and len(self.problems) == before

    def _compare(self, command, key, values, rtol):
        self.values[key] = values
        ref = self.reference.get(key)
        if ref is None:
            return
        if len(ref) != len(values):
            self.fail(command, f"{key}: {len(values)} values, reference has "
                               f"{len(ref)}")
        elif _rel_diff(values, ref) > rtol:
            self.fail(command, f"{key} differs from the seed-commit value by "
                               f"{_rel_diff(values, ref):.2e} relative "
                               f"(tolerance {rtol:g})")

    def _tomo(self, command, out, rec):
        report = json.loads((out / "report.json").read_text())
        if not report["measurement_asymmetry"] <= ASYMMETRY_MAX:
            self.fail(command, f"measurement asymmetry "
                               f"{report['measurement_asymmetry']:.2e}")
        _, g = read_csv(out / "background_g.csv")
        n = len(g)
        scale = max(abs(v) for row in g for v in row)
        asym = max(abs(g[i][j] - g[j][i]) for i in range(n) for j in range(n))
        if asym > ASYMMETRY_MAX * scale:
            self.fail(command, f"background G asymmetry {asym / scale:.2e}")
        worst = max(abs(sum(g[i][j] for i in range(n))) for j in range(n))
        if worst > COLUMN_SUM_RTOL * scale:
            self.fail(command, f"background G column sum {worst / scale:.2e} "
                               f"of the largest entry")
        self._compare(command, "tomo.background_g",
                      [v for row in g for v in row], G_RTOL)

        # The monotonicity guarantee: every dictionary domain inside the
        # true defect is accepted. report.json's upper_bound is not used:
        # the coarse dictionary does not cover the defect.
        _, rows = read_csv(out / "reconstruction.csv")
        vmask = [bool(row[3]) for row in rows]
        if rec is None:
            self.fail(command, "no reconstruction was captured")
            return
        inside = [k for k, dom in enumerate(rec.domains)
                  if all(vmask[e] for e in dom.element_mask.nonzero()[0])]
        if not inside:
            self.fail(command, "no dictionary domain lies inside the defect")
        rejected = sorted(set(inside) - set(rec.accepted))
        if rejected:
            self.fail(command, f"domains {rejected} lie inside the defect but "
                               f"were rejected")
        if report["accepted"] != len(rec.accepted):
            self.fail(command, "report.json disagrees with the reconstruction")
        self.counts["tomo.test_domains"] = len(rec.domains)

    def _solve(self, command, out, rec):
        report = json.loads((out / "report.json").read_text())
        monitors = report["monitors"]
        if not (monitors["energy_descent_ok"]
                and monitors["max_principle_ok"]):
            self.fail(command, f"monitors failed: {monitors}")
        self._compare(command, f"solve.{command.name}.energy",
                      [report["energy"]], ENERGY_RTOL)
        self.counts[f"solve.{command.name}.iterations"] = report["iterations"]

    def _sweep(self, command, out, rec):
        report = json.loads((out / "report.json").read_text())
        header, rows = read_csv(out / "sweep.csv")
        col = {name: k for k, name in enumerate(header)}
        self._compare(command, "sweep.limit_energy", [report["limit_energy"]],
                      ENERGY_RTOL)
        self._compare(command, "sweep.g0",
                      [row[col["G0_lambda"]] for row in rows], ENERGY_RTOL)
        self.counts["sweep.picard_iters"] = [
            int(row[col["picard_iters"]]) for row in rows
        ]
        # a point that did not converge fails the operation, like exit 3
        return report["all_ok"]
