"""Span tracer for the traced benchmark run.

Wraps qlert's public functions where their callers look them up, records
one span per call (name, start, end, parent, operation id) in memory, and
derives the per-layer metrics from the spans and from the counts carried
by return values and exceptions. Nothing inside qlert is edited.
"""

import functools
import json
import statistics
import time
from collections import Counter

#: (module, attribute) pairs wrapped as plain functions. Calls made inside
#: a module go through its globals, which are the module attributes, so
#: one wrapper per attribute sees every caller.
FUNCTIONS = (
    ("cli", "main"),
    ("mesh", "generate_petal_cable"),
    ("mesh", "relabel_elements"),
    ("fem", "solve_spd"),
    ("fem", "dirichlet_energy"),
    ("solver", "solve_nonlinear"),
    ("tomography", "conductance_matrix"),
    ("tomography", "symmetric_eigenvalues"),
    ("tomography", "mpm_reconstruct"),
    ("render", "heatmap"),
    ("render", "mask_overlay"),
    ("render", "line_plot"),
)
#: materials.sigma is also bound at import time under another name.
SIGMA_ALIASES = (("solver", "material_sigma"),
                 ("tomography", "material_sigma"))
ASSEMBLER_METHODS = (("__init__", "fem.Assembler"),
                     ("assemble", "fem.Assembler.assemble"),
                     ("raw_matrix", "fem.Assembler.raw_matrix"))

LAYERS = ("cli", "mesh", "materials", "fem", "solver", "tomography", "render")


class Tracer:
    def __init__(self):
        # each span: [name, start, end, parent index or -1, operation id]
        self.spans = []
        self.counts = Counter()
        self.picard_steps = []
        self.op = 0
        self._open = []

    def _call(self, name, fn, args, kwargs):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        span = [name, time.perf_counter(), 0.0, parent, self.op]
        self.spans.append(span)
        self._open.append(index)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span[2] = time.perf_counter()
            self._open.pop()
            self._count_error(name, exc)
            raise
        span[2] = time.perf_counter()
        self._open.pop()
        self._count_result(name, result)
        return result

    def _count_result(self, name, result):
        if name == "fem.solve_spd":
            self.counts["cg_iterations"] += result.iterations
        elif name == "solver.solve_nonlinear":
            self.counts["picard_iterations"] += result.iterations
            self.picard_steps.append(result.iterations)
        elif name == "tomography.mpm_reconstruct":
            self.counts["test_domains"] += len(result.domains)
            self.counts["accepted_domains"] += len(result.accepted)

    def _count_error(self, name, exc):
        if name == "fem.solve_spd" and hasattr(exc, "residuals"):
            self.counts["cg_iterations"] += max(len(exc.residuals) - 1, 0)
            self.counts["cg_failures"] += 1
        elif (name == "solver.solve_nonlinear"
              and hasattr(exc, "change_history")):
            steps = len(exc.change_history)
            self.counts["picard_iterations"] += steps
            self.counts["nonconverged"] += 1
            self.picard_steps.append(steps)

    def wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._call(name, fn, args, kwargs)

        return traced

    def install(self, modules):
        """Wrap every traced function in the given {name: module} dict."""
        for mod, attr in FUNCTIONS:
            owner = modules[mod]
            setattr(owner, attr,
                    self.wrap(getattr(owner, attr), f"{mod}.{attr}"))
        sigma = modules["materials"].sigma
        traced = self.wrap(sigma, "materials.sigma")
        modules["materials"].sigma = traced
        for mod, attr in SIGMA_ALIASES:
            if getattr(modules[mod], attr) is not sigma:
                raise RuntimeError(
                    f"{mod}.{attr} is no longer materials.sigma")
            setattr(modules[mod], attr, traced)
        cls = modules["fem"].Assembler
        for attr, name in ASSEMBLER_METHODS:
            setattr(cls, attr, self.wrap(getattr(cls, attr), name))

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)


def _noop():
    return None


def wrapper_cost_s(calls=20000):
    """Time one traced call adds, from a wrapped no-op; with the span count
    it estimates the tracing overhead of a run without a second run."""
    traced = Tracer().wrap(_noop, "probe")
    t0 = time.perf_counter()
    for _ in range(calls):
        _noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        traced()
    return max(time.perf_counter() - t0 - bare, 0.0) / calls


def _quantile_ms(durations, q):
    if len(durations) < 2:
        return 1e3 * (durations[0] if durations else 0.0)
    cuts = statistics.quantiles(durations, n=100, method="inclusive")
    return 1e3 * cuts[q - 1]


def layer_metrics(tracer, violations):
    """Per-layer metrics of one traced command sequence."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls = Counter()
    total = Counter()
    self_time = Counter()
    durations = {}
    for k, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_time[name] += end - start - child_time[k]
        durations.setdefault(name, []).append(end - start)

    def under(name, ancestor):
        # calls of `name` made inside a call of `ancestor`
        n = 0
        for span in spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and spans[parent][0] != ancestor:
                parent = spans[parent][3]
            n += parent >= 0
        return n

    def ratio(a, b):
        return a / b if b else 0.0

    c = tracer.counts
    matrices = calls["tomography.conductance_matrix"]
    solves = calls["solver.solve_nonlinear"]
    m = {}
    for name in ("mesh.relabel_elements", "materials.sigma", "fem.Assembler",
                 "fem.Assembler.assemble", "fem.Assembler.raw_matrix",
                 "fem.solve_spd", "fem.dirichlet_energy",
                 "solver.solve_nonlinear", "tomography.conductance_matrix",
                 "tomography.symmetric_eigenvalues"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.s"] = total[name]
    m["mesh.generate_petal_cable.s"] = total["mesh.generate_petal_cable"]
    m["fem.assemblers_per_matrix"] = ratio(
        under("fem.Assembler", "tomography.conductance_matrix"), matrices)
    m["fem.cg_iterations"] = c["cg_iterations"]
    m["fem.cg_iterations_per_solve"] = ratio(c["cg_iterations"],
                                             calls["fem.solve_spd"])
    m["fem.solves_per_pattern"] = ratio(
        under("fem.solve_spd", "tomography.conductance_matrix"),
        under("solver.solve_nonlinear", "tomography.conductance_matrix"))
    m["solver.solve_nonlinear.self_s"] = self_time["solver.solve_nonlinear"]
    m["solver.picard_iterations"] = c["picard_iterations"]
    m["solver.picard_per_solve"] = ratio(c["picard_iterations"], solves)
    m["solver.nonconverged"] = c["nonconverged"]
    m["solver.violations"] = len(violations)
    cm = durations.get("tomography.conductance_matrix", [])
    m["tomography.conductance_matrix.p50_ms"] = _quantile_ms(cm, 50)
    m["tomography.conductance_matrix.p90_ms"] = _quantile_ms(cm, 90)
    m["tomography.mpm_reconstruct.s"] = total["tomography.mpm_reconstruct"]
    m["tomography.accepted_ratio"] = ratio(c["accepted_domains"],
                                           c["test_domains"])
    m["render.s"] = sum(total[f"render.{f}"]
                        for f in ("heatmap", "mask_overlay", "line_plot"))
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in self_time.items()
                                   if k.split(".")[0] == layer)
    m["trace.spans"] = len(spans)
    return m
