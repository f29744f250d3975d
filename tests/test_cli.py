"""Command-line contract: schema errors, exit codes, artifacts,
byte-level determinism."""

import hashlib
import inspect
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qlert
import reference_writers as ref
from qlert import _cells, cli, fem, materials, render, solver, tomography
from qlert import mesh as qmesh


def given_mode(init, *args, **kwargs):
    """The ``mode`` that a call of ``ConductanceOperator.__init__`` with
    these arguments gets."""
    bound = inspect.signature(init).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments["mode"]


def write_config(tmp_path, tree, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(tree), encoding="utf-8")
    return path


def disk_geometry(refinement=2):
    return {"shape": "disk", "radius_m": 1.0, "refinement": refinement}


def solve_config():
    return {
        "units": "SI",
        "geometry": {
            "shape": "cable",
            "outer_radius_m": 0.6e-3,
            "petal_radius_m": 0.2e-3,
            "petals": {"centers_m": [[0.0, 0.0]]},
            "refinement": 2,
        },
        "materials": {
            "matrix": {"model": "linear", "sigma_s_per_m": 5.55e7},
            "inclusions": {"model": "preset", "name": "YBCO-AMSC"},
        },
        "boundary": {"profile": "x-linear", "amplitude_v": 1e-3},
        "task": {"kind": "solve", "mode": "pec-limit"},
    }


def sweep_config():
    return {
        "units": "SI",
        "geometry": disk_geometry(),
        "materials": {
            "matrix": {"model": "weighted-power", "theta": 2.0, "p": 2.0}
        },
        "boundary": {"profile": "x-linear", "amplitude_v": 1.0},
        "task": {"kind": "sweep", "limit": "pec", "lambda_high": 1.0,
                 "lambda_low": 1e-2, "per_decade": 1},
    }


def power_sweep_config():
    """A sweep whose error curves are positive: a centred weighted-power
    inclusion whose small-field exponent 1.5 lies below the matrix's 2."""
    tree = sweep_config()
    tree["geometry"] = {
        "shape": "cable",
        "outer_radius_m": 1.0,
        "petal_radius_m": 0.3,
        "petals": {"centers_m": [[0.0, 0.0]]},
        "refinement": 2,
    }
    tree["materials"]["inclusions"] = {"model": "weighted-power",
                                       "theta": 1.0, "p": 1.5}
    return tree


def oracle_config():
    return {
        "units": "SI",
        "task": {"kind": "oracle", "annulus_r": 10.0, "L": 11.0,
                 "n_scales": 1, "refinements": [1, 2]},
    }


def tomo_config():
    return {
        "units": "SI",
        "geometry": disk_geometry(),
        "materials": {"matrix": {"model": "linear", "sigma_s_per_m": 1.0}},
        "boundary": {
            "profile": "x-linear",
            "amplitude_v": 1.0,
            "electrodes": {"count": 8, "coverage": 0.5},
        },
        "task": {
            "kind": "tomo",
            "defects": [{"center_m": [0.0, 0.0], "radius_m": 0.45}],
            "eta": 0.01,
            "seed": 2,
            "delta": "noise-norm",
            "test_radii_m": [0.35],
            "test_spacing_m": 0.35,
            "mode": "pec-limit",
        },
    }


def cable_tomo_config():
    """The README imaging config: six-petal cable, refinement 3."""
    return {
        "units": "SI",
        "geometry": {
            "shape": "cable",
            "outer_radius_m": 0.6e-3,
            "petal_radius_m": 0.12e-3,
            "petals": {"count": 6, "ring_radius_m": 0.35e-3,
                       "phase_deg": 30.0},
            "refinement": 3,
        },
        "materials": {
            "matrix": {"model": "linear", "sigma_s_per_m": 5.55e7},
            "inclusions": {"model": "ej-power-law", "jc_a_per_mm2": 8000.0,
                           "n": 27.0, "e0_v_per_m": 1e-4},
        },
        "boundary": {
            "profile": "x-linear",
            "amplitude_v": 1e-3,
            "electrodes": {"count": 16, "coverage": 0.5},
        },
        "task": {
            "kind": "tomo",
            "defects": [{"center_m": [0.0, 0.0], "radius_m": 0.16e-3}],
            "eta": 0.01,
            "seed": 1,
            "delta": "noise-norm",
            "test_radii_m": [0.05e-3, 0.08e-3],
            "test_spacing_m": 0.05e-3,
            "mode": "pec-limit",
        },
    }


def run(command, config_path, out_dir, *extra):
    return cli.main([command, "--config", str(config_path),
                     "--out", str(out_dir), *extra])


class TestConfigValidation:
    def test_sha_is_of_the_raw_bytes(self, tmp_path):
        path = write_config(tmp_path, oracle_config())
        _, digest = cli.load_config(path)
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_missing_key_names_the_path(self, tmp_path, capsys):
        tree = tomo_config()
        del tree["task"]["eta"]
        code = run("tomo", write_config(tmp_path, tree), tmp_path / "out")
        assert code == cli.EXIT_CONFIG
        assert "task.eta" in capsys.readouterr().err

    def test_nested_missing_key(self, tmp_path, capsys):
        tree = tomo_config()
        del tree["boundary"]["electrodes"]
        code = run("tomo", write_config(tmp_path, tree), tmp_path / "out")
        assert code == cli.EXIT_CONFIG
        assert "boundary.electrodes" in capsys.readouterr().err

    def test_unknown_key_rejected_with_path(self, tmp_path, capsys):
        tree = solve_config()
        tree["geometry"]["bogus"] = 1
        code = run("solve", write_config(tmp_path, tree), tmp_path / "out")
        assert code == cli.EXIT_CONFIG
        assert "geometry.bogus" in capsys.readouterr().err
        # the conjugate-gradient controls, the damping and the start are
        # not configurable
        for key, value in (("linear_tol", 1e-10), ("max_linear_iter", 50),
                           ("damping", 0.7), ("initial_guess", "zero")):
            tree = solve_config()
            tree["solver"] = {key: value}
            code = run("solve", write_config(tmp_path, tree),
                       tmp_path / "out")
            assert code == cli.EXIT_CONFIG
            assert f"solver.{key}: unknown key" in capsys.readouterr().err

    def test_partly_tagged_layout_names_both_counts(self, tmp_path, capsys):
        # at refinement 3 only 16 of these 32 narrow arcs hold an edge
        # midpoint; measuring with the 16 would pass for a 32-electrode run
        tree = cable_tomo_config()
        tree["boundary"]["electrodes"] = {"count": 32, "coverage": 0.3}
        code = run("tomo", write_config(tmp_path, tree), tmp_path / "out")
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert ("config error: boundary.electrodes: 32 arcs configured but "
                "16 of them cover a boundary edge") in err

    def test_arcs_sharing_a_node_are_rejected(self, tmp_path, capsys):
        # at refinement 1 no boundary edge has its midpoint in the
        # 12-degree gaps between these arcs, so neighbouring electrodes
        # share the node between their end edges
        tree = tomo_config()
        tree["geometry"]["refinement"] = 1
        tree["boundary"]["electrodes"] = {"count": 3, "coverage": 0.9}
        code = run("tomo", write_config(tmp_path, tree), tmp_path / "out")
        assert code == cli.EXIT_CONFIG
        assert ("config error: boundary.electrodes: neighbouring arcs share "
                "a boundary node") in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, path", [
        ("geometry.petals.ring_radius_m", 0.5e-3, "geometry.petals"),
        ("geometry.petals.ring_radius_m", 0.1e-3, "geometry.petals"),
        ("boundary.electrodes", {"count": 400, "coverage": 0.99},
         "boundary.electrodes"),
        ("boundary.electrodes", {"count": 16, "coverage": 0.1},
         "boundary.electrodes"),
        ("task.test_radii_m", [1e-9], "task.test_radii_m"),
        ("geometry", {"shape": "annulus", "refinement": 2,
                      "inner_radius_m": 0.6e-3, "outer_radius_m": 0.3e-3},
         "geometry.inner_radius_m"),
        ("materials.inclusions.n", 0.5, "materials.inclusions.n"),
        ("materials.inclusions", {"model": "weighted-power", "theta": 1.0,
                                  "p": 0.5}, "materials.inclusions.p"),
        ("task.delta", -1e-9, "task.delta"),
        ("task.psd_tol", -1e-9, "task.psd_tol"),
    ], ids=["petal-outside", "petals-overlap", "more-arcs-than-edges",
            "arcs-cover-no-edge", "no-test-domain", "annulus-radii",
            "ej-n-at-most-one", "weighted-p-at-most-one", "negative-delta",
            "negative-psd-tol"])
    def test_unbuildable_setup_names_the_path(self, tmp_path, capsys, key,
                                               value, path):
        tree = cable_tomo_config()
        *parents, last = key.split(".")
        node = tree
        for part in parents:
            node = node[part]
        node[last] = value
        code = run("tomo", write_config(tmp_path, tree), tmp_path / "out")
        assert code == cli.EXIT_CONFIG
        assert f"config error: {path}: " in capsys.readouterr().err

    def test_units_must_be_si(self, tmp_path, capsys):
        tree = solve_config()
        tree["units"] = "CGS"
        code = run("solve", write_config(tmp_path, tree), tmp_path / "out")
        assert code == cli.EXIT_CONFIG
        assert "units" in capsys.readouterr().err

    def test_task_kind_must_match_subcommand(self, tmp_path, capsys):
        code = run("sweep", write_config(tmp_path, solve_config()),
                   tmp_path / "out")
        assert code == cli.EXIT_CONFIG
        assert "task.kind" in capsys.readouterr().err

    def test_wrong_type_reports_path(self, tmp_path, capsys):
        tree = solve_config()
        tree["geometry"]["refinement"] = "fine"
        code = run("solve", write_config(tmp_path, tree), tmp_path / "out")
        assert code == cli.EXIT_CONFIG
        assert "geometry.refinement" in capsys.readouterr().err

    def test_material_for_unknown_region(self, tmp_path, capsys):
        tree = sweep_config()
        tree["materials"]["petal-7"] = {"model": "linear",
                                        "sigma_s_per_m": 1.0}
        code = run("sweep", write_config(tmp_path, tree), tmp_path / "out")
        assert code == cli.EXIT_CONFIG
        assert "materials.petal-7" in capsys.readouterr().err

    def test_region_without_material(self, tmp_path, capsys):
        tree = solve_config()
        del tree["materials"]["inclusions"]
        code = run("solve", write_config(tmp_path, tree), tmp_path / "out")
        assert code == cli.EXIT_CONFIG
        assert "materials.inclusion-1" in capsys.readouterr().err

    def test_broken_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"units": "SI", oops', encoding="utf-8")
        assert run("solve", path, tmp_path / "out") == cli.EXIT_CONFIG
        assert "invalid JSON" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        code = run("solve", tmp_path / "nope.json", tmp_path / "out")
        assert code == cli.EXIT_CONFIG


_DELETE = object()

CONFIGS = {"solve": solve_config, "sweep": sweep_config,
           "oracle": oracle_config, "tomo": tomo_config}


def mutated(tree, key, value):
    """``tree`` with the dotted ``key`` set to ``value`` (removed for
    ``_DELETE``); key None replaces the whole tree."""
    if key is None:
        return value
    *parents, last = key.split(".")
    node = tree
    for part in parents:
        node = node[part]
    if value is _DELETE:
        del node[last]
    else:
        node[last] = value
    return tree


class TestConfigErrorTable:
    """One faulty key per row: exit 2, the message starts with the key
    path, and no artifact is written."""

    @pytest.mark.parametrize("command, key, value, path", [
        ("solve", "boundary.amplitude_v", "1 mV", "boundary.amplitude_v"),
        ("solve", "task.mode", 3, "task.mode"),
        ("solve", "boundary", [], "boundary"),
        ("solve", "solver", [], "solver"),
        ("sweep", "geometry.radius_m", 0.0, "geometry.radius_m"),
        ("sweep", "geometry.refinement", 0, "geometry.refinement"),
        ("sweep", "geometry.shape", "square", "geometry.shape"),
        ("solve", "geometry.petals.centers_m", [[0.0]],
         "geometry.petals.centers_m[0]"),
        ("solve", None, [], "config.json"),
        ("solve", "geometry.petals.centers_m", [],
         "geometry.petals.centers_m"),
        ("solve", "geometry.petals.count", 6, "geometry.petals.count"),
        ("sweep", "materials.matrix", 1.0, "materials.matrix"),
        ("solve", "materials.inclusions.name", "unobtainium",
         "materials.inclusions.name"),
        ("tomo", "boundary.electrodes.coverage", 1.0,
         "boundary.electrodes.coverage"),
        ("solve", "geometry", _DELETE, "geometry"),
        ("sweep", "task", _DELETE, "task"),
        ("oracle", "bogus", 1, "bogus"),
        ("sweep", "task.lambda_high", 1e-3, "task.lambda_high"),
        ("oracle", "task.annulus_r", 5.0, "task.annulus_r"),
        ("oracle", "task.refinements", [2], "task.refinements"),
        ("oracle", "task.refinements", [2, 2], "task.refinements"),
        ("oracle", "task.L", 5.0, "task.L"),
        ("tomo", "task.eta", -0.1, "task.eta"),
        ("tomo", "task.seed", -1, "task.seed"),
        ("tomo", "task.defect_sigma_factor", 1.0,
         "task.defect_sigma_factor"),
        ("tomo", "task.defects", [], "task.defects"),
        ("tomo", "task.test_radii_m", "large", "task.test_radii_m"),
        ("tomo", "task.test_spacing_m", -0.1, "task.test_spacing_m"),
        ("tomo", "task.test_spacing_m", 10.0, "task.test_spacing_m"),
        ("tomo", "materials.matrix",
         {"model": "weighted-power", "theta": 1.0, "p": 3.0},
         "materials.matrix"),
        ("tomo", "task.defects", [1.0], "task.defects[0]"),
        ("tomo", "task.defects", [{"center_m": "origin", "radius_m": 0.1}],
         "task.defects[0].center_m"),
        ("tomo", "task.defects",
         [{"center_m": [0.0, 0.0], "radius_m": 0.1, "depth_m": 1.0}],
         "task.defects[0].depth_m"),
        ("tomo", "task.defects", [{"center_m": [5.0, 5.0], "radius_m": 0.1}],
         "task.defects"),
        ("tomo", "task.delta", "max", "task.delta"),
        ("tomo", "task.eta", float("nan"), "task.eta"),
        ("solve", "boundary.amplitude_v", float("inf"), "boundary.amplitude_v"),
        ("tomo", "task.defects",
         [{"center_m": [0.0, float("-inf")], "radius_m": 0.1}],
         "task.defects[0].center_m"),
    ], ids=["number-type", "string-type", "object-type", "solver-type",
            "positive", "at-least", "one-of", "xy-pair", "top-level-object",
            "empty-centers", "centers-and-count", "material-entry-type",
            "unknown-preset", "coverage-at-one", "missing-geometry",
            "missing-task", "unknown-top-key", "lambda-order",
            "annulus-r-below-10", "one-refinement", "repeated-refinement",
            "L-at-most-10",
            "negative-eta", "negative-seed", "factor-at-one", "no-defects",
            "radii-type", "negative-spacing", "empty-test-grid",
            "nonlinear-matrix",
            "defect-entry-type", "defect-center", "unknown-disc-key",
            "defects-miss-mesh", "delta-word", "nan-eta",
            "infinite-amplitude", "infinite-center"])
    def test_error_names_the_path(self, tmp_path, capsys, command, key,
                                  value, path):
        tree = mutated(CONFIGS[command](), key, value)
        out = tmp_path / "out"
        code = run(command, write_config(tmp_path, tree), out)
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert f"{path}: " in err
        assert not out.exists()


class TestNonFiniteNumbers:
    """Python's json reads NaN and Infinity, and integers of any size;
    a number that is not a finite float is a config error, not a crash
    in the solve that reads it."""

    @pytest.mark.parametrize("command, key, value, path", [
        ("tomo", "task.eta", float("nan"), "task.eta"),
        ("tomo", "task.eta", float("inf"), "task.eta"),
        ("solve", "boundary.amplitude_v", float("inf"), "boundary.amplitude_v"),
        ("sweep", "task.lambda_high", 10**400, "task.lambda_high"),
        ("tomo", "task.defects",
         [{"center_m": [float("nan"), 0.0], "radius_m": 0.1}],
         "task.defects[0].center_m"),
        ("tomo", "task.test_radii_m", [0.08, float("inf")],
         "task.test_radii_m"),
    ], ids=["nan", "infinity", "infinite-positive", "huge-integer",
            "nan-center", "infinite-radius"])
    def test_rejected_as_not_finite(self, tmp_path, capsys, command, key,
                                    value, path):
        tree = mutated(CONFIGS[command](), key, value)
        out = tmp_path / "out"
        code = run(command, write_config(tmp_path, tree), out)
        assert code == cli.EXIT_CONFIG
        assert f"{path}: must be finite" in capsys.readouterr().err
        assert not out.exists()


class TestFailBeforeWork:
    """A config error exits before the first solve and writes nothing."""

    @pytest.mark.parametrize("key, value", [
        ("delta", -1.0), ("psd_tol", -1.0), ("test_radii_m", [1e-9])])
    def test_tomo_builds_no_operator(self, tmp_path, capsys, monkeypatch,
                                     key, value):
        def refuse(*args, **kwargs):
            raise AssertionError("ConductanceOperator built")

        monkeypatch.setattr(tomography, "ConductanceOperator", refuse)
        tree = cable_tomo_config()
        tree["task"]["mode"] = "nonlinear"
        tree["task"][key] = value
        out = tmp_path / "out"
        code = run("tomo", write_config(tmp_path, tree), out)
        assert code == cli.EXIT_CONFIG
        assert f"config error: task.{key}: " in capsys.readouterr().err
        assert not any(out.glob("*"))

    def test_tomo_names_the_spacing_that_leaves_no_center(self, tmp_path,
                                                          capsys):
        # the README cable is 1.2 mm across: a 1 cm grid has no point in it
        tree = cable_tomo_config()
        tree["task"]["test_spacing_m"] = 0.01
        out = tmp_path / "out"
        code = run("tomo", write_config(tmp_path, tree), out)
        assert code == cli.EXIT_CONFIG
        assert ("config error: task.test_spacing_m: spacing 0.01 leaves no "
                "disc center inside the mesh") in capsys.readouterr().err
        assert not out.exists()

    def test_oracle_checks_l_before_the_annulus_solves(self, tmp_path,
                                                       capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("annulus solved")

        monkeypatch.setattr(cli, "annulus_validation", refuse)
        tree = oracle_config()
        tree["task"]["L"] = 5.0
        out = tmp_path / "out"
        assert run("oracle", write_config(tmp_path, tree),
                   out) == cli.EXIT_CONFIG
        assert "config error: task.L: " in capsys.readouterr().err
        assert not any(out.glob("*"))

    def test_oracle_accepts_and_skips_the_mesh_sections(self, tmp_path,
                                                        capsys):
        # a config shared with the other commands: oracle reads none of
        # geometry, materials or boundary, so the task's fault is reported
        tree = oracle_config()
        tree.update(geometry={"bogus": 1}, materials=[], boundary=None)
        tree["task"]["L"] = 5.0
        assert run("oracle", write_config(tmp_path, tree),
                   tmp_path / "out") == cli.EXIT_CONFIG
        assert "config error: task.L: " in capsys.readouterr().err

    def test_quadrature_failure_leaves_no_artifact(self, tmp_path,
                                                   monkeypatch):
        from qlert import oracle

        def unconverged(*args, **kwargs):
            raise oracle.QuadratureError("polar quadrature did not converge")

        monkeypatch.setattr(oracle, "counterexample_energies", unconverged)
        out = tmp_path / "out"
        assert run("oracle", write_config(tmp_path, oracle_config()),
                   out) == cli.EXIT_SOLVER
        assert not any(out.glob("*"))


class TestSolveCommand:
    def test_artifacts_and_provenance(self, tmp_path, capsys):
        path = write_config(tmp_path, solve_config())
        out = tmp_path / "out"
        assert run("solve", path, out) == cli.EXIT_OK
        _, digest = cli.load_config(path)
        for name in ("potential.csv", "field.csv", "potential.svg",
                     "field.svg", "report.json"):
            assert (out / name).exists()
        head = (out / "potential.csv").read_text().splitlines()[0]
        assert head == f"# config sha256:{digest}"
        assert f"config sha256:{digest}" in (out / "field.svg").read_text()
        report = json.loads((out / "report.json").read_text())
        assert report["config_sha256"] == digest
        assert report["mode"] == "pec-limit"
        assert report["iterations"] == 1
        assert report["monitors"]["energy_descent_ok"]
        assert report["violations"] == []

    def test_field_csv_has_one_row_per_element(self, tmp_path):
        tree = solve_config()
        path = write_config(tmp_path, tree)
        out = tmp_path / "out"
        assert run("solve", path, out) == cli.EXIT_OK
        lines = (out / "field.csv").read_text().splitlines()
        # comment + header + elements
        mesh = cli.build_mesh(tree)
        assert len(lines) == mesh.element_count + 2
        assert lines[1].split(",")[0] == "element"

    def test_nonlinear_mode_runs(self, tmp_path):
        tree = solve_config()
        tree["task"]["mode"] = "nonlinear"
        tree["solver"] = {"picard_tol": 1e-6}
        out = tmp_path / "out"
        assert run("solve", write_config(tmp_path, tree), out) == cli.EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["iterations"] >= 1
        assert report["monitors"]["max_principle_ok"]

    def test_pei_limit_mode_runs(self, tmp_path):
        # insulating petals lower the energy of the same Dirichlet data
        # below that of perfectly conducting ones
        energies = {}
        for mode in ("pei-limit", "pec-limit"):
            tree = solve_config()
            tree["task"]["mode"] = mode
            out = tmp_path / mode
            assert run("solve", write_config(tmp_path, tree),
                       out) == cli.EXIT_OK
            report = json.loads((out / "report.json").read_text())
            assert report["mode"] == mode
            assert report["monitors"]["max_principle_ok"]
            assert report["violations"] == []
            energies[mode] = report["energy"]
        assert 0 < energies["pei-limit"] < energies["pec-limit"]

    def test_report_lists_only_its_own_violations(self, tmp_path,
                                                  monkeypatch):
        # the registry spans the process: a report must not depend on
        # what ran before it
        path = write_config(tmp_path, solve_config())
        with monkeypatch.context() as patch:
            patch.setattr(solver, "MAX_PRINCIPLE_RTOL", -1.0)
            assert run("solve", path, tmp_path / "breach") == cli.EXIT_OK
        assert run("solve", path, tmp_path / "clean") == cli.EXIT_OK
        filed = list(solver.VIOLATIONS)
        solver.clear_violations()
        assert run("solve", path, tmp_path / "fresh") == cli.EXIT_OK
        assert solver.VIOLATIONS == []
        assert [v["kind"] for v in filed] == ["max-principle"]
        breach = json.loads((tmp_path / "breach" / "report.json").read_text())
        assert breach["violations"] == filed
        clean = (tmp_path / "clean" / "report.json").read_bytes()
        assert clean == (tmp_path / "fresh" / "report.json").read_bytes()
        assert json.loads(clean)["violations"] == []

    @pytest.mark.parametrize("inclusions, damping", [
        ({"model": "preset", "name": "YBCO-AMSC"}, 1.0),
        ({"model": "weighted-power", "theta": 2.0, "p": 3.0}, 0.7),
    ])
    def test_report_records_resolved_damping(self, tmp_path, inclusions,
                                             damping):
        tree = solve_config()
        tree["materials"]["inclusions"] = inclusions
        tree["task"]["mode"] = "nonlinear"
        out = tmp_path / "out"
        assert run("solve", write_config(tmp_path, tree), out) == cli.EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["monitors"]["damping"] == damping


class TestSweepCommand:
    def test_csv_and_plot(self, tmp_path):
        path = write_config(tmp_path, sweep_config())
        out = tmp_path / "out"
        assert run("sweep", path, out) == cli.EXIT_OK
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[1] == "lambda,e2,einf,G0_lambda,picard_iters"
        data = np.array([line.split(",") for line in lines[2:]], dtype=float)
        assert data.shape == (3, 5)
        # quadratic material: every point solves the limit's own problem
        assert np.all(data[:, 1] == 0.0)
        svg = (out / "sweep.svg").read_text()
        assert svg.startswith("<svg") and "polyline" not in svg
        assert "no positive values" in svg
        report = json.loads((out / "report.json").read_text())
        assert report["all_ok"] is True
        assert report["status"] == ["ok", "ok", "ok"]

    def test_power_law_inclusion_plots_both_error_curves(self, tmp_path):
        path = write_config(tmp_path, power_sweep_config())
        out = tmp_path / "out"
        assert run("sweep", path, out) == cli.EXIT_OK
        lines = (out / "sweep.csv").read_text().splitlines()
        data = np.array([line.split(",") for line in lines[2:]], dtype=float)
        # the inclusion approaches the perfect conductor as lambda falls
        assert np.all(data[:, 1] > 0) and np.all(np.diff(data[:, 1]) < 0)
        svg = (out / "sweep.svg").read_text()
        assert svg.count("<polyline") == 2
        assert "no positive values" not in svg

    def test_p0_is_not_a_key(self, tmp_path, capsys):
        # g0's exponent is the one the matrix law declares
        tree = sweep_config()
        tree["task"]["p0"] = 2.0
        out = tmp_path / "out"
        assert run("sweep", write_config(tmp_path, tree),
                   out) == cli.EXIT_CONFIG
        assert "config error: task.p0: unknown key" in capsys.readouterr().err
        assert not out.exists()


class TestOracleCommand:
    def test_validation_report(self, tmp_path):
        path = write_config(tmp_path, oracle_config())
        out = tmp_path / "out"
        assert run("oracle", path, out) == cli.EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["scales"]["interleaved"] is True
        assert report["scales"]["ratio_error"] <= 1e-12
        assert report["scales"]["psi_convex"] is True
        assert report["energies"]["separated"] is True
        assert report["energies"]["ell2"] > report["energies"]["ell1"]
        rows = report["annulus"]["rows"]
        assert len(rows) == 2
        assert rows[1][2] < rows[0][2]
        lines = (out / "oracle.csv").read_text().splitlines()
        assert lines[1] == "refinement,h,rel_l2_error,observed_order"
        assert len(lines) == 4


class TestTomoCommand:
    def test_pipeline_and_determinism(self, tmp_path):
        path = write_config(tmp_path, tomo_config())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run("tomo", path, out_a) == cli.EXIT_OK
        assert run("tomo", path, out_b) == cli.EXIT_OK
        names = ("background_g.csv", "measured_g.csv", "reconstruction.csv",
                 "reconstruction.svg", "report.json", "domains.csv")
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        report = json.loads((out_a / "report.json").read_text())
        assert report["seed"] == 2
        assert report["delta"] > 0
        assert 0.0 <= report["coverage"] <= 1.0
        assert isinstance(report["upper_bound"], bool)
        g_lines = (out_a / "measured_g.csv").read_text().splitlines()
        assert g_lines[1].split(",") == [f"electrode_{i}" for i in range(8)]
        assert len(g_lines) == 10
        assert all(len(line.split(",")) == 8 for line in g_lines[2:])
        d_lines = (out_a / "domains.csv").read_text().splitlines()
        assert d_lines[1] == ("domain,cx_m,cy_m,radius_m,min_eig,raw_min_eig,"
                              "margin,accepted")
        rows = [line.split(",") for line in d_lines[2:]]
        assert len(rows) == report["test_domains"]
        assert sum(int(r[7]) for r in rows) == report["accepted"]
        for r in rows:
            # accepted exactly when the margin against psd_tol is >= 0
            assert (float(r[6]) >= 0) == (r[7] == "1")
            assert float(r[6]) == pytest.approx(
                float(r[4]) + report["psd_tol"], rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("key, value", [("delta", 0.25),
                                            ("psd_tol", 1e-3)])
    def test_numeric_tolerance_is_used(self, tmp_path, key, value):
        tree = tomo_config()
        tree["task"][key] = value
        out = tmp_path / "out"
        assert run("tomo", write_config(tmp_path, tree), out) == cli.EXIT_OK
        assert json.loads((out / "report.json").read_text())[key] == value

    def test_scalar_test_radius_is_a_one_radius_list(self, tmp_path):
        tree = tomo_config()
        assert tree["task"]["test_radii_m"] == [0.35]
        assert run("tomo", write_config(tmp_path, tree),
                   tmp_path / "list") == cli.EXIT_OK
        tree["task"]["test_radii_m"] = 0.35
        assert run("tomo", write_config(tmp_path, tree),
                   tmp_path / "scalar") == cli.EXIT_OK
        for name in ("domains.csv", "reconstruction.csv"):
            # apart from the config hash on the first line
            lines = [(tmp_path / out / name).read_text().splitlines()[1:]
                     for out in ("list", "scalar")]
            assert lines[0] == lines[1]

    def test_weighted_power_matrix_with_p_2_is_the_linear_matrix(
            self, tmp_path):
        names = ("background_g.csv", "measured_g.csv", "reconstruction.csv",
                 "reconstruction.svg", "report.json", "domains.csv")
        artifacts = []
        for law in ({"model": "linear", "sigma_s_per_m": 2.5},
                    {"model": "weighted-power", "theta": 2.5, "p": 2}):
            tree = tomo_config()
            tree["materials"]["matrix"] = law
            path = write_config(tmp_path, tree, f"{law['model']}.json")
            out = tmp_path / law["model"]
            assert run("tomo", path, out) == cli.EXIT_OK
            digest = cli.load_config(path)[1].encode()
            artifacts.append([(out / name).read_bytes().replace(digest, b"")
                              for name in names])
        assert artifacts[0] == artifacts[1]

    def test_seed_flag_overrides_config(self, tmp_path):
        path = write_config(tmp_path, tomo_config())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run("tomo", path, out_a) == cli.EXIT_OK
        assert run("tomo", path, out_b, "--seed", "9") == cli.EXIT_OK
        same = (out_a / "background_g.csv").read_bytes()
        assert same == (out_b / "background_g.csv").read_bytes()
        assert (out_a / "measured_g.csv").read_bytes() != \
            (out_b / "measured_g.csv").read_bytes()
        assert json.loads((out_b / "report.json").read_text())["seed"] == 9

    def test_reconstruction_rows_cover_the_mesh(self, tmp_path):
        tree = tomo_config()
        path = write_config(tmp_path, tree)
        out = tmp_path / "out"
        assert run("tomo", path, out) == cli.EXIT_OK
        lines = (out / "reconstruction.csv").read_text().splitlines()
        mesh = cli.build_mesh(tree)
        assert len(lines) == mesh.element_count + 2
        flags = np.array([line.split(",")[3:] for line in lines[2:]],
                         dtype=int)
        assert set(np.unique(flags)) <= {0, 1}
        assert flags[:, 0].sum() > 0

    def test_field_independent_nonlinear_run_shares_one_operator(
            self, tmp_path, monkeypatch):
        # linear petals: every matrix is a low-rank update of the
        # background factorization, as in the pec limit
        tree = cable_tomo_config()
        tree["materials"]["inclusions"] = {"model": "linear",
                                           "sigma_s_per_m": 5.55e9}
        tree["task"].update(mode="nonlinear", test_radii_m=[0.08e-3],
                            test_spacing_m=0.1e-3)
        path = write_config(tmp_path, tree)
        assemblers = []

        class CountingAssembler(fem.Assembler):
            def __init__(self, *args, **kwargs):
                assemblers.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(fem, "Assembler", CountingAssembler)
        assert run("tomo", path, tmp_path / "shared") == cli.EXIT_OK
        assert len(assemblers) == 1

        # the replaced path: every matrix from its own relabelled mesh
        # and factorization, checked against the shared operator's
        operator = tomography.ConductanceOperator
        init, shared = operator.__init__, operator.matrices
        worst = []

        def keep_map(self, mesh, material_map, *args, **kwargs):
            self.models = material_map.models
            self.given_mode = given_mode(init, self, mesh, material_map,
                                         *args, **kwargs)
            init(self, mesh, material_map, *args, **kwargs)

        def per_domain(self, masks, model, scenarios):
            out = []
            for mask, got in zip(masks,
                                 shared(self, masks, model, scenarios)):
                tm = qmesh.relabel_elements(self.mesh, mask, "test-domain")
                want = tomography.ConductanceOperator(
                    tm, materials.MaterialMap({**self.models,
                                               "test-domain": model}),
                    amplitude=self.amplitude, mode=self.given_mode,
                ).background()
                worst.append(np.abs(got.matrix - want.matrix).max()
                             / np.abs(want.matrix).max())
                out.append(want)
            return out

        # ``matrix`` (the defect) is the one-mask case of ``matrices``
        monkeypatch.setattr(operator, "__init__", keep_map)
        monkeypatch.setattr(operator, "matrices", per_domain)
        assemblers.clear()
        assert run("tomo", path, tmp_path / "per-domain") == cli.EXIT_OK
        report = json.loads((tmp_path / "shared" / "report.json").read_text())
        assert len(worst) == report["test_domains"] + 1  # and the defect
        assert len(assemblers) == len(worst) + 1
        assert max(worst) <= 1e-10

        def accepted(out):
            lines = (tmp_path / out / "domains.csv").read_text().splitlines()
            return [line.rsplit(",", 1)[1] for line in lines[2:]]

        assert "1" in accepted("shared")
        assert accepted("shared") == accepted("per-domain")
        assert ((tmp_path / "shared" / "reconstruction.csv").read_bytes()
                == (tmp_path / "per-domain" / "reconstruction.csv")
                .read_bytes())

    def test_field_dependent_nonlinear_run_matches_per_domain_path(
            self, tmp_path, monkeypatch):
        # E-J petals: every matrix runs the fixed-point solver on its own
        # relabelled mesh, as the replaced per-domain path did
        tree = cable_tomo_config()
        tree["geometry"]["refinement"] = 1
        tree["boundary"]["electrodes"]["count"] = 4
        tree["task"].update(mode="nonlinear", test_radii_m=[0.15e-3],
                            test_spacing_m=0.5e-3)
        path = write_config(tmp_path, tree)
        assemblers = []

        class CountingAssembler(fem.Assembler):
            def __init__(self, *args, **kwargs):
                assemblers.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(fem, "Assembler", CountingAssembler)
        assert run("tomo", path, tmp_path / "operator") == cli.EXIT_OK
        report = json.loads(
            (tmp_path / "operator" / "report.json").read_text())
        # the background, the defect and each test domain
        assert len(assemblers) == report["test_domains"] + 2

        replaced = []
        operator = tomography.ConductanceOperator
        init = operator.__init__

        def keep_mode(self, *args, **kwargs):
            self.given_mode = given_mode(init, self, *args, **kwargs)
            init(self, *args, **kwargs)

        def per_domain(self, masks, model, scenarios):
            out = []
            for mask, scenario in zip(masks, scenarios):
                replaced.append(scenario)
                tm = qmesh.relabel_elements(self.mesh, mask, "test-domain")
                out.append(tomography.ConductanceOperator(
                    tm, materials.MaterialMap({**self._map.models,
                                               "test-domain": model}),
                    amplitude=self.amplitude, mode=self.given_mode,
                    config=cli.build_solver_config(tree),
                ).background())
            return out

        # ``matrix`` (the defect) is the one-mask case of ``matrices``
        monkeypatch.setattr(operator, "__init__", keep_mode)
        monkeypatch.setattr(operator, "matrices", per_domain)
        assert run("tomo", path, tmp_path / "per-domain") == cli.EXIT_OK
        assert len(replaced) == report["test_domains"] + 1  # and the defect
        names = sorted(p.name for p in (tmp_path / "operator").iterdir())
        assert names == sorted(p.name
                               for p in (tmp_path / "per-domain").iterdir())
        for name in names:
            assert ((tmp_path / "operator" / name).read_bytes()
                    == (tmp_path / "per-domain" / name).read_bytes()), name


class TestWriteCsv:
    """Column-wise CSV cells equal the per-value row writer's."""

    def both(self, tmp_path, header, columns):
        cli._write_csv(tmp_path / "new.csv", "d", header, columns)
        ref.write_csv(tmp_path / "old.csv", "d", header, columns)
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "old.csv").read_bytes()
        return new.decode()

    def test_integer_and_string_columns(self, tmp_path):
        text = self.both(tmp_path, ("py", "np", "u8", "name"), (
            [0, -3, 2**40], np.array([7, 0, -9], dtype=np.int64),
            np.array([1, 2, 255], dtype=np.uint8), ["a", "bb", "c_1"],
        ))
        assert text.splitlines()[2:] == ["0,7,1,a", "-3,0,2,bb",
                                         "1099511627776,-9,255,c_1"]

    def test_special_floats(self, tmp_path):
        values = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e16, 0.1,
                  1 / 3, -2.5e-300]
        text = self.both(tmp_path, ("f64", "f32", "py", "long"), (
            np.array(values), np.array(values, dtype=np.float32), values,
            np.array(values, dtype=np.longdouble),
        ))
        assert text.splitlines()[2].split(",") == ["nan"] * 4
        assert text.splitlines()[8] == \
            "1e+16,1.0000000272564224e+16,1e+16,1e+16"

    def test_matrix_columns_and_blocks(self, tmp_path):
        g = np.random.default_rng(0).standard_normal((16, 16))
        self.both(tmp_path, [f"electrode_{i}" for i in range(16)], g.T)
        n = 2 * _cells._CSV_BLOCK + 5
        text = self.both(tmp_path, ("k", "x"),
                         (np.arange(n), np.linspace(-1.0, 1.0, n)))
        assert len(text.splitlines()) == n + 2

    def test_empty_and_malformed_columns(self, tmp_path):
        text = self.both(tmp_path, ("id", "x"), ([], np.zeros(0)))
        assert text == "# config sha256:d\nid,x\n"
        with pytest.raises(ValueError, match="equal length"):
            cli._write_csv(tmp_path / "x.csv", "d", ("a", "b"),
                           (np.zeros(2), np.zeros(3)))
        with pytest.raises(ValueError, match="equal length"):
            cli._write_csv(tmp_path / "x.csv", "d", ("a",),
                           (np.zeros(2), np.zeros(2)))
        with pytest.raises(TypeError, match="dtype"):
            cli._write_csv(tmp_path / "x.csv", "d", ("a",),
                           (np.zeros(2, dtype=bool),))

    def test_floats_equal_repr_exactly(self, tmp_path):
        rng = np.random.default_rng(25)
        bits = rng.integers(0, 2**64, size=2**20, dtype=np.uint64)
        tens = np.array([float(f"1e{k}") for k in range(-300, 301)])
        twos = np.ldexp(1.0, np.arange(-1074, 1024))
        subnormal = rng.integers(1, 2**52, size=1000, dtype=np.uint64)
        # decimals one half-unit past a 15-, 16- or 17-digit rounding, as
        # read to the nearest double
        halves = [float(f"{d}5e{e}")
                  for digits in (15, 16, 17)
                  for d, e in zip(
                      rng.integers(10 ** (digits - 1), 10 ** digits, 10_000),
                      rng.integers(-170, 150, 10_000))]
        # exact ties: odd multiples of 2**-n end on a 5, and between two
        # wide doubles every short decimal may sit on the half-way point
        odd = np.arange(1, 200, 2.0)
        ties = np.concatenate([np.ldexp(odd, -n) for n in range(80)]
                              + [np.ldexp(2.0**52 + odd, n) for n in range(80)])
        near = np.concatenate([tens, halves, ties])
        signed = np.concatenate([
            subnormal.view(np.float64), twos, near, np.nextafter(near, 0),
            np.nextafter(near, np.inf), [0.0, np.nan, np.inf,
                                         9.999999999999999e-06,
                                         9.999999999999999e-05]])
        values = np.concatenate([bits.view(np.float64), signed, -signed])
        values = np.resize(values, (8, -(-len(values) // 8)))
        text = self.both(tmp_path, [f"c{i}" for i in range(8)], values)
        # With _cells._MARGIN set to 0 the filter prints
        # 1.0000000000000001e+23, the double above 1e23, as 1e+23: 10**23
        # lies half-way between it and the double below, and reads back as
        # that one.
        cells = set(",".join(text.splitlines()[2:]).split(","))
        assert {"1.0000000000000001e+23", "9.999999999999999e-06",
                "9.999999999999999e-05", "-0.0", "5e-324"} <= cells
        some = values[:, ::64].ravel()
        with np.errstate(over="ignore", invalid="ignore"):
            self.both(tmp_path, ("f32", "long", "list"), (
                some.astype(np.float32), some.astype(np.longdouble),
                some.tolist()))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_any_floats_equal_repr(self, values):
        text = _cells._csv_block([np.array(values)]).decode()
        assert text.splitlines() == [repr(v) for v in values]

    def count_fallbacks(self, monkeypatch):
        calls = []
        exact = _cells._repr_float

        def counted(value):
            calls.append(value)
            return exact(value)

        monkeypatch.setattr(_cells, "_repr_float", counted)
        return calls

    def test_fallback_takes_what_the_filter_cannot(self, tmp_path,
                                                   monkeypatch):
        calls = self.count_fallbacks(monkeypatch)
        special = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.5e-310,
                   2.0**-1022, 0.5, -1.0, 2.0**60, 1e-300, -1e305]
        # two exact ties: 3 * 2**-24 ends on the 18th digit's 5, and 1e23
        # is half-way between two doubles
        ties = [3 * 2.0**-24, 1e23, np.nextafter(1e23, np.inf)]
        plain = [0.1, 1 / 3, -2.5e-7, 1e15, 123.0, 6.02214076e23]
        self.both(tmp_path, ("x",), (special + ties + plain,))
        assert calls[:len(special)] == pytest.approx(special, nan_ok=True)
        assert len(calls) == len(special + ties)

    def test_kernel_writes_a_solve(self, tmp_path, monkeypatch):
        # the README cable at refinement 5: at most 1 % of the floats of
        # potential.csv and field.csv go to repr
        tree = cable_tomo_config()
        tree["geometry"]["refinement"] = 5
        del tree["boundary"]["electrodes"]
        tree["task"] = {"kind": "solve", "mode": "nonlinear"}
        calls = self.count_fallbacks(monkeypatch)
        assert run("solve", write_config(tmp_path, tree),
                   tmp_path / "out") == cli.EXIT_OK
        floats = 0
        for name in ("potential.csv", "field.csv"):
            rows = (tmp_path / "out" / name).read_text().splitlines()[2:]
            floats += sum(row.count(",") for row in rows)
        assert floats > 20_000
        assert len(calls) <= 0.01 * floats

    def test_peak_memory_of_an_r6_field_csv(self, tmp_path):
        # the refinement-6 README cable's field.csv: 24,708 rows of an
        # element id and five floats
        rng = np.random.default_rng(6)
        n = 24_708
        columns = (np.arange(n), *rng.standard_normal((5, n)) * 1e-3)
        _cells._tables()  # built once per process and kept
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cli._write_csv(tmp_path / "field.csv", "d",
                           ("element", "cx_m", "cy_m", "ex_v_per_m",
                            "ey_v_per_m", "e_v_per_m"), columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= 4 * 2**20


class TestArtifactsMatchPerValueWriters:
    """Every artifact is byte-identical to the per-value writers' output."""

    def configs(self):
        solve = solve_config()
        solve["task"]["mode"] = "nonlinear"
        solve["solver"] = {"picard_tol": 1e-6}
        return {"solve": solve, "sweep": sweep_config(),
                "oracle": oracle_config(), "tomo": tomo_config()}

    @pytest.mark.parametrize("command", ["solve", "sweep", "oracle", "tomo"])
    def test_command(self, command, tmp_path, monkeypatch):
        path = write_config(tmp_path, self.configs()[command])
        assert run(command, path, tmp_path / "new") == cli.EXIT_OK
        for owner, name, writer in (
                (render, "heatmap", ref.heatmap),
                (render, "mask_overlay", ref.mask_overlay),
                (render, "line_plot", ref.line_plot),
                (cli, "_write_csv", ref.write_csv),
                (cli, "_region_outlines", ref.region_outlines)):
            monkeypatch.setattr(owner, name, writer)
        assert run(command, path, tmp_path / "old") == cli.EXIT_OK
        names = sorted(p.name for p in (tmp_path / "new").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "old").iterdir())
        assert len(names) >= 2
        for name in names:
            assert ((tmp_path / "new" / name).read_bytes()
                    == (tmp_path / "old" / name).read_bytes()), name


class TestExitCodes:
    def test_non_convergence_maps_to_three(self, tmp_path, capsys):
        tree = solve_config()
        tree["task"]["mode"] = "nonlinear"
        tree["solver"] = {"max_picard_iter": 1, "picard_tol": 1e-14}
        code = run("solve", write_config(tmp_path, tree), tmp_path / "out")
        assert code == cli.EXIT_SOLVER
        assert "tolerance" in capsys.readouterr().err

    def test_sweep_with_every_point_failed_maps_to_three(self, tmp_path,
                                                         capsys):
        tree = cable_tomo_config()
        tree["geometry"]["refinement"] = 2
        tree["boundary"] = {"profile": "x-linear", "amplitude_v": 1.0}
        tree["solver"] = {"max_picard_iter": 1}
        tree["task"] = {"kind": "sweep", "limit": "pec", "lambda_high": 1,
                        "lambda_low": 0.5}
        out = tmp_path / "out"
        assert run("sweep", write_config(tmp_path, tree), out) == cli.EXIT_SOLVER
        err = capsys.readouterr().err
        assert "solver error: all 4 sweep points failed, the first with error:" in err
        assert list(out.iterdir()) == []

    def test_quadrature_failure_maps_to_three(self, tmp_path, capsys,
                                              monkeypatch):
        from qlert import oracle

        def unconverged(*args, **kwargs):
            raise oracle.QuadratureError("polar quadrature did not converge")

        monkeypatch.setattr(oracle, "counterexample_energies", unconverged)
        path = write_config(tmp_path, oracle_config())
        code = run("oracle", path, tmp_path / "out")
        assert code == cli.EXIT_SOLVER
        assert ("solver error: polar quadrature did not converge"
                in capsys.readouterr().err)

    def test_unwritable_output_maps_to_four(self, tmp_path, capsys):
        path = write_config(tmp_path, oracle_config())
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory", encoding="utf-8")
        code = run("oracle", path, blocker / "out")
        assert code == cli.EXIT_IO
        assert "error" in capsys.readouterr().err


def test_cli_import_leaves_sparse_linalg_unloaded():
    # solve and sweep never factor a matrix; the direct solver imports
    # scipy.sparse.linalg on first use, so cold starts do not pay for it
    src = str(Path(qlert.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    # nor does any command but oracle need the reference fields, nor
    # anything scipy.spatial
    probe = ("import sys, qlert.cli; "
             "print('scipy.sparse.linalg' in sys.modules, "
             "'qlert.oracle' in sys.modules, "
             "'scipy.spatial' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False False False"


def test_cable_meshing_and_solve_leave_scipy_spatial_unloaded(tmp_path):
    # the petal stitch needs no Qhull: meshing the README cable and one
    # pec-limit solve of it load no scipy.spatial
    tree = cable_tomo_config()
    del tree["boundary"]["electrodes"]
    tree["task"] = {"kind": "solve", "mode": "pec-limit"}
    path = write_config(tmp_path, tree)
    src = str(Path(qlert.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = (
        "import math, sys, qlert.cli as cli, qlert.mesh as qm; "
        "centers = [(0.35e-3 * math.cos(math.radians(30 + 60 * k)), "
        "0.35e-3 * math.sin(math.radians(30 + 60 * k))) for k in range(6)]; "
        "qm.generate_petal_cable(0.6e-3, centers, 0.12e-3, 3); "
        f"code = cli.main(['solve', '--config', {str(path)!r}, "
        f"'--out', {str(tmp_path / 'out')!r}]); "
        "print(code, 'scipy.spatial' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip().splitlines()[-1] == "0 False"
