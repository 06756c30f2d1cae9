"""End-to-end CLI behavior: exit codes, artifacts, reproducibility."""

import contextlib
import copy
import hashlib
import io
import json
import math
import pathlib
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gapflow import cli, dynamics, engine
from gapflow import model as model_module
from gapflow.cli import arrow_check_main, main
from gapflow.dynamics import GapSemantics, IntegratorConfig
from gapflow.ensemble import run_ensemble
from gapflow.errors import NonFiniteStateError
from gapflow.model import load_scenario_file, serialize_scenario
from gapflow.output import RERUN_FIELDS, build_manifest, load_manifest
from gapflow.rules import RuleSet

from conftest import scenario_path, star_model

TWO_LEVEL = str(scenario_path("two_level"))
THREE_MODE = str(scenario_path("three_mode"))


def read_bytes(path):
    return pathlib.Path(path).read_bytes()


def tree_bytes(out_dir):
    root = pathlib.Path(out_dir)
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_ok(capsys):
    assert main(["validate", "--scenario", TWO_LEVEL]) == 0
    assert "OK" in capsys.readouterr().out


def test_validate_rejects_bad_model(tmp_path, capsys):
    doc = json.loads(pathlib.Path(TWO_LEVEL).read_text())
    doc["components"][1]["indices"] = [0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", "--scenario", str(bad)]) == 1
    assert "components overlap" in capsys.readouterr().out


def test_validate_missing_file_exits_2(capsys):
    assert main(["validate", "--scenario", "/nonexistent/nope.json"]) == 2


def test_validate_parse_error_exits_1(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{]")
    assert main(["validate", "--scenario", str(bad)]) == 1


@pytest.mark.parametrize("key,value", [("rules", ["nrules3"]), ("seed", "x")])
def test_mistyped_defaults_exit_1(tmp_path, capsys, key, value):
    """validate and run report the field and exit 1 instead of raising."""
    doc = json.loads(pathlib.Path(TWO_LEVEL).read_text())
    doc["defaults"][key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", "--scenario", str(bad)]) == 1
    assert f"PARSE ERROR defaults: field {key!r}" in capsys.readouterr().out
    assert main(["run", "--scenario", str(bad), "--out-dir", str(tmp_path / "out")]) == 1


def test_non_finite_times_exit_1(tmp_path, capsys):
    """A non-finite t_max or dt fails before any step, from the scenario or a flag."""
    doc = json.loads(pathlib.Path(TWO_LEVEL).read_text())
    doc["defaults"]["t_max"] = float("inf")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", "--scenario", str(bad)]) == 1
    assert "non-finite" in capsys.readouterr().out
    assert main(["run", "--scenario", str(bad), "--out-dir", str(tmp_path / "bad")]) == 1
    for flag in ("--t-max", "--dt"):
        out = tmp_path / flag.strip("-")
        assert main(["run", "--scenario", TWO_LEVEL, flag, "inf", "--out-dir", str(out)]) == 1
        assert "must be finite" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()


def test_negative_seed_exit_1(tmp_path, capsys):
    """A negative seed fails before any output, from the scenario or a flag."""
    doc = json.loads(pathlib.Path(TWO_LEVEL).read_text())
    doc["defaults"]["seed"] = -3
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", "--scenario", str(bad)]) == 1
    assert "negative-seed" in capsys.readouterr().out
    for command in ("run", "ensemble", "arrow"):
        out = tmp_path / f"{command}-defaults"
        assert main([command, "--scenario", str(bad), "--out-dir", str(out)]) == 1
        assert "seed must be >= 0, got -3" in capsys.readouterr().err
        assert not out.exists()
        out = tmp_path / f"{command}-flag"
        assert main([command, "--scenario", TWO_LEVEL, "--seed", "-1", "--out-dir",
                     str(out)]) == 1
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("value", [None, "x"])
def test_mistyped_amplitude_exit_1(tmp_path, capsys, value):
    """A non-number re/im is a located parse error (exit 1), not a traceback."""
    doc = json.loads(pathlib.Path(TWO_LEVEL).read_text())
    doc["psi0"][0][1] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", "--scenario", str(bad)]) == 1
    assert "PARSE ERROR psi0[0]: im must be a number" in capsys.readouterr().out
    assert main(["run", "--scenario", str(bad), "--out-dir", str(tmp_path / "out")]) == 1
    assert "psi0[0]: im must be a number" in capsys.readouterr().err


def test_too_many_steps_exit_1(tmp_path, capsys):
    """A run above MAX_STEPS fails before any step, from the scenario or a
    flag; so does an ensemble whose grid is above it."""
    doc = json.loads(pathlib.Path(TWO_LEVEL).read_text())
    doc["defaults"]["t_max"] = 1e15
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", "--scenario", str(bad)]) == 1
    assert "step-count" in capsys.readouterr().out
    for argv in (["run", "--scenario", TWO_LEVEL, "--t-max", "1e15"],
                 ["ensemble", "--scenario", TWO_LEVEL, "--n", "1", "--t-max", "20000"]):
        out = tmp_path / argv[0]
        assert main([*argv, "--out-dir", str(out)]) == 1
        assert "exceeds MAX_STEPS" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("t_max, code", [("6", 0), ("6.125", 1)])
def test_step_limit_is_checked_before_any_trajectory(tmp_path, capsys, monkeypatch, t_max,
                                                      code):
    """With MAX_STEPS at 48, an ensemble of 48 steps of dt 0.125 runs with
    its oracle, on that one grid; one of 49 steps is refused before any
    trajectory and leaves no output directory."""
    monkeypatch.setattr(dynamics, "MAX_STEPS", 48)
    if code:
        monkeypatch.setattr(cli, "run_ensemble", lambda *a, **k: pytest.fail("ran"))
    out = tmp_path / "out"
    assert main(["ensemble", "--scenario", TWO_LEVEL, "--n", "1", "--dt", "0.125",
                 "--t-max", t_max, "--out-dir", str(out)]) == code
    assert ("exceeds MAX_STEPS = 48" in capsys.readouterr().err) == bool(code)
    assert out.exists() != bool(code)
    if not code:
        assert len((out / "survival.csv").read_text().splitlines()) == 1 + 49


def test_overflowing_psi0_exit_1(tmp_path, capsys):
    """A psi0 whose square modulus overflows fails validation, and a run of
    it writes nothing instead of inf and NaN."""
    doc = json.loads(pathlib.Path(TWO_LEVEL).read_text())
    doc["psi0"][0] = [1e308, 0.0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", "--scenario", str(bad)]) == 1
    assert "psi0-overflow" in capsys.readouterr().out
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(bad), "--t-max", "0.1", "--out-dir", str(out)]) == 1
    assert "psi0-overflow" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "currents"])
@pytest.mark.parametrize("name, coupling, what", [
    ("two_level", 1e155, "launch current"),
    ("three_mode", 1e308, "square modulus"),
])
def test_overflow_exits_1_with_its_error_alone(tmp_path, name, coupling, what, command):
    """A coupling that passes validation, with finite amplitudes, but
    overflows on the first step fails a run (hazard on) and the current
    profile (trigger off) with one error line and no numpy warning, even
    where warnings are errors, and writes nothing instead of inf and NaN.
    two_level's 1e155 keeps s finite (1e306) but not J, which would
    otherwise be drawn from as an infinite rate; where s overflows too
    (three_mode's 1e308), its message comes first."""
    doc = json.loads(scenario_path(name).read_text())
    doc["gaps"][0]["entries"][0][2] = coupling
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert call(["validate", "--scenario", str(bad)]) == (0, "")
        code, err = call([command, "--scenario", str(bad), "--t-max", "0.1",
                          "--out-dir", str(out)])
    assert code == 1
    assert err == f"error: non-finite {what} after step dt=0.01 (epoch 0, mode oneway)\n"
    assert not out.exists()


@pytest.mark.parametrize("coupling, mode", [
    (3e4, "hermitian"),         # overflows the dense M_h loop
    (1e100, "hermitian"),       # overflows the M_h product itself
    (300, "compensated"),       # overflows the staged step and the source loss
], ids=["m_h_loop", "m_h_product", "staged"])
def test_non_finite_step_exits_1_with_its_error_alone(tmp_path, coupling, mode):
    """A two_level coupling whose first step of 0.1 overflows raises
    NonFiniteStateError on each step path with no numpy warning before it,
    in-process and from the CLI, where warnings are errors: stderr is the
    error line alone and nothing is written."""
    doc = json.loads(scenario_path("two_level").read_text())
    doc["gaps"][0]["entries"][0][2] = coupling
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "out"
    model = load_scenario_file(bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteStateError):
            run_ensemble(model, RuleSet(), IntegratorConfig(dt=0.1, t_max=model.defaults.t_max),
                         GapSemantics.from_token(mode), 10, 1)
        code, err = call(["ensemble", "--scenario", str(bad), "--gap-mode", mode,
                          "--dt", "0.1", "--n", "10", "--out-dir", str(out)])
    assert code == 1
    assert err == f"error: non-finite amplitudes after step dt=0.1 (epoch 0, mode {mode})\n"
    assert not out.exists()


DELETE = object()
# What one mutation puts in place of a value (DELETE: remove the key or item).
MUTANTS = (DELETE, None, True, -1, 0, 10**13, 1e308, math.nan, "x", [], {})
FIXTURE_DOCS = {path.stem: json.loads(path.read_text())
                for path in sorted(scenario_path("two_level").parent.glob("*.json"))}


def value_paths(node, path=()):
    """The path of every value below ``node`` in a JSON document."""
    items = (node.items() if isinstance(node, dict) else
             enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from value_paths(child, path + (key,))


MUTATION_SITES = [(name, path) for name, doc in FIXTURE_DOCS.items()
                  for path in value_paths(doc)]


def call(argv) -> tuple[int, str]:
    """(exit code, stderr) of one in-process CLI call."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:           # argparse usage errors
            code = exc.code
    return code, err.getvalue()


@given(site=st.sampled_from(MUTATION_SITES), value=st.sampled_from(MUTANTS))
@example(site=("two_level", ("dim",)), value=10**13)
@example(site=("two_level", ("psi0", 0, 0)), value=1e308)
@settings(max_examples=100, deadline=None)
def test_mutated_fixture_exits_cleanly(site, value):
    """A fixture with one value deleted or replaced is validated and run to
    an exit code of 0, 1 or 2, never an escaping exception or a traceback."""
    name, path = site
    doc = copy.deepcopy(FIXTURE_DOCS[name])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        scenario = pathlib.Path(tmp) / "mutant.json"
        scenario.write_text(json.dumps(doc))
        for argv in (["validate", "--scenario", str(scenario)],
                     ["run", "--scenario", str(scenario), "--t-max", "0.1", "--dt", "0.01",
                      "--out-dir", str(pathlib.Path(tmp) / "out")]):
            code, stderr = call(argv)
            assert code in (0, 1, 2)
            assert "Traceback" not in stderr


def test_failing_report_leaves_no_output_directory(tmp_path):
    """A start of norm 1e154 keeps every row finite but overflows the
    oracle's integrals, so the ensemble report is not strict JSON: the
    command exits 1 before it makes its output directory, manifest and
    all."""
    doc = copy.deepcopy(FIXTURE_DOCS["two_level"])
    doc["psi0"] = [[1e154, 0.0], [0.0, 0.0]]
    scenario = tmp_path / "huge.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code, stderr = call(["ensemble", "--scenario", str(scenario), "--t-max", "0.505",
                             "--dt", "0.1", "--n", "40", "--out-dir", str(out)])
    assert code == 1
    assert "not JSON compliant" in stderr
    assert not out.exists()


def test_unknown_gap_mode_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scenario", TWO_LEVEL, "--gap-mode", "open",
              "--out-dir", "/tmp/never"])
    assert exc.value.code == 2


def test_suspend_requires_hermitian(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scenario", TWO_LEVEL, "--suspend", "n3_1",
              "--out-dir", str(tmp_path)])
    assert exc.value.code == 2


def test_suspend_accepts_a_hermitian_scenario_default(tmp_path):
    """--suspend checks the resolved gap mode: a scenario whose defaults are
    hermitian needs no --gap-mode, and a sink --gap-mode still refuses it."""
    doc = json.loads(read_bytes(TWO_LEVEL))
    doc["defaults"]["gap_mode"] = "hermitian"
    path = tmp_path / "two_level_hermitian.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["arrow", "--scenario", str(path), "--suspend", "n3_1",
                 "--out-dir", str(out)]) == 0
    manifest = load_manifest(out / "manifest.json")
    assert (manifest["gap_mode"], manifest["suspended"]) == ("hermitian", ["n3_1"])
    report = json.loads((out / "arrow_report.json").read_text())
    assert report["reports"]["suspended"]["verdict"] == "flowed"
    with pytest.raises(SystemExit) as exc:
        main(["arrow", "--scenario", str(path), "--gap-mode", "oneway", "--suspend", "n3_1"])
    assert exc.value.code == 2


def test_suspend_variant_mismatch_rejected(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scenario", TWO_LEVEL, "--rules", "nrules3",
              "--gap-mode", "hermitian", "--suspend", "n4_4",
              "--out-dir", str(tmp_path)])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--scenario", TWO_LEVEL, "--seed", "5",
                 "--out-dir", str(out)]) == 0
    for name in ("manifest.json", "trajectory.csv", "events.jsonl", "run_report.json"):
        assert (out / name).exists(), name
    report = json.loads((out / "run_report.json").read_text())
    assert report["terminal"] in ("t_max", "quiescent")
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header.split(",")[:2] == ["t", "s"]
    assert "p_0" in header and "J_1" in header


def test_run_is_byte_reproducible(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ["run", "--scenario", TWO_LEVEL, "--seed", "9"]
    assert main(args + ["--out-dir", str(out_a)]) == 0
    assert main(args + ["--out-dir", str(out_b)]) == 0
    assert tree_bytes(out_a) == tree_bytes(out_b)


def test_run_events_jsonl_schema(tmp_path):
    out = tmp_path / "out"
    main(["run", "--scenario", TWO_LEVEL, "--seed", "5", "--out-dir", str(out)])
    lines = (out / "events.jsonl").read_text().splitlines()
    assert lines
    event = json.loads(lines[0])
    assert set(event) >= {"trajectory_id", "epoch", "t_sc", "chosen", "pre_hit_s",
                          "J", "norm_policy"}


def read_csv(path):
    """A CSV's header and its rows as floats."""
    lines = pathlib.Path(path).read_text().splitlines()
    return lines[0].split(","), np.array([[float(v) for v in r.split(",")] for r in lines[1:]])


@pytest.mark.parametrize("mode", ["oneway", "compensated", "hermitian"])
@pytest.mark.parametrize("name", ["three_mode", "chain_three_level"])
def test_trajectory_csv_s_equals_report_s(tmp_path, name, mode):
    """trajectory.csv's s on each pre-hit row and on its last row is
    run_report.json's pre_hit_s and final_s, bit for bit: all of them are
    |c|^2 times the table's s."""
    for seed in range(10):
        out = tmp_path / str(seed)
        assert main(["run", "--scenario", str(scenario_path(name)), "--gap-mode", mode,
                     "--seed", str(seed), "--sample-every", "7", "--out-dir", str(out)]) == 0
        header, data = read_csv(out / "trajectory.csv")
        t, s = data[:, header.index("t")], data[:, header.index("s")]
        report = json.loads((out / "run_report.json").read_text())
        for event in report["events"]:
            # The pre-hit row comes first at t_sc; the collapsed start follows.
            assert s[t.searchsorted(event["t_sc"])] == event["pre_hit_s"]
        assert s[-1] == report["meta"]["final_s"]


def test_run_manifest_round_trips(tmp_path):
    out = tmp_path / "out"
    main(["run", "--scenario", TWO_LEVEL, "--seed", "5", "--out-dir", str(out)])
    manifest = load_manifest(out / "manifest.json")
    assert manifest["command"] == "run"
    assert manifest["rules"] == "nrules3"
    assert manifest["seed"] == 5


# ---------------------------------------------------------------------------
# currents
# ---------------------------------------------------------------------------


def test_currents_hermitian_matches_sine(tmp_path):
    """Suspended hermitian two-level: the J_1 column is sin(2t)."""
    out = tmp_path / "out"
    assert main(["currents", "--scenario", TWO_LEVEL, "--gap-mode", "hermitian",
                 "--suspend", "n3_1", "--dt", "0.001", "--t-max", "3.0",
                 "--out-dir", str(out)]) == 0
    rows = (out / "currents.csv").read_text().splitlines()
    header = rows[0].split(",")
    t_col = header.index("t")
    j_col = header.index("J_1")
    data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    assert np.allclose(data[:, j_col], np.sin(2.0 * data[:, t_col]), atol=1e-6)


def test_currents_oneway_is_linear(tmp_path):
    out = tmp_path / "out"
    assert main(["currents", "--scenario", TWO_LEVEL, "--dt", "0.01",
                 "--t-max", "2.0", "--out-dir", str(out)]) == 0
    rows = (out / "currents.csv").read_text().splitlines()
    header = rows[0].split(",")
    data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    t = data[:, header.index("t")]
    assert np.allclose(data[:, header.index("J_1")], 2.0 * t, atol=1e-9)


def test_t_max_below_the_step_guard_takes_no_step(tmp_path):
    """A t_max below StepPlan's 1e-9 dt guard takes no step: currents.csv
    holds one row, the start at t = 0, and a run ends at final_t 0.0."""
    args = ["--scenario", TWO_LEVEL, "--t-max", "1e-12"]
    assert main(["currents", *args, "--out-dir", str(tmp_path / "currents")]) == 0
    header, data = read_csv(tmp_path / "currents" / "currents.csv")
    assert data[:, header.index("t")].tolist() == [0.0]
    assert main(["run", *args, "--out-dir", str(tmp_path / "run")]) == 0
    report = json.loads((tmp_path / "run" / "run_report.json").read_text())
    assert report["meta"]["final_t"] == 0.0
    header, data = read_csv(tmp_path / "run" / "trajectory.csv")
    assert data[:, header.index("t")].tolist() == [0.0]


# ---------------------------------------------------------------------------
# arrow
# ---------------------------------------------------------------------------


def test_arrow_exit_zero_and_report(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["arrow", "--scenario", TWO_LEVEL, "--out-dir", str(out)]) == 0
    text = capsys.readouterr().out
    assert "forward: verdict=flowed" in text
    assert "reverse: verdict=blocked" in text
    report = json.loads((out / "arrow_report.json").read_text())
    assert report["all_match"] is True
    assert report["reports"]["reverse"]["max_backflow"] == 0.0


def test_arrow_counterfactual_pair(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["arrow", "--scenario", TWO_LEVEL, "--gap-mode", "hermitian",
                 "--suspend", "n3_1", "--out-dir", str(out)])
    assert code == 0
    report = json.loads((out / "arrow_report.json").read_text())
    assert report["reports"]["suspended"]["verdict"] == "flowed"
    assert report["reports"]["suspended"]["max_backflow"] > 1e-3
    assert report["reports"]["restored"]["verdict"] == "blocked"
    assert report["reports"]["restored"]["max_backflow"] == 0.0


def test_arrow_check_entry_point(capsys):
    assert arrow_check_main(["--scenario", TWO_LEVEL]) == 0
    assert "reverse: verdict=blocked" in capsys.readouterr().out


def test_arrow_works_without_out_dir(capsys):
    assert main(["arrow", "--scenario", THREE_MODE]) == 0


# ---------------------------------------------------------------------------
# ensemble + rerun
# ---------------------------------------------------------------------------


def test_ensemble_writes_report(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["ensemble", "--scenario", THREE_MODE, "--n", "300",
                 "--seed", "3", "--out-dir", str(out)]) == 0
    report = json.loads((out / "ensemble_report.json").read_text())
    assert report["comparison"]["passed"] is True
    assert report["stats"]["n"] == 300
    assert (out / "hit_times_hist.csv").exists()
    assert (out / "survival.csv").exists()
    text = capsys.readouterr().out
    assert "passed" in text


def strict_json(text):
    """``text`` parsed as JSON proper: NaN and Infinity are refused."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("t_max, passed", [("0.01", False), ("0", True)])
def test_ensemble_report_writes_infinities_as_null(tmp_path, t_max, passed):
    """With no hit the z-scores of shares above 0 and the KS threshold are
    infinite; the report writes them, and max|z|, as null and stays JSON.
    At t_max 0 every predicted share is 0, so the z-scores are 0 and the
    comparison passes."""
    out = tmp_path / "out"
    assert main(["ensemble", "--scenario", THREE_MODE, "--t-max", t_max, "--n", "1",
                 "--out-dir", str(out)]) == 0
    comparison = strict_json((out / "ensemble_report.json").read_text())["comparison"]
    assert comparison["n_hits"] == 0 and comparison["ks_threshold"] is None
    z = 0.0 if passed else None
    assert comparison["z_scores"] == {"1": z, "2": z, "3": z}
    assert comparison["max_abs_z"] == z
    assert comparison["passed"] is passed


def test_ensemble_integrates_epoch_0_once(tmp_path, monkeypatch):
    """One ensemble command builds one epoch-0 table, at the run's dt,
    which its trajectories draw against and the oracle reads, midpoints
    included; survival.csv has a row per point of the run's grid."""
    built = []

    class CountedTable(engine.EpochTable):
        def __init__(self, gen, *args, **kwargs):
            if gen is not None and gen.epoch == 0:
                built.append(args[1])
            super().__init__(gen, *args, **kwargs)

    monkeypatch.setattr(engine, "EpochTable", CountedTable)
    out = tmp_path / "out"
    assert main(["ensemble", "--scenario", THREE_MODE, "--n", "200", "--seed", "3",
                 "--out-dir", str(out)]) == 0
    assert built == [0.01]
    assert len((out / "survival.csv").read_text().splitlines()) == 1 + 601


@pytest.mark.parametrize("name, status_sets", [
    ("three_mode", 1), ("chain_three_level", 2), ("fan_out", 1)])
def test_ensemble_assembles_each_generator_once(tmp_path, monkeypatch, name, status_sets):
    """One ensemble command assembles one generator per status set it
    reaches: the oracle reads the run's, and a collapse onto a component
    that sources no gap needs none. chain_three_level reaches
    the statuses after its middle component, the 511-mode fan-out none."""
    if name == "fan_out":
        path = tmp_path / "fan_out.json"
        path.write_text(serialize_scenario(star_model(511)))
    else:
        path = scenario_path(name)
    assembled = []
    real = engine.assemble_generator

    def counted(*args, **kwargs):
        assembled.append(tuple(sorted(kwargs["statuses"].items())))
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "assemble_generator", counted)
    assert main(["ensemble", "--scenario", str(path), "--n", "400", "--seed", "5",
                 "--out-dir", str(tmp_path / "out")]) == 0
    assert len(assembled) == len(set(assembled)) == status_sets


def test_ensemble_computes_no_fingerprint(tmp_path, monkeypatch):
    """The stats and the oracle of one ensemble command hold one model
    object, so the provenance check hashes nothing: with the canonical
    document refused, a fingerprint fails and the command still passes."""
    def refuse(model):
        raise AssertionError("canonical document requested")

    monkeypatch.setattr(model_module, "_scenario_document", refuse)
    with pytest.raises(AssertionError):
        load_scenario_file(THREE_MODE).fingerprint()
    assert main(["ensemble", "--scenario", THREE_MODE, "--n", "200", "--seed", "3",
                 "--out-dir", str(tmp_path / "out")]) == 0


def test_ensemble_worker_flag_is_byte_stable(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    base = ["ensemble", "--scenario", THREE_MODE, "--n", "120", "--seed", "8"]
    assert main(base + ["--workers", "1", "--out-dir", str(out_a)]) == 0
    assert main(base + ["--workers", "3", "--out-dir", str(out_b)]) == 0
    assert tree_bytes(out_a) == tree_bytes(out_b)


def test_rerun_reproduces_run_byte_for_byte(tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert main(["run", "--scenario", TWO_LEVEL, "--seed", "12", "--dt", "0.02",
                 "--out-dir", str(first)]) == 0
    assert main(["rerun", "--manifest", str(first / "manifest.json"),
                 "--out-dir", str(second)]) == 0
    assert tree_bytes(first) == tree_bytes(second)


def test_rerun_reproduces_ensemble(tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert main(["ensemble", "--scenario", THREE_MODE, "--n", "80", "--seed", "4",
                 "--out-dir", str(first)]) == 0
    assert main(["rerun", "--manifest", str(first / "manifest.json"),
                 "--out-dir", str(second)]) == 0
    assert tree_bytes(first) == tree_bytes(second)


def test_rerun_reproduces_suspended_ensemble(tmp_path):
    """A manifest with a suspended freeze rule replays with --suspend."""
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["ensemble", "--scenario", str(scenario_path("chain_three_level")),
                 "--gap-mode", "hermitian", "--suspend", "n3_1", "--n", "200",
                 "--out-dir", str(first)]) == 0
    assert load_manifest(first / "manifest.json")["suspended"] == ["n3_1"]
    assert main(["rerun", "--manifest", str(first / "manifest.json"),
                 "--out-dir", str(second)]) == 0
    assert tree_bytes(first) == tree_bytes(second)


def test_rerun_reproduces_currents(tmp_path):
    """A currents manifest, which records the scenario's default seed,
    replays without --seed into the same files."""
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["currents", "--scenario", THREE_MODE, "--t-max", "0.505",
                 "--out-dir", str(first)]) == 0
    assert load_manifest(first / "manifest.json")["seed"] == load_scenario_file(
        THREE_MODE).defaults.seed
    assert main(["rerun", "--manifest", str(first / "manifest.json"),
                 "--out-dir", str(second)]) == 0
    assert tree_bytes(first) == tree_bytes(second)
    assert (first / "currents.csv").read_bytes() == (second / "currents.csv").read_bytes()


def test_currents_takes_no_seed(tmp_path, capsys):
    """The no-hit profile draws no number, so --seed is a usage error."""
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["currents", "--scenario", THREE_MODE, "--seed", "1", "--out-dir", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, step", [("run", "run_trajectory"),
                                           ("ensemble", "run_ensemble"),
                                           ("arrow", "forward_experiment"),
                                           ("currents", "EpochRunner")])
def test_manifest_hashes_the_bytes_the_command_parsed(tmp_path, monkeypatch, command, step):
    """A scenario edited while a command runs: the manifest names the bytes
    the command parsed, so rerun refuses the edited file."""
    scenario = tmp_path / "three_mode.json"
    original = read_bytes(THREE_MODE)
    scenario.write_bytes(original)
    run_step = getattr(cli, step)

    def edit_then_run(*args, **kwargs):
        scenario.write_bytes(original.replace(b'"seed": 1', b'"seed": 2'))
        return run_step(*args, **kwargs)

    monkeypatch.setattr(cli, step, edit_then_run)
    out = tmp_path / "out"
    argv = [command, "--scenario", str(scenario), "--n", "50"] if command == "ensemble" else \
        [command, "--scenario", str(scenario)]
    assert main(argv + ["--out-dir", str(out)]) == 0
    assert read_bytes(scenario) != original
    recorded = load_manifest(out / "manifest.json")["scenario"]["sha256"]
    assert recorded == hashlib.sha256(original).hexdigest()
    monkeypatch.undo()
    assert main(["rerun", "--manifest", str(out / "manifest.json"),
                 "--out-dir", str(tmp_path / "again")]) == 2


def test_rerun_rejects_tampered_scenario(tmp_path):
    first = tmp_path / "first"
    assert main(["run", "--scenario", TWO_LEVEL, "--seed", "1",
                 "--out-dir", str(first)]) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    manifest["scenario"]["sha256"] = "0" * 64
    (first / "manifest.json").write_text(json.dumps(manifest, indent=2))
    assert main(["rerun", "--manifest", str(first / "manifest.json"),
                 "--out-dir", str(tmp_path / "second")]) == 2


def malformed_manifests():
    """(case id, manifest document, the field its error names) per defect:
    a non-object root, each field rerun reads missing, one of the wrong
    JSON type, and an unknown command."""
    def valid():
        return build_manifest("run", TWO_LEVEL, "0" * 64, rules="nrules3", suspended=[],
                              gap_mode="oneway", dt=0.01, t_max=1.0, seed=1)

    cases = [("array-root", [valid()], "not a JSON object")]
    for name in RERUN_FIELDS:
        doc = target = valid()
        *parents, key = name.split(".")
        for parent in parents:
            target = target[parent]
        del target[key]
        cases.append((f"missing-{name}", doc, repr(name)))
    cases.append(("string-dt", {**valid(), "dt": "0.01"}, "'dt'"))
    cases.append(("list-scenario", {**valid(), "scenario": [TWO_LEVEL]}, "'scenario'"))
    cases.append(("bool-seed", {**valid(), "seed": True}, "'seed'"))
    cases.append(("unknown-command", {**valid(), "command": "validate"}, "'command'"))
    return cases


@pytest.mark.parametrize("doc,field", [case[1:] for case in malformed_manifests()],
                         ids=[case[0] for case in malformed_manifests()])
def test_rerun_refuses_a_malformed_manifest(tmp_path, capsys, doc, field):
    """rerun names the first bad field of a malformed manifest on stderr and
    exits 1, with no traceback and no output directory."""
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["rerun", "--manifest", str(manifest), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert not out.exists()
