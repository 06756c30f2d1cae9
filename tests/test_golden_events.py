"""Golden seed->events table: every epoch of every trajectory, pinned.

``golden_events.json`` was written by running this module
(``python tests/test_golden_events.py``) against the source of commit
41f533e, the last commit before the block walk, where ``run_trajectory``
walked each trajectory in its own loop with its own ``trajectory_rng``
generator; each entry came from a cache-free run. ``run_trajectory`` and
``run_ensemble`` now share the block walk, so comparing them with each
other no longer checks against an independent reference; this table does.

It covers the five fixtures plus WIDE_LAUNCH (whose epoch 1 runs on private
tables), every gap mode, each model's default t_max and the off-grid 2.005,
seed 2026, trajectory indices 0-99. An entry is
``[[[hit step, chosen], ...one per collapse], terminal, negative-current steps]``,
the hit step counted on the run's step grid from t = 0.
"""

import json
import pathlib
import sys

import numpy as np
import pytest

from gapflow.dynamics import GapSemantics, IntegratorConfig, StepPlan
from gapflow.engine import EpochRunner, run_trajectory
from gapflow.ensemble import run_ensemble
from gapflow.fixtures import BUILDERS
from gapflow.model import load_scenario
from gapflow.rules import RuleSet

from conftest import WIDE_LAUNCH

GOLDEN = pathlib.Path(__file__).with_name("golden_events.json")
SEED = 2026
N = 100
OFF_GRID_T_MAX = 2.005


def models() -> dict:
    out = {name: build() for name, build in sorted(BUILDERS.items())}
    out["wide_launch"] = load_scenario(json.dumps(WIDE_LAUNCH))
    return out


def configs(model):
    """(case-name suffix, config) pairs of one model."""
    d = model.defaults
    return [(repr(t_max), IntegratorConfig(dt=d.dt, t_max=t_max))
            for t_max in (d.t_max, OFF_GRID_T_MAX)]


def cases():
    for name, model in models().items():
        for mode in GapSemantics:
            for suffix, cfg in configs(model):
                yield f"{name}/{mode.token}/{suffix}", model, mode, cfg


def step_index(cfg) -> dict[float, int]:
    """Grid time -> steps from t = 0."""
    return {t: k for k, t in enumerate(StepPlan.of(cfg).times.tolist())}


def record(model, mode, cfg, index, runner=None) -> list:
    rec = run_trajectory(model, RuleSet(model.defaults.rules), cfg, mode, SEED,
                         traj_index=index, record_samples=False, runner=runner)
    steps = step_index(cfg)
    return [[[steps[ev.t_sc], ev.chosen] for ev in rec.events], rec.terminal,
            rec.meta["negative_current_steps"]]


CASE_IDS = [key for key, *_ in cases()]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_table_covers_every_case(golden):
    assert sorted(golden) == sorted(key for key, *_ in cases())
    assert all(len(entries) == N for entries in golden.values())
    wide = [e for key, entries in golden.items() if key.startswith("wide_launch/")
            for e in entries]
    assert sum(len(events) == 2 for events, _, _ in wide) > 50   # epoch 1 hits


@pytest.mark.parametrize("key, model, mode, cfg", list(cases()), ids=CASE_IDS)
def test_trajectories_reproduce_golden_table(golden, key, model, mode, cfg):
    """Per-index run_trajectory, sharing one runner as an ensemble shares its
    tables, and every 25th index again on a runner of its own."""
    runner = EpochRunner(model, RuleSet(model.defaults.rules), cfg, mode)
    assert [record(model, mode, cfg, i, runner) for i in range(N)] == golden[key]
    assert [record(model, mode, cfg, i) for i in range(0, N, 25)] == golden[key][::25]


@pytest.mark.parametrize("key, model, mode, cfg", list(cases()), ids=CASE_IDS)
def test_ensemble_reproduces_golden_table(golden, key, model, mode, cfg):
    stats = run_ensemble(model, RuleSet(model.defaults.rules), cfg, mode, N, SEED)
    grid = StepPlan.of(cfg).times.tolist()
    entries = golden[key]
    firsts = [events[0] for events, _, _ in entries if events]
    assert stats.hit_times.tolist() == [grid[step] for step, _ in firsts]
    assert stats.hit_components.tolist() == [chosen for _, chosen in firsts]
    assert stats.no_collapse == sum(not events for events, _, _ in entries)
    terminals = {}
    for _, terminal, _ in entries:
        terminals[terminal] = terminals.get(terminal, 0) + 1
    assert stats.totals == {"negative_current_steps": sum(e[2] for e in entries),
                            "terminals": terminals}
    assert list(stats.totals["terminals"]) == list(terminals)   # first-seen order


def write_golden():
    table = {}
    for key, model, mode, cfg in cases():
        table[key] = [record(model, mode, cfg, i) for i in range(N)]
    text = "{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}"
                              for k, v in sorted(table.items())) + "\n}\n"
    GOLDEN.write_text(text, encoding="utf-8")
    np.testing.assert_equal(json.loads(text), table)


if __name__ == "__main__":
    sys.exit(write_golden())
