"""Irreversibility experiments: forward flow, reverse block, suspension."""

import json

import numpy as np
import pytest

from gapflow import arrow
from gapflow.arrow import (
    BLOCKED,
    FLOWED,
    FORWARD,
    REVERSE,
    forward_experiment,
    reverse_experiment,
    reverse_initial_state,
    suspension_counterfactual,
)
from gapflow.dynamics import GapSemantics, IntegratorConfig, StepPlan, gap_backflow
from gapflow.engine import EpochRunner
from gapflow.errors import GapflowError
from gapflow.fixtures import BUILDERS, two_level
from gapflow.model import OperatorBlock, ScenarioModel, load_scenario
from gapflow.rules import NRULES3, NRULES4, RuleSet

from conftest import WIDE_LAUNCH, star_model
from reference import adjoint_entries, to_coo

R3 = RuleSet(NRULES3)
R4 = RuleSet(NRULES4)
CFG = IntegratorConfig(dt=0.01, t_max=6.0)

ARROW_FIXTURES = ("two_level", "two_mode_symmetric", "three_mode")


def test_reverse_initial_state_covers_launch_support(three_mode_model):
    psi = reverse_initial_state(three_mode_model)
    assert np.vdot(psi, psi).real == pytest.approx(1.0)
    assert psi[three_mode_model.indices_of(0)[0]] == 0.0
    launch_amps = [psi[three_mode_model.indices_of(c)[0]] for c in (1, 2, 3)]
    assert all(a != 0.0 for a in launch_amps)


def test_reverse_initial_state_requires_launch_components():
    doc_model = BUILDERS["two_level"]()
    # realize everything by hand: a model with no launch components
    import dataclasses

    comps = tuple(dataclasses.replace(c, status="active") for c in doc_model.components)
    stripped = dataclasses.replace(doc_model, components=comps, hamiltonian=doc_model.hamiltonian)
    with pytest.raises(GapflowError):
        reverse_initial_state(stripped)


def test_forward_experiment_flows(two_level_model):
    report = forward_experiment(two_level_model, CFG)
    assert report.direction == FORWARD
    assert report.verdict == FLOWED
    assert report.max_forward_current > 0.0
    assert report.max_backflow == 0.0


@pytest.mark.parametrize("name", ARROW_FIXTURES)
def test_reverse_experiment_blocks_bit_exactly(name):
    """Launch-seeded states cannot push weight back: zero, not small."""
    model = BUILDERS[name]()
    report = reverse_experiment(model, CFG)
    assert report.direction == REVERSE
    assert report.verdict == BLOCKED
    assert report.max_backflow == 0.0
    assert report.total_hits == 0


@pytest.mark.parametrize("name", ARROW_FIXTURES)
def test_reverse_experiment_state_never_moves(name):
    """With empty launch columns the reverse state is a fixed point."""
    model = BUILDERS[name]()
    report = reverse_experiment(model, CFG)
    assert report.max_state_delta == 0.0


def test_reverse_seed_sweep_stays_blocked(two_level_model):
    for seed in range(50):
        report = reverse_experiment(two_level_model, CFG, seed=seed)
        assert report.max_backflow == 0.0
        assert report.total_hits == 0


def test_suspension_counterfactual_two_level(two_level_model):
    suspended, restored = suspension_counterfactual(two_level_model, CFG, "n3_1")
    assert suspended.verdict == FLOWED
    assert suspended.max_backflow > 1e-3
    assert suspended.suspended == ("n3_1",)
    assert restored.verdict == BLOCKED
    assert restored.max_backflow == 0.0
    assert restored.suspended == ()


def test_suspension_counterfactual_peak_matches_closed_form(two_level_model):
    """Reverse start (0, 1): backflow 2*Im<psi|B|psi> = sin(2t), peak 1."""
    cfg = IntegratorConfig(dt=0.001, t_max=np.pi / 4.0)
    suspended, _ = suspension_counterfactual(two_level_model, cfg, "n3_1")
    assert suspended.max_backflow == pytest.approx(1.0, abs=1e-6)


def test_suspension_counterfactual_rules_agree(two_level_model):
    s3, r3 = suspension_counterfactual(two_level_model, CFG, "n3_1")
    s4, r4 = suspension_counterfactual(two_level_model, CFG, "n4_4")
    assert s3.max_backflow == s4.max_backflow
    assert s3.verdict == s4.verdict == FLOWED
    assert r3.verdict == r4.verdict == BLOCKED
    assert s4.rules == "nrules4"


def test_suspension_rejects_non_freeze_rules(two_level_model):
    with pytest.raises(GapflowError):
        suspension_counterfactual(two_level_model, CFG, "n3_2")


def test_report_to_dict_round_trips(two_level_model):
    report = forward_experiment(two_level_model, CFG)
    d = report.to_dict()
    assert d["direction"] == FORWARD
    assert d["verdict"] == FLOWED
    assert d["rule_config"]["gap_mode"] == "oneway"
    assert isinstance(d["max_backflow"], float)


def test_reverse_report_nrules4_identical(two_level_model):
    a = reverse_experiment(two_level_model, CFG, ruleset=R3)
    b = reverse_experiment(two_level_model, CFG, ruleset=R4)
    assert a.max_backflow == b.max_backflow == 0.0
    assert a.total_hits == b.total_hits == 0
    assert a.verdict == b.verdict == BLOCKED


def count_steps(monkeypatch) -> list:
    """Record one entry per row that dynamics.step_block, the one stepping
    routine, fills."""
    import gapflow.dynamics

    calls = []
    real = gapflow.dynamics.step_block

    def counted(psi, gen, h, out):
        calls.extend([1] * len(out))
        return real(psi, gen, h, out)

    monkeypatch.setattr(gapflow.dynamics, "step_block", counted)
    return calls


@pytest.mark.parametrize("name", ARROW_FIXTURES)
def test_repeated_reverse_experiment_integrates_nothing(name, monkeypatch):
    """A seed loop integrates the reverse path once: a second experiment on
    an equal model and config, another seed, makes no step at all."""
    calls = count_steps(monkeypatch)
    cfg = IntegratorConfig(dt=0.01, t_max=3.21)     # a config no other test runs
    first = reverse_experiment(BUILDERS[name](), cfg, seed=1)
    assert calls
    calls.clear()
    second = reverse_experiment(BUILDERS[name](), cfg, seed=2)
    assert calls == []
    assert second.to_dict() == {**first.to_dict(), "seed": 2}


@pytest.mark.parametrize("t_max", [6.0, 2.005])
def test_cold_experiments_step_once_per_table_row(t_max, monkeypatch):
    """A cold reverse experiment makes one step call per row of its epoch-0
    table, which the profile and the trajectory share, plus one for the
    point at t_max off the dt grid; a warm one makes none, and a cold
    forward experiment makes no more than a cold reverse one. Each
    experiment makes one lookup in the one arrow cache: a miss cold, a hit
    warm."""
    model, cfg = BUILDERS["three_mode"](), IntegratorConfig(dt=0.01, t_max=t_max)
    plan = StepPlan.of(cfg)
    calls = count_steps(monkeypatch)
    for experiment in (reverse_experiment, forward_experiment):
        arrow._profile_extrema_cached.cache_clear()
        calls.clear()
        experiment(model, cfg, seed=3)
        cold = len(calls)
        calls.clear()
        experiment(model, cfg, seed=4)
        assert calls == []
        info = arrow._profile_extrema_cached.cache_info()
        assert (info.hits, info.misses, info.maxsize) == (1, 1, arrow.RUN_CACHE_SIZE)
        if experiment is reverse_experiment:
            reverse_cold = cold
            assert cold == plan.n_full + (plan.rem > 0.0)
        else:
            assert 0 < cold <= reverse_cold


# Every fixture, the one model whose feeds have two entries each (one in one
# low column, one in one high row) and a CSR-sized star, each at a
# config whose profile the per-state loops read in well under a second.
BACKFLOW_MODELS = {
    **{name: (build, None) for name, build in BUILDERS.items()},
    "wide_launch": (lambda: load_scenario(json.dumps(WIDE_LAUNCH)), None),
    "star_300": (lambda: star_model(300), IntegratorConfig(dt=0.02, t_max=0.5)),
}


def per_state_backflow(states, model, pairs):
    """Minus the feed flow 2 Im sum conj(psi_r) v psi_c over each included
    gap's feed entries (r, c, v), one np.vdot per row and per gap."""
    out = {}
    for gap in model.gaps:
        if (gap.low, gap.high) in pairs:
            rows, cols, vals = (np.array(x) for x in zip(*gap.interaction.entries))
            out[(gap.low, gap.high)] = np.array(
                [-2.0 * float(np.vdot(psi[rows], vals * psi[cols]).imag) for psi in states])
    return out


def adjoint_backflow(states, model, pairs):
    """2 Im<psi|F^dagger psi> per row and per included gap, through the
    adjoint built from the model's entries by reference.adjoint_entries: the
    product the backflow was before it read the feed entries."""
    out = {}
    for gap in model.gaps:
        if (gap.low, gap.high) in pairs:
            back = to_coo(OperatorBlock(model.dim, adjoint_entries(gap.interaction))).tocsr()
            out[(gap.low, gap.high)] = np.array(
                [2.0 * float(np.vdot(psi, back @ psi).imag) for psi in states])
    return out


@pytest.mark.parametrize("start", [FORWARD, REVERSE])
@pytest.mark.parametrize("rules", [R3, RuleSet(NRULES3, {"n3_1"})],
                         ids=lambda r: "-".join([r.variant, *sorted(r.suspended)]))
@pytest.mark.parametrize("name", sorted(BACKFLOW_MODELS))
def test_block_backflow_matches_per_state_loop(name, rules, start):
    """gap_backflow over the profile's rows equals minus the per-row feed
    flow bit for bit in hermitian mode, and is exact +0.0 in the sink modes.
    It agrees with the F^dagger product to rounding: within 1e-14 of the
    row's 2 sum |conj(psi_r) v psi_c| (measured: at most 4.3e-16 over the
    53,440 gap rows of all cases)."""
    build, cfg = BACKFLOW_MODELS[name]
    model = build()
    cfg = cfg or IntegratorConfig(dt=model.defaults.dt, t_max=model.defaults.t_max)
    if start == REVERSE:
        model = ScenarioModel(dim=model.dim, components=model.components,
                              hamiltonian=model.hamiltonian,
                              psi0=reverse_initial_state(model), defaults=model.defaults)
    for mode in GapSemantics:
        table, rows, _ = EpochRunner(model, rules, cfg, mode).profile()
        states = table.states[rows]
        flows = gap_backflow(states, table.gen)
        assert set(flows) == {gap.pair for gap in table.gen.gaps} != set()
        if mode is GapSemantics.HERMITIAN_TRUNCATED:
            reference = per_state_backflow(states, model, set(flows))
            adjoint = adjoint_backflow(states, model, set(flows))
            assert flows.keys() == reference.keys() == adjoint.keys()
            for gap in table.gen.gaps:
                values, want = flows[gap.pair], reference[gap.pair]
                assert values.view(np.int64).tolist() == want.view(np.int64).tolist()
                terms = np.abs(states[:, gap.rows] * gap.vals * states[:, gap.cols])
                assert (np.abs(values - adjoint[gap.pair]) <= 2e-14 * terms.sum(axis=1)).all()
        else:
            for values in flows.values():
                assert values.view(np.int64).tolist() == [0] * len(rows)


def test_cold_profile_reads_backflow_once(monkeypatch):
    """The profile reads backflow over all its rows in one gap_backflow
    call, not one call per row."""
    calls = []
    real = arrow.gap_backflow

    def counted(states, gen):
        calls.append(len(states))
        return real(states, gen)

    monkeypatch.setattr(arrow, "gap_backflow", counted)
    arrow._profile_extrema_cached.cache_clear()
    cfg = IntegratorConfig(dt=0.01, t_max=1.0)
    report = reverse_experiment(two_level(), cfg, ruleset=RuleSet(NRULES3, {"n3_1"}),
                                gap_mode=GapSemantics.HERMITIAN_TRUNCATED)
    assert calls == [StepPlan.of(cfg).n_full + 1]
    assert report.max_backflow > 0.0
