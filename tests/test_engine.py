"""Hit rates, choices, collapse bookkeeping, step plans and full trajectory tests."""

import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gapflow.dynamics import (
    EpochTable,
    GapSemantics,
    IntegratorConfig,
    StepPlan,
    assemble_generator,
    component_currents,
    step,
)
from gapflow.engine import (
    PRESERVE_TOTAL,
    RAW,
    TERMINAL_QUIESCENT,
    TERMINAL_T_MAX,
    EpochRunner,
    LegGroup,
    _RESTING,
    _choose,
    collapse_state,
    post_collapse_statuses,
    run_trajectory,
    step_grid,
    trajectory_rng,
)
from gapflow.errors import (
    CollapseOnEmptyError,
    DegenerateStateError,
    GapflowError,
    NoChoiceError,
)
from gapflow.fixtures import BUILDERS, chain_three_level, three_mode, two_level
from gapflow.ensemble import walk_block
from gapflow.substreams import (CROSSOVER, philox_words, substream_draws, substream_keys,
                                 substream_pair)
from gapflow.model import (ACTIVE, LAUNCH, REALIZED, ZEROED, component_moduli, load_scenario,
                           serialize_scenario, square_modulus)
from gapflow.rules import NRULES3, NRULES4, RuleSet

from conftest import WIDE_LAUNCH, star_model

R3 = RuleSet(NRULES3)
R4 = RuleSet(NRULES4)
ONEWAY = GapSemantics.ONE_WAY_FEED


# Every fixture, a two-dimensional launch component and a small star.
QUIESCENCE_MODELS = {**BUILDERS,
                     "wide_launch": lambda: load_scenario(json.dumps(WIDE_LAUNCH)),
                     "star": lambda: star_model(5)}


# ---------------------------------------------------------------------------
# Rates, choices and collapses
# ---------------------------------------------------------------------------


def grown_table(model, mode=ONEWAY, start=None, steps=300):
    """The trigger-on epoch-0 table of ``model`` from ``start`` (psi0 by
    default), grown through ``steps`` steps of 0.01."""
    gen = assemble_generator(model, R3, mode)
    table = EpochTable(gen, model.psi0 if start is None else start, 0.01, steps, False)
    grow_to_end(table, steps)
    return table


def test_table_rate_clips_negative_currents():
    """A row whose currents have both signs rates the positive ones only.
    Amplitude i/2 on three_mode's C1 starts its current at -1 while C2 and
    C3 fill from zero."""
    model = three_mode()
    start = np.array(model.psi0)
    start[model.indices_of(1)[0]] = 0.5j
    table = grown_table(model, start=start)
    J = table.J
    mixed = ((J > 0.0).any(axis=1) & (J < 0.0).any(axis=1)).nonzero()[0]
    assert mixed.size
    for k in mixed.tolist():
        assert table.rate[k] == J[k][J[k] > 0.0].sum() / table.s[k]


def test_table_rate_zero_when_all_currents_negative():
    """two_level's hermitian current swings negative; those rows rate 0 and
    add no hazard."""
    table = grown_table(two_level(), GapSemantics.HERMITIAN_TRUNCATED, steps=600)
    negative = (table.J[:, 0] < 0.0).nonzero()[0]
    assert negative.size
    assert (table.rate[negative] == 0.0).all()
    assert (table.H[negative] == table.H[negative - 1]).all()


def test_table_rate_divides_by_norm():
    """two_level oneway: s = c^2 (1 + t^2) and J = 2 c^2 t from c psi0, so the
    rate is 2t / (1 + t^2) whatever the scale c."""
    t = np.arange(301) * 0.01
    for c in (1.0, 2.0):
        table = grown_table(two_level(), start=c * two_level().psi0)
        np.testing.assert_allclose(table.s, c * c * (1.0 + t * t), rtol=1e-9)
        np.testing.assert_allclose(table.rate, 2.0 * t / (1.0 + t * t), rtol=1e-9, atol=1e-12)


def test_table_rejects_degenerate_norm():
    gen = assemble_generator(two_level(), R3, ONEWAY)
    with pytest.raises(DegenerateStateError, match="total square modulus 0.0"):
        EpochTable(gen, np.zeros(2, dtype=complex), 0.01, 10, False)
    off = EpochTable(gen, np.zeros(2, dtype=complex), 0.01, 10, True)
    assert off.rate[0] == 0.0


def choose(weights, u):
    """The walk's choice from raw currents: _choose on their clipped weights."""
    return _choose(np.clip(np.atleast_2d(weights), 0.0, None), np.atleast_1d(u))


def test_choose_ignores_negative_weights():
    u = trajectory_rng(3, 0).random(200)
    assert (choose(np.tile([0.7, -0.5], (200, 1)), u) == 0).all()


def test_choose_requires_positive_weight():
    with pytest.raises(NoChoiceError):
        choose([-0.1, 0.0], 0.5)


def test_choose_shares_follow_currents():
    """Weights (3, 1) must produce picks near 75/25 within 3 sigma."""
    n = 10_000
    picks = choose(np.tile([3.0, 1.0], (n, 1)), trajectory_rng(11, 0).random(n))
    share = float((picks == 0).mean())
    sigma = np.sqrt(0.75 * 0.25 / n)
    assert abs(share - 0.75) < 3.0 * sigma


@given(weights=st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=5),
       u=st.floats(0.0, 1.0, exclude_max=True))
@example(weights=[5e-324, 0.0], u=0.75)     # u * total rounds up to the total
@settings(max_examples=60, deadline=None)
def test_choose_always_returns_a_positive_weight_column(weights, u):
    if not any(w > 0 for w in weights):
        return
    assert weights[int(choose(weights, u)[0])] > 0


def rigged_state(model, chosen_amp=0.6):
    psi = np.zeros(model.dim, dtype=complex)
    psi[model.indices_of(0)] = np.sqrt(max(0.0, 1.0 - chosen_amp**2))
    psi[model.indices_of(1)] = chosen_amp
    return psi


def test_post_collapse_statuses_three_mode(three_mode_model):
    statuses = post_collapse_statuses(three_mode_model, 2)
    assert statuses[2] == REALIZED
    assert statuses[0] == ZEROED
    assert statuses[1] == ZEROED
    assert statuses[3] == ZEROED


def test_post_collapse_statuses_chain_relaunches_next_gap(chain_model):
    """Realizing C1 re-launches C2 through the 1->2 gap."""
    statuses = post_collapse_statuses(chain_model, 1)
    assert statuses[1] == REALIZED
    assert statuses[2] == LAUNCH
    assert statuses[0] == ZEROED


def test_collapse_state_zeroes_everything_else(three_mode_model):
    psi = collapse_state(rigged_state(three_mode_model), 1, three_mode_model, policy=RAW)
    assert np.all(psi[three_mode_model.indices_of(0)] == 0.0)
    assert np.all(psi[three_mode_model.indices_of(2)] == 0.0)
    assert np.all(psi[three_mode_model.indices_of(3)] == 0.0)
    assert psi[three_mode_model.indices_of(1)][0] == pytest.approx(0.6)


def test_collapse_state_preserve_total_rescales(three_mode_model):
    psi = rigged_state(three_mode_model, chosen_amp=0.6)
    after = collapse_state(psi, 1, three_mode_model, policy=PRESERVE_TOTAL)
    assert square_modulus(after) == pytest.approx(square_modulus(psi), rel=1e-12)


def test_collapse_state_raw_keeps_chosen_amplitude(three_mode_model):
    psi = collapse_state(rigged_state(three_mode_model, 0.6), 1, three_mode_model, policy=RAW)
    assert square_modulus(psi) == pytest.approx(0.36, rel=1e-12)


def test_collapse_state_rejects_empty_component(three_mode_model):
    with pytest.raises(CollapseOnEmptyError):
        collapse_state(rigged_state(three_mode_model, chosen_amp=0.0), 1, three_mode_model)


def test_collapse_state_rejects_unknown_policy(three_mode_model):
    with pytest.raises(GapflowError, match="unknown norm policy"):
        collapse_state(rigged_state(three_mode_model), 1, three_mode_model, policy="x")


def test_walk_rejects_unknown_policy_before_any_table(three_mode_model):
    """A walk checks its policy once, first: a run with an unknown one is
    refused before its runner builds a table, whether or not it would hit."""
    cfg = IntegratorConfig(dt=0.01, t_max=1.0)
    runner = EpochRunner(three_mode_model, R3, cfg, ONEWAY)
    with pytest.raises(GapflowError, match="unknown norm policy 'x'"):
        run_trajectory(three_mode_model, R3, cfg, ONEWAY, 0, policy="x", runner=runner)
    assert not runner.tables


def hit_group(table, epoch, rows, chosen, scale=None) -> LegGroup:
    """A group on ``table`` whose trajectory j, at ``scale[j]`` (default 1),
    hit at ``rows[j]`` and chose ``chosen[j]``."""
    size = len(rows)
    zeros = np.zeros(size, np.int64)
    scale = np.ones(size, complex) if scale is None else np.asarray(scale, complex)
    return LegGroup(epoch, table, np.arange(size), scale, zeros, zeros, np.asarray(rows),
                    np.asarray(chosen), False)


def collapse_case(name, mode):
    """(runner, epoch, grown table) of the collapse tests: each fixture's
    shared epoch-0 table, chain_three_level's shared epoch-1 table after its
    middle component ("chain_epoch1"), and WIDE_LAUNCH's private epoch-1
    table after its two-dimensional launch component."""
    cfg = IntegratorConfig(dt=0.01, t_max=2.0)
    if name == "wide_launch":
        model = load_scenario(json.dumps(WIDE_LAUNCH))
        runner = EpochRunner(model, R3, cfg, mode)
        start = np.zeros(model.dim, dtype=complex)
        start[model.indices_of(1)] = (0.6, 0.8j)
        epoch, table = 1, runner.table(1, 1, start)
    elif name == "chain_epoch1":
        runner = EpochRunner(chain_three_level(), R3, cfg, mode)
        epoch, table = 1, runner.table(1, 1)
    else:
        runner = EpochRunner(BUILDERS[name](), R3, cfg, mode)
        epoch, table = 0, runner.table(0, None)
    table.grow(math.inf, runner.n_full)
    return runner, epoch, table


@pytest.mark.parametrize("policy", [PRESERVE_TOTAL, RAW])
@pytest.mark.parametrize("mode", list(GapSemantics), ids=lambda m: m.token)
@pytest.mark.parametrize("name", sorted(BUILDERS) + ["chain_epoch1", "wide_launch"])
def test_collapse_scales_equal_collapse_state(name, mode, policy):
    """The collapses onto one-dimensional components that a walk files in
    one array pass carry, per row, non-unit scale and choice, the bytes of
    collapse_state's chosen amplitude, at any epoch, on a shared table and
    on a private one alike. Each row is filed once: under its component
    where that sources a gap, else under the one resting key."""
    runner, epoch, table = collapse_case(name, mode)
    model = runner.model
    states = table.states[:runner.n_full + 1]
    rows, chosen = [], []
    for c in table.launch_ids:
        col = model.index_arrays[c][0]
        r = np.flatnonzero(states[:, col] != 0.0)
        rows += r.tolist()
        chosen += [c] * len(r)
    assert len(rows) > 20
    scale = np.linspace(0.2, 3.0, len(rows)) * np.exp(0.7j * np.arange(len(rows)))
    nxt = {}
    runner._regroup(hit_group(table, epoch, rows, chosen, scale), nxt, policy)
    assert set(nxt) == {(_RESTING if runner.quiescent(c) else c, -1) for c in table.launch_ids}
    filed = []
    for (key, _), (_, pos, scales, _) in nxt.items():
        pos = np.concatenate(pos).tolist()
        assert all(runner.quiescent(chosen[p]) if key == _RESTING else chosen[p] == key
                   for p in pos)
        expected = [collapse_state(scale[p] * table.states[rows[p]], chosen[p], model,
                                   policy)[model.index_arrays[chosen[p]][0]] for p in pos]
        assert np.concatenate(scales).tobytes() == np.array(expected, complex).tobytes()
        filed += pos
    assert sorted(filed) == list(range(len(rows)))


def test_epoch0_collapse_on_empty_component_raises_as_collapse_state(three_mode_model):
    """Choosing a component with zero amplitude (every launch component at
    row 0) raises collapse_state's error for the first such choice."""
    runner = EpochRunner(three_mode_model, R3, IntegratorConfig(dt=0.01, t_max=1.0), ONEWAY)
    table = runner.table(0, None)
    table.grow(math.inf, runner.n_full)
    group = hit_group(table, 0, [5, 0, 0], [1, 2, 3])
    with pytest.raises(CollapseOnEmptyError) as expected:
        collapse_state(group.table.states[0], 2, three_mode_model)
    with pytest.raises(CollapseOnEmptyError) as got:
        runner._regroup(group, {}, PRESERVE_TOTAL)
    assert str(got.value) == str(expected.value)
    assert str(got.value) == "component 2 has zero amplitude at collapse time"


@pytest.mark.parametrize("name", ["chain_epoch1", "wide_launch"])
def test_later_collapse_on_empty_component_raises_as_collapse_state(name):
    """At epoch 1, on a shared and on a private table, a scaled choice of the
    launch component at row 0, where it is empty, raises collapse_state's
    error."""
    runner, epoch, table = collapse_case(name, ONEWAY)
    (c,) = table.launch_ids
    group = hit_group(table, epoch, [42, 0], [c, c], [0.5j, 2.0 - 1.0j])
    with pytest.raises(CollapseOnEmptyError) as expected:
        collapse_state((2.0 - 1.0j) * table.states[0], c, runner.model)
    with pytest.raises(CollapseOnEmptyError) as got:
        runner._regroup(group, {}, PRESERVE_TOTAL)
    assert str(got.value) == str(expected.value) == \
        f"component {c} has zero amplitude at collapse time"


@pytest.mark.parametrize("mode", list(GapSemantics), ids=lambda m: m.token)
@pytest.mark.parametrize("name", sorted(QUIESCENCE_MODELS))
def test_walked_choices_are_launch_components(name, mode):
    """Only a launch component can realize: every choice of a walk is one of
    its epoch generator's launch_ids."""
    model = QUIESCENCE_MODELS[name]()
    runner = EpochRunner(model, R3, IntegratorConfig(dt=0.01, t_max=6.0), mode)
    choices = 0
    for group in runner.walk(4, np.arange(300), PRESERVE_TOTAL):
        chosen = group.chosen[group.chosen >= 0].tolist()
        assert set(chosen) <= set(group.table.launch_ids if group.table else ())
        choices += len(chosen)
    assert choices > 50


@pytest.mark.parametrize("mode", list(GapSemantics), ids=lambda m: m.token)
def test_walk_holds_one_private_table_at_a_time(mode):
    """A walk yields each group as it is walked and keeps none it has
    yielded: across a WIDE_LAUNCH block, whose collapses onto the
    two-dimensional C1 each start a table of their own, at most one such
    table is alive whenever the walk yields."""
    model = load_scenario(json.dumps(WIDE_LAUNCH))
    runner = EpochRunner(model, R3, IntegratorConfig(dt=0.01, t_max=3.0), mode)
    private, most = [], 0
    for group in runner.walk(11, np.arange(200), PRESERVE_TOTAL):
        if group.table is not None and all(group.table is not t
                                           for t in runner.tables.values()):
            private.append(weakref.ref(group.table))
        most = max(most, sum(ref() is not None for ref in private))
    assert len(private) > 50 and most == 1


def test_profile_temporaries_stay_a_small_share_of_the_table():
    """Growing the 511-mode fan-out's profile at dt 0.002 to t = 10 (5001
    rows, 62 MB) traces at most 1.3 times the table's bytes at its peak:
    a doubling block stops at FILL_BLOCK_BYTES of states, so _store's
    temporaries do not grow with the table."""
    runner = EpochRunner(star_model(511), R3, IntegratorConfig(dt=0.002, t_max=10.0), ONEWAY)
    runner.generator(None, 0)
    tracemalloc.start()
    try:
        table, _, _ = runner.profile()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = (table.states, table.J, table.s, table.rate, table.H, table.neg)
    assert peak <= 1.3 * sum(column.nbytes for column in columns)


# ---------------------------------------------------------------------------
# Step plan
# ---------------------------------------------------------------------------


def test_step_plan_lands_exactly_on_t_max():
    plan = StepPlan.of(IntegratorConfig(dt=0.01, t_max=6.0))
    assert plan.times[-1] == 6.0 and plan.sampled[-1]
    assert (plan.n_full, plan.rem, len(plan.times)) == (600, 0.0, 601)


def test_step_plan_partial_tail():
    plan = StepPlan.of(IntegratorConfig(dt=0.01, t_max=0.123))
    assert plan.times[-1] == 0.123 and plan.sampled[-1]
    assert plan.rem == pytest.approx(0.003, abs=1e-12)
    assert (plan.n_full, len(plan.times)) == (12, 14)


def test_step_grid_lists_step_endpoints():
    cfg = IntegratorConfig(dt=0.5, t_max=2.0)
    grid = step_grid(cfg)
    assert list(grid) == [0.5, 1.0, 1.5, 2.0]


def reference_step_plan(cfg):
    """(end time, step size, sample flag) per step, built one step at a time:
    the loop StepPlan.of replaced, kept as its reference."""
    dt = cfg.dt
    n_full = int(math.floor(cfg.t_max / dt + 1e-9))
    rem = cfg.t_max - n_full * dt
    if rem < 1e-9 * dt:
        rem = 0.0
    plan = [(k * dt, dt, k % cfg.sample_every == 0) for k in range(1, n_full + 1)]
    if rem > 0.0:
        plan.append((cfg.t_max, rem, True))
    elif plan:
        plan[-1] = (cfg.t_max, dt, True)
    return plan


@pytest.mark.parametrize("dt", [0.5, 0.1, 0.05, 0.02, 0.01, 0.007, 0.001])
def test_step_plan_equals_the_per_step_loop(dt):
    """StepPlan.of and step_grid give the reference loop's times, flags,
    shorter last step and step count bit for bit."""
    for t_max in (0.0, 0.005, 0.123, 0.505, 1.0, 2.0, 2.005, 3.3, 6.0, 12.0):
        for every in (1, 2, 3, 7, 1000, 2**70):
            cfg = IntegratorConfig(dt=dt, t_max=t_max, sample_every=every)
            ref = reference_step_plan(cfg)
            rem = ref[-1][1] if ref and ref[-1][1] != dt else 0.0
            plan = StepPlan.of(cfg)
            assert plan.times.tobytes() == np.array([0.0] + [t for t, _, _ in ref]).tobytes()
            assert plan.sampled.tolist() == [True] + [flag for _, _, flag in ref]
            assert (type(plan.rem), plan.rem, plan.n_full) == (float, rem, len(ref) - (rem > 0))
            assert step_grid(cfg).tobytes() == plan.times[1:].tobytes()


def grow_to_end(table, steps):
    """Grow ``table`` through all ``steps`` with E = inf; True if that hit."""
    _, _, hit = table.ends(np.array([np.inf]), np.array([steps]), np.array([False]))
    return bool(hit[0])


@pytest.mark.parametrize("build, chosen", [(three_mode, None), (chain_three_level, None),
                                           (chain_three_level, 1)])
def test_epoch_hazard_matches_per_step_survival(build, chosen):
    """exp(-H_k) of an epoch table equals the per-step draw's survival
    prod_{j<=k} (1 - p_j), p_j = -expm1(-r_bar_j h), gated on the end rate."""
    model = build()
    cfg = IntegratorConfig(dt=0.01, t_max=6.0)
    runner = EpochRunner(model, R3, cfg, ONEWAY)
    epoch = 0 if chosen is None else 1
    if chosen is None:
        start = model.psi0
    else:
        start = np.zeros(model.dim, dtype=complex)
        start[model.indices_of(chosen)[0]] = 1.0
    n = StepPlan.of(cfg).n_full
    table = EpochTable(runner.generator(chosen, epoch), start, cfg.dt, n, False)
    assert not grow_to_end(table, n) and table.n == n
    rate = table.rate
    r_bar = np.where(rate[1:] > 0.0, 0.5 * (rate[:-1] + rate[1:]), 0.0)
    survival = np.cumprod(1.0 + np.expm1(-r_bar * cfg.dt))
    np.testing.assert_allclose(np.exp(-table.H[1:]), survival, rtol=1e-12, atol=0.0)
    assert table.H[-1] > 1.0  # the epoch carries real hazard mass


@pytest.mark.parametrize("t_max", [6.0, 2.005])
def test_runner_without_a_cache_keeps_its_own_tables(t_max):
    """A runner keeps its tables for its own life, a second runner of the
    same arguments builds its own, and grown to their end (and their shorter
    last step), both hold the same rows."""
    model, cfg = three_mode(), IntegratorConfig(dt=0.01, t_max=t_max)
    alone = EpochRunner(model, R3, cfg, ONEWAY)
    other = EpochRunner(model, R3, cfg, ONEWAY)
    tables = [alone.table(0, None), other.table(0, None)]
    assert alone.table(0, None) is tables[0] and other.table(0, None) is tables[1]
    assert tables[0] is not tables[1] and alone.tables == {(0, None): tables[0]}
    for table in tables:
        assert not grow_to_end(table, alone.n_full) and table.n == alone.n_full
    rows = list(range(alone.n_full + 1))
    if alone.rem:
        rows += {table.tail(alone.n_full) for table in tables}
    for column in ("states", "J", "s", "neg", "rate", "H"):
        assert np.array_equal(getattr(tables[0], column)[rows], getattr(tables[1], column)[rows])


def test_table_from_a_start_is_never_shared():
    """A table built from a given start is new and stored nowhere: the
    shared table of its epoch still starts at psi0."""
    model, cfg = three_mode(), IntegratorConfig(dt=0.01, t_max=1.0)
    runner = EpochRunner(model, R3, cfg, ONEWAY)
    start = np.zeros(model.dim, dtype=complex)
    start[1] = 1.0
    assert runner.table(0, None, start) is not runner.table(0, None, start)
    assert np.array_equal(runner.table(0, None).states[0], model.psi0)


def table_case(name, mode):
    """(generator, start state) of the tables the row test checks:
    each fixture's epoch 0, WIDE_LAUNCH's private epoch-1 table after a
    collapse onto its two-dimensional launch component, and a dim-301
    star held as CSR."""
    cfg = IntegratorConfig(dt=0.01, t_max=2.005)
    if name == "wide_launch":
        model = load_scenario(json.dumps(WIDE_LAUNCH))
        start = np.zeros(model.dim, dtype=complex)
        start[model.indices_of(1)] = (0.6, 0.8j)
        return EpochRunner(model, R3, cfg, mode).generator(1, 1), start
    model = star_model(300) if name == "star301" else BUILDERS[name]()
    return EpochRunner(model, R3, cfg, mode).generator(None, 0), model.psi0


@pytest.mark.parametrize("trigger_off", [False, True])
@pytest.mark.parametrize("mode", list(GapSemantics), ids=lambda m: m.token)
@pytest.mark.parametrize("name", sorted(BUILDERS) + ["wide_launch", "star301"])
def test_epoch_table_rows_equal_a_step_loop(name, mode, trigger_off):
    """Every column of a table, grid rows and shorter-last-step rows alike,
    holds the floats a plain loop of step and component_currents gives,
    whether the table grew in one stage or first to E = 0.5 and then on."""
    # The star's compensated steps loop over its 300 gaps, so it runs fewer.
    dt, n, rem = 0.01, 30 if name == "star301" else 200, 0.005
    gen, start = table_case(name, mode)
    tables = [EpochTable(gen, start, dt, n, trigger_off, rem) for _ in range(2)]
    assert not grow_to_end(tables[0], n) and tables[0].n == n
    tables[1].grow(0.5, n)
    assert tables[1].n <= n
    assert not grow_to_end(tables[1], n) and tables[1].n == n
    if name == "star301":
        assert gen.dense is None
    psi, neg, H, rate = np.array(start), 0, 0.0, 0.0
    for k in range(n + 1):
        if k:
            psi = step(psi, gen, dt)
        J = component_currents(psi, gen).J
        s = square_modulus(psi)
        prev, rate = rate, 0.0 if trigger_off else float(np.maximum(J, 0.0).sum()) / s
        if k:
            neg += bool((J < 0.0).any())
            H += 0.5 * (prev + rate) * dt if rate > 0.0 else 0.0
        for table in tables:
            assert np.array_equal(table.states[k], psi)
            assert np.array_equal(table.J[k], J)
            assert (table.s[k], table.neg[k], table.rate[k], table.H[k]) == (s, neg, rate, H)
            if k in (0, 7, n):
                i = table.tail(k)
                assert i > n and table.tail(k) == i
                end = step(psi, gen, rem)
                J_end = component_currents(end, gen).J
                assert np.array_equal(table.states[i], end)
                assert np.array_equal(table.J[i], J_end)
                assert table.neg[i] == neg + bool((J_end < 0.0).any())
                r = 0.0 if trigger_off else float(np.maximum(J_end, 0.0).sum()) / square_modulus(end)
                assert table.H[i] == H + (0.5 * (rate + r) * rem if r > 0.0 else 0.0)


# ---------------------------------------------------------------------------
# Full trajectories
# ---------------------------------------------------------------------------


def run_once(model, seed=1, *, rules=R3, t_max=6.0, dt=0.01, policy=PRESERVE_TOTAL,
             gap_mode=ONEWAY, traj_index=0):
    cfg = IntegratorConfig(dt=dt, t_max=t_max)
    return run_trajectory(model, rules, cfg, gap_mode, seed,
                          traj_index=traj_index, policy=policy)


def test_epoch_hazard_bias_is_second_order_in_dt():
    """three_mode's oneway hazard is ln(1 + 4 t^2) in closed form (sum g^2
    = 4). The tabulated one is within 1.5e-4 (dt/0.01)^2 of it over the run,
    and its error falls by 3 to 5 times for each halving of dt."""
    model, errors = three_mode(), []
    for dt in (0.02, 0.01, 0.005):
        cfg = IntegratorConfig(dt=dt, t_max=6.0)
        runner = EpochRunner(model, R3, cfg, ONEWAY)
        table = runner.table(0, None)
        assert not grow_to_end(table, runner.n_full)
        t = runner.times[:runner.n_full + 1]
        errors.append(float(np.abs(table.H[:runner.n_full + 1] - np.log1p(4.0 * t * t)).max()))
        assert errors[-1] <= 1.5e-4 * (dt / 0.01) ** 2
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.0 <= coarse / fine <= 5.0


@pytest.mark.parametrize("rules", [R3, R3.with_suspended(["n3_1"]), R4,
                                   R4.with_suspended(["n4_4"])],
                         ids=lambda r: "-".join([r.variant, *sorted(r.suspended)]))
@pytest.mark.parametrize("mode", list(GapSemantics), ids=lambda m: m.token)
@pytest.mark.parametrize("name", sorted(QUIESCENCE_MODELS))
def test_quiescent_epoch_is_one_whose_generator_has_no_gap(name, mode, rules):
    """EpochRunner.quiescent, read from the model, agrees with the generator
    test it replaces, not gen.gaps, after every possible collapse."""
    model = QUIESCENCE_MODELS[name]()
    runner = EpochRunner(model, rules, IntegratorConfig(), mode)
    assert not runner.quiescent(None)
    for chosen in model.launch_candidate_ids:
        gen = assemble_generator(model, rules, mode, epoch=1,
                                 statuses=post_collapse_statuses(model, chosen))
        assert runner.quiescent(chosen) == (not gen.gaps)


def test_fan_out_ensemble_assembles_no_generator_after_epoch_0(monkeypatch):
    """Every collapse of a star lands on a component that sources no gap, so
    a fan-out ensemble assembles its epoch-0 generator and nothing else."""
    import gapflow.engine
    from gapflow.ensemble import run_ensemble

    epochs = []
    real = gapflow.engine.assemble_generator

    def counted(*args, **kwargs):
        epochs.append(kwargs.get("epoch", 0))
        return real(*args, **kwargs)

    monkeypatch.setattr(gapflow.engine, "assemble_generator", counted)
    model = star_model(511)
    stats = run_ensemble(model, R3, IntegratorConfig(dt=0.02, t_max=1.0), ONEWAY, 400, 7)
    assert stats.n_hits > 100 and len(set(stats.hit_components.tolist())) > 50
    assert epochs == [0]
    assert stats.totals["terminals"]["quiescent"] == stats.n_hits


def test_star_walk_rests_in_one_tableless_group_per_epoch():
    """Every collapse of a 511-mode star rests in a one-dimensional component
    that sources no gap: a walk yields at most one quiescent group per
    epoch for all of them, with no table, and an ensemble on the runner
    builds no table but epoch 0's."""
    from gapflow.ensemble import run_ensemble

    model, cfg = star_model(511), IntegratorConfig(dt=0.02, t_max=1.0)
    runner = EpochRunner(model, R3, cfg, ONEWAY)
    resting = {}
    for group in runner.walk(7, np.arange(400), PRESERVE_TOTAL):
        if group.table is None:
            assert group.quiescent and (group.chosen == -1).all()
            resting[group.epoch] = resting.get(group.epoch, 0) + 1
        else:
            assert not group.quiescent
    assert resting == {1: 1}
    stats = run_ensemble(model, R3, cfg, ONEWAY, 400, 7, runner=runner)
    assert len(set(stats.hit_components.tolist())) > 50
    assert list(runner.tables) == [(0, None)]


def test_two_level_trajectory_hits_the_launch_side(two_level_model):
    rec = run_once(two_level_model, seed=5)
    assert len(rec.events) == 1
    ev = rec.events[0]
    assert ev.chosen == 1
    assert ev.epoch == 0
    assert ev.t_sc > 0.0
    assert ev.pre_hit_s == pytest.approx(1.0 + ev.t_sc**2, rel=1e-8)
    assert ev.pre_hit_J[1] == pytest.approx(2.0 * ev.t_sc, rel=1e-8)
    assert rec.terminal == TERMINAL_QUIESCENT


def test_trajectory_is_deterministic(two_level_model):
    a = run_once(two_level_model, seed=42)
    b = run_once(two_level_model, seed=42)
    assert [e.t_sc for e in a.events] == [e.t_sc for e in b.events]
    assert np.array_equal(a.samples.s, b.samples.s)
    assert np.array_equal(a.samples.moduli, b.samples.moduli)


def test_trajectory_seed_changes_outcome(two_level_model):
    # A seed may have no hit before t_max (probability 1/37 each here); the
    # first-hit times of the seeds that hit are compared.
    firsts = [run_once(two_level_model, seed=s).first_event for s in range(12)]
    times = {e.t_sc for e in firsts if e is not None}
    assert len(times) > 6


def test_traj_index_differs_from_seed_zero(two_level_model):
    a = run_once(two_level_model, seed=1, traj_index=0)
    b = run_once(two_level_model, seed=1, traj_index=1)
    assert a.events[0].t_sc != b.events[0].t_sc


def test_engine_equivalence_nrules3_nrules4(three_mode_model):
    """Both rule sets yield identical event sequences for identical seeds."""
    for seed in range(25):
        a = run_once(three_mode_model, seed=seed, rules=R3)
        b = run_once(three_mode_model, seed=seed, rules=R4)
        assert [(e.t_sc, e.chosen, e.epoch) for e in a.events] == \
               [(e.t_sc, e.chosen, e.epoch) for e in b.events]


def test_only_freeze_and_trigger_rules_can_be_suspended():
    """No code reads a suspended collapse rule, so suspending it is refused
    rather than recorded as if it changed the run."""
    with pytest.raises(ValueError, match="cannot be suspended"):
        RuleSet(NRULES3, {"n3_3"})
    with pytest.raises(ValueError, match="cannot be suspended"):
        R3.with_suspended(["n3_1", "n3_3"])
    assert RuleSet(NRULES3, {"n3_1", "n3_2"}).trigger_suspended


def test_chain_trajectory_cascades(chain_model):
    """chain fixture: C0 feeds C1, realizing C1 launches C2."""
    for seed in range(40):
        rec = run_once(chain_model, seed=seed, t_max=12.0)
        chains = [e.chosen for e in rec.events]
        if len(chains) >= 2:
            assert chains[0] == 1
            assert chains[1] == 2
            assert rec.events[1].epoch == 1
            break
    else:
        pytest.fail("no two-hit cascade in 40 seeds")


def test_collapse_sample_recorded_at_t_sc(two_level_model):
    rec = run_once(two_level_model, seed=5)
    ev = rec.events[0]
    i = int(np.searchsorted(rec.samples.times, ev.t_sc, side="right")) - 1
    assert rec.samples.times[i] == ev.t_sc
    assert rec.samples.times[i - 1] == ev.t_sc  # pre-hit row shares the time
    # post-collapse row: all weight on the chosen component, preserved total
    assert rec.samples.moduli[i, 0] == 0.0
    assert rec.samples.s[i] == pytest.approx(ev.pre_hit_s, rel=1e-12)


def test_no_gap_model_runs_to_t_max():
    """A model with no gaps is a pure unitary record: zero events."""
    doc = {
        "schema": "scenario/1",
        "dim": 2,
        "components": [
            {"id": 0, "indices": [0, 1], "entropy_rank": 0, "status": "active"},
        ],
        "gaps": [],
        "own": [{"component": 0, "entries": [[0, 1, 1.0, 0.0], [1, 0, 1.0, 0.0]]}],
        "psi0": [[1.0, 0.0], [0.0, 0.0]],
        "defaults": {"dt": 0.01, "t_max": 2.0, "rules": "nrules3",
                     "gap_mode": "hermitian", "seed": 1, "sample_every": 1},
    }
    import json

    model = load_scenario(json.dumps(doc))
    cfg = IntegratorConfig(dt=0.01, t_max=2.0)
    rec = run_trajectory(model, R3, cfg, GapSemantics.HERMITIAN_TRUNCATED, 1)
    assert rec.events == []
    assert rec.terminal == TERMINAL_T_MAX
    assert rec.samples.times[-1] == 2.0
    # Rabi inside one component
    p_top = rec.samples.moduli[-1, 0]
    assert p_top == pytest.approx(1.0, abs=1e-8)


def test_quiescent_two_level_stops_after_hit(two_level_model):
    rec = run_once(two_level_model, seed=5)
    assert rec.terminal == TERMINAL_QUIESCENT
    assert rec.samples.times[-1] == rec.events[0].t_sc


def test_meta_counts_steps_and_epochs(two_level_model):
    rec = run_once(two_level_model, seed=5)
    meta = rec.meta
    assert meta["rules"] == "nrules3"
    assert meta["epochs"] == 1
    assert meta["final_t"] == rec.events[0].t_sc
    assert meta["n_steps"] >= 1


def test_record_samples_flag_drops_samples(two_level_model):
    rec = run_once_no_samples(two_level_model)
    assert rec.samples is None
    assert len(rec.events) == 1


def run_once_no_samples(model):
    cfg = IntegratorConfig(dt=0.01, t_max=6.0)
    return run_trajectory(model, R3, cfg, ONEWAY, 5, record_samples=False)


def test_sampled_and_unsampled_events_agree(three_mode_model):
    cfg = IntegratorConfig(dt=0.01, t_max=6.0)
    a = run_trajectory(three_mode_model, R3, cfg, ONEWAY, 9, record_samples=True)
    b = run_trajectory(three_mode_model, R3, cfg, ONEWAY, 9, record_samples=False)
    assert [(e.t_sc, e.chosen) for e in a.events] == [(e.t_sc, e.chosen) for e in b.events]


def test_hit_time_never_at_zero_current(three_mode_model):
    """The gate requires positive current at the hit step's end."""
    for seed in range(30):
        rec = run_once(three_mode_model, seed=seed)
        for ev in rec.events:
            assert ev.pre_hit_J[ev.chosen] > 0.0


def reference_samples(runner, seed, index):
    """The per-row samples loop that TrajectorySamples.of replaced: one
    Python row per recorded sample (each epoch's start, its sampled steps
    and, after any step, its last point), scaled by the epoch's scale."""
    def abs2(c):
        return c.real * c.real + c.imag * c.imag

    model, cand = runner.model, runner.model.launch_candidate_ids
    rows = []       # (t, scale, table, row)
    for g in runner.walk(seed, [index], PRESERVE_TOTAL):
        c, k0, n, last = complex(g.scale[0]), int(g.k0[0]), int(g.n[0]), int(g.last[0])
        # A resting group has no table: the shared one of its component.
        table = g.table if g.table is not None else runner.table(g.epoch, rests_in)
        rows += [(runner.times[k0 + r], c, table, r)
                 for r in range(max(n, 1)) if r == 0 or runner.sampled[k0 + r]]
        if n:
            rows.append((float(runner.times[k0 + n]), c, table, last))
        rests_in = int(g.chosen[0])
    column = {m: i for i, m in enumerate(cand)}
    currents = np.zeros((len(rows), len(cand)))
    for i, (_, c, tab, r) in enumerate(rows):
        currents[i, [column[m] for m in tab.launch_ids]] = abs2(c) * tab.J[r]
    states = np.array([c * tab.states[r] for _, c, tab, r in rows])
    return (np.array([row[0] for row in rows]),
            np.array([abs2(c) * float(tab.s[r]) for _, c, tab, r in rows]),
            component_moduli(states, model), currents)


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("gap_mode", list(GapSemantics), ids=lambda m: m.token)
@pytest.mark.parametrize("name", sorted(QUIESCENCE_MODELS.keys() - {"star"}))
def test_samples_equal_per_row_reference(name, gap_mode):
    """run_trajectory's samples are the per-row loop's bytes, on and off the
    dt grid and with sparse samples; the seeds include quiescent ends and,
    on chain_three_level and wide_launch, two-hit cascades."""
    model = QUIESCENCE_MODELS[name]()
    ends = set()
    for t_max, every in [(6.0, 1), (6.0, 3), (2.005, 1), (2.005, 3)]:
        cfg = IntegratorConfig(dt=0.01, t_max=t_max, sample_every=every)
        runner = EpochRunner(model, R3, cfg, gap_mode)
        for seed in range(8):
            rec = run_trajectory(model, R3, cfg, gap_mode, seed, runner=runner)
            got = rec.samples
            want = reference_samples(runner, seed, 0)
            assert all(map(same_bytes, (got.times, got.s, got.moduli, got.currents), want))
            ends.add((rec.terminal, min(len(rec.events), 2)))
    cascades = name in ("chain_three_level", "wide_launch")
    assert {(TERMINAL_QUIESCENT, 2 if cascades else 1), (TERMINAL_T_MAX, 0)} <= ends


@pytest.mark.parametrize("model, rules, cfg, mode, seed", [
    (three_mode(), R3.with_suspended(["n3_2"]), IntegratorConfig(dt=0.01, t_max=2.005,
                                                                 sample_every=3),
     GapSemantics.HERMITIAN_TRUNCATED, 5),
    (two_level(), R3, IntegratorConfig(dt=0.01, t_max=6.0), ONEWAY, 6),
], ids=["trigger_suspended", "no_hit_seed"])
def test_no_hit_trajectory_records_the_no_hit_profile(model, rules, cfg, mode, seed):
    """A trajectory without a hit records the rows `gapflow currents` writes,
    bit for bit, and their currents in its epoch-0 launch columns."""
    rec = run_trajectory(model, rules, cfg, mode, seed)
    assert rec.events == [] and rec.terminal == TERMINAL_T_MAX
    table, rows, times = EpochRunner(model, rules, cfg, mode).profile()
    got = rec.samples
    assert same_bytes(got.times, times)
    assert same_bytes(got.s, table.s[rows])
    assert same_bytes(got.moduli, component_moduli(table.states[rows], model))
    launch = [got.current_ids.index(m) for m in table.launch_ids]
    assert same_bytes(got.currents[:, launch], table.J[rows])


def record_of(rec):
    """Everything a TrajectoryRecord reports, as comparable values."""
    samples = None if rec.samples is None else tuple(
        (a.dtype, a.shape, a.tobytes()) if isinstance(a, np.ndarray) else a
        for a in vars(rec.samples).values())
    return [e.to_record(0) for e in rec.events], rec.meta, rec.terminal, samples


@pytest.mark.parametrize("record_samples", [True, False])
@pytest.mark.parametrize("t_max", [6.0, 2.005])
@pytest.mark.parametrize("gap_mode", list(GapSemantics), ids=lambda m: m.token)
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_runner_reuse_is_transparent(name, gap_mode, t_max, record_samples):
    """Runs of any seed that share a runner's generators and epoch tables
    report exactly what runs on a runner of their own do, whichever run grew
    a table first."""
    model = BUILDERS[name]()
    cfg = IntegratorConfig(dt=0.01, t_max=t_max)
    runner = EpochRunner(model, R3, cfg, gap_mode)
    for seed in (3, 4, 3, 5):
        shared = run_trajectory(model, R3, cfg, gap_mode, seed, traj_index=seed % 2,
                                record_samples=record_samples, runner=runner)
        alone = run_trajectory(model, R3, cfg, gap_mode, seed, traj_index=seed % 2,
                               record_samples=record_samples)
        assert record_of(shared) == record_of(alone)
    assert runner.tables


@pytest.mark.parametrize("field", range(4), ids=["model", "rules", "cfg", "gap_mode"])
def test_run_trajectory_refuses_another_runner(field):
    """A runner built for another model (detuned_two_level has two_level's
    statuses but another generator), rule set, config or gap mode than the
    run's is refused, and nothing is drawn against it."""
    run = (two_level(), R3, IntegratorConfig(dt=0.01, t_max=6.0), ONEWAY)
    other = (BUILDERS["detuned_two_level"](), R3.with_suspended(["n3_1"]),
             IntegratorConfig(dt=0.02, t_max=6.0), GapSemantics.HERMITIAN_TRUNCATED)
    runner = EpochRunner(*run[:field], other[field], *run[field + 1:])
    with pytest.raises(GapflowError, match="another model"):
        run_trajectory(*run, 0, record_samples=False, runner=runner)
    assert not runner.tables


@pytest.mark.parametrize("gap_mode", list(GapSemantics), ids=lambda m: m.token)
@pytest.mark.parametrize("name", ["chain_three_level", "wide_launch"])
def test_one_runner_serves_both_norm_policies(name, gap_mode):
    """Runs of both norm policies, interleaved on one runner, report exactly
    what runs on a runner of their own policy do: the runner's tables start
    from canonical states, and a collapse onto a two-dimensional component
    (wide_launch) starts a table of the run's own policy. The policies'
    samples differ after a collapse, so the check is not vacuous."""
    model = QUIESCENCE_MODELS[name]()
    cfg = IntegratorConfig(dt=0.01, t_max=6.0)
    shared = EpochRunner(model, R3, cfg, gap_mode)
    own = {policy: EpochRunner(model, R3, cfg, gap_mode) for policy in (PRESERVE_TOTAL, RAW)}
    records = {PRESERVE_TOTAL: [], RAW: []}
    for seed in range(6):
        for policy in ((PRESERVE_TOTAL, RAW) if seed % 2 else (RAW, PRESERVE_TOTAL)):
            got, want = (record_of(run_trajectory(model, R3, cfg, gap_mode, seed, policy=policy,
                                                  runner=runner))
                         for runner in (shared, own[policy]))
            assert got == want
            records[policy].append(got[3])
    assert records[PRESERVE_TOTAL] != records[RAW]


def test_trajectory_rng_streams_are_stable():
    """Seed scheme: master seed plus spawn index, order-independent."""
    a = trajectory_rng(123, 7).random(4)
    b = trajectory_rng(123, 7).random(4)
    assert np.array_equal(a, b)
    c = trajectory_rng(123, 8).random(4)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("seed", [0, 2026, 2**32 - 1, 2**32 + 5, 2**70 + 3, 2**130 + 7])
def test_substream_keys_equal_seed_sequence(seed):
    """Block keys are SeedSequence(seed, spawn_key=(i,)).generate_state(2,
    np.uint64) for indices 0 .. 10**5 - 1 and for indices of two or three
    32-bit words; a block of one takes the scalar path. 2**130 + 7 is a
    seed of five words, one more than the pool holds."""
    for lo in range(0, 10**5, 10**4):
        indices = np.arange(lo, lo + 10**4)
        expected = np.array([np.random.SeedSequence(seed, spawn_key=(i,))
                             .generate_state(2, np.uint64) for i in indices.tolist()])
        assert np.array_equal(substream_keys(seed, indices), expected)
    wide = [2**32 - 1, 2**32, 2**32 + 7, 2**63 - 1, 2**64 + 3]
    expected = np.array([np.random.SeedSequence(seed, spawn_key=(i,))
                         .generate_state(2, np.uint64) for i in wide])
    assert np.array_equal(substream_keys(seed, np.array(wide[:4] * 3, dtype=np.int64)),
                          np.tile(expected[:4], (3, 1)))
    for i, key in zip(wide, expected):
        assert np.array_equal(substream_keys(seed, [i])[0], key)


def test_substream_draws_equal_trajectory_rng():
    """(E_0, u_0, E_1, u_1) per index, as trajectory_rng draws them."""
    indices = np.arange(0, 3000, 7)
    for seed in (1, 2026, 2**70 + 3):
        draws = substream_draws(substream_keys(seed, indices), 2)
        for row, i in zip(draws, indices.tolist()):
            rng = trajectory_rng(seed, i)
            assert row.tolist() == [rng.standard_exponential(), rng.random(),
                                    rng.standard_exponential(), rng.random()]


def test_philox_words_equal_random_raw():
    """Raw words of one, two and three Philox blocks per key."""
    keys = substream_keys(2026, np.arange(300))
    words = philox_words(keys, 11)
    for i in range(300):
        bits = np.random.Philox(np.random.SeedSequence(2026, spawn_key=(i,)))
        assert words[i].tolist() == bits.random_raw(11).tolist()
    assert np.array_equal(philox_words(keys, 3), words[:, :3])


def test_substream_pair_equals_trajectory_rng():
    """substream_pair(keys, p) for p = 0..3 is the (p + 1)-th
    standard_exponential() and random() of trajectory_rng, over some 108,000
    keys in blocks of 1 and CROSSOVER - 1 (the per-key loop) and of
    CROSSOVER and of a narrow model's walk block (arrays), the size an
    ensemble of three_mode draws at. Thousands of the array blocks' keys
    have an exponential that leaves numpy's ziggurat fast path, reading
    more than one word, and take the loop."""
    sizes = [1, CROSSOVER - 1, CROSSOVER] + [walk_block(three_mode())] * 3
    bounds = np.cumsum([0] + sizes).tolist()
    left_fast_path = 0
    for seed in (0, 2026, 2**70 + 3):
        keys = substream_keys(seed, np.arange(bounds[-1]))
        expected, words_read = [], []
        for i in range(bounds[-1]):
            rng = trajectory_rng(seed, i)
            expected.append([f() for _ in range(4) for f in (rng.standard_exponential,
                                                            rng.random)])
            state = rng.bit_generator.state
            words_read.append(4 * (int(state["state"]["counter"][0]) - 1) + state["buffer_pos"])
        expected = np.array(expected)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            for pair in range(4):
                E, u = substream_pair(keys[lo:hi], pair)
                assert E.tolist() == expected[lo:hi, 2 * pair].tolist()
                assert u.tolist() == expected[lo:hi, 2 * pair + 1].tolist()
        left_fast_path += sum(read > 8 for read in words_read[bounds[2]:])
    assert left_fast_path > 1000


@pytest.mark.parametrize("seed, index", [(-1, 0), (-3, 5), (2**40, -1)])
def test_negative_seed_or_index_rejected_before_hashing(seed, index):
    with pytest.raises(GapflowError, match="non-negative"):
        substream_keys(seed, [index])
    with pytest.raises(GapflowError, match="non-negative"):
        substream_keys(seed, np.full(20, index))
    with pytest.raises(GapflowError, match="non-negative"):
        run_trajectory(two_level(), R3, IntegratorConfig(dt=0.01, t_max=1.0), ONEWAY, seed,
                       traj_index=index)
