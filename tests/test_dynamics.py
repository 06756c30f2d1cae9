"""Generator assembly, integration, and current tests.

Closed forms used as oracles:

* one-way two-level, coupling g, psi0 = e_0: the feed block is nilpotent, so
  psi_1(t) = -i*g*t exactly, J_1(t) = 2*g^2*t, and s(t) = 1 + g^2*t^2.
  RK4 reproduces polynomial solutions of degree <= 4 to rounding error.
* hermitian two-level with the freeze rule suspended (g = 1): Rabi flopping,
  |psi_1(t)|^2 = sin(t)^2 and J_1(t) = sin(2t).
"""

import dataclasses
import inspect
import itertools
import json
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from gapflow.arrow import reverse_initial_state
from gapflow.dynamics import (
    DENSE_DIM_LIMIT,
    FILL_BLOCK,
    PROPAGATOR_CACHE_SIZE,
    SPARSE_FILL_LIMIT,
    EpochTable,
    GapSemantics,
    IntegratorConfig,
    StepPlan,
    assemble_generator,
    component_currents,
    gap_backflow,
    row_dots,
    row_products,
    step,
    step_block,
)
from gapflow.engine import EpochRunner, post_collapse_statuses
from gapflow.errors import GapflowError, NonFiniteStateError, NormDriftError
from gapflow.fixtures import BUILDERS, three_mode, two_level
from gapflow.model import (ACTIVE, LAUNCH, MAX_STEPS, REALIZED, STATUSES, ZEROED,
                           OperatorBlock, component_moduli, load_scenario, validate_model)
from gapflow.rules import NRULES3, NRULES4, RuleSet

from conftest import WIDE_LAUNCH, star_model
from reference import (adjoint_entries, expm_rows, fd_current_check, four_rule_generator,
                       full_hamiltonian, gauge_reference, held, small_models, to_coo)

R3 = RuleSet(NRULES3)
R4 = RuleSet(NRULES4)

ONEWAY = GapSemantics.ONE_WAY_FEED
COMPENSATED = GapSemantics.NORM_COMPENSATED
HERMITIAN = GapSemantics.HERMITIAN_TRUNCATED
RABI = RuleSet(NRULES3, {"n3_1"})


def rabi_generator(model=None):
    """Two-level hermitian generator with the freeze rule suspended."""
    model = model or two_level()
    return model, assemble_generator(model, RABI, HERMITIAN)


def profile(model, rules, mode, cfg):
    """The no-hit profile of ``model`` on ``cfg``'s grid: its table, the
    sampled rows and their times."""
    return EpochRunner(model, rules, cfg, mode).profile()


# ---------------------------------------------------------------------------
# Mode tokens and config validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("token,member", [
    ("oneway", ONEWAY),
    ("compensated", COMPENSATED),
    ("hermitian", HERMITIAN),
    ("one_way_feed", ONEWAY),
    ("norm_compensated", COMPENSATED),
    ("hermitian_truncated", HERMITIAN),
])
def test_gap_semantics_tokens(token, member):
    assert GapSemantics.from_token(token) is member


def test_gap_semantics_rejects_unknown_token():
    with pytest.raises(GapflowError):
        GapSemantics.from_token("open")


@pytest.mark.parametrize("kwargs", [
    {"dt": 0.0},
    {"dt": -0.1},
    {"t_max": -1.0},
    {"sample_every": 0},
    {"norm_drift_budget": 0.0},
    {"dt": float("nan")},
    {"dt": float("inf")},
    {"t_max": float("nan")},
    {"t_max": float("inf")},
    {"t_max": 1e15},
    {"dt": 1e-9},
    {"dt": 5e-324, "t_max": 1.0},
    {"dt": 1.0, "t_max": MAX_STEPS + 1.0},
])
def test_integrator_config_rejects_bad_values(kwargs):
    with pytest.raises(GapflowError):
        IntegratorConfig(**kwargs)


# ---------------------------------------------------------------------------
# Generator assembly
# ---------------------------------------------------------------------------


def test_sink_generator_has_empty_launch_columns(three_mode_model):
    """One-way feed: nothing maps out of a launch component, bit-exact."""
    gen = assemble_generator(three_mode_model, R3, ONEWAY)
    for comp_id in (1, 2, 3):
        probe = np.zeros(4, dtype=complex)
        probe[three_mode_model.indices_of(comp_id)] = 1.0
        out = gen.apply(probe)
        assert np.all(out == 0.0)


def test_sink_generator_is_not_norm_conserving(three_mode_model):
    gen = assemble_generator(three_mode_model, R3, ONEWAY)
    assert not gen.conserves_norm


def test_launch_own_block_frozen_under_active_rules(detuned_model):
    """With the freeze rule active, a launch component's own energy is absent."""
    gen = assemble_generator(detuned_model, R3, HERMITIAN)
    h = held(gen.op)
    idx = detuned_model.indices_of(1)[0]
    assert h[idx, idx] == 0.0


def test_suspended_hermitian_equals_full_hamiltonian(detuned_model):
    """Suspending the freeze rule restores H0 + H01 entrywise."""
    rules = RuleSet(NRULES3, {"n3_1"})
    gen = assemble_generator(detuned_model, rules, HERMITIAN)
    full = full_hamiltonian(detuned_model).toarray()
    assert np.array_equal(held(gen.op), full)


def test_nrules4_freeze_suspension_token(detuned_model):
    rules = RuleSet(NRULES4, {"n4_4"})
    gen = assemble_generator(detuned_model, rules, HERMITIAN)
    full = full_hamiltonian(detuned_model).toarray()
    assert np.array_equal(held(gen.op), full)


def test_zeroed_component_is_excluded(three_mode_model):
    statuses = {0: ACTIVE, 1: LAUNCH, 2: ZEROED, 3: LAUNCH}
    gen = assemble_generator(three_mode_model, R3, ONEWAY, statuses=statuses, epoch=1)
    h = held(gen.op)
    idx = three_mode_model.indices_of(2)[0]
    assert np.all(h[idx, :] == 0.0)
    assert np.all(h[:, idx] == 0.0)
    assert 2 not in gen.launch_ids


def test_realized_component_keeps_own_block(detuned_model):
    statuses = {0: REALIZED, 1: ZEROED}
    gen = assemble_generator(detuned_model, R3, ONEWAY, statuses=statuses, epoch=1)
    h = held(gen.op)
    assert h[0, 0] == pytest.approx(1.5)
    assert np.count_nonzero(h) == 1


def reachable_statuses(model):
    """Every status set a run of ``model`` can reach: the initial one and,
    in turn, the one after a collapse into each launch component."""
    seen, todo = [], [model.initial_statuses()]
    while todo:
        statuses = todo.pop()
        if statuses not in seen:
            seen.append(statuses)
            todo += [post_collapse_statuses(model, cid)
                     for cid, st in statuses.items() if st == LAUNCH]
    return seen


def assert_three_rules_assemble_four_rule_generator(model, status_sets):
    """assemble_generator under nrules3 holds, entry by entry, the generator
    that the four-rule edits of H give (reference.four_rule_generator), and
    includes the gaps it keeps, at each of ``status_sets``, in every gap
    mode, with the freeze on and suspended. Returns the cases checked."""
    cases = 0
    for statuses in status_sets:
        for mode, freeze_suspended in itertools.product(GapSemantics, (False, True)):
            rules = RuleSet(NRULES3, {"n3_1"} if freeze_suspended else ())
            gen = assemble_generator(model, rules, mode, statuses=statuses)
            expected, pairs = four_rule_generator(model, statuses, mode, freeze_suspended)
            assert np.array_equal(held(gen.op), expected), (statuses, mode, freeze_suspended)
            if mode is COMPENSATED:
                assert [g.pair for g in gen.gaps] == pairs, (statuses, freeze_suspended)
            cases += 1
    return cases


def test_three_rules_assemble_the_four_rule_generator_on_fixtures():
    """The paper's four-to-three reduction, checked by a second route that
    shares no assembly code with assemble_generator: the five fixtures and
    WIDE_LAUNCH, whose launch own block and chained gap the others lack,
    reach 17 status sets, so 102 cases. Both routes are written from the
    same prose, so this checks the reduction's implementation, not its
    physics."""
    models = [builder() for _, builder in sorted(BUILDERS.items())]
    models.append(load_scenario(json.dumps(WIDE_LAUNCH)))
    assert sum(assert_three_rules_assemble_four_rule_generator(m, reachable_statuses(m))
               for m in models) == 102


@settings(max_examples=60, deadline=None)
@given(model=small_models(), data=st.data())
def test_three_rules_assemble_the_four_rule_generator_on_generated_models(model, data):
    """Every reachable status set of a generated model, and one drawn
    freely: no reachable set has a launch component on a gap's low side
    while its high side is launch, the case where a suspended freeze lets
    a launch component source a gap."""
    drawn = {c.id: data.draw(st.sampled_from(STATUSES)) for c in model.components}
    assert_three_rules_assemble_four_rule_generator(model, reachable_statuses(model) + [drawn])


def test_hermitian_generator_is_hermitian(three_mode_model):
    gen = assemble_generator(three_mode_model, R3, HERMITIAN)
    h = held(gen.op)
    assert np.allclose(h, h.conj().T, atol=1e-15)
    assert gen.conserves_norm


def test_backflow_blocks_present_only_in_hermitian(three_mode_model):
    """Every mode records the same included gaps, each by the model's feed
    entries; the adjoint entries are in G in hermitian mode only, and the
    sink modes' backflow is exact zeros."""
    model = three_mode_model
    rng = np.random.default_rng(5)
    states = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    pairs = [(gap.low, gap.high) for gap in model.gaps]
    for rules, mode in itertools.product([R3, RABI], GapSemantics):
        gen = assemble_generator(model, rules, mode)
        assert [gap.pair for gap in gen.gaps] == pairs
        g = held(gen.op)
        flows = gap_backflow(states, gen)
        for gap, model_gap in zip(gen.gaps, model.gaps):
            feed = to_coo(model_gap.interaction).toarray()
            rows, cols, vals = zip(*model_gap.interaction.entries)
            assert gap.rows.tolist() == list(rows) and gap.cols.tolist() == list(cols)
            assert gap.vals.tobytes() == np.array(vals, dtype=np.complex128).tobytes()
            assert np.array_equal(gap.low_idx, model.indices_of(gap.pair[0]))
            reverse = g[np.ix_(gap.low_idx, model.indices_of(gap.pair[1]))]
            if mode is HERMITIAN:
                assert np.array_equal(reverse, feed.conj().T[np.ix_(
                    gap.low_idx, model.indices_of(gap.pair[1]))])
                assert np.abs(flows[gap.pair]).max() > 0.0
            else:
                assert not reverse.any()
                assert flows[gap.pair].tolist() == [0.0] * len(states)
                assert not np.signbit(flows[gap.pair]).any()


def entrywise_matrix(model, rules, mode, statuses):
    """G as assemble_generator built it gap by gap: the included own blocks,
    then each included gap's feed entries followed, in hermitian mode, by
    their adjoints, summed in that order."""
    freeze_off = rules.freeze_suspended
    entries = [e for comp_id, block in model.hamiltonian.own.items()
               if statuses[comp_id] in (ACTIVE, REALIZED)
               or freeze_off and statuses[comp_id] == LAUNCH
               for e in block.entries]
    for gap in model.gaps:
        low, high = statuses[gap.low], statuses[gap.high]
        if freeze_off and mode is HERMITIAN:
            included = ZEROED not in (low, high)
        else:
            included = low in (ACTIVE, REALIZED) + ((LAUNCH,) if freeze_off else ()) \
                and high == LAUNCH
        if included:
            entries.extend(gap.interaction.entries)
            if mode is HERMITIAN:
                entries.extend(adjoint_entries(gap.interaction))
    return to_coo(OperatorBlock(model.dim, tuple(entries))).tocsr()


@pytest.mark.parametrize("name", sorted(BUILDERS) + ["wide_launch", "star300"])
def test_bulk_assembly_equals_entrywise_assembly(name):
    """G from one selection of the model's gap feeds holds the bytes of G
    built entry by entry, for every gap mode, the freeze rule active and
    suspended, and random status sets: the CSR arrays, dtypes included,
    above DENSE_DIM_LIMIT, and the dense array of that CSR up to it."""
    model = (load_scenario(json.dumps(WIDE_LAUNCH)) if name == "wide_launch" else
             star_model(300) if name == "star300" else BUILDERS[name]())
    rng = np.random.default_rng(11)
    status_sets = [model.initial_statuses()] + [
        {c.id: str(rng.choice([ACTIVE, LAUNCH, REALIZED, ZEROED])) for c in model.components}
        for _ in range(6)]
    for rules, mode, statuses in itertools.product([R3, RABI], GapSemantics, status_sets):
        got = assemble_generator(model, rules, mode, statuses).op
        want = entrywise_matrix(model, rules, mode, statuses)
        pairs = (((got.indptr, want.indptr), (got.indices, want.indices),
                  (got.data, want.data)) if sp.issparse(got) else ((got, want.toarray()),))
        assert sp.issparse(got) == (model.dim > DENSE_DIM_LIMIT)
        for a, b in pairs:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_provenance_records_assembly_inputs(three_mode_model):
    rules = RuleSet(NRULES4, {"n4_4"})
    gen = assemble_generator(three_mode_model, rules, HERMITIAN, epoch=2)
    assert gen.mode is HERMITIAN
    assert gen.epoch == 2


# ---------------------------------------------------------------------------
# Closed-form evolution
# ---------------------------------------------------------------------------


def test_one_way_two_level_matches_closed_form(two_level_model):
    cfg = IntegratorConfig(dt=0.01, t_max=2.0)
    table, rows, times = profile(two_level_model, R3, ONEWAY, cfg)
    s = table.s[rows]
    assert np.allclose(s, 1.0 + times**2, atol=1e-12)
    J1 = table.J[rows, table.launch_ids.index(1)]
    assert np.allclose(J1, 2.0 * times, atol=1e-12)
    assert table.states[rows[-1]][1] == pytest.approx(-2.0j, abs=1e-12)


def test_rabi_closed_form():
    model = two_level()
    cfg = IntegratorConfig(dt=0.001, t_max=3.0)
    table, rows, times = profile(model, RABI, HERMITIAN, cfg)
    p1 = component_moduli(table.states[rows], model)[:, 1]
    assert np.allclose(p1, np.sin(times) ** 2, atol=1e-9)
    assert np.allclose(table.J[rows, table.launch_ids.index(1)], np.sin(2.0 * times), atol=1e-9)


def test_rabi_current_goes_negative():
    """At psi = (1, i)/sqrt(2) the analytic current is exactly -1."""
    model, gen = rabi_generator()
    psi = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    J = component_currents(psi, gen)
    assert J[1] == pytest.approx(-1.0, abs=1e-12)


def test_rk4_convergence_order():
    """Halving dt must shrink the Rabi endpoint error by at least 8x."""
    model = two_level()
    t_end = 1.0
    exact = np.array([np.cos(t_end), -1.0j * np.sin(t_end)])
    errors = []
    for dt in (0.05, 0.025):
        cfg = IntegratorConfig(dt=dt, t_max=t_end)
        table, rows, _ = profile(model, RABI, HERMITIAN, cfg)
        errors.append(np.max(np.abs(table.states[rows[-1]] - exact)))
    assert errors[0] / errors[1] >= 8.0


def test_rk4_step_matches_expm_oracle():
    """A single RK4 step, and then every row of the no-hit profile of every
    fixture and WIDE_LAUNCH in the linear modes, against the scipy matrix
    exponential: row k against U^k psi0, U = expm(-i G dt), over the
    fixture's own t_max. The largest error is at most 2 dt^4 (measured:
    at most 1.48 dt^4, three_mode hermitian) and halving dt cuts it by 12
    or more (measured: 15.96 to 16.03) wherever the coarser one exceeds
    1e-12. A oneway generator with G^2 = 0 (every fixture's but
    detuned_two_level's) makes RK4 exact, so those rows sit at rounding
    (measured: 0)."""
    model, gen = rabi_generator()
    rng = np.random.default_rng(7)
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    dt = 0.001
    expected = expm_rows(gen.op, psi, dt, 2)[1]
    got = step(psi, gen, dt)
    assert np.allclose(got, expected, atol=1e-14)

    models = {**{name: build() for name, build in BUILDERS.items()},
              "wide_launch": load_scenario(json.dumps(WIDE_LAUNCH))}
    for (name, model), mode in itertools.product(models.items(), (ONEWAY, HERMITIAN)):
        errors = []
        for dt in (0.02, 0.01, 0.005):
            runner = EpochRunner(model, R3, IntegratorConfig(dt=dt, t_max=model.defaults.t_max),
                                 mode)
            table, rows, _ = runner.profile(every_step=True)
            exact = expm_rows(runner.generator(None, 0).op, model.psi0, dt, len(rows))
            errors.append(np.abs(table.states[rows] - exact).max())
            assert errors[-1] <= 2.0 * dt ** 4, (name, mode.token, dt, errors)
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse <= 1e-12 or coarse >= 12.0 * fine, (name, mode.token, errors)


@pytest.mark.parametrize("name", ["detuned_two_level", "three_mode", "chain_three_level",
                                  "wide_launch"])
def test_compensated_profile_converges_to_the_gauge_reference(name):
    """Every row of the compensated no-hit profile against the reduced
    system of gauge_reference, which shares no code with apply, over the
    fixture's own t_max: the largest error is at most 2 dt^4 (measured:
    at most 1.48 dt^4, three_mode) and each halving of dt cuts it by 14 to
    18, as RK4's order 4 does (measured: 15.96 to 16.04)."""
    model = build(name)
    errors = []
    for dt in (0.02, 0.01, 0.005):
        cfg = IntegratorConfig(dt=dt, t_max=model.defaults.t_max)
        table, rows, times = profile(model, R3, COMPENSATED, cfg)
        errors.append(np.abs(table.states[rows] - gauge_reference(model, times)).max())
        assert errors[-1] <= 2.0 * dt ** 4, (dt, errors)
    for coarse, fine in zip(errors, errors[1:]):
        assert 14.0 <= coarse / fine <= 18.0, errors


def test_profile_handles_partial_final_step(two_level_model):
    cfg = IntegratorConfig(dt=0.01, t_max=0.505)
    table, rows, times = profile(two_level_model, R3, ONEWAY, cfg)
    assert times[-1] == pytest.approx(0.505, abs=1e-12)
    assert table.s[rows[-1]] == pytest.approx(1.0 + 0.505**2, abs=1e-12)


def test_profile_zero_t_max_returns_single_sample(two_level_model):
    cfg = IntegratorConfig(dt=0.01, t_max=0.0)
    _, _, times = profile(two_level_model, R3, ONEWAY, cfg)
    assert len(times) == 1
    assert times[-1] == 0.0


def test_step_rejects_non_finite_state(two_level_model):
    gen = assemble_generator(two_level_model, R3, ONEWAY)
    bad = np.array([np.nan + 0j, 0.0])
    with pytest.raises(NonFiniteStateError):
        step(bad, gen, 0.01)


# ---------------------------------------------------------------------------
# The two step paths: M_h matvec and staged RK4
# ---------------------------------------------------------------------------

# The step sizes a run takes: dt, a shorter last step (t_max 0.505 at dt 0.01)
# and the negative probe of fd_current_check.
STEP_SIZES = (0.01, StepPlan.of(IntegratorConfig(dt=0.01, t_max=0.505)).rem,
              -inspect.signature(fd_current_check).parameters["dt_probe"].default)


def rk4_stages(psi, gen, h):
    """Four-stage RK4 through gen.apply: the staged path's arithmetic."""
    k1 = gen.apply(psi)
    k2 = gen.apply(psi + (0.5 * h) * k1)
    k3 = gen.apply(psi + (0.5 * h) * k2)
    k4 = gen.apply(psi + h * k3)
    return psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def build(name):
    """A fixture by name, WIDE_LAUNCH, or the dim-301 star, held as CSR."""
    if name == "wide_launch":
        return load_scenario(json.dumps(WIDE_LAUNCH))
    return star_model(300) if name == "star301" else BUILDERS[name]()


def reachable_generators(model, mode):
    """The initial generator and the one after each possible first collapse."""
    gen = assemble_generator(model, R3, mode)
    return [gen] + [assemble_generator(model, R3, mode, epoch=1,
                                       statuses=post_collapse_statuses(model, m))
                    for m in gen.launch_ids]


@pytest.mark.parametrize("name", sorted(BUILDERS) + ["star301"])
def test_oneway_propagator_launch_columns_are_identity(name):
    """The bit-exact block: M_h, dense or CSR, maps a launch-sector state to
    itself."""
    model = build(name)
    eye = np.eye(model.dim, dtype=complex)
    for gen in reachable_generators(model, ONEWAY):
        idx, _ = gen.launch_runs
        for h in STEP_SIZES:
            m = gen.propagator(h)
            cols = (m.toarray() if sp.issparse(m) else m)[:, idx]
            assert np.ascontiguousarray(cols).tobytes() == np.ascontiguousarray(eye[:, idx]).tobytes()
    psi = reverse_initial_state(model)
    gen = assemble_generator(model, R3, ONEWAY)
    for h in STEP_SIZES:
        assert step(psi, gen, h).tobytes() == psi.tobytes()


@pytest.mark.parametrize("mode,name", [
    *((mode, name) for mode in (ONEWAY, HERMITIAN) for name in sorted(BUILDERS)),
    (ONEWAY, "star301")])
def test_propagator_step_matches_staged_rk4(mode, name):
    model = build(name)
    rng = np.random.default_rng(5)
    for gen in reachable_generators(model, mode):
        for _ in range(10):
            psi = rng.normal(size=model.dim) + 1j * rng.normal(size=model.dim)
            psi /= np.linalg.norm(psi)
            for h in STEP_SIZES:
                assert gen.propagator(h) is not None
                np.testing.assert_allclose(step(psi, gen, h), rk4_stages(psi, gen, h),
                                           rtol=0, atol=1e-14)


@pytest.mark.parametrize("name", sorted(BUILDERS))
@pytest.mark.parametrize("mode", [ONEWAY, HERMITIAN, COMPENSATED])
def test_table_currents_equal_per_row_currents(name, mode):
    """The table's stacked -i G psi currents, taken over blocks of rows, are
    component_currents' floats, a block of one per row. That -i G psi is
    every mode's current is test_compensated_loss_never_writes_a_launch_row."""
    model = BUILDERS[name]()
    cfg = IntegratorConfig(dt=0.01, t_max=1.005, sample_every=3)
    table, rows, _ = profile(model, R3, mode, cfg)
    per_row = np.array([component_currents(psi, table.gen).J for psi in table.states[rows]])
    np.testing.assert_array_equal(table.J[rows], per_row)


@pytest.mark.parametrize("name", sorted(BUILDERS) + ["wide_launch", "star301"])
def test_compensated_loss_never_writes_a_launch_row(name):
    """On the launch indices gen.apply(psi) holds the bytes of -i (G psi),
    for every reachable compensated generator, while the loss does write
    the source rows of the initial one: so one current formula, -i G psi
    in block_currents, serves every gap mode."""
    model = build(name)
    rng = np.random.default_rng(17)
    psi = rng.normal(size=model.dim) + 1j * rng.normal(size=model.dim)
    for k, gen in enumerate(reachable_generators(model, COMPENSATED)):
        idx, _ = gen.launch_runs
        linear = -1j * (gen.op @ psi)
        assert gen.apply(psi)[idx].tobytes() == linear[idx].tobytes()
        if k == 0:
            assert not np.array_equal(gen.apply(psi), linear)


@pytest.mark.parametrize("name", sorted(BUILDERS) + ["wide_launch", "star301"])
def test_row_routines_round_as_per_row_products(name):
    """row_products holds, per row, the bytes of op @ row for G and its M_h,
    dense and CSR, as a C-contiguous array; row_dots holds those of np.vdot
    per row."""
    model = build(name)
    rng = np.random.default_rng(23)
    block = rng.normal(size=(5, model.dim)) + 1j * rng.normal(size=(5, model.dim))
    gen = assemble_generator(model, R3, HERMITIAN)
    for op in [op for op in (gen.op, gen.propagator(0.01)) if op is not None]:
        got = row_products(op, block)
        assert got.flags.c_contiguous
        for row, psi in zip(got, block):
            assert row.tobytes() == (op @ psi).tobytes()
    dots = row_dots(block, got)
    for j in range(len(block)):
        assert dots[j] == np.vdot(block[j], got[j])


def test_dense_and_matrix_are_views_of_the_held_operator():
    """The benchmark's trace hooks read G through ``dense`` (None where G
    is CSR) and ``matrix`` (CSR in either form)."""
    for model in (three_mode(), star_model(300)):
        gen = assemble_generator(model, R3, HERMITIAN)
        assert (gen.dense is gen.op) == (model.dim <= DENSE_DIM_LIMIT)
        assert (gen.dense is None) == sp.issparse(gen.op)
        assert sp.issparse(gen.matrix)
        assert np.array_equal(gen.matrix.toarray(), held(gen.op))


def reference_step(psi, gen, h):
    """One step as the row-by-row loop took it: M_h @ psi where gen has an
    M_h, the four stages otherwise."""
    m = gen.propagator(h)
    return m @ psi if m is not None else rk4_stages(psi, gen, h)


@pytest.mark.parametrize("length", [1, 77, FILL_BLOCK])
@pytest.mark.parametrize("name,mode", [
    *((name, mode) for name in sorted(BUILDERS) for mode in GapSemantics),
    # Held dense at DENSE_DIM_LIMIT, so on the M_h path; its compensated
    # steps would loop over 255 gaps per stage and stay off the M_h path.
    ("star256", ONEWAY), ("star256", HERMITIAN),
    # Held as CSR, with a CSR M_h.
    ("star301", ONEWAY)], ids=lambda v: getattr(v, "token", v))
def test_step_block_rows_equal_a_row_by_row_loop(name, mode, length):
    """Every row of step_block holds the floats of a loop that steps the row
    before it, by the reference arithmetic and by step."""
    model = star_model(DENSE_DIM_LIMIT - 1) if name == "star256" else build(name)
    gen = assemble_generator(model, R3, mode)
    assert (gen.dense is None) == (name == "star301")
    rng = np.random.default_rng(11)
    start = rng.normal(size=model.dim) + 1j * rng.normal(size=model.dim)
    start /= np.linalg.norm(start)
    for h in (0.01, 0.005):
        out = step_block(start, gen, h, np.empty((length, model.dim), dtype=complex))
        ref, by_step = start, start
        for row in out:
            ref, by_step = reference_step(ref, gen, h), step(by_step, gen, h)
            assert row.tobytes() == ref.tobytes() == by_step.tobytes()


@pytest.mark.parametrize("name", sorted(BUILDERS))
@pytest.mark.parametrize("mode", list(GapSemantics), ids=lambda m: m.token)
def test_table_grown_to_infinity_equals_one_grown_in_fill_blocks(name, mode):
    """A table grown with E infinite (doubling blocks) holds the bytes of one
    grown FILL_BLOCK rows at a time: states, J, s, rate, H and neg, the
    shorter last step of the off-grid t_max included."""
    model = BUILDERS[name]()
    plan = StepPlan.of(IntegratorConfig(dt=0.002, t_max=2.005))
    assert plan.rem and plan.n_full > 4 * FILL_BLOCK
    gen = assemble_generator(model, R3, mode)
    doubling, fill = (EpochTable(gen, model.psi0, 0.002, plan.n_full, False, plan.rem)
                      for _ in range(2))
    doubling.sampled_rows(plan)
    fill.grow(np.finfo(float).max, plan.n_full)
    rows = [*range(plan.n_full + 1), fill.tail(plan.n_full)]
    assert doubling.n == fill.n == plan.n_full
    for column in ("states", "J", "s", "rate", "H", "neg"):
        assert getattr(doubling, column)[rows].tobytes() == getattr(fill, column)[rows].tobytes()


@pytest.mark.parametrize("mode,amplitude", [(HERMITIAN, 1e300), (COMPENSATED, 1e150)])
def test_step_block_raises_where_a_block_overflows(mode, amplitude):
    """A start that overflows partway through a block (RK4 is unstable at
    this h) raises the error step raises on the first non-finite row, from
    step_block and from a table's grow; the staged path applies G to no row
    after that one."""
    model = two_level()
    gen = assemble_generator(model, R3, mode)
    start, h = np.array([amplitude + 0j, 0.0]), 3.0
    rows = [start]
    with np.errstate(all="ignore"):
        while np.isfinite(rows[-1]).all():
            rows.append(reference_step(rows[-1], gen, h))
    bad = len(rows) - 1                 # the first non-finite row, 1-based
    assert 1 < bad < FILL_BLOCK
    with pytest.raises(NonFiniteStateError) as expected, np.errstate(all="ignore"):
        step(rows[bad - 1], gen, h)
    applied = []
    real_apply = gen.apply
    object.__setattr__(gen, "apply", lambda psi: applied.append(1) or real_apply(psi))
    with pytest.raises(NonFiniteStateError) as raised, np.errstate(all="ignore"):
        step_block(start, gen, h, np.empty((FILL_BLOCK, model.dim), dtype=complex))
    assert str(raised.value) == str(expected.value)
    if gen.propagator(h) is None:
        assert len(applied) == 4 * bad
    with pytest.raises(NonFiniteStateError) as raised, np.errstate(all="ignore"):
        table = EpochTable(gen, start, h, FILL_BLOCK, True)
        table.grow(np.inf, FILL_BLOCK)
    assert str(raised.value) == str(expected.value)
    assert table.n == 0


def test_propagator_is_lazy_bounded_and_linear_only(three_mode_model):
    assert assemble_generator(three_mode_model, R3, COMPENSATED).propagator(0.01) is None
    gen = assemble_generator(three_mode_model, R3, HERMITIAN)
    assert not gen._propagators
    m = gen.propagator(0.01)
    assert gen.propagator(0.01) is m
    for k in range(2 * PROPAGATOR_CACHE_SIZE):
        gen.propagator(0.001 * (k + 1))
    assert len(gen._propagators) == PROPAGATOR_CACHE_SIZE


# ---------------------------------------------------------------------------
# Norm bookkeeping
# ---------------------------------------------------------------------------


def test_hermitian_norm_drift_within_budget():
    cfg = IntegratorConfig(dt=0.001, t_max=6.0)
    table, rows, _ = profile(two_level(), RABI, HERMITIAN, cfg)
    drift = abs(table.s[rows[-1]] - table.s[rows[0]])
    assert drift < 1e-8 * 6.0


def test_norm_drift_budget_enforced():
    cfg = IntegratorConfig(dt=0.2, t_max=6.0, norm_drift_budget=1e-16)
    with pytest.raises(NormDriftError):
        profile(two_level(), RABI, HERMITIAN, cfg)


def test_compensated_mode_conserves_norm(three_mode_model):
    gen = assemble_generator(three_mode_model, R3, COMPENSATED)
    assert gen.conserves_norm
    cfg = IntegratorConfig(dt=0.001, t_max=2.0)
    table, rows, _ = profile(three_mode_model, R3, COMPENSATED, cfg)
    assert np.all(np.abs(table.s[rows] - 1.0) < 1e-8)


def test_compensated_mode_moves_weight_off_low_component(three_mode_model):
    """The compensation term drains the low side while the feed current is
    positive; the flow is nonlinear and quasi-periodic, so only the initial
    drain is asserted, not global monotonicity."""
    cfg = IntegratorConfig(dt=0.001, t_max=1.0)
    table, rows, _ = profile(three_mode_model, R3, COMPENSATED, cfg)
    p0 = component_moduli(table.states[rows], three_mode_model)[:, 0]
    half = len(p0) // 2
    assert np.all(np.diff(p0[:half]) < 1e-12)
    assert p0[half] < 0.5


def test_compensated_apply_holds_no_dim_by_dim_feed():
    """A gap is held by its feed entries: the first compensated apply on
    a dim-201 star, which reads its 200 included gaps, traces under 1 MiB
    (measured: 0.1 MiB; a dense dim x dim array per feed took 123.4 MiB)."""
    model = star_model(200)
    gen = assemble_generator(model, R3, COMPENSATED)
    rng = np.random.default_rng(7)
    psi = rng.normal(size=model.dim) + 1j * rng.normal(size=model.dim)
    tracemalloc.start()
    try:
        gen.apply(psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(gen.gaps) == 200
    assert peak < 2 ** 20


def test_sink_mode_grows_norm(three_mode_model):
    cfg = IntegratorConfig(dt=0.01, t_max=1.0)
    table, rows, _ = profile(three_mode_model, R3, ONEWAY, cfg)
    assert table.s[rows[-1]] > 1.5


# ---------------------------------------------------------------------------
# Currents
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(BUILDERS))
@pytest.mark.parametrize("mode", [ONEWAY, COMPENSATED, HERMITIAN])
def test_fd_current_matches_analytic(name, mode):
    model = BUILDERS[name]()
    gen = assemble_generator(model, R3, mode)
    if not gen.launch_ids:
        pytest.skip("no launch components")
    rng = np.random.default_rng(42)
    for _ in range(100):
        psi = rng.normal(size=model.dim) + 1j * rng.normal(size=model.dim)
        psi /= np.linalg.norm(psi)
        analytic = component_currents(psi, gen)
        fd = fd_current_check(psi, gen)
        scale = max(1.0, float(np.max(np.abs(analytic.J))))
        assert np.max(np.abs(analytic.J - fd.J)) / scale < 1e-6


def test_current_vector_accessors(three_mode_model):
    gen = assemble_generator(three_mode_model, R3, ONEWAY)
    psi = np.array([1.0, 0.1j, -0.1j, 0.2j])
    J = component_currents(psi, gen)
    assert set(J.as_dict()) == {1, 2, 3}
    assert J.as_dict() == {m: J[m] for m in (1, 2, 3)}


def test_three_mode_current_ratios(three_mode_model):
    """Couplings (1, 1, sqrt(2)) give currents in ratio 1:1:2 from psi0."""
    gen = assemble_generator(three_mode_model, R3, ONEWAY)
    cfg = IntegratorConfig(dt=0.01, t_max=0.5)
    table, rows, _ = profile(three_mode_model, R3, ONEWAY, cfg)
    J = component_currents(table.states[rows[-1]], gen)
    assert J[2] == pytest.approx(J[1], rel=1e-12)
    assert J[3] == pytest.approx(2.0 * J[1], rel=1e-12)


def test_gap_backflow_zero_in_sink_mode(three_mode_model):
    gen = assemble_generator(three_mode_model, R3, ONEWAY)
    rng = np.random.default_rng(3)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    flows = gap_backflow(psi, gen)
    assert set(flows) == {(0, 1), (0, 2), (0, 3)}
    for value in flows.values():
        assert value.tolist() == [0.0]


def test_gap_backflow_nonzero_in_hermitian_mode(two_level_model):
    """A single state is a block of one: 2 Im<psi|F^dagger psi> = 1 here."""
    gen = assemble_generator(two_level_model, R3, HERMITIAN)
    psi = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    flows = gap_backflow(psi, gen)
    assert flows[(0, 1)].shape == (1,)
    assert flows[(0, 1)][0] == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Sparse generators above DENSE_DIM_LIMIT
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", [ONEWAY, COMPENSATED, HERMITIAN])
def test_csr_generator_matches_dense(mode):
    model = star_model(300)
    assert validate_model(model).ok
    gen = assemble_generator(model, R3, mode)
    assert gen.dim > DENSE_DIM_LIMIT and gen.dense is None
    dense = dataclasses.replace(gen, op=gen.op.toarray())
    rng = np.random.default_rng(11)
    psi = rng.normal(size=gen.dim) + 1j * rng.normal(size=gen.dim)
    psi /= np.linalg.norm(psi)
    # A oneway star's M_h is I - iGh, kept in CSR; the hermitian star's
    # fills in and the compensated one has none, so both take the staged
    # path. The dense twin takes M_h unless compensated.
    m = gen.propagator(0.01)
    assert sp.issparse(m) if mode is ONEWAY else m is None
    assert (dense.propagator(0.01) is None) == (mode is COMPENSATED)
    for h in STEP_SIZES:
        np.testing.assert_allclose(step(psi, gen, h), step(psi, dense, h), rtol=0, atol=1e-12)
    np.testing.assert_allclose(component_currents(psi, gen).J,
                               component_currents(psi, dense).J, rtol=0, atol=1e-12)
    if mode is ONEWAY:
        launch_only = psi.copy()
        launch_only[0] = 0.0
        assert np.all(gen.apply(launch_only) == 0.0)


@pytest.mark.parametrize("mode", [HERMITIAN, COMPENSATED])
def test_csr_without_a_sparse_propagator_pays_no_sparse_product(mode, monkeypatch):
    """The hermitian star's fill bound, sum_k nnz(column k) nnz(row k),
    rejects its M_h before any sparse product; the compensated star is not
    linear. The oneway star shows that the spy sees the Horner products."""
    def spy(self, other):
        raise AssertionError("sparse product")

    gens = {m: assemble_generator(star_model(300), R3, m) for m in (mode, ONEWAY)}
    monkeypatch.setattr(sp.csr_matrix, "__matmul__", spy)
    for h in STEP_SIZES:
        assert gens[mode].propagator(h) is None
    with pytest.raises(AssertionError, match="sparse product"):
        gens[ONEWAY].propagator(0.01)


@pytest.mark.parametrize("per_row,kept", [(1, True), (3, False)])
def test_csr_propagator_is_kept_only_while_sparse(per_row, kept):
    """A CSR M_h is built with the dense Horner expression and kept only
    while its nnz stays within SPARSE_FILL_LIMIT (nnz(G) + dim). A random G
    with 3 entries a row passes the G^2 bound, but its M_h fills in."""
    gen = assemble_generator(star_model(300), R3, HERMITIAN)
    rng = np.random.default_rng(4)
    rows, cols = rng.integers(0, gen.dim, (2, per_row * gen.dim))
    g = sp.csr_matrix((rng.normal(size=len(rows)) + 0j, (rows, cols)), shape=(gen.dim, gen.dim))
    gen = dataclasses.replace(gen, op=g)
    twin = dataclasses.replace(gen, op=g.toarray())
    limit = SPARSE_FILL_LIMIT * (g.nnz + gen.dim)
    assert np.bincount(g.indices, minlength=gen.dim) @ np.diff(g.indptr) <= limit
    m = gen.propagator(0.01)
    assert (m is not None) == kept
    if kept:
        assert m.nnz <= limit
        np.testing.assert_allclose(m.toarray(), twin.propagator(0.01), rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

unit_amplitudes = st.lists(
    st.complex_numbers(min_magnitude=0.0, max_magnitude=1.0,
                       allow_nan=False, allow_infinity=False),
    min_size=4, max_size=4,
).filter(lambda xs: sum(abs(x) ** 2 for x in xs) > 1e-6)


@given(psi=unit_amplitudes)
@settings(max_examples=40, deadline=None)
def test_hermitian_currents_balance_backflow(psi):
    """Norm conservation: sum of launch currents = -d/dt |psi_low|^2."""
    model = three_mode()
    gen = assemble_generator(model, R3, HERMITIAN)
    vec = np.array(psi, dtype=complex)
    vec /= np.linalg.norm(vec)
    J = component_currents(vec, gen)
    dpsi = gen.apply(vec)
    low_rate = 2.0 * np.vdot(vec[model.indices_of(0)], dpsi[model.indices_of(0)]).real
    assert float(np.sum(J.J)) == pytest.approx(-low_rate, abs=1e-10)


@given(psi=unit_amplitudes, dt=st.floats(1e-4, 0.05))
@settings(max_examples=40, deadline=None)
def test_hermitian_step_preserves_norm(psi, dt):
    model = three_mode()
    gen = assemble_generator(model, R3, HERMITIAN)
    vec = np.array(psi, dtype=complex)
    vec /= np.linalg.norm(vec)
    out = step(vec, gen, dt)
    assert np.vdot(out, out).real == pytest.approx(1.0, abs=1e-7)
