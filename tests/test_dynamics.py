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
    evolve,
    fd_current_check,
    gap_backflow,
    step,
    step_block,
)
from gapflow.engine import post_collapse_statuses
from gapflow.errors import GapflowError, NonFiniteStateError, NormDriftError
from gapflow.fixtures import BUILDERS, three_mode, two_level
from gapflow.model import ACTIVE, LAUNCH, MAX_STEPS, REALIZED, ZEROED, validate_model
from gapflow.rules import NRULES3, NRULES4, RuleSet

from conftest import star_model

R3 = RuleSet(NRULES3)
R4 = RuleSet(NRULES4)

ONEWAY = GapSemantics.ONE_WAY_FEED
COMPENSATED = GapSemantics.NORM_COMPENSATED
HERMITIAN = GapSemantics.HERMITIAN_TRUNCATED


def rabi_generator(model=None):
    """Two-level hermitian generator with the freeze rule suspended."""
    model = model or two_level()
    rules = R3.with_suspended(["n3_1"])
    return model, assemble_generator(model, rules, HERMITIAN)


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
    h = gen.matrix.toarray()
    idx = detuned_model.indices_of(1)[0]
    assert h[idx, idx] == 0.0


def test_suspended_hermitian_equals_full_hamiltonian(detuned_model):
    """Suspending the freeze rule restores H0 + H01 entrywise."""
    rules = R3.with_suspended(["n3_1"])
    gen = assemble_generator(detuned_model, rules, HERMITIAN)
    full = detuned_model.full_hamiltonian().toarray()
    assert np.array_equal(gen.matrix.toarray(), full)


def test_suspension_argument_equivalent_to_ruleset(detuned_model):
    via_arg = assemble_generator(detuned_model, R3, HERMITIAN, suspended=["n3_1"])
    via_rules = assemble_generator(detuned_model, R3.with_suspended(["n3_1"]), HERMITIAN)
    assert np.array_equal(via_arg.matrix.toarray(), via_rules.matrix.toarray())


def test_nrules4_freeze_suspension_token(detuned_model):
    rules = R4.with_suspended(["n4_4"])
    gen = assemble_generator(detuned_model, rules, HERMITIAN)
    full = detuned_model.full_hamiltonian().toarray()
    assert np.array_equal(gen.matrix.toarray(), full)


def test_zeroed_component_is_excluded(three_mode_model):
    statuses = {0: ACTIVE, 1: LAUNCH, 2: ZEROED, 3: LAUNCH}
    gen = assemble_generator(three_mode_model, R3, ONEWAY, statuses=statuses, epoch=1)
    h = gen.matrix.toarray()
    idx = three_mode_model.indices_of(2)[0]
    assert np.all(h[idx, :] == 0.0)
    assert np.all(h[:, idx] == 0.0)
    assert 2 not in gen.launch_ids


def test_realized_component_keeps_own_block(detuned_model):
    statuses = {0: REALIZED, 1: ZEROED}
    gen = assemble_generator(detuned_model, R3, ONEWAY, statuses=statuses, epoch=1)
    h = gen.matrix.toarray()
    assert h[0, 0] == pytest.approx(1.5)
    assert np.count_nonzero(h) == 1


def test_hermitian_generator_is_hermitian(three_mode_model):
    gen = assemble_generator(three_mode_model, R3, HERMITIAN)
    h = gen.matrix.toarray()
    assert np.allclose(h, h.conj().T, atol=1e-15)
    assert gen.conserves_norm


def test_backflow_blocks_present_only_in_hermitian(three_mode_model):
    sink = assemble_generator(three_mode_model, R3, ONEWAY)
    herm = assemble_generator(three_mode_model, R3, HERMITIAN)
    assert all(block is None for block in sink.backflows.values())
    assert all(block is not None for block in herm.backflows.values())


def test_provenance_records_assembly_inputs(three_mode_model):
    rules = R4.with_suspended(["n4_4"])
    gen = assemble_generator(three_mode_model, rules, HERMITIAN, epoch=2)
    prov = gen.provenance
    assert prov.rules == "nrules4"
    assert prov.gap_mode == HERMITIAN.token
    assert prov.epoch == 2
    assert "n4_4" in prov.suspended


# ---------------------------------------------------------------------------
# Closed-form evolution
# ---------------------------------------------------------------------------


def test_one_way_two_level_matches_closed_form(two_level_model):
    gen = assemble_generator(two_level_model, R3, ONEWAY)
    cfg = IntegratorConfig(dt=0.01, t_max=2.0)
    seg = evolve(two_level_model.psi0, gen, 0.0, 2.0, cfg)
    times = seg.times
    s = seg.s
    assert np.allclose(s, 1.0 + times**2, atol=1e-12)
    J1 = seg.current_column(1)
    assert np.allclose(J1, 2.0 * times, atol=1e-12)
    assert seg.final_state[1] == pytest.approx(-2.0j, abs=1e-12)


def test_rabi_closed_form():
    model, gen = rabi_generator()
    cfg = IntegratorConfig(dt=0.001, t_max=3.0)
    seg = evolve(model.psi0, gen, 0.0, 3.0, cfg)
    p1 = seg.component_moduli(model)[1]
    assert np.allclose(p1, np.sin(seg.times) ** 2, atol=1e-9)
    assert np.allclose(seg.current_column(1), np.sin(2.0 * seg.times), atol=1e-9)


def test_rabi_current_goes_negative():
    """At psi = (1, i)/sqrt(2) the analytic current is exactly -1."""
    model, gen = rabi_generator()
    psi = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    J = component_currents(psi, gen)
    assert J[1] == pytest.approx(-1.0, abs=1e-12)


def test_rk4_convergence_order():
    """Halving dt must shrink the Rabi endpoint error by at least 8x."""
    model, gen = rabi_generator()
    t_end = 1.0
    exact = np.array([np.cos(t_end), -1.0j * np.sin(t_end)])
    errors = []
    for dt in (0.05, 0.025):
        cfg = IntegratorConfig(dt=dt, t_max=t_end)
        seg = evolve(model.psi0, gen, 0.0, t_end, cfg)
        errors.append(np.max(np.abs(seg.final_state - exact)))
    assert errors[0] / errors[1] >= 8.0


def test_rk4_step_matches_expm_oracle():
    """Single RK4 step against the scipy matrix exponential."""
    import scipy.linalg

    model, gen = rabi_generator()
    rng = np.random.default_rng(7)
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    dt = 0.001
    u = scipy.linalg.expm(-1j * gen.matrix.toarray() * dt)
    expected = u @ psi
    got = step(psi, gen, dt)
    assert np.allclose(got, expected, atol=1e-14)


def test_evolve_handles_partial_final_step(two_level_model):
    gen = assemble_generator(two_level_model, R3, ONEWAY)
    cfg = IntegratorConfig(dt=0.01, t_max=0.505)
    seg = evolve(two_level_model.psi0, gen, 0.0, 0.505, cfg)
    assert seg.final_time == pytest.approx(0.505, abs=1e-12)
    assert seg.s[-1] == pytest.approx(1.0 + 0.505**2, abs=1e-12)


def test_evolve_zero_span_returns_single_sample(two_level_model):
    gen = assemble_generator(two_level_model, R3, ONEWAY)
    cfg = IntegratorConfig(dt=0.01, t_max=1.0)
    seg = evolve(two_level_model.psi0, gen, 0.5, 0.5, cfg)
    assert len(seg.times) == 1
    assert seg.final_time == 0.5


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
    """A fixture by name, or the dim-301 star, held as CSR."""
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
@pytest.mark.parametrize("mode", [ONEWAY, HERMITIAN])
def test_evolve_currents_equal_per_row_currents(name, mode):
    model = BUILDERS[name]()
    gen = assemble_generator(model, R3, mode)
    seg = evolve(model.psi0, gen, 0.0, 1.005, IntegratorConfig(dt=0.01, sample_every=3))
    per_row = np.array([component_currents(psi, gen).J for psi in seg.states])
    np.testing.assert_array_equal(seg.currents, per_row)


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
    model, gen = rabi_generator()
    cfg = IntegratorConfig(dt=0.001, t_max=6.0)
    seg = evolve(model.psi0, gen, 0.0, 6.0, cfg)
    drift = abs(seg.s[-1] - seg.s[0])
    assert drift < 1e-8 * 6.0


def test_norm_drift_budget_enforced():
    model, gen = rabi_generator()
    cfg = IntegratorConfig(dt=0.2, t_max=6.0, norm_drift_budget=1e-16)
    with pytest.raises(NormDriftError):
        evolve(model.psi0, gen, 0.0, 6.0, cfg)


def test_compensated_mode_conserves_norm(three_mode_model):
    gen = assemble_generator(three_mode_model, R3, COMPENSATED)
    assert gen.conserves_norm
    cfg = IntegratorConfig(dt=0.001, t_max=2.0)
    seg = evolve(three_mode_model.psi0, gen, 0.0, 2.0, cfg)
    assert np.all(np.abs(seg.s - 1.0) < 1e-8)


def test_compensated_mode_moves_weight_off_low_component(three_mode_model):
    """The compensation term drains the low side while the feed current is
    positive; the flow is nonlinear and quasi-periodic, so only the initial
    drain is asserted, not global monotonicity."""
    gen = assemble_generator(three_mode_model, R3, COMPENSATED)
    cfg = IntegratorConfig(dt=0.001, t_max=1.0)
    seg = evolve(three_mode_model.psi0, gen, 0.0, 1.0, cfg)
    p0 = seg.component_moduli(three_mode_model)[0]
    half = len(p0) // 2
    assert np.all(np.diff(p0[:half]) < 1e-12)
    assert p0[half] < 0.5


def test_sink_mode_grows_norm(three_mode_model):
    gen = assemble_generator(three_mode_model, R3, ONEWAY)
    cfg = IntegratorConfig(dt=0.01, t_max=1.0)
    seg = evolve(three_mode_model.psi0, gen, 0.0, 1.0, cfg)
    assert seg.s[-1] > 1.5


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
    assert J.total_positive() == pytest.approx(sum(max(v, 0.0) for v in J.as_dict().values()))


def test_three_mode_current_ratios(three_mode_model):
    """Couplings (1, 1, sqrt(2)) give currents in ratio 1:1:2 from psi0."""
    gen = assemble_generator(three_mode_model, R3, ONEWAY)
    cfg = IntegratorConfig(dt=0.01, t_max=0.5)
    seg = evolve(three_mode_model.psi0, gen, 0.0, 0.5, cfg)
    J = component_currents(seg.final_state, gen)
    assert J[2] == pytest.approx(J[1], rel=1e-12)
    assert J[3] == pytest.approx(2.0 * J[1], rel=1e-12)


def test_gap_backflow_zero_in_sink_mode(three_mode_model):
    gen = assemble_generator(three_mode_model, R3, ONEWAY)
    rng = np.random.default_rng(3)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    flows = gap_backflow(psi, gen)
    assert set(flows) == {(0, 1), (0, 2), (0, 3)}
    for value in flows.values():
        assert value == 0.0


def test_gap_backflow_nonzero_in_hermitian_mode(two_level_model):
    gen = assemble_generator(two_level_model, R3, HERMITIAN)
    psi = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    flows = gap_backflow(psi, gen)
    assert flows[(0, 1)] == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Sparse generators above DENSE_DIM_LIMIT
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", [ONEWAY, COMPENSATED, HERMITIAN])
def test_csr_generator_matches_dense(mode):
    model = star_model(300)
    assert validate_model(model).ok
    gen = assemble_generator(model, R3, mode)
    assert gen.dim > DENSE_DIM_LIMIT and gen.dense is None
    dense = dataclasses.replace(gen, dense=gen.matrix.toarray())
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
    gen = dataclasses.replace(gen, matrix=g)
    twin = dataclasses.replace(gen, dense=g.toarray())
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
