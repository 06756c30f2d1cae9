"""Time's-arrow experiments: forward flow, reverse impossibility, and the
rule-suspension counterfactual.

Each experiment pairs a deterministic (never-collapsing) current profile with
one sampled trajectory. The forward run shows current crossing the gap from
low to high entropy and hits firing. The reverse run starts from a state
placed entirely in the launch sector; with the rules active and sink
semantics, the generator maps that state to exactly zero, so backflow, state
drift and hit count are all zero bit-exactly, not merely small. The gap
mode, not the freeze rule, makes that so: on every shipped fixture a
hermitian reverse start flows back with nothing suspended, a oneway one stays
blocked with the freeze suspended, and suspending the freeze in hermitian
mode moves the peak backflow on chain_three_level alone. The counterfactual
pair of reports switches the gap mode and the suspension together.

The sampled trajectory is a lookup: its hits are draws against the epoch
tables of the deterministic no-hit evolution, which do not depend on the seed.
Each process therefore keeps one EpochRunner per (model with its start state,
rule set, gap mode, config), which owns the generators and the full epoch
tables, so a seed loop integrates each path once. The profile reads the
sampled rows of the same runner's epoch-0 table, grown to its end, so a cold
experiment steps once per table row as well; its peak backflow is one
gap_backflow call over all those rows, one row_dots over each gap's feed
entries, with no loop over rows. One cache holds each experiment's runner
with its profile's extrema, so an experiment makes one lookup; it keeps the
RUN_CACHE_SIZE most recent, and a table holds 16 dim + 8 (launch
components) + 32 bytes per step, twice that when t_max is off the dt grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dynamics import GapSemantics, IntegratorConfig, gap_backflow
from .engine import EpochRunner, run_trajectory
from .errors import GapflowError
from .model import LAUNCH, ScenarioModel
from .rules import FREEZE_RULES, RuleSet, ruleset_for_rule

# Runners kept per process, with their profiles' extrema
# (_profile_extrema_cached): the seed loops over the arrow fixtures
# (criterion 1, the arrow command's four experiments) cycle through at most
# a dozen (model, start, rules, mode, config) combinations.
RUN_CACHE_SIZE = 16

FORWARD = "forward"
REVERSE = "reverse"
BLOCKED = "blocked"
FLOWED = "flowed"


@dataclass(frozen=True)
class ArrowReport:
    direction: str
    verdict: str
    max_backflow: float           # peak signed flow high->low over all samples
    total_hits: int
    max_forward_current: float
    min_forward_current: float
    max_state_delta: float        # sup-norm drift from psi(0); reverse runs only
    rules: str
    suspended: tuple[str, ...]
    gap_mode: str
    seed: int

    def to_dict(self) -> dict:
        return {
            "direction": self.direction,
            "verdict": self.verdict,
            "max_backflow": self.max_backflow,
            "total_hits": self.total_hits,
            "max_forward_current": self.max_forward_current,
            "min_forward_current": self.min_forward_current,
            "max_state_delta": self.max_state_delta,
            "rule_config": {"rules": self.rules, "suspended": list(self.suspended),
                            "gap_mode": self.gap_mode},
            "seed": self.seed,
        }


def reverse_initial_state(model: ScenarioModel) -> np.ndarray:
    """Uniform superposition over every launch component's basis indices."""
    launch = [c for c in model.components if c.status == LAUNCH]
    if not launch:
        raise GapflowError("model has no launch component to reverse-initialize")
    idx = np.concatenate([model.indices_of(c.id) for c in launch])
    psi = np.zeros(model.dim, dtype=np.complex128)
    psi[idx] = 1.0 / np.sqrt(len(idx))
    return psi


def _resolve(model, ruleset, gap_mode, seed):
    if ruleset is None:
        ruleset = RuleSet(model.defaults.rules)
    if gap_mode is None:
        gap_mode = GapSemantics.from_token(model.defaults.gap_mode)
    if seed is None:
        seed = model.defaults.seed
    return ruleset, gap_mode, seed


@lru_cache(maxsize=RUN_CACHE_SIZE)
def _profile_extrema_cached(model, ruleset, gap_mode, cfg):
    """The runner of every seed of one experiment, then the peak backflow,
    forward-current range and state drift over its no-hit profile
    (EpochRunner.profile), the epoch-0 table its trajectories draw against,
    read over all its rows at once. Seed-independent, so seed loops hit the
    cache; the model's equality covers its start state psi0.
    """
    runner = EpochRunner(model, ruleset, cfg, gap_mode)
    table, rows, _ = runner.profile()
    states, currents = table.states[rows], table.J[rows]
    flows = gap_backflow(states, table.gen).values()
    max_back = max([0.0, *(float(f.max()) for f in flows)])
    fwd = (float(currents.max()), float(currents.min())) if currents.size else (0.0, 0.0)
    return runner, max_back, *fwd, float(np.abs(states - states[0]).max())


def _experiment(direction, model, cfg, ruleset, gap_mode, seed) -> ArrowReport:
    """Profile of ``model``'s no-hit evolution plus one trajectory's hits."""
    runner, max_back, max_fwd, min_fwd, delta = _profile_extrema_cached(
        model, ruleset, gap_mode, cfg)
    rec = run_trajectory(model, ruleset, cfg, gap_mode, seed, record_samples=False,
                         runner=runner)
    hits = len(rec.events)
    if direction == FORWARD:
        verdict, delta = (FLOWED if max_fwd > 0.0 else BLOCKED), 0.0
    else:
        verdict = BLOCKED if (max_back == 0.0 and hits == 0) else FLOWED
    return ArrowReport(direction=direction, verdict=verdict, max_backflow=max_back,
                       total_hits=hits, max_forward_current=max_fwd,
                       min_forward_current=min_fwd, max_state_delta=delta,
                       rules=ruleset.variant, suspended=tuple(sorted(ruleset.suspended)),
                       gap_mode=gap_mode.token, seed=seed)


def forward_experiment(model: ScenarioModel, cfg: IntegratorConfig, *,
                       ruleset: RuleSet | None = None,
                       gap_mode: GapSemantics | None = None,
                       seed: int | None = None) -> ArrowReport:
    """Current flows with the entropy gradient; verdict is flowed iff any
    forward current is positive somewhere in the deterministic profile."""
    return _experiment(FORWARD, model, cfg, *_resolve(model, ruleset, gap_mode, seed))


def reverse_experiment(model: ScenarioModel, cfg: IntegratorConfig, *,
                       ruleset: RuleSet | None = None,
                       gap_mode: GapSemantics | None = None,
                       seed: int | None = None) -> ArrowReport:
    """Start entirely inside the launch sector and try to flow back."""
    reversed_model = ScenarioModel(dim=model.dim, components=model.components,
                                   hamiltonian=model.hamiltonian,
                                   psi0=reverse_initial_state(model), defaults=model.defaults)
    return _experiment(REVERSE, reversed_model, cfg, *_resolve(model, ruleset, gap_mode, seed))


def suspension_counterfactual(model: ScenarioModel, cfg: IntegratorConfig,
                              rule: str, *,
                              seed: int | None = None) -> tuple[ArrowReport, ArrowReport]:
    """Reverse experiments with a freeze rule suspended and restored.

    The suspended arm runs reverse-initialized under hermitian_truncated with
    ``rule`` suspended; the restored arm is a plain reverse experiment under
    sink semantics. Expected verdicts: (flowed, blocked), which the gap mode
    alone decides (module docstring).
    """
    if rule not in FREEZE_RULES:
        raise GapflowError(
            f"unknown or non-freeze rule {rule!r}; counterfactuals take "
            + " or ".join(sorted(FREEZE_RULES)))
    variant = ruleset_for_rule(rule)
    suspended_report = reverse_experiment(
        model, cfg, ruleset=RuleSet(variant, frozenset({rule})),
        gap_mode=GapSemantics.HERMITIAN_TRUNCATED, seed=seed)
    restored_report = reverse_experiment(
        model, cfg, ruleset=RuleSet(variant),
        gap_mode=GapSemantics.ONE_WAY_FEED, seed=seed)
    return suspended_report, restored_report
