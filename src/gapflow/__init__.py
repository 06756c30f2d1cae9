"""Stochastic collapse dynamics on finite models with entropy-ordered gaps."""

from .version import __version__
from .errors import (CollapseOnEmptyError, DegenerateStateError, GapflowError,
                     NoChoiceError, NonFiniteStateError, NormDriftError,
                     ProvenanceError, ScenarioParseError, ScenarioValidationError,
                     UnknownComponentError)
from .rules import NRULES3, NRULES4, RULE_IDS, RuleSet, ruleset_for_rule
from .model import (ACTIVE, LAUNCH, REALIZED, ZEROED, Component, Gap, GapSemantics,
                    HamiltonianPartition, OperatorBlock, RunDefaults,
                    ScenarioModel, ValidationReport, Violation,
                    load_scenario, load_scenario_file, parse_scenario,
                    serialize_scenario, square_modulus, validate_model)
from .dynamics import (CurrentVector, EffectiveGenerator, IntegratorConfig,
                       assemble_generator, component_currents, gap_backflow, step)
from .engine import (PRESERVE_TOTAL, RAW, CollapseEvent, TrajectoryRecord,
                     TrajectorySamples, run_trajectory, trajectory_rng)
from .ensemble import (ComparisonReport, EnsembleStats, OracleResult, compare,
                       deterministic_oracle, run_ensemble)
from .arrow import (ArrowReport, forward_experiment, reverse_experiment,
                    reverse_initial_state, suspension_counterfactual)

# The library API that README's "Public names" lists.
__all__ = [
    # errors
    "CollapseOnEmptyError", "DegenerateStateError", "GapflowError", "NoChoiceError",
    "NonFiniteStateError", "NormDriftError", "ProvenanceError", "ScenarioParseError",
    "ScenarioValidationError", "UnknownComponentError",
    # rules
    "NRULES3", "NRULES4", "RULE_IDS", "RuleSet", "ruleset_for_rule",
    # model
    "ACTIVE", "LAUNCH", "REALIZED", "ZEROED", "Component", "Gap", "GapSemantics",
    "HamiltonianPartition", "OperatorBlock", "RunDefaults", "ScenarioModel",
    "ValidationReport", "Violation", "load_scenario", "load_scenario_file",
    "parse_scenario", "serialize_scenario", "square_modulus", "validate_model",
    # dynamics
    "CurrentVector", "EffectiveGenerator", "IntegratorConfig", "assemble_generator",
    "component_currents", "gap_backflow", "step",
    # engine
    "PRESERVE_TOTAL", "RAW", "CollapseEvent", "TrajectoryRecord", "TrajectorySamples",
    "run_trajectory", "trajectory_rng",
    # ensemble
    "ComparisonReport", "EnsembleStats", "OracleResult", "compare", "deterministic_oracle",
    "run_ensemble",
    # arrow
    "ArrowReport", "forward_experiment", "reverse_experiment", "reverse_initial_state",
    "suspension_counterfactual",
]
