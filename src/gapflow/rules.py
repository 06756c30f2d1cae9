"""Rule-set variants and rule identifiers.

Two variants are supported and are behaviorally identical:

* ``nrules3``: three-rule form. Rule ``n3_1`` freezes the high-entropy
  (launch) side of an irreversible gap: it is not driven by its own
  Hamiltonian and cannot source current. ``n3_2`` is the stochastic
  trigger, ``n3_3`` the collapse. Only the freeze and trigger rules can be
  suspended: the collapse always follows a hit.
* ``nrules4``: four-rule form. The frozen high-entropy components are
  called "ready" instead of "launch", and the freeze is carried by rule
  ``n4_4``. Only that rule is individually addressable here.

Suspending the freeze rule (``n3_1`` or ``n4_4``) restores the launch
components' own Hamiltonian blocks and makes their gaps behave like
ordinary couplings, which is what the counterfactual experiments in
:mod:`gapflow.arrow` rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

NRULES3 = "nrules3"
NRULES4 = "nrules4"

RULE_IDS = {
    NRULES3: frozenset({"n3_1", "n3_2", "n3_3"}),
    NRULES4: frozenset({"n4_4"}),
}

# Rules whose suspension unfreezes launch/ready components.
FREEZE_RULES = frozenset({"n3_1", "n4_4"})

# Rules whose suspension disables the stochastic trigger.
TRIGGER_RULES = frozenset({"n3_2"})


@dataclass(frozen=True)
class RuleSet:
    """A rule-set variant plus the set of currently suspended rules."""

    variant: str = NRULES3
    suspended: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.variant not in RULE_IDS:
            raise ValueError(f"unknown rule-set variant {self.variant!r}")
        object.__setattr__(self, "suspended", frozenset(self.suspended))
        stray = self.suspended - RULE_IDS[self.variant]
        if stray:
            raise ValueError(
                f"suspended rules {sorted(stray)} do not belong to variant {self.variant!r}"
            )
        fixed = self.suspended - FREEZE_RULES - TRIGGER_RULES
        if fixed:
            raise ValueError(f"rules {sorted(fixed)} cannot be suspended; only "
                             f"{sorted(FREEZE_RULES | TRIGGER_RULES)} can")

    @property
    def freeze_suspended(self) -> bool:
        return bool(self.suspended & FREEZE_RULES)

    @property
    def trigger_suspended(self) -> bool:
        return bool(self.suspended & TRIGGER_RULES)


def ruleset_for_rule(rule: str) -> str:
    """Variant a rule identifier belongs to."""
    for variant, ids in RULE_IDS.items():
        if rule in ids:
            return variant
    raise ValueError(f"unknown rule identifier {rule!r}")
