"""Scenario models: basis components, gaps, partitioned Hamiltonian, initial state.

A scenario is a finite closed quantum system whose global basis (dimension
``dim``) is partitioned into disjoint *components*. Each component carries an
integer ``entropy_rank`` declared by the scenario author. A *gap* couples a
low-entropy component to a strictly higher-entropy one through an interaction
block; the dynamics modules decide how that block enters the generator.

Scenario documents are JSON (schema ``scenario/1``, see ``docs/schema.md``):

    {
      "schema": "scenario/1",
      "dim": 2,
      "components": [{"id": 0, "indices": [0], "entropy_rank": 0, "status": "active"}, ...],
      "gaps": [{"low": 0, "high": 1, "irreversible": true,
                "entries": [[1, 0, 1.0, 0.0]]}],
      "own": [{"component": 0, "entries": [[0, 0, 0.5, 0.0]]}],
      "psi0": [[1.0, 0.0], [0.0, 0.0]],
      "defaults": {"dt": 0.01, "t_max": 6.0, "rules": "nrules3",
                   "gap_mode": "oneway", "seed": 1}
    }

All complex values are stored as ``[row, col, re, im]`` quads (operators) or
``[re, im]`` pairs (amplitudes); serialization round-trips every float
bit-exactly.
"""

from __future__ import annotations

import cmath
import enum
import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Mapping

import numpy as np

from .errors import (GapflowError, ScenarioParseError, ScenarioValidationError,
                     UnknownComponentError)
from .rules import RULE_IDS

SCENARIO_SCHEMA = "scenario/1"

# Component statuses. "ready" is accepted in documents as a synonym for
# "launch" (the four-rule variant's label); it is canonicalized on load.
ACTIVE = "active"
LAUNCH = "launch"
REALIZED = "realized"
ZEROED = "zeroed"
STATUSES = (ACTIVE, LAUNCH, REALIZED, ZEROED)

# Most steps of dt in one integration grid. The step plan (a run's time grid,
# 9 bytes per step) and every epoch table (the no-hit profile is one too) grow
# by one entry per step, together under 0.4 kB per step for a dim-2 scenario, so
# this bound keeps one grid under half a gigabyte while leaving room for runs
# 1000 times longer than the fixtures' 600 steps.
MAX_STEPS = 10**6


class GapSemantics(enum.Enum):
    """Operator form of one-way flow across a gap."""

    ONE_WAY_FEED = "one_way_feed"
    NORM_COMPENSATED = "norm_compensated"
    HERMITIAN_TRUNCATED = "hermitian_truncated"

    @classmethod
    def from_token(cls, token: str) -> "GapSemantics":
        """The mode named by its short token or by its enum value."""
        for mode, short in _GAP_TOKENS.items():
            if token in (short, mode.value):
                return mode
        raise GapflowError(f"unknown gap mode {token!r}")

    @property
    def token(self) -> str:
        """Short name used by scenario documents, the CLI and manifests."""
        return _GAP_TOKENS[self]


_GAP_TOKENS = {GapSemantics.ONE_WAY_FEED: "oneway",
               GapSemantics.NORM_COMPENSATED: "compensated",
               GapSemantics.HERMITIAN_TRUNCATED: "hermitian"}
GAP_MODES = tuple(_GAP_TOKENS.values())

HERMITICITY_TOL = 1e-12

# Most uncovered basis indices a coverage violation lists by value.
MAX_LISTED = 20


def square_modulus(psi: np.ndarray) -> float:
    """Total square modulus s = <psi|psi>."""
    return float(np.vdot(psi, psi).real)


@dataclass(frozen=True)
class Component:
    id: int
    basis_indices: tuple[int, ...]
    entropy_rank: int
    status: str = ACTIVE


@dataclass(frozen=True)
class OperatorBlock:
    """Sparse complex operator entries in global basis coordinates, hbar = 1."""

    dim: int
    entries: tuple[tuple[int, int, complex], ...]


@dataclass(frozen=True)
class Gap:
    """Irreversible coupling from a low-entropy component into a higher one.

    ``interaction`` holds the canonical *feed* direction only: entries whose
    row lies in the high component and whose column lies in the low one. The
    full Hermitian gap block is feed + feed-adjoint.
    """

    low: int
    high: int
    irreversible: bool
    interaction: OperatorBlock


@dataclass(frozen=True)
class HamiltonianPartition:
    own: Mapping[int, OperatorBlock]
    interactions: tuple[Gap, ...]


@dataclass(frozen=True)
class RunDefaults:
    dt: float = 0.01
    t_max: float = 6.0
    rules: str = "nrules3"
    gap_mode: str = GapSemantics.ONE_WAY_FEED.token
    seed: int = 1
    sample_every: int = 1


@dataclass(frozen=True, eq=False)
class ScenarioModel:
    """Immutable scenario: shareable across concurrent trajectory workers."""

    dim: int
    components: tuple[Component, ...]
    hamiltonian: HamiltonianPartition
    psi0: np.ndarray
    defaults: RunDefaults = field(default_factory=RunDefaults)

    def __post_init__(self):
        psi0 = np.asarray(self.psi0, dtype=np.complex128)
        psi0.setflags(write=False)
        object.__setattr__(self, "psi0", psi0)

    def __eq__(self, other):
        if not isinstance(other, ScenarioModel):
            return NotImplemented
        return (self.dim == other.dim
                and self.components == other.components
                and self.hamiltonian == other.hamiltonian
                and self.defaults == other.defaults
                and np.array_equal(self.psi0, other.psi0))

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # Computed once: cache lookups hash the model on every run. The
        # interaction tuple plus the component list is plenty to discriminate
        # (hamiltonian.own is a dict; collisions fall back to __eq__).
        return hash((self.dim, self.components, self.hamiltonian.interactions,
                     self.defaults))

    @property
    def gaps(self) -> tuple[Gap, ...]:
        return self.hamiltonian.interactions

    @cached_property
    def _by_id(self) -> dict[int, Component]:
        return {c.id: c for c in self.components}

    def component(self, comp_id: int) -> Component:
        try:
            return self._by_id[comp_id]
        except KeyError:
            raise UnknownComponentError(f"no component with id {comp_id}") from None

    @cached_property
    def index_arrays(self) -> dict[int, np.ndarray]:
        """Each component's basis indices: read-only rows of _by_size."""
        rows = [None] * len(self.components)
        for pos, indices in self._by_size:
            for k, row in zip(pos.tolist(), indices):
                rows[k] = row
        return {c.id: row for c, row in zip(self.components, rows)}

    @cached_property
    def _by_size(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per distinct component size s: the positions in ``components`` of
        the components of that size, and their basis indices as the rows of
        a read-only array of s columns."""
        by_size: dict[int, list[int]] = {}
        for k, c in enumerate(self.components):
            by_size.setdefault(len(c.basis_indices), []).append(k)
        plan = []
        for size, pos in by_size.items():
            indices = np.array([i for k in pos for i in self.components[k].basis_indices],
                               dtype=np.intp).reshape(len(pos), size)
            indices.setflags(write=False)
            plan.append((np.array(pos, dtype=np.intp), indices))
        return tuple(plan)

    @cached_property
    def gap_feeds(self) -> tuple[np.ndarray, ...]:
        """Every gap's feed entries as arrays, derived once from ``gaps`` of a
        valid model: (rows, cols, vals, gap) per entry, in gap and entry
        order, then (low, high), each gap's component positions in
        ``components``."""
        gaps = self.gaps
        position = {c.id: k for k, c in enumerate(self.components)}
        entries = [e for g in gaps for e in g.interaction.entries]
        rows, cols, vals = zip(*entries) if entries else ((), (), ())
        counts = [len(g.interaction.entries) for g in gaps]
        return (np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp),
                np.array(vals, dtype=np.complex128),
                np.repeat(np.arange(len(gaps), dtype=np.intp), counts),
                np.array([position[g.low] for g in gaps], dtype=np.intp),
                np.array([position[g.high] for g in gaps], dtype=np.intp))

    def indices_of(self, comp_id: int) -> np.ndarray:
        self.component(comp_id)
        return self.index_arrays[comp_id]

    @cached_property
    def launch_candidate_ids(self) -> tuple[int, ...]:
        """Components that can ever be on the receiving side of a hit."""
        return tuple(sorted({g.high for g in self.gaps if g.irreversible}))

    def initial_statuses(self) -> dict[int, str]:
        return {c.id: c.status for c in self.components}

    def fingerprint(self) -> str:
        """SHA-256 of the canonical document as compact JSON: equal for equal
        model content. It is never written to an artifact.

        RunProvenance compares it where ensemble statistics and the oracle
        hold two model objects, so they are compared only for the same model;
        output.scenario_hash is the file-byte hash that ``rerun`` checks.
        """
        return self._fingerprint

    @cached_property
    def _fingerprint(self) -> str:
        # Computed once: serializing a wide model costs milliseconds.
        # Compact JSON: with ``indent`` the encoder runs in pure Python.
        return hashlib.sha256(json.dumps(_scenario_document(self)).encode()).hexdigest()


def component_moduli(states: np.ndarray, model: ScenarioModel) -> np.ndarray:
    """Square modulus of each component, in model order, per row of ``states``.

    One sum over the last axis per distinct component size: each sum adds
    a component's values in the order and grouping of a sum over that
    component alone. One np.add.reduceat over all components would not:
    from three indices on it groups the terms differently.
    """
    sq = (states.conj() * states).real
    sums = [(pos, sq[:, indices].sum(axis=2)) for pos, indices in model._by_size]
    out = np.empty((len(sq), len(model.components)))
    for pos, moduli in sums:
        out[:, pos] = moduli
    return out


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    where: str = ""

    def __str__(self):
        return f"[{self.code}] {self.where}: {self.message}" if self.where else f"[{self.code}] {self.message}"


@dataclass
class ValidationReport:
    errors: list[Violation] = field(default_factory=list)
    warnings: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def error(self, code: str, message: str, where: str = ""):
        self.errors.append(Violation(code, message, where))

    def warn(self, code: str, message: str, where: str = ""):
        self.warnings.append(Violation(code, message, where))

    def render(self) -> str:
        lines = [f"ERROR {v}" for v in self.errors] + [f"WARNING {v}" for v in self.warnings]
        return "\n".join(lines) if lines else "OK"


def _check_block_entries(report, block, dim, where):
    seen = set()
    for r, c, v in block.entries:
        if not (0 <= r < dim and 0 <= c < dim):
            report.error("index-range", f"entry ({r},{c}) outside dim={dim}", where)
        if not cmath.isfinite(v):
            report.error("non-finite", f"entry ({r},{c}) is {v}", where)
        if (r, c) in seen:
            report.error("duplicate-entry", f"duplicate entry at ({r},{c})", where)
        seen.add((r, c))


def _check_hermitian(report, block, where, label):
    vals = {(r, c): v for r, c, v in block.entries}
    for (r, c), v in vals.items():
        w = vals.get((c, r), 0j)
        if abs(v - w.conjugate()) > HERMITICITY_TOL:
            report.error("not-hermitian", f"{label}: entry ({r},{c}) breaks Hermiticity", where)
            return


def _coverage_message(covered: set[int], dim: int) -> str:
    """Which of range(dim) no component covers: every such index, or their
    count and the first MAX_LISTED, found in O(len(covered)) time."""
    first = [i for i in range(min(dim, len(covered) + MAX_LISTED)) if i not in covered]
    missing = dim - len(covered)
    if missing <= MAX_LISTED:
        return f"basis indices {first} belong to no component"
    return (f"{missing} basis indices belong to no component, "
            f"the first {MAX_LISTED}: {first[:MAX_LISTED]}")


def _check_gaps(report, gaps, by_id, member, dim):
    """Report each gap's violations in gap order, then the multi-feed warnings.

    Which gaps may break a rule is found in bulk, over all gaps and entries
    at once; only those gaps are then checked one by one.
    """
    pairs = [(g.low, g.high) for g in gaps]
    first_of = dict(zip(reversed(pairs), range(len(pairs) - 1, -1, -1)))
    suspect = {k for k, g in enumerate(gaps)
               if not (g.irreversible and g.low in by_id and g.high in by_id
                       and by_id[g.high].entropy_rank > by_id[g.low].entropy_rank)}
    suspect.update(k for k, g in enumerate(gaps) for r, c, v in g.interaction.entries
                   if not ((g.high, r) in member and (g.low, c) in member
                           and 0 <= r < dim and 0 <= c < dim and cmath.isfinite(v)))
    keys = [(k, r, c) for k, g in enumerate(gaps) for r, c, _ in g.interaction.entries]
    if len(set(keys)) < len(keys):
        suspect.update(k for (k, _, _), n in Counter(keys).items() if n > 1)
    if len(first_of) < len(pairs):
        suspect.update(k for k, pair in enumerate(pairs) if first_of[pair] != k)

    for k in sorted(suspect):
        gap = gaps[k]
        where = f"gap {k} ({gap.low}->{gap.high})"
        if gap.low not in by_id or gap.high not in by_id:
            report.error("unknown-component", "gap references unknown component", where)
            continue
        if gap.low == gap.high:
            report.error("self-gap", "gap connects a component to itself", where)
            continue
        if not gap.irreversible:
            report.error("reversible-gap",
                         "reversible gaps are not supported; put both sectors in one "
                         "component and use its own block instead", where)
        if by_id[gap.high].entropy_rank <= by_id[gap.low].entropy_rank:
            report.error("entropy-order", "gap not entropy-increasing", where)
        if first_of[(gap.low, gap.high)] != k:
            report.error("duplicate-gap", "second gap declared for the same pair", where)
        for r, c, _ in gap.interaction.entries:
            if (gap.high, r) not in member or (gap.low, c) not in member:
                report.error("gap-support",
                             f"entry ({r},{c}) does not map the low component into the high one",
                             where)
        _check_block_entries(report, gap.interaction, dim, where)

    feeds = [(g.high, g.low) for g in gaps if g.low in by_id and g.high in by_id
             and g.low != g.high]
    if len({high for high, _ in feeds}) < len(feeds):
        feeds_into: dict[int, list[int]] = {}
        for high, low in feeds:
            feeds_into.setdefault(high, []).append(low)
        for high, lows in feeds_into.items():
            if len(lows) > 1:
                report.warn("multi-feed",
                            f"multiple components {sorted(lows)} feed launch component {high}; "
                            "their currents are summed")


def validate_model(model: ScenarioModel) -> ValidationReport:
    """Collect every invariant violation; violations are data, not exceptions."""
    report = ValidationReport()
    dim = model.dim
    if dim < 1:
        report.error("dim", f"dim must be >= 1, got {dim}")
        return report

    by_id = {c.id: c for c in model.components}
    if len(by_id) != len(model.components):
        report.error("duplicate-id", "component ids are not unique")

    # The components are checked one by one only where one is empty, starts
    # neither active nor launch, or their indices repeat or leave range(dim).
    indices = [i for c in model.components for i in c.basis_indices]
    covered = set(indices)
    if not (all(c.basis_indices and c.status in (ACTIVE, LAUNCH) for c in model.components)
            and len(covered) == len(indices) and (not indices or 0 <= min(indices)
                                                  and max(indices) < dim)):
        covered = set()
        for c in model.components:
            where = f"component {c.id}"
            if not c.basis_indices:
                report.error("empty-component", "basis_indices is empty", where)
            if c.status not in (ACTIVE, LAUNCH):
                report.error("initial-status",
                             f"initial status must be 'active' or 'launch', got {c.status!r}",
                             where)
            for i in c.basis_indices:
                if not 0 <= i < dim:
                    report.error("index-range", f"basis index {i} outside dim={dim}", where)
                elif i in covered:
                    report.error("components-overlap",
                                 f"components overlap at basis index {i}", where)
                else:
                    covered.add(i)
    if len(covered) < dim and not report.errors:
        # Counted, not allocated: dim may be far larger than the document.
        report.error("coverage", _coverage_message(covered, dim))

    # (component id, basis index) of each id's component: an entry (r, c)
    # maps low into high iff (high, r) and (low, c) are members.
    member = {(cid, i) for cid, c in by_id.items() for i in c.basis_indices}
    _check_gaps(report, model.gaps, by_id, member, dim)

    for comp_id, block in model.hamiltonian.own.items():
        where = f"own block of component {comp_id}"
        if comp_id not in by_id:
            report.error("unknown-component", "own block references unknown component", where)
            continue
        for r, c, _ in block.entries:
            if (comp_id, r) not in member or (comp_id, c) not in member:
                report.error("own-support",
                             f"entry ({r},{c}) lies outside the component's basis indices", where)
        _check_block_entries(report, block, dim, where)
        _check_hermitian(report, block, where, "own block not Hermitian")

    # Status structure: launch only on the high side of some irreversible gap;
    # a bridged gap (active low) must have a launch high side; a chained gap
    # (launch low) must have a plain-active placeholder on its high side.
    high_sides = {g.high for g in model.gaps if g.irreversible}
    for c in model.components:
        if c.status == LAUNCH and c.id not in high_sides:
            report.error("stray-launch",
                         "status 'launch' requires being the high side of at least one gap",
                         f"component {c.id}")
    for k, gap in enumerate(model.gaps):
        low, high = by_id.get(gap.low), by_id.get(gap.high)
        if low is None or high is None or not gap.irreversible:
            continue
        if low.status == ACTIVE and high.status != LAUNCH:
            report.error("unbridged-gap",
                         "high side of a gap fed by an active component must have status 'launch'",
                         f"gap {k} ({gap.low}->{gap.high})")
        if low.status == LAUNCH and high.status == LAUNCH:
            report.error("premature-launch",
                         "high side of a chained gap must stay 'active' until its source realizes",
                         f"gap {k} ({gap.low}->{gap.high})")

    psi0 = model.psi0
    if psi0.shape != (dim,):
        report.error("psi0-shape", f"psi0 has shape {psi0.shape}, expected ({dim},)")
    # A finite square modulus s0 means every amplitude is finite, and s0 > 0
    # that one is not zero; the array checks run only where s0 leaves it open.
    elif not math.isfinite(s0 := square_modulus(psi0)) and not np.isfinite(psi0).all():
        bad = np.flatnonzero(~np.isfinite(psi0))
        report.error("non-finite", f"psi0 has NaN or infinite amplitude at indices {bad.tolist()}")
    elif s0 == 0.0 and not psi0.any():
        report.error("psi0-zero", "psi0 is all zero")
    elif not math.isfinite(s0):
        report.error("psi0-overflow", f"psi0's square modulus overflows to {s0}")
    else:
        active = {i for c in model.components if c.status == ACTIVE for i in c.basis_indices}
        stray = [i for i in np.flatnonzero(psi0).tolist() if i not in active]
        if stray:
            report.error("psi0-support",
                         f"psi0 has amplitude outside active components at indices {stray}")

    d = model.defaults
    for name, value in (("dt", d.dt), ("t_max", d.t_max)):
        if not math.isfinite(value):
            report.error("non-finite", f"{name} is {value}", "defaults")
    if d.dt <= 0:
        report.error("defaults", f"dt must be > 0, got {d.dt}", "defaults")
    if d.t_max < 0:
        report.error("defaults", f"t_max must be >= 0, got {d.t_max}", "defaults")
    elif d.dt > 0 and math.isfinite(d.t_max) and d.t_max / d.dt > MAX_STEPS:
        report.error("step-count", f"t_max / dt = {d.t_max / d.dt:.3g} steps exceeds "
                     f"MAX_STEPS = {MAX_STEPS}", "defaults")
    if d.rules not in RULE_IDS:
        report.error("defaults", f"unknown rules variant {d.rules!r}", "defaults")
    if d.gap_mode not in GAP_MODES:
        report.error("defaults", f"unknown gap_mode {d.gap_mode!r}", "defaults")
    if d.sample_every < 1:
        report.error("defaults", f"sample_every must be >= 1, got {d.sample_every}", "defaults")
    if d.seed < 0:
        report.error("negative-seed", f"seed must be >= 0, got {d.seed}", "defaults")
    return report


# ---------------------------------------------------------------------------
# Parsing / serialization
# ---------------------------------------------------------------------------

_TOP_KEYS = {"schema", "dim", "components", "gaps", "own", "psi0", "defaults"}
# Type of each field of the defaults block, as _need reads it.
_DEFAULT_KINDS = {"dt": float, "t_max": float, "rules": str, "gap_mode": str,
                  "seed": int, "sample_every": int}


def _number(val, what, where) -> float:
    """A JSON number as a float; null, strings and booleans are parse errors."""
    if type(val) is float:
        return val
    if type(val) is not int:
        raise ScenarioParseError(f"{what} must be a number", where)
    try:
        return float(val)
    except OverflowError:
        raise ScenarioParseError(f"{what} is out of the float range", where) from None


def _need(obj, key, kind, where):
    if key not in obj:
        raise ScenarioParseError(f"missing field {key!r}", where)
    val = obj[key]
    if kind is float:
        return _number(val, f"field {key!r}", where)
    if kind is int:
        if isinstance(val, bool) or not isinstance(val, int):
            raise ScenarioParseError(f"field {key!r} must be an integer", where)
        return val
    if not isinstance(val, kind):
        raise ScenarioParseError(f"field {key!r} has wrong type", where)
    return val


def _optional_list(doc, key) -> list:
    """A top-level list field that may be absent: [] when it is."""
    return _need(doc, key, list, "document") if key in doc else []


# The types of JSON numbers. The bulk checks test ``type(v)`` where _need
# tests isinstance: json.loads makes no subclass of int, float or list, and
# a boolean's type is bool.
_NUMBERS = {float, int}


def _check_quad(quad, where):
    """Raise the parse error of one malformed [row, col, re, im] quad."""
    if not (type(quad) is list and len(quad) == 4):
        raise ScenarioParseError("operator entries must be [row, col, re, im] quads", where)
    r, c, re, im = quad
    if type(r) is not int or type(c) is not int:
        raise ScenarioParseError("row/col must be integers", where)
    _number(re, "re", where)
    _number(im, "im", where)


def _parse_quads(lists, section, first=0):
    """Rows, columns and complex values of the [row, col, re, im] quads of
    ``lists``, the entry lists of ``section``'s blocks from block ``first``
    on, concatenated, and the number of blocks they cover; with the
    ScenarioParseError of the first malformed quad, whose block ends the
    blocks covered, else None.

    Checked and converted in bulk; the blocks are walked one by one only
    to name a malformed quad.
    """
    quads = [q for entries in lists for q in entries]
    try:
        # Only lists pass: zip splits a string into str characters and a
        # dict into str keys.
        rows, cols, res, ims = zip(*quads) if quads else ((), (), (), ())
        if (set(map(len, quads)) <= {4} and set(map(type, rows + cols)) <= {int}
                and set(map(type, res + ims)) <= _NUMBERS):
            return rows, cols, list(map(complex, res, ims)), len(lists), None
    except (TypeError, ValueError, OverflowError):
        # A quad that is no sequence, or has too few values, or an int
        # re or im beyond the float range.
        pass
    for i, entries in enumerate(lists):
        try:
            for j, quad in enumerate(entries):
                _check_quad(quad, f"{section}[{first + i}].entries[{j}]")
        except ScenarioParseError as exc:
            return (*_parse_quads(lists[:i], section)[:3], i, exc)
    raise AssertionError("no malformed quad found")


def _check_component(raw, where):
    """Raise the parse error of one malformed component document."""
    if not isinstance(raw, dict):
        raise ScenarioParseError("component must be an object", where)
    if any(type(i) is not int for i in _need(raw, "indices", list, where)):
        raise ScenarioParseError("indices must be integers", where)
    _need(raw, "id", int, where)
    _need(raw, "entropy_rank", int, where)


def _parse_components(raw: list) -> tuple[Component, ...]:
    if not (all(type(c) is dict and type(c.get("indices")) is list and type(c.get("id")) is int
                and type(c.get("entropy_rank")) is int for c in raw)
            and {type(i) for c in raw for i in c["indices"]} <= {int}):
        for i, c in enumerate(raw):
            _check_component(c, f"components[{i}]")
    # "ready" is the four-rule variant's name for "launch".
    return tuple([Component(c["id"], tuple(c["indices"]), c["entropy_rank"],
                            LAUNCH if (st := c.get("status", ACTIVE)) == "ready" else st)
                  for c in raw])


def _check_gap(raw, where):
    """Raise the parse error of one gap document whose fields are malformed."""
    if not isinstance(raw, dict):
        raise ScenarioParseError("gap must be an object", where)
    _need(raw, "low", int, where)
    _need(raw, "high", int, where)
    if not isinstance(raw.get("irreversible", True), bool):
        raise ScenarioParseError("field 'irreversible' must be true or false", where)
    _need(raw, "entries", list, where)
    raise AssertionError(f"{where} is well-formed")


def _parse_gaps(raw: list, components, dim: int) -> tuple[Gap, ...]:
    """The gaps, each entry stored in the feed (high <- low) direction.

    Both storage directions are accepted; if both are present for the same
    pair they must be conjugate transposes of each other. An entry in
    neither direction stays as written, so validate_model reports it as a
    gap-support violation instead of a parse error. The first error in
    document order is raised: a gap's fields, then its entries, then the
    duplicate and conjugate-symmetry checks of its feed.
    """
    n = next((i for i, g in enumerate(raw)
              if not (type(g) is dict and type(g.get("low")) is int
                      and type(g.get("high")) is int
                      and type(g.get("irreversible", True)) is bool
                      and type(g.get("entries")) is list)), len(raw))
    lists = [g["entries"] for g in raw[:n]]
    _, _, vals, n_parsed, entry_error = _parse_quads(lists, "gaps")
    good = raw[:n_parsed]
    # (component id, basis index) of each id's last component.
    member = {(c.id, i) for c in {c.id: c for c in components}.values()
              for i in c.basis_indices}
    # Each entry as (gap, direction, row, col), the direction 1 for feed
    # (high <- low), -1 for back (low <- high), 0 for neither.
    keyed = [(k, 1 if (g["high"], r) in member and (g["low"], c) in member else
              -1 if (g["low"], r) in member and (g["high"], c) in member else 0, r, c)
             for k, g in enumerate(good) for r, c, _, _ in g["entries"]]
    # Feed and neither entries keyed (gap, row, col), the last of a repeated
    # neither entry winning; back entries transposed and conjugated.
    feed = {(k, r, c): v for (k, d, r, c), v in zip(keyed, vals) if d >= 0}
    backs = {(k, c, r): v.conjugate() for (k, d, r, c), v in zip(keyed, vals) if d < 0}
    errors = []
    if len(feed) + len(backs) < len(keyed):
        # Some key repeats: an error where it is a feed or back entry.
        seen = set()
        for k, d, r, c in keyed:
            if d and (k, d, r, c) in seen:
                errors.append((k, 0, f"duplicate gap entry at ({r},{c})"))
                break
            seen.add((k, d, r, c))
    for (k, r, c), v in backs.items():
        if (k, r, c) in feed and abs(feed[(k, r, c)] - v) > HERMITICITY_TOL:
            errors.append((k, 1, f"gap entries at ({r},{c}) and its transpose are not "
                                 "conjugate-symmetric"))
            break
    if errors:
        k, _, message = min(errors)
        raise ScenarioParseError(message, f"gaps[{k}]")
    if entry_error:
        raise entry_error
    if n < len(raw):
        _check_gap(raw[n], f"gaps[{n}]")

    merged = backs | feed
    if len(merged) == len(keyed):
        counts = map(len, lists[:n_parsed])
    else:
        per_gap = Counter(k for k, _, _ in merged)
        counts = [per_gap[k] for k in range(len(good))]
    bounds = list(accumulate(counts, initial=0))
    entries = tuple([(r, c, v) for (_, r, c), v in sorted(merged.items())])
    return tuple([Gap(g["low"], g["high"], g.get("irreversible", True),
                      OperatorBlock(dim, entries[a:b]))
                  for g, a, b in zip(good, bounds, bounds[1:])])


def _parse_psi0(raw: list) -> np.ndarray:
    """psi0 from its [re, im] pairs, checked and converted in bulk; the
    pairs are walked one by one only to name a malformed one."""
    try:
        res, ims = zip(*raw) if raw else ((), ())
        if set(map(len, raw)) <= {2} and set(map(type, res + ims)) <= _NUMBERS:
            return np.array(list(map(complex, res, ims)), dtype=np.complex128)
    except (TypeError, ValueError, OverflowError):
        pass
    for i, pair in enumerate(raw):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ScenarioParseError("psi0 entries must be [re, im] pairs", f"psi0[{i}]")
        _number(pair[0], "re", f"psi0[{i}]")
        _number(pair[1], "im", f"psi0[{i}]")
    raise AssertionError("psi0 is well-formed")


def parse_scenario(text: str) -> ScenarioModel:
    """Parse a scenario document without validating model invariants."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"invalid JSON: {exc.msg}",
                                 f"line {exc.lineno}, column {exc.colno}") from exc
    if not isinstance(doc, dict):
        raise ScenarioParseError("document root must be an object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ScenarioParseError(f"unknown top-level fields {sorted(unknown)}")
    schema = doc.get("schema", SCENARIO_SCHEMA)
    if schema != SCENARIO_SCHEMA:
        raise ScenarioParseError(f"unsupported schema {schema!r}, expected {SCENARIO_SCHEMA!r}")

    dim = _need(doc, "dim", int, "document")
    components = _parse_components(_need(doc, "components", list, "document"))
    gaps = _parse_gaps(_optional_list(doc, "gaps"), components, dim)
    own = {}
    for i, raw in enumerate(_optional_list(doc, "own")):
        where = f"own[{i}]"
        if not isinstance(raw, dict):
            raise ScenarioParseError("own block must be an object", where)
        comp = _need(raw, "component", int, where)
        if comp in own:
            raise ScenarioParseError(f"second own block for component {comp}", where)
        rows, cols, vals, _, error = _parse_quads([_need(raw, "entries", list, where)], "own", i)
        if error:
            raise error
        own[comp] = OperatorBlock(dim, tuple(zip(rows, cols, vals)))
    psi0 = _parse_psi0(_need(doc, "psi0", list, "document"))

    defaults = RunDefaults()
    if "defaults" in doc:
        raw = doc["defaults"]
        if not isinstance(raw, dict):
            raise ScenarioParseError("defaults must be an object", "defaults")
        unknown = raw.keys() - _DEFAULT_KINDS.keys()
        if unknown:
            raise ScenarioParseError(f"unknown defaults fields {sorted(unknown)}", "defaults")
        # Fields of their exact kind are taken as they are; _need converts
        # an int dt or t_max and names a field of a wrong type.
        if not all(type(val) is _DEFAULT_KINDS[key] for key, val in raw.items()):
            raw = {key: _need(raw, key, kind, "defaults")
                   for key, kind in _DEFAULT_KINDS.items() if key in raw}
        defaults = RunDefaults(**raw)

    return ScenarioModel(dim=dim, components=components,
                         hamiltonian=HamiltonianPartition(own=own, interactions=gaps),
                         psi0=psi0, defaults=defaults)


def load_scenario(text: str) -> ScenarioModel:
    """Parse and validate; raises with every violation bundled on failure."""
    model = parse_scenario(text)
    report = validate_model(model)
    if not report.ok:
        raise ScenarioValidationError(report)
    return model


def scenario_text(data: bytes) -> str:
    """A scenario file's text from its bytes, as a text-mode read gives it:
    UTF-8, with universal newlines."""
    return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")


def load_scenario_file(path) -> ScenarioModel:
    with open(path, "rb") as fh:
        return load_scenario(scenario_text(fh.read()))


def serialize_scenario(model: ScenarioModel) -> str:
    """Canonical document text; load_scenario(serialize(m)) == m bit-exactly."""
    return json.dumps(_scenario_document(model), indent=2) + "\n"


def _scenario_document(model: ScenarioModel) -> dict:
    """The canonical document serialize_scenario writes and fingerprint hashes."""
    return {
        "schema": SCENARIO_SCHEMA,
        "dim": model.dim,
        "components": [
            {"id": c.id, "indices": list(c.basis_indices),
             "entropy_rank": c.entropy_rank, "status": c.status}
            for c in model.components
        ],
        "gaps": [
            {"low": g.low, "high": g.high, "irreversible": g.irreversible,
             "entries": [[r, c, v.real, v.imag] for r, c, v in g.interaction.entries]}
            for g in model.gaps
        ],
        "own": [
            {"component": comp, "entries": [[r, c, v.real, v.imag] for r, c, v in block.entries]}
            for comp, block in sorted(model.hamiltonian.own.items())
        ],
        "psi0": [[z.real, z.imag] for z in model.psi0],
        "defaults": {
            "dt": model.defaults.dt, "t_max": model.defaults.t_max,
            "rules": model.defaults.rules, "gap_mode": model.defaults.gap_mode,
            "seed": model.defaults.seed, "sample_every": model.defaults.sample_every,
        },
    }
