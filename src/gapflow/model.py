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
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np
import scipy.sparse as sp

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

    def to_coo(self) -> sp.coo_matrix:
        if not self.entries:
            return sp.coo_matrix((self.dim, self.dim), dtype=np.complex128)
        rows, cols, vals = zip(*self.entries)
        return sp.coo_matrix((np.array(vals, dtype=np.complex128), (rows, cols)),
                             shape=(self.dim, self.dim))

    def adjoint_entries(self) -> tuple[tuple[int, int, complex], ...]:
        return tuple((c, r, v.conjugate()) for r, c, v in self.entries)


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
        return {c.id: np.array(c.basis_indices, dtype=np.intp) for c in self.components}

    def indices_of(self, comp_id: int) -> np.ndarray:
        self.component(comp_id)
        return self.index_arrays[comp_id]

    @cached_property
    def launch_candidate_ids(self) -> tuple[int, ...]:
        """Components that can ever be on the receiving side of a hit."""
        return tuple(sorted({g.high for g in self.gaps if g.irreversible}))

    def initial_statuses(self) -> dict[int, str]:
        return {c.id: c.status for c in self.components}

    def full_hamiltonian(self) -> sp.csr_matrix:
        """H = sum of own blocks + sum over gaps of (feed + feed-adjoint)."""
        total = sp.coo_matrix((self.dim, self.dim), dtype=np.complex128)
        for block in self.hamiltonian.own.values():
            total = total + block.to_coo()
        for gap in self.gaps:
            feed = gap.interaction
            total = total + feed.to_coo()
            total = total + OperatorBlock(self.dim, feed.adjoint_entries()).to_coo()
        return total.tocsr()

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


def project(state: np.ndarray, comp_id: int, model: ScenarioModel) -> np.ndarray:
    """Zero the amplitudes outside ``comp_id``'s basis indices."""
    idx = model.indices_of(comp_id)
    out = np.zeros_like(np.asarray(state, dtype=np.complex128))
    out[idx] = state[idx]
    return out


def component_moduli(states: np.ndarray, model: ScenarioModel) -> np.ndarray:
    """Square modulus of each component, in model order, per row of ``states``."""
    sq = (states.conj() * states).real
    return np.stack([sq[:, model.index_arrays[c.id]].sum(axis=1) for c in model.components],
                    axis=1)


def component_square_moduli(state: np.ndarray, model: ScenarioModel) -> dict[int, float]:
    moduli = component_moduli(np.asarray(state)[None, :], model)[0]
    return {c.id: float(m) for c, m in zip(model.components, moduli)}


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


def validate_model(model: ScenarioModel) -> ValidationReport:
    """Collect every invariant violation; violations are data, not exceptions."""
    report = ValidationReport()
    dim = model.dim
    if dim < 1:
        report.error("dim", f"dim must be >= 1, got {dim}")
        return report

    ids = [c.id for c in model.components]
    if len(ids) != len(set(ids)):
        report.error("duplicate-id", "component ids are not unique")
    by_id = {c.id: c for c in model.components}

    covered: set[int] = set()
    for c in model.components:
        where = f"component {c.id}"
        if not c.basis_indices:
            report.error("empty-component", "basis_indices is empty", where)
        if c.status not in (ACTIVE, LAUNCH):
            report.error("initial-status",
                         f"initial status must be 'active' or 'launch', got {c.status!r}", where)
        for i in c.basis_indices:
            if not 0 <= i < dim:
                report.error("index-range", f"basis index {i} outside dim={dim}", where)
            elif i in covered:
                report.error("components-overlap", f"components overlap at basis index {i}", where)
            else:
                covered.add(i)
    if len(covered) < dim and not report.errors:
        # Counted, not allocated: dim may be far larger than the document.
        report.error("coverage", _coverage_message(covered, dim))

    low_sets = {c.id: set(c.basis_indices) for c in model.components}
    pair_seen = set()
    feeds_into: dict[int, list[int]] = {}
    for k, gap in enumerate(model.gaps):
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
        if (gap.low, gap.high) in pair_seen:
            report.error("duplicate-gap", "second gap declared for the same pair", where)
        pair_seen.add((gap.low, gap.high))
        feeds_into.setdefault(gap.high, []).append(gap.low)
        lo, hi = low_sets[gap.low], low_sets[gap.high]
        for r, c, _ in gap.interaction.entries:
            if not (r in hi and c in lo):
                report.error("gap-support",
                             f"entry ({r},{c}) does not map the low component into the high one",
                             where)
        _check_block_entries(report, gap.interaction, dim, where)

    for high, lows in feeds_into.items():
        if len(lows) > 1:
            report.warn("multi-feed",
                        f"multiple components {sorted(lows)} feed launch component {high}; "
                        "their currents are summed")

    for comp_id, block in model.hamiltonian.own.items():
        where = f"own block of component {comp_id}"
        if comp_id not in by_id:
            report.error("unknown-component", "own block references unknown component", where)
            continue
        inside = low_sets[comp_id]
        for r, c, _ in block.entries:
            if r not in inside or c not in inside:
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
        if gap.low not in by_id or gap.high not in by_id or not gap.irreversible:
            continue
        where = f"gap {k} ({gap.low}->{gap.high})"
        if by_id[gap.low].status == ACTIVE and by_id[gap.high].status != LAUNCH:
            report.error("unbridged-gap",
                         "high side of a gap fed by an active component must have status 'launch'",
                         where)
        if by_id[gap.low].status == LAUNCH and by_id[gap.high].status == LAUNCH:
            report.error("premature-launch",
                         "high side of a chained gap must stay 'active' until its source realizes",
                         where)

    psi0 = model.psi0
    if psi0.shape != (dim,):
        report.error("psi0-shape", f"psi0 has shape {psi0.shape}, expected ({dim},)")
    elif not np.isfinite(psi0).all():
        bad = np.flatnonzero(~np.isfinite(psi0))
        report.error("non-finite", f"psi0 has NaN or infinite amplitude at indices {bad.tolist()}")
    elif not psi0.any():
        report.error("psi0-zero", "psi0 is all zero")
    elif not math.isfinite(s0 := square_modulus(psi0)):
        report.error("psi0-overflow", f"psi0's square modulus overflows to {s0}")
    else:
        active_mask = np.zeros(dim, dtype=bool)
        for c in model.components:
            if c.status == ACTIVE:
                for i in c.basis_indices:
                    if 0 <= i < dim:
                        active_mask[i] = True
        stray = np.flatnonzero((np.abs(psi0) > 0) & ~active_mask)
        if stray.size:
            report.error("psi0-support",
                         f"psi0 has amplitude outside active components at indices {stray.tolist()}")

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


def _parse_entries(raw, where) -> tuple[tuple[int, int, complex], ...]:
    out = []
    for j, quad in enumerate(raw):
        if not (isinstance(quad, list) and len(quad) == 4):
            raise ScenarioParseError("operator entries must be [row, col, re, im] quads",
                                     f"{where}.entries[{j}]")
        r, c, re, im = quad
        if isinstance(r, bool) or isinstance(c, bool) or not isinstance(r, int) or not isinstance(c, int):
            raise ScenarioParseError("row/col must be integers", f"{where}.entries[{j}]")
        if not (type(re) is float and type(im) is float):
            re, im = (_number(re, "re", f"{where}.entries[{j}]"),
                      _number(im, "im", f"{where}.entries[{j}]"))
        out.append((r, c, complex(re, im)))
    return tuple(out)


def _canonical_feed(entries, low_set, high_set, dim, where):
    """Normalize stored gap entries to the feed (high<-low) direction.

    Both storage directions are accepted; if both are present for the same
    pair they must be conjugate transposes of each other.
    """
    feed: dict[tuple[int, int], complex] = {}
    back: dict[tuple[int, int], complex] = {}
    for r, c, v in entries:
        if r in high_set and c in low_set:
            if (r, c) in feed:
                raise ScenarioParseError(f"duplicate gap entry at ({r},{c})", where)
            feed[(r, c)] = v
        elif r in low_set and c in high_set:
            if (c, r) in back:
                raise ScenarioParseError(f"duplicate gap entry at ({r},{c})", where)
            back[(c, r)] = v.conjugate()
        else:
            # Leave misplaced entries in the block untouched so validate_model
            # reports them as a gap-support violation instead of a parse error.
            feed[(r, c)] = v
    for key, v in back.items():
        if key in feed:
            if abs(feed[key] - v) > HERMITICITY_TOL:
                raise ScenarioParseError(
                    f"gap entries at ({key[0]},{key[1]}) and its transpose are not "
                    "conjugate-symmetric", where)
        else:
            feed[key] = v
    items = sorted(feed.items())
    return OperatorBlock(dim, tuple((r, c, v) for (r, c), v in items))


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

    components = []
    for i, raw in enumerate(_need(doc, "components", list, "document")):
        where = f"components[{i}]"
        if not isinstance(raw, dict):
            raise ScenarioParseError("component must be an object", where)
        status = raw.get("status", ACTIVE)
        if status == "ready":
            status = LAUNCH
        indices = _need(raw, "indices", list, where)
        if any(isinstance(i_, bool) or not isinstance(i_, int) for i_ in indices):
            raise ScenarioParseError("indices must be integers", where)
        components.append(Component(
            id=_need(raw, "id", int, where),
            basis_indices=tuple(indices),
            entropy_rank=_need(raw, "entropy_rank", int, where),
            status=status,
        ))
    index_sets = {c.id: set(c.basis_indices) for c in components}

    gaps = []
    for i, raw in enumerate(_optional_list(doc, "gaps")):
        where = f"gaps[{i}]"
        if not isinstance(raw, dict):
            raise ScenarioParseError("gap must be an object", where)
        low = _need(raw, "low", int, where)
        high = _need(raw, "high", int, where)
        irreversible = raw.get("irreversible", True)
        if not isinstance(irreversible, bool):
            raise ScenarioParseError("field 'irreversible' must be true or false", where)
        entries = _parse_entries(_need(raw, "entries", list, where), where)
        feed = _canonical_feed(entries, index_sets.get(low, set()),
                               index_sets.get(high, set()), dim, where)
        gaps.append(Gap(low=low, high=high, irreversible=irreversible, interaction=feed))

    own = {}
    for i, raw in enumerate(_optional_list(doc, "own")):
        where = f"own[{i}]"
        if not isinstance(raw, dict):
            raise ScenarioParseError("own block must be an object", where)
        comp = _need(raw, "component", int, where)
        if comp in own:
            raise ScenarioParseError(f"second own block for component {comp}", where)
        own[comp] = OperatorBlock(dim, _parse_entries(_need(raw, "entries", list, where), where))

    psi_raw = _need(doc, "psi0", list, "document")
    amps = []
    for i, pair in enumerate(psi_raw):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ScenarioParseError("psi0 entries must be [re, im] pairs", f"psi0[{i}]")
        re, im = pair
        if not (type(re) is float and type(im) is float):
            re, im = _number(re, "re", f"psi0[{i}]"), _number(im, "im", f"psi0[{i}]")
        amps.append(complex(re, im))
    psi0 = np.array(amps, dtype=np.complex128)

    defaults = RunDefaults()
    if "defaults" in doc:
        raw = doc["defaults"]
        if not isinstance(raw, dict):
            raise ScenarioParseError("defaults must be an object", "defaults")
        unknown = set(raw) - set(_DEFAULT_KINDS)
        if unknown:
            raise ScenarioParseError(f"unknown defaults fields {sorted(unknown)}", "defaults")
        defaults = RunDefaults(**{key: _need(raw, key, kind, "defaults")
                                  for key, kind in _DEFAULT_KINDS.items() if key in raw})

    return ScenarioModel(dim=dim, components=tuple(components),
                         hamiltonian=HamiltonianPartition(own=own, interactions=tuple(gaps)),
                         psi0=psi0, defaults=defaults)


def load_scenario(text: str) -> ScenarioModel:
    """Parse and validate; raises with every violation bundled on failure."""
    model = parse_scenario(text)
    report = validate_model(model)
    if not report.ok:
        raise ScenarioValidationError(report)
    return model


def load_scenario_file(path) -> ScenarioModel:
    with open(path, "r", encoding="utf-8") as fh:
        return load_scenario(fh.read())


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
