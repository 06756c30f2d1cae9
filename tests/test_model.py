"""Scenario parsing, validation, and round-trip tests."""

import copy
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapflow.errors import ScenarioParseError, ScenarioValidationError
from gapflow.fixtures import BUILDERS
from gapflow.model import (
    ACTIVE,
    LAUNCH,
    MAX_STEPS,
    SCENARIO_SCHEMA,
    ZEROED,
    Component,
    Gap,
    HamiltonianPartition,
    OperatorBlock,
    RunDefaults,
    ScenarioModel,
    component_moduli,
    load_scenario,
    load_scenario_file,
    parse_scenario,
    serialize_scenario,
    square_modulus,
    validate_model,
)

from conftest import scenario_path
from reference import adjoint_entries, full_hamiltonian, project


def base_doc():
    """A minimal valid two-component document, mutated per test."""
    return {
        "schema": SCENARIO_SCHEMA,
        "dim": 2,
        "components": [
            {"id": 0, "indices": [0], "entropy_rank": 0, "status": "active"},
            {"id": 1, "indices": [1], "entropy_rank": 1, "status": "launch"},
        ],
        "gaps": [
            {"low": 0, "high": 1, "irreversible": True, "entries": [[1, 0, 1.0, 0.0]]},
        ],
        "own": [],
        "psi0": [[1.0, 0.0], [0.0, 0.0]],
        "defaults": {
            "dt": 0.01,
            "t_max": 6.0,
            "rules": "nrules3",
            "gap_mode": "oneway",
            "seed": 1,
            "sample_every": 1,
        },
    }


def doc_model(mutate=None):
    doc = base_doc()
    if mutate is not None:
        mutate(doc)
    return parse_scenario(json.dumps(doc))


# ---------------------------------------------------------------------------
# Round trips and fingerprints
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_builder_round_trip(name):
    model = BUILDERS[name]()
    again = load_scenario(serialize_scenario(model))
    assert again == model
    assert again.fingerprint() == model.fingerprint()
    assert np.array_equal(again.psi0, model.psi0)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_scenario_files_match_builders(name):
    """The JSON copies under scenarios/ must stay in sync with the builders."""
    on_disk = scenario_path(name).read_text(encoding="utf-8")
    assert on_disk == serialize_scenario(BUILDERS[name]())


def test_serialize_is_canonical(two_level_model):
    text = serialize_scenario(two_level_model)
    assert text.endswith("\n")
    assert serialize_scenario(load_scenario(text)) == text


def test_fingerprint_changes_with_content(two_level_model):
    other = doc_model(lambda d: d["gaps"][0]["entries"].__setitem__(0, [1, 0, 2.0, 0.0]))
    assert other.fingerprint() != two_level_model.fingerprint()


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_rejects_invalid_json():
    with pytest.raises(ScenarioParseError, match="invalid JSON"):
        parse_scenario("{not json")


def test_parse_rejects_unknown_schema():
    with pytest.raises(ScenarioParseError, match="unsupported schema"):
        doc_model(lambda d: d.__setitem__("schema", "scenario/999"))


def test_parse_rejects_unknown_top_level_field():
    with pytest.raises(ScenarioParseError, match="unknown top-level fields"):
        doc_model(lambda d: d.__setitem__("extra", 1))


def test_parse_rejects_non_object_root():
    with pytest.raises(ScenarioParseError, match="root must be an object"):
        parse_scenario("[]")


def test_parse_rejects_unknown_defaults_field():
    with pytest.raises(ScenarioParseError, match="unknown defaults fields"):
        doc_model(lambda d: d["defaults"].__setitem__("tmax", 1.0))


def test_parse_rejects_second_own_block():
    own = {"component": 0, "entries": [[0, 0, 0.5, 0.0]]}
    with pytest.raises(ScenarioParseError, match="second own block for component 0"):
        doc_model(lambda d: d.__setitem__("own", [own, own]))


def test_parse_rejects_missing_field():
    def mutate(d):
        del d["components"][0]["entropy_rank"]

    with pytest.raises(ScenarioParseError, match="entropy_rank"):
        doc_model(mutate)


def test_parse_rejects_malformed_entry_quad():
    def mutate(d):
        d["gaps"][0]["entries"] = [[1, 0, 1.0]]

    with pytest.raises(ScenarioParseError, match="quads"):
        doc_model(mutate)


@pytest.mark.parametrize("key,value", [
    ("rules", ["nrules3"]),
    ("gap_mode", 1),
    ("seed", "x"),
    ("seed", 1.0),
    ("sample_every", 2.5),
    ("dt", "0.01"),
    ("t_max", True),
])
def test_parse_rejects_mistyped_defaults(key, value):
    def mutate(d):
        d["defaults"][key] = value

    with pytest.raises(ScenarioParseError, match=repr(key)):
        doc_model(mutate)


@pytest.mark.parametrize("value", [None, "x", "0.5", True, 10**400])
@pytest.mark.parametrize("path, where", [
    (("gaps", 0, "entries", 0, 2), "gaps[0].entries[0]"),
    (("gaps", 0, "entries", 0, 3), "gaps[0].entries[0]"),
    (("own", 0, "entries", 0, 2), "own[0].entries[0]"),
    (("psi0", 0, 0), "psi0[0]"),
    (("psi0", 1, 1), "psi0[1]"),
])
def test_parse_rejects_mistyped_amplitudes(path, where, value):
    """re/im of an operator entry or a psi0 pair must be a JSON number."""
    def mutate(d):
        d["own"] = [{"component": 0, "entries": [[0, 0, 0.5, 0.0]]}]
        target = d
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value

    with pytest.raises(ScenarioParseError, match=re.escape(where)):
        doc_model(mutate)


@pytest.mark.parametrize("value", ["no", 0, None, [True]])
def test_parse_rejects_non_boolean_irreversible(value):
    with pytest.raises(ScenarioParseError, match="irreversible"):
        doc_model(lambda d: d["gaps"][0].__setitem__("irreversible", value))


def test_parse_defaults_irreversible_to_true():
    assert doc_model(lambda d: d["gaps"][0].pop("irreversible")).gaps[0].irreversible is True


def test_parse_reads_integer_times_as_floats():
    def mutate(d):
        d["defaults"]["t_max"] = 6

    t_max = doc_model(mutate).defaults.t_max
    assert t_max == 6.0 and isinstance(t_max, float)


def test_parse_canonicalizes_ready_status():
    model = doc_model(lambda d: d["components"][1].__setitem__("status", "ready"))
    assert model.component(1).status == LAUNCH


def test_parse_accepts_adjoint_direction_entries():
    """Gap entries may be stored in either direction; both land as feed."""
    forward = doc_model()
    backward = doc_model(
        lambda d: d["gaps"][0].__setitem__("entries", [[0, 1, 1.0, 0.0]]))
    assert backward.gaps[0].interaction.entries == forward.gaps[0].interaction.entries


@pytest.mark.parametrize("entry", [[1, 0, 1.0, 0.0], [0, 1, 1.0, 0.0]],
                         ids=["feed", "adjoint"])
def test_parse_rejects_duplicate_gap_entry(entry):
    """An entry stored twice in either direction is refused."""
    with pytest.raises(ScenarioParseError, match="duplicate gap entry"):
        doc_model(lambda d: d["gaps"][0].__setitem__("entries", [entry, entry]))


def test_parse_rejects_inconsistent_two_sided_entries():
    def mutate(d):
        d["gaps"][0]["entries"] = [[1, 0, 1.0, 0.0], [0, 1, 0.5, 0.0]]

    with pytest.raises(ScenarioParseError, match="conjugate-symmetric"):
        doc_model(mutate)


def test_parse_merges_consistent_two_sided_entries():
    model = doc_model(
        lambda d: d["gaps"][0].__setitem__(
            "entries", [[1, 0, 0.0, 2.0], [0, 1, 0.0, -2.0]]))
    assert model.gaps[0].interaction.entries == ((1, 0, 2.0j),)


def test_load_scenario_file(tmp_path, two_level_model):
    path = tmp_path / "m.json"
    path.write_text(serialize_scenario(two_level_model), encoding="utf-8")
    assert load_scenario_file(path) == two_level_model


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def violation_messages(doc):
    model = parse_scenario(json.dumps(doc))
    report = validate_model(model)
    return [v.message for v in report.errors]


def test_valid_fixture_reports_clean(three_mode_model):
    report = validate_model(three_mode_model)
    assert report.ok
    assert report.errors == []


def test_overlapping_components_rejected():
    doc = base_doc()
    doc["components"][1]["indices"] = [0]
    messages = violation_messages(doc)
    assert any("components overlap" in m for m in messages)


def test_non_hermitian_own_block_rejected():
    doc = base_doc()
    doc["dim"] = 3
    doc["components"][0]["indices"] = [0, 1]
    doc["components"][1]["indices"] = [2]
    doc["gaps"][0]["entries"] = [[2, 0, 1.0, 0.0]]
    doc["psi0"] = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    doc["own"] = [{"component": 0, "entries": [[0, 1, 0.0, 1.0], [1, 0, 0.0, 1.0]]}]
    messages = violation_messages(doc)
    assert any("own block not Hermitian" in m for m in messages)


def test_entropy_decreasing_gap_rejected():
    doc = base_doc()
    doc["components"][0]["entropy_rank"] = 5
    messages = violation_messages(doc)
    assert any("gap not entropy-increasing" in m for m in messages)


def test_equal_entropy_gap_rejected():
    doc = base_doc()
    doc["components"][0]["entropy_rank"] = 1
    messages = violation_messages(doc)
    assert any("gap not entropy-increasing" in m for m in messages)


def test_reversible_gap_rejected():
    doc = base_doc()
    doc["gaps"][0]["irreversible"] = False
    assert any("reversible" in m for m in violation_messages(doc))


def test_uncovered_basis_index_rejected():
    doc = base_doc()
    doc["dim"] = 3
    doc["psi0"] = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    assert any("belong to no component" in m for m in violation_messages(doc))


def test_gap_entry_outside_block_rejected():
    doc = base_doc()
    doc["gaps"][0]["entries"] = [[1, 1, 1.0, 0.0]]
    assert any("does not map the low component" in m for m in violation_messages(doc))


def test_stray_launch_rejected():
    doc = base_doc()
    doc["gaps"] = []
    assert any("launch" in m for m in violation_messages(doc))


def test_unbridged_gap_rejected():
    """A gap whose high side starts active has no launch to feed."""
    doc = base_doc()
    doc["components"][1]["status"] = "active"
    doc["psi0"] = [[1.0, 0.0], [0.0, 0.0]]
    assert violation_messages(doc)


def test_psi0_support_must_be_active():
    doc = base_doc()
    doc["psi0"] = [[0.0, 0.0], [1.0, 0.0]]
    assert any("psi0" in m for m in violation_messages(doc))


def violation_codes(doc):
    return [v.code for v in validate_model(parse_scenario(json.dumps(doc))).errors]


@pytest.mark.parametrize("mutate", [
    lambda d: d.__setitem__("psi0", [[1.0, 0.0], [float("nan"), 0.0]]),
    lambda d: d.__setitem__("psi0", [[float("inf"), 0.0], [0.0, 0.0]]),
    lambda d: d["gaps"][0].__setitem__("entries", [[1, 0, float("inf"), 0.0]]),
    lambda d: d.__setitem__("own", [{"component": 0, "entries": [[0, 0, 0.0, -float("inf")]]}]),
    lambda d: d["defaults"].__setitem__("dt", float("nan")),
    lambda d: d["defaults"].__setitem__("dt", float("inf")),
    lambda d: d["defaults"].__setitem__("t_max", float("nan")),
    lambda d: d["defaults"].__setitem__("t_max", float("inf")),
], ids=["psi0-nan-on-launch", "psi0-inf", "gap-inf", "own-minus-inf",
        "dt-nan", "dt-inf", "t_max-nan", "t_max-inf"])
def test_non_finite_input_rejected(mutate):
    doc = base_doc()
    mutate(doc)
    assert "non-finite" in violation_codes(doc)


def test_step_count_bounded():
    """A run of more than MAX_STEPS steps of dt is rejected before it starts;
    one of exactly MAX_STEPS is not."""
    doc = base_doc()
    doc["defaults"].update(dt=1.0, t_max=float(MAX_STEPS))
    assert violation_codes(doc) == []
    doc["defaults"]["t_max"] = 1e15
    assert violation_codes(doc) == ["step-count"]
    doc["defaults"].update(dt=5e-324, t_max=1.0)
    assert violation_codes(doc) == ["step-count"]


def test_negative_seed_rejected():
    """A negative seed has no substream; validation names it."""
    doc = base_doc()
    doc["defaults"]["seed"] = -3
    assert violation_codes(doc) == ["negative-seed"]
    assert any("-3" in m for m in violation_messages(doc))
    doc["defaults"]["seed"] = 0
    assert violation_codes(doc) == []


def test_zero_psi0_rejected():
    doc = base_doc()
    doc["psi0"] = [[0.0, 0.0], [0.0, 0.0]]
    assert violation_codes(doc) == ["psi0-zero"]


def test_overflowing_psi0_rejected():
    """A finite psi0 whose square modulus overflows would run on as s = inf."""
    doc = base_doc()
    doc["psi0"] = [[1e308, 0.0], [0.0, 0.0]]
    assert violation_codes(doc) == ["psi0-overflow"]
    doc["psi0"] = [[1e154, 0.0], [0.0, 0.0]]
    assert violation_codes(doc) == []


def test_duplicate_component_id_rejected():
    doc = base_doc()
    doc["components"][1]["id"] = 0
    doc["components"][1]["indices"] = [1]
    assert any("not unique" in m for m in violation_messages(doc))


def chain_doc(high_status):
    """base_doc with a third component, fed by the launch component 1, that
    starts with ``high_status``."""
    doc = base_doc()
    doc["dim"] = 3
    doc["components"].append({"id": 2, "indices": [2], "entropy_rank": 2,
                              "status": high_status})
    doc["gaps"].append({"low": 1, "high": 2, "entries": [[2, 1, 1.0, 0.0]]})
    doc["psi0"].append([0.0, 0.0])
    return doc


def own_block(component, entries):
    return lambda d: d.__setitem__("own", [{"component": component, "entries": entries}])


@pytest.mark.parametrize("mutate, code", [
    (lambda d: d.__setitem__("dim", 0), "dim"),
    (lambda d: d["components"][1].__setitem__("indices", []), "empty-component"),
    (lambda d: d["gaps"][0].__setitem__("high", 0), "self-gap"),
    (lambda d: d["gaps"].append(copy.deepcopy(d["gaps"][0])), "duplicate-gap"),
    (own_block(0, [[0, 0, 0.5, 0.0], [0, 0, 0.5, 0.0]]), "duplicate-entry"),
    (own_block(7, [[0, 0, 0.5, 0.0]]), "unknown-component"),
], ids=["dim", "empty-component", "self-gap", "duplicate-gap", "own-duplicate-entry",
        "own-unknown-component"])
def test_structural_violation_rejected(mutate, code):
    doc = base_doc()
    mutate(doc)
    assert code in violation_codes(doc)


def test_chained_gap_launched_early_rejected():
    """The high side of a chained gap stays active until its source
    realizes; starting it as launch is premature."""
    assert violation_codes(chain_doc("active")) == []
    assert violation_codes(chain_doc("launch")) == ["premature-launch"]


def test_multiple_feeds_warn():
    """Two sources feeding one launch component validate, with a warning."""
    doc = base_doc()
    doc["dim"] = 3
    doc["components"].append({"id": 2, "indices": [2], "entropy_rank": 0,
                              "status": "active"})
    doc["gaps"].append({"low": 2, "high": 1, "entries": [[1, 2, 1.0, 0.0]]})
    doc["psi0"].append([1.0, 0.0])
    report = validate_model(parse_scenario(json.dumps(doc)))
    assert report.ok
    assert [v.code for v in report.warnings] == ["multi-feed"]


@pytest.mark.parametrize("key, value, message", [
    ("dt", -1.0, "dt must be > 0"),
    ("rules", "nrules5", "unknown rules variant 'nrules5'"),
    ("gap_mode", "open", "unknown gap_mode 'open'"),
    ("sample_every", 0, "sample_every must be >= 1"),
])
def test_bad_defaults_rejected(key, value, message):
    doc = base_doc()
    doc["defaults"][key] = value
    assert violation_codes(doc) == ["defaults"]
    assert any(message in m for m in violation_messages(doc))


def test_load_scenario_raises_on_invalid():
    doc = base_doc()
    doc["components"][1]["indices"] = [0]
    with pytest.raises(ScenarioValidationError):
        load_scenario(json.dumps(doc))


def test_report_render_mentions_location():
    doc = base_doc()
    doc["components"][1]["indices"] = [0]
    model = parse_scenario(json.dumps(doc))
    rendered = validate_model(model).render()
    assert "components overlap" in rendered


# ---------------------------------------------------------------------------
# Model helpers
# ---------------------------------------------------------------------------


def test_psi0_is_read_only(two_level_model):
    with pytest.raises(ValueError):
        two_level_model.psi0[0] = 0.0


def test_project_extracts_component(three_mode_model):
    psi = np.arange(4, dtype=complex) + 1.0
    piece = project(psi, 2, three_mode_model)
    expected = np.zeros(4, dtype=complex)
    expected[2] = psi[2]
    assert np.array_equal(piece, expected)


def test_square_modulus_matches_norm(three_mode_model):
    psi = np.array([0.5, 0.5j, -0.5, 0.5j])
    assert square_modulus(psi) == pytest.approx(1.0)
    moduli = component_moduli(psi[None, :], three_mode_model)[0]
    assert moduli.sum() == pytest.approx(1.0)
    assert moduli[0] == pytest.approx(0.25)


def test_full_hamiltonian_is_hermitian(detuned_model, chain_model):
    for model in (detuned_model, chain_model):
        h = full_hamiltonian(model).toarray()
        assert np.allclose(h, h.conj().T, atol=1e-15)


def test_full_hamiltonian_includes_own_and_gaps(detuned_model):
    h = full_hamiltonian(detuned_model).toarray()
    assert h[0, 0] == pytest.approx(1.5)
    assert h[1, 0] == pytest.approx(0.5)
    assert h[0, 1] == pytest.approx(0.5)


def test_initial_statuses(chain_model):
    statuses = chain_model.initial_statuses()
    assert statuses[0] == ACTIVE
    assert statuses[1] == LAUNCH


def test_operator_block_adjoint():
    block = OperatorBlock(2, ((1, 0, 1.0 + 2.0j),))
    assert adjoint_entries(block) == ((0, 1, 1.0 - 2.0j),)


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

amplitudes = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=3.0, allow_nan=False, allow_infinity=False)


@given(g=amplitudes.filter(lambda z: abs(z) > 1e-6), e=st.floats(-5, 5))
@settings(max_examples=50, deadline=None)
def test_random_two_level_round_trips(g, e):
    doc = base_doc()
    doc["gaps"][0]["entries"] = [[1, 0, g.real, g.imag]]
    doc["own"] = [{"component": 1, "entries": [[1, 1, e, 0.0]]}]
    model = load_scenario(json.dumps(doc))
    assert load_scenario(serialize_scenario(model)) == model


@given(ranks=st.lists(st.integers(-3, 3), min_size=2, max_size=2, unique=True))
@settings(max_examples=30, deadline=None)
def test_gap_direction_must_match_rank_order(ranks):
    doc = base_doc()
    doc["components"][0]["entropy_rank"] = ranks[0]
    doc["components"][1]["entropy_rank"] = ranks[1]
    messages = violation_messages(doc)
    if ranks[0] < ranks[1]:
        assert not any("entropy" in m for m in messages)
    else:
        assert any("gap not entropy-increasing" in m for m in messages)


@given(psi=st.lists(amplitudes, min_size=4, max_size=4))
@settings(max_examples=50, deadline=None)
def test_component_moduli_partition_norm(psi):
    model = BUILDERS["three_mode"]()
    vec = np.array(psi, dtype=complex)
    moduli = component_moduli(vec[None, :], model)[0]
    assert moduli.sum() == pytest.approx(square_modulus(vec), rel=1e-12, abs=1e-12)


def test_component_moduli_add_each_component_as_its_own_sum():
    """One sum per component size gives, bit for bit, the sum over each
    component alone, for components of 1 to 300 indices in shuffled order."""
    rng = np.random.default_rng(3)
    sizes = [1, 2, 3, 7, 8, 9, 17, 2, 128, 129, 300, 1, 9]
    perm = rng.permutation(sum(sizes))
    parts = np.split(perm, np.cumsum(sizes)[:-1])
    components = tuple(Component(k, tuple(part.tolist()), 0, ACTIVE)
                       for k, part in enumerate(parts))
    model = ScenarioModel(len(perm), components, HamiltonianPartition({}, ()),
                          np.ones(len(perm)))
    states = (rng.normal(size=(40, len(perm))) + 1j * rng.normal(size=(40, len(perm)))) \
        * 10.0 ** rng.uniform(-6, 6, size=(40, len(perm)))
    sq = (states.conj() * states).real
    want = np.stack([sq[:, part].sum(axis=1) for part in parts], axis=1)
    assert component_moduli(states, model).tobytes() == want.tobytes()


def test_index_arrays_are_read_only_views():
    model = BUILDERS["chain_three_level"]()
    arrays = model.index_arrays
    assert {k: v.tolist() for k, v in arrays.items()} == {0: [0], 1: [1], 2: [2]}
    assert all(a.dtype == np.intp and not a.flags.writeable for a in arrays.values())


@pytest.mark.parametrize("dim, indices, message", [
    (4, ([0], [3]), "basis indices [1, 2] belong to no component"),
    (22, ([0], [1]), "basis indices [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, "
                     "18, 19, 20, 21] belong to no component"),
    (24, ([0], [5]), "22 basis indices belong to no component, the first 20: "
                     "[1, 2, 3, 4, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21]"),
    (10**13, ([0], [1]), f"{10**13 - 2} basis indices belong to no component, the first 20: "
                         f"{list(range(2, 22))}"),
])
def test_coverage_lists_at_most_twenty_missing_indices(dim, indices, message):
    """Coverage is counted from the components' indices, so a dim far beyond
    the document (10**13 here) allocates nothing sized by it; up to 20
    uncovered indices are listed, more are counted."""
    doc = base_doc()
    doc["dim"] = dim
    for component, idx in zip(doc["components"], indices):
        component["indices"] = idx
    assert message in violation_messages(doc)
