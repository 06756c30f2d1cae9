"""Golden `gapflow validate` outcomes: mutated documents, pinned.

``golden_validation.json`` was written by running this module
(``python tests/test_golden_validation.py``) against the source of commit
5e3b4c5, the last commit where ``parse_scenario`` checked each gap entry and
``validate_model`` each gap's support through per-gap Python helpers. The
bulk code that replaced them must report what those helpers reported.

Two groups of documents, each one value deleted or replaced by one of
``test_cli.MUTANTS``:

* ``fixture``: every value of every shipped fixture (``test_cli.MUTATION_SITES``);
* ``star``: ``low``, ``high``, ``irreversible`` and each field of
  ``entries[0]`` of gaps 0, 255 and 510 of ``star_model(511)``'s canonical
  document, so a fault deep inside a wide model is found where it lies.

An outcome is ``gapflow validate``'s exit code and standard output. The file
stores each distinct output once, in ``outputs``; a case names its code and
the index of its output.
"""

import contextlib
import copy
import io
import json
import pathlib
import sys
import tempfile

import pytest

from gapflow.cli import main
from gapflow.model import serialize_scenario

from conftest import star_model
from test_cli import DELETE, FIXTURE_DOCS, MUTANTS, MUTATION_SITES

GOLDEN = pathlib.Path(__file__).with_name("golden_validation.json")
STAR_GAPS = (0, 255, 510)
STAR_FIELDS = (("low",), ("high",), ("irreversible",)) + tuple(
    ("entries", 0, j) for j in range(4))


def label(value) -> str:
    return "delete" if value is DELETE else json.dumps(value)


def mutated(node, path, value):
    """A copy of ``node`` with the value at ``path`` deleted or replaced by
    ``value``; only the containers along ``path`` are copied."""
    node = copy.copy(node)
    key = path[0]
    if len(path) > 1:
        node[key] = mutated(node[key], path[1:], value)
    elif value is DELETE:
        del node[key]
    else:
        node[key] = value
    return node


def cases(group):
    """(key, document) of every mutated document of ``group``."""
    if group == "fixture":
        sites = [(name, FIXTURE_DOCS[name], path) for name, path in MUTATION_SITES]
    else:
        star = json.loads(serialize_scenario(star_model(511)))
        sites = [("star511", star, ("gaps", k) + field)
                 for k in STAR_GAPS for field in STAR_FIELDS]
    for name, doc, path in sites:
        for value in MUTANTS:
            key = f"{name}/{'/'.join(map(str, path))}={label(value)}"
            yield key, mutated(doc, path, value)


def outcomes(group) -> dict[str, tuple[int, str]]:
    """Key -> (exit code, stdout) of ``gapflow validate`` on each case."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        scenario = pathlib.Path(tmp) / "mutant.json"
        for key, doc in cases(group):
            scenario.write_text(json.dumps(doc))
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main(["validate", "--scenario", str(scenario)])
            out[key] = (code, stdout.getvalue())
    return out


@pytest.fixture(scope="module")
def golden():
    table = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {key: (code, table["outputs"][index])
            for key, (code, index) in table["cases"].items()}


def test_golden_table_covers_every_case(golden):
    keys = [key for group in ("fixture", "star") for key, _ in cases(group)]
    assert len(keys) == len(set(keys)) == len(golden)
    assert set(keys) == set(golden)
    assert len(MUTATION_SITES) * len(MUTANTS) == sum(k.split("/")[0] != "star511" for k in keys)


@pytest.mark.parametrize("group", ["fixture", "star"])
def test_validate_reproduces_golden_outcomes(golden, group):
    got = outcomes(group)
    changed = {key: (golden[key], outcome) for key, outcome in got.items()
               if outcome != golden[key]}
    assert not changed, f"{len(changed)} outcome(s) changed, first: {next(iter(changed.items()))}"


def test_star_faults_are_found_where_they_lie(golden):
    """A deep fault is reported with its own gap's index, not gap 0's."""
    code, text = golden["star511/gaps/510/entries/0/0=-1"]
    assert code == 1 and "gap 510 (0->511)" in text
    code, text = golden["star511/gaps/255/entries/0/2=null"]
    assert code == 1 and "gaps[255].entries[0]" in text


def write_golden():
    table = {key: outcome for group in ("fixture", "star")
             for key, outcome in outcomes(group).items()}
    outputs = sorted({text for _, text in table.values()})
    index = {text: i for i, text in enumerate(outputs)}
    cases_text = ",\n".join(f"    {json.dumps(key)}: [{code}, {index[text]}]"
                            for key, (code, text) in table.items())
    text = ('{\n  "outputs": ' + json.dumps(outputs, indent=2).replace("\n", "\n  ")
            + ',\n  "cases": {\n' + cases_text + "\n  }\n}\n")
    GOLDEN.write_text(text, encoding="utf-8")
    assert {k: (c, json.loads(text)["outputs"][i])
            for k, (c, i) in json.loads(text)["cases"].items()} == table
    print(f"{len(table)} cases, {len(outputs)} distinct outputs", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(write_golden())
