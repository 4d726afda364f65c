"""Loader fuzz: a mutated config file, `--expected` file or diagram document
either loads or raises InputError, which the command line reports with exit
code 2.  A diagram that loads is validated, and validation returns a report
without raising."""

import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from burnlab import cli
from burnlab.diagrams import Diagram, ValidationReport, check_condition_A, validate_diagram
from burnlab.errors import InputError

from diagram_corpus import presentations
from fuzz_docs import DELETE, doc_paths, json_values, mutated

DIAGRAM = Path(__file__).parent / "data" / "diagrams" / "c05-glued-two-thirds.json"

VALID_CONFIG = json.loads(json.dumps(cli._DEFAULTS))
VALID_CONFIG.update(seed=7, budget={"max_ball_radius": 4, "max_relator_applications": 500})
VALID_EXPECTED = {"c01-cell-s1cubed": {"ok": True, "A": {"A1": "pass", "A2": "fail",
                                                         "A3": "pass"}},
                  "c08-invalid-label": {"ok": False}}
VALID_DIAGRAM = json.loads(DIAGRAM.read_text())
# the document's own edge and vertex ids, so that mutations can rewire it
DIAGRAM_IDS = sorted({e["id"] for e in VALID_DIAGRAM["edges"]} | set(VALID_DIAGRAM["vertices"]))


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


@pytest.fixture(scope="module")
def k3m1r1():
    return presentations()["k3m1r1"]


def test_unmutated_documents_load(fuzz_file, k3m1r1):
    fuzz_file.write_text(json.dumps(VALID_CONFIG))
    cfg = cli.load_config(cli.build_parser().parse_args(
        ["build", "--max-rank", "0", "--config", str(fuzz_file)]))
    assert cfg.seed == 7 and cfg.budget.max_relator_applications == 500
    fuzz_file.write_text(json.dumps(VALID_EXPECTED))
    assert cli._read_expected(str(fuzz_file))["c08-invalid-label"] == (False, None)
    assert validate_diagram(Diagram.from_dict(VALID_DIAGRAM), k3m1r1).ok


@given(path=st.sampled_from(list(doc_paths(VALID_CONFIG))),
       value=json_values | st.just(DELETE))
@example(path=("params", "alpha"), value="1e-100000000")
@example(path=("m",), value=10 ** 30)
@settings(max_examples=300, deadline=None)
def test_mutated_config_loads_or_raises_input_error(fuzz_file, path, value):
    fuzz_file.write_text(json.dumps(mutated(VALID_CONFIG, path, value)))
    args = cli.build_parser().parse_args(["build", "--max-rank", "0", "--config", str(fuzz_file)])
    try:
        cli.load_config(args)
    except InputError:
        pass


@given(path=st.sampled_from(list(doc_paths(VALID_EXPECTED))),
       value=json_values | st.just(DELETE))
@settings(max_examples=300, deadline=None)
def test_mutated_expected_file_loads_or_raises_input_error(fuzz_file, path, value):
    fuzz_file.write_text(json.dumps(mutated(VALID_EXPECTED, path, value)))
    try:
        cli._read_expected(str(fuzz_file))
    except InputError:
        pass


@given(path=st.sampled_from(list(doc_paths(VALID_DIAGRAM))),
       value=json_values | st.sampled_from(DIAGRAM_IDS) | st.just(DELETE))
@settings(max_examples=300, deadline=None)
def test_mutated_diagram_loads_or_raises_input_error(k3m1r1, path, value):
    try:
        diagram = Diagram.from_json(json.dumps(mutated(VALID_DIAGRAM, path, value)))
    except InputError:
        return
    report = validate_diagram(diagram, k3m1r1)
    assert isinstance(report, ValidationReport)
    if report.ok:
        check_condition_A(diagram, k3m1r1, report)
