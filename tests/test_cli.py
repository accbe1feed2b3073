import io
import json
from pathlib import Path

import pytest

from mrb import cli

GOLDEN = Path(__file__).parent / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())


def run_cli(argv):
    buf = io.StringIO()
    code = cli.main([str(GOLDEN / a) if a.startswith("inputs/") else a for a in argv],
                    stdout=buf)
    return code, buf.getvalue()


@pytest.mark.parametrize("entry", MANIFEST, ids=[e["name"] for e in MANIFEST])
def test_golden_byte_identical(entry):
    code1, out1 = run_cli(entry["argv"])
    code2, out2 = run_cli(entry["argv"])
    assert out1 == out2, "two consecutive runs differ"
    assert code1 == code2 == entry["exit"]
    stored = (GOLDEN / "expected" / f"{entry['name']}.json").read_text()
    assert out1 == stored, "output drifted from the stored golden file"


def test_manifest_size():
    assert len(MANIFEST) >= 20


def test_exit_codes_cover_all_classes():
    codes = {e["exit"] for e in MANIFEST}
    assert codes == {0, 1, 2}


def test_missing_file_is_input_error():
    code, out = run_cli(["check-module", "inputs/no_such_file.json"])
    assert code == 2
    assert "error" in json.loads(out)


def test_reports_are_json(tmp_path):
    for entry in MANIFEST:
        text = (GOLDEN / "expected" / f"{entry['name']}.json").read_text()
        json.loads(text)


def test_pretty_flag_changes_rendering_only():
    code_c, compact = run_cli(["mc", "inputs/regular_left_sp12.json"])
    code_p, pretty = run_cli(["mc", "inputs/regular_left_sp12.json", "--pretty"])
    assert code_c == code_p == 0
    assert compact != pretty
    assert json.loads(compact) == json.loads(pretty)


def test_misweighted_instance_reports_residual():
    code, out = run_cli(["check-algebra", "inputs/misweighted.json"])
    assert code == 1
    doc = json.loads(out)
    violations = doc["identity"]["violations"]
    assert violations
    assert all("residual" in v for v in violations)


def test_normalize_agrees_with_library():
    from mrb.core import scaled_projection
    from mrb.opring import OperatorRing
    from mrb.parser import bind_op_expression, parse_expression, print_op_element

    ring = OperatorRing(scaled_projection((1, 2)))
    expr_text = "3/2 * (e1 Q[1] e2) - e2"
    code, out = run_cli(["normalize", "scaled_projection(1,2)", expr_text])
    assert code == 0
    doc = json.loads(out)
    element = bind_op_expression(parse_expression(expr_text), ring)
    report = ring.normalize(element)
    assert doc["normal_form"] == print_op_element(report.output, ring.inst)
    assert doc["applications"] == report.applications


def test_generator_is_idempotent(tmp_path, monkeypatch):
    # regenerating the corpus must not change any committed file
    import subprocess
    import sys
    before = {
        p.relative_to(GOLDEN): p.read_bytes()
        for p in sorted(GOLDEN.rglob("*.json"))
    }
    subprocess.run([sys.executable, str(GOLDEN / "_generate.py")],
                   check=True, capture_output=True)
    after = {
        p.relative_to(GOLDEN): p.read_bytes()
        for p in sorted(GOLDEN.rglob("*.json"))
    }
    assert before == after


# The two module syntaxes keep their own term order: bracketed words print
# word-major, dotted words by depth and then generator.
MULTI_GENERATOR_REPORTS = [
    (
        "e1 Q[1] e2 : y + 2 * (e2 Q[2] e1 : x) + e1 : y + e2 : x",
        '{"applications":0,"command":"normalize",'
        '"input":"(e1 : y) + (e2 : x) + (e1 Q[1] e2 : y) + 2 * (e2 Q[2] e1 : x)",'
        '"normal_form":"(e1 : y) + (e2 : x) + (e1 Q[1] e2 : y) + 4 * (e2 Q[1] e1 : x)",'
        '"strategy":"leftmost-innermost"}\n',
    ),
    (
        "e1 . 1 . e2 : y + 2 * (e2 . 2 . e1 : x) + e1 : y + e2 : x",
        '{"applications":0,"command":"normalize",'
        '"input":"(e2 : x) + (e1 : y) + 2 * (e2 . 2 . e1 : x) + (e1 . 1 . e2 : y)",'
        '"normal_form":"(e2 : x) + (e1 : y) + 4 * (e2 . 1 . e1 : x) + (e1 . 1 . e2 : y)",'
        '"strategy":"leftmost-innermost"}\n',
    ),
]


@pytest.mark.parametrize("expression,report", MULTI_GENERATOR_REPORTS)
def test_multi_generator_term_order_pinned(expression, report):
    assert run_cli(["normalize", "scaled_projection(1,2)", expression]) == (0, report)


def test_input_errors_exit_2_with_json_error(tmp_path):
    not_an_object = tmp_path / "list.json"
    not_an_object.write_text("[1, 2]")
    cases = [
        (["check-module", str(not_an_object)],
         f"malformed module document {not_an_object}: a module document must be a JSON object"),
        (["lift", str(not_an_object), str(not_an_object)],
         f"malformed hom document {not_an_object}: not a JSON object"),
        (["quotient", "inputs/regular_left_sp12.json", "[[1,2,3]]"],
         "relations must be a JSON array of length-2 vectors"),
        (["quotient", "inputs/regular_left_sp12.json", "{}"],
         "relations must be a JSON array of length-2 vectors"),
        (["oracle", "scaled_projection(1,2)", "--max-qdegree", "-2"],
         "--max-qdegree must be nonnegative"),
        (["confluence", "scaled_projection(1,2)", "--max-qdegree", "-1"],
         "--max-qdegree must be nonnegative"),
        (["normalize", "scaled_projection(1,2)", "e9 Q[1] e2"],
         "unknown basis label 'e9'"),
        (["normalize", "scaled_projection(1,2)", "e1 . 9 . e2 : x"],
         "unknown operator label '9'"),
        (["check-algebra", "no_such_instance"],
         "unknown catalog instance 'no_such_instance'"),
    ]
    for argv, message in cases:
        code, out = run_cli(argv)
        assert (code, json.loads(out)) == (2, {"command": argv[0], "error": message}), argv
