import copy
import io
import json
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mrb import cli, core, modules, opring

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


TOO_DEEP = "input nested too deeply"


def test_zero_denominators_and_deep_input_exit_2_with_a_json_error(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    cases = [
        (["normalize", "scaled_projection(1,2)", "1/0 * e1"],
         "zero denominator in 1/0 at line 1, column 1"),
        (["normalize", "scaled_projection(1,2)", "e1 . 1 . e2 : x - 2/0 * e2 : x"],
         "zero denominator in 2/0 at line 1, column 19"),
        (["quotient", "inputs/regular_left_sp12.json", "[" * 100000], TOO_DEEP),
        (["check-module", str(deep)], TOO_DEEP),
    ]
    for argv, error in cases:
        assert run_cli(argv) == (2, json.dumps({"command": argv[0], "error": error},
                                               separators=(",", ":")) + "\n"), argv[:2]


def test_long_words_normalize_and_a_count_past_the_digit_limit_is_a_json_error():
    # 5,000 alternating letters: normal form 2^2500 e1 Q[1] e1, and a
    # reduction tree of F(5002) - 2 contractions, F the Fibonacci numbers
    fib = [0, 1]
    while len(fib) < 5003:
        fib.append(fib[-1] + fib[-2])
    code, out = run_cli(["normalize", "scaled_projection(1,2)", "e1" + " Q[1] e1 Q[2] e1" * 2500])
    report = json.loads(out)
    assert code == 0 and report["normal_form"] == f"{2 ** 2500} * (e1 Q[1] e1)"
    assert report["applications"] == fib[5002] - 2
    # at 22,000 letters the count, F(22002) - 2, has 4,598 digits, more than
    # Python prints: an input error, as a budget would be
    code, out = run_cli(["normalize", "scaled_projection(1,2)", "e1" + " Q[1] e1 Q[2] e1" * 11000])
    assert code == 2 and out.count("\n") == 1
    assert json.loads(out)["error"] == ("reduction tree too large to print: 4598 digits in its "
                                        "count of applications, limit 4300")


def test_a_literal_past_the_digit_limit_is_an_input_error_at_its_position():
    # Python converts no int of more than sys.get_int_max_str_digits() digits
    limit = sys.get_int_max_str_digits()
    long = "1" * (limit + 700)
    too_long = f"rational literal too long: {limit + 700} digits, limit {limit}"
    cases = [
        (["normalize", "scaled_projection(1)", f"{long} * e1 Q[1] e1 : x"],
         f"{too_long} at line 1, column 1"),
        (["normalize", "scaled_projection(1)", f"e1 . 1 . e1 : x\n - 2/{long} * e1 : x"],
         f"{too_long} at line 2, column 4"),
        (["reweight", "scaled_projection(1,2)", json.dumps({"1": {"1": "1", "2": f"-{long}"}})],
         f"malformed reweight spec: {too_long}"),
    ]
    for argv, error in cases:
        assert run_cli(argv) == (2, json.dumps({"command": argv[0], "error": error},
                                               separators=(",", ":")) + "\n"), argv[2][:20]
    # a literal at the limit is read
    code, out = run_cli(["normalize", "scaled_projection(1)", f"{'1' * limit} * e1 : x"])
    assert code == 0 and json.loads(out)["normal_form"] == f"{'1' * limit} * (e1 : x)"


@pytest.mark.parametrize("where", ["reweight spec", "relations", "module document"])
def test_a_bare_json_integer_past_the_digit_limit_is_an_input_error(where, tmp_path):
    # json.loads raises a plain ValueError, not a JSONDecodeError, for it
    limit = sys.get_int_max_str_digits()
    long = "1" * (limit + 700)
    doc = (GOLDEN / "inputs" / "regular_left_sp12.json").read_text()
    path = tmp_path / "long_dim.json"
    path.write_text(re.sub(r'"dim": ?\d+', f'"dim": {long}', doc, count=1))
    argv, source = {
        "reweight spec": (["reweight", "scaled_projection(1,2)", f'{{"1": {{"1": {long}}}}}'],
                          "reweight spec"),
        "relations": (["quotient", "inputs/regular_left_sp12.json", f"[[{long}, 0]]"],
                      "relations"),
        "module document": (["check-module", str(path)], str(path)),
    }[where]
    code, out = run_cli(argv)
    assert code == 2 and out.count("\n") == 1
    assert json.loads(out)["error"].startswith(
        f"invalid JSON in {source}: Exceeds the limit ({limit} digits)")


def test_digit_counts_are_exact_at_powers_of_ten():
    # read off a float logarithm, which can be off by one next to 10^k
    for k in (1, 2, 15, 16, 17, 22, 300, 4300, 5000):
        assert (cli._digits(10 ** k - 1), cli._digits(10 ** k), cli._digits(10 ** k + 1)) \
            == (k, k + 1, k + 1)


def test_an_expression_with_a_leading_minus_is_the_expression():
    spaced = run_cli(["normalize", "scaled_projection(1,2)", "-2 * e1"])
    assert spaced[0] == 0
    for argv in (["normalize", "scaled_projection(1,2)", "-2*e1"],
                 ["normalize", "scaled_projection(1,2)", "-2*e1", "--pretty"],
                 ["normalize", "--pretty", "scaled_projection(1,2)", "-2*e1"],
                 ["normalize", "scaled_projection(1,2)", "--", "-2*e1"]):
        code, out = run_cli(argv)
        assert code == 0 and json.loads(out) == json.loads(spaced[1]), argv
    # the expression parser, not the argument parser, rejects what it cannot read
    assert run_cli(["normalize", "scaled_projection(1,2)", "-e1"]) == (2, json.dumps(
        {"command": "normalize", "error": "expected rational coefficient at line 1, column 2"},
        separators=(",", ":")) + "\n")
    assert run_cli(["confluence", "--max-qdegree", "-1", "scaled_projection(1,2)"])[0] == 2


def test_a_word_in_deep_parentheses_normalizes_as_the_bare_word():
    word = "e1 Q[1] e2 Q[2] e1"
    assert run_cli(["normalize", "scaled_projection(1,2)", "(" * 1200 + word + ")" * 1200]) \
        == run_cli(["normalize", "scaled_projection(1,2)", word])


# the expression grammar's tokens, broken ones, zero denominators and
# characters no token starts with
FRAGMENTS = ["e1", "e2", "e3", "Q[1]", "Q[2]", "Q[3]", "Q[", "]", "Q[]", "0", "1", "2", "3/2",
             "1/0", "/0", "07", "*", "+", "-", "(", ")", ".", ":", "x", "y", " ", "\n", "#", "\u00e9"]
TOKEN_LISTS = st.lists(st.sampled_from(FRAGMENTS), max_size=20)
# sums of terms, some of them well formed, some with a zero denominator
TERMS = st.tuples(st.sampled_from(["", "3/2 * ", "-2 * ", "1/0 * ", "- 07/00 * ", "-2*", "-1/2*",
                                   "-"]),
                  st.sampled_from(["e1", "e2 Q[1] e1", "(e1 Q[2] e2 Q[1] e2)", "e1 . 1 . e2 : x",
                                   "e2 : y", "e3", "e1 Q[1]"])).map("".join)
EXPRESSIONS = st.one_of(
    TOKEN_LISTS.map(" ".join), TOKEN_LISTS.map("".join),
    st.lists(TERMS, min_size=1, max_size=6).map(" + \n".join),
    st.text(alphabet="eQxy120/[]()+-*.:#\u00e9 \n\t", max_size=30),
    st.tuples(st.integers(0, 1500), TOKEN_LISTS.map(" ".join), st.integers(0, 1500)).map(
        lambda t: "(" * t[0] + t[1] + ")" * t[2]),
    st.integers(0, 1500).map(lambda n: "e1" + " Q[1] e2" * n),
)


@settings(max_examples=300, deadline=None)
@given(EXPRESSIONS)
def test_normalize_answers_any_text_with_one_json_line(text):
    buf = io.StringIO()
    code = cli.main(["normalize", "scaled_projection(1,2)", text], stdout=buf)
    out = buf.getvalue()
    assert code in (0, 1, 2)
    assert out.endswith("\n") and out.count("\n") == 1
    assert json.loads(out)["command"] == "normalize"
    # only a leading "--" is read as an option, never as the expression
    if not text.startswith("--"):
        assert "the following arguments are required" not in out


def test_confluence_budget_is_reported_as_an_input_error(monkeypatch):
    def exhausted(ring, max_qdegree):
        raise opring.BudgetExceeded(50000, 65536)

    monkeypatch.setattr(opring.OperatorRing, "confluence_probe", exhausted)
    code, out = run_cli(["confluence", "scaled_projection(1,2)"])
    assert code == 2
    assert json.loads(out) == {
        "command": "confluence",
        "error": "confluence search budget exceeded: 65536 combinations of normal forms "
                 "at one redex, budget 50000",
    }


def test_confluence_probe_under_its_word_budget_runs(monkeypatch):
    # upper_triangular(1,2) at k = 6 holds 167,832 words of q_degree 3..6:
    # the probe lists them, here as none, and the verb reports exit 0
    listed = []

    def basis_words(ring, max_qdegree, min_qdegree=0):
        listed.append((min_qdegree, max_qdegree))
        return []

    monkeypatch.setattr(opring.OperatorRing, "basis_words", basis_words)
    code, out = run_cli(["confluence", "upper_triangular(1,2)", "--max-qdegree", "6"])
    assert (code, listed) == (0, [(3, 6)])
    assert json.loads(out)["probed"] == 0


def test_input_errors_exit_2_with_json_error(tmp_path):
    not_an_object = tmp_path / "list.json"
    not_an_object.write_text("[1, 2]")
    regular = json.loads((GOLDEN / "inputs" / "regular_right_sp12.json").read_text())
    bad_side = tmp_path / "bad_side.json"
    bad_side.write_text(json.dumps({**regular, "side": "top"}))
    bad_matrix = tmp_path / "bad_matrix.json"
    bad_matrix.write_text(json.dumps({"source": regular, "target": regular, "matrix": 5}))
    bad_dim = tmp_path / "bad_dim.json"
    bad_dim.write_text(json.dumps({"action": [], "dim": "x", "instance": "scaled_projection(1,2)"}))
    # a dim that is not a JSON integer, in a module and in an instance
    # document; int() would read each as the true dimension
    upper = json.loads((GOLDEN / "inputs" / "upper_triangular.json").read_text())
    bad_dims = []
    for k, (module_dim, instance_dim) in enumerate(((2.9, 3.7), (True, True), ("2", "3"))):
        mod, inst = tmp_path / f"dim_module{k}.json", tmp_path / f"dim_instance{k}.json"
        mod.write_text(json.dumps({**regular, "dim": module_dim}))
        inst.write_text(json.dumps({**upper, "dim": instance_dim}))
        bad_dims += [
            (["check-module", str(mod)],
             f"malformed module document {mod}: dim must be a JSON integer; got {module_dim!r}"),
            (["check-algebra", str(inst)],
             f"malformed instance document: dim must be a JSON integer; got {instance_dim!r}")]
    bad_action = tmp_path / "bad_action.json"
    bad_action.write_text(json.dumps({**regular, "action": 5}))
    bad_source = tmp_path / "bad_source.json"
    bad_source.write_text(json.dumps({"source": {**regular, "action": 5}, "target": regular,
                                      "matrix": [[1, 0], [0, 1]]}))
    bimodule = json.loads((GOLDEN / "inputs" / "regular_bimodule_sp12.json").read_text())
    bimodule_hom = tmp_path / "bimodule_hom.json"
    bimodule_hom.write_text(json.dumps({"source": bimodule, "target": bimodule,
                                        "matrix": [[1, 0], [0, 1]]}))

    def perturbed(instance):
        # one operator entry and one weight changed: the identity fails
        operators = {**instance["operators"], "1": [["3", "0"], ["0", "0"]]}
        return {**instance, "operators": operators, "weights": {**instance["weights"], "1": "-1"}}

    left = json.loads((GOLDEN / "inputs" / "regular_left_sp12.json").read_text())
    bad_identity = tmp_path / "bad_identity.json"
    bad_identity.write_text(json.dumps({**left, "instance": perturbed(left["instance"])}))
    bad_right_identity = tmp_path / "bad_right_identity.json"
    bad_right_identity.write_text(json.dumps(
        {**bimodule, "right_instance": perturbed(bimodule["right_instance"])}))
    bad_right_operator = tmp_path / "bad_right_operator.json"
    bad_right_operator.write_text(json.dumps({**bimodule, "right_operators": {
        **bimodule["right_operators"], "1": [["1"]]}}))
    bad_left_operator = tmp_path / "bad_left_operator.json"
    bad_left_operator.write_text(json.dumps({**bimodule, "operators": {
        **bimodule["operators"], "2": [["1"]]}}))

    # modules over another instance, and homs that do not fit together
    sp13 = core.catalog_instance("scaled_projection(1,3)")
    right13, left13 = tmp_path / "right13.json", tmp_path / "left13.json"
    right13.write_text(json.dumps(modules.module_to_json(modules.regular_right_module(sp13))))
    left13.write_text(json.dumps(modules.module_to_json(modules.regular_left_module(sp13))))
    identity13 = tmp_path / "identity13.json"
    identity13.write_text(json.dumps({"source": json.loads(left13.read_text()),
                                      "target": json.loads(left13.read_text()),
                                      "matrix": [["1", "0"], ["0", "1"]]}))
    identity_right = tmp_path / "identity_right.json"
    identity_right.write_text(json.dumps({"source": regular, "target": regular,
                                          "matrix": [["1", "0"], ["0", "1"]]}))
    cases = [
        (["check-module", str(bad_side)],
         f"malformed module document {bad_side}: unknown module side 'top'"),
        (["reweight", "scaled_projection(1,2)", "[1]"],
         "malformed reweight spec: a reweight spec must map each new label to an object of coefficients"),
        (["lift", str(bad_matrix), str(bad_matrix)],
         f"malformed hom document {bad_matrix}: matrix must be a JSON array of rows"),
        (["reweight", str(bad_dim), '{"1": {"1": "1"}}'],
         f"malformed module document {bad_dim}: dim must be a JSON integer; got 'x'"),
        *bad_dims,
        (["quotient", "inputs/regular_left_sp12.json", '[["a", 1]]'],
         "malformed relations: not a rational literal: 'a'"),
        (["quotient", "inputs/regular_left_sp12.json", "[[0.5, 1]]"],
         "malformed relations: cannot interpret 0.5 as an exact rational"),
        (["reweight", "scaled_projection(1,2)", "{}"],
         "malformed reweight spec: reweight spec must be nonempty"),
        (["reweight", "scaled_projection(1,2)", '{"1": {"1": 0.5}}'],
         "malformed reweight spec: cannot interpret 0.5 as an exact rational"),
        (["check-module", str(bad_action)],
         f"malformed module document {bad_action}: 'int' object is not iterable"),
        (["lift", str(bad_source), str(bad_source)],
         f"malformed hom document {bad_source}: 'int' object is not iterable"),
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
        (["oracle", "upper_triangular(1,2)", "--max-qdegree", "8"],
         "oracle budget exceeded: 6046617 words in the truncation, budget 200000"),
        (["confluence", "scaled_projection(1,2)", "--max-qdegree", "-1"],
         "--max-qdegree must be nonnegative"),
        (["confluence", "upper_triangular(1,2)", "--max-qdegree", "7"],
         "confluence probe budget exceeded: 1007640 words of q_degree 3 and more, "
         "budget 200000"),
        (["normalize", "scaled_projection(1,2)", "e9 Q[1] e2"],
         "unknown basis label 'e9'"),
        (["normalize", "scaled_projection(1,2)", "e1 . 9 . e2 : x"],
         "unknown operator label '9'"),
        (["normalize", "scaled_projection(1)", "e1 Q[1] e1 : x + e1"],
         "cannot mix ring words and module words in one expression"),
        (["normalize", "scaled_projection(1)", "e1 . 1 . e1 : x + e1 Q[1] e1"],
         "bracketed letters are not mixable-tensor syntax"),
        (["normalize", "scaled_projection(1)", "e1 . 1 . e1 : x + e1"],
         "mixable-tensor words require a generator"),
        (["check-algebra", "no_such_instance"],
         "unknown catalog instance 'no_such_instance'"),
        (["mc", str(bad_identity)],
         f"malformed module document {bad_identity}: "
         "instance fails the identity checker; run check-algebra"),
        (["hom", str(bad_identity), str(bad_identity)],
         f"malformed module document {bad_identity}: "
         "instance fails the identity checker; run check-algebra"),
        (["check-module", str(bad_right_identity)],
         f"malformed module document {bad_right_identity}: "
         "right_instance fails the identity checker; run check-algebra"),
        (["lift", str(bimodule_hom), str(bimodule_hom)],
         f"malformed hom document {bimodule_hom}: source and target must be one-sided modules"),
        (["check-algebra", "scaled_projection(0)"],
         "zero coefficients are rejected; they degenerate to the trivial family"),
        (["tensor", "inputs/regular_left_sp12.json", "inputs/regular_left_sp12.json"],
         f"{GOLDEN / 'inputs/regular_left_sp12.json'} holds a left module; expected a right module"),
        (["adjunction", "inputs/regular_right_sp12.json", "inputs/regular_right_sp12.json",
          "inputs/regular_right_sp12.json"],
         f"{GOLDEN / 'inputs/regular_right_sp12.json'} holds a right module; expected a bimodule"),
        (["mc", "inputs/regular_right_sp12.json"],
         f"{GOLDEN / 'inputs/regular_right_sp12.json'} holds a right module; expected a left module"),
        (["direct-sum", "inputs/regular_bimodule_sp12.json"],
         f"{GOLDEN / 'inputs/regular_bimodule_sp12.json'} holds a bimodule; "
         "expected a left module or a right module"),
        (["hom", "inputs/regular_bimodule_sp12.json", "inputs/regular_bimodule_sp12.json"],
         f"{GOLDEN / 'inputs/regular_bimodule_sp12.json'} holds a bimodule; "
         "expected a left module or a right module"),
        (["restricted-free", "scaled_projection(1,2)", "a,b,a"],
         "generator names must be distinct"),
        (["direct-sum", "inputs/regular_left_sp12.json", "inputs/regular_right_sp12.json"],
         "all summands must share the instance and side"),
        (["hom", "inputs/regular_left_sp12.json", "inputs/regular_right_sp12.json"],
         "hom space requires modules of the same side"),
        (["check-algebra", "trivial(1)"],
         "trivial expects 2 arguments, as in trivial(d,s); got 1"),
        (["check-algebra", "trivial(1,2,3)"],
         "trivial expects 2 arguments, as in trivial(d,s); got 3"),
        (["check-algebra", "scaled_projection(1,,2)"],
         "empty argument in 'scaled_projection(1,,2)'"),
        (["check-algebra", "trivial(,2,1)"],
         "empty argument in 'trivial(,2,1)'"),
        (["check-algebra", "scaled_projection(1,2,)"],
         "empty argument in 'scaled_projection(1,2,)'"),
        (["check-algebra", "scaled_projection()"],
         "coefficient list must be nonempty"),
        (["check-algebra", "trivial(1_0,1)"],
         "trivial takes decimal integers d and s; got '1_0'"),
        (["check-algebra", "trivial(1,-2)"],
         "trivial(1,-2) asks for a negative number of labels"),
        (["check-algebra", "trivial(2000,1)"],
         "trivial(2000,1) asks for 8000000000 structure constants, identity equations or "
         "labels; the budget is 64000"),
        (["check-module", str(bad_right_operator)],
         f"malformed module document {bad_right_operator}: operator matrix has wrong shape"),
        (["check-module", str(bad_left_operator)],
         f"malformed module document {bad_left_operator}: operator matrix has wrong shape"),
        (["tensor", str(right13), "inputs/regular_left_sp12.json"],
         "tensor factors must live over the same instance"),
        (["flat-probe", str(right13), "inputs/inclusion_sub_e2.json"],
         "tensor factors must live over the same instance"),
        (["flat-probe", "inputs/regular_right_sp12.json", str(identity_right)],
         "tensor_product takes a right module and a left module"),
        (["adjunction", str(right13), "inputs/regular_bimodule_sp12.json",
          "inputs/regular_right_sp12.json"],
         "M must be a right module over the bimodule's left instance"),
        (["lift", "inputs/identity_reg.json", str(identity13)],
         "theta and phi must share a target"),
        (["hom-module", "--variant", "a", "inputs/regular_left_sp12.json",
          "inputs/regular_bimodule_sp12.json"],
         "module side does not match the bimodule hypothesis"),
        (["hom-module", "--variant", "a", "inputs/regular_right_sp12.json",
          "inputs/regular_right_sp12.json"],
         "variants a and b need a bimodule target"),
    ]
    for argv, message in cases:
        code, out = run_cli(argv)
        assert (code, json.loads(out)) == (2, {"command": argv[0], "error": message}), argv
    # usage errors, worded by cli._parse
    usage_cases = [
        (["mc"], "the following arguments are required: module"),
        (["hom-module", "inputs/regular_right_sp12.json", "inputs/regular_bimodule_sp12.json"],
         "the following arguments are required: --variant"),
        (["mc", "inputs/regular_left_sp12.json", "--max-qdegree", "7"],
         "unrecognized arguments: --max-qdegree 7"),
        (["mc", "inputs/regular_left_sp12.json", "--pretty=1"],
         "unrecognized arguments: --pretty=1"),
        # an option's value is the word after it, whatever that word is
        (["oracle", "trivial(1,1)", "--max-qdegree"],
         "the following arguments are required: --max-qdegree"),
        (["oracle", "--max-qdegree", "--pretty", "trivial(1,1)"],
         "argument --max-qdegree: invalid int value: '--pretty'"),
        (["oracle", "--max-qdegree", "1.5", "trivial(1,1)"],
         "argument --max-qdegree: invalid int value: '1.5'"),
        (["hom-module", "--variant=e", "inputs/regular_right_sp12.json",
          "inputs/regular_bimodule_sp12.json"],
         "argument --variant: invalid choice: 'e' (choose from 'a', 'b', 'c', 'd')"),
    ]
    for argv, message in usage_cases:
        code, out = run_cli(argv)
        assert (code, json.loads(out)) == (2, {"command": argv[0], "error": message}), argv
    # a value past Python's digit limit is no int either
    long = "1" * (sys.get_int_max_str_digits() + 700)
    assert run_cli(["oracle", "--max-qdegree", long, "trivial(1,1)"]) == (2, json.dumps(
        {"command": "oracle", "error": f"argument --max-qdegree: invalid int value: '{long}'"},
        separators=(",", ":")) + "\n")


@pytest.mark.parametrize("verb", ["check-module", "check-algebra", "lift"])
def test_a_json_argument_that_cannot_be_read_is_an_input_error(verb, tmp_path):
    # a module, an instance and a hom document at a path that is a directory
    unreadable = tmp_path / "x.json"
    unreadable.mkdir()
    argv = [verb, str(unreadable)] + [str(unreadable)] * (verb == "lift")
    assert run_cli(argv) == (2, json.dumps(
        {"command": verb, "error": f"cannot read {unreadable}: Is a directory"},
        separators=(",", ":")) + "\n")


@pytest.mark.parametrize("argv,token", [([], "verb"), (["frobnicate"], "frobnicate")],
                         ids=["no-verb", "unknown-verb"])
def test_missing_or_unknown_verb_is_a_json_input_error(argv, token):
    code, out = run_cli(argv)
    doc = json.loads(out)
    assert (code, doc["command"]) == (2, None) and token in doc["error"]


def _help(argv, capsys) -> str:
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    return capsys.readouterr().out


def test_help_prints_usage_and_exits_0(capsys):
    assert _help(["mc", "--help"], capsys).startswith("usage: mrb mc")
    # anywhere among the options, and as any prefix of --help
    assert _help(["mc", "--pretty", "--he", "inputs/regular_left_sp12.json"], capsys).startswith(
        "usage: mrb mc")


@pytest.mark.parametrize("flag", ["-h", "--help", "--he"])
def test_mrb_help_names_every_verb(flag, capsys):
    out = _help([flag], capsys)
    assert [verb for verb in cli.VERBS if f"usage: mrb {verb} " not in out] == []


def test_a_verb_help_shows_each_argument_and_its_help_string(capsys):
    out = _help(["hom-module", "--help"], capsys)
    assert out.startswith("usage: mrb hom-module [-h] [--pretty] --variant VALUE module other\n")
    for name, _, (_, text) in cli.VERBS["hom-module"][1]:
        assert re.search(rf"^  {re.escape(name)} +{re.escape(text)}$", out, re.M), name
    assert re.search(r"^  --pretty +indent the JSON report$", out, re.M)


def test_every_verb_has_a_golden_pair_and_a_readme_entry():
    golden_verbs = {e["argv"][0] for e in MANIFEST}
    assert set(cli.VERBS) <= golden_verbs
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    verb_list = re.search(r"Verbs:(.*?)\.", readme, re.S).group(1)
    assert set(re.findall(r"`([^`]+)`", verb_list)) == set(cli.VERBS)


def test_reweight_instance_path_checks_the_identity_twice(monkeypatch):
    # once for the catalog instance, once for the reweighted one, whose
    # report is the one printed; a verified instance's check returns at once,
    # so only the checks of an unverified instance are counted.  The
    # presentation is evaluated once either way: the first check evaluates
    # it and latches the algebra object, which the reweighted instance
    # keeps; or, when an equal catalog instance is alive, the first check
    # returns at once and the reweighted instance's check evaluates it
    calls, checks = [], []
    presentation_report, check_mrb_identity = core._presentation_report, core.check_mrb_identity

    def counted(*args):
        calls.append(args)
        return presentation_report(*args)

    def counted_check(inst):
        if not inst.verified:
            checks.append(inst)
        return check_mrb_identity(inst)

    monkeypatch.setattr(core, "_presentation_report", counted)
    monkeypatch.setattr(core, "check_mrb_identity", counted_check)
    code, out = run_cli(["reweight", "scaled_projection(1,2)", '{"1": {"1": "1", "2": "1"}}'])
    assert code == 0 and json.loads(out)["report"] == {"ok": True, "subject": "mrb-identity",
                                                      "violations": []}
    assert len(calls) == 1
    assert [inst.omega for inst in checks if inst.omega != ("1", "2")] == [("1",)]


def test_check_module_evaluates_the_action_laws_once(monkeypatch):
    calls = []
    violations = modules._action_law_violations

    def counted(mod, *cleared):
        calls.append(mod)
        return violations(mod, *cleared)

    monkeypatch.setattr(modules, "_action_law_violations", counted)
    code, out = run_cli(["check-module", "inputs/regular_left_sp12.json"])
    assert code == 0 and json.loads(out)["report"]["subject"] == "left-module"
    assert len(calls) == 1


def test_normalize_of_a_mixable_tensor_builds_one_ring(monkeypatch):
    # binding the dotted words builds no second ring
    calls = []
    init = opring.OperatorRing.__init__

    def counted(self, inst):
        calls.append(inst)
        init(self, inst)

    monkeypatch.setattr(opring.OperatorRing, "__init__", counted)
    code, _ = run_cli(["normalize", "scaled_projection(1)", "e1 . 1 . e1 . 1 . e1 : x"])
    assert code == 0 and len(calls) == 1


def test_check_module_reports_a_failing_unit_law(tmp_path):
    # the zero action is associative, but the unit does not act as 1
    doc = json.loads((GOLDEN / "inputs" / "regular_left_sp12.json").read_text())
    doc["action"] = [[["0", "0"], ["0", "0"]]] * 2
    path = tmp_path / "zero_action.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(["check-module", str(path)])
    report = json.loads(out)["report"]
    assert code == 1
    assert report["subject"] == "action-laws"
    assert [v["kind"] for v in report["violations"]] == ["unit-action"]


def test_module_constants_of_a_module_whose_action_laws_fail_exit_1(tmp_path):
    # e1 acts on v1 as 2: the unit acts as 1 no longer
    doc = json.loads((GOLDEN / "inputs" / "regular_left_sp12.json").read_text())
    doc["action"][0][0][0] = "2"
    path = tmp_path / "bad_action.json"
    path.write_text(json.dumps(doc))
    assert run_cli(["mc", str(path)]) == (1, json.dumps(
        {"command": "mc", "error": "plain module laws fail; fix the action tensor first"},
        separators=(",", ":")) + "\n")


def test_a_subspace_that_is_not_a_submodule_exits_1():
    code, out = run_cli(["quotient", "inputs/regular_left_sp12.json", '[["1","1"]]'])
    assert code == 1
    assert json.loads(out) == {
        "command": "quotient",
        "error": "subspace is not closed under action of basis element e1",
    }


def test_check_algebra_skips_the_identity_when_the_presentation_fails(tmp_path):
    # over the componentwise Q^2 the vector (1, 0) is no unit: e2 * (1, 0) = 0
    doc = core.instance_to_json(core.trivial_instance(2, 1))
    doc["unit"] = ["1", "0"]
    path = tmp_path / "bad_unit.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(["check-algebra", str(path)])
    report = json.loads(out)
    assert code == 1
    assert report["identity"] is None
    assert report["presentation"]["ok"] is False
    assert [(v["kind"], v["where"]) for v in report["presentation"]["violations"]] == [
        ("unit-left", [1]), ("unit-right", [1])]


def test_python_dash_m_mrb_prints_the_golden_bytes():
    import os
    import subprocess
    import sys

    entry = next(e for e in MANIFEST if e["name"] == "normalize_operated_word")
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "mrb", *entry["argv"]],
                          capture_output=True, env=env)
    assert done.returncode == entry["exit"]
    assert done.stdout == (GOLDEN / "expected" / f"{entry['name']}.json").read_bytes()


# ---------------------------------------------------------------------------
# The argparse parser that `mrb` built from its verb table before cli._parse
# read the command line itself, kept as the reference cli._parse is checked
# against: each verb's arguments with the argparse options they had.
# ---------------------------------------------------------------------------

REFERENCE_ARGUMENTS = {
    "check-algebra": [("instance", {})],
    "check-module": [("module", {})],
    "normalize": [("instance", {}), ("expression", {})],
    "confluence": [("--max-qdegree", {"type": int, "default": 3}), ("instance", {})],
    "oracle": [("--max-qdegree", {"type": int, "default": 3}), ("instance", {})],
    "quotient": [("module", {}), ("relations", {})],
    "direct-sum": [("modules", {"nargs": "+"})],
    "mc": [("module", {})],
    "restricted-free": [("instance", {}), ("generators", {})],
    "hom": [("source", {}), ("target", {})],
    "hom-module": [("--variant", {"required": True, "choices": ["a", "b", "c", "d"]}),
                   ("module", {}), ("other", {})],
    "reweight": [("target", {}), ("spec", {})],
    "tensor": [("right_module", {}), ("left_module", {})],
    "adjunction": [("right_module", {}), ("bimodule", {}), ("other_right_module", {})],
    "flat-probe": [("module", {}), ("injections", {"nargs": "+"})],
    "lift": [("epi", {}), ("hom", {})],
}


def build_arg_parser():
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            raise cli.InputError(message)

        def _parse_optional(self, arg_string):
            if arg_string[:1] == "-" and arg_string[:2] not in ("--", "-h"):
                return None
            return super()._parse_optional(arg_string)

    p = _Parser(prog="mrb")
    sub = p.add_subparsers(dest="verb", required=True)
    for verb, arguments in REFERENCE_ARGUMENTS.items():
        sp = sub.add_parser(verb)
        for name, kwargs in arguments:
            sp.add_argument(name, **kwargs)
        sp.add_argument("--pretty", action="store_true")
    return p


def test_the_reference_parser_has_the_verbs_and_arguments_of_the_table():
    assert {verb: [name for name, _ in arguments]
            for verb, arguments in REFERENCE_ARGUMENTS.items()} == {
        verb: [name for name, _, _ in arguments] for verb, (_, arguments) in cli.VERBS.items()}


def _argv_variants(argv):
    """Command lines around a golden argv: its options moved, respelled,
    abbreviated and broken, --pretty at each place, "--", leading-minus
    words, and positional words dropped or added."""
    verb, rest = argv[0], argv[1:]
    options, positional, words = [], [], iter(rest)
    for word in words:
        if word[:2] != "--":
            positional.append(word)
        else:
            options.append([word] if word == "--pretty" else [word, next(words)])
    valued = [o for o in options if len(o) == 2]
    flat = [w for o in options for w in o]
    arranged = [[*positional[:i], *flat, *positional[i:]] for i in range(len(positional) + 1)]
    out = [*arranged, [*flat, "--", *positional], [*positional[:1], "--", *positional[1:], *flat],
           [*flat, *positional, "--"], [*positional, *flat, "--", "--pretty"],
           positional[:-1] + flat, positional[1:] + flat, positional + flat + ["extra.json"],
           ["--bogus", *rest], [*rest, "--bogus=1"], [*rest, "--pretty=1"], [*rest, "--pretty="],
           [*rest, "--=x"], [*rest, "--p"], [*rest, "--pre"], flat, [*rest, "--max-qdegree", "7"],
           [*rest, "--variant", "a"], [*rest, "--bogus value"]]
    out += [[*v[:j], "--pretty", *v[j:]] for v in arranged for j in range(len(v) + 1)]
    for name, value in valued:
        others = [w for o in options if o[0] != name for w in o]
        for spelled in (name, name[:5], name[:3]):
            out += [[*others, f"{spelled}={value}", *positional],
                    [*positional, spelled, value, *others]]
        for bad in ("x", "1.5", "", " 2 ", "-1", "2x", "e", "a b", "-h", "--pretty"):
            out += [[*others, name, bad, *positional], [*positional, f"{name}={bad}", *others]]
        out += [[*others, *positional, name]]
    if verb == "normalize":
        for expression in ("-2*e1", "-2 * e1 + e2", "-e1", "-", "--e1 Q[1] e2", "-- e1"):
            out += [[positional[0], expression], [positional[0], expression, "--pretty"],
                    ["--pretty", positional[0], "--", expression]]
    return [[verb, *v] for v in out]


# Command lines the reference rejects and cli._parse reads: a one-or-more
# argument whose words an option splits takes all of them.
SPLIT_GROUPS = {
    ("direct-sum", "inputs/regular_left_sp12.json", "--pretty", "inputs/regular_left_sp12.json"),
}


def test_the_parser_reads_what_the_reference_reads_and_rejects_the_rest():
    reference, accepted, split = build_arg_parser(), 0, set()
    variants = {tuple(v) for entry in MANIFEST for v in _argv_variants(entry["argv"])}
    for argv in sorted(variants):
        try:
            ns = reference.parse_args(argv)
        except cli.InputError:
            if run_cli(argv)[0] != 2:
                split.add(argv)
            continue
        accepted += 1
        verb, pretty, raws = cli._parse(list(argv))
        assert (verb, pretty) == (ns.verb, ns.pretty), argv
        for (name, _, _), raw in zip(cli.VERBS[verb][1], raws):
            value = getattr(ns, name.lstrip("-").replace("-", "_"))
            assert (int(raw) if name == "--max-qdegree" else raw) == value, (argv, name)
    assert split == SPLIT_GROUPS
    assert accepted > 300 and len(variants) - accepted > 300


# the command-line words of the argv fuzz: verbs, options, their prefixes and
# "=" forms, values, golden input paths, catalog names and free text; no
# word asks for help
OPTION_WORDS = ["--pretty", "--max-qdegree", "--variant", "--p", "--pre", "--m", "--max",
                "--v", "--var", "--", "--max-qdegree=2", "--max=0", "--variant=a", "--v=b",
                "--pretty=1", "--bogus", "--=x", "-", ""]
VALUE_WORDS = ["0", "1", "2", "3", "-1", "x", "a", "b", "e", "-2*e1", "e1 Q[1] e2", "x,y",
               '[["0","1"]]', '{"1": {"1": "1"}}', "no_such.json", "scaled_projection(1,2)",
               "scaled_projection(1)", "trivial(1,1)", "trivial(2,1)"]
INPUT_WORDS = sorted(str(p) for p in (GOLDEN / "inputs").glob("*.json"))


def _asks_for_help(word: str) -> bool:
    return word == "-h" or len(word) > 2 and "--help".startswith(word)


ARGV_WORDS = st.one_of(
    st.sampled_from(list(cli.VERBS)), st.sampled_from(OPTION_WORDS),
    st.sampled_from(VALUE_WORDS), st.sampled_from(INPUT_WORDS),
    st.text(alphabet="-=ehlp1 .", max_size=8).filter(lambda w: not _asks_for_help(w)))


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.lists(ARGV_WORDS, max_size=6),
                 st.tuples(st.sampled_from(list(cli.VERBS)), st.lists(ARGV_WORDS, max_size=5))
                 .map(lambda t: [t[0], *t[1]])))
def test_any_command_line_is_answered_with_one_json_line(argv):
    buf = io.StringIO()
    code = cli.main(argv, stdout=buf)
    out = buf.getvalue()
    assert code in (0, 1, 2)
    # one JSON line, or with --pretty one indented document
    doc = json.loads(out)
    assert out.count("\n") == 1 or out == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert doc["command"] == (argv[0] if argv and argv[0] in cli.VERBS else None)


def test_inline_instance_text_reads_as_the_file_holding_it():
    for name in ("upper_triangular", "misweighted"):
        path = f"inputs/{name}.json"
        text = (GOLDEN / path).read_text()
        expected = run_cli(["check-algebra", path])
        assert run_cli(["check-algebra", text]) == expected
        assert run_cli(["check-algebra", " \n" + text]) == expected


def test_malformed_inline_instance_text_is_an_input_error():
    code, out = run_cli(["check-algebra", '{"dim": 2,'])
    assert code == 2
    assert json.loads(out)["error"].startswith("invalid JSON in instance text: ")


def test_json_text_as_a_module_documents_instance_is_an_unknown_catalog_name(tmp_path):
    doc = json.loads((GOLDEN / "inputs" / "regular_left_sp12.json").read_text())
    text = json.dumps(doc["instance"])
    path = tmp_path / "text_instance.json"
    path.write_text(json.dumps({**doc, "instance": text}))
    code, out = run_cli(["check-module", str(path)])
    assert code == 2
    # the catalog's message, shown once and unquoted
    assert json.loads(out)["error"] == (f"malformed module document {path}: "
                                        f"unknown catalog instance {text!r}")


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


def _report(argv):
    code, out = run_cli(argv)
    return code, json.loads(out)


def test_the_module_reader_names_a_missing_field_and_quotes_a_message_once(tmp_path):
    doc = json.loads((GOLDEN / "inputs" / "regular_left_sp12.json").read_text())
    cases = [({**doc, "instance": "foo(1)"}, "unknown catalog instance 'foo(1)'"),
             (_without(doc, "action"), "missing field 'action'"),
             (_without(doc, "instance"), "missing field 'instance'"),
             ({**doc, "operators": {"1": doc["operators"]["1"]}}, "missing operator '2'")]
    for k, (bad, message) in enumerate(cases):
        path = tmp_path / f"module{k}.json"
        path.write_text(json.dumps(bad))
        assert _report(["check-module", str(path)]) == (
            2, {"command": "check-module", "error": f"malformed module document {path}: {message}"})


def test_the_hom_reader_names_a_missing_field(tmp_path):
    regular = json.loads((GOLDEN / "inputs" / "regular_right_sp12.json").read_text())
    hom = {"source": regular, "target": regular, "matrix": [["1", "0"], ["0", "1"]]}
    for field in ("source", "target", "matrix"):
        path = tmp_path / f"no_{field}.json"
        path.write_text(json.dumps(_without(hom, field)))
        assert _report(["lift", str(path), str(path)]) == (
            2, {"command": "lift",
                "error": f"malformed hom document {path}: missing field {field!r}"})


def test_the_instance_reader_names_a_missing_field(tmp_path):
    doc = json.loads((GOLDEN / "inputs" / "upper_triangular.json").read_text())
    cases = [(_without(doc, "basis"), "missing field 'basis'"),
             (_without(doc, "dim"), "missing field 'dim'"),
             ({**doc, "operators": {}}, f"missing operator {doc['omega'][0]!r}"),
             ({**doc, "weights": {}}, f"missing weight {doc['omega'][0]!r}")]
    for k, (bad, message) in enumerate(cases):
        path = tmp_path / f"instance{k}.json"
        path.write_text(json.dumps(bad))
        assert _report(["check-algebra", str(path)]) == (
            2, {"command": "check-algebra", "error": f"malformed instance document: {message}"})
    # a document with no labels reads no operator or weight table
    assert core.instance_from_json(_without(_without({**doc, "omega": []}, "operators"),
                                            "weights")).omega == ()


def test_a_restricted_free_module_past_the_budget_is_an_input_error():
    gens = ",".join(f"x{i}" for i in range(200))
    code, out = run_cli(["restricted-free", "upper_triangular(1,2)", gens])
    assert code == 2
    assert json.loads(out)["error"] == ("a direct sum of dimension 600 asks for 1800000 "
                                        "structure-map entries; the budget is 64000")


# -- the document fuzz: golden documents with a few entries perturbed, read by
# the verbs that take each kind of document from a file
FUZZED = {
    "instance": ("upper_triangular", "misweighted"),
    "module": ("regular_left_sp12", "regular_right_sp12", "regular_bimodule_sp12",
               "perturbed_left_sp12", "sub_e2_left_sp12", "sum_left_sp12"),
    "hom": ("identity_reg", "inclusion_sub_e2", "projection_sum_to_reg"),
}
DOCUMENT_VERBS = {"check-algebra": "instance", "check-module": "module", "hom": "module",
                  "lift": "hom"}
# a value that is written out as an array nested past the recursion limit
DEEP = "deeply nested"
JUNK = st.sampled_from([None, True, -1, 0, 10 ** 6, 10 ** 40, 2.5, "", "x", "1/0", "0.5", "1e5",
                        "--1", "9" * 5000, [], {}, [[1, 2], [3]], {"a": [{"b": []}]}, DEEP]
                       ).map(copy.deepcopy)


def _paths(doc, path=()):
    """The path to every value of a JSON document, the document's own () first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, (*path, key))


@st.composite
def perturbed_documents(draw, kind):
    """A golden document of the kind, as JSON text, with one to three values
    dropped, grown (an extra key, or an extra entry that makes an array
    ragged or mis-sized) or replaced by a value of another type or range."""
    name = draw(st.sampled_from(FUZZED[kind]))
    holder = [json.loads((GOLDEN / "inputs" / f"{name}.json").read_text())]
    for _ in range(draw(st.integers(1, 3))):
        *where, key = draw(st.sampled_from(list(_paths(holder))[1:]))
        parent = holder
        for step in where:
            parent = parent[step]
        edit, value = draw(st.sampled_from(["drop", "grow", "replace"])), parent[key]
        if edit == "drop" and parent is not holder:
            del parent[key]
        elif edit == "grow" and isinstance(value, dict):
            value["extra"] = draw(JUNK)
        elif edit == "grow" and isinstance(value, list):
            value.append(value[-1] if value else draw(JUNK))
        else:
            parent[key] = draw(JUNK)
    return json.dumps(holder[0]).replace(json.dumps(DEEP), "[" * 100000 + "]" * 100000)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("documents")


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(DOCUMENT_VERBS)).flatmap(lambda verb: st.tuples(
    st.just(verb), perturbed_documents(DOCUMENT_VERBS[verb]), st.integers(0, 2))))
def test_any_perturbed_document_is_answered_with_one_json_line(fuzz_dir, case):
    # the two-document verbs read it twice, or beside a golden document
    verb, text, order = case
    path = fuzz_dir / "perturbed.json"
    path.write_text(text)
    path, golden = str(path), str(GOLDEN / "inputs" / f"{FUZZED[DOCUMENT_VERBS[verb]][0]}.json")
    pairs = ([path, path], [path, golden], [golden, path])
    argv = [verb, *(pairs[order] if verb in ("hom", "lift") else [path])]
    buf = io.StringIO()
    code = cli.main(argv, stdout=buf)
    out = buf.getvalue()
    assert code in (0, 1, 2)
    assert out.endswith("\n") and out.count("\n") == 1
    assert json.loads(out)["command"] == verb
