from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mrb.core import scaled_projection
from mrb.opring import FreeModuleElement, OpElement, OperatorRing, basis_word
from mrb.operated import FreeOperatedModule
from mrb.parser import (
    ExpressionError,
    _slot_indices,
    bind_op_expression,
    bind_operated_expression,
    parse_expression,
    print_free_module_element,
    print_op_element,
    print_operated_element,
)


@pytest.fixture(scope="module")
def ring():
    return OperatorRing(scaled_projection((1, 2)))


@pytest.fixture(scope="module")
def fom(ring):
    return FreeOperatedModule(ring.inst, ["x", "y"])


def test_single_word_coefficient_one(ring):
    ast = parse_expression("e1")
    e = bind_op_expression(ast, ring)
    assert e == ring.element((0,), ())


def test_module_expression_two_terms(ring):
    ast = parse_expression("3/2 * e1 Q[1] e2 - e2 : x")
    # mixing ring words and module words is rejected
    with pytest.raises(ValueError):
        bind_op_expression(ast, ring)
    ast2 = parse_expression("3/2 * (e1 Q[1] e2 : x) - (e2 : x)")
    e = bind_op_expression(ast2, ring)
    assert isinstance(e, FreeModuleElement)
    assert len(e.terms) == 2


def test_syntax_error_position():
    with pytest.raises(ExpressionError) as err:
        parse_expression("e1 Q[")
    assert err.value.column == 6


def test_error_positions_various():
    with pytest.raises(ExpressionError) as err:
        parse_expression("e1 +")
    assert err.value.column == 5
    with pytest.raises(ExpressionError) as err:
        parse_expression("3/2 *")
    assert err.value.column == 6
    with pytest.raises(ExpressionError) as err:
        parse_expression("(e1")
    assert err.value.column == 4


@pytest.mark.parametrize("text,message,line,column", [
    ("e1 Q[] e2", "empty operator letter", 1, 6),
    ("e1 # e2", "unexpected character '#'", 1, 4),
    ("e1 e2", "unexpected trailing input", 1, 4),
    ("- e1", "expected rational coefficient", 1, 3),
    ("e1\n+ e2 Q[1]", "expected basis label", 2, 10),
    # the word loop's other errors
    ("e1 . . e2 : x", "expected operator label", 1, 6),
    ("e1 . 1 e2 : x", "expected '.'", 1, 8),
    ("e1 . 1 . e2", "expected ':'", 1, 12),
    ("e1 Q[1] e2 : +", "expected generator name", 1, 14),
    ("(e1 e2)", "expected ')'", 1, 5),
    # a newline inside an operator letter moves the tokens after it
    ("e1 Q[1\n] e2 #", "unexpected character '#'", 2, 6),
    ("e1 Q[1\n e2", "unterminated operator letter", 2, 4),
    ("e1 Q[\n1] : x\n  #", "unexpected character '#'", 3, 3),
    # a coefficient with a zero denominator, in either word syntax
    ("1/0 * e1", "zero denominator in 1/0", 1, 1),
    ("e1\n - 3/00 * (e1 . 1 . e2 : x)", "zero denominator in 3/00", 2, 4),
    # unbalanced parentheses around a word
    ("((e1)", "expected ')'", 1, 6),
    ("(((e1 Q[1] e2))", "expected ')'", 1, 16),
])
def test_error_messages_and_positions(text, message, line, column):
    with pytest.raises(ExpressionError) as err:
        parse_expression(text)
    assert str(err.value) == f"{message} at line {line}, column {column}"
    assert (err.value.line, err.value.column) == (line, column)


def test_parentheses_nest_without_recursion():
    # a word in n parentheses parses as the bare word, with no frame per level
    assert parse_expression("(" * 5000 + "e1 Q[1] e2" + ")" * 5000) == parse_expression("e1 Q[1] e2")
    with pytest.raises(ExpressionError, match="^expected '\\)' at line 1, column 6003$"):
        parse_expression("(" * 3000 + "e1" + ")" * 2999 + " + e2")


def test_unknown_labels_rejected(ring):
    with pytest.raises(KeyError):
        bind_op_expression(parse_expression("e9"), ring)
    with pytest.raises(KeyError):
        bind_op_expression(parse_expression("e1 Q[7] e1"), ring)


def test_operator_expression_round_trip(ring):
    texts = [
        "e1",
        "e1 Q[1] e2",
        "3/2 * (e1 Q[1] e2) + 2 * (e2 Q[2] e1)",
        "-1 * e1 Q[2] e2",
        "e1 - 1/2 * (e2 Q[1] e1 Q[2] e2)",
        "0",
    ]
    for text in texts:
        e = bind_op_expression(parse_expression(text), ring)
        printed = print_op_element(e, ring.inst)
        again = bind_op_expression(parse_expression(printed), ring)
        assert again == e
        assert print_op_element(again, ring.inst) == printed


def test_canonical_printing_is_sorted(ring):
    e = ring.element((1, 0), ("2",)).scale(Fraction(-1, 2)) + ring.element((0,), ())
    printed = print_op_element(e, ring.inst)
    assert printed == "e1 - 1/2 * (e2 Q[2] e1)"


def test_module_word_round_trip(ring):
    e = FreeModuleElement.from_dict({(ring.word((0, 1), ("1",)), "x"): Fraction(5, 3)})
    printed = print_free_module_element(e, ring.inst)
    assert printed == "5/3 * (e1 Q[1] e2 : x)"
    back = bind_op_expression(parse_expression(printed), ring)
    assert back == e


def test_operated_round_trip(fom):
    e = fom.element((0, 1), ("2",), "x") - fom.element((1,), (), "y").scale(Fraction(2, 7))
    printed = print_operated_element(e, fom.inst)
    back = bind_operated_expression(parse_expression(printed), fom)
    assert back == e
    assert print_operated_element(back, fom.inst) == printed


def test_operated_syntax_shapes(fom):
    e = bind_operated_expression(parse_expression("e1 . 1 . e2 : x"), fom)
    assert e == fom.element((0, 1), ("1",), "x")
    single = bind_operated_expression(parse_expression("e2 : y"), fom)
    assert single == fom.element((1,), (), "y")


def test_operated_rejects_bracket_syntax(fom):
    with pytest.raises(ValueError):
        bind_operated_expression(parse_expression("e1 Q[1] e2 : x"), fom)


def test_op_rejects_dot_syntax(ring):
    with pytest.raises(ValueError):
        bind_op_expression(parse_expression("e1 . 1 . e2 : x"), ring)


def test_zero_literal(ring):
    e = bind_op_expression(parse_expression("0"), ring)
    assert isinstance(e, OpElement)
    assert e.is_zero()
    assert print_op_element(e, ring.inst) == "0"


# The binder before it summed coefficients in one dict: a fold that adds
# one single-term element at a time, kept as the reference.

def reference_bind(ast, inst, dotted, gens=None):
    with_gen = [t for _, t in ast.terms if t.gen is not None]
    if not dotted and with_gen and len(with_gen) != len(ast.terms):
        raise ExpressionError("cannot mix ring words and module words in one expression")
    cls = FreeModuleElement if dotted or with_gen else OpElement
    out = cls.zero()
    for coeff, t in ast.terms:
        if t.kind == ("op" if dotted else "operated"):
            raise ExpressionError("bracketed letters are not mixable-tensor syntax" if dotted
                                  else "dotted words are not operator-ring syntax")
        if dotted and t.gen is None:
            raise ExpressionError("mixable-tensor words require a generator")
        w = basis_word(inst, _slot_indices(inst, t.slots), t.ops)
        if gens is not None:
            gens.index(t.gen)
        out = out + cls.from_dict({cls.join(w, t.gen): coeff})
    return out


# a few words per syntax, so that drawn expressions repeat and cancel words
WORDS = {
    "ring": ["e1", "e2", "e1 Q[1] e2", "e2 Q[2] e1", "e1 Q[1] e1 Q[2] e2"],
    "module": ["e1 : x", "e2 : x", "e1 Q[1] e2 : x", "e1 Q[2] e2 : y", "e2 Q[1] e1 Q[1] e1 : y"],
    "dotted": ["e1 : x", "e2 : y", "e1 . 1 . e2 : x", "e2 . 2 . e1 : y", "e1 . 1 . e1 . 2 . e2 : x"],
}

TERMS = st.lists(st.tuples(st.integers(-4, 4), st.integers(1, 3), st.integers(0, 4), st.booleans()),
                 min_size=1, max_size=12)


def expression_text(words, terms):
    """The expression sum c * (word) over the drawn terms; a term drawn with
    True is followed by its negation, so that the pair cancels."""
    pairs = []
    for num, den, w, cancel in terms:
        c = Fraction(num, den)
        pairs += [(c, words[w])] + ([(-c, words[w])] if cancel else [])
    return " ".join(f"{'-' if c < 0 else '+' if k else ''} {abs(c)} * ({w})"
                    for k, (c, w) in enumerate(pairs)).strip()


@settings(max_examples=100, deadline=None)
@given(syntax=st.sampled_from(sorted(WORDS)), terms=TERMS)
def test_binding_equals_the_term_by_term_fold(ring, fom, syntax, terms):
    ast = parse_expression(expression_text(WORDS[syntax], terms))
    if syntax == "dotted":
        bound, expected = (bind_operated_expression(ast, fom),
                           reference_bind(ast, fom.inst, True, fom.gens))
    else:
        bound, expected = bind_op_expression(ast, ring), reference_bind(ast, ring.inst, False)
    assert type(bound) is type(expected)
    assert bound == expected


def test_binding_builds_a_number_of_elements_that_does_not_grow_with_the_terms(ring, monkeypatch):
    built = []
    init = OpElement.__init__

    def counted(self, *args, **kwargs):
        built.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(OpElement, "__init__", counted)
    counts = []
    for n in (1, 16, 128):
        # n distinct words e1 Q[a1] e1 ... Q[a7] e1, the letters read off k's bits
        words = [f"e1 {' e1 '.join(f'Q[{1 + (k >> b & 1)}]' for b in range(7))} e1"
                 for k in range(n)]
        ast = parse_expression(" + ".join(f"{k + 1} * ({w})" for k, w in enumerate(words)))
        built.clear()
        assert len(bind_op_expression(ast, ring).terms) == n
        counts.append(len(built))
    assert counts == [1, 1, 1]
