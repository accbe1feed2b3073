"""Surface syntax for elements: parsing, binding, and canonical printing.

Two word syntaxes share one expression grammar:

    expr     := term (('+'|'-') term)*
    term     := (rational '*')? word
    rational := '-'? digits ('/' digits)?

Operator-ring words are whitespace separated with bracketed letters,
``e1 Q[1] e2``; a module word appends ``: x``.  Mixable-tensor words are
dot separated, ``b1 . w1 . b2 : x``.  Words may be parenthesized.  The text
``0`` denotes the zero element.  The scanner is one regular expression
with an alternative per lexeme class, placing each token by its offset.
One word loop parses both syntaxes: the token after the first slot picks
the separator, and only a dotted word requires ``: x``.  Module words of
both syntaxes bind to `FreeModuleElement`s, a dotted word b1 . w1 . b2 : x
being the pair (b1 Q[w1] b2, x), through one binder that reads the syntax
off its argument; one word renderer serves both printers, which differ
only in separators and term order.  Printing is canonical (terms in element
order, or by depth then generator for dotted words, unit coefficients
dropped), and parse o print is the identity on canonical forms.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from fractions import Fraction
from typing import Sequence

from .core import MrbAlgebraInstance
from .linalg import _frozen, rational
from .opring import FreeModuleElement, OperatorRing, OpElement, OpWord, basis_word
from .operated import FreeOperatedModule, GeneratorSet


class ExpressionError(ValueError):
    """A syntax error, with its 1-based line/column position, or a binding
    error, such as ring and module words in one expression, without one."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message if line is None else f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


@_frozen
class Token:
    """One lexeme with its kind and the 1-based line and column where it starts."""

    kind: str  # NUMBER IDENT QLABEL PLUS MINUS STAR LPAREN RPAREN DOT COLON END
    text: str
    line: int
    column: int


_SYMBOLS = {"+": "PLUS", "-": "MINUS", "*": "STAR", "(": "LPAREN", ")": "RPAREN",
            ".": "DOT", ":": "COLON"}
# one alternative per lexeme class, tried in order; STRAY takes any other
# character, so the matches tile the text
_TOKEN_RE = re.compile("|".join([
    r"(?P<SPACE>\s+)", r"(?P<QLABEL>Q\[[^\]]*\])", r"(?P<UNTERMINATED>Q\[)",
    r"(?P<NUMBER>[0-9]+(?:/[0-9]+)?)", r"(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)",
    *(f"(?P<{kind}>{re.escape(ch)})" for ch, kind in _SYMBOLS.items()),
    r"(?P<STRAY>.)"]), re.DOTALL)


def tokenize(text: str) -> list[Token]:
    """The tokens of text, closed by END, each at the 1-based line and column
    of its offset; an unterminated operator letter is reported at the end."""
    starts = [0] + [m.end() for m in re.finditer("\n", text)]

    def at(offset: int) -> tuple[int, int]:
        line = bisect_right(starts, offset)
        return line, offset - starts[line - 1] + 1

    tokens: list[Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind, lexeme = m.lastgroup, m.group()
        if kind == "STRAY":
            raise ExpressionError(f"unexpected character {lexeme!r}", *at(m.start()))
        if kind == "UNTERMINATED":
            raise ExpressionError("unterminated operator letter", *at(len(text)))
        if kind == "QLABEL":
            lexeme = lexeme[2:-1].strip()
            if not lexeme:
                raise ExpressionError("empty operator letter", *at(m.start() + 2))
        if kind != "SPACE":
            tokens.append(Token(kind, lexeme, *at(m.start())))
    tokens.append(Token("END", "", *at(len(text))))
    return tokens


@_frozen
class WordAst:
    """One parsed word: slot labels, operator labels, optional generator.

    kind is "op" when bracketed letters appeared, "operated" for the dotted
    syntax, and "plain" for a single bare slot (valid in either reading).
    """

    slots: tuple[str, ...]
    ops: tuple[str, ...]
    gen: str | None
    kind: str


@_frozen
class ExpressionAst:
    """A parsed expression: (coefficient, word) terms, unbound to any instance."""

    terms: tuple[tuple[Fraction, WordAst], ...]


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExpressionError(f"expected {what}", tok.line, tok.column)
        return self.advance()

    def parse(self) -> ExpressionAst:
        first = self.peek()
        if first.kind == "NUMBER" and first.text == "0" \
                and self.tokens[self.pos + 1].kind == "END":
            self.advance()
            return ExpressionAst(())
        terms = [self.term(sign=1)]
        while self.peek().kind in ("PLUS", "MINUS"):
            sign = 1 if self.advance().kind == "PLUS" else -1
            terms.append(self.term(sign))
        end = self.peek()
        if end.kind != "END":
            raise ExpressionError("unexpected trailing input", end.line, end.column)
        return ExpressionAst(tuple(terms))

    def term(self, sign: int) -> tuple[Fraction, WordAst]:
        coeff = Fraction(sign)
        tok = self.peek()
        negative = False
        if tok.kind == "MINUS":
            # leading sign of a rational coefficient
            self.advance()
            negative = True
            tok = self.peek()
        if tok.kind == "NUMBER" and self.tokens[self.pos + 1].kind == "STAR":
            try:
                coeff *= rational(tok.text)
            except ZeroDivisionError:
                raise ExpressionError(f"zero denominator in {tok.text}", tok.line, tok.column) from None
            except ValueError as exc:  # a part past Python's digit limit
                raise ExpressionError(str(exc), tok.line, tok.column) from None
            self.pos += 2  # NUMBER STAR
            if negative:
                coeff = -coeff
        elif negative:
            raise ExpressionError("expected rational coefficient", tok.line, tok.column)
        return coeff, self.word()

    def word(self) -> WordAst:
        # a word in n parentheses: count the opening ones, expect n closing
        depth = 0
        while self.peek().kind == "LPAREN":
            self.advance()
            depth += 1
        slots, ops = [self._slot("basis label")], []
        sep = self.peek().kind if self.peek().kind in ("DOT", "QLABEL") else None
        while self.peek().kind == sep:
            letter = self.advance().text
            if sep == "DOT":
                letter = self._slot("operator label")
                self.expect("DOT", "'.'")
            ops.append(letter)
            slots.append(self._slot("basis label"))
        gen = None
        if sep == "DOT" or self.peek().kind == "COLON":
            self.expect("COLON", "':'")
            gen = self._slot("generator name")
        kind = "operated" if sep == "DOT" else "op" if ops else "plain"
        for _ in range(depth):
            self.expect("RPAREN", "')'")
        return WordAst(tuple(slots), tuple(ops), gen, kind)

    def _slot(self, what: str) -> str:
        tok = self.peek()
        if tok.kind not in ("IDENT", "NUMBER"):
            raise ExpressionError(f"expected {what}", tok.line, tok.column)
        return self.advance().text


def parse_expression(text: str) -> ExpressionAst:
    return _Parser(tokenize(text)).parse()


# ---------------------------------------------------------------------------
# Binding parsed text to elements over an instance
# ---------------------------------------------------------------------------

def _slot_indices(inst: MrbAlgebraInstance, labels: Sequence[str]) -> tuple[int, ...]:
    return tuple(inst.algebra.label_index(s) for s in labels)


def _bind(ast: ExpressionAst, inst: MrbAlgebraInstance, dotted: bool,
          gens: GeneratorSet | None = None) -> OpElement | FreeModuleElement:
    """The element an expression of one word syntax denotes over inst.

    A dotted expression binds module words only; in the bracketed one,
    module words bind to a free-module element and plain words to an
    OpElement, never both.  `gens`, when given, must name each generator.
    """
    with_gen = [t for _, t in ast.terms if t.gen is not None]
    if not dotted and with_gen and len(with_gen) != len(ast.terms):
        raise ExpressionError("cannot mix ring words and module words in one expression")
    cls = FreeModuleElement if dotted or with_gen else OpElement
    out: dict = {}
    for coeff, t in ast.terms:
        if t.kind == ("op" if dotted else "operated"):
            raise ExpressionError("bracketed letters are not mixable-tensor syntax" if dotted
                                  else "dotted words are not operator-ring syntax")
        if dotted and t.gen is None:
            raise ExpressionError("mixable-tensor words require a generator")
        w = basis_word(inst, _slot_indices(inst, t.slots), t.ops)
        if gens is not None:
            gens.index(t.gen)
        key = cls.join(w, t.gen)
        out[key] = out.get(key, 0) + coeff
    return cls.from_dict(out)


def bind_op_expression(ast: ExpressionAst, ring: OperatorRing) -> OpElement | FreeModuleElement:
    """Resolve an operator-word expression; module words yield a free-module
    element, plain ring words an OpElement.  Mixing the two is an error."""
    return _bind(ast, ring.inst, dotted=False)


def bind_operated_expression(ast: ExpressionAst, module: FreeOperatedModule) -> FreeModuleElement:
    """Resolve a dotted expression to an element of the free operated module."""
    return _bind(ast, module.inst, dotted=True, gens=module.gens)


# ---------------------------------------------------------------------------
# Canonical printing
# ---------------------------------------------------------------------------

def _print_terms(rendered: list[tuple[Fraction, str]]) -> str:
    if not rendered:
        return "0"
    many = len(rendered) > 1
    pieces: list[str] = []
    for k, (coeff, word) in enumerate(rendered):
        mag = abs(coeff)
        body = f"({word})" if (many or mag != 1) and " " in word else word
        if mag != 1:
            body = f"{mag} * {body}"
        if k == 0:
            pieces.append(body if coeff > 0 else f"-1 * {body}" if mag == 1 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)


def _word_text(inst: MrbAlgebraInstance, dotted: bool, w: OpWord, gen: str | None) -> str:
    labels = inst.algebra.basis_labels
    parts = [labels[w.slots[0]]]
    for op, slot in zip(w.ops, w.slots[1:]):
        parts += [op if dotted else f"Q[{op}]", labels[slot]]
    text = (" . " if dotted else " ").join(parts)
    return f"{text} : {gen}" if gen is not None else text


def print_op_word(w: OpWord, inst: MrbAlgebraInstance, gen: str | None = None) -> str:
    return _word_text(inst, False, w, gen)


def print_operated_word(key: tuple[OpWord, str], inst: MrbAlgebraInstance) -> str:
    return _word_text(inst, True, *key)


def print_op_element(e: OpElement | FreeModuleElement, inst: MrbAlgebraInstance) -> str:
    """Bracketed rendering of ring and free-module elements, in term order."""
    return _print_terms([(c, _word_text(inst, False, *e.split(k))) for k, c in e.terms])


print_free_module_element = print_op_element


def print_operated_element(e: FreeModuleElement, inst: MrbAlgebraInstance) -> str:
    """Dotted rendering, terms ordered by (depth, generator, slots, labels)."""
    terms = sorted(e.terms, key=lambda t: (t[0][0].q_degree, t[0][1], t[0][0].slots, t[0][0].ops))
    return _print_terms([(c, print_operated_word(k, inst)) for k, c in terms])
