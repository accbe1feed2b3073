"""Surface syntax for elements: parsing, binding, and canonical printing.

Two word syntaxes share one expression grammar:

    expr     := term (('+'|'-') term)*
    term     := (rational '*')? word
    rational := '-'? digits ('/' digits)?

Operator-ring words are whitespace separated with bracketed letters,
``e1 Q[1] e2``; a module word appends ``: x``.  Mixable-tensor words are
dot separated, ``b1 . w1 . b2 : x``.  Words may be parenthesized.  The text
``0`` denotes the zero element.  Module words of both syntaxes bind to
`FreeModuleElement`s, a dotted word b1 . w1 . b2 : x being the pair
(b1 Q[w1] b2, x); only the printers differ.  Printing is canonical (terms in
element order, or by depth then generator for dotted words, unit
coefficients dropped), and parse o print is the identity on canonical forms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import MrbAlgebraInstance
from .opring import FreeModuleElement, OperatorRing, OpElement, OpWord, basis_word
from .operated import FreeOperatedModule


class ExpressionError(ValueError):
    """A syntax error, with its 1-based line/column position, or a binding
    error, such as ring and module words in one expression, without one."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message if line is None else f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Token:
    kind: str  # NUMBER IDENT QLABEL PLUS MINUS STAR LPAREN RPAREN DOT COLON END
    text: str
    line: int
    column: int


_NUMBER_RE = re.compile(r"[0-9]+(/[0-9]+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_SYMBOLS = {"+": "PLUS", "-": "MINUS", "*": "STAR", "(": "LPAREN", ")": "RPAREN",
            ".": "DOT", ":": "COLON"}


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch == "Q" and i + 1 < n and text[i + 1] == "[":
            j = text.find("]", i + 2)
            if j < 0:
                raise ExpressionError("unterminated operator letter", line, col + 2 + (n - i - 2))
            label = text[i + 2:j].strip()
            if not label:
                raise ExpressionError("empty operator letter", line, col + 2)
            tokens.append(Token("QLABEL", label, line, col))
            col += j + 1 - i
            i = j + 1
            continue
        m = _NUMBER_RE.match(text, i)
        if m:
            tokens.append(Token("NUMBER", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            tokens.append(Token("IDENT", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        kind = _SYMBOLS.get(ch)
        if kind is None:
            raise ExpressionError(f"unexpected character {ch!r}", line, col)
        tokens.append(Token(kind, ch, line, col))
        col += 1
        i += 1
    tokens.append(Token("END", "", line, col))
    return tokens


@dataclass(frozen=True)
class WordAst:
    """One parsed word: slot labels, operator labels, optional generator.

    kind is "op" when bracketed letters appeared, "operated" for the dotted
    syntax, and "plain" for a single bare slot (valid in either reading).
    """

    slots: tuple[str, ...]
    ops: tuple[str, ...]
    gen: str | None
    kind: str


@dataclass(frozen=True)
class ExpressionAst:
    terms: tuple[tuple[Fraction, WordAst], ...]

    def is_zero(self) -> bool:
        return not self.terms


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
            coeff *= Fraction(self.advance().text)
            self.advance()  # STAR
            if negative:
                coeff = -coeff
        elif negative:
            raise ExpressionError("expected rational coefficient", tok.line, tok.column)
        return coeff, self.word()

    def word(self) -> WordAst:
        if self.peek().kind == "LPAREN":
            self.advance()
            inner = self.word()
            self.expect("RPAREN", "')'")
            return inner
        slot = self._slot("basis label")
        if self.peek().kind == "DOT":
            slots = [slot]
            ops = []
            while self.peek().kind == "DOT":
                self.advance()
                ops.append(self._slot("operator label"))
                self.expect("DOT", "'.'")
                slots.append(self._slot("basis label"))
            self.expect("COLON", "':'")
            gen = self._slot("generator name")
            return WordAst(tuple(slots), tuple(ops), gen, "operated")
        if self.peek().kind == "QLABEL":
            slots = [slot]
            ops = []
            while self.peek().kind == "QLABEL":
                ops.append(self.advance().text)
                slots.append(self._slot("basis label"))
            gen = None
            if self.peek().kind == "COLON":
                self.advance()
                gen = self._slot("generator name")
            return WordAst(tuple(slots), tuple(ops), gen, "op")
        if self.peek().kind == "COLON":
            self.advance()
            gen = self._slot("generator name")
            return WordAst((slot,), (), gen, "plain")
        return WordAst((slot,), (), None, "plain")

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


def bind_op_expression(ast: ExpressionAst, ring: OperatorRing) -> OpElement | FreeModuleElement:
    """Resolve an operator-word expression; module words yield a free-module
    element, plain ring words an OpElement.  Mixing the two is an error."""
    inst = ring.inst
    has_gen = [t for _, t in ast.terms if t.gen is not None]
    if has_gen and len(has_gen) != len(ast.terms):
        raise ExpressionError("cannot mix ring words and module words in one expression")
    cls = FreeModuleElement if has_gen else OpElement
    out = cls.zero()
    for coeff, t in ast.terms:
        if t.kind == "operated":
            raise ExpressionError("dotted words are not operator-ring syntax")
        w = basis_word(inst, _slot_indices(inst, t.slots), t.ops)
        out = out + cls.from_dict({(w, t.gen) if has_gen else w: coeff})
    return out


def bind_operated_expression(ast: ExpressionAst, module: FreeOperatedModule) -> FreeModuleElement:
    inst = module.inst
    out = FreeModuleElement.zero()
    for coeff, t in ast.terms:
        if t.kind == "op":
            raise ExpressionError("bracketed letters are not mixable-tensor syntax")
        if t.gen is None:
            raise ExpressionError("mixable-tensor words require a generator")
        key = module.word(_slot_indices(inst, t.slots), t.ops, t.gen)
        out = out + FreeModuleElement.from_dict({key: coeff})
    return out


# ---------------------------------------------------------------------------
# Canonical printing
# ---------------------------------------------------------------------------

def _print_terms(rendered: list[tuple[Fraction, str]], wrap: bool) -> str:
    if not rendered:
        return "0"
    many = len(rendered) > 1
    pieces: list[str] = []
    for k, (coeff, word) in enumerate(rendered):
        mag = abs(coeff)
        needs_parens = wrap and (many or mag != 1) and " " in word
        body = f"({word})" if needs_parens else word
        if mag != 1:
            body = f"{mag} * {body}"
        if k == 0:
            pieces.append(body if coeff > 0 else f"-1 * {body}" if mag == 1 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)


def print_op_word(w: OpWord, inst: MrbAlgebraInstance, gen: str | None = None) -> str:
    parts = [inst.algebra.basis_labels[w.slots[0]]]
    for op, slot in zip(w.ops, w.slots[1:]):
        parts.append(f"Q[{op}]")
        parts.append(inst.algebra.basis_labels[slot])
    text = " ".join(parts)
    return f"{text} : {gen}" if gen is not None else text


def print_op_element(e: OpElement, inst: MrbAlgebraInstance) -> str:
    return _print_terms([(c, print_op_word(w, inst)) for w, c in e.terms], wrap=True)


def print_free_module_element(e: FreeModuleElement, inst: MrbAlgebraInstance) -> str:
    return _print_terms(
        [(c, print_op_word(w, inst, gen=g)) for (w, g), c in e.terms], wrap=True
    )


def print_operated_word(key: tuple[OpWord, str], inst: MrbAlgebraInstance) -> str:
    w, gen = key
    parts = [inst.algebra.basis_labels[w.slots[0]]]
    for op, slot in zip(w.ops, w.slots[1:]):
        parts.append(op)
        parts.append(inst.algebra.basis_labels[slot])
    return " . ".join(parts) + f" : {gen}"


def print_operated_element(e: FreeModuleElement, inst: MrbAlgebraInstance) -> str:
    """Dotted rendering, terms ordered by (depth, generator, slots, labels)."""
    terms = sorted(e.terms, key=lambda t: (t[0][0].q_degree, t[0][1], t[0][0].slots, t[0][0].ops))
    return _print_terms([(c, print_operated_word(k, inst)) for k, c in terms], wrap=True)
