"""Differential test of the expression scanner against its hand-advanced loop.

`mrb.parser.tokenize` scans with one table-driven regular expression.  The
reference below is the character loop it replaced.  Both must give the same
tokens (kind, text, line, column) or the same error (message, line,
column) on any text over the grammar's characters, newlines, other
whitespace and stray characters.  A newline inside an operator letter moves
the tokens after it to the next line, and an unterminated letter is
reported at the end of the text.
"""

import re

from hypothesis import given, settings, strategies as st

from mrb.parser import ExpressionError, Token, tokenize

_NUMBER_RE = re.compile(r"[0-9]+(/[0-9]+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_SYMBOLS = {"+": "PLUS", "-": "MINUS", "*": "STAR", "(": "LPAREN", ")": "RPAREN",
            ".": "DOT", ":": "COLON"}


def advance(line: int, col: int, chunk: str) -> tuple[int, int]:
    """The position just past chunk, for chunk starting at (line, col)."""
    if "\n" in chunk:
        return line + chunk.count("\n"), len(chunk) - chunk.rfind("\n")
    return line, col + len(chunk)


def reference_tokenize(text: str) -> list[Token]:
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
                raise ExpressionError("unterminated operator letter", *advance(line, col, text[i:]))
            label = text[i + 2:j].strip()
            if not label:
                raise ExpressionError("empty operator letter", line, col + 2)
            tokens.append(Token("QLABEL", label, line, col))
            line, col = advance(line, col, text[i:j + 1])
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


def _outcome(scan, text):
    try:
        return "tokens", scan(text)
    except ExpressionError as exc:
        return "error", str(exc), exc.line, exc.column


# single characters: the grammar's, newlines and other whitespace (a
# no-break space, a line separator), and characters no token starts with
CHARS = "Qqe1209_xAZ[]+-*/().: \t\n\r\x0b\u00a0\u2028#é!,"
FRAGMENTS = ["Q[", "Q[1]", "Q[ 2 ]", "Q[\n]", "Q[]", "Q[ ]", "]", "e1", "e12", "x_1",
             "3/2", "3/", "07", "*", ".", ":", " ", "\n", "(", ")", "-", "+", "#"]
TEXTS = st.one_of(st.text(alphabet=CHARS, max_size=30),
                  st.lists(st.sampled_from(FRAGMENTS), max_size=12).map("".join))


@settings(max_examples=400, deadline=None)
@given(TEXTS)
def test_scanner_matches_the_reference_loop(text):
    assert _outcome(tokenize, text) == _outcome(reference_tokenize, text)


def test_reference_covers_every_outcome():
    # the fragments reach each error and each token kind of the scanner
    texts = ["e1 Q[", "Q[ ]", "e1 # e2", "3/2 * (e1 Q[1] e2 . x : y) - e1 + e2"]
    outcomes = [_outcome(reference_tokenize, t) for t in texts]
    assert [o[1] for o in outcomes[:3]] == [
        "unterminated operator letter at line 1, column 6",
        "empty operator letter at line 1, column 3",
        "unexpected character '#' at line 1, column 4",
    ]
    kinds = {tok.kind for tok in outcomes[3][1]}
    assert kinds == {"NUMBER", "IDENT", "QLABEL", "PLUS", "MINUS", "STAR", "LPAREN", "RPAREN",
                     "DOT", "COLON", "END"}
    for text in texts:
        assert _outcome(tokenize, text) == _outcome(reference_tokenize, text)
