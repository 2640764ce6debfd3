"""The scenario tokenizer against the hand-written scanner it replaced, and
its handling of numerals outside ASCII."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfg.cli import main
from pfg.dsl import ParseDiagnostic, _tokenize, parse


def _oracle_tokenize(source: str) -> tuple[list[tuple], list[ParseDiagnostic]]:
    """The character-by-character scanner, as (kind, text, line, column)."""
    tokens: list[tuple] = []
    diags: list[ParseDiagnostic] = []
    lines = source.split("\n")
    for li, raw in enumerate(lines, start=1):
        i = 0
        text = raw
        while i < len(text):
            c = text[i]
            if c == "#":
                break
            if c in " \t\r":
                i += 1
                continue
            col = i + 1
            if text.startswith("->", i):
                tokens.append(("sym", "->", li, col))
                i += 2
                continue
            if c in "(){}[],=":
                tokens.append(("sym", c, li, col))
                i += 1
                continue
            if c == '"':
                j = text.find('"', i + 1)
                if j < 0:
                    diags.append(ParseDiagnostic("error", "unterminated string", li, col, raw))
                    i = len(text)
                    continue
                tokens.append(("string", text[i + 1 : j], li, col))
                i = j + 1
                continue
            if c.isdigit() or (c == "-" and i + 1 < len(text) and text[i + 1].isdigit()):
                j = i + 1
                while j < len(text) and text[j].isdigit():
                    j += 1
                tokens.append(("int", text[i:j], li, col))
                i = j
                continue
            if c.isalpha() or c == "_":
                j = i + 1
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                tokens.append(("name", text[i:j], li, col))
                i = j
                continue
            diags.append(ParseDiagnostic("error", f"unexpected character {c!r}", li, col, raw))
            i += 1
        tokens.append(("newline", "", li, len(raw) + 1))
    tokens.append(("eof", "", len(lines) + 1, 1))
    return tokens, diags


# the scenario language's characters, other ASCII, and letters outside ASCII;
# numerals outside ASCII are the one place the two scanners part
ALPHABET = "aAzZ_09-7>(){}[],=#\" \t\r\n.@!+αéßΩ中"


@settings(max_examples=500, derandomize=True, deadline=None)
@given(source=st.text(alphabet=ALPHABET, max_size=40))
def test_tokenizer_matches_the_character_scanner(source):
    tokens, diags = _tokenize(source)
    assert ([(t.kind, t.text, t.line, t.column) for t in tokens], diags) == _oracle_tokenize(source)


@pytest.mark.parametrize("numeral", ["²", "٣", "½"])
def test_numeral_outside_ascii_is_located_and_run_exits_2(numeral, tmp_path):
    source = f"group G = cyclic({numeral})\n"
    result = parse(source)
    assert result.spec is None
    d = result.diagnostics[0]  # then the parser's: no integer before ')'
    assert (d.line, d.column, d.message) == (1, 18, f"unexpected character {numeral!r}")
    # after an ASCII integer, the integer ends where the numeral starts
    (d,) = parse(f"group G = cyclic(4{numeral})\n").diagnostics
    assert (d.column, d.message) == (19, f"unexpected character {numeral!r}")
    path = tmp_path / "numeral.pfg"
    path.write_text(source, encoding="utf-8")
    assert main(["run", str(path)]) == 2


def test_names_keep_letters_and_numerals_after_the_first_character():
    tokens, diags = _tokenize("group α² = cyclic(2)")
    assert not diags
    assert [(t.kind, t.text) for t in tokens[:2]] == [("name", "group"), ("name", "α²")]
