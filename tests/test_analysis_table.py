"""The analysis table: its documentation, and parse -> validate -> run on
arbitrary argument lists, mutated shipped scenarios and random token
streams."""

import json
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pfg.dsl
from pfg.cli import main
from pfg.dsl import CONSTRUCTORS, ScenarioError, _tokenize, parse, validate
from pfg.report import ANALYSES, emit, run
from pfg.tower import BUILDERS

README = Path(__file__).resolve().parents[1] / "README.md"
STATUSES = {"pass", "fail", "skipped", "hypotheses_not_met", "budget_exceeded"}


def _block_after(text: str, heading: str) -> str:
    """The lines from the one starting with heading up to the next blank line."""
    start = next(i for i, line in enumerate(text.splitlines()) if line.startswith(heading))
    lines = text.splitlines()[start:]
    return "\n".join(lines[: lines.index("")] if "" in lines else lines)


class TestDocumentation:
    def test_readme_lists_every_analysis_with_its_signatures(self):
        block = _block_after(README.read_text(encoding="utf-8"), "Analyses")
        forms: dict[str, set[str]] = {}
        for line in block.splitlines()[1:]:
            head = line.split(": ", 1)[0]  # the forms, before the description
            for kind, args in re.findall(r"`(\w+)\(([\w, ]*)\)`", head):
                forms.setdefault(kind, set()).add(args)
        assert forms == {k: {", ".join(sig) for sig in spec.signatures} for k, spec in ANALYSES.items()}

    def test_dsl_docstring_names_every_analysis(self):
        block = _block_after(pfg.dsl.__doc__, "Analyses")
        names = set(re.findall(r"\w+", block.split(":", 1)[1]))
        assert names == set(ANALYSES)

    def test_dsl_docstring_grammar_names_every_constructor(self):
        grammar = {}  # grammar symbol -> its alternatives other than the generator-image form
        for line in pfg.dsl.__doc__.splitlines():
            m = re.match(r"\s+(\w+)\s+:= (.*)", line)
            if m:
                symbol, line = m[1], m[2]
            elif not line.lstrip().startswith("|"):
                continue
            grammar.setdefault(symbol, set()).update(
                alt.strip() for alt in line.split("|") if alt.strip() and "{" not in alt
            )
        for symbol, table in CONSTRUCTORS.items():
            assert grammar[symbol] == {h if kinds is None else f"{h}({', '.join(kinds)})" for h, kinds in table.items()}
        names = set(re.findall(r"\w+", _block_after(pfg.dsl.__doc__, "Builders").split(":", 1)[1]))
        assert names == set(BUILDERS)

    def test_readme_lists_every_constructor_and_builder(self):
        block = _block_after(README.read_text(encoding="utf-8"), "Constructors")
        listed = {}  # line label -> {head: argument count, None for a bare word}
        for line in block.splitlines():
            if not line.startswith("- "):
                continue
            label, forms = line[2:].split(": ", 1)
            listed[label] = {
                head: len([a for a in args[1:-1].split(",") if a.strip()]) if args else None
                for head, args in re.findall(r"`(\w+)(\([^`()]*\))?`", forms)
            }

        def counts(table):
            return {head: None if kinds is None else len(kinds) for head, kinds in table.items()}

        assert listed == {
            "Groups": counts(CONSTRUCTORS["gexpr"]),
            "Actions": counts(CONSTRUCTORS["action"]),
            "Endomorphisms": counts(CONSTRUCTORS["hexpr"]),
            "Tower builders": BUILDERS,
        }


# Every argument kind of the table, with a wrong-group endo (h) among them.
PRELUDE = (
    "group G = cyclic(6)\n"
    "group D = semidirect(cyclic(3), cyclic(2), invert)\n"
    "endo f on G = scale_first(5)\n"
    "endo g on D = scale_first(3)\n"
    "endo h on D = identity\n"
    "semigroup L on D = {g}\n"
    "tower T = zp(2) depth 2\n"
)
POOL = ("G", "D", "f", "g", "h", "L", "T", "2", "{2, 3}", "{h}", "{}", "[1]")
# the pool entries of each argument kind, so that many requests fit a signature
FITTING = {
    "group": ("G", "D"),
    "semidirect": ("D",),
    "endo": ("f", "g", "h"),
    "semigroup": ("L", "g"),
    "tower": ("T",),
    "int": ("2",),
    "primes": ("{2, 3}", "{}"),
    "autos": ("{h}", "{}"),
    "subgroup": ("[1]",),
}


@st.composite
def requests(draw) -> tuple[str, list[str]]:
    """An analysis kind and 1-3 pool arguments: half the time all of the
    kinds one of its signatures asks for, otherwise each position either of
    that kind or any pool entry."""
    kind = draw(st.sampled_from(sorted(ANALYSES)))
    signature = draw(st.sampled_from(ANALYSES[kind].signatures))
    exact = draw(st.booleans())
    n = len(signature) if exact else draw(st.integers(1, 3))
    args = []
    for i in range(n):
        fitting = exact or (i < len(signature) and draw(st.booleans()))
        args.append(draw(st.sampled_from(FITTING[signature[i]] if fitting else POOL)))
    return kind, args


@settings(max_examples=300, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(request=requests())
def test_any_argument_list_runs_or_is_a_located_error(request):
    kind, args = request
    source = PRELUDE + f"analyze {kind}({', '.join(args)})\n"
    try:
        resolved = validate(parse(source).spec)
    except ScenarioError as exc:
        assert exc.line == 8 and exc.column >= 1
        return
    report = run(resolved)
    assert report.records and all(r.status in STATUSES for r in report.records)
    first = emit(report, "json")
    assert emit(report, "json") == first
    assert json.loads(first)["analyses"][0]["kind"] == kind


# ------------------------------------------------------------ token fuzzing

SCENARIOS = sorted((Path(pfg.dsl.__file__).parent / "scenarios").glob("*.pfg"))
GUARD = 600  # above every shipped group (486), so that perturbed numbers stay cheap


def _tokens(source: str) -> list[str]:
    """Token texts, with "\n" for each line end."""
    out = []
    for t in _tokenize(source)[0]:
        if t.kind == "newline":
            out.append("\n")
        elif t.kind != "eof":
            out.append(f'"{t.text}"' if t.kind == "string" else t.text)
    return out


def _source(tokens: list[str]) -> str:
    return "".join(t if t == "\n" else t + " " for t in tokens)


SHIPPED_TEXTS = [p.read_text(encoding="utf-8") for p in SCENARIOS]
SHIPPED_TOKENS = [_tokens(text) for text in SHIPPED_TEXTS]


@st.composite
def mutated_scenarios(draw) -> str:
    """A shipped scenario with one to three tokens dropped, duplicated or
    swapped, or integers moved by a little; half of the edits are the last
    kind, which most often still parses."""
    tokens = list(draw(st.sampled_from(SHIPPED_TOKENS)))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(tokens) - 1))
        how = draw(st.sampled_from(["perturb", "drop", "perturb", "duplicate", "perturb", "swap"]))
        if how == "drop":
            del tokens[i]
        elif how == "duplicate":
            tokens.insert(i, tokens[i])
        elif how == "swap":
            j = draw(st.integers(0, len(tokens) - 1))
            tokens[i], tokens[j] = tokens[j], tokens[i]
        else:
            ints = [k for k, t in enumerate(tokens) if t.lstrip("-").isdigit()]
            k = draw(st.sampled_from(ints))
            tokens[k] = str(int(tokens[k]) + draw(st.integers(-3, 3)))
        if not tokens:
            break
    return _source(tokens)


@st.composite
def character_edits(draw) -> str:
    """A shipped scenario with one to three characters inserted, among them
    numerals and a letter from outside ASCII."""
    text = draw(st.sampled_from(SHIPPED_TEXTS))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from("²٣½α(){}[],=-\"#9 ")) + text[i:]
    return text


VOCABULARY = (
    "group", "endo", "semigroup", "tower", "analyze", "set", "on", "map", "act", "depth",
    "cyclic", "units_mod", "semidirect", "product", "table", "zp", "zpn", "units_semidirect", "s3_times_z2",
    "scale_first", "identity", "trivial", "invert", "mult_action", "order_guard", "seed",
    *sorted(ANALYSES), "G", "H", "f", "g", "L", "T",
    "->", "(", ")", "{", "}", "[", "]", ",", "=", "0", "1", "2", "3", "4", "-1", '"x"', "\n",
)


def _assert_runs_or_located(source: str) -> None:
    """Parse -> validate -> run ends in located diagnostics or a report whose
    JSON bytes repeat; the command line exits with 0, 1 or 2."""
    result = parse(source)
    if result.spec is None:
        assert result.diagnostics and all(d.line >= 1 and d.column >= 1 for d in result.diagnostics)
    else:
        try:
            resolved = validate(result.spec, order_guard=GUARD)
        except ScenarioError as exc:
            assert exc.line >= 1 and exc.column >= 1, exc
        else:
            report = run(resolved)
            assert all(r.status in STATUSES for r in report.records)
            first = emit(report, "json")
            assert emit(report, "json") == first
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.pfg"
        path.write_text(source, encoding="utf-8")
        argv = ["run", str(path), "--format", "json", "--out", str(Path(tmp) / "out.json"), "--jobs", "1"]
        assert main([*argv, "--order-guard", str(GUARD)]) in {0, 1, 2}


@settings(max_examples=100, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(source=mutated_scenarios())
def test_mutated_shipped_scenario_runs_or_is_a_located_error(source):
    _assert_runs_or_located(source)


@settings(max_examples=150, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tokens=st.lists(st.sampled_from(VOCABULARY), max_size=40))
def test_random_token_stream_runs_or_is_a_located_error(tokens):
    _assert_runs_or_located(_source(tokens))


@settings(max_examples=100, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(source=character_edits())
def test_character_edit_runs_or_is_a_located_error(source):
    _assert_runs_or_located(source)
