"""Scenario language: declarative group/endomorphism definitions and analyses.

Grammar (one statement per line, ``#`` starts a comment, files use ``.pfg``):

    group NAME = gexpr
    endo NAME on NAME = hexpr
    semigroup NAME on NAME = { NAME, ... }
    tower NAME = BUILDER(params) depth INT
    analyze ANALYSIS(args)
    set KEY = VALUE                     # KEY: order_guard, jobs, seed

    gexpr  := cyclic(INT) | units_mod(INT, INT) | product(NAME, NAME)
            | semidirect(gexpr, gexpr, action) | table(PATH)
    action := invert | mult_action | trivial
            | act { elem -> { elem -> elem, ... }, ... }
    hexpr  := identity | trivial | scale_first(INT) | project_away(INT)
            | map { elem -> elem, ... }
    elem   := INT | ( elem, elem )          # pair encoding, left-major
    args   := NAME | INT | {INT|NAME, ...} | [elem, ...]
    INT    := [0-9]+ | -[0-9]+
    PATH   := "..."                         # a table file, relative to the scenario

Commas separate the entries of every ``{...}``, ``[...]`` and ``(...)``;
there is none after the last entry.

Analyses (argument kinds in ``report.ANALYSES``): contraction, theorem_a,
splitthm, theorem_b, regulation, tfrelstab2, shrinkind, o_pi, fewprimes,
hom_search, typef.

Builders (parameter counts in ``tower.BUILDERS``): zp, zpn, units_semidirect,
product, s3_times_z2.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import construct
from .construct import (
    SemidirectProduct,
    check_prime_range,
    inversion_action,
    multiplication_action,
    trivial_action,
    units_residues,
)
from .core import (
    FiniteGroup,
    GroupError,
    GroupHom,
    MAX_ORDER,
    NotAHomomorphism,
    OrderGuardExceeded,
    ParamOutOfRange,
    closure,
    build_from_table,
    extend_images,
)
from .endo import EndoSemigroup
from .lattice import prime_factors
from .report import ANALYSES
from .tower import BUILDERS, build_tower

OPTION_KEYS = {"order_guard", "jobs", "seed"}

# The argument kinds of every constructor, by the grammar symbol it stands
# for; None marks a bare word.  ``act {...}`` and ``map {...}`` are the
# generator-image forms of actions and endomorphisms.
CONSTRUCTORS = {
    "gexpr": {
        "cyclic": ("INT",),
        "units_mod": ("INT", "INT"),
        "product": ("NAME", "NAME"),
        "semidirect": ("gexpr", "gexpr", "action"),
        "table": ("PATH",),
    },
    "action": {"invert": None, "mult_action": None, "trivial": None},
    "hexpr": {"identity": None, "trivial": None, "scale_first": ("INT",), "project_away": ("INT",)},
}
# per grammar symbol: the diagnostic for a missing expression, and the name of an unknown head
_MISSING = {
    "gexpr": ("expected a group expression, found {found}", "group constructor"),
    "action": ("expected an action", "action"),
    "hexpr": ("expected an endomorphism expression", "endomorphism constructor"),
}


@dataclass(frozen=True)
class ParseDiagnostic:
    severity: str
    message: str
    line: int
    column: int
    snippet: str

    def __str__(self) -> str:
        return f"{self.severity}: line {self.line}, column {self.column}: {self.message}"


class ScenarioError(GroupError):
    """Validation failure with a source location."""

    def __init__(self, kind: str, message: str, line: int = 0, column: int = 0):
        self.kind = kind
        self.line = line
        self.column = column
        super().__init__(f"{kind}: {message} (line {line}, column {column})")


# ---------------------------------------------------------------- tokenizer

_TOKEN = re.compile(
    r"""(?P<blank>[ \t\r]*)(?:
      (?P<sym>->|[(){}\[\],=])
    | (?P<int>-?[0-9]+)
    | "(?P<string>[^"]*)"
    | (?P<unterminated>".*)
    | (?P<name>[^\W\d]\w*)
    | (?P<char>[^ \t\r\#])
    )""",
    re.VERBOSE,
)


class _Token(NamedTuple):
    kind: str  # name | int | string | sym | newline | eof
    text: str
    line: int
    column: int


def _tokenize(source: str) -> tuple[list[_Token], list[ParseDiagnostic]]:
    tokens: list[_Token] = []
    diags: list[ParseDiagnostic] = []
    lines = source.split("\n")
    for li, raw in enumerate(lines, start=1):
        pos = 0
        while m := _TOKEN.match(raw, pos):  # none at a comment or the line's end
            kind, col, pos = m.lastgroup, m.end("blank") + 1, m.end()
            first = raw[col - 1]
            if kind == "name" and not (first.isalpha() or first == "_"):
                kind, pos = "char", col  # a numeral such as '²' or '½' starts no name
            if kind == "char":
                diags.append(ParseDiagnostic("error", f"unexpected character {first!r}", li, col, raw))
            elif kind == "unterminated":
                diags.append(ParseDiagnostic("error", "unterminated string", li, col, raw))
            else:
                tokens.append(_Token(kind, m[kind], li, col))
        tokens.append(_Token("newline", "", li, len(raw) + 1))
    tokens.append(_Token("eof", "", len(lines) + 1, 1))
    return tokens, diags


# ---------------------------------------------------------------------- AST

ElemExpr = object  # int or tuple of ElemExpr


@dataclass(frozen=True)
class Call:
    """A constructor of ``CONSTRUCTORS`` applied to its arguments: ints,
    names, a path or nested expressions."""

    head: str
    args: tuple = ()


@dataclass(frozen=True)
class ActionMap:
    entries: tuple[tuple[ElemExpr, tuple[tuple[ElemExpr, ElemExpr], ...]], ...]


@dataclass(frozen=True)
class HMap:
    entries: tuple[tuple[ElemExpr, ElemExpr], ...]


@dataclass(frozen=True)
class Stmt:
    line: int = field(compare=False)
    column: int = field(compare=False)


@dataclass(frozen=True)
class GroupDef(Stmt):
    name: str = ""
    expr: object = None


@dataclass(frozen=True)
class EndoDef(Stmt):
    name: str = ""
    group: str = ""
    expr: object = None


@dataclass(frozen=True)
class SemigroupDef(Stmt):
    name: str = ""
    group: str = ""
    members: tuple[str, ...] = ()


@dataclass(frozen=True)
class TowerDef(Stmt):
    name: str = ""
    builder: str = ""
    params: tuple = ()
    depth: int = 1


@dataclass(frozen=True)
class ARef:
    name: str


@dataclass(frozen=True)
class AInt:
    value: int


@dataclass(frozen=True)
class ASet:
    items: tuple


@dataclass(frozen=True)
class AList:
    elems: tuple


@dataclass(frozen=True)
class Analyze(Stmt):
    kind: str = ""
    args: tuple = ()


@dataclass(frozen=True)
class Option(Stmt):
    key: str = ""
    value: int = 0


@dataclass(frozen=True)
class ScenarioSpec:
    definitions: tuple[Stmt, ...]
    analyses: tuple[Analyze, ...]
    options: dict

    @property
    def statements(self) -> tuple[Stmt, ...]:
        merged: list[Stmt] = list(self.definitions) + list(self.analyses)
        merged.sort(key=lambda s: (s.line, s.column))
        return tuple(merged)


@dataclass
class ParseResult:
    spec: ScenarioSpec | None
    diagnostics: list[ParseDiagnostic]

    @property
    def ok(self) -> bool:
        return self.spec is not None


# ------------------------------------------------------------------- parser

def _found(t: _Token) -> str:
    return repr(t.text or t.kind)


class _Parser:
    def __init__(self, tokens: list[_Token], lines: list[str]):
        self.toks = tokens
        self.lines = lines
        self.pos = 0
        self.diags: list[ParseDiagnostic] = []
        self.open_stack: list[_Token] = []

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def at(self, sym: str) -> bool:
        t = self.toks[self.pos]
        return t.kind == "sym" and t.text == sym

    def next(self) -> _Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def error(self, message: str, tok: _Token | None = None) -> None:
        # a dangling delimiter is reported at the delimiter, not at line end
        if tok is None and self.peek().kind in ("newline", "eof") and self.open_stack:
            opened = self.open_stack[-1]
            message = f"unclosed {opened.text!r}"
            tok = opened
        tok = tok or self.peek()
        snippet = self.lines[tok.line - 1] if 0 < tok.line <= len(self.lines) else ""
        self.diags.append(ParseDiagnostic("error", message, tok.line, tok.column, snippet))
        raise _Bail()

    def expect_sym(self, sym: str, opened: _Token | None = None) -> _Token:
        t = self.peek()
        if self.at(sym):
            self.next()
            if sym in "([{":
                self.open_stack.append(t)
            elif sym in ")]}":
                self.open_stack.pop()
            return t
        if t.kind in ("newline", "eof"):
            if opened is not None:
                self.error(f"unclosed {opened.text!r}", opened)
            self.error(f"expected {sym!r}")
        self.error(f"expected {sym!r}, found {_found(t)}")

    def expect_int(self) -> int:
        """The one reading of an integer literal: one longer than Python
        converts (4300 digits by default) is an error at its column."""
        t = self.peek()
        if t.kind != "int":
            self.error(f"expected an integer, found {_found(t)}")
        try:
            value = int(t.text)
        except ValueError:
            self.error(f"integer literal of {len(t.text.lstrip('-'))} digits is too long", t)
        self.next()
        return value

    def expect_name(self, what: str = "a name") -> str:
        t = self.peek()
        if t.kind == "name":
            self.next()
            return t.text
        self.error(f"expected {what}, found {_found(t)}")

    def expect_word(self, word: str) -> None:
        if self.expect_name(f"'{word}'") != word:
            self.error(f"expected '{word}'")

    def int_or_name(self, message: str) -> int | str:
        t = self.peek()
        if t.kind == "int":
            return self.expect_int()
        if t.kind != "name":
            self.error(message)
        self.next()
        return t.text

    def items(self, parse_one, close: str, opened: _Token, empty: bool = False) -> tuple:
        """What parse_one reads, once or more (or none when ``empty``), with
        a comma between two entries, up to the bracket ``close`` of ``opened``."""
        out = []
        if not (empty and self.at(close)):
            out.append(parse_one())
            while self.at(","):
                self.next()
                out.append(parse_one())
        self.expect_sym(close, opened)
        return tuple(out)

    # statements ------------------------------------------------------

    def parse_scenario(self) -> ScenarioSpec | None:
        defs: list[Stmt] = []
        analyses: list[Analyze] = []
        options: dict = {}
        while True:
            while self.peek().kind == "newline":
                self.next()
            t = self.peek()
            if t.kind == "eof":
                break
            try:
                if t.kind != "name":
                    self.error(f"expected a statement keyword, found {_found(t)}")
                if t.text not in ("group", "endo", "semigroup", "tower", "analyze", "set"):
                    self.error(f"unknown keyword {t.text!r}")
                stmt = getattr(self, "parse_" + t.text)()
                if isinstance(stmt, Analyze):
                    analyses.append(stmt)
                elif isinstance(stmt, Option):
                    options[stmt.key] = stmt.value
                else:
                    defs.append(stmt)
                nt = self.peek()
                if nt.kind not in ("newline", "eof"):
                    self.error(f"unexpected trailing input {nt.text!r}")
            except _Bail:
                self.open_stack.clear()
                while self.peek().kind not in ("newline", "eof"):
                    self.next()
        if self.diags:
            return None
        return ScenarioSpec(tuple(defs), tuple(analyses), options)

    def parse_group(self) -> GroupDef:
        kw = self.next()
        name = self.expect_name("a group name")
        self.expect_sym("=")
        return GroupDef(kw.line, kw.column, name, self.parse_call("gexpr"))

    def parse_endo(self) -> EndoDef:
        kw = self.next()
        name = self.expect_name("an endomorphism name")
        self.expect_word("on")
        group = self.expect_name("a group name")
        self.expect_sym("=")
        return EndoDef(kw.line, kw.column, name, group, self.parse_call("hexpr"))

    def parse_semigroup(self) -> SemigroupDef:
        kw = self.next()
        name = self.expect_name("a semigroup name")
        self.expect_word("on")
        group = self.expect_name("a group name")
        self.expect_sym("=")
        members = self.items(lambda: self.expect_name("an endomorphism name"), "}", self.expect_sym("{"))
        return SemigroupDef(kw.line, kw.column, name, group, members)

    def parse_tower(self) -> TowerDef:
        kw = self.next()
        name = self.expect_name("a tower name")
        self.expect_sym("=")
        builder = self.expect_name("a builder name")
        if builder not in BUILDERS:
            self.error(f"unknown tower builder {builder!r}")
        param = "expected a builder parameter"
        params = self.items(lambda: self.int_or_name(param), ")", self.expect_sym("("), empty=True)
        self.expect_word("depth")
        return TowerDef(kw.line, kw.column, name, builder, params, self.expect_int())

    def parse_analyze(self) -> Analyze:
        kw = self.next()
        kind = self.expect_name("an analysis name")
        if kind not in ANALYSES:
            self.error(f"unknown analysis {kind!r}")
        args = self.items(self.parse_arg, ")", self.expect_sym("("), empty=True)
        return Analyze(kw.line, kw.column, kind, args)

    def parse_set(self) -> Option:
        kw = self.next()
        at = self.peek()
        key = self.expect_name("an option key")
        if key not in OPTION_KEYS:
            self.error(f"unknown option {key!r}; the options are {', '.join(sorted(OPTION_KEYS))}", at)
        self.expect_sym("=")
        at = self.peek()
        value = self.expect_int()
        if key == "order_guard" and value > MAX_ORDER:
            self.error(f"order_guard must be at most {MAX_ORDER}, the largest order an int16 table holds; got {value}", at)
        if key in ("order_guard", "jobs") and value < 1:
            self.error(f"{key} must be at least 1; got {value}", at)
        return Option(kw.line, kw.column, key, value)

    # expressions -----------------------------------------------------

    def parse_call(self, symbol: str):
        """One ``gexpr``, ``action`` or ``hexpr``: a constructor of
        ``CONSTRUCTORS[symbol]`` with its arguments, or a generator-image form."""
        missing, unknown = _MISSING[symbol]
        t = self.peek()
        if t.kind != "name":
            self.error(missing.format(found=_found(t)))
        head = self.next()
        if symbol == "action" and head.text == "act":
            return ActionMap(self.images(lambda: self.images(self.parse_elem)))
        if symbol == "hexpr" and head.text == "map":
            return HMap(self.images(self.parse_elem))
        if head.text not in CONSTRUCTORS[symbol]:
            self.error(f"unknown {unknown} {head.text!r}", head)
        kinds = CONSTRUCTORS[symbol][head.text]
        if kinds is None:
            return Call(head.text)
        op = self.expect_sym("(")
        args = []
        for i, kind in enumerate(kinds):
            if i:
                self.expect_sym(",", op)
            if kind == "INT":
                args.append(self.expect_int())
            elif kind == "NAME":
                args.append(self.expect_name("a group name"))
            elif kind == "PATH":
                if self.peek().kind != "string":
                    self.error("expected a quoted path")
                args.append(self.next().text)
            else:
                args.append(self.parse_call(kind))
        self.expect_sym(")", op)
        return Call(head.text, tuple(args))

    def images(self, parse_image) -> tuple:
        """``{elem -> image, ...}`` with at least one entry."""

        def entry():
            x = self.parse_elem()
            self.expect_sym("->")
            return x, parse_image()

        return self.items(entry, "}", self.expect_sym("{"))

    def parse_elem(self):
        if self.peek().kind == "int":
            return self.expect_int()
        if self.at("("):
            op = self.expect_sym("(")
            a = self.parse_elem()
            self.expect_sym(",", op)
            b = self.parse_elem()
            self.expect_sym(")", op)
            return (a, b)
        self.error("expected an element (integer or pair)")

    def parse_arg(self):
        t = self.peek()
        if t.kind == "name":
            self.next()
            return ARef(t.text)
        if t.kind == "int":
            return AInt(self.expect_int())
        if self.at("{"):
            item = "expected an integer or name inside { }"
            return ASet(self.items(lambda: self.int_or_name(item), "}", self.expect_sym("{"), empty=True))
        if self.at("["):
            return AList(self.items(self.parse_elem, "]", self.expect_sym("["), empty=True))
        self.error(f"expected an argument, found {_found(t)}")


class _Bail(Exception):
    pass


def parse(source: str) -> ParseResult:
    """Parse scenario text; on any error the result carries no ScenarioSpec
    and every diagnostic has a line/column location."""
    tokens, lex_diags = _tokenize(source)
    parser = _Parser(tokens, source.split("\n"))
    parser.diags.extend(lex_diags)
    return ParseResult(parser.parse_scenario(), parser.diags)


# ------------------------------------------------------------------ unparse

def _fmt_elem(e) -> str:
    if isinstance(e, tuple):
        return f"({_fmt_elem(e[0])}, {_fmt_elem(e[1])})"
    return str(e)


def _fmt_images(entries, fmt_image) -> str:
    return "{" + ", ".join(f"{_fmt_elem(x)} -> {fmt_image(y)}" for x, y in entries) + "}"


def _fmt_expr(e, kind: str = "") -> str:
    """A ``gexpr``, ``action`` or ``hexpr``, or an argument of the given kind
    in one, as scenario text."""
    if kind == "PATH":
        return f'"{e}"'
    if isinstance(e, (int, str)):
        return str(e)
    if isinstance(e, ActionMap):
        return "act " + _fmt_images(e.entries, lambda pairs: _fmt_images(pairs, _fmt_elem))
    if isinstance(e, HMap):
        return "map " + _fmt_images(e.entries, _fmt_elem)
    if not e.args:
        return e.head
    kinds = next(table[e.head] for table in CONSTRUCTORS.values() if e.head in table)
    return f"{e.head}({', '.join(map(_fmt_expr, e.args, kinds))})"


def _fmt_arg(a) -> str:
    if isinstance(a, ARef):
        return a.name
    if isinstance(a, AInt):
        return str(a.value)
    if isinstance(a, ASet):
        return "{" + ", ".join(map(str, a.items)) + "}"
    return "[" + ", ".join(_fmt_elem(e) for e in a.elems) + "]"


def unparse(spec: ScenarioSpec) -> str:
    """Canonical scenario text; reparsing it gives a structurally equal ScenarioSpec."""
    out = []
    for key, value in spec.options.items():
        out.append(f"set {key} = {value}")
    for stmt in spec.statements:
        if isinstance(stmt, GroupDef):
            out.append(f"group {stmt.name} = {_fmt_expr(stmt.expr)}")
        elif isinstance(stmt, EndoDef):
            out.append(f"endo {stmt.name} on {stmt.group} = {_fmt_expr(stmt.expr)}")
        elif isinstance(stmt, SemigroupDef):
            out.append(f"semigroup {stmt.name} on {stmt.group} = {{{', '.join(stmt.members)}}}")
        elif isinstance(stmt, TowerDef):
            params = ", ".join(str(p) for p in stmt.params)
            out.append(f"tower {stmt.name} = {stmt.builder}({params}) depth {stmt.depth}")
        elif isinstance(stmt, Analyze):
            out.append(f"analyze {stmt.kind}({', '.join(_fmt_arg(a) for a in stmt.args)})")
    return "\n".join(out) + "\n"


def specs_equivalent(a: ScenarioSpec, b: ScenarioSpec) -> bool:
    """Structural equality ignoring source locations."""
    return a.statements == b.statements and a.options == b.options


# ----------------------------------------------------------------- validate

@dataclass(frozen=True)
class ResolvedAnalysis:
    kind: str
    target: str
    args: tuple


@dataclass(frozen=True)
class ResolvedScenario:
    label: str
    environment: dict
    analyses: tuple[ResolvedAnalysis, ...]
    options: dict


class _GroupShape:
    """Element encoding of a constructed group: leaf or left-major pair."""

    def __init__(self, order: int, left: "_GroupShape | None" = None, right: "_GroupShape | None" = None):
        self.order = order
        self.left = left
        self.right = right

    def index_of(self, expr, where: Stmt) -> int:
        if isinstance(expr, int):
            if not 0 <= expr < self.order:
                raise ScenarioError("ParamOutOfRange", f"element {expr} out of range 0..{self.order - 1}", where.line, where.column)
            return expr
        if self.left is None:
            raise ScenarioError("ParamOutOfRange", "pair syntax used on a non-product group", where.line, where.column)
        a = self.left.index_of(expr[0], where)
        b = self.right.index_of(expr[1], where)
        return a * self.right.order + b


def _group_of(obj) -> FiniteGroup:
    return obj.group if isinstance(obj, SemidirectProduct) else obj


def _build_gexpr(expr: Call, lookup, base_dir: Path, guard: int | None, stmt: Stmt):
    """Returns (FiniteGroup or SemidirectProduct, shape)."""
    head, args = expr.head, expr.args
    if head == "cyclic":
        g = construct.cyclic(*args, order_guard=guard)
    elif head == "units_mod":
        g = construct.units_mod(*args, order_guard=guard)
    elif head == "table":
        g = build_from_table(construct.load_table_file(base_dir / args[0]), args[0], order_guard=guard)
    elif head == "product":
        a, sa = lookup(args[0], stmt, "group")
        b, sb = lookup(args[1], stmt, "group")
        g = construct.direct_product(_group_of(a), _group_of(b), order_guard=guard)
        return g, _GroupShape(g.order, sa, sb)
    else:  # semidirect
        n_obj, ns = _build_gexpr(args[0], lookup, base_dir, guard, stmt)
        h_obj, hs = _build_gexpr(args[1], lookup, base_dir, guard, stmt)
        n_grp, h_grp = _group_of(n_obj), _group_of(h_obj)
        action = _build_action(args[2], n_grp, h_grp, ns, hs, stmt)
        sd = construct.semidirect(n_grp, h_grp, action, order_guard=guard)
        return sd, _GroupShape(sd.group.order, ns, hs)
    return g, _GroupShape(g.order)


def _build_action(action, N: FiniteGroup, H: FiniteGroup, ns: _GroupShape, hs: _GroupShape, stmt: Stmt):
    if isinstance(action, ActionMap):
        # the H -> Aut(N) homomorphism from the images of acting generators
        act = np.zeros((H.order, N.order), dtype=np.int32)
        act[0] = np.arange(N.order, dtype=np.int32)
        given: dict[int, np.ndarray] = {}
        for h_expr, pairs in action.entries:
            h = hs.index_of(h_expr, stmt)
            row = _expand_hom(N, N, [(ns.index_of(a, stmt), ns.index_of(b, stmt)) for a, b in pairs], stmt)
            if not np.array_equal(given.setdefault(h, row), row):
                raise ScenarioError("NotAHomomorphism", f"conflicting images for acting element {h}", stmt.line, stmt.column)
            act[h] = row
        members, witness = extend_images(H.table, list(given), act, lambda a, b: a[:, b])
        if witness is not None:
            raise ScenarioError("NotAHomomorphism", f"action images conflict at acting pair {witness}", stmt.line, stmt.column)
        if members.size != H.order:
            raise ScenarioError("NotAHomomorphism", "action images do not cover the acting group", stmt.line, stmt.column)
        return act
    if action.head == "trivial":
        return trivial_action(N, H)
    if action.head == "invert":
        return inversion_action(N, H)
    # mult_action: H must be the unit group of N's modulus
    primes = prime_factors(N.order)
    if len(primes) != 1:
        raise ScenarioError("BadAction", "mult_action needs a prime-power cyclic normal part", stmt.line, stmt.column)
    (p,) = primes
    res = units_residues(p, round(math.log(N.order, p)))
    if len(res) != H.order:
        raise ScenarioError(
            "BadAction",
            f"mult_action needs the acting part to be the unit group (order {len(res)}, got {H.order})",
            stmt.line,
            stmt.column,
        )
    return multiplication_action(N, H, res)


def _expand_hom(G: FiniteGroup, H: FiniteGroup, pairs: list[tuple[int, int]], stmt: Stmt) -> np.ndarray:
    """Expand generator images into a full map; raises on an element given
    two images, a failed law or generators of a proper subgroup."""
    given = {0: 0}
    for x, y in pairs:
        if given.setdefault(x, y) != y:
            raise ScenarioError("NotAHomomorphism", f"conflicting images for element {x}", stmt.line, stmt.column)
    img = np.zeros(G.order, dtype=np.int32)
    img[list(given)] = list(given.values())
    members, witness = extend_images(G.table, list(given), img, lambda a, b: H.table[a, b])
    if witness is not None:
        raise ScenarioError("NotAHomomorphism", f"images violate the multiplication law at pair {witness}", stmt.line, stmt.column)
    if members.size != G.order:
        raise ScenarioError(
            "NotAHomomorphism",
            f"the given elements generate a proper subgroup (order {members.size} of {G.order})",
            stmt.line,
            stmt.column,
        )
    return img


def _build_hexpr(expr, target, shape: _GroupShape, stmt: Stmt) -> GroupHom:
    G = _group_of(target)
    if isinstance(expr, HMap):
        pairs = [(shape.index_of(a, stmt), shape.index_of(b, stmt)) for a, b in expr.entries]
        return GroupHom(G, G, _expand_hom(G, G, pairs, stmt), validate=False)
    if expr.head == "identity":
        return GroupHom(G, G, np.arange(G.order, dtype=np.int32), validate=False)
    if expr.head == "trivial":
        return GroupHom(G, G, np.zeros(G.order, dtype=np.int32), validate=False)
    (m,) = expr.args
    nb = 1 if shape.left is None else shape.right.order
    if expr.head == "scale_first":
        arr = construct.scale_first_map(G, m, nb)
    else:  # project_away
        if m not in (0, 1):
            raise ScenarioError("ParamOutOfRange", f"project_away coordinate must be 0 or 1, got {m}", stmt.line, stmt.column)
        if shape.left is None:
            raise ScenarioError("NotAHomomorphism", "project_away needs a product-like group", stmt.line, stmt.column)
        coords = [np.arange(G.order // nb, dtype=np.int32), np.arange(nb, dtype=np.int32)]
        coords[m] = np.zeros_like(coords[m])
        arr = construct.pair_map(*coords)
    try:
        return GroupHom(G, G, arr)
    except NotAHomomorphism as exc:
        raise ScenarioError("NotAHomomorphism", f"{_fmt_expr(expr)} is not an endomorphism here: {exc}", stmt.line, stmt.column)


def _kind_of(obj) -> str:
    """The argument kind of a defined object."""
    if isinstance(obj, GroupHom):
        return "endo"
    if isinstance(obj, EndoSemigroup):
        return "semigroup"
    if isinstance(obj, tuple):
        return "tower"
    return "group"


def _resolve_arg(arg, where: Analyze, lookup) -> tuple:
    """(kind, object, shape, argument) of one analysis argument; literals
    have the kinds int, set and list."""
    if isinstance(arg, ARef):
        obj, shape = lookup(arg.name, where)
        return _kind_of(obj), obj, shape, arg
    if isinstance(arg, ASet):
        return "set", tuple(lookup(i, where)[0] if isinstance(i, str) else i for i in arg.items), None, arg
    if isinstance(arg, AInt):
        return "int", arg.value, None, arg
    return "list", arg.elems, None, arg


def _fit(signature: tuple[str, ...], values: list, an: Analyze) -> tuple | None:
    """Coerce resolved arguments to one signature of ``report.AnalysisSpec``;
    None when an argument is not of the kind asked for.  An argument that
    belongs to another group than the first group argument is an error."""
    home = None  # (group, shape, name) of the first group argument
    out: list = []

    def same_group(G: FiniteGroup, name: str) -> None:
        if home is not None and G is not home[0]:
            raise ScenarioError("GroupMismatch", f"{name!r} is not defined on group {home[2]!r}", an.line, an.column)

    for want, (got, obj, shape, arg) in zip(signature, values):
        if want in ("group", "semidirect"):
            if got != "group" or (want == "semidirect" and not isinstance(obj, SemidirectProduct)):
                return None
            value = obj if want == "semidirect" else _group_of(obj)
            home = home or (_group_of(obj), shape, arg.name)
        elif want in ("endo", "semigroup"):
            if got != "endo" and got != want:
                return None
            G = obj.domain if got == "endo" else obj.parent
            same_group(G, arg.name)
            value = EndoSemigroup(G, [obj]) if got != want else obj
        elif want == "autos":
            if got != "set" or not all(isinstance(x, GroupHom) for x in obj):
                return None
            for name, f in zip(arg.items, obj):
                same_group(f.domain, name)
            value = obj
        elif want == "primes":
            if got != "set" or not all(isinstance(x, int) for x in obj):
                return None
            try:
                for p in obj:
                    check_prime_range(p)
            except ParamOutOfRange as exc:
                raise ScenarioError("ParamOutOfRange", str(exc), an.line, an.column)
            value = set(obj)
        elif want == "subgroup":
            if got != "list":
                return None
            G, group_shape, _name = home
            value = closure(G, [group_shape.index_of(e, an) for e in obj])
        else:  # tower, int
            if got != want:
                return None
            value = obj
        out.append(value)
    return tuple(out)


def validate(spec: ScenarioSpec, *, base_dir: str | Path = ".", order_guard: int | None = None) -> ResolvedScenario:
    """Construct every named object and coerce the arguments of every
    analysis request to a signature in ``report.ANALYSES``; an argument of
    the wrong kind or group is a ``ScenarioError`` located at its statement."""
    base = Path(base_dir)
    guard = spec.options.get("order_guard", order_guard)
    env: dict = {}
    defined_at: dict[str, int] = {}

    def define(name: str, value, stmt: Stmt) -> None:
        if name in env:
            raise ScenarioError("NameUnresolved", f"duplicate name {name!r}", stmt.line, stmt.column)
        env[name] = value
        defined_at[name] = stmt.line

    def lookup(name: str, where, kind: str | None = None) -> tuple:
        """The (object, shape) entry of a name defined before ``where``,
        whose object must be of ``kind`` when one is given."""
        if name not in env:
            raise ScenarioError("NameUnresolved", f"undefined name {name!r}", where.line, where.column)
        if defined_at[name] > where.line:
            raise ScenarioError(
                "NameUnresolved",
                f"{name!r} is used before its definition on line {defined_at[name]}",
                where.line,
                where.column,
            )
        entry = env[name]
        got = _kind_of(entry[0])
        if kind is not None and got != kind:
            raise ScenarioError("ArgumentKind", f"{name!r} is of kind {got}, expected {kind}", where.line, where.column)
        return entry

    for stmt in spec.definitions:
        try:
            if isinstance(stmt, GroupDef):
                obj, shape = _build_gexpr(stmt.expr, lookup, base, guard, stmt)
                define(stmt.name, (obj, shape), stmt)
            elif isinstance(stmt, EndoDef):
                target, shape = lookup(stmt.group, stmt, "group")
                hom = _build_hexpr(stmt.expr, target, shape, stmt)
                define(stmt.name, (hom, None), stmt)
            elif isinstance(stmt, SemigroupDef):
                G = _group_of(lookup(stmt.group, stmt, "group")[0])
                gens = []
                for m in stmt.members:
                    f = lookup(m, stmt, "endo")[0]
                    if f.domain is not G:
                        raise ScenarioError("GroupMismatch", f"{m!r} is not defined on group {stmt.group!r}", stmt.line, stmt.column)
                    gens.append(f)
                sg = EndoSemigroup(G, gens)
                if not sg.commutative:
                    i, j = sg._noncomm_witness
                    raise ScenarioError(
                        "CommutativityFailed",
                        f"generators {stmt.members[i]!r} and {stmt.members[j]!r} do not commute",
                        stmt.line,
                        stmt.column,
                    )
                define(stmt.name, (sg, None), stmt)
            elif isinstance(stmt, TowerDef):
                params = tuple(lookup(p, stmt, "tower")[0] if isinstance(p, str) else p for p in stmt.params)
                pair = build_tower(stmt.builder, params, stmt.depth, order_guard=guard)
                define(stmt.name, (pair, None), stmt)
        except ScenarioError:
            raise
        except OrderGuardExceeded as exc:
            raise ScenarioError("OrderGuard", str(exc), stmt.line, stmt.column)
        except (GroupError, OSError) as exc:
            # a construction that rejects its parameters, or a table file that cannot be read
            raise ScenarioError(type(exc).__name__, str(exc), stmt.line, stmt.column)

    analyses: list[ResolvedAnalysis] = []
    for an in spec.analyses:
        values = [_resolve_arg(arg, an, lookup) for arg in an.args]
        signatures = ANALYSES[an.kind].signatures
        for signature in signatures:
            args = _fit(signature, values, an) if len(signature) == len(values) else None
            if args is not None:
                break
        else:
            forms = " or ".join(f"({', '.join(sig)})" for sig in signatures)
            got = ", ".join(f"{kind} {_fmt_arg(arg)}" for kind, _obj, _shape, arg in values)
            raise ScenarioError("ArgumentKind", f"{an.kind} takes {forms}, got ({got})", an.line, an.column)
        target = ", ".join(_fmt_arg(a) for a in an.args)
        analyses.append(ResolvedAnalysis(an.kind, target, args))

    return ResolvedScenario("scenario", env, tuple(analyses), dict(spec.options))
