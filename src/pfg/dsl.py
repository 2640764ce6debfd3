"""Scenario language: declarative group/endomorphism definitions and analyses.

Grammar (one statement per line, ``#`` starts a comment, files use ``.pfg``):

    group NAME = gexpr
    endo NAME on NAME = hexpr
    semigroup NAME on NAME = { NAME, ... }
    tower NAME = BUILDER(params) depth INT
    analyze ANALYSIS(args)
    set KEY = VALUE                     # KEY: order_guard, jobs, seed

    gexpr  := cyclic(INT) | units_mod(INT, INT) | product(NAME, NAME)
            | semidirect(gexpr, gexpr, action) | table("PATH")
    action := invert | mult_action | trivial
            | act { helem -> { nelem -> nelem, ... }, ... }
    hexpr  := identity | trivial | scale_first(INT) | project_away(INT)
            | map { elem -> elem, ... }
    elem   := INT | ( elem, elem )          # pair encoding, left-major
    args   := NAME | INT | {INT|NAME, ...} | [elem, ...]

Analyses (argument kinds in ``report.ANALYSES``): contraction, theorem_a,
splitthm, theorem_b, regulation, tfrelstab2, shrinkind, o_pi, fewprimes,
hom_search, typef.

Builders: zp, zpn, units_semidirect, product, s3_times_z2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import construct
from .construct import (
    SemidirectProduct,
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
    closure,
    build_from_table,
    extend_images,
)
from .endo import EndoSemigroup
from .lattice import prime_factors
from .report import ANALYSES
from .tower import build_tower

BUILDERS = {"zp", "zpn", "units_semidirect", "product", "s3_times_z2"}
OPTION_KEYS = {"order_guard", "jobs", "seed"}


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

_SYMBOLS = ("->", "(", ")", "{", "}", "[", "]", ",", "=")


@dataclass(frozen=True)
class _Token:
    kind: str  # name | int | string | sym | newline | eof
    text: str
    line: int
    column: int


def _tokenize(source: str) -> tuple[list[_Token], list[ParseDiagnostic]]:
    tokens: list[_Token] = []
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
                tokens.append(_Token("sym", "->", li, col))
                i += 2
                continue
            if c in "(){}[],=":
                tokens.append(_Token("sym", c, li, col))
                i += 1
                continue
            if c == '"':
                j = text.find('"', i + 1)
                if j < 0:
                    diags.append(ParseDiagnostic("error", "unterminated string", li, col, raw))
                    i = len(text)
                    continue
                tokens.append(_Token("string", text[i + 1 : j], li, col))
                i = j + 1
                continue
            if c.isdigit() or (c == "-" and i + 1 < len(text) and text[i + 1].isdigit()):
                j = i + 1
                while j < len(text) and text[j].isdigit():
                    j += 1
                tokens.append(_Token("int", text[i:j], li, col))
                i = j
                continue
            if c.isalpha() or c == "_":
                j = i + 1
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                tokens.append(_Token("name", text[i:j], li, col))
                i = j
                continue
            diags.append(ParseDiagnostic("error", f"unexpected character {c!r}", li, col, raw))
            i += 1
        tokens.append(_Token("newline", "", li, len(raw) + 1))
    tokens.append(_Token("eof", "", len(lines) + 1, 1))
    return tokens, diags


# ---------------------------------------------------------------------- AST

ElemExpr = object  # int or tuple of ElemExpr


@dataclass(frozen=True)
class GCyclic:
    n: int


@dataclass(frozen=True)
class GUnits:
    p: int
    k: int


@dataclass(frozen=True)
class GProduct:
    left: str
    right: str


@dataclass(frozen=True)
class GTable:
    path: str


@dataclass(frozen=True)
class ActionName:
    name: str


@dataclass(frozen=True)
class ActionMap:
    entries: tuple[tuple[ElemExpr, tuple[tuple[ElemExpr, ElemExpr], ...]], ...]


@dataclass(frozen=True)
class GSemidirect:
    normal: object
    acting: object
    action: object


@dataclass(frozen=True)
class HBuiltin:
    name: str
    args: tuple[int, ...]


@dataclass(frozen=True)
class HMap:
    entries: tuple[tuple[ElemExpr, ElemExpr], ...]


@dataclass(frozen=True)
class Stmt:
    line: int
    column: int


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

class _Parser:
    def __init__(self, tokens: list[_Token], lines: list[str]):
        self.toks = tokens
        self.lines = lines
        self.pos = 0
        self.diags: list[ParseDiagnostic] = []
        self.open_stack: list[_Token] = []

    def peek(self) -> _Token:
        return self.toks[self.pos]

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
        if t.kind == "sym" and t.text == sym:
            self.next()
            if sym in "([{":
                self.open_stack.append(t)
            elif sym in ")]}" and self.open_stack:
                self.open_stack.pop()
            return t
        if t.kind in ("newline", "eof"):
            if opened is not None:
                self.error(f"unclosed {opened.text!r}", opened)
            self.error(f"expected {sym!r}")
        self.error(f"expected {sym!r}, found {t.text or t.kind!r}")

    def expect_int(self) -> int:
        t = self.peek()
        if t.kind == "int":
            self.next()
            return int(t.text)
        self.error(f"expected an integer, found {t.text or t.kind!r}")

    def expect_name(self, what: str = "a name") -> str:
        t = self.peek()
        if t.kind == "name":
            self.next()
            return t.text
        self.error(f"expected {what}, found {t.text or t.kind!r}")

    def skip_newlines(self) -> None:
        while self.peek().kind == "newline":
            self.next()

    # statements ------------------------------------------------------

    def parse_scenario(self) -> ScenarioSpec | None:
        defs: list[Stmt] = []
        analyses: list[Analyze] = []
        options: dict = {}
        while True:
            self.skip_newlines()
            t = self.peek()
            if t.kind == "eof":
                break
            try:
                stmt = self.parse_stmt()
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

    def parse_stmt(self) -> Stmt:
        t = self.peek()
        if t.kind != "name":
            self.error(f"expected a statement keyword, found {t.text or t.kind!r}")
        if t.text == "group":
            return self.parse_groupdef()
        if t.text == "endo":
            return self.parse_endodef()
        if t.text == "semigroup":
            return self.parse_semigroupdef()
        if t.text == "tower":
            return self.parse_towerdef()
        if t.text == "analyze":
            return self.parse_analyze()
        if t.text == "set":
            return self.parse_option()
        self.error(f"unknown keyword {t.text!r}")

    def parse_groupdef(self) -> GroupDef:
        kw = self.next()
        name = self.expect_name("a group name")
        self.expect_sym("=")
        expr = self.parse_gexpr()
        return GroupDef(kw.line, kw.column, name, expr)

    def parse_gexpr(self):
        t = self.peek()
        if t.kind != "name":
            self.error(f"expected a group expression, found {t.text or t.kind!r}")
        head = self.next()
        if head.text == "cyclic":
            op = self.expect_sym("(")
            n = self.expect_int()
            self.expect_sym(")", op)
            return GCyclic(n)
        if head.text == "units_mod":
            op = self.expect_sym("(")
            p = self.expect_int()
            self.expect_sym(",", op)
            k = self.expect_int()
            self.expect_sym(")", op)
            return GUnits(p, k)
        if head.text == "product":
            op = self.expect_sym("(")
            a = self.expect_name("a group name")
            self.expect_sym(",", op)
            b = self.expect_name("a group name")
            self.expect_sym(")", op)
            return GProduct(a, b)
        if head.text == "table":
            op = self.expect_sym("(")
            t = self.peek()
            if t.kind != "string":
                self.error("expected a quoted path")
            self.next()
            self.expect_sym(")", op)
            return GTable(t.text)
        if head.text == "semidirect":
            op = self.expect_sym("(")
            n = self.parse_gexpr()
            self.expect_sym(",", op)
            h = self.parse_gexpr()
            self.expect_sym(",", op)
            action = self.parse_action()
            self.expect_sym(")", op)
            return GSemidirect(n, h, action)
        self.error(f"unknown group constructor {head.text!r}", head)

    def parse_action(self):
        t = self.peek()
        if t.kind != "name":
            self.error("expected an action")
        if t.text in ("invert", "mult_action", "trivial"):
            self.next()
            return ActionName(t.text)
        if t.text == "act":
            self.next()
            ob = self.expect_sym("{")
            entries = []
            while True:
                h = self.parse_elem()
                self.expect_sym("->")
                ib = self.expect_sym("{")
                pairs = []
                while True:
                    a = self.parse_elem()
                    self.expect_sym("->")
                    b = self.parse_elem()
                    pairs.append((a, b))
                    if self.peek().text == ",":
                        self.next()
                        continue
                    break
                self.expect_sym("}", ib)
                entries.append((h, tuple(pairs)))
                if self.peek().text == ",":
                    self.next()
                    continue
                break
            self.expect_sym("}", ob)
            return ActionMap(tuple(entries))
        self.error(f"unknown action {t.text!r}")

    def parse_elem(self):
        t = self.peek()
        if t.kind == "int":
            self.next()
            return int(t.text)
        if t.kind == "sym" and t.text == "(":
            op = self.next()
            a = self.parse_elem()
            self.expect_sym(",", op)
            b = self.parse_elem()
            self.expect_sym(")", op)
            return (a, b)
        self.error("expected an element (integer or pair)")

    def parse_endodef(self) -> EndoDef:
        kw = self.next()
        name = self.expect_name("an endomorphism name")
        on = self.expect_name("'on'")
        if on != "on":
            self.error("expected 'on'")
        group = self.expect_name("a group name")
        self.expect_sym("=")
        expr = self.parse_hexpr()
        return EndoDef(kw.line, kw.column, name, group, expr)

    def parse_hexpr(self):
        t = self.peek()
        if t.kind != "name":
            self.error("expected an endomorphism expression")
        head = self.next()
        if head.text in ("identity", "trivial"):
            return HBuiltin(head.text, ())
        if head.text in ("scale_first", "project_away"):
            op = self.expect_sym("(")
            n = self.expect_int()
            self.expect_sym(")", op)
            return HBuiltin(head.text, (n,))
        if head.text == "map":
            ob = self.expect_sym("{")
            entries = []
            while True:
                a = self.parse_elem()
                self.expect_sym("->")
                b = self.parse_elem()
                entries.append((a, b))
                if self.peek().text == ",":
                    self.next()
                    continue
                break
            self.expect_sym("}", ob)
            return HMap(tuple(entries))
        self.error(f"unknown endomorphism constructor {head.text!r}", head)

    def parse_semigroupdef(self) -> SemigroupDef:
        kw = self.next()
        name = self.expect_name("a semigroup name")
        if self.expect_name("'on'") != "on":
            self.error("expected 'on'")
        group = self.expect_name("a group name")
        self.expect_sym("=")
        ob = self.expect_sym("{")
        members = [self.expect_name("an endomorphism name")]
        while self.peek().text == ",":
            self.next()
            members.append(self.expect_name("an endomorphism name"))
        self.expect_sym("}", ob)
        return SemigroupDef(kw.line, kw.column, name, group, tuple(members))

    def parse_towerdef(self) -> TowerDef:
        kw = self.next()
        name = self.expect_name("a tower name")
        self.expect_sym("=")
        builder = self.expect_name("a builder name")
        if builder not in BUILDERS:
            self.error(f"unknown tower builder {builder!r}")
        op = self.expect_sym("(")
        params: list = []
        if self.peek().text != ")":
            while True:
                t = self.peek()
                if t.kind == "int":
                    params.append(int(self.next().text))
                elif t.kind == "name":
                    params.append(self.next().text)
                else:
                    self.error("expected a builder parameter")
                if self.peek().text == ",":
                    self.next()
                    continue
                break
        self.expect_sym(")", op)
        if self.expect_name("'depth'") != "depth":
            self.error("expected 'depth'")
        depth = self.expect_int()
        return TowerDef(kw.line, kw.column, name, builder, tuple(params), depth)

    def parse_analyze(self) -> Analyze:
        kw = self.next()
        kind = self.expect_name("an analysis name")
        if kind not in ANALYSES:
            self.error(f"unknown analysis {kind!r}")
        op = self.expect_sym("(")
        args: list = []
        if self.peek().text != ")":
            while True:
                args.append(self.parse_arg())
                if self.peek().text == ",":
                    self.next()
                    continue
                break
        self.expect_sym(")", op)
        return Analyze(kw.line, kw.column, kind, tuple(args))

    def parse_arg(self):
        t = self.peek()
        if t.kind == "name":
            self.next()
            return ARef(t.text)
        if t.kind == "int":
            self.next()
            return AInt(int(t.text))
        if t.kind == "sym" and t.text == "{":
            ob = self.next()
            items: list = []
            while self.peek().text != "}":
                it = self.peek()
                if it.kind == "int":
                    items.append(int(self.next().text))
                elif it.kind == "name":
                    items.append(self.next().text)
                else:
                    self.error("expected an integer or name inside { }")
                if self.peek().text == ",":
                    self.next()
            self.expect_sym("}", ob)
            return ASet(tuple(items))
        if t.kind == "sym" and t.text == "[":
            ob = self.next()
            elems: list = []
            while self.peek().text != "]":
                elems.append(self.parse_elem())
                if self.peek().text == ",":
                    self.next()
            self.expect_sym("]", ob)
            return AList(tuple(elems))
        self.error(f"expected an argument, found {t.text or t.kind!r}")

    def parse_option(self) -> Option:
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
        return Option(kw.line, kw.column, key, value)


class _Bail(Exception):
    pass


def parse(source: str) -> ParseResult:
    """Parse scenario text; on any error the result carries no ScenarioSpec
    and every diagnostic has a line/column location."""
    tokens, lex_diags = _tokenize(source)
    parser = _Parser(tokens, source.split("\n"))
    parser.diags.extend(lex_diags)
    spec = parser.parse_scenario()
    if lex_diags:
        spec = None
    return ParseResult(spec, parser.diags)


# ------------------------------------------------------------------ unparse

def _fmt_elem(e) -> str:
    if isinstance(e, tuple):
        return f"({_fmt_elem(e[0])}, {_fmt_elem(e[1])})"
    return str(e)


def _fmt_gexpr(e) -> str:
    if isinstance(e, GCyclic):
        return f"cyclic({e.n})"
    if isinstance(e, GUnits):
        return f"units_mod({e.p}, {e.k})"
    if isinstance(e, GProduct):
        return f"product({e.left}, {e.right})"
    if isinstance(e, GTable):
        return f'table("{e.path}")'
    if isinstance(e, GSemidirect):
        return f"semidirect({_fmt_gexpr(e.normal)}, {_fmt_gexpr(e.acting)}, {_fmt_action(e.action)})"
    raise TypeError(f"not a group expression: {e!r}")


def _fmt_action(a) -> str:
    if isinstance(a, ActionName):
        return a.name
    inner = ", ".join(
        f"{_fmt_elem(h)} -> {{{', '.join(f'{_fmt_elem(x)} -> {_fmt_elem(y)}' for x, y in pairs)}}}"
        for h, pairs in a.entries
    )
    return f"act {{{inner}}}"


def _fmt_hexpr(e) -> str:
    if isinstance(e, HBuiltin):
        return e.name if not e.args else f"{e.name}({', '.join(map(str, e.args))})"
    inner = ", ".join(f"{_fmt_elem(a)} -> {_fmt_elem(b)}" for a, b in e.entries)
    return f"map {{{inner}}}"


def _fmt_arg(a) -> str:
    if isinstance(a, ARef):
        return a.name
    if isinstance(a, AInt):
        return str(a.value)
    if isinstance(a, ASet):
        return "{" + ", ".join(map(str, a.items)) + "}"
    if isinstance(a, AList):
        return "[" + ", ".join(_fmt_elem(e) for e in a.elems) + "]"
    raise TypeError(f"not an argument: {a!r}")


def unparse(spec: ScenarioSpec) -> str:
    """Canonical scenario text; reparsing it gives a structurally equal ScenarioSpec."""
    out = []
    for key, value in spec.options.items():
        out.append(f"set {key} = {value}")
    for stmt in spec.statements:
        if isinstance(stmt, GroupDef):
            out.append(f"group {stmt.name} = {_fmt_gexpr(stmt.expr)}")
        elif isinstance(stmt, EndoDef):
            out.append(f"endo {stmt.name} on {stmt.group} = {_fmt_hexpr(stmt.expr)}")
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

    def strip(stmt):
        if isinstance(stmt, GroupDef):
            return ("group", stmt.name, stmt.expr)
        if isinstance(stmt, EndoDef):
            return ("endo", stmt.name, stmt.group, stmt.expr)
        if isinstance(stmt, SemigroupDef):
            return ("semigroup", stmt.name, stmt.group, stmt.members)
        if isinstance(stmt, TowerDef):
            return ("tower", stmt.name, stmt.builder, stmt.params, stmt.depth)
        if isinstance(stmt, Analyze):
            return ("analyze", stmt.kind, stmt.args)
        raise TypeError(stmt)

    return (
        [strip(s) for s in a.statements] == [strip(s) for s in b.statements]
        and a.options == b.options
    )


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
                raise ScenarioError("NameUnresolved", f"element {expr} out of range 0..{self.order - 1}", where.line, where.column)
            return expr
        if self.left is None:
            raise ScenarioError("NameUnresolved", "pair syntax used on a non-product group", where.line, where.column)
        a = self.left.index_of(expr[0], where)
        b = self.right.index_of(expr[1], where)
        return a * self.right.order + b


def _group_of(obj) -> FiniteGroup:
    return obj.group if isinstance(obj, SemidirectProduct) else obj


def _build_gexpr(expr, lookup, base_dir: Path, guard: int | None, stmt: Stmt):
    """Returns (FiniteGroup or SemidirectProduct, shape)."""
    if isinstance(expr, GCyclic):
        g = construct.cyclic(expr.n, order_guard=guard)
        return g, _GroupShape(g.order)
    if isinstance(expr, GUnits):
        g = construct.units_mod(expr.p, expr.k, order_guard=guard)
        return g, _GroupShape(g.order)
    if isinstance(expr, GTable):
        table = construct.load_table_file(base_dir / expr.path)
        g = build_from_table(table, expr.path, order_guard=guard)
        return g, _GroupShape(g.order)
    if isinstance(expr, GProduct):
        a, sa = lookup(expr.left, stmt, "group")
        b, sb = lookup(expr.right, stmt, "group")
        g = construct.direct_product(_group_of(a), _group_of(b), order_guard=guard)
        return g, _GroupShape(g.order, sa, sb)
    if isinstance(expr, GSemidirect):
        n_obj, ns = _build_gexpr(expr.normal, lookup, base_dir, guard, stmt)
        h_obj, hs = _build_gexpr(expr.acting, lookup, base_dir, guard, stmt)
        n_grp, h_grp = _group_of(n_obj), _group_of(h_obj)
        action = _build_action(expr.action, n_grp, h_grp, ns, hs, stmt)
        sd = construct.semidirect(n_grp, h_grp, action, order_guard=guard)
        return sd, _GroupShape(sd.group.order, ns, hs)
    raise ScenarioError("NameUnresolved", f"bad group expression {expr!r}", stmt.line, stmt.column)


def _build_action(action, N: FiniteGroup, H: FiniteGroup, ns: _GroupShape, hs: _GroupShape, stmt: Stmt):
    if isinstance(action, ActionName):
        if action.name == "trivial":
            return trivial_action(N, H)
        if action.name == "invert":
            return inversion_action(N, H)
        if action.name == "mult_action":
            # H must be the unit group of N's modulus
            primes = prime_factors(N.order)
            if len(primes) != 1:
                raise ScenarioError("OrderGuard", "mult_action needs a prime-power cyclic normal part", stmt.line, stmt.column)
            (p,) = primes
            res = units_residues(p, round(math.log(N.order, p)))
            if len(res) != H.order:
                raise ScenarioError(
                    "OrderGuard",
                    f"mult_action needs the acting part to be the unit group (order {len(res)}, got {H.order})",
                    stmt.line,
                    stmt.column,
                )
            return multiplication_action(N, H, res)
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
    raise ScenarioError("NameUnresolved", f"bad action {action!r}", stmt.line, stmt.column)


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
    if isinstance(expr, HBuiltin):
        if expr.name == "identity":
            return GroupHom(G, G, np.arange(G.order, dtype=np.int32), validate=False)
        if expr.name == "trivial":
            return GroupHom(G, G, np.zeros(G.order, dtype=np.int32), validate=False)
        if expr.name == "scale_first":
            (m,) = expr.args
            if isinstance(target, SemidirectProduct):
                arr = construct.scale_first_map(target, m)
            elif shape.left is not None:
                arr = construct.scale_first_map(G, m, right_order=shape.right.order)
            else:
                arr = construct.scale_first_map(G, m)
            try:
                return GroupHom(G, G, arr)
            except NotAHomomorphism as exc:
                raise ScenarioError("NotAHomomorphism", f"scale_first({m}) is not an endomorphism here: {exc}", stmt.line, stmt.column)
        if expr.name == "project_away":
            (coord,) = expr.args
            if shape.left is None:
                raise ScenarioError("NotAHomomorphism", "project_away needs a product-like group", stmt.line, stmt.column)
            nb = shape.right.order
            a, b = np.divmod(np.arange(G.order, dtype=np.int32), nb)
            arr = b if coord == 0 else a * nb
            try:
                return GroupHom(G, G, arr)
            except NotAHomomorphism as exc:
                raise ScenarioError("NotAHomomorphism", f"project_away({coord}) is not an endomorphism here: {exc}", stmt.line, stmt.column)
        raise ScenarioError("NameUnresolved", f"unknown builtin {expr.name!r}", stmt.line, stmt.column)
    if isinstance(expr, HMap):
        pairs = [(shape.index_of(a, stmt), shape.index_of(b, stmt)) for a, b in expr.entries]
        return GroupHom(G, G, _expand_hom(G, G, pairs, stmt), validate=False)
    raise ScenarioError("NameUnresolved", f"bad endomorphism expression {expr!r}", stmt.line, stmt.column)


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
