"""Scenario language: parsing, diagnostics, validation, round-trips."""

import re

import numpy as np
import pytest

from pfg.dsl import (
    AList,
    ARef,
    ASet,
    ScenarioError,
    parse,
    specs_equivalent,
    unparse,
    validate,
)

PAPER_SNIPPET = (
    "group G = semidirect(cyclic(9), units_mod(3, 2), mult_action)\n"
    "endo f on G = scale_first(3)\n"
    "analyze theorem_a(G, f)\n"
)


class TestParse:
    def test_empty_source(self):
        result = parse("")
        assert result.ok
        assert result.spec.analyses == ()
        assert result.spec.definitions == ()

    def test_paper_snippet(self):
        result = parse(PAPER_SNIPPET)
        assert result.ok
        assert len(result.spec.analyses) == 1
        assert result.spec.analyses[0].kind == "theorem_a"

    def test_unclosed_paren_located(self):
        result = parse("group G = cyclic(\n")
        assert not result.ok
        d = result.diagnostics[0]
        assert d.line == 1
        assert d.column == 17  # the opening parenthesis
        assert "unclosed" in d.message

    def test_unknown_keyword(self):
        result = parse("frobnicate G = cyclic(3)\n")
        assert not result.ok
        assert result.diagnostics[0].line == 1

    def test_unknown_option_located_and_run_exits_2(self, tmp_path):
        # node_budget is no option: nothing in a run reads it
        source = "set node_budget = 1\ntower T = zp(2) depth 3\nanalyze typef(T, 2)\n"
        result = parse(source)
        assert not result.ok
        d = result.diagnostics[0]
        assert (d.line, d.column) == (1, 5)
        assert "unknown option 'node_budget'" in d.message
        path = tmp_path / "budget.pfg"
        path.write_text(source)
        from pfg.cli import main

        assert main(["run", str(path)]) == 2

    def test_comments_and_blank_lines(self):
        result = parse("# nothing here\n\n" + PAPER_SNIPPET + "\n# trailing\n")
        assert result.ok

    def test_multiple_diagnostics_with_recovery(self):
        result = parse("group G = cyclic(\ngroup H = wat(3)\n")
        assert not result.ok
        assert len(result.diagnostics) == 2
        assert [d.line for d in result.diagnostics] == [1, 2]

    def test_diagnostics_point_into_source(self):
        source = "group G = cyclic(3)\nanalyze bogus(G)\n"
        result = parse(source)
        assert not result.ok
        d = result.diagnostics[0]
        lines = source.split("\n")
        assert 1 <= d.line <= len(lines)
        assert 1 <= d.column <= len(lines[d.line - 1]) + 1


class TestRoundTrip:
    def test_paper_snippet(self):
        first = parse(PAPER_SNIPPET).spec
        text = unparse(first)
        second = parse(text).spec
        assert second is not None
        assert specs_equivalent(first, second)

    def test_options_and_towers(self):
        source = (
            "set order_guard = 2000\n"
            "tower T = zp(2) depth 4\n"
            "analyze theorem_b(T)\n"
            "analyze typef(T, 2)\n"
        )
        first = parse(source).spec
        second = parse(unparse(first)).spec
        assert specs_equivalent(first, second)

    def test_map_and_list_args(self):
        source = (
            "group A = cyclic(4)\n"
            "group B = cyclic(9)\n"
            "group G = product(A, B)\n"
            "endo f on G = map {(1, 1) -> (2, 1)}\n"
            "analyze shrinkind(G, f, [(0, 3)])\n"
        )
        first = parse(source).spec
        second = parse(unparse(first)).spec
        assert specs_equivalent(first, second)


class TestValidate:
    def test_paper_snippet_builds(self):
        resolved = validate(parse(PAPER_SNIPPET).spec)
        assert len(resolved.analyses) == 1
        g = resolved.environment["G"][0]
        assert g.group.order == 54

    def test_duplicate_name(self):
        spec = parse("group G = cyclic(2)\ngroup G = cyclic(3)\n").spec
        with pytest.raises(ScenarioError) as exc:
            validate(spec)
        assert exc.value.line == 2

    def test_undefined_reference(self):
        spec = parse("analyze theorem_a(G, f)\n").spec
        with pytest.raises(ScenarioError) as exc:
            validate(spec)
        assert exc.value.kind == "NameUnresolved"

    def test_use_before_definition_rejected(self):
        source = "tower T = zp(2) depth 2\nanalyze typef(U, 2)\ntower U = zp(3) depth 2\n"
        with pytest.raises(ScenarioError) as exc:
            validate(parse(source).spec)
        assert "before its definition" in str(exc.value)
        assert exc.value.line == 2

    def test_generator_images_violating_relation(self):
        spec = parse("group G = cyclic(4)\nendo f on G = map {1 -> 1, 2 -> 0}\n").spec
        with pytest.raises(ScenarioError) as exc:
            validate(spec)
        assert exc.value.kind == "NotAHomomorphism"
        assert exc.value.line == 2

    def test_generators_must_generate(self):
        spec = parse("group G = cyclic(4)\nendo f on G = map {2 -> 2}\n").spec
        with pytest.raises(ScenarioError) as exc:
            validate(spec)
        assert exc.value.kind == "NotAHomomorphism"

    def test_commutativity_failure(self):
        source = (
            "group D = semidirect(cyclic(3), cyclic(2), invert)\n"
            "endo a on D = map {2 -> 2, 1 -> 5}\n"
            "endo b on D = map {2 -> 4, 1 -> 1}\n"
            "semigroup L on D = {a, b}\n"
        )
        spec = parse(source).spec
        with pytest.raises(ScenarioError) as exc:
            validate(spec)
        assert exc.value.kind == "CommutativityFailed"

    def test_order_guard_option(self):
        spec = parse("set order_guard = 10\ngroup G = cyclic(50)\n").spec
        with pytest.raises(ScenarioError) as exc:
            validate(spec)
        assert exc.value.kind == "OrderGuard"

    def test_action_by_generator_images(self):
        # inversion on Z/5 written out as an explicit action map
        source = (
            "group G = semidirect(cyclic(5), cyclic(2), act {1 -> {1 -> 4}})\n"
            "endo f on G = scale_first(5)\n"
            "analyze theorem_a(G, f)\n"
        )
        resolved = validate(parse(source).spec)
        assert resolved.environment["G"][0].group.order == 10

    def test_action_images_violating_relation(self):
        # doubling on Z/5 has order 4, so it cannot be the image of the involution of C2
        source = "group A = cyclic(2)\n  group G = semidirect(cyclic(5), cyclic(2), act {1 -> {1 -> 2}})\n"
        with pytest.raises(ScenarioError) as exc:
            validate(parse(source).spec)
        assert exc.value.kind == "NotAHomomorphism"
        assert (exc.value.line, exc.value.column) == (2, 3)
        assert "acting pair (1, 1)" in str(exc.value)

    def test_action_repeated_acting_element_located_and_run_exits_2(self, tmp_path):
        # two different automorphisms given for the same acting element
        source = "group A = cyclic(2)\n  group G = semidirect(cyclic(5), cyclic(4), act {1 -> {1 -> 2}, 1 -> {1 -> 3}})\n"
        with pytest.raises(ScenarioError) as exc:
            validate(parse(source).spec)
        assert exc.value.kind == "NotAHomomorphism"
        assert (exc.value.line, exc.value.column) == (2, 3)
        assert "conflicting images for acting element 1" in str(exc.value)
        path = tmp_path / "bad.pfg"
        path.write_text(source)
        from pfg.cli import main

        assert main(["run", str(path)]) == 2

    def test_action_repeated_acting_element_same_images(self):
        source = "group G = semidirect(cyclic(5), cyclic(4), act {1 -> {1 -> 2}, 1 -> {1 -> 2}})\n"
        resolved = validate(parse(source).spec)
        assert resolved.environment["G"][0].group.order == 20

    def test_table_group(self, tmp_path):
        path = tmp_path / "z4.tbl"
        path.write_text("\n".join(" ".join(str((i + j) % 4) for j in range(4)) for i in range(4)))
        spec = parse(f'group G = table("{path.name}")\nanalyze o_pi(G, {{2}})\n').spec
        resolved = validate(spec, base_dir=tmp_path)
        assert resolved.environment["G"][0].order == 4


class TestConstructionErrorsLocated:
    @pytest.mark.parametrize(
        "definition, kind",
        [
            ("group G = cyclic(0)", "ParamOutOfRange"),
            ("group U = units_mod(4, 2)", "ParamOutOfRange"),
            ("group G = semidirect(cyclic(4), cyclic(3), invert)", "BadAction"),
            ('group G = table("missing.txt")', "FileNotFoundError"),
            ('group G = table("ragged.txt")', "ParamOutOfRange"),
            ("endo p on P = project_away(7)", "ParamOutOfRange"),
            ("endo p on P = project_away(-3)", "ParamOutOfRange"),
        ],
    )
    def test_error_is_located_and_run_exits_2(self, definition, kind, tmp_path):
        (tmp_path / "ragged.txt").write_text("1 2\n3\n")
        source = f"group A = cyclic(4)\ngroup B = cyclic(9)\ngroup P = product(A, B)\n  {definition}\n"
        with pytest.raises(ScenarioError) as exc:
            validate(parse(source).spec, base_dir=tmp_path)
        assert exc.value.kind == kind
        assert (exc.value.line, exc.value.column) == (4, 3)
        path = tmp_path / "bad.pfg"
        path.write_text(source)
        from pfg.cli import main

        assert main(["run", str(path)]) == 2


class TestRawTableDiagnostics:
    """A table(...) file is raw input: it keeps every check, down to Light's test."""

    def _run(self, tmp_path, capsys, cell, value):
        from pfg.cli import main
        from pfg.construct import dihedral

        t = dihedral(4).group.table.copy()
        t[cell] = value
        (tmp_path / "d8.txt").write_text("\n".join(" ".join(map(str, row)) for row in t))
        path = tmp_path / "d8.pfg"
        path.write_text('group G = table("d8.txt")\nanalyze o_pi(G, {2})\n')
        assert main(["run", str(path)]) == 2
        return t, capsys.readouterr().err

    def test_corrupted_entry_is_a_located_triple(self, tmp_path, capsys):
        t, err = self._run(tmp_path, capsys, (3, 4), 1)
        m = re.search(r"NotAssociative: associativity fails at triple \((\d+), (\d+), (\d+)\) \(line 1, column 1\)", err)
        assert m, err
        x, y, z = map(int, m.groups())
        assert t[t[x, y], z] != t[x, t[y, z]]

    def test_out_of_range_entry_is_located(self, tmp_path, capsys):
        _, err = self._run(tmp_path, capsys, (3, 4), 8)
        assert "ParamOutOfRange: table entries must be element indices in range (line 1, column 1)" in err

    def test_entry_past_int16_is_located_not_wrapped(self, tmp_path, capsys):
        # 65539 would wrap round to 3 in int16; D8 has 5 at (3, 4), so a
        # wrapped table would fail later with some other error
        from pfg.cli import main
        from pfg.construct import dihedral

        t = dihedral(4).group.table.astype(np.int64)
        assert t[3, 4] != 3
        t[3, 4] = 65539
        (tmp_path / "d8.txt").write_text("\n".join(" ".join(map(str, row)) for row in t))
        source = 'group G = table("d8.txt")\n'
        with pytest.raises(ScenarioError) as exc:
            validate(parse(source).spec, base_dir=tmp_path)
        assert exc.value.kind == "ParamOutOfRange"
        assert (exc.value.line, exc.value.column) == (1, 1)
        path = tmp_path / "d8.pfg"
        path.write_text(source)
        assert main(["run", str(path)]) == 2
        assert "ParamOutOfRange: table entries must be element indices in range (line 1, column 1)" in capsys.readouterr().err


class TestOrderLimit:
    """int16 tables hold orders up to 32767, so a larger guard is refused where it is given."""

    def test_set_order_guard_past_the_limit_is_located(self, tmp_path, capsys):
        from pfg.cli import main

        source = "group G = cyclic(4)\nset order_guard = 40000\n"
        result = parse(source)
        assert result.spec is None
        (d,) = result.diagnostics
        assert (d.line, d.column) == (2, 19) and "32767" in d.message
        path = tmp_path / "big.pfg"
        path.write_text(source)
        assert main(["run", str(path)]) == 2
        assert "line 2, column 19" in capsys.readouterr().err
        assert parse("set order_guard = 32767\n").spec.options == {"order_guard": 32767}

    def test_order_guard_flag_past_the_limit_exits_2(self, tmp_path, capsys):
        from pfg.cli import main

        path = tmp_path / "ok.pfg"
        path.write_text("group G = cyclic(4)\n")
        with pytest.raises(SystemExit) as exc:
            main(["run", str(path), "--order-guard", "40000"])
        assert exc.value.code == 2
        assert "--order-guard: at most 32767" in capsys.readouterr().err
        assert main(["run", str(path), "--order-guard", "32767"]) == 0


    def test_huge_prime_in_o_pi_runs_at_once(self, tmp_path, capsys):
        import signal

        from pfg.cli import main

        def give_up(signum, frame):
            raise TimeoutError("pfg run did not end")

        path = tmp_path / "huge_prime.pfg"
        path.write_text("group G = cyclic(4)\nanalyze o_pi(G, {1000000000000000000117})\n")
        previous = signal.signal(signal.SIGALRM, give_up)
        signal.alarm(10)
        try:
            assert main(["run", str(path)]) == 0
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert "PASS" in capsys.readouterr().out

    def test_prime_past_the_exact_test_bound_is_located(self, tmp_path, capsys):
        from pfg.cli import main

        path = tmp_path / "past_bound.pfg"
        path.write_text("group G = cyclic(4)\nanalyze o_pi(G, {2, 10000000000000000000000000})\n")
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ParamOutOfRange: ") and "below 3317044064679887385961981 (line 2, column 1)" in err

    @pytest.mark.parametrize("value", [-5, 0])
    def test_order_guard_below_one_is_located(self, value, tmp_path, capsys):
        from pfg.cli import main

        source = f"group G = cyclic(4)\nset order_guard = {value}\n"
        (d,) = parse(source).diagnostics
        assert (d.line, d.column) == (2, 19)
        assert d.message == f"order_guard must be at least 1; got {value}"
        path = tmp_path / "small.pfg"
        path.write_text(source)
        assert main(["run", str(path)]) == 2
        assert "line 2, column 19" in capsys.readouterr().err
        assert parse("set order_guard = 1\n").spec.options == {"order_guard": 1}

    @pytest.mark.parametrize("value", ["-5", "0"])
    def test_order_guard_flag_below_one_exits_2(self, value, tmp_path, capsys):
        from pfg.cli import main

        path = tmp_path / "ok.pfg"
        path.write_text("group G = cyclic(4)\n")
        with pytest.raises(SystemExit) as exc:
            main(["run", str(path), "--order-guard", value])
        assert exc.value.code == 2
        assert f"--order-guard: at least 1; got {value}" in capsys.readouterr().err
        assert main(["run", str(path), "--order-guard", "4"]) == 0


class TestJobs:
    """A worker count below 1 is an error where it is given, and the
    environment sets none."""

    @pytest.mark.parametrize("value", [-3, 0])
    def test_set_jobs_below_one_is_located(self, value, tmp_path, capsys):
        from pfg.cli import main

        source = f"group G = cyclic(4)\nset jobs = {value}\n"
        (d,) = parse(source).diagnostics
        assert (d.line, d.column) == (2, 12)
        assert d.message == f"jobs must be at least 1; got {value}"
        path = tmp_path / "jobs.pfg"
        path.write_text(source)
        assert main(["run", str(path)]) == 2
        assert "line 2, column 12" in capsys.readouterr().err
        assert parse("set jobs = 1\n").spec.options == {"jobs": 1}

    @pytest.mark.parametrize("command", [["run", "ok.pfg"], ["demo", "paper-example"]])
    @pytest.mark.parametrize("value", ["-3", "0"])
    def test_jobs_flag_below_one_exits_2(self, command, value, monkeypatch, tmp_path, capsys):
        from pfg.cli import main

        monkeypatch.chdir(tmp_path)
        (tmp_path / "ok.pfg").write_text("group G = cyclic(4)\n")
        with pytest.raises(SystemExit) as exc:
            main([*command, "--jobs", value])
        assert exc.value.code == 2
        assert f"--jobs: at least 1; got {value}" in capsys.readouterr().err

    def test_environment_sets_no_worker_count(self, monkeypatch, tmp_path):
        from pfg import cli

        configs = []
        real_run = cli.run
        monkeypatch.setattr(cli, "run", lambda resolved, config: configs.append(config) or real_run(resolved, config))
        monkeypatch.setenv("PFG_JOBS", "4")
        path = tmp_path / "ok.pfg"
        path.write_text("group G = cyclic(4)\n")
        assert cli.main(["run", str(path)]) == 0
        assert [c.jobs for c in configs] == [1]


class TestLongIntegerLiterals:
    """A literal longer than Python converts to int (4300 digits by default)
    is a located parse error at every place an integer is read."""

    LONG = "1" * 5000
    PRELUDE = "group G = cyclic(6)\nendo f on G = identity\n"

    @pytest.mark.parametrize(
        "line, column",
        [
            ("group H = cyclic({n})", 18),
            ("group H = cyclic(-{n})", 18),
            ("endo g on G = map {{{n} -> 1}}", 20),
            ("endo g on G = map {{1 -> ({n}, 0)}}", 26),
            ("analyze o_pi(G, {{{n}}})", 18),
            ("analyze shrinkind(G, f, [{n}])", 26),
            ("analyze typef(G, {n})", 18),
            ("tower T = zp({n}) depth 2", 14),
            ("tower T = zp(2) depth {n}", 23),
            ("set order_guard = {n}", 19),
        ],
    )
    def test_located_and_run_exits_2(self, line, column, tmp_path, capsys):
        from pfg.cli import main

        source = self.PRELUDE + line.format(n=self.LONG) + "\n"
        result = parse(source)
        assert result.spec is None
        (d,) = result.diagnostics
        assert (d.line, d.column, d.message) == (3, column, "integer literal of 5000 digits is too long")
        path = tmp_path / "long.pfg"
        path.write_text(source)
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 3, column" in err and "Traceback" not in err and "ValueError" not in err


class TestSetsAndLists:
    """``{INT|NAME, ...}`` and ``[elem, ...]``: a comma between two entries and none after the last."""

    PRELUDE = "group G = cyclic(6)\nendo f on G = identity\n"

    @pytest.mark.parametrize(
        "request_text, column, message",
        [
            ("o_pi(G, {2 3})", 20, "expected '}', found '3'"),
            ("shrinkind(G, f, [4 -1])", 28, "expected ']', found '-1'"),
            ("o_pi(G, {2, })", 21, "expected an integer or name inside { }"),
            ("shrinkind(G, f, [4, ])", 29, "expected an element (integer or pair)"),
            ("o_pi(G, {2)", 19, "expected '}', found ')'"),
            ("shrinkind(G, f, [4)", 27, "expected ']', found ')'"),
            ("o_pi(G, {2", 17, "unclosed '{'"),
            ("shrinkind(G, f, [(0, 1)", 25, "unclosed '['"),
        ],
    )
    def test_malformed_entries_are_located_and_run_exits_2(self, request_text, column, message, tmp_path):
        from pfg.cli import main

        source = self.PRELUDE + f"analyze {request_text}\n"
        result = parse(source)
        assert result.spec is None
        (d,) = result.diagnostics
        assert (d.line, d.column, d.message) == (3, column, message)
        path = tmp_path / "bad.pfg"
        path.write_text(source)
        assert main(["run", str(path)]) == 2

    def test_empty_and_well_formed_entries_parse(self):
        source = self.PRELUDE + "analyze o_pi(G, {})\nanalyze o_pi(G, {2, 3})\nanalyze shrinkind(G, f, [2, 3])\n"
        spec = parse(source).spec
        assert [a.args[1:] for a in spec.analyses] == [
            (ASet(()),),
            (ASet((2, 3)),),
            (ARef("f"), AList((2, 3))),
        ]


class TestErrorKinds:
    """The kind and location of each construction error of a definition."""

    @pytest.mark.parametrize(
        "source, kind, line, column",
        [
            ("  group G = semidirect(cyclic(6), cyclic(2), mult_action)\n", "BadAction", 1, 3),
            ("group G = semidirect(cyclic(9), cyclic(2), mult_action)\n", "BadAction", 1, 1),
            ("group G = cyclic(4)\nendo f on G = map {7 -> 1}\n", "ParamOutOfRange", 2, 1),
            ("group G = cyclic(4)\n  endo f on G = map {(1, 1) -> 1}\n", "ParamOutOfRange", 2, 3),
            ("group G = semidirect(cyclic(5), cyclic(2), act {2 -> {1 -> 4}})\n", "ParamOutOfRange", 1, 1),
            ("group G = cyclic(4)\nendo f on G = identity\nanalyze shrinkind(G, f, [9])\n", "ParamOutOfRange", 3, 1),
            ("group G = cyclic(4)\nendo f on G = identity\nanalyze shrinkind(G, f, [(0, 1)])\n", "ParamOutOfRange", 3, 1),
        ],
    )
    def test_kind_and_location(self, source, kind, line, column):
        with pytest.raises(ScenarioError) as exc:
            validate(parse(source).spec)
        assert (exc.value.kind, exc.value.line, exc.value.column) == (kind, line, column)


class TestBuiltinEndos:
    def test_project_away_first_coordinate(self):
        source = (
            "group A = cyclic(3)\n"
            "group B = cyclic(4)\n"
            "group G = product(A, B)\n"
            "endo p on G = project_away(0)\n"
            "analyze contraction(G, p)\n"
        )
        resolved = validate(parse(source).spec)
        p = resolved.environment["p"][0]
        # (a, b) -> (0, b): kernel is the first coordinate
        assert sorted(set(p.map.tolist())) == list(range(4))

    def test_project_away_acting_part_rejected_on_semidirect(self):
        source = (
            "group D = semidirect(cyclic(3), cyclic(2), invert)\n"
            "endo p on D = project_away(1)\n"
        )
        with pytest.raises(ScenarioError) as exc:
            validate(parse(source).spec)
        assert exc.value.kind == "NotAHomomorphism"

    def test_project_away_normal_part_ok_on_semidirect(self):
        source = (
            "group D = semidirect(cyclic(3), cyclic(2), invert)\n"
            "endo p on D = project_away(0)\n"
            "analyze theorem_a(D, p)\n"
        )
        resolved = validate(parse(source).spec)
        assert resolved.environment["p"][0].map.tolist()[:2] == [0, 1]


class TestScaleFirstLargeFactor:
    """scale_first(m) reads m modulo the left factor's order, however large m is."""

    @pytest.mark.parametrize(
        "group, m, con_order",
        [
            ("cyclic(4)", 10**20, 4),  # m = 0 mod 4: the trivial map
            ("semidirect(cyclic(9), units_mod(3, 2), mult_action)", 10**20, 1),  # m = 1 mod 9
            ("cyclic(9)", 2**62 + 1, 1),  # m = 5 mod 9: an automorphism
        ],
    )
    def test_run_passes_with_closed_form_con_order(self, group, m, con_order, tmp_path, capsys):
        from pfg.cli import main

        path = tmp_path / "big.pfg"
        path.write_text(f"group G = {group}\nendo f on G = scale_first({m})\nanalyze theorem_a(G, f)\n")
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert re.search(rf"theorem_a\s+G, f\s+PASS\s+\S+\s+con_order={con_order};", out), out


class TestFewprimesThroughRunner:
    def test_injective_endo(self):
        from pfg.report import RunConfig, run

        source = (
            "group G = cyclic(6)\n"
            "endo f on G = scale_first(5)\n"
            "analyze fewprimes(f, {2, 3})\n"
        )
        report = run(validate(parse(source).spec), RunConfig())
        assert report.records[0].status == "pass"

    def test_too_small_prime_set_is_skipped(self):
        from pfg.report import RunConfig, run

        # the core of the image of a non-surjective injective map... use an
        # automorphism but a prime set missing the core index primes: the
        # image is everything, so the precondition is vacuous; instead check
        # a bad prime reports a failure record rather than raising
        source = "group G = cyclic(6)\nanalyze o_pi(G, {4})\n"
        report = run(validate(parse(source).spec), RunConfig())
        assert report.records[0].status == "fail"


class TestFullAnalysisSurface:
    def test_regulation_with_automorphisms_through_runner(self):
        from pfg.report import RunConfig, run

        # conjugation by the unit 2 acts on the cyclic part as doubling
        source = (
            "group D = semidirect(cyclic(9), units_mod(3, 2), mult_action)\n"
            "endo f on D = scale_first(3)\n"
            "endo c on D = scale_first(2)\n"
            "semigroup L on D = {f}\n"
            "tower T = zp(3) depth 2\n"
            "analyze regulation(D, L, {c})\n"
            "analyze tfrelstab2(D, L, {c})\n"
            "analyze fewprimes(c, {2, 3})\n"
            "analyze hom_search(D, D)\n"
            "analyze typef(T, 2)\n"
        )
        report = run(validate(parse(source).spec), RunConfig())
        statuses = {r.kind: r.status for r in report.records}
        assert statuses == {
            "regulation": "pass",
            "tfrelstab2": "pass",
            "fewprimes": "pass",
            "hom_search": "pass",
            "typef": "pass",
        }


ARGUMENT_PRELUDE = (
    "group G = cyclic(4)\n"
    "group H = cyclic(6)\n"
    "endo f on G = scale_first(2)\n"
    "endo h on H = identity\n"
    "semigroup L on G = {f}\n"
    "tower T = zp(2) depth 2\n"
)


class TestArgumentKinds:
    @pytest.mark.parametrize(
        "request_text",
        [
            "typef(T, G)",
            "hom_search(G, f)",
            "theorem_a(f, G)",
            "o_pi(G, 2)",
            "tfrelstab2(G, f, {})",
            "regulation(G, f, {3})",
        ],
    )
    def test_wrong_kind_is_located_at_validate(self, request_text, tmp_path):
        source = ARGUMENT_PRELUDE + f"analyze {request_text}\n"
        with pytest.raises(ScenarioError) as exc:
            validate(parse(source).spec)
        assert exc.value.kind == "ArgumentKind"
        assert (exc.value.line, exc.value.column) == (7, 1)
        path = tmp_path / "wrong.pfg"
        path.write_text(source)
        from pfg.cli import main

        assert main(["run", str(path)]) == 2

    @pytest.mark.parametrize(
        "request_text",
        ["contraction(H, f)", "theorem_a(H, f)", "splitthm(H, L)", "shrinkind(H, f, [1])", "regulation(G, L, {h})"],
    )
    def test_endo_or_semigroup_of_another_group_is_rejected(self, request_text, tmp_path):
        source = ARGUMENT_PRELUDE + f"analyze {request_text}\n"
        with pytest.raises(ScenarioError) as exc:
            validate(parse(source).spec)
        assert exc.value.kind == "GroupMismatch"
        assert (exc.value.line, exc.value.column) == (7, 1)
        path = tmp_path / "mismatch.pfg"
        path.write_text(source)
        from pfg.cli import main

        assert main(["run", str(path)]) == 2

    def test_semigroup_member_of_another_group_is_rejected(self):
        source = ARGUMENT_PRELUDE + "semigroup M on H = {f}\n"
        with pytest.raises(ScenarioError) as exc:
            validate(parse(source).spec)
        assert exc.value.kind == "GroupMismatch"
        assert exc.value.line == 7

    def test_definition_names_of_the_wrong_kind_are_located(self):
        source = ARGUMENT_PRELUDE + "endo g on f = identity\n"
        with pytest.raises(ScenarioError) as exc:
            validate(parse(source).spec)
        assert exc.value.kind == "ArgumentKind"
        assert exc.value.line == 7

    def test_single_endo_counts_as_its_semigroup(self):
        from pfg.report import run

        source = ARGUMENT_PRELUDE + "analyze splitthm(G, f)\nanalyze regulation(G, f, {})\n"
        report = run(validate(parse(source).spec))
        assert [r.status for r in report.records] == ["pass", "pass"]

    def test_non_bijective_automorphism_stays_a_fail_record(self):
        from pfg.report import run

        report = run(validate(parse(ARGUMENT_PRELUDE + "analyze regulation(G, L, {f})\n").spec))
        assert report.records[0].status == "fail"
        assert "non-bijective" in report.records[0].details["error"]
