"""Command line interface: run scenario files, the built-in demo, selftest."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .core import MAX_ORDER
from .dsl import ScenarioError, parse, validate
from .report import Report, RunConfig, emit, run


def demo_source(p: int, depth: int) -> str:
    """Scenario text for the built-in demo tower."""
    return (
        f"tower T = units_semidirect({p}) depth {depth}\n"
        "analyze theorem_a(T)\n"
        "analyze theorem_b(T)\n"
        "analyze typef(T, 2)\n"
    )


def run_demo(p: int, depth: int, *, jobs: int = 1, seed: int = 0, order_guard: int | None = None) -> Report:
    result = parse(demo_source(p, depth))
    assert result.spec is not None
    resolved = validate(result.spec, order_guard=order_guard)
    resolved = type(resolved)(
        f"paper-example(p={p}, depth={depth})", resolved.environment, resolved.analyses, resolved.options
    )
    return run(resolved, RunConfig(jobs=jobs, seed=seed))


def _write_output(data: bytes, out: str | None) -> None:
    if out:
        Path(out).write_bytes(data)
    else:
        sys.stdout.write(data.decode("utf-8"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="pfg", description=__doc__)
    parser.add_argument("--version", action="version", version=f"pfg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a .pfg scenario file")
    p_run.add_argument("file", type=Path)
    p_run.add_argument("--format", choices=("text", "json"), default="text")
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--jobs", type=int, default=1)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--order-guard", type=int, default=None)

    p_demo = sub.add_parser("demo", help="run a built-in demo scenario")
    p_demo.add_argument("name", choices=("paper-example",))
    p_demo.add_argument("--p", type=int, default=3)
    p_demo.add_argument("--depth", type=int, default=3)
    p_demo.add_argument("--format", choices=("text", "json"), default="text")
    p_demo.add_argument("--out", default=None)
    p_demo.add_argument("--jobs", type=int, default=1)
    p_demo.add_argument("--seed", type=int, default=0)

    p_self = sub.add_parser("selftest", help="run the acceptance suite")
    p_self.add_argument("--seed", type=int, default=0)
    p_self.add_argument("--quick", action="store_true", help="smaller randomized sweeps")

    args = parser.parse_args(argv)
    if getattr(args, "jobs", 1) < 1:
        (p_run if args.command == "run" else p_demo).error(f"argument --jobs: at least 1; got {args.jobs}")

    if args.command == "run":
        if args.order_guard is not None and args.order_guard > MAX_ORDER:
            p_run.error(f"argument --order-guard: at most {MAX_ORDER}, the largest order an int16 table holds; got {args.order_guard}")
        if args.order_guard is not None and args.order_guard < 1:
            p_run.error(f"argument --order-guard: at least 1; got {args.order_guard}")
        try:
            source = Path(args.file).read_text(encoding="utf-8")
        except OSError as exc:
            print(f"cannot read {args.file}: {exc}", file=sys.stderr)
            return 2
        result = parse(source)
        if result.spec is None:
            for d in result.diagnostics:
                print(d, file=sys.stderr)
            return 2
        try:
            resolved = validate(result.spec, base_dir=Path(args.file).parent, order_guard=args.order_guard)
        except ScenarioError as exc:
            print(exc, file=sys.stderr)
            return 2
        resolved = type(resolved)(Path(args.file).stem, resolved.environment, resolved.analyses, resolved.options)
        jobs = resolved.options.get("jobs", args.jobs)
        seed = resolved.options.get("seed", args.seed)
        report = run(resolved, RunConfig(jobs=jobs, seed=seed))
        _write_output(emit(report, args.format), args.out)
        return 0 if report.ok else 1

    if args.command == "demo":
        report = run_demo(args.p, args.depth, jobs=args.jobs, seed=args.seed)
        _write_output(emit(report, args.format), args.out)
        return 0 if report.ok else 1

    if args.command == "selftest":
        from .acceptance import QUICK_SAMPLES, SWEEP_SAMPLES, run_criteria

        ok = True
        for result in run_criteria(args.seed, QUICK_SAMPLES if args.quick else SWEEP_SAMPLES):
            ok &= result.passed
            print(result.line(), flush=True)
        print("selftest:", "OK" if ok else "FAILED")
        return 0 if ok else 1

    return 2  # pragma: no cover


if __name__ == "__main__":
    raise SystemExit(main())
