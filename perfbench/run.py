"""Benchmark for pfg: one closed-loop client in one process, no worker threads.

    python3 perfbench/run.py --workload paper-tower --seed 1 --trace 0

Run from anywhere; pfg is imported from ``src/`` next to this directory.
Each run repeats whole rounds of the workload's operations until
``--seconds`` have passed (by default ``run_seconds`` from the
``BENCHMARK.json`` next to this directory), checks every output, and prints
one JSON object as its last line.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it wraps pfg's public functions and
reports per-layer metrics (per operation) instead.  Results and spans go to
``perfbench/results/``.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"  # NumPy thread pools pinned before NumPy is imported

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
RESULTS = BENCH_DIR / "results"

SPEC = BENCH_DIR.parent / "BENCHMARK.json"

WORKLOAD_NAMES = ("paper-tower", "endo-sweep", "scenario-batch")
# setup_s is the median of this run's own set-up and repeats in fresh interpreters
SETUP_PROBES = 4

# span names whose self time and call count are reported, per operation
SELF_S = (
    "core.FiniteGroup", "core.is_normal", "core.quotient", "core.GroupHom",
    "construct.semidirect", "construct.direct_product", "construct.cyclic", "construct.units_mod",
    "lattice.count_profile", "lattice.enumerate_subgroups", "lattice.normals_up_to_index",
    "lattice.enumerate_normals", "lattice.o_pi",
    "endo.contraction", "endo.verify_theorem_a", "endo.semigroup_contraction", "endo.verify_splitthm",
    "endo.o_lambda", "endo.hom_search", "endo.verify_regulation", "endo.tfrelstab_ii_check",
    "tower.build_tower", "tower.levelwise_contraction", "tower.verify_theorem_b_tower", "tower.typef_profile",
    "dsl.parse", "dsl.validate", "report.run", "report.emit",
)  # fmt: skip
CALLS = ("core.is_normal", "core.quotient", "endo.contraction", "endo.monoid_maps", "tower.limit_diagnostics")
COUNTERS = (
    "core.FiniteGroup.validated", "lattice.subgroups_found", "lattice.normals_found",
    "endo.monoid_maps.maps", "report.records",
)  # fmt: skip


def load_pfg():
    """Import pfg from this checkout's ``src/``, never from an installed copy."""
    if not (SRC / "pfg" / "__init__.py").is_file():
        sys.exit(f"perfbench: no pfg sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import pfg

    if Path(pfg.__file__).resolve().parent != (SRC / "pfg").resolve():
        sys.exit(f"perfbench: pfg was imported from {pfg.__file__}, not from {SRC}")


def reference_percentile(samples: list[float]) -> tuple[float, float] | None:
    """Highest of p99.9, p99, p95, p90 and p75 with at least ten samples beyond it (needs 40)."""
    n = len(samples)
    if n < 40:
        return None
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (100.0 - q) / 100.0 >= 10:
            ordered = sorted(samples)
            return q, ordered[min(n - 1, int(n * q / 100.0))]
    return None


def run_seconds() -> float:
    """``run_seconds`` from BENCHMARK.json, the default length of a run."""
    if not SPEC.is_file():
        sys.exit(f"perfbench: no --seconds given and no {SPEC.name} next to {BENCH_DIR.name}/")
    return float(json.loads(SPEC.read_text(encoding="utf-8"))["run_seconds"])


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of one fresh interpreter: imports and input generation, as in a run."""
    cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, help="measure for this long (default: run_seconds); 0 runs one round")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)  # one set-up probe
    args = ap.parse_args(argv)

    load_pfg()
    import tracer as tracing
    from scenarios import CheckFailed
    from workloads import WORKLOADS, KnownFault

    ops = WORKLOADS[args.workload](args.seed)
    own_setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(own_setup_s)
        return 0
    seconds = run_seconds() if args.seconds is None else args.seconds
    setup_samples = [own_setup_s]
    if not args.trace:  # a traced run reports no setup_s
        setup_samples += [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]

    tr = tracing.Tracer() if args.trace else None
    op_s: list[float] = []  # every attempted operation
    ok_s: list[float] = []  # operations that did not fail
    root_s = 0.0
    failed = 0
    correct = True
    reported: set[str] = set()
    rounds = 0
    deadline = time.perf_counter() + seconds
    while True:
        for op in ops:
            op_id = len(op_s)
            if tr is not None:
                tr.op = op_id
                tr.active = True
            t0 = time.perf_counter()
            try:
                out, err = op.run(), None
            except Exception as exc:  # a failed operation is counted, not fatal
                out, err = None, exc
            dt = time.perf_counter() - t0
            if tr is not None:
                tr.active = False
                root_s += tr.root_seconds(op_id)
            op_s.append(dt)
            if err is not None:
                failed += 1
                correct = False
                if op.name not in reported:
                    reported.add(op.name)
                    print(f"perfbench: {op.name} raised:", file=sys.stderr)
                    traceback.print_exception(err, file=sys.stderr)
                continue
            try:
                op.check(out)
            except KnownFault:
                failed += 1
                continue
            except CheckFailed as exc:
                correct = False
                if op.name not in reported:
                    reported.add(op.name)
                    print(f"perfbench: wrong output: {exc}", file=sys.stderr)
            ok_s.append(dt)
        rounds += 1
        if time.perf_counter() >= deadline:
            break

    if not ok_s:
        sys.exit("perfbench: every operation failed; there is nothing to time")
    throughput = len(ok_s) / sum(ok_s)
    if tr is None:
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "ops_per_s": (throughput, "1/s"),
            "op_ms.p50": (statistics.median(ok_s) * 1000.0, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        tr.uninstall()
        n = len(op_s)
        metrics = {}
        for name in SELF_S:
            metrics[f"{name}.self_s"] = (tr.self_s[tr.names.index(name)] / n, "s")
        for name in CALLS:
            metrics[f"{name}.calls"] = (tr.calls[tr.names.index(name)] / n, "count")
        for name in COUNTERS:
            metrics[name] = (tr.counters.get(name, 0) / n, "count")
        metrics["trace.span_coverage"] = (100.0 * root_s / sum(op_s), "%")
        metrics["trace.ops_per_s"] = (throughput, "1/s")

    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": rounds,
        "ops_per_round": len(ops),
        "setup_samples_s": setup_samples,
        "metrics": {k: v for k, (v, _u) in metrics.items()},
        "op_s": op_s,
    }
    ref = reference_percentile(ok_s)
    if ref is not None:
        summary["reference_percentile"] = {"q": ref[0], "ms": ref[1] * 1000.0, "samples": len(ok_s)}
        print(f"reference only: p{ref[0]:g} = {ref[1] * 1000.0:.3f} ms over {len(ok_s)} operations")
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    if tr is not None:
        tr.write(RESULTS / f"{stem}.spans.jsonl")
    print(f"rounds={rounds} attempted={len(op_s)} failed={failed} setup samples={[round(b, 4) for b in setup_samples]}")
    result = {
        "correct": correct,
        "attempted": len(op_s),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
