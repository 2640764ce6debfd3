"""Batch runner and report emitter for resolved scenarios.

``ANALYSES`` is the one table of analysis kinds: the parser checks names
against it, ``dsl.validate`` coerces arguments against its signatures and
``run`` calls its runners.  Records come in request order, one per
analysis (one per level for the level-wise tower analyses).  Statuses:
pass, fail, skipped, hypotheses_not_met, budget_exceeded.  The JSON emitter is
byte-stable for a fixed scenario, seed and version: per-record wall times
are zeroed there by default and only shown in the text format.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from . import __version__
from .core import FiniteGroup, GroupError, Subgroup
from .endo import (
    CheckRecord,
    ContractionReport,
    PreconditionPrimes,
    SearchBudgetExceeded,
    contraction,
    fewprimes_check,
    hom_search,
    shrinkind_check,
    tfrelstab_ii_check,
    verify_regulation,
    verify_splitthm,
    verify_theorem_a,
)
from .lattice import AutoSet, o_pi
from .tower import levelwise_contraction, typef_profile, verify_theorem_b_tower

if TYPE_CHECKING:
    from .dsl import ResolvedAnalysis, ResolvedScenario


@dataclass(frozen=True)
class AnalysisRecord:
    kind: str
    target: str
    status: str
    details: dict
    ms: float


@dataclass(frozen=True)
class Report:
    scenario: str
    records: tuple[AnalysisRecord, ...]
    version: str
    seed: int

    @property
    def ok(self) -> bool:
        return all(r.status != "fail" for r in self.records)


@dataclass(frozen=True)
class RunConfig:
    jobs: int = 1
    seed: int = 0


def _json_safe(obj):
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_json_safe(v) for v in obj.tolist()]
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return str(obj)


def _check_row(target: str, rec: CheckRecord, **extra) -> tuple[str, str, dict]:
    details = dict(rec.data, **extra)
    details["checks"] = {c.name: c.passed for c in rec.checks}
    failed = rec.failed()
    if failed:
        details["witness"] = failed[0].detail or failed[0].name
    return target, "pass" if rec.passed else "fail", details


def _contraction_row(target: str, rep: ContractionReport, **extra) -> tuple[str, str, dict]:
    details = {
        "con_order": rep.con.size,
        "stable_order": rep.stable_image.size,
        "depth": rep.depth,
        "oracle": rep.checks,
        **extra,
    }
    return target, "pass" if all(rep.checks.values()) else "fail", details


def _autoset(G: FiniteGroup, maps: tuple) -> AutoSet | None:
    # a map that is not bijective is a value error, so AutoSet raises it at run time
    return AutoSet(G, maps) if maps else None


def _levels_label(base: str, k: int) -> str:
    return f"{base}[level {k + 1}]"


# Runners take the record target and arguments already coerced to the kinds
# of one signature, and return one (target, status, details) row per record.
# They call every layer function through its module-level name, so a wrapper
# installed on that name sees the call.


def _run_contraction(target: str, *args) -> list:
    if len(args) == 1:
        _tower, fam = args[0]
        return [_contraction_row(_levels_label(target, k), contraction(f)) for k, f in enumerate(fam.endos)]
    _G, f = args
    rep = contraction(f)
    chains = {
        "kernel_chain": [s.size for s in rep.kernel_chain],
        "image_chain": [s.size for s in rep.image_chain],
    }
    return [_contraction_row(target, rep, **chains)]


def _run_theorem_a(target: str, *args) -> list:
    if len(args) == 2:
        return [_check_row(target, verify_theorem_a(*args))]
    tower, fam = args[0]
    report = levelwise_contraction(tower, fam)
    rows = []
    for k, rec in enumerate(report.theorem_a):
        extra = {}
        if k > 0:
            extra["coherence_to_previous"] = vars(report.coherence[k - 1])
        if tower.parts is not None:
            level, sd = report.level_reports[k], tower.parts[k]
            extra["con_matches_normal_part"] = level.con == sd.normal_part
            extra["stable_matches_acting_part"] = level.stable_image == sd.acting_part
        rows.append(_check_row(_levels_label(target, k), rec, **extra))
    return rows


def _run_theorem_b(target: str, tower_pair) -> list:
    rep = verify_theorem_b_tower(*tower_pair)
    diag = rep.diagnostics
    details = {
        "diagnostics": {
            "limit_injective": diag.limit_injective,
            "verified_depth": diag.verified_depth,
            "kernel_shrink_depth": diag.kernel_shrink_depth,
            "projected_kernel_orders": diag.projected_kernel_orders,
            "image_indices": diag.image_indices,
            "image_open": diag.image_open,
        },
        "part_i_nilpotent": [r.nilpotent for r in rep.part_i],
        "o_lambda_orders": [r.subgroup.size for r in rep.part_i],
        "part_ii_applicable": rep.part_ii_applicable,
        "part_ii_passed": rep.part_ii_passed,
    }
    if diag.kernel_witness is not None:
        level, elem = diag.kernel_witness
        details["witness"] = f"kernel element {elem} survives projection to level {level}"
    return [(target, rep.status, details)]


def _run_o_pi(target: str, G: FiniteGroup, primes: set[int]) -> list:
    sub = o_pi(G, primes)
    return [(target, "pass", {"order": sub.size, "index": sub.index, "members": sub.members[:32]})]


def _run_hom_search(target: str, G: FiniteGroup, tgt: FiniteGroup | Subgroup) -> list:
    res = hom_search(G, tgt)
    details = {"count": res.count, "witnesses_kept": len(res.witnesses)}
    if res.simple_witness is not None:
        details["simple_witness"] = {
            "kernel_order": res.simple_witness.kernel.size,
            "kernel_index": res.simple_witness.kernel.index,
            "quotient_simple": res.simple_witness.quotient_simple,
        }
    return [(target, "pass", details)]


def _run_typef(target: str, tower_pair, n: int) -> list:
    prof = typef_profile(tower_pair[0], n)
    details = {
        "per_level": [p.counts for p in prof.per_level],
        "stabilized": prof.stabilized,
        "complete": prof.complete,
    }
    return [(target, "pass" if prof.complete else "budget_exceeded", details)]


@dataclass(frozen=True)
class AnalysisSpec:
    """One analysis: the argument-kind signatures it accepts and its runner.

    Argument kinds: ``group`` (a semidirect group counts as its group),
    ``semidirect`` (a semidirect-constructed group), ``endo``,
    ``semigroup`` (a single endo counts as the semigroup it generates),
    ``tower``, ``int``, ``primes`` (``{2, 3}``), ``autos`` (``{name, ...}``
    or ``{}``) and ``subgroup`` (an element list ``[elem, ...]``).  An endo,
    semigroup, automorphism set or element list belongs to the group
    argument before it.
    """

    signatures: tuple[tuple[str, ...], ...]
    run: Callable[..., list]


ANALYSES: dict[str, AnalysisSpec] = {
    "contraction": AnalysisSpec((("tower",), ("group", "endo")), _run_contraction),
    "theorem_a": AnalysisSpec((("tower",), ("group", "endo")), _run_theorem_a),
    "splitthm": AnalysisSpec(
        (("group", "semigroup"),), lambda target, G, S: [_check_row(target, verify_splitthm(G, S))]
    ),
    "theorem_b": AnalysisSpec((("tower",),), _run_theorem_b),
    "regulation": AnalysisSpec(
        (("group", "semigroup", "autos"),),
        lambda target, G, S, maps: [_check_row(target, verify_regulation(G, S, _autoset(G, maps)))],
    ),
    "tfrelstab2": AnalysisSpec(
        (("semidirect", "semigroup", "autos"),),
        lambda target, sd, S, maps: [_check_row(target, tfrelstab_ii_check(sd, S, _autoset(sd.group, maps)))],
    ),
    "shrinkind": AnalysisSpec(
        (("group", "endo", "subgroup"),),
        lambda target, G, f, K: [_check_row(target, shrinkind_check(G, f, K))],
    ),
    "o_pi": AnalysisSpec((("group", "primes"),), _run_o_pi),
    "fewprimes": AnalysisSpec(
        (("endo", "primes"),), lambda target, f, primes: [_check_row(target, fewprimes_check(f, primes))]
    ),
    "hom_search": AnalysisSpec((("group", "group"), ("group", "subgroup")), _run_hom_search),
    "typef": AnalysisSpec((("tower", "int"),), _run_typef),
}


def _run_single(analysis: ResolvedAnalysis) -> list[AnalysisRecord]:
    kind, target = analysis.kind, analysis.target
    t0 = time.perf_counter()
    try:
        rows = ANALYSES[kind].run(target, *analysis.args)
    except PreconditionPrimes as exc:
        rows = [(target, "skipped", {"reason": str(exc)})]
    except SearchBudgetExceeded as exc:
        rows = [(target, "budget_exceeded", {"reason": str(exc)})]
    except GroupError as exc:
        rows = [(target, "fail", {"error": str(exc)})]
    except Exception as exc:  # any other fault fails this record, not the batch
        rows = [(target, "fail", {"error": f"{type(exc).__name__}: {exc}"})]
    ms = (time.perf_counter() - t0) * 1000.0
    return [AnalysisRecord(kind, t, status, _json_safe(details), ms) for t, status, details in rows]


def run(resolved: ResolvedScenario, config: RunConfig | None = None) -> Report:
    """Execute every analysis; records are aggregated in request order."""
    config = config or RunConfig()
    jobs = max(1, config.jobs)
    if jobs == 1:
        chunks = [_run_single(a) for a in resolved.analyses]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_run_single, a) for a in resolved.analyses]
            chunks = [f.result() for f in futures]
    records: list[AnalysisRecord] = []
    for chunk in chunks:
        records.extend(chunk)
    return Report(resolved.label, tuple(records), __version__, config.seed)


def emit(report: Report, format: str = "text") -> bytes:
    """Render a report.  JSON is byte-stable: its times are zeroed."""
    if format == "json":
        tree = {
            "scenario": report.scenario,
            "analyses": [
                {
                    "kind": r.kind,
                    "target": r.target,
                    "status": r.status,
                    "details": r.details,
                    "ms": 0,
                }
                for r in report.records
            ],
            "version": report.version,
            "seed": report.seed,
        }
        return (json.dumps(tree, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")
    if format != "text":
        raise ValueError(f"unknown format {format!r}")

    rows = [("#", "kind", "target", "status", "ms", "detail")]
    for i, r in enumerate(report.records):
        brief = []
        for key in ("con_order", "stable_order", "depth", "count", "order", "stabilized"):
            if key in r.details:
                brief.append(f"{key}={r.details[key]}")
        if "witness" in r.details:
            brief.append(f"witness: {r.details['witness']}")
        if "reason" in r.details:
            brief.append(str(r.details["reason"]))
        if "error" in r.details:
            brief.append(str(r.details["error"]))
        rows.append((str(i), r.kind, r.target, r.status.upper(), f"{r.ms:.1f}", "; ".join(brief)))
    widths = [max(len(row[c]) for row in rows) for c in range(5)]
    lines = [f"scenario: {report.scenario}   version: {report.version}   seed: {report.seed}"]
    for row in rows:
        lines.append("  ".join(row[c].ljust(widths[c]) for c in range(5)) + "  " + row[5])
    lines.append("result: " + ("OK" if report.ok else "FAILURES PRESENT"))
    return ("\n".join(lines) + "\n").encode("utf-8")
