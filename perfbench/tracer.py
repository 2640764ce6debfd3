"""Span tracer that wraps pfg's public functions from outside the package.

Many pfg modules import functions by name (``from .core import quotient``),
so a wrapper is installed on every module attribute that holds the original
object, not only on the defining module.  Classes are traced through their
``__init__``; methods through the class attribute.

Spans stay in memory while the benchmark runs: one row per call with the
layer name, the parent span, the operation it belongs to, start and end.
The self time of a span is its duration minus the time of its wrapped
children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

# (module, attribute path) of every traced public callable, grouped by layer
TARGETS = (
    ("core", "FiniteGroup.__init__"),
    ("core", "is_normal"),
    ("core", "quotient"),
    ("core", "GroupHom.__init__"),
    ("construct", "semidirect"),
    ("construct", "direct_product"),
    ("construct", "cyclic"),
    ("construct", "units_mod"),
    ("lattice", "count_profile"),
    ("lattice", "enumerate_subgroups"),
    ("lattice", "normals_up_to_index"),
    ("lattice", "enumerate_normals"),
    ("lattice", "o_pi"),
    ("endo", "contraction"),
    ("endo", "verify_theorem_a"),
    ("endo", "semigroup_contraction"),
    ("endo", "verify_splitthm"),
    ("endo", "EndoSemigroup.monoid_maps"),
    ("endo", "o_lambda"),
    ("endo", "hom_search"),
    ("endo", "verify_regulation"),
    ("endo", "tfrelstab_ii_check"),
    ("tower", "build_tower"),
    ("tower", "levelwise_contraction"),
    ("tower", "verify_theorem_b_tower"),
    ("tower", "limit_diagnostics"),
    ("tower", "typef_profile"),
    ("dsl", "parse"),
    ("dsl", "validate"),
    ("report", "run"),
    ("report", "emit"),
    ("cli", "run_demo"),
)


def span_name(module: str, attr: str) -> str:
    """A class is named by itself (``core.FiniteGroup``), a method by its own name (``endo.monoid_maps``)."""
    owner, _, method = attr.rpartition(".")
    return f"{module}.{owner if method == '__init__' else method}"


def _count_outputs(name: str, args, kwargs, result) -> dict[str, int]:
    """Work counters read at the layer boundary from arguments and results."""
    if name == "core.FiniteGroup":
        return {"core.FiniteGroup.validated": int(kwargs.get("validate", True))}
    if name == "lattice.enumerate_subgroups":
        return {"lattice.subgroups_found": len(result.entries)}
    if name == "lattice.enumerate_normals":
        return {"lattice.normals_found": len(result)}
    if name == "endo.monoid_maps":
        return {"endo.monoid_maps.maps": len(result)}
    if name == "report.run":
        return {"report.records": len(result.records)}
    return {}


class Tracer:
    """Installs wrappers on construction; ``uninstall`` restores the originals."""

    def __init__(self):
        self.names: list[str] = [span_name(m, a) for m, a in TARGETS]
        self.active = False
        self.op = -1
        # one row per span: name index, parent span id (-1 for a root), op index, start, end
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.counters: dict[str, int] = {}
        self._stack: list[list] = []  # [span id, child seconds]
        self._patches: list[tuple[object, str, object]] = []
        self._install()

    def _install(self) -> None:
        modules = [m for k, m in sys.modules.items() if (k == "pfg" or k.startswith("pfg.")) and m is not None]
        for idx, (mod_name, attr) in enumerate(TARGETS):
            owner = sys.modules[f"pfg.{mod_name}"]
            parts = attr.split(".")
            for p in parts[:-1]:
                owner = getattr(owner, p)
            original = getattr(owner, parts[-1])
            wrapper = self._wrap(idx, original)
            if len(parts) > 1:  # a method: the class attribute is the only binding
                self._patches.append((owner, parts[-1], original))
                setattr(owner, parts[-1], wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _wrap(self, idx: int, fn):
        name = self.names[idx]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            sid = len(tracer.span_name)
            tracer.span_name.append(idx)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_op.append(tracer.op)
            tracer.span_end.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            tracer.span_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                tracer.span_end[sid] = t1
                tracer.calls[idx] += 1
                tracer.self_s[idx] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            for key, n in _count_outputs(name, args, kwargs, result).items():
                tracer.counters[key] = tracer.counters.get(key, 0) + n
            return result

        return wrapper

    def root_seconds(self, op: int) -> float:
        """Summed duration of the root spans of one operation."""
        total = 0.0
        for sid in range(len(self.span_name) - 1, -1, -1):
            if self.span_op[sid] != op:
                break
            if self.span_parent[sid] == -1:
                total += self.span_end[sid] - self.span_start[sid]
        return total

    def write(self, path: Path) -> None:
        """Write every span as one JSON line, after the measurement is over."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for sid in range(len(self.span_name)):
                row = {
                    "id": sid,
                    "name": self.names[self.span_name[sid]],
                    "parent": self.span_parent[sid],
                    "op": self.span_op[sid],
                    "start": self.span_start[sid],
                    "end": self.span_end[sid],
                }
                fh.write(json.dumps(row) + "\n")
