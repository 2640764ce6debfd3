"""Golden digest of the endomorphism layer on the shipped catalog.

For every catalog entry up to order 500, each shipped map and each shipped
semigroup, the digest keeps every check (name, value, detail) and every
data field of ``verify_theorem_a`` and ``verify_splitthm``, and the member
sha1s, depth, chain sizes and oracle keys of ``contraction`` and
``semigroup_contraction`` (absolute and relative to the first generator's
image).  Regenerate with ``PYTHONPATH=src python tests/test_endo_golden.py``
only when an output is meant to change.
"""

import hashlib
import json
from pathlib import Path

from pfg.catalog import builtin_entries
from pfg.core import hom_parts
from pfg.endo import contraction, semigroup_contraction, verify_splitthm, verify_theorem_a

GOLDEN = Path(__file__).parent / "golden" / "endo_layer.json"


def _sha(sub) -> str:
    return hashlib.sha1(sub.members.astype("<i4").tobytes()).hexdigest()


def _record(rec) -> dict:
    return {"kind": rec.kind, "checks": [[c.name, c.passed, c.detail] for c in rec.checks], "data": rec.data}


def _report(rep) -> dict:
    return {
        "con": _sha(rep.con),
        "stable": _sha(rep.stable_image),
        "con_order": rep.con.size,
        "stable_order": rep.stable_image.size,
        "depth": rep.depth,
        "kernel_chain": [s.size for s in rep.kernel_chain],
        "image_chain": [s.size for s in rep.image_chain],
        "oracle": rep.checks,
    }


def endo_layer_digest() -> dict:
    out = {}
    for i, entry in enumerate(builtin_entries(500)):
        G = entry.group
        for j, f in enumerate(entry.endos):
            out[f"{i}:{G.label}/map{j}"] = {
                "theorem_a": _record(verify_theorem_a(G, f)),
                "contraction": _report(contraction(f)),
            }
        for j, S in enumerate(entry.semigroups):
            K = hom_parts(S.generators[0]).image
            out[f"{i}:{G.label}/semigroup{j}"] = {
                "splitthm": _record(verify_splitthm(G, S)),
                "semigroup_contraction": _report(semigroup_contraction(S)),
                "relative_to_image": _report(semigroup_contraction(S, K)),
            }
    return json.loads(json.dumps(out))  # tuples and int keys as JSON sees them


def _dump(digest: dict) -> str:
    """One item per line, so that a changed output shows as a one-line diff."""
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True, separators=(',', ':'))}" for k, v in digest.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def test_endo_layer_matches_golden_digest():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = endo_layer_digest()
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], key


if __name__ == "__main__":
    GOLDEN.write_text(_dump(endo_layer_digest()), encoding="utf-8")
