"""Golden digest of the lattice layer on the shipped catalog.

For every catalog entry up to order 500 the digest keeps ``count_profile``
for index bounds 1 to 4 (counts and the ``complete`` flag), the member
sha1s of the normal lattice in its sorted order, and the thresholds and
residual sha1s of ``_residual_thresholds`` with no automorphisms.
Regenerate with ``PYTHONPATH=src python tests/test_lattice_golden.py``
only when an output is meant to change.
"""

import hashlib
import json
from pathlib import Path

from pfg.catalog import builtin_entries
from pfg.endo import _residual_thresholds
from pfg.lattice import count_profile, enumerate_normals

GOLDEN = Path(__file__).parent / "golden" / "lattice_layer.json"


def _sha(sub) -> str:
    return hashlib.sha1(sub.members.astype("<i4").tobytes()).hexdigest()


def lattice_layer_digest() -> dict:
    out = {}
    for i, entry in enumerate(builtin_entries(500)):
        G = entry.group
        profiles = {}
        for n in range(1, 5):
            prof = count_profile(G, n)
            profiles[n] = {"counts": prof.counts, "complete": prof.complete}
        out[f"{i}:{G.label}"] = {
            "count_profile": profiles,
            "normals": [_sha(N) for N in enumerate_normals(G)],
            "residuals": [[n, _sha(R)] for n, R in _residual_thresholds(G, None)],
        }
    return json.loads(json.dumps(out))  # int keys as JSON sees them


def _dump(digest: dict) -> str:
    """One item per line, so that a changed output shows as a one-line diff."""
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True, separators=(',', ':'))}" for k, v in digest.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def test_lattice_layer_matches_golden_digest():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = lattice_layer_digest()
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], key


if __name__ == "__main__":
    GOLDEN.write_text(_dump(lattice_layer_digest()), encoding="utf-8")
