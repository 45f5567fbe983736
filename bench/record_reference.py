"""Record the reference outputs the benchmark's correctness gates compare
against, and write them to ``bench/reference.json``.

    PYTHONPATH=src python3 bench/record_reference.py

Records the sha256 and row count of every ``verify`` report at 3 edges, the
sha256 of the ``enumerate-e4c2`` class list, and the verdict (shortest
witness length, or null when not contained) of every ``minor-deep`` query.
Run it only when a change is meant to alter these outputs, and say so.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import inputs
from ribbonminor import EnumerationSpec, MinorFamily, enumerate_presentations, minor_witness, parse_arp
from ribbonminor.cli import main


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def record() -> dict:
    verify = {}
    for check_id in inputs.VERIFY_IDS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            main(["verify", check_id, "--max-edges", "3"])
        text = buf.getvalue()
        rows = sum(1 for ln in text.splitlines() if not ln.startswith("#"))
        verify[check_id] = {"rows": rows, "sha256": _sha256(text)}
    classes = [g.to_text() for g in enumerate_presentations(EnumerationSpec(4, 2))]
    minor = []
    for q in inputs.minor_queries(0):
        g = parse_arp(q["g"])
        w = minor_witness(g, parse_arp(q["h"]), MinorFamily.parse(q["family"]))
        minor.append({"family": q["family"], "target": q["target"],
                      "witness_length": None if w is None else len(w)})
    return {
        "verify": verify,
        "enumerate": {"classes": len(classes), "sha256": _sha256("".join(c + "\n" for c in classes))},
        "minor_deep": minor,
    }


if __name__ == "__main__":
    out = Path(__file__).resolve().parent / "reference.json"
    out.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"wrote {out}")
