#!/usr/bin/env python3
"""Print the sha256 of the certificate document of each run of a fixed
grid, with format_version set aside.

Usage:
    PYTHONPATH=src python benchmarks/digests.py

Each run goes through ``primeavoid construct`` in-process.  The digest
is taken over the document's content: the document less its
``format_version``, rendered with sorted keys, a two-space indent and one
trailing newline, as tests/test_fixtures.py pins the benchmark's
instances.  That form is fixed here and is not the canonical rendering
(compact since format 1.9), so a format bump that leaves a document's
content alone, whitespace included, keeps its line.  Two checkouts build
documents of the same content on this grid exactly when they print the
same lines: diff the output of one against the other's.
"""

import contextlib
import hashlib
import io
import json

from primeavoid import cli

GRID = [
    ("squarefree x=40 explicit",
     ("--mode", "squarefree", "--x", "40", "--profile", "explicit",
      "--z", "6.3246", "--y", "10")),
    *((f"squarefree x={x}", ("--mode", "squarefree", "--x", str(x)))
      for x in (150, 400, 1000, 3000, 10_000, 20_000)),
    *((f"kpower k={k} x={x}", ("--mode", "kpower", "--k", str(k), "--x", str(x)))
      for k, x in ((1, 200), (3, 1000), (5, 2000))),
    ("kpower k=2 x=600 full modulus",
     ("--mode", "kpower", "--k", "2", "--x", "600", "--reduced-modulus", "off")),
    *((f"kpower k={k} x={x}", ("--mode", "kpower", "--k", str(k), "--x", str(x)))
      for k, x in ((2, 10_000), (5, 5000), (3, 30_000))),
]


def digest(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["construct", *argv])
    if code != 0:
        raise SystemExit(f"construct {' '.join(argv)} exited {code}")
    doc = json.loads(out.getvalue())
    del doc["format_version"]
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def main():
    for label, argv in GRID:
        print(f"{label:<32} {digest(argv)}")


if __name__ == "__main__":
    main()
