"""The end-to-end benchmark's tracer (e2ebench/traced.py) times each
stage by looking it up as a module attribute, by name.  These tests read
the tracer as it stands, without editing it: every name it looks up must
resolve on the package, and a traced run must record a span for each
stage of its mode."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACED = ROOT / "e2ebench" / "traced.py"

SHARED_SPANS = {
    "numtheory.crt_solve",
    "numtheory.primes_upto",
    "kernels.sieve_primes",
    "document.to_document",
    "document.to_json",
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("traced", TRACED)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_resolves_on_the_package():
    tracer = load_tracer()
    for module, name, _ in tracer.STAGES + tracer.LEAVES:
        assert callable(getattr(importlib.import_module(f"primeavoid.{module}"), name))


@pytest.mark.parametrize(
    "argv, spans",
    [
        (
            ("--mode", "squarefree", "--x", "60"),
            {
                "squarefree.build_sets",
                "squarefree.classify_squarefree",
                "squarefree.find_squarefree_in_ap",
                "squarefree.solve_m0",
                "squarefree.verify_window",
            },
        ),
        (
            ("--mode", "kpower", "--k", "1", "--x", "200"),
            {
                "kpower.build_sets_k",
                "kpower.match_offsets",
                "kpower.solve_m0_k",
                "kpower.find_prime_in_ap",
                "kpower.verify_power_window",
            },
        ),
    ],
    ids=["squarefree", "kpower"],
)
def test_traced_run_records_every_stage(tmp_path, argv, spans):
    trace = tmp_path / "trace.json"
    done = subprocess.run(
        [sys.executable, str(TRACED), str(trace), "construct", *argv,
         "--out", str(tmp_path / "cert.json")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert done.returncode == 0, done.stderr
    record = json.loads(trace.read_text())
    assert record["exit_code"] == 0
    assert {span[0] for span in record["spans"]} == spans | SHARED_SPANS
