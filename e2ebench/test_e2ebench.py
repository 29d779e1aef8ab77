"""Tests of the end-to-end benchmark itself.

Run from the repository root:  python3 -m pytest e2ebench -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from check import check_certificate  # noqa: E402


def run_bench(*args, cwd=bench.ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def soon():
    return time.monotonic() + 120


def smoke(seed="0", trace="0"):
    proc = run_bench("--workload", "smoke", "--seed", seed, "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def test_smoke_prints_every_end_to_end_metric_with_its_unit():
    lines, result = smoke()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 4
    declared = {m["name"]: m["unit"] for m in bench.declared_metrics("end_to_end")}
    assert {n: v["unit"] for n, v in result["metrics"].items()} == declared
    table = {line.split()[0]: line.split()[2] for line in lines[:-1]
             if line.split() and line.split()[0] in {*declared, "fail_rate"}}
    assert table == {**declared, "fail_rate": "ratio"}


def test_same_seed_gives_identical_counts_and_hashes():
    first, a = smoke(seed="7")
    second, b = smoke(seed="7")
    certs = [line for line in first if line.startswith("cert ")]
    assert len(certs) == 2
    assert certs == [line for line in second if line.startswith("cert ")]
    assert (a["attempted"], a["failed"]) == (b["attempted"], b["failed"])
    assert a["metrics"]["cert_bytes"] == b["metrics"]["cert_bytes"]


def test_seeded_instances_stay_in_their_band():
    workload = "small-batch"
    grid = bench.WORKLOADS[workload]
    assert bench.instances(workload, 0) == grid
    drawn = bench.instances(workload, 5)
    assert drawn == bench.instances(workload, 5) != bench.instances(workload, 6)
    for inst, point in zip(drawn, grid):
        assert 0.9 * point.x <= inst.x <= point.x and inst.k == point.k
    for fixed in ("sf-1e4", "kp2-1e4-and-kp5-5e3"):
        assert bench.instances(fixed, 5) == bench.WORKLOADS[fixed]


def _tamper_witness(text: str) -> str:
    """Replace the first witness of a squarefree certificate by a non-divisor."""
    doc = json.loads(text)
    entry = doc["cover"][0]
    value = int(doc["m"]) + entry["u"]
    entry["witness_prime"] = str(next(q for q in range(3, value) if value % q))
    return json.dumps(doc)


def test_tampered_certificate_counts_as_failed_operation(tmp_path, monkeypatch):
    real_run_child = bench.run_child

    def tampering_run_child(args, log_path, deadline):
        child = real_run_child(args, log_path, deadline)
        if "construct" in args:
            out = Path(args[args.index("--out") + 1])
            out.write_text(_tamper_witness(out.read_text()))
        return child

    monkeypatch.setattr(bench, "run_child", tampering_run_child)
    result = bench.run_pass(bench.WORKLOADS["smoke"][:1], 0, tmp_path, deadline=soon())
    assert result.attempted == 1
    assert len(result.failures) == 1 and "witness" in result.failures[0]


def test_check_catches_each_kind_of_defect(tmp_path):
    result = bench.run_pass(bench.WORKLOADS["smoke"][:1], 0, tmp_path, deadline=soon())
    assert not result.failures
    text = (tmp_path / "cert0.json").read_text()
    assert check_certificate(text) == []
    assert check_certificate(_tamper_witness(text))
    doc = json.loads(text)
    doc["m"] = str(int(doc["m"]) + 1)
    assert check_certificate(json.dumps(doc))
    doc = json.loads(text)
    doc["cover"].pop()
    assert check_certificate(json.dumps(doc))
    assert check_certificate("{}")


def test_traced_and_plain_runs_write_identical_certificates(tmp_path):
    insts = bench.WORKLOADS["smoke"]
    plain = bench.run_pass(insts, 3, tmp_path, deadline=soon())
    traced = bench.run_pass(insts, 3, tmp_path, deadline=soon(), traced=True)
    assert not plain.failures and not traced.failures
    assert [c["sha256"] for c in plain.certs] == [c["sha256"] for c in traced.certs]
    assert len(traced.traces) == 2 * len(insts)
    for record in traced.traces:
        assert record["exit_code"] == 0 and record["spans"]


def test_traced_run_reports_every_per_layer_metric():
    lines, result = smoke(trace="1")
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in bench.declared_metrics("per_layer")}
    assert {n: v["unit"] for n, v in result["metrics"].items()} == declared
    assert result["metrics"]["squarefree.candidates_tried"]["value"] >= 1
    assert result["metrics"]["kpower.candidates_tested"]["value"] >= 1
    assert any(line.startswith("tracing overhead:") for line in lines)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "smoke", "--seed", "0", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
