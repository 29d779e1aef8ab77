"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line.  Tolerances and time budgets are pinned here, not tuned.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import math
import time

import pytest

from primeavoid import cli
from primeavoid import document as doc_mod
from primeavoid.kpower import construct_certificate_k
from primeavoid.numtheory import (
    is_prime,
    kth_roots_mod_p,
    mertens_product,
    primes_upto,
)
from primeavoid.schedule import make_schedule
from primeavoid.sievebound import (
    brun_upper_bound,
    double_residue_rules,
    empirical_sifted_count,
    instance_for_rules,
)
from primeavoid.squarefree import build_sets, construct_certificate

from oracles import offset_partition_holds

EULER_GAMMA = 0.5772156649015329


def report(number, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number}: {status} {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def stepping_crt(congs):
    sol, mod = 0, 1
    for r, p in congs:
        while sol % p != r:
            sol += mod
        mod *= p
    return sol, mod


def test_criterion_1_micro_instance_reproduction(capsys, tmp_path):
    t0 = time.perf_counter()
    out_path = tmp_path / "micro.json"
    code = cli.main(
        [
            "construct", "--mode", "squarefree", "--x", "40",
            "--profile", "explicit", "--z", "6.3246", "--y", "10",
            "--out", str(out_path),
        ]
    )
    elapsed = time.perf_counter() - t0
    doc = json.loads(out_path.read_text())
    congs = [(int(r), int(q)) for r, q in doc["congruences"]]
    oracle_m0, oracle_n = stepping_crt(congs)
    m0 = int(doc["m0"])
    checks = [
        code == 0,
        # band one (2, 3, 7), the mid band's 5 in its greedy class 0 (it
        # strikes -5 and 5), then one large prime for each of the unstruck
        # offsets -1 and 1
        congs == [(0, 2), (0, 3), (0, 7), (0, 5), (1, 11), (12, 13)],
        doc["sets"] == {"P1": 3, "P2": 1, "P3": 8, "U1": 17, "U2": 4, "U6": 2},
        int(doc["modulus"]) == 30030 == oracle_n,
        1 <= m0 <= 30030,
        m0 == oracle_m0,
        all(m0 % q == r for r, q in congs),
        sorted(e["u"] for e in doc["cover"]) == list(range(-10, 11)),
        elapsed < 1.0,
    ]
    with capsys.disabled():
        report("1", all(checks), f"(micro instance, {elapsed:.3f}s)")


@pytest.mark.parametrize("x", [60, 100, 150])
def test_criterion_2_window_totality(capsys, x):
    t0 = time.perf_counter()
    cert = construct_certificate(make_schedule(x, 1, "practical"))
    y = cert.schedule.y
    covered = 0
    for u in range(-y, y + 1):
        w = cert.cover.get(u)
        if w is not None and w <= x and (cert.m + u) % w == 0 and w < cert.m + u:
            covered += 1
    elapsed = time.perf_counter() - t0
    ok = covered == 2 * y + 1 and elapsed < 60.0
    with capsys.disabled():
        report(
            "2", ok,
            f"(x={x}: {covered}/{2 * y + 1} offsets witnessed, {elapsed:.2f}s)",
        )


@pytest.mark.parametrize("x", [10**3, 10**4])
def test_criterion_3_partition_law(capsys, x):
    sch = make_schedule(x, 1, "practical")
    sets = build_sets(sch)
    ok = offset_partition_holds(sets, sch.y)
    with capsys.disabled():
        report(
            "3", ok,
            f"(x={x}: |u2|={len(sets.u2)} splits into {len(sets.u2) - len(sets.u6)} "
            f"mid-band struck and {len(sets.u6)} unstruck)",
        )


def test_criterion_4_mertens(capsys):
    deviations = {}
    for w in (10**3, 10**4, 10**5):
        v = mertens_product(w)
        deviations[w] = abs(v * math.log(w) * math.exp(EULER_GAMMA) - 1)
    ok = all(dev <= 3 / math.log(w) for w, dev in deviations.items())
    with capsys.disabled():
        report(
            "4", ok,
            "(deviation*logw: "
            + ", ".join(f"{w:g}:{d:.4f}" for w, d in deviations.items())
            + ")",
        )


def test_criterion_5_arithmetic_oracles(capsys):
    limit = 10**6
    flags = bytearray(b"\x01") * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    mismatch = next(
        (n for n in range(limit + 1) if is_prime(n) != bool(flags[n])), None
    )
    carmichael_ok = not any(is_prime(n) for n in (561, 1105, 1729))

    roots_ok = True
    for p in primes_upto(200):
        for k in range(1, 7):
            table = {}
            for n in range(p):
                table.setdefault(pow(n, k, p), set()).add(n)
            total = 0
            for a in range(p):
                expected = table.get(a, set())
                if kth_roots_mod_p(a, k, p) != expected:
                    roots_ok = False
                total += len(expected)
            if total != p:
                roots_ok = False
    ok = mismatch is None and carmichael_ok and roots_ok
    with capsys.disabled():
        report(
            "5", ok,
            f"(primality to 1e6: {'agrees' if mismatch is None else mismatch}; "
            f"root enumeration to p=199, k=6)",
        )


@pytest.mark.parametrize(
    "k,x,budget", [(1, 200.0, 300.0), (2, 1e4, 1800.0)]
)
def test_criterion_6_kpower_pipeline(capsys, k, x, budget):
    t0 = time.perf_counter()
    cert = construct_certificate_k(
        make_schedule(x, k, "practical"), reduced=True, seed=0
    )
    y = cert.schedule.y
    exception_offsets = {u for u, _ in cert.exceptions}
    excluded = {1} | set(cert.sets.u6) | set(cert.matching.unmatched)
    base = cert.m**k
    witnessed = 0
    required = 0
    for u in range(-y, y + 1):
        if u in excluded:
            continue
        required += 1
        w = cert.cover.get(u)
        if w is not None and (base + u - 1) % w == 0 and w < base + u - 1:
            witnessed += 1
    statuses_ok = all(s in ("prime", "composite") for _, s in cert.exceptions)
    elapsed = time.perf_counter() - t0
    checks = [
        is_prime(cert.m),
        math.gcd(cert.m0, cert.modulus) == 1,
        witnessed == required,
        exception_offsets <= excluded,
        statuses_ok,
        elapsed < budget,
    ]
    with capsys.disabled():
        report(
            "6", all(checks),
            f"(k={k}, x={x:g}: {witnessed}/{required} witnessed, "
            f"{len(cert.exceptions)} exceptions, "
            f"{cert.prime_count_in_window} window primes, {elapsed:.1f}s)",
        )


def test_criterion_7_sieve_bound_dominates(capsys):
    x, size = 1000.0, 10**5
    z = math.sqrt(x)
    log_x = math.log(x)
    primes = primes_upto(math.floor(x))
    rules = double_residue_rules(
        1,
        [p for p in primes if p <= log_x],
        [p for p in primes if log_x < p <= z],
    )
    empirical = empirical_sifted_count(size, rules, z)
    results = []
    for lam in (0.1, 0.15, 0.2):
        for b in (1, 2):
            inst = instance_for_rules(size, rules, z, lam=lam, b=b, kappa=2.0)
            results.append(brun_upper_bound(inst) >= empirical)
    ok = len(results) >= 6 and all(results)
    with capsys.disabled():
        report(
            "7", ok,
            f"({len(results)}-point grid, empirical count {empirical})",
        )


@pytest.mark.parametrize("x", [100, 150, 400])
def test_criterion_8_avoidance_vs_average_gap(capsys, x):
    cert = construct_certificate(make_schedule(x, 1, "practical"))
    run_length = 2 * cert.schedule.y + 1
    log_m = math.log(cert.m)
    ok = run_length >= 0.5 * log_m and (
        cert.avoidance_constant is not None and cert.avoidance_constant > 0
    )
    with capsys.disabled():
        report(
            "8", ok,
            f"(x={x}: run {run_length} vs 0.5*log m = {0.5 * log_m:.1f}, "
            f"constant {cert.avoidance_constant:.3f})",
        )


def test_criterion_9_verifier_closure(capsys, tmp_path):
    docs = []
    cert = construct_certificate(
        make_schedule(40, 1, "explicit", z=6.3246, y=10), seed=0
    )
    docs.append(doc_mod.certificate_to_document(cert))
    for x in (60, 100, 150):
        docs.append(
            doc_mod.certificate_to_document(
                construct_certificate(make_schedule(x, 1, "practical"), seed=0)
            )
        )
    for k, x in ((1, 200.0), (2, 1e4)):
        docs.append(
            doc_mod.kcertificate_to_document(
                construct_certificate_k(make_schedule(x, k, "practical"), seed=0)
            )
        )
    closure_ok = True
    tamper_ok = True
    for i, doc in enumerate(docs):
        path = tmp_path / f"cert{i}.json"
        path.write_text(doc_mod.document_to_json(doc))
        if cli.main(["verify", str(path)]) != 0:
            closure_ok = False
        tampered = json.loads(doc_mod.document_to_json(doc))
        entry = tampered["cover"][len(tampered["cover"]) // 2]
        entry["witness_prime"] = str(int(entry["witness_prime"]) + 2)
        bad_path = tmp_path / f"bad{i}.json"
        bad_path.write_text(json.dumps(tampered))
        if cli.main(["verify", str(bad_path)]) != 1:
            tamper_ok = False
    with capsys.disabled():
        report(
            "9", closure_ok and tamper_ok,
            f"({len(docs)} certificates verified, each tamper detected)",
        )
