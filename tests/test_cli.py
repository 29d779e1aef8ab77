import errno
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from primeavoid import cli, kernels, kpower, numtheory, squarefree
from primeavoid import document as doc_mod
from primeavoid.errors import DocumentError
from primeavoid.kpower import construct_certificate_k
from primeavoid.schedule import make_schedule
from primeavoid.squarefree import build_sets, construct_certificate


FIXTURES = Path(__file__).resolve().parent / "fixtures"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- construct ---------------------------------------------------------------


def test_construct_micro_instance(capsys):
    code, out, _ = run_cli(
        capsys,
        "construct", "--mode", "squarefree", "--x", "40",
        "--profile", "explicit", "--z", "6.3246", "--y", "10",
    )
    assert code == 0
    doc = json.loads(out)
    assert "sets" not in doc  # format 1.12 reports no set cardinality
    sets = build_sets(make_schedule(40, 1, "explicit", z=6.3246, y=10))
    sizes = [len(s) for s in (sets.p1, sets.p2, sets.p3, sets.u2, sets.u6)]
    assert sizes == [3, 1, 8, 4, 2]
    assert 2 * 10 + 1 - len(sets.u2) == 17  # U1, the offsets band one divides
    assert doc["congruences"][:4] == [["0", "2"], ["0", "3"], ["0", "7"], ["0", "5"]]
    assert doc["modulus"] == "30030"
    assert len(doc["cover"]) == 21


def test_construct_writes_file(tmp_path, capsys):
    out_path = tmp_path / "cert.json"
    code, out, _ = run_cli(
        capsys,
        "construct", "--mode", "squarefree", "--x", "60", "--out", str(out_path),
    )
    assert code == 0 and out == ""
    doc = doc_mod.parse_document(out_path.read_text())
    assert doc["mode"] == "squarefree"


def test_construct_to_an_unwritable_path_exits_73(tmp_path, capsys):
    out_path = tmp_path / "no-such-dir" / "cert.json"
    code, out, err = run_cli(
        capsys,
        "construct", "--mode", "squarefree", "--x", "60", "--out", str(out_path),
    )
    assert code == 73 and out == ""
    assert err.startswith("error: cannot write certificate: ")
    assert "Traceback" not in err and not out_path.parent.exists()


def test_construct_kpower_too_small_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "construct", "--mode", "kpower", "--x", "40", "--k", "2",
        "--profile", "practical",
    )
    assert code == 2
    assert "capacity" in err


@pytest.mark.parametrize("k, x", [(6, 2000), (6, 10_000), (12, 10_000)])
def test_construct_kpower_k_divisible_by_6_exits_64(capsys, k, x):
    # p == 3 (mod 2k) holds no prime above 3 when 3 | k, at any x
    code, out, err = run_cli(
        capsys, "construct", "--mode", "kpower", "--k", str(k), "--x", str(x)
    )
    assert code == cli.EXIT_USAGE == 64
    assert out == ""
    assert err == (
        f"error: k={k} is divisible by 6: the matchable class "
        f"p == 3 (mod {2 * k}) holds no prime above 3\n"
    )


def test_construct_bad_y_exits_64(capsys):
    code, _, _ = run_cli(
        capsys, "construct", "--mode", "squarefree", "--x", "40", "--y", "2"
    )
    assert code == 64


def test_construct_unknown_flag_exits_64(capsys):
    code, _, _ = run_cli(capsys, "construct", "--mode", "squarefree")
    assert code == 64  # missing required --x


def test_construct_deterministic_bytes(capsys):
    for args in (
        ("construct", "--mode", "squarefree", "--x", "100", "--seed", "5"),
        ("construct", "--mode", "kpower", "--x", "200", "--seed", "5"),
    ):
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2


@pytest.mark.parametrize(
    "option",
    [("--c1", "0.1"), ("--c2", "0.25"), ("--delta", "0.01"), ("--profile", "literal"),
     ("--no-autoshrink",)],
    ids=" ".join,
)
def test_construct_removed_option_exits_64(capsys, option):
    code, out, err = run_cli(
        capsys, "construct", "--mode", "squarefree", "--x", "1000", *option
    )
    assert code == 64
    assert out == "" and option[0] in err


def test_construct_internal_error_exits_70(capsys, monkeypatch):
    def broken_cover(*args):
        raise RuntimeError("offset 5 lacks a valid witness (got p=0)")

    monkeypatch.setattr(squarefree, "verify_window", broken_cover)
    code, out, err = run_cli(capsys, "construct", "--mode", "squarefree", "--x", "60")
    assert code == cli.EXIT_INTERNAL == 70
    assert out == ""
    assert err == "internal error: offset 5 lacks a valid witness (got p=0)\n"


@pytest.mark.parametrize(
    "argv, module, name",
    [(("--mode", "squarefree", "--x", "60"), squarefree, "build_sets"),
     (("--mode", "kpower", "--k", "2", "--x", "600"), kpower, "build_sets_k")],
    ids=["squarefree", "kpower"],
)
def test_construct_failure_without_a_message_names_its_type(
    capsys, monkeypatch, argv, module, name
):
    # a window too large for memory raises a MemoryError whose str is empty
    def out_of_memory(sch):
        raise MemoryError()

    monkeypatch.setattr(module, name, out_of_memory)
    code, out, err = run_cli(capsys, "construct", *argv)
    assert code == cli.EXIT_INTERNAL == 70
    assert out == ""
    assert err == "internal error: MemoryError\n"


def test_construct_m_below_2y_exits_70(capsys, monkeypatch):
    # only a construction bug gives an m below 2y; it exited 64, a usage error
    search = squarefree.find_squarefree_in_ap
    monkeypatch.setattr(
        squarefree, "find_squarefree_in_ap",
        lambda *args, **kwargs: search(*args, **kwargs)._replace(m=1),
    )
    code, out, err = run_cli(capsys, "construct", "--mode", "squarefree", "--x", "60")
    assert code == cli.EXIT_INTERNAL == 70
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("internal error: m=1 violates m >= 2y")


def _roots(roots, band):
    """kth_roots_mod_p answering ``roots`` for the P1 prime 2, or for the
    primes above sqrt(1000) = max(z, x/40k) at k=3, x=1000, the matched
    ones."""

    def spoil(kth_roots_mod_p):
        def spoiled(a, k, p):
            hit = p == 2 if band == "P1" else p > 31
            return set(roots) if hit else kth_roots_mod_p(a, k, p)

        return spoiled

    return spoil


def _band_one_prime_matched(match_offsets):
    # the first matched offset also takes a P1 prime, one under which its
    # class has a nonzero root
    def spoiled(sets):
        matching = match_offsets(sets)
        u = next(iter(matching.matched))
        p = next(
            p for p in reversed(sets.p1)
            if (1 - u) % p and numtheory.kth_root_count(1 - u, sets.k, p)
        )
        return matching._replace(pairs=(*matching.pairs, (u % p, p)))

    return spoiled


def _first_congruence_twice(covering_congruences):
    return lambda sets, pairs: (
        covering_congruences(sets, pairs) + covering_congruences(sets, pairs)[:1]
    )


KP3 = ("--mode", "kpower", "--k", "3", "--x", "1000")


# kpower k=1, x=200 matches no offset, so the kpower faults spoil k=3,
# x=1000, which matches 4.  A class without a nonzero root is the
# program's fault wherever it arises, so it is no usage error (64).
@pytest.mark.parametrize(
    "argv, module, name, spoil, message",
    [
        (KP3, numtheory, "kth_roots_mod_p", _roots({0}, "matched"), "no nonzero root"),
        (KP3, numtheory, "kth_roots_mod_p", _roots(set(), "matched"),
         "no nonzero root"),
        (KP3, numtheory, "kth_roots_mod_p", _roots({0}, "P1"), "no nonzero root"),
        (KP3, numtheory, "kth_roots_mod_p", _roots(set(), "P1"), "no nonzero root"),
        (KP3, kpower, "match_offsets", _band_one_prime_matched, "duplicate modulus"),
        (("--mode", "squarefree", "--x", "200"), squarefree, "covering_congruences",
         _first_congruence_twice, "duplicate modulus"),
    ],
    ids=[
        "kpower zero root", "kpower matched prime without a root",
        "kpower P1 zero root", "kpower P1 class without a root",
        "kpower duplicate modulus", "squarefree duplicate modulus",
    ],
)
def test_construct_invalid_congruence_system_exits_70(
    capsys, monkeypatch, argv, module, name, spoil, message
):
    # these construction faults raise a ValueError subclass, not a usage error
    monkeypatch.setattr(module, name, spoil(getattr(module, name)))
    code, out, err = run_cli(capsys, "construct", *argv)
    assert code == cli.EXIT_INTERNAL == 70
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("internal error: ")
    assert message in err


@pytest.mark.parametrize(
    "argv",
    [
        # z at log 1000 = 6.9078 or below leaves the mid band empty
        ("--mode", "squarefree", "--x", "1000", "--z", "6.9"),
        ("--mode", "squarefree", "--x", "40", "--profile", "explicit",
         "--z", "30", "--y", "10"),
        ("--mode", "kpower", "--x", "200000000"),
        # the squarefree pipeline raises nothing to a power
        ("--mode", "squarefree", "--x", "150", "--k", "2"),
        ("--mode", "squarefree", "--x", "150", "--k", "3"),
    ],
    ids=[
        "degenerate schedule", "z above x/4", "x above the sieve limit",
        "squarefree k=2", "squarefree k=3",
    ],
)
def test_construct_argument_fault_exits_64(capsys, argv):
    code, out, err = run_cli(capsys, "construct", *argv)
    assert code == cli.EXIT_USAGE == 64
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, name, value",
    [
        (("--mode", "squarefree", "--x", "100", "--z", "nan"), "z", "nan"),
        (("--mode", "squarefree", "--x", "inf"), "x", "inf"),
        (("--mode", "squarefree", "--x", "nan"), "x", "nan"),
        (("--mode", "kpower", "--x", "1000", "--z", "nan"), "z", "nan"),
        (("--mode", "kpower", "--x", "1000", "--k", "2", "--z", "inf"), "z", "inf"),
    ],
    ids=["sf z nan", "sf x inf", "sf x nan", "kp z nan", "kp2 z inf"],
)
def test_construct_rejects_non_finite_x_and_z(capsys, argv, name, value):
    code, out, err = run_cli(capsys, "construct", *argv)
    assert code == cli.EXIT_USAGE == 64
    assert out == ""
    assert err == f"error: {name} must be finite, got {value}\n"


@pytest.mark.parametrize("mode", ["squarefree", "kpower"])
@pytest.mark.parametrize("steps", ["0", "-1"])
def test_construct_rejects_max_steps_below_one(capsys, mode, steps):
    code, out, err = run_cli(
        capsys, "construct", "--mode", mode, "--x", "200", "--max-steps", steps
    )
    assert code == cli.EXIT_USAGE == 64
    assert out == ""
    assert f"argument --max-steps: expected an integer >= 1, got '{steps}'" in err


# -- verify ------------------------------------------------------------------------


@pytest.fixture(scope="module")
def micro_doc_text():
    cert = construct_certificate(
        make_schedule(40, 1, "explicit", z=6.3246, y=10)
    )
    return doc_mod.document_to_json(doc_mod.certificate_to_document(cert))


def test_verify_accepts_emitted_documents(tmp_path, capsys, micro_doc_text):
    path = tmp_path / "cert.json"
    path.write_text(micro_doc_text)
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0
    assert "certificate OK" in out


def test_verify_detects_tampered_witness(tmp_path, capsys, micro_doc_text):
    doc = json.loads(micro_doc_text)
    doc["cover"][0]["witness_prime"] = "31"
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert f"offset {doc['cover'][0]['u']}" in out


def test_verify_rejects_composite_witness(tmp_path, capsys, micro_doc_text):
    # a composite proper divisor passes every check but primality
    doc = json.loads(micro_doc_text)
    m = int(doc["m"])
    for entry in doc["cover"]:
        value = m + entry["u"]
        d = value // next(p for p in range(2, value + 1) if value % p == 0)
        if d > 1 and not numtheory.is_prime(d):
            break
    entry["witness_prime"] = str(d)
    path = tmp_path / "composite.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert f"witness {d} fails at offset {entry['u']}" in out


def witnesses_section(doc):
    report = doc_mod.verify_document(doc)
    return next((ok, detail) for name, ok, detail in report.sections
                if name == "witnesses")


def hand_built_doc(mode, k, m, y, congruences, cover):
    """A document of ``mode`` with m0 the least member of m's progression
    and ``cover`` an {offset: witness} dict; the verifier reads nothing
    else of it."""
    modulus = math.prod(q for _, q in congruences)
    return {
        "format_version": doc_mod.FORMAT_VERSION,
        "mode": mode,
        "seed": 0,
        "schedule": {"y": y, "k": k},
        "congruences": [[str(r), str(q)] for r, q in congruences],
        "modulus": str(modulus),
        "m0": str(m % modulus or modulus),
        "m": str(m),
        "cover": [{"u": u, "witness_prime": str(q)} for u, q in sorted(cover.items())],
        "exceptions": [],
        "metrics": {"squarefree_status": "partial"},
    }


@pytest.mark.parametrize(
    "mode, k, m, y, congruences, cover, u",
    [
        # elements 6, 7, 8: the witness 7 of u = 0 is the element itself
        ("squarefree", 1, 7, 1, [(1, 2), (0, 7)], {-1: 2, 0: 7, 1: 2}, 0),
        # elements 3^2 + u - 1 = 7, 8 (u = 1 is m^k): 7 is the element of u = -1
        ("kpower", 2, 3, 1, [(3, 7), (1, 2)], {-1: 7, 0: 2}, -1),
    ],
)
def test_verify_refuses_a_witness_equal_to_its_element(
    mode, k, m, y, congruences, cover, u
):
    doc = hand_built_doc(mode, k, m, y, congruences, cover)
    assert witnesses_section(doc) == (False, f"witness {cover[u]} fails at offset {u}")
    # the next member of the progression keeps every division, and each
    # witness is then a proper divisor
    doc = hand_built_doc(mode, k, m + 14, y, congruences, cover)
    assert witnesses_section(doc) == (True, f"{len(cover)} divisions verified")


@pytest.mark.parametrize("name", ["sf_x400.json", "kp2_x600_full.json"])
@pytest.mark.parametrize("step", [1, -1])
def test_verify_refuses_a_witness_one_class_off(name, step):
    # the witness of u + step divides the element next to u's, so never
    # u's own: the element's shift and the offset must both be exact
    doc = doc_mod.parse_document((FIXTURES / name).read_text())
    assert witnesses_section(doc)[0]
    cover = {e["u"]: e for e in doc["cover"]}
    u = next(u for u in sorted(cover) if u + step in cover
             and cover[u]["witness_prime"] != cover[u + step]["witness_prime"])
    q = cover[u + step]["witness_prime"]
    cover[u]["witness_prime"] = q
    assert witnesses_section(doc) == (False, f"witness {q} fails at offset {u}")


def test_verify_tests_each_distinct_prime_once(monkeypatch):
    # the squarefree x=10^4 benchmark instance: 545 distinct moduli, which
    # include every witness, and the prime cofactor C
    doc = doc_mod.parse_document(doc_mod.document_to_json(
        doc_mod.certificate_to_document(construct_certificate(make_schedule(10_000)))
    ))
    tested = []

    def counting(n):
        tested.append(n)
        return numtheory.is_prime(n)

    monkeypatch.setattr(doc_mod, "is_prime", counting)
    assert doc_mod.verify_document(doc).ok
    moduli = {int(q) for _, q in doc["congruences"]}
    witnesses = {int(e["witness_prime"]) for e in doc["cover"]}
    zero = math.prod(int(q) for r, q in doc["congruences"] if r == "0")
    assert witnesses <= moduli
    assert sorted(tested) == sorted(moduli | {int(doc["m"]) // zero})
    assert len(tested) == 546


def non_modulus_witness(doc):
    """(u, p): an offset of ``doc`` and a prime p <= 2000 that divides its
    element m + u but is no congruence modulus."""
    m = int(doc["m"])
    moduli = {int(q) for _, q in doc["congruences"]}
    return next(
        (e["u"], p) for e in doc["cover"] for p in numtheory.primes_upto(2000)
        if (m + e["u"]) % p == 0 and p not in moduli
    )


def test_verify_refuses_a_prime_witness_that_is_no_modulus(monkeypatch):
    # p is prime, divides the element and is below it, but strikes its
    # offset under no congruence; is_prime never sees it
    doc = doc_mod.parse_document((FIXTURES / "sf_x400.json").read_text())
    u, p = non_modulus_witness(doc)
    next(e for e in doc["cover"] if e["u"] == u)["witness_prime"] = str(p)
    tested = []

    def recording(n):
        tested.append(n)
        return numtheory.is_prime(n)

    monkeypatch.setattr(doc_mod, "is_prime", recording)
    assert witnesses_section(doc) == (False, f"witness {p} fails at offset {u}")
    assert p not in tested and numtheory.is_prime(p)


def test_verify_abbreviates_a_long_witness():
    # a 6,001-digit witness used to be printed in full, after a primality
    # test of its own
    doc = doc_mod.parse_document((FIXTURES / "kp3_x1000.json").read_text())
    entry = doc["cover"][0]
    with doc_mod.unlimited_int_digits():
        entry["witness_prime"] = text = str(10**6000 + 7)
    ok, detail = witnesses_section(doc)
    assert not ok
    assert detail == (
        f"witness {text[:12]}...{text[-12:]} (6001 digits) fails at offset {entry['u']}"
    )


def test_verify_progression_shift(tmp_path, capsys, micro_doc_text):
    # m -> m + t*N stays in the progression and keeps every witness
    # divisor; with the metrics of the new m, the verdict then hinges on
    # the squarefree recheck alone
    from primeavoid.squarefree import classify_squarefree

    doc = json.loads(micro_doc_text)
    m, n = int(doc["m"]), int(doc["modulus"])
    shifted_ok = next(
        t for t in range(1, 50) if classify_squarefree(m + t * n) == "proven"
    )
    shifted_bad = next(
        t for t in range(1, 50) if classify_squarefree(m + t * n) == "not_squarefree"
    )
    y = doc["schedule"]["y"]
    for t, expected in ((shifted_ok, 0), (shifted_bad, 1)):
        shifted = m + t * n
        doc["m"] = str(shifted)
        doc["metrics"].update(doc_mod.derived_metrics(shifted, n, shifted, y))
        path = tmp_path / f"shifted{t}.json"
        path.write_text(json.dumps(doc))
        code, _, _ = run_cli(capsys, "verify", str(path))
        assert code == expected


@pytest.fixture(scope="module")
def partial_doc_text():
    # x=1160 leaves an opaque 91-bit cofactor, so m's recorded tier is
    # "partial"
    cert = construct_certificate(make_schedule(1160, 1, "practical"))
    assert cert.metrics["squarefree_status"] == "partial"
    return doc_mod.document_to_json(doc_mod.certificate_to_document(cert))


@pytest.mark.parametrize("claimed", ["prp", "proven", "squarefree"])
def test_verify_rejects_overclaimed_squarefree_tier(
    tmp_path, capsys, partial_doc_text, claimed
):
    doc = json.loads(partial_doc_text)
    doc["metrics"]["squarefree_status"] = claimed
    path = tmp_path / f"{claimed}.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert "[FAIL] squarefree" in out
    assert "certificate OK" not in out


def test_pool_that_cannot_start_exits_70(tmp_path, capsys, monkeypatch,
                                         partial_doc_text):
    # a fork that fails raises BlockingIOError; it escaped cli.main with a
    # traceback and exit 1, the code of a refuted certificate.  The trial
    # scan of x=1160's 91-bit cofactor asks for a pool, and none starts
    failure = BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    def cannot_fork(workers):
        raise failure

    monkeypatch.setattr(numtheory, "_start_pool", cannot_fork)
    monkeypatch.setattr(numtheory, "_pool_workers", lambda: 2)
    path = tmp_path / "partial.json"
    path.write_text(partial_doc_text)
    for argv in (("verify", str(path)),
                 ("construct", "--mode", "squarefree", "--x", "1160")):
        code, out, err = run_cli(capsys, *argv)
        assert code == cli.EXIT_INTERNAL == 70, argv
        assert out == "" and err == f"internal error: {failure}\n", argv


class CofactorPrimalityTested(Exception):
    pass


def test_partial_claim_skips_cofactor_primality(monkeypatch, partial_doc_text):
    def refuse(*args):
        raise CofactorPrimalityTested

    round_below_2_64 = kernels.strong_probable_prime

    def refuse_from_2_64(n, bases):
        if n >= 2**64:
            raise CofactorPrimalityTested
        return round_below_2_64(n, bases)

    # every other number the verifier tests is below 2**64
    monkeypatch.setattr(numtheory, "_bpsw", refuse)
    monkeypatch.setattr(kernels, "strong_probable_prime", refuse_from_2_64)
    report = doc_mod.verify_document(doc_mod.parse_document(partial_doc_text))
    assert report.ok and not report.notes
    for claimed in ("prp", "proven"):
        doc = json.loads(partial_doc_text)
        doc["metrics"]["squarefree_status"] = claimed
        with pytest.raises(CofactorPrimalityTested):
            doc_mod.verify_document(doc)


# the sections that must pass before verify_document tests any primality
STRUCTURE = ("congruences", "progression", "completeness", "witnesses")


def sections_of(doc):
    """verify_document's (passed, detail) for each section, by name."""
    return {name: (ok, detail) for name, ok, detail in doc_mod.verify_document(doc).sections}


def with_square_factor(doc, p):
    """A copy of ``doc`` with m moved along its progression to the least
    m + j*N that p^2 divides, for p a residue-0 modulus or a prime of no
    modulus.  Every congruence, witness and offset still holds, so only
    the squarefree section can refute the copy."""
    m, n = int(doc["m"]), int(doc["modulus"])
    g = math.gcd(n, p)  # p, which then divides m, or 1
    step = p * p // g
    j = -(m // g) * pow(n // g, -1, step) % step
    moved = json.loads(json.dumps(doc))
    moved["m"] = str(m + j * n)
    return moved


def lone_offset_doc(m):
    """A squarefree document whose window is the lone offset 0, struck by
    0 mod 2: its structure holds for every even m, so only the squarefree
    section can refute its partial claim."""
    return {
        "format_version": doc_mod.FORMAT_VERSION, "mode": "squarefree", "seed": 0,
        "schedule": {"k": 1, "y": 0}, "congruences": [["0", "2"]],
        "modulus": "2", "m0": "2", "m": str(m),
        "cover": [{"u": 0, "witness_prime": "2"}], "exceptions": [],
        "metrics": {"squarefree_status": "partial"},
    }


def test_partial_claim_rejects_square_factors(partial_doc_text):
    # a repeated small prime in a member of m's progression, or a
    # perfect-power cofactor (m's partial-tier cofactor squared or cubed),
    # must still fail the section
    doc = json.loads(partial_doc_text)
    m = int(doc["m"])
    rest = numtheory.trial_cofactor(m)
    assert numtheory.classify_squarefree(m) == "partial"
    bad_docs = [with_square_factor(doc, 3), with_square_factor(doc, 7)]
    bad_docs += [lone_offset_doc(bad) for bad in (2 * rest**2, 210 * rest**3)]
    for bad in bad_docs:
        sections = sections_of(bad)
        assert all(sections[name][0] for name in STRUCTURE), bad["m"]
        assert sections["squarefree"] == (False, "m has a square factor"), bad["m"]


@pytest.fixture(scope="module")
def prime_cofactor_doc():
    # x=1700: N/B has 97 bits, so m = B*C with C a 100-bit prime, "prp"
    cert = construct_certificate(make_schedule(1700))
    assert cert.metrics["squarefree_status"] == "prp"
    return doc_mod.parse_document(
        doc_mod.document_to_json(doc_mod.certificate_to_document(cert))
    )


def squarefree_section(doc):
    return sections_of(doc)["squarefree"]


def scan_section(m, recorded):
    """The squarefree section that the trial scan alone gives m."""
    actual = numtheory.classify_squarefree(m)
    if actual == "not_squarefree":
        return False, "m has a square factor"
    rank = {"partial": 0, "prp": 1, "proven": 2}
    if rank[recorded] > rank[actual]:
        return False, f"recorded tier {recorded} claims more than {actual}"
    return True, f"status {actual} (trial scan)"


@pytest.fixture
def scans(monkeypatch):
    """The m that the verifier hands to its trial scan, in order."""
    scanned = []

    def recording(m, *args, **kwargs):
        scanned.append(m)
        return numtheory.classify_squarefree(m, *args, **kwargs)

    monkeypatch.setattr(doc_mod, "classify_squarefree", recording)
    return scanned


def test_prime_cofactor_proves_m_without_the_scan(prime_cofactor_doc, scans):
    assert squarefree_section(prime_cofactor_doc) == (True, "status prp (m/B prime)")
    assert scans == []


def spoiled_prime_cofactor_docs(doc):
    """(name, document) pairs: the prime-cofactor document with m moved
    along its progression so that no prime m/B proves m."""
    m = int(doc["m"])
    zero = [int(q) for r, q in doc["congruences"] if r == "0"]
    b = math.prod(zero)
    c = m // b
    step = int(doc["modulus"]) // b
    composite = next(
        c + j * step for j in range(1, 100) if not numtheory.is_prime(c + j * step)
    )
    beyond_scan = next(p for p in range(2**64 + 1, 2**64 + 10**3, 2)
                       if numtheory.is_prime(p))

    above_x = next(p for p in range(1701, 2000) if numtheory.is_prime(p))
    yield "m*p^2, p | B", with_square_factor(doc, zero[-1])
    yield "m*p^2, p = 2", with_square_factor(doc, 2)
    yield "m*p^2, p not in B", with_square_factor(doc, above_x)
    yield "m*p^2, p beyond the scan", with_square_factor(doc, beyond_scan)
    spoiled = json.loads(json.dumps(doc))
    spoiled["m"] = str(b * composite)
    yield "C composite", spoiled


def test_spoiled_prime_cofactor_falls_back_to_the_scan(prime_cofactor_doc, scans):
    for name, doc in spoiled_prime_cofactor_docs(prime_cofactor_doc):
        m = int(doc["m"])
        scans.clear()
        sections = sections_of(doc)
        assert all(sections[section][0] for section in STRUCTURE), name
        assert scans == [m], name
        assert sections["squarefree"] == scan_section(m, "prp"), name
        assert not sections["squarefree"][0], name


def test_prime_cofactor_refuses_a_prime_of_b():
    # m = B*q for a prime q of B proves nothing; the spoiled copy below
    # leaves the progression and so never reaches the proof, which is
    # therefore called directly
    congs = [(0, 2), (0, 3), (1, 5)]
    assert doc_mod._prime_cofactor_tier(2 * 3 * 3, congs) is None
    assert doc_mod._prime_cofactor_tier(2 * 3 * 7, congs) == "proven"


def test_spoiled_residue_zero_moduli_leave_m_unchecked(prime_cofactor_doc, scans):
    # 2 | B: residue 0 mod 4 instead of mod 2, or mod 2 twice, with m
    # doubled, would make m/B prime again while 4 divides m; and m = B*q
    # for a prime q of B leaves the progression.  Each fails a structural
    # section, so neither m/B nor the scan is tried
    doc = prime_cofactor_doc
    m = int(doc["m"])
    zero = [int(q) for r, q in doc["congruences"] if r == "0"]
    congs = doc["congruences"]
    four = [["0", "4"] if rq == ["0", "2"] else rq for rq in congs]
    for congruences, new_m, failed in (
        (four, 2 * m, "congruences"),
        ([*congs, ["0", "2"]], 2 * m, "congruences"),
        (congs, math.prod(zero) * zero[-1], "progression"),
    ):
        spoiled = {**doc, "congruences": congruences, "m": str(new_m)}
        assert squarefree_section(spoiled) == (False, f"not checked: {failed} fails")
    assert scans == []


def test_partial_prime_cofactor_claim_runs_no_bpsw(monkeypatch, prime_cofactor_doc):
    def refuse(*args):
        raise CofactorPrimalityTested

    doc = json.loads(json.dumps(prime_cofactor_doc))
    doc["metrics"]["squarefree_status"] = "partial"
    monkeypatch.setattr(numtheory, "_bpsw", refuse)
    report = doc_mod.verify_document(doc)
    assert report.ok and not report.notes
    assert squarefree_section(doc) == (True, "status partial (trial scan)")


SQUAREFREE_FIXTURES = sorted(FIXTURES.glob("**/sf_*.json"))


@pytest.mark.parametrize(
    "path", SQUAREFREE_FIXTURES, ids=lambda p: str(p.relative_to(FIXTURES))
)
def test_squarefree_fixture_keeps_its_scan_verdict(path):
    # whether or not m/B is prime, every format's squarefree fixture gets
    # the tier the trial scan gives it
    doc = doc_mod.parse_document(path.read_text())
    tier = numtheory.classify_squarefree(int(doc["m"]))
    ok, detail = squarefree_section(doc)
    assert ok and detail.startswith(f"status {tier} (")


def metrics_section(doc):
    report = doc_mod.verify_document(doc)
    return next((ok, detail) for name, ok, detail in report.sections
                if name == "metrics")


ALL_FIXTURES = sorted(FIXTURES.glob("**/*.json"))


@pytest.mark.parametrize(
    "path", ALL_FIXTURES, ids=lambda p: str(p.relative_to(FIXTURES))
)
def test_every_fixture_states_its_metrics_exactly(path, monkeypatch):
    # every format's recorded metrics are the ones recomputed, to the bit
    assert len(ALL_FIXTURES) == 78
    doc = doc_mod.parse_document(path.read_text())
    monkeypatch.setattr(doc_mod, "METRICS_REL_TOL", 0.0)
    ok, detail = metrics_section(doc)
    constant = doc["metrics"]["avoidance_constant"]
    shown = "null" if constant is None else repr(constant)
    assert (ok, detail) == (True, f"5 values recomputed, avoidance constant {shown}")


@pytest.mark.parametrize(
    "fixture, key, value, shown",
    [
        ("sf_x400.json", "avoidance_constant", 42.0, "42.0"),
        ("sf_x400.json", "log_m", 10**6, "1000000"),
        ("sf_x400.json", "avoidance_constant", None, "None"),
        ("kp1_x200.json", "avoidance_constant", 0.5, "0.5"),
        ("kp3_x1000.json", "prime_count_in_window", 7, "7"),
        ("kp3_x1000.json", "prime_count_in_window", False, "False"),
        ("kp3_x1000.json", "exponent_report", "1.05", "'1.05'"),
        ("kp3_x1000.json", "log_modulus", 10**400,
         "100000000000...000000000000 (401 digits)"),
    ],
    ids=["constant", "log_m", "constant null", "constant not null", "prime count",
         "prime count false", "exponent string", "log_modulus huge"],
)
def test_verify_refuses_a_misstated_metric(tmp_path, capsys, fixture, key, value,
                                           shown):
    # sf_x400 with the constant 42.0 or log_m 10^6, and kp3_x1000 with 7
    # primes in its window, verified with every section PASS
    computed = json.loads((FIXTURES / fixture).read_text())["metrics"][key]

    def mutate(doc):
        doc["metrics"][key] = value

    code, out = verify_mutated(tmp_path, capsys, fixture, mutate)
    assert code == 1
    assert out.endswith(
        f"  [FAIL] metrics        {key} recorded {shown}, recomputed {computed!r}\n"
    )


def test_verify_refuses_a_missing_metric(tmp_path, capsys):
    code, out = verify_mutated(
        tmp_path, capsys, "kp3_x1000.json", lambda doc: doc["metrics"].pop("log_m")
    )
    assert code == 1
    assert "[FAIL] metrics        log_m recorded 'missing', recomputed " in out


def test_metrics_pass_within_the_tolerance():
    doc = doc_mod.parse_document((FIXTURES / "sf_x400.json").read_text())
    log_m = doc["metrics"]["log_m"]
    doc["metrics"]["log_m"] = log_m * (1 + doc_mod.METRICS_REL_TOL / 2)
    assert metrics_section(doc)[0]
    doc["metrics"]["log_m"] = log_m * (1 + 2 * doc_mod.METRICS_REL_TOL)
    assert not metrics_section(doc)[0]


@pytest.mark.parametrize(
    "bound, detail",
    [
        ("1" + "0" * 30, "squarefree_trial_bound 100000000000...000000000000 "
                         "(31 digits) exceeds the scan to 10000000"),
        ("10000001", "squarefree_trial_bound 10000001 exceeds the scan to 10000000"),
        (10**7, "squarefree_trial_bound 10000000 is not a decimal string"),
        (None, "squarefree_trial_bound None is not a decimal string"),
    ],
    ids=["10^30", "10^7 + 1", "a JSON number", "missing"],
)
def test_verify_refuses_a_trial_bound_beyond_the_scan(partial_doc_text, bound, detail):
    # the verifier's scan stops at 10^7; a partial document that claimed
    # 10^30 verified
    doc = json.loads(partial_doc_text)
    if bound is None:
        del doc["metrics"]["squarefree_trial_bound"]
    else:
        doc["metrics"]["squarefree_trial_bound"] = bound
    assert metrics_section(doc) == (False, detail)
    doc["metrics"]["squarefree_trial_bound"] = "1000"  # claims less: passes
    assert metrics_section(doc)[0]


def test_verify_accepts_underclaimed_squarefree_tier(tmp_path, capsys, micro_doc_text):
    doc = json.loads(micro_doc_text)
    assert doc["metrics"]["squarefree_status"] == "proven"
    doc["metrics"]["squarefree_status"] = "partial"
    path = tmp_path / "weaker.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0
    assert "[PASS] squarefree" in out
    assert "recorded partial, now proven" in out


def test_verify_missing_file_exits_66(capsys):
    code, _, _ = run_cli(capsys, "verify", "/no/such/file.json")
    assert code == 66


def test_verify_malformed_exits_65(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{this is not json")
    code, _, _ = run_cli(capsys, "verify", str(path))
    assert code == 65
    path.write_text(json.dumps({"mode": "squarefree"}))
    code, _, _ = run_cli(capsys, "verify", str(path))
    assert code == 65
    path.write_text("[]")
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 65 and "document root must be an object" in err


@pytest.mark.parametrize(
    "data, reason",
    [
        (b"\xff\xfe", "can't decode byte 0xff"),
        (b"[" * 200_000 + b"]" * 200_000, "nested too deeply"),
    ],
    ids=["not-utf-8", "nested-past-the-recursion-limit"],
)
def test_verify_unreadable_json_exits_65(tmp_path, capsys, data, reason):
    # each raised out of the CLI with a traceback, and exit 1 claimed that
    # a certificate had failed
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 65
    assert "error: malformed document" in err and reason in err
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("key", ["cover", "exceptions", "congruences"])
def test_verify_list_given_as_an_object_exits_65(tmp_path, capsys, key):
    # an empty object iterates as an empty list: it passed the parse, and
    # verify then judged the document, FAILED with exit 1 (or, for the
    # exceptions of a squarefree document, OK)
    doc = json.loads((FIXTURES / "sf_x40_explicit.json").read_text())
    doc[key] = {}
    bad = tmp_path / "object.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", str(bad))
    assert code == 65
    assert f"malformed document: malformed field: {key} is not an array" in err
    assert out == ""


@pytest.mark.parametrize(
    "tamper",
    [
        lambda doc: doc.update(exceptions=[{"u": "abc", "status": "prime"}]),
        lambda doc: doc.update(exceptions=[{"status": "prime"}]),
        lambda doc: doc["schedule"].update(k="two"),
        lambda doc: doc["schedule"].update(k=-1),
        lambda doc: doc.update(metrics=[]),
        lambda doc: doc.update(modulus="0"),
        lambda doc: doc["metrics"].update(squarefree_status=[]),
        lambda doc: doc.update(m="0"),
        lambda doc: doc.update(m="-5"),
        # int() took each of these, and the document verified
        lambda doc: doc["schedule"].update(y=10.9),
        lambda doc: doc["schedule"].update(y=10.0),
        lambda doc: doc["schedule"].update(k=True),
        lambda doc: doc["schedule"].update(k="1"),
        lambda doc: doc["cover"][0].update(u=-10.0),
        lambda doc: doc["cover"][0].update(u=False),
        lambda doc: doc.update(m=int(doc["m"])),
        lambda doc: doc.update(m0="1_3"),
        lambda doc: doc.update(modulus=" 30030"),
        lambda doc: doc["congruences"][0].__setitem__(1, "\u0662"),
        lambda doc: doc["cover"][0].update(witness_prime="\uff17"),
        lambda doc: doc.update(mode="cube"),
        lambda doc: doc.update(exceptions=[{"u": 0, "status": 1}]),
        # construct refuses a squarefree k other than 1; with k = 2 every
        # section of the document passed
        lambda doc: doc["schedule"].update(k=2),
    ],
    ids=[
        "exception-u-not-int", "exception-u-missing", "k-not-int", "k-negative",
        "metrics-list", "modulus-zero", "status-list", "m-zero", "m-negative",
        "y-float", "y-integral-float", "k-boolean", "k-string", "u-float",
        "u-boolean", "m-json-number", "m0-underscore", "modulus-space",
        "modulus-arabic-indic-digit", "witness-fullwidth-digit", "mode-unknown",
        "status-not-string", "squarefree-k-2",
    ],
)
def test_verify_malformed_field_exits_65(tmp_path, capsys, micro_doc_text, tamper):
    doc = json.loads(micro_doc_text)
    tamper(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "verify", str(bad))
    assert code == 65
    assert "malformed document" in err


@pytest.mark.parametrize("shape", ["strings", "object"])
def test_verify_congruence_that_is_not_a_pair_exits_65(tmp_path, capsys, shape):
    # a two-character string unpacks as a residue and a modulus, and so do
    # an object's keys: with its single-digit congruences written as "02",
    # "03", "05" and "07", sf_x400 verified
    doc = json.loads((FIXTURES / "sf_x400.json").read_text())
    joined = ["".join(pair) for pair in doc["congruences"]]
    assert [text for text in joined if len(text) == 2] == ["02", "03", "05", "07"]
    if shape == "strings":
        doc["congruences"] = [
            text if len(text) == 2 else pair
            for text, pair in zip(joined, doc["congruences"])
        ]
    else:
        doc["congruences"] = {text: None for text in joined if len(text) == 2}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "verify", str(bad))
    assert code == 65
    assert "is not a two-element array" in err


@pytest.mark.parametrize("fixture", ["sf_x40_explicit.json", "kp1_x200.json"])
def test_verify_negative_window_radius_exits_65(tmp_path, capsys, fixture):
    # y = -1 leaves an empty window: with no cover and no exceptions,
    # every section would pass on nothing
    doc = json.loads((FIXTURES / fixture).read_text())
    doc["schedule"]["y"] = -1
    doc.update(cover=[], exceptions=[])
    bad = tmp_path / "empty.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", str(bad))
    assert code == 65
    assert "schedule.y must be at least 0" in err
    assert "certificate OK" not in out


def test_verify_power_above_the_cap_exits_65_at_once(tmp_path):
    # an 818-bit m with k = 3*10^6 claims a power of 2.4*10^9 bits; the
    # verifier refuses it before building m^k
    doc = json.loads((FIXTURES / "kp2_x600_full.json").read_text())
    doc["schedule"]["k"] = 3 * 10**6
    bad = tmp_path / "huge_k.json"
    bad.write_text(json.dumps(doc))
    src = str(Path(doc_mod.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "primeavoid", "verify", str(bad)],
        capture_output=True, text=True, timeout=20,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 65
    assert "m^k too large: k * bits(m) = 3000000 * 818 exceeds 65536" in done.stderr
    assert "certificate OK" not in done.stdout


def test_power_cap_is_inclusive(monkeypatch):
    # k * bits(m) = MAX_POWER_BITS parses; one bit less of cap does not
    text = (FIXTURES / "kp2_x600_full.json").read_text()
    bits = int(json.loads(text)["m"]).bit_length()
    monkeypatch.setattr(doc_mod, "MAX_POWER_BITS", 2 * bits)
    assert doc_mod.parse_document(text)["schedule"]["k"] == 2
    monkeypatch.setattr(doc_mod, "MAX_POWER_BITS", 2 * bits - 1)
    with pytest.raises(DocumentError, match="m\\^k too large"):
        doc_mod.parse_document(text)


def test_squarefree_document_has_no_power_cap(micro_doc_text, monkeypatch):
    # squarefree verification never raises m to the power k
    monkeypatch.setattr(doc_mod, "MAX_POWER_BITS", 1)
    assert doc_mod.parse_document(micro_doc_text)["mode"] == "squarefree"


def test_construct_power_above_the_cap_exits_70(capsys, monkeypatch):
    # kp3 x=1000 finds a 64-bit m: 3 * 64 = 192 bits of m^3
    monkeypatch.setattr(numtheory, "MAX_POWER_BITS", 191)
    code, out, err = run_cli(capsys, "construct", *KP3)
    assert code == cli.EXIT_INTERNAL == 70
    assert out == ""
    assert err == (
        "internal error: m^k too large: k * bits(m) = 3 * 64 exceeds 191, "
        "which a verifier refuses\n"
    )
    monkeypatch.setattr(numtheory, "MAX_POWER_BITS", 192)
    code, _, _ = run_cli(capsys, "construct", *KP3)
    assert code == 0


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_verify_rejects_non_json_constants_exits_65(tmp_path, capsys, constant):
    # Python's json writes and reads these, but they are not JSON values
    doc = json.loads((FIXTURES / "sf_x400.json").read_text())
    doc["schedule"]["z"] = float(constant.replace("Infinity", "inf"))
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(doc))
    assert f'"z": {constant}' in bad.read_text()
    code, out, err = run_cli(capsys, "verify", str(bad))
    assert code == 65
    assert "malformed document" in err and f"{constant} is not a JSON value" in err
    assert "certificate OK" not in out


@pytest.mark.parametrize("version", ["9.9", "2.0", "1.13", "1", 1.2, None])
def test_verify_unknown_format_version_exits_65(
    tmp_path, capsys, micro_doc_text, version
):
    doc = json.loads(micro_doc_text)
    doc["format_version"] = version
    bad = tmp_path / "future.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", str(bad))
    assert code == 65
    assert "unsupported format_version" in err
    assert "certificate OK" not in out


def completeness(doc):
    report = doc_mod.verify_document(doc)
    return next((ok, detail) for name, ok, detail in report.sections
                if name == "completeness")


@pytest.mark.parametrize("fixture", ["sf_x40_explicit.json", "kp3_x1000.json"])
def test_verify_completeness_names_missing_and_extra_offsets(fixture):
    # the window as a set is the oracle; the verifier never builds it
    rng = random.Random(fixture)
    clean = json.loads((FIXTURES / fixture).read_text())
    y = clean["schedule"]["y"]
    window = set(range(-y, y + 1)) - ({1} if clean["mode"] == "kpower" else set())
    for _ in range(40):
        doc = json.loads(json.dumps(clean))
        doc["cover"] = rng.sample(doc["cover"], rng.randrange(len(doc["cover"]) + 1))
        for u in rng.sample([-y - 2, -y - 1, 1, y + 1, 3 * y], rng.randrange(3)):
            doc["cover"].append({"u": u, "witness_prime": "2"})
        listed = [e["u"] for e in doc["cover"]]
        seen = set(listed)
        twice = [u for i, u in enumerate(listed) if u in listed[:i]]
        ok, detail = completeness(doc)
        assert ok == (seen == window and not twice)
        if twice:
            assert detail == f"offset {twice[0]} listed twice in cover"
        elif not ok:
            assert detail.endswith(
                f"(missing {sorted(window - seen)[:5]}, "
                f"extra {sorted(seen - window)[:5]})"
            )


def test_verify_completeness_cost_follows_the_document_not_y():
    # 12 entries claiming y = 10^5: the verdict must not cost a set of
    # 2*10^5 + 1 offsets (about 24 MB)
    doc = doc_mod.parse_document((FIXTURES / "kp1_x200.json").read_text())
    doc["schedule"]["y"] = 10**5
    tracemalloc.start()
    try:
        ok, detail = completeness(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not ok
    assert "missing [-100000, -99999, -99998, -99997, -99996], extra []" in detail
    assert peak < 2**20


def verify_mutated(tmp_path, capsys, fixture, mutate):
    """verify's exit code and stdout on ``fixture`` after ``mutate(doc)``."""
    doc = json.loads((FIXTURES / fixture).read_text())
    mutate(doc)
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", str(path))
    return code, out


def test_verify_rejects_an_offset_witnessed_twice(tmp_path, capsys):
    # 7 does not divide m - 108; the true witness of -108 comes later
    def mutate(doc):
        assert (int(doc["m"]) - 108) % 7
        doc["cover"].insert(0, {"u": -108, "witness_prime": "7"})

    code, out = verify_mutated(tmp_path, capsys, "sf_x400.json", mutate)
    assert code == 1
    assert "[FAIL] completeness   offset -108 listed twice in cover" in out


def test_verify_rejects_an_exception_listed_twice(tmp_path, capsys):
    # a struck element is composite: the first status is false, the last
    # true, and both name one offset; any listed exception is refuted
    def mutate(doc):
        u = doc["cover"].pop(0)["u"]
        doc["exceptions"] = [
            {"u": u, "status": "prime"}, {"u": u, "status": "composite"}
        ]

    code, out = verify_mutated(tmp_path, capsys, "kp3_x1000.json", mutate)
    assert code == 1
    assert "[FAIL] completeness   document lists exception -38" in out


@pytest.mark.parametrize(
    "fixture, u", [("sf_x400.json", -108), ("kp3_x1000.json", -38)],
    ids=["squarefree", "kpower"],
)
def test_verify_rejects_a_listed_exception(tmp_path, capsys, fixture, u):
    # every offset needs its witness but kpower's u = 1; none may be waived
    def mutate(doc):
        doc["exceptions"] = [{"u": doc["cover"].pop(0)["u"], "status": "prime"}]

    code, out = verify_mutated(tmp_path, capsys, fixture, mutate)
    assert code == 1
    assert f"[FAIL] completeness   document lists exception {u}" in out


def m0_beyond_the_modulus(doc):
    # m0 + N satisfies every residue, and m stays in its progression
    doc["m0"] = str(int(doc["m0"]) + int(doc["modulus"]))


def m0_off_one_residue(doc):
    doc["congruences"][0][0] = "0"  # kp3_x1000's m0 is odd


def m0_with_a_residue_zero(doc):
    # 3's residue becomes 0 and m0 is solved again, so every residue holds
    congs = [(int(r), int(q)) for r, q in doc["congruences"]]
    congs[1] = (0, 3)
    doc["congruences"][1][0] = "0"
    doc["m0"] = str(numtheory.crt_solve(congs)[0])


def congruence_on_zero(doc):
    doc["congruences"].append(["0", "0"])


def first_modulus_zero(doc):
    doc["congruences"][0][1] = "0"


def m_below_twice_y(doc):
    doc["schedule"]["y"] = int(doc["m"])


def composite_member_as_m(doc):
    # the next composite member keeps every division and every residue
    m, modulus = int(doc["m"]), int(doc["modulus"])
    doc["m"] = str(next(g for g in range(m + modulus, m + 99 * modulus, modulus)
                        if not numtheory.is_prime(g)))


def struck_offset_called_prime(doc):
    u = doc["cover"].pop(0)["u"]
    doc["exceptions"] = [{"u": u, "status": "prime"}]


@pytest.mark.parametrize(
    "fixture, mutate, section, detail",
    [
        ("kp3_x1000.json", m0_beyond_the_modulus, "congruences",
         "m0=1499187869354254619 outside [1, modulus]"),
        ("kp3_x1000.json", m0_off_one_residue, "congruences", "m0 fails residue 0 mod 2"),
        ("kp3_x1000.json", m0_with_a_residue_zero, "congruences",
         "m0 shares a factor with the modulus"),
        # the product fails too, but no residue is taken mod 0
        ("kp3_x1000.json", congruence_on_zero, "congruences", "modulus 0 is not prime"),
        ("sf_x400.json", first_modulus_zero, "congruences", "modulus 0 is not prime"),
        ("sf_x40_explicit.json", m_below_twice_y, "progression", "m=69510 < 2y=139020"),
        ("kp3_x1000.json", composite_member_as_m, "prime_base", "m is composite"),
        ("kp3_x1000.json", struck_offset_called_prime, "completeness",
         "document lists exception -38"),
    ],
    ids=["m0-beyond-modulus", "m0-off-residue", "kpower-m0-residue-zero",
         "kpower-congruence-on-zero", "squarefree-modulus-zero", "squarefree-m-below-2y", "kpower-m-composite", "wrong-exception-status"],
)
def test_verify_refusal_names_its_section(tmp_path, capsys, fixture, mutate, section,
                                          detail):
    # each tamper is caught by one check, which this verdict names
    code, out = verify_mutated(tmp_path, capsys, fixture, mutate)
    assert code == 1
    assert f"[FAIL] {section:<14} {detail}" in out


@pytest.mark.parametrize("twice", [False, True], ids=["extra-modulus", "modulus-twice"])
def test_verify_tests_no_primality_while_the_moduli_break_the_structure(
    monkeypatch, twice
):
    # 2^4423 - 1 is a Mersenne prime: a congruence on it that the modulus
    # leaves out, or one listed twice, fails before any number of 2^64 or
    # more reaches is_prime
    big = 2**4423 - 1
    with doc_mod.unlimited_int_digits():
        doc = json.loads((FIXTURES / "kp3_x1000.json").read_text())
        doc["congruences"] += [["0", str(big)]] * (1 + twice)
        if twice:
            doc["modulus"] = str(int(doc["modulus"]) * big**2)
        doc = doc_mod.parse_document(json.dumps(doc))
    tested = []

    def recording(n):
        tested.append(n)
        return numtheory.is_prime(n)

    monkeypatch.setattr(doc_mod, "is_prime", recording)
    report = doc_mod.verify_document(doc)
    fault = "duplicate moduli" if twice else (
        "modulus is not the product of the congruence moduli"
    )
    assert ("congruences", False, fault) in report.sections
    assert all(n < 2**64 for n in tested)


def failed_document_primality(monkeypatch, doc):
    """Verify ``doc`` with the trial scan refused, and return the report
    and every number that reached is_prime."""
    tested = []

    def recording(n):
        tested.append(n)
        return numtheory.is_prime(n)

    def refused(*args, **kwargs):
        raise AssertionError("a failed document reached the trial scan")

    monkeypatch.setattr(doc_mod, "is_prime", recording)
    monkeypatch.setattr(doc_mod, "classify_squarefree", refused)
    return doc_mod.verify_document(doc), tested


def test_failed_squarefree_document_runs_no_scan(monkeypatch):
    # one congruence more than the modulus holds: run anyway, the
    # squarefree section would scan m, 5,596 bits at x = 10^4, to 10^7
    cert = construct_certificate(make_schedule(10**4))
    doc = doc_mod.certificate_to_document(cert)
    doc["congruences"].append(["0", "1000003"])
    report, tested = failed_document_primality(monkeypatch, doc)
    assert not report.ok
    assert ("squarefree", False, "not checked: congruences fails") in report.sections
    assert all(n < 2**64 for n in tested)


def test_failed_kpower_document_tests_no_big_prime(monkeypatch):
    # a residue off by one: the congruences fail, so the 818-bit m goes
    # untested
    with doc_mod.unlimited_int_digits():
        doc = json.loads((FIXTURES / "kp2_x600_full.json").read_text())
    r, q = doc["congruences"][-1]
    doc["congruences"][-1] = [str((int(r) + 1) % int(q)), q]
    report, tested = failed_document_primality(monkeypatch, doc)
    assert not report.ok
    assert ("prime_base", False, "not checked: congruences fails") in report.sections
    assert all(n < 2**64 for n in tested)


def last_line_printed(code):
    """The last line that ``code`` prints to stdout in a fresh interpreter,
    which must exit 0."""
    src = str(Path(doc_mod.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    return out.strip().splitlines()[-1]


def modules_loaded_by(statement, names):
    """The modules among ``names`` that a fresh interpreter has loaded
    after running ``statement``."""
    return last_line_printed(
        f"import sys\n{statement}\nprint(sorted(set({names!r}) & set(sys.modules)))"
    )


def command(*argv):
    """A statement that runs ``python -m primeavoid *argv`` and requires
    exit code 0."""
    return (
        f"import runpy\nsys.argv = ['primeavoid', *{list(argv)!r}]\ntry:\n"
        "    runpy.run_module('primeavoid', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n    assert exc.code == 0, exc.code"
    )


CONSTRUCTION_MODULES = ("primeavoid.squarefree", "primeavoid.kpower")
POOL_MODULES = ("multiprocessing", "concurrent.futures")
UNUSED_BY_VERIFY = (
    *CONSTRUCTION_MODULES, "primeavoid.sievebound", "primeavoid.schedule", "dataclasses"
)


@pytest.mark.parametrize("fixture", ["sf_x400.json", "kp2_x600_full.json"])
def test_verify_command_loads_no_construction_code(fixture):
    # the verifier reads a document with numtheory and kernels alone
    verify = command("verify", str(FIXTURES / fixture))
    assert modules_loaded_by(verify, UNUSED_BY_VERIFY) == "[]"


@pytest.mark.parametrize(
    "mode, other",
    [(("--mode", "kpower", "--k", "3", "--x", "1000"), "primeavoid.squarefree"),
     (("--mode", "squarefree", "--x", "400"), "primeavoid.kpower")],
    ids=["kpower", "squarefree"],
)
def test_construct_command_loads_only_its_mode(tmp_path, mode, other):
    run = command("construct", *mode, "--out", str(tmp_path / "cert.json"))
    unused = (other, "primeavoid.sievebound", "dataclasses")
    assert modules_loaded_by(run, unused) == "[]"


def test_package_import_loads_no_submodule():
    package = Path(cli.__file__).parent
    submodules = tuple(f"primeavoid.{path.stem}" for path in package.glob("*.py"))
    assert modules_loaded_by("import primeavoid", submodules) == "[]"


def test_document_module_imports_no_construction_code():
    # the verifier's trust base is numtheory; construction stays out of it
    assert modules_loaded_by("import primeavoid.document", CONSTRUCTION_MODULES) == "[]"


def test_package_import_loads_no_process_pool():
    # the survivor pool's modules load only when a search starts a pool,
    # so importing the package and the CLI stays as cheap as before
    assert modules_loaded_by("import primeavoid, primeavoid.cli", POOL_MODULES) == "[]"


def test_document_module_loads_no_process_pool():
    # the verifier's trial-scan pool loads its modules only when a scan
    # starts one, so loading the verifier costs no more than before
    loaded = modules_loaded_by(
        "import primeavoid.document", CONSTRUCTION_MODULES + POOL_MODULES
    )
    assert loaded == "[]"


def test_document_round_trip(micro_doc_text):
    doc = doc_mod.parse_document(micro_doc_text)
    assert doc_mod.document_to_json(doc) == micro_doc_text
    reparsed = doc_mod.parse_document(doc_mod.document_to_json(doc))
    assert reparsed == doc


def test_document_numbers_beyond_4300_digits():
    # CPython refuses int<->str conversions past 4300 digits by default;
    # large-x certificates need both directions
    cert = construct_certificate(
        make_schedule(40, 1, "explicit", z=6.3246, y=10)
    )
    big = cert._replace(
        modulus=cert.modulus * 10**4400, m=cert.m + cert.modulus * 10**4400
    )
    doc = doc_mod.certificate_to_document(big)
    assert doc["modulus"] == str(cert.modulus) + "0" * 4400
    assert len(doc["m"]) > 4400
    parsed = doc_mod.parse_document(doc_mod.document_to_json(doc))
    assert parsed["m"] == doc["m"] and parsed["modulus"] == doc["modulus"]


# -- bench-sieve ---------------------------------------------------------------------


@pytest.mark.parametrize("x", ["16", "20"])
def test_bench_sieve_takes_z_where_the_window_rule_has_no_y(capsys, x):
    # the practical y is below 3 here, but bench-sieve reads only x and z
    code, out, err = run_cli(capsys, "bench-sieve", "--x", x, "--range-size", "1000")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["z"] == math.sqrt(float(x)) and report["violations"] == 0


def test_bench_sieve_default_grid(capsys):
    code, out, _ = run_cli(
        capsys, "bench-sieve", "--x", "1000", "--range-size", "10000"
    )
    assert code == 0
    report = json.loads(out)
    rows = [r for r in report["rows"] if "bound" in r]
    assert len(rows) >= 6
    assert all(r["ratio"] >= 1 for r in rows)
    assert report["violations"] == 0


def test_bench_sieve_empty_family(capsys):
    # no sifting rules: the bound is at least X itself, count == X
    code, out, _ = run_cli(
        capsys,
        "bench-sieve", "--x", "1000", "--range-size", "10000", "--family", "none",
    )
    assert code == 0
    report = json.loads(out)
    for row in report["rows"]:
        if "bound" in row:
            assert row["empirical"] == 10000
            assert row["ratio"] >= 1


def test_bench_sieve_skips_inadmissible_lambda(capsys):
    code, out, _ = run_cli(
        capsys,
        "bench-sieve", "--x", "1000", "--range-size", "10000", "--lam", "0.5,0.2",
    )
    assert code == 0
    report = json.loads(out)
    skipped = [r for r in report["rows"] if "skipped" in r]
    assert len(skipped) == 2  # lam=0.5 for both b values


# bench-sieve's exact report on four grids, by sha256: a change in the
# bound's arithmetic, in the order of its checks or in a message shows
# here.  The third grid skips rows for b = 0, for an inadmissible lambda
# and for the weighted-sum hypothesis
PINNED_SIEVE_REPORTS = [
    ("--x 1000 --range-size 100000",
     "fed717e9d5a45696d05561e945ccc900eb9074f6d5eec8b7f2797f3d4372f8cf"),
    ("--x 5000 --k 2 --range-size 50000 --lam 0.1,0.5,0.2 --b 1,3",
     "cd94bc76cf01857a7b682620eb3e40d923087f2e079bda39540e35ff152d0bca"),
    ("--x 2000 --k 3 --range-size 20000 --lam 0.5,0.1 --b 0,2 --kappa 0.5 --a2 2",
     "e6ceb24ab5bbb228f95f2c0f84a107c28077d2bd4d081d7db70f9fc1f3a5c089"),
    ("--x 16 --range-size 1000 --family none",
     "415124f522416a7e3b7d22ce97b84cf464831fdeb124b43232261cf606c2c9ed"),
]


@pytest.mark.parametrize(
    "argv, digest", PINNED_SIEVE_REPORTS,
    ids=["default grid", "k2 two b", "skipped rows", "no family"],
)
def test_bench_sieve_report_bytes_are_pinned(capsys, argv, digest):
    code, out, err = run_cli(capsys, "bench-sieve", *argv.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--x", "5"), "x must be >= 16"),
        (("--x", "15"), "x must be >= 16"),
        (("--range-size", "20000000"), "range_size must be in [0, 10000000]"),
        (("--lam", "abc"), "cannot parse --lam 'abc'"),
        (("--b", "1.5"), "cannot parse --b '1.5'"),
        (("--kappa", "-1"), "--kappa must be > 0"),
        (("--a2", "0"), "--a2 >= 1"),
    ],
    ids=[
        "x below 16", "x 15", "range above the limit", "lam not a number",
        "b not an int", "kappa not positive", "a2 below one",
    ],
)
def test_bench_sieve_argument_fault_exits_64(capsys, argv, message):
    code, out, err = run_cli(capsys, "bench-sieve", *argv)
    assert code == cli.EXIT_USAGE == 64
    assert out == "" and err.startswith("error: ") and message in err


# -- verifier closure over kpower ------------------------------------------------------


@pytest.fixture(scope="module")
def k1_doc_path(tmp_path_factory):
    cert = construct_certificate_k(make_schedule(200, 1, "practical"))
    path = tmp_path_factory.mktemp("certs") / "k1.json"
    path.write_text(doc_mod.document_to_json(doc_mod.certificate_to_document(cert)))
    return path


@pytest.mark.parametrize(
    "k,x,detail",
    [(1, 100, "m is proven prime"), (3, 3000, "m is a BPSW probable prime")],
    ids=["proven", "bpsw"],
)
def test_verify_prime_base_names_its_tier(tmp_path, capsys, k, x, detail):
    # k=1, x=100 gives a 17-bit m; k=3, x=3000 a 99-bit m, above
    # MR_DETERMINISTIC_BOUND (about 3.3*10^24, 82 bits)
    path = tmp_path / "k.json"
    code, _, _ = run_cli(
        capsys, "construct", "--mode", "kpower", "--k", str(k), "--x", str(x),
        "--out", str(path),
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0
    assert detail in out


def test_verify_kpower_closure_and_tamper(tmp_path, capsys, k1_doc_path):
    code, out, _ = run_cli(capsys, "verify", str(k1_doc_path))
    assert code == 0
    doc = json.loads(k1_doc_path.read_text())
    doc["cover"][2]["witness_prime"] = "101"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", str(bad))
    assert code == 1
