import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from primeavoid import cli, kpower, numtheory, squarefree
from primeavoid import document as doc_mod
from primeavoid.kpower import construct_certificate_k
from primeavoid.schedule import make_schedule
from primeavoid.squarefree import construct_certificate


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
    assert doc["sets"] == {"P1": 3, "P2": 1, "P3": 8, "U1": 17, "U2": 4, "U6": 2}
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


def test_construct_kpower_too_small_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "construct", "--mode", "kpower", "--x", "40", "--k", "2",
        "--profile", "practical",
    )
    assert code == 2
    assert "capacity" in err


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


def test_construct_literal_profile_degenerate_exits_64(capsys):
    code, _, err = run_cli(
        capsys, "construct", "--mode", "squarefree", "--x", "1000000",
        "--profile", "literal",
    )
    assert code == 64
    assert "degenerate" in err


def test_construct_internal_error_exits_70(capsys, monkeypatch):
    def broken_cover(*args):
        raise RuntimeError("offset 5 lacks a valid witness (got p=0)")

    monkeypatch.setattr(squarefree, "verify_window", broken_cover)
    code, out, err = run_cli(capsys, "construct", "--mode", "squarefree", "--x", "60")
    assert code == cli.EXIT_INTERNAL == 70
    assert out == ""
    assert err == "internal error: offset 5 lacks a valid witness (got p=0)\n"


def _zero_root(match_offsets):
    def spoiled(sets):
        matching = match_offsets(sets)
        u, (p, _) = next(iter(matching.matched.items()))
        return replace(matching, matched={**matching.matched, u: (p, 0)})

    return spoiled


def _band_one_prime_matched(match_offsets):
    def spoiled(sets):
        matching = match_offsets(sets)
        u = next(iter(matching.matched))
        return replace(matching, matched={**matching.matched, u: (sets.p1[-1], 1)})

    return spoiled


def _first_congruence_twice(covering_congruences):
    return lambda sets, phi: (
        covering_congruences(sets, phi) + covering_congruences(sets, phi)[:1]
    )


# kpower k=1, x=200 matches no offset, so the kpower faults spoil k=3,
# x=1000, which matches 13
@pytest.mark.parametrize(
    "argv, module, name, spoil, message",
    [
        (("--mode", "kpower", "--k", "3", "--x", "1000"), kpower, "match_offsets",
         _zero_root, "zero root"),
        (("--mode", "kpower", "--k", "3", "--x", "1000"), kpower, "match_offsets",
         _band_one_prime_matched, "duplicate modulus"),
        (("--mode", "squarefree", "--x", "200"), squarefree, "covering_congruences",
         _first_congruence_twice, "duplicate modulus"),
    ],
    ids=["kpower zero root", "kpower duplicate modulus", "squarefree duplicate modulus"],
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
        ("--mode", "squarefree", "--x", "1000000", "--profile", "literal"),
        ("--mode", "squarefree", "--x", "40", "--profile", "explicit",
         "--z", "30", "--y", "10"),
        ("--mode", "kpower", "--x", "200000000"),
    ],
    ids=["degenerate schedule", "z above x/4", "x above the sieve limit"],
)
def test_construct_argument_fault_exits_64(capsys, argv):
    code, out, err = run_cli(capsys, "construct", *argv)
    assert code == cli.EXIT_USAGE == 64
    assert out == "" and err.startswith("error: ")


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
        make_schedule(40, 1, "explicit", z=6.3246, y=10), seed=0
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


def test_verify_progression_shift(tmp_path, capsys, micro_doc_text):
    # m -> m + t*N stays in the progression and keeps every witness
    # divisor; the verdict then hinges on the squarefree recheck alone
    from primeavoid.squarefree import classify_squarefree

    doc = json.loads(micro_doc_text)
    m, n = int(doc["m"]), int(doc["modulus"])
    shifted_ok = next(
        t for t in range(1, 50) if classify_squarefree(m + t * n) == "proven"
    )
    shifted_bad = next(
        t for t in range(1, 50) if classify_squarefree(m + t * n) == "not_squarefree"
    )
    for t, expected in ((shifted_ok, 0), (shifted_bad, 1)):
        doc["m"] = str(m + t * n)
        path = tmp_path / f"shifted{t}.json"
        path.write_text(json.dumps(doc))
        code, _, _ = run_cli(capsys, "verify", str(path))
        assert code == expected


@pytest.fixture(scope="module")
def partial_doc_text():
    # x=1160 leaves an opaque 91-bit cofactor, so m's recorded tier is
    # "partial"
    cert = construct_certificate(make_schedule(1160, 1, "practical"), seed=0)
    assert cert.squarefree_status == "partial"
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


class CofactorPrimalityTested(Exception):
    pass


def test_partial_claim_skips_cofactor_primality(monkeypatch, partial_doc_text):
    def refuse(*args):
        raise CofactorPrimalityTested

    # every other number the verifier tests is below 2**64
    monkeypatch.setattr(numtheory, "_bpsw", refuse)
    monkeypatch.setattr(numtheory, "_strong_probable_prime", refuse)
    report = doc_mod.verify_document(doc_mod.parse_document(partial_doc_text))
    assert report.ok and not report.notes
    for claimed in ("prp", "proven"):
        doc = json.loads(partial_doc_text)
        doc["metrics"]["squarefree_status"] = claimed
        with pytest.raises(CofactorPrimalityTested):
            doc_mod.verify_document(doc)


def test_partial_claim_rejects_square_factors(partial_doc_text):
    # m replaced by a square times m's partial-tier cofactor: a repeated
    # small prime or a perfect-power cofactor must still fail the section
    doc = json.loads(partial_doc_text)
    m = int(doc["m"])
    rest = numtheory.trial_cofactor(m)
    assert numtheory.cofactor_tier(rest) == "partial"
    for bad in (9 * m, 7**2 * m, rest**2, 210 * rest**3):
        doc["m"] = str(bad)
        report = doc_mod.verify_document(doc)
        sections = {name: (ok, detail) for name, ok, detail in report.sections}
        assert sections["squarefree"] == (False, "m has a square factor"), bad


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
    ],
    ids=[
        "exception-u-not-int", "exception-u-missing", "k-not-int", "k-negative",
        "metrics-list", "modulus-zero", "status-list", "m-zero", "m-negative",
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


@pytest.mark.parametrize("version", ["9.9", "2.0", "1.5", "1", 1.2, None])
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


def modules_loaded_by(statement, names):
    """The modules among ``names`` that a fresh interpreter has loaded
    after running the import ``statement``."""
    probe = f"import sys; {statement}; print(sorted(set({names!r}) & set(sys.modules)))"
    src = str(Path(doc_mod.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    return out.strip()


CONSTRUCTION_MODULES = ("primeavoid.squarefree", "primeavoid.kpower")
POOL_MODULES = ("multiprocessing", "concurrent.futures")


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
        make_schedule(40, 1, "explicit", z=6.3246, y=10), seed=0
    )
    big = replace(
        cert, modulus=cert.modulus * 10**4400, m=cert.m + cert.modulus * 10**4400
    )
    doc = doc_mod.certificate_to_document(big)
    assert doc["modulus"] == str(cert.modulus) + "0" * 4400
    assert len(doc["m"]) > 4400
    parsed = doc_mod.parse_document(doc_mod.document_to_json(doc))
    assert parsed["m"] == doc["m"] and parsed["modulus"] == doc["modulus"]


# -- bench-sieve ---------------------------------------------------------------------


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--x", "5"), "x must be >= 16"),
        (("--range-size", "20000000"), "range_size must be in [0, 10000000]"),
        (("--lam", "abc"), "cannot parse --lam 'abc'"),
        (("--b", "1.5"), "cannot parse --b '1.5'"),
        (("--kappa", "-1"), "--kappa must be > 0"),
        (("--a2", "0"), "--a2 >= 1"),
    ],
    ids=[
        "x below 16", "range above the limit", "lam not a number", "b not an int",
        "kappa not positive", "a2 below one",
    ],
)
def test_bench_sieve_argument_fault_exits_64(capsys, argv, message):
    code, out, err = run_cli(capsys, "bench-sieve", *argv)
    assert code == cli.EXIT_USAGE == 64
    assert out == "" and err.startswith("error: ") and message in err


# -- matrix-scan ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def k1_doc_path(tmp_path_factory):
    cert = construct_certificate_k(make_schedule(200, 1, "practical"), seed=0)
    path = tmp_path_factory.mktemp("certs") / "k1.json"
    path.write_text(doc_mod.document_to_json(doc_mod.kcertificate_to_document(cert)))
    return path


def test_matrix_scan_zero_rows(capsys, k1_doc_path):
    code, out, _ = run_cli(capsys, "matrix-scan", str(k1_doc_path), "--rows", "0")
    assert code == 0
    report = json.loads(out)
    assert report["prime_rows"] == 0
    assert report["rows_with_window_prime"] == 0


def test_matrix_scan_reports_rows(capsys, k1_doc_path):
    code, out, _ = run_cli(capsys, "matrix-scan", str(k1_doc_path), "--rows", "60")
    assert code == 0
    report = json.loads(out)
    assert report["prime_rows"] >= 1
    assert report["rows_with_window_prime"] == 0  # odd k: no exceptions
    assert len(report["avoiding_rows"]) == report["prime_rows"]


@pytest.mark.parametrize("rows", ["200000", "-3"])
def test_matrix_scan_row_count_out_of_range_exits_64(capsys, k1_doc_path, rows):
    code, out, err = run_cli(capsys, "matrix-scan", str(k1_doc_path), "--rows", rows)
    assert code == cli.EXIT_USAGE == 64
    assert out == ""
    assert err == f"error: row count {rows} is outside [0, 10**5]\n"


def test_matrix_scan_missing_certificate_exits_66(capsys):
    code, _, _ = run_cli(capsys, "matrix-scan", "/no/cert.json", "--rows", "5")
    assert code == 66


def test_matrix_scan_needs_kpower_mode(tmp_path, capsys, micro_doc_text):
    path = tmp_path / "sq.json"
    path.write_text(micro_doc_text)
    code, _, _ = run_cli(capsys, "matrix-scan", str(path), "--rows", "5")
    assert code == 64


# -- verifier closure over kpower ------------------------------------------------------


@pytest.mark.parametrize(
    "k,x,detail",
    [(1, 100, "m is proven prime"), (3, 1000, "m is a BPSW probable prime")],
    ids=["proven", "bpsw"],
)
def test_verify_prime_base_names_its_tier(tmp_path, capsys, k, x, detail):
    # k=1, x=100 gives a 17-bit m; k=3, x=1000 a 122-bit m, above
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
