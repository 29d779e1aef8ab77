"""Golden certificates: each committed document is rebuilt byte for byte
from its construct arguments, verifies, and passes the benchmark's own
output check (e2ebench/check.py, which never imports primeavoid); the
format-1.0 to 1.3 documents that came before them (tests/fixtures/v1.0/,
v1.1/, v1.2/, v1.3/) still verify.  A kpower k=2, x=3*10^4 certificate
and a squarefree x=3*10^4 one make the same CLI round trip without a
golden copy."""

import importlib.util
import json
from pathlib import Path

import pytest

from primeavoid import cli
from primeavoid.document import unlimited_int_digits

FIXTURES = Path(__file__).parent / "fixtures"
BENCH_CHECK = Path(__file__).parents[1] / "e2ebench" / "check.py"

CASES = {
    "sf_x40_explicit.json": (
        "--mode", "squarefree", "--x", "40",
        "--profile", "explicit", "--z", "6.3246", "--y", "10",
    ),
    "sf_x400.json": ("--mode", "squarefree", "--x", "400"),
    "kp1_x200.json": ("--mode", "kpower", "--k", "1", "--x", "200"),
    "kp3_x1000.json": ("--mode", "kpower", "--k", "3", "--x", "1000"),
    "kp2_x600_full.json": (
        "--mode", "kpower", "--k", "2", "--x", "600", "--reduced-modulus", "off",
    ),
    "kp5_x2000.json": ("--mode", "kpower", "--k", "5", "--x", "2000"),
}

each_case = pytest.mark.parametrize("name", sorted(CASES))


def assert_verifies(path, capsys):
    assert cli.main(["verify", str(path)]) == 0
    assert "certificate OK" in capsys.readouterr().out


@each_case
def test_fixture_rebuilds_byte_identical(name, tmp_path, capsys):
    out = tmp_path / name
    assert cli.main(["construct", *CASES[name], "--out", str(out)]) == 0
    assert out.read_bytes() == (FIXTURES / name).read_bytes()
    assert_verifies(FIXTURES / name, capsys)


def bench_check(text):
    spec = importlib.util.spec_from_file_location("e2ebench_check", BENCH_CHECK)
    check = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check)
    with unlimited_int_digits():  # an x=3*10^4 squarefree m has 5.3k digits
        return check.check_certificate(text)


@each_case
def test_fixture_passes_the_benchmark_check(name):
    assert bench_check((FIXTURES / name).read_text()) == []


@each_case
def test_format_1_0_fixture_still_verifies(name, capsys):
    assert_verifies(FIXTURES / "v1.0" / name, capsys)


@each_case
def test_format_1_1_fixture_still_verifies(name, capsys):
    assert_verifies(FIXTURES / "v1.1" / name, capsys)


@each_case
def test_format_1_2_fixture_still_verifies(name, capsys):
    assert_verifies(FIXTURES / "v1.2" / name, capsys)


@each_case
def test_format_1_3_fixture_still_verifies(name, capsys):
    assert_verifies(FIXTURES / "v1.3" / name, capsys)


def assert_differ_only_in_version(name, new_dir, old_dir, versions):
    new, old = (json.loads((d / name).read_text()) for d in (new_dir, old_dir))
    assert (new.pop("format_version"), old.pop("format_version")) == versions
    assert new == old


@pytest.mark.parametrize("name", [n for n in sorted(CASES) if n.startswith("sf")])
def test_squarefree_fixture_differs_from_1_2_only_in_version(name):
    # format 1.3 changed kpower matching only
    assert_differ_only_in_version(
        name, FIXTURES / "v1.3", FIXTURES / "v1.2", ("1.3", "1.2")
    )


@pytest.mark.parametrize("name", [n for n in sorted(CASES) if n.startswith("kp")])
def test_kpower_fixture_differs_from_1_3_only_in_version(name):
    # format 1.4 changed squarefree residues and assignments only
    assert_differ_only_in_version(
        name, FIXTURES, FIXTURES / "v1.3", ("1.4", "1.3")
    )


def assert_round_trip(tmp_path, capsys, *args):
    # construct, verify and the benchmark check
    out = tmp_path / "cert.json"
    assert cli.main(["construct", *args, "--out", str(out)]) == 0
    assert_verifies(out, capsys)
    assert bench_check(out.read_text()) == []


def test_kpower_x30000_round_trip(tmp_path, capsys):
    assert_round_trip(tmp_path, capsys, "--mode", "kpower", "--k", "2", "--x", "30000")


def test_squarefree_x30000_round_trip(tmp_path, capsys):
    assert_round_trip(tmp_path, capsys, "--mode", "squarefree", "--x", "30000")
