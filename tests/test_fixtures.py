"""Golden certificates: each committed document is rebuilt byte for byte
from its construct arguments, verifies, and passes the benchmark's own
output check (e2ebench/check.py, which never imports primeavoid); the
format-1.0 and format-1.1 documents that came before them
(tests/fixtures/v1.0/, tests/fixtures/v1.1/) still verify."""

import importlib.util
from pathlib import Path

import pytest

from primeavoid import cli

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


@each_case
def test_fixture_passes_the_benchmark_check(name):
    spec = importlib.util.spec_from_file_location("e2ebench_check", BENCH_CHECK)
    check = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check)
    assert check.check_certificate((FIXTURES / name).read_text()) == []


@each_case
def test_format_1_0_fixture_still_verifies(name, capsys):
    assert_verifies(FIXTURES / "v1.0" / name, capsys)


@each_case
def test_format_1_1_fixture_still_verifies(name, capsys):
    assert_verifies(FIXTURES / "v1.1" / name, capsys)
