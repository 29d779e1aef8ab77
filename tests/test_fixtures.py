"""Golden certificates: each committed document is rebuilt byte for byte
from its construct arguments, and verifies; the format-1.0 documents that
came before them (tests/fixtures/v1.0/) still verify."""

from pathlib import Path

import pytest

from primeavoid import cli

FIXTURES = Path(__file__).parent / "fixtures"
LEGACY = FIXTURES / "v1.0"

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


@pytest.mark.parametrize("name", sorted(CASES))
def test_fixture_rebuilds_byte_identical(name, tmp_path, capsys):
    out = tmp_path / name
    assert cli.main(["construct", *CASES[name], "--out", str(out)]) == 0
    assert out.read_bytes() == (FIXTURES / name).read_bytes()
    assert cli.main(["verify", str(FIXTURES / name)]) == 0
    assert "certificate OK" in capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(CASES))
def test_format_1_0_fixture_still_verifies(name, capsys):
    assert cli.main(["verify", str(LEGACY / name)]) == 0
    assert "certificate OK" in capsys.readouterr().out
