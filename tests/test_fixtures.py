"""Golden certificates: each committed document is rebuilt byte for byte
from its construct arguments, verifies, and passes the benchmark's own
output check (e2ebench/check.py, which never imports primeavoid); the
documents of every earlier format (tests/fixtures/v1.0/ to v1.9/) still
verify, and every committed document re-renders to the compact canonical
form of its own content.  A kpower k=2, x=3*10^4 certificate
and a squarefree x=3*10^4 one make the same CLI round trip without a
golden copy, and each run of benchmarks/digests.py's grid, which holds
the benchmark's seed-0 instances, keeps its document's sha256."""

import hashlib
import importlib.util
import json
import re
from pathlib import Path

import pytest

from primeavoid import cli
from primeavoid.document import (
    UNCHECKED,
    document_to_json,
    parse_document,
    unlimited_int_digits,
)

FIXTURES = Path(__file__).parent / "fixtures"
BENCH_CHECK = Path(__file__).parents[1] / "e2ebench" / "check.py"
DIGESTS_SCRIPT = Path(__file__).parents[1] / "benchmarks" / "digests.py"

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


def old_format_still_verifies(version):
    @each_case
    def test(name, capsys):
        assert_verifies(FIXTURES / version / name, capsys)

    return test


# one test over every earlier format's directory, named by the format, so
# that a new directory gets its test without a new function
for _dir in sorted(FIXTURES.glob("v*")):
    _name = f"test_format_{_dir.name[1:].replace('.', '_')}_fixture_still_verifies"
    globals()[_name] = old_format_still_verifies(_dir.name)


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
        name, FIXTURES / "v1.4", FIXTURES / "v1.3", ("1.4", "1.3")
    )


@each_case
def test_fixture_differs_from_1_4_only_in_schedule_keys(name):
    # format 1.5 dropped the schedule's c1, c2, delta and degenerate keys
    # and renamed c2_autoshrink to autoshrink
    new, old = (
        json.loads((d / name).read_text())
        for d in (FIXTURES / "v1.5", FIXTURES / "v1.4")
    )
    schedule = old["schedule"]
    for key in ("c1", "c2", "delta", "degenerate"):
        del schedule[key]
    schedule["autoshrink"] = schedule.pop("c2_autoshrink")
    assert (new.pop("format_version"), old.pop("format_version")) == ("1.5", "1.4")
    assert new == old


@pytest.mark.parametrize("name", [n for n in sorted(CASES) if n.startswith("sf")])
def test_squarefree_fixture_differs_from_1_5_only_in_version(name):
    # format 1.6 changed kpower classes only
    assert_differ_only_in_version(
        name, FIXTURES / "v1.6", FIXTURES / "v1.5", ("1.6", "1.5")
    )


@pytest.mark.parametrize("name", [n for n in sorted(CASES) if n.startswith("kp")])
def test_kpower_fixture_keeps_the_1_5_window(name):
    # the greedy classes change the congruences, never y or its trace
    new, old = (
        json.loads((d / name).read_text())
        for d in (FIXTURES / "v1.6", FIXTURES / "v1.5")
    )
    assert new["schedule"] == old["schedule"]
    assert new["metrics"]["autoshrink_trace"] == old["metrics"]["autoshrink_trace"]
    assert len(new["exceptions"]) <= len(old["exceptions"])
    assert int(new["modulus"]) <= int(old["modulus"])


@each_case
def test_fixture_differs_from_1_6_only_in_version(name):
    # format 1.7 changed the squarefree m where N/B has 94 to 1400 bits,
    # which no fixture reaches
    assert_differ_only_in_version(
        name, FIXTURES / "v1.7", FIXTURES / "v1.6", ("1.7", "1.6")
    )


@each_case
def test_fixture_differs_from_1_7_only_in_version(name):
    # format 1.8 gave the kpower band primes q <= y greedy classes, which
    # no fixture reaches: kp1 and kp2 leave no U7 offset, and the bands of
    # kp3 and kp5 start above y
    assert_differ_only_in_version(
        name, FIXTURES / "v1.8", FIXTURES / "v1.7", ("1.8", "1.7")
    )


@each_case
def test_fixture_differs_from_1_8_only_in_version(name):
    # format 1.9 dropped the whitespace between tokens and nothing else
    assert_differ_only_in_version(
        name, FIXTURES / "v1.9", FIXTURES / "v1.8", ("1.9", "1.8")
    )


@each_case
def test_fixture_differs_from_1_9_only_in_version_and_kpower_u6(name):
    # format 1.10 stopped running kpower's Legendre screen, whose count
    # sets.U6 was all a document held of it; squarefree's U6 stays
    old = json.loads((FIXTURES / "v1.9" / name).read_text())
    if old["mode"] == "kpower":
        del old["sets"]["U6"]
    new = json.loads((FIXTURES / name).read_text())
    assert (new.pop("format_version"), old.pop("format_version")) == ("1.10", "1.9")
    assert new == old


# a JSON string literal, escapes included; what is left outside them must
# hold no whitespace but the one final newline
STRING = re.compile(r'"(?:[^"\\]|\\.)*"')


def assert_compact(text):
    assert text.endswith("}\n")
    assert not re.search(r"\s", STRING.sub("", text[:-1]))


ALL_FIXTURES = sorted(
    path.relative_to(FIXTURES).as_posix() for path in FIXTURES.rglob("*.json")
)


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_every_fixture_re_renders_compact_with_the_same_content(name):
    text = (FIXTURES / name).read_text()
    rendered = document_to_json(parse_document(text))
    assert_compact(rendered)
    assert json.loads(rendered) == json.loads(text)


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


# The document of each run of benchmarks/digests.py's GRID, built
# in-process, with the sha256 of its content: the document less
# format_version, rendered with sorted keys and a two-space indent, as the
# script prints it.  The grid holds the seed-0 instances of the
# benchmark's two workloads (e2ebench/run.py), squarefree x=10^4, kpower
# k=2 x=10^4 and k=5 x=5000, so these pin the content up to benchmark
# scale, where the fixtures stop at x=2000.  The version is asserted on
# its own, and the content form is not the canonical rendering, so a
# format bump that leaves a document's content alone, as 1.9's compact
# rendering did, keeps its digest, and one that changes the content shows
# as a changed digest.
BENCHMARK_FORMAT = "1.10"
BENCHMARK_DIGESTS = dict(line.rsplit(None, 1) for line in """
squarefree x=40 explicit         9fa3697fbf898716a0d17b107e59d145cc577f0226cc68d8723e682cc0b3dce3
squarefree x=150                 7491a9d7157113992d39a35a2dcfc5b09951a0d201ab2270dca657c9bf367b2e
squarefree x=400                 c29b0fb70a6296b3bf8033768f6e00292d338b490457ce71b2ae0ffa7902d00e
squarefree x=1000                c14f0ef7524793376ab761d51d453c1ec29c6d9a920ff586107fd3a889b9a57e
squarefree x=3000                2d1020d40209f1c89a4550e45cf7aa49369ad0d3db08b514d9ddefe303e69916
squarefree x=10000               05286ee0bc334f7588257c69a57a0e053f7080f8df23043f59f0ed96feeec91d
squarefree x=20000               a8d08acea3ed21ec9b44b02fd72fec0a11bb21d994cc7f73655819f6dce029a6
kpower k=1 x=200                 dca99418aabdbb5661a2b22b5e95f4f35d85636106dcde9709ab29ba5a9d919d
kpower k=3 x=1000                ccfe31cb420ef3138136bbeb6f05f49c4b6a400d82d3cef78093f49cee57703f
kpower k=5 x=2000                0cd36f2afc704bf6dc481f14dd910115d474feccf733bb4878f4604ef545a240
kpower k=2 x=600 full modulus    2bd07e52e8a7a3ee6d0ad1865580c09aae6ca15610a332213ce50760856c2588
kpower k=2 x=10000               3feeb2a7695a472f17273354f8e0e975408477ca6d44228f2c4d97a5776f4043
kpower k=5 x=5000                6e24ad611af8a8997d6f1e41def58f3d644803f089b111e10948dd5e06d6d39a
kpower k=3 x=30000               ea7e484144c4633a645c3a303fc30727791047ecf2463fadc59c0a2f1d225dda
""".strip().splitlines())


def digest_grid():
    spec = importlib.util.spec_from_file_location("digests", DIGESTS_SCRIPT)
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    return digests.GRID


def grid_id(run):
    """mode-k-x, and the profile or modulus where not the default."""
    _, argv = run
    options = dict(zip(argv[::2], argv[1::2]))
    suffix = {"--profile": "-explicit", "--reduced-modulus": "-full"}
    return (f"{options['--mode']}-{options.get('--k', '1')}-{options['--x']}"
            + "".join(suffix[key] for key in suffix if key in options))


@pytest.mark.parametrize("run", digest_grid(), ids=grid_id)
def test_benchmark_instance_document_digest(run, capsys):
    label, argv = run
    assert cli.main(["construct", *argv]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc.pop("format_version") == BENCHMARK_FORMAT
    content = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    digest = hashlib.sha256(content.encode()).hexdigest()
    assert digest == BENCHMARK_DIGESTS[label]


# -- the tamper matrix -------------------------------------------------------------


def tampered(value):
    """One mutation of a scalar leaf: an int or a digit string plus one, a
    float times 1 + 10^-6, a bool negated, null as 0 and any other string
    with an "x" appended."""
    if type(value) is bool:
        return not value
    if type(value) is int:
        return value + 1
    if type(value) is float:
        return value * (1 + 1e-6)
    if value is None:
        return 0
    if value.isascii() and value.isdigit():
        return str(int(value) + 1)
    return value + "x"


def leaf_paths(node, path=()):
    """The path of every scalar leaf under ``node``; of a list only the
    first and the last entry are walked."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaf_paths(value, (*path, key))
    elif isinstance(node, list):
        for index in sorted({0, len(node) - 1} if node else set()):
            yield from leaf_paths(node[index], (*path, index))
    else:
        yield path


def is_unchecked(path):
    """Whether document.UNCHECKED holds the path or a path above it."""
    keys = ".".join(str(key) for key in path)
    return any(keys == name or keys.startswith(name + ".") for name in UNCHECKED)


def still_a_witness(doc, path):
    """Whether ``path`` is a witness prime that, tampered, is still a
    congruence modulus dividing its element m^k + u + shift: the document
    then remains a true certificate (2 + 1 = 3 often is one)."""
    if path[0] != "cover" or path[-1] != "witness_prime":
        return False
    entry = doc["cover"][path[1]]
    q, k = int(entry["witness_prime"]), doc["schedule"]["k"]
    shift = -1 if doc["mode"] == "kpower" else 0
    moduli = {int(modulus) for _, modulus in doc["congruences"]}
    return q in moduli and (pow(int(doc["m"]), k, q) + entry["u"] + shift) % q == 0


@each_case
def test_every_checked_leaf_refutes_a_tampered_fixture(name, tmp_path, capsys):
    # each mutation outside UNCHECKED fails verify, unless it leaves a true
    # certificate, and each under it passes; so the tuple holds exactly
    # what the verifier leaves unread
    with unlimited_int_digits():
        fixture = json.loads((FIXTURES / name).read_text())
        path = tmp_path / name
        wrong = []
        for leaf in leaf_paths(fixture):
            doc = json.loads(json.dumps(fixture))
            *parents, last = leaf
            parent = doc
            for key in parents:
                parent = parent[key]
            parent[last] = tampered(parent[last])
            path.write_text(json.dumps(doc))
            code = cli.main(["verify", str(path)])
            capsys.readouterr()
            true = is_unchecked(leaf) or still_a_witness(doc, leaf)
            if (code == 0) != true or code not in (0, 1, 65):
                wrong.append((leaf, code))
    assert wrong == []
