"""Golden certificates: each committed document is rebuilt byte for byte
from its construct arguments, verifies, and passes the benchmark's own
output check (e2ebench/check.py, which never imports primeavoid); the
documents of every earlier format (tests/fixtures/v1.0/ to v1.11/) still
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
    new = json.loads((FIXTURES / "v1.10" / name).read_text())
    assert (new.pop("format_version"), old.pop("format_version")) == ("1.10", "1.9")
    assert new == old


@each_case
def test_fixture_differs_from_1_10_only_in_version_and_repeated_keys(name):
    # format 1.11 dropped the keys that record a switch or repeat other
    # content: the schedule's profile (z and y are recorded) and
    # autoshrink (y always halves to capacity), and kpower's
    # unmatched_offsets (the exceptions) and reduced_modulus (false
    # exactly when the congruences hold every prime <= x)
    old = json.loads((FIXTURES / "v1.10" / name).read_text())
    del old["schedule"]["profile"], old["schedule"]["autoshrink"]
    if old["mode"] == "kpower":
        assert old["metrics"].pop("unmatched_offsets") == [
            entry["u"] for entry in old["exceptions"]
        ]
        del old["reduced_modulus"]
    new = json.loads((FIXTURES / "v1.11" / name).read_text())
    assert (new.pop("format_version"), old.pop("format_version")) == ("1.11", "1.10")
    assert new == old


@each_case
def test_fixture_differs_from_1_11_only_in_version_and_sets(name):
    # format 1.12 dropped ``sets``, the set cardinalities that no verifier
    # read; the construction still builds every set
    old = json.loads((FIXTURES / "v1.11" / name).read_text())
    del old["sets"]
    new = json.loads((FIXTURES / name).read_text())
    assert (new.pop("format_version"), old.pop("format_version")) == ("1.12", "1.11")
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
BENCHMARK_FORMAT = "1.12"
BENCHMARK_DIGESTS = dict(line.rsplit(None, 1) for line in """
squarefree x=40 explicit         43ff1b7fb292b3c267a8132d1ff4f1f96d46874d90e720057946fe6982ff257c
squarefree x=150                 1b91038d03712a7c10fee6bd74f7b9a076b8edfe09290682139c44b7f26d187d
squarefree x=400                 ce1793d23f6c652a77ec504b1684ad1ab9e1eae5466b05bc9c4d4406be282021
squarefree x=1000                be90ac1003037dba788f1bb95926633f363e7830206c1a2099476cf55e3bba62
squarefree x=3000                0a149b59c332dedd44729ea155f5d5fc76417279a93ecc77dc5a3ce349226b59
squarefree x=10000               24d8ddc3785504cdb04f608b19a721b26e3d39fb80cf0ec6142f01ee6c85e806
squarefree x=20000               8a95565a71a70cdfc825d9988076a7b23b625659346f88b2cc0edc57feb19560
kpower k=1 x=200                 63fca7a4d5858894e2828169dd77acd95e857bfef34691dd4be0fb4d9b79a2ff
kpower k=3 x=1000                d525e43544aa197ad860d5d441dc6ba513c772633f2526d124877ffe712c0f91
kpower k=5 x=2000                df64bb0ad43dcb9f90d352951ac9e1be7a2def3833f573058eebd79a0ebd9d0d
kpower k=2 x=600 full modulus    1dfa1fc904fb6d7141f69329ad1c6dcdb26b136b551062d6ad91f407ed5d43d0
kpower k=2 x=10000               f6086ad006f4b5e419a647c1449ce07ff7f55a1cbb55764b153098f12b50468e
kpower k=5 x=5000                a20bc0f6e1d07f44e25de9272de4784ea0eabbb7100ec33bc8f21f6f47eb8dea
kpower k=3 x=30000               cdeab430bc36c06351b8dcdde07fc0bd5c2c378515a52e5363948f1c9a78785b
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


# a modulus or a witness prime is also set to "0", which no residue can
# be taken modulo
ZEROED = re.compile(r"congruences\.\d+\.1|cover\.\d+\.witness_prime")

# one well-formed entry for each list that is empty in some fixture, by
# path: an exception at a covered offset
INSERTED = {
    "exceptions": lambda doc: {"u": doc["cover"][0]["u"], "status": "composite"},
}


def leaf_paths(node, path=()):
    """The path of every scalar leaf and every empty list under ``node``;
    of a list only the first and the last entry are walked."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaf_paths(value, (*path, key))
    elif isinstance(node, list):
        for index in sorted({0, len(node) - 1} if node else set()):
            yield from leaf_paths(node[index], (*path, index))
        if not node:
            yield path
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
def mutations(fixture, leaf):
    """Each tampered copy of ``fixture`` at ``leaf`` with the exit codes
    that refute it.  An empty list gets one entry, which a checked list
    must refute (exit 1); a scalar is tampered (exit 1 or 65), and a
    modulus or a witness prime is also set to "0"."""
    keys = ".".join(map(str, leaf))
    changes = [tampered, lambda value: "0"] if ZEROED.fullmatch(keys) else [tampered]
    for change in changes:
        doc = json.loads(json.dumps(fixture))
        *parents, last = leaf
        parent = doc
        for key in parents:
            parent = parent[key]
        if parent[last] == []:
            parent[last].append(INSERTED[keys](doc))
            yield doc, (1,)
        else:
            parent[last] = change(parent[last])
            yield doc, (1, 65)


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
            for doc, refuted in mutations(fixture, leaf):
                path.write_text(json.dumps(doc))
                code = cli.main(["verify", str(path)])
                capsys.readouterr()
                true = is_unchecked(leaf) or still_a_witness(doc, leaf)
                if (code == 0) != true or code not in (0, *refuted):
                    wrong.append((leaf, code))
    assert wrong == []
