"""Certificate documents: lossless JSON serialization and re-verification.

All big integers are carried as decimal strings so no consumer can
truncate them.  ``verify_document`` re-checks a document from its own
numbers alone (congruences, progression membership, witness divisions,
primality claims, the derived metrics); it never re-runs the
construction.  Its work goes per distinct prime, not per offset: each
congruence modulus q gets one primality test once the moduli are
distinct and multiply to the modulus, and each witness, which must be
one of those moduli, one residue r_q of m^k (of m in squarefree mode)
mod q; an offset u then costs the small-int checks q | r_q + u + shift
and q - u - shift < m^k (shift 0 squarefree, -1 kpower), so no
element m^k + u + shift is built.  A squarefree m
is checked by one primality test when m = B*C with B the product of the
residue-0 moduli and C a prime not dividing B (what formats from 1.7
on build when N/B has 94 to 1400 bits, as at x=10^4), and by the trial
scan to 10^7 otherwise.  A kpower document whose k * bits(m) exceeds
numtheory.MAX_POWER_BITS is refused before m^k is built.  The metrics
the serializer derives (derived_metrics) are recomputed from the checked
numbers, and a squarefree trial bound may claim no more than the scan.
Every window offset needs a witness but kpower's u = 1, whose element is
m^k: a document that lists an exception is refuted, and ``exceptions``
and ``prime_count_in_window`` stay in the format, empty and 0, until
its next major version.  The primality section (prime_base, or
squarefree) runs only once the congruences, the progression, the
completeness and the witnesses hold; on a document that fails one of
those it is reported "not checked", so a refuted document costs no
primality test on m.
UNCHECKED names the paths the verifier reads nothing of.

This module owns the format, and so the record both modes build,
``Certificate``, and its one serializer.  The serializer names no mode:
each mode passes its own metrics.

The verifier loads no construction module and no ``dataclasses``: the
``verify`` command imports this module, numtheory, kernels and errors,
and nothing else of the package.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from contextlib import contextmanager
from itertools import chain, islice
from typing import TYPE_CHECKING, NamedTuple

from .errors import DocumentError
from .numtheory import (
    MAX_POWER_BITS,
    SQUAREFREE_TRIAL_BOUND,
    Congruence,
    avoidance_constant,
    classify_squarefree,
    is_prime,
    prime_tier,
)

if TYPE_CHECKING:  # the verifier never imports the schedule module
    from .schedule import Schedule

FORMAT_VERSION = "1.12"


@contextmanager
def unlimited_int_digits():
    """Lift CPython's process-wide int<->str digit limit (4300 digits
    since 3.11) for the duration: m and the modulus outgrow it at large x
    (squarefree x = 3*10^4 gives an m of about 13k digits)."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        yield
        return
    previous = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


class Certificate(NamedTuple):
    """The verifiable output of one run of either mode.  The serializer
    reads every field and names no mode: each mode passes its own
    ``metrics``."""

    mode: str
    schedule: Schedule
    modulus: int
    m0: int
    m: int
    congruences: tuple[Congruence, ...]  # the system solved for m0, in order
    cover: dict[int, int]  # offset u -> witness prime dividing m^k + u + shift
    metrics: dict  # the mode's own metrics, after the derived ones
    autoshrink_trace: tuple[int, ...]


def derived_metrics(m: int, modulus: int, power: int, y: int) -> dict:
    """The metrics the serializer derives and the verifier recomputes: log m,
    log modulus, their ratio, the avoidance constant of ``power`` (m^k)
    and y, null when power <= e^(e^e), below the constant's domain, and
    the count of window primes, 0 as every element but m^k has a
    witness."""
    log_m, log_modulus = math.log(m), math.log(modulus)
    try:
        constant = avoidance_constant(power, y)
    except ValueError:
        constant = None
    return {
        "log_m": log_m,
        "log_modulus": log_modulus,
        "exponent_report": log_m / log_modulus if modulus > 1 else None,
        "avoidance_constant": constant,
        "prime_count_in_window": 0,
    }


@unlimited_int_digits()
def certificate_to_document(cert: Certificate, seed: int = 0) -> dict:
    """Serialize a certificate; ``seed`` is recorded only.  Every document
    holds the same top-level keys, read off the certificate as built, an
    empty ``exceptions`` and the metrics derived here, then the mode's
    own metrics."""
    derived = derived_metrics(
        cert.m, cert.modulus, cert.m**cert.schedule.k, cert.schedule.y
    )
    return {
        "format_version": FORMAT_VERSION,
        "mode": cert.mode,
        "seed": seed,
        "schedule": cert.schedule._asdict(),  # a new Schedule field changes the format
        "congruences": [[str(c.residue), str(c.modulus)] for c in cert.congruences],
        "modulus": str(cert.modulus),
        "m0": str(cert.m0),
        "m": str(cert.m),
        "cover": [
            {"u": u, "witness_prime": str(p)} for u, p in sorted(cert.cover.items())
        ],
        "exceptions": [],
        "metrics": {
            **derived,
            "autoshrink_trace": list(cert.autoshrink_trace),
            **cert.metrics,
        },
    }


# e2ebench/traced.py times the serializer under this name as well; the
# alias goes when the per-mode stage names do
kcertificate_to_document = certificate_to_document


def document_to_json(doc: dict) -> str:
    """Canonical rendering: sorted keys, no whitespace between tokens and
    one trailing newline (since format 1.9; 1.8 indented by two spaces
    and held the same content).  Without ``indent``, ``json.dumps`` runs
    CPython's C encoder.  Identical documents give identical bytes;
    ``python -m json.tool`` indents one for reading."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


_REQUIRED_KEYS = (
    "format_version",
    "mode",
    "seed",
    "schedule",
    "congruences",
    "modulus",
    "m0",
    "m",
    "cover",
    "exceptions",
    "metrics",
)


# the paths the verifier reads nothing of: each may change, keys and list
# entries under it too, and the document still verifies
UNCHECKED = (
    "seed",
    "schedule.x",
    "schedule.z",
    "metrics.autoshrink_trace",
)


def _reject_constant(name: str):
    """NaN, Infinity and -Infinity, which Python's json reads but JSON
    (RFC 8259) does not define."""
    raise DocumentError(f"not valid JSON: {name} is not a JSON value")


def _integer(value) -> int:
    """A JSON integer: neither a float nor a boolean."""
    if type(value) is not int:
        raise TypeError(f"{value!r} is not a JSON integer")
    return value


def _big_integer(value) -> int:
    """A big integer, carried as a string of ASCII decimal digits."""
    if not (isinstance(value, str) and value.isascii() and value.isdigit()):
        raise TypeError(f"{value!r} is not a string of decimal digits")
    return int(value)


@unlimited_int_digits()
def parse_document(text: str) -> dict:
    """Parse and structurally validate a certificate document."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:  # arrays or objects nested past the limit
        raise DocumentError("not valid JSON: nested too deeply") from exc
    if not isinstance(doc, dict):
        raise DocumentError("document root must be an object")
    for key in _REQUIRED_KEYS:
        if key not in doc:
            raise DocumentError(f"missing required key {key!r}")
    # 1.0 to 1.7 differ in how witnesses were chosen, residues picked,
    # primes assigned or matched and m searched for, in what ``sets`` and
    # ``metrics`` list, and in the schedule keys besides y and k; verify
    # reads none of that, as it checks each witness by its division and m
    # by its factors.  1.8 differs from 1.9 only in whitespace, 1.9 from
    # 1.10 only in kpower's sets.U6, 1.10 from 1.11 only in the keys 1.11
    # dropped: schedule.profile, schedule.autoshrink and kpower's
    # metrics.unmatched_offsets and reduced_modulus, and 1.11 from 1.12
    # (FORMAT_VERSION) only in ``sets``, which 1.12 dropped
    if doc["format_version"] not in [f"1.{minor}" for minor in range(13)]:
        raise DocumentError(
            f"unsupported format_version {doc['format_version']!r}; "
            f"this verifier reads 1.0 to {FORMAT_VERSION}"
        )
    if doc["mode"] not in ("squarefree", "kpower"):
        raise DocumentError(f"unknown mode {doc['mode']!r}")
    try:
        if _big_integer(doc["modulus"]) < 1:
            raise ValueError("modulus must be positive")
        _big_integer(doc["m0"])
        if (m := _big_integer(doc["m"])) < 1:
            raise ValueError("m must be positive")
        for entry in doc["congruences"]:
            if type(entry) is not list or len(entry) != 2:
                raise TypeError(f"congruence {entry!r} is not a two-element array")
            _big_integer(entry[0]), _big_integer(entry[1])
        for entry in doc["cover"]:
            _integer(entry["u"]), _big_integer(entry["witness_prime"])
        for entry in doc["exceptions"]:
            _integer(entry["u"])
            if not isinstance(entry["status"], str):
                raise TypeError(f"exception status {entry['status']!r} is not a string")
        for key in ("congruences", "cover", "exceptions"):
            if type(doc[key]) is not list:  # an empty object passes the loops above
                raise TypeError(f"{key} is not an array")
        if _integer(doc["schedule"]["y"]) < 0:
            raise ValueError("schedule.y must be at least 0")
        if (k := _integer(doc["schedule"]["k"])) < 1:
            raise ValueError("schedule.k must be at least 1")
        if doc["mode"] == "squarefree" and k != 1:  # as construct refuses
            raise ValueError(f"a squarefree document has k = 1, not {k}")
    except (ValueError, TypeError, KeyError) as exc:
        raise DocumentError(f"malformed field: {exc}") from exc
    # kpower is the mode whose verifier builds m^k
    if doc["mode"] == "kpower" and k * m.bit_length() > MAX_POWER_BITS:
        raise DocumentError(
            f"m^k too large: k * bits(m) = {k} * {m.bit_length()} exceeds "
            f"{MAX_POWER_BITS}"
        )
    metrics = doc["metrics"]
    if not isinstance(metrics, dict):
        raise DocumentError("metrics must be an object")
    if not isinstance(metrics.get("squarefree_status", ""), str):
        raise DocumentError("metrics.squarefree_status must be a string")
    return doc


# squarefree tiers from the weakest claim to the strongest; a document may
# record a weaker tier than the verifier finds, never a stronger one
_TIER_RANK = {"partial": 0, "prp": 1, "proven": 2}
# a recorded metric passes within this relative distance of the value
# recomputed, since the logs come from math.log
METRICS_REL_TOL = 1e-9
# a detail or note shows an integer with more digits by its ends and length
DETAIL_DIGITS = 30


def _short(n: int) -> str:
    """n in decimal, abbreviated above DETAIL_DIGITS digits."""
    text = str(n)
    if len(text) <= DETAIL_DIGITS:
        return text
    return f"{text[:12]}...{text[-12:]} ({len(text.lstrip('-'))} digits)"


def _shorts(numbers) -> str:
    """A list of integers as its repr shows it, each one _short."""
    return "[" + ", ".join(map(_short, numbers)) + "]"


def _agrees(recorded, computed) -> bool:
    """Whether a recorded metric states the value recomputed: null for
    null, the same JSON integer for a count, a number within
    METRICS_REL_TOL for a float."""
    if computed is None or type(computed) is int:
        return type(recorded) is type(computed) and recorded == computed
    if type(recorded) not in (int, float):
        return False
    try:
        return abs(recorded - computed) <= METRICS_REL_TOL * abs(computed)
    except OverflowError:  # an integer beyond every float
        return False


class VerifyReport:
    """The verdict of each checked section, (name, passed, detail), and
    notes that change no verdict."""

    def __init__(self, sections: list[tuple[str, bool, str]], notes: list[str]):
        self.sections = sections
        self.notes = notes

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.sections)

    def render(self) -> str:
        lines = []
        for name, passed, detail in self.sections:
            mark = "PASS" if passed else "FAIL"
            lines.append(f"  [{mark}] {name:<14} {detail}")
        lines.extend(f"  [note] {n}" for n in self.notes)
        return "\n".join(lines)


def _prime_cofactor_tier(m: int, congs) -> str | None:
    """m's tier when m = B*C with B the product of the residue-0 moduli of
    ``congs`` and C a prime that does not divide B: then m is squarefree,
    with C's prime_tier.  None when m has no such shape.  The moduli must
    be distinct primes, which the congruence section has checked before
    any primality section runs; C is the one number tested.

    The proof reads nothing else of the document, so it holds for every
    format.  When C is prime and every prime of B is at most the trial
    bound, the trial scan would find the same tier: it divides B out and
    leaves C, or 1 when C is at most the bound.
    """
    b = math.prod(q for r, q in congs if r == 0)
    if m % b:
        return None
    c = m // b
    if b % c == 0 or not is_prime(c):
        return None
    return prime_tier(c)


def _gaps(inside, y, skip):
    """The offsets of [-y, y] other than ``skip`` that the ascending,
    duplicate-free ``inside`` (all in the window) leaves out, ascending;
    the work follows len(inside) and the gaps drawn, never y."""
    u = -y
    for v in chain(inside, (y + 1,)):
        yield from (g for g in range(u, v) if g != skip)
        u = v + 1


@unlimited_int_digits()
def verify_document(doc: dict) -> VerifyReport:
    """Re-validate every claim a certificate document makes."""
    sections: list[tuple[str, bool, str]] = []
    notes: list[str] = []
    mode = doc["mode"]
    y = int(doc["schedule"]["y"])
    k = int(doc["schedule"]["k"])
    modulus = int(doc["modulus"])
    m0 = int(doc["m0"])
    m = int(doc["m"])
    congs = [(int(r), int(q)) for r, q in doc["congruences"]]

    cover = {int(e["u"]): int(e["witness_prime"]) for e in doc["cover"]}
    moduli = [q for _, q in congs]
    distinct = set(moduli)

    # congruence system: distinct prime moduli, m0 in range, all satisfied;
    # a modulus below 2 is refuted first, as no residue can be taken mod 0
    problems = []
    if (least := min(distinct, default=2)) < 2:
        problems.append(f"modulus {least} is not prime")
    if len(distinct) != len(moduli):
        problems.append("duplicate moduli")
    if math.prod(moduli) != modulus:
        problems.append("modulus is not the product of the congruence moduli")
    # one verdict per distinct modulus, taken only once the cheap checks
    # above hold, so that a modulus breaking them costs no primality test
    prime = {} if problems else {q: is_prime(q) for q in distinct}
    if not 1 <= m0 <= modulus:
        problems.append(f"m0={_short(m0)} outside [1, modulus]")
    for r, q in congs:
        if q < 2 or prime.get(q) is False:
            problems.append(f"modulus {_short(q)} is not prime")
            break
        if m0 % q != r % q:
            problems.append(f"m0 fails residue {_short(r)} mod {_short(q)}")
            break
    if mode == "kpower" and math.gcd(m0, modulus) != 1:
        problems.append("m0 shares a factor with the modulus")
    sections.append(
        ("congruences", not problems, problems[0] if problems else f"{len(congs)} checked")
    )

    # progression membership
    member = (m - m0) % modulus == 0
    detail = "m == m0 (mod modulus)" if member else "m is not in the progression"
    if mode == "squarefree" and m < 2 * y:
        member = False
        detail = f"m={_short(m)} < 2y={_short(2 * y)}"
    sections.append(("progression", member, detail))

    # window cover: completeness, then every witness division; every
    # offset needs a witness, so a listed exception is refuted.  Counted,
    # so that the cost follows the entries, not the y claimed
    skip = 1 if mode == "kpower" else None  # m^k itself is no window element
    extra = sorted(u for u in cover if not -y <= u <= y or u == skip)
    size = 2 * y + 1 - (mode == "kpower" and y >= 1)
    complete = not extra and len(cover) == size
    if doc["exceptions"]:
        u = min(int(e["u"]) for e in doc["exceptions"])
        complete, detail = False, f"document lists exception {_short(u)}"
    elif len(doc["cover"]) > len(cover):  # a dict keeps one entry per offset
        u = next(u for u, n in Counter(int(e["u"]) for e in doc["cover"]).items() if n > 1)
        complete, detail = False, f"offset {_short(u)} listed twice in cover"
    elif complete:
        detail = f"{len(cover)} witnessed"
    else:
        missing = list(islice(_gaps(sorted(set(cover).difference(extra)), y, skip), 5))
        detail = (
            f"offsets covered do not tile the window (missing {_shorts(missing)}, "
            f"extra {_shorts(extra[:5])})"
        )
    sections.append(("completeness", complete, detail))

    # the element of offset u is power + u + shift
    e, shift = (1, 0) if mode == "squarefree" else (k, -1)
    power = m**e
    # thousands of offsets share a few hundred witness primes: m^e is
    # reduced once per prime, and each offset is checked in small ints; a
    # witness must be a modulus, whose primality the congruences check,
    # and at least 2, as a residue mod 0 is undefined
    residue = {q: pow(m, e, q) for q in distinct.intersection(cover.values()) if q > 1}
    bad_offset = None
    for u, q in sorted(cover.items()):
        if q not in residue or (residue[q] + u + shift) % q or q - u - shift >= power:
            bad_offset = (u, q)
            break
    sections.append(
        (
            "witnesses",
            bad_offset is None,
            f"{len(cover)} divisions verified"
            if bad_offset is None
            else f"witness {_short(bad_offset[1])} fails at offset {_short(bad_offset[0])}",
        )
    )

    # the primality section runs only on a document whose structure
    # holds: a failing one is refuted already, and its m may be anything
    primality = "prime_base" if mode == "kpower" else "squarefree"
    failed = next((name for name, passed, _ in sections if not passed), None)
    if failed:
        sections.append((primality, False, f"not checked: {failed} fails"))
    elif mode == "kpower":
        m_prime = is_prime(m)
        if not m_prime:
            detail = "m is composite"
        elif prime_tier(m) == "proven":
            detail = "m is proven prime"
        else:
            detail = "m is a BPSW probable prime"
        sections.append(("prime_base", m_prime, detail))
    else:
        recorded = doc["metrics"].get("squarefree_status", "proven")
        # no tier found can fall below a partial claim, so it skips every
        # primality test that would only pick the tier: the one on m/B, and
        # the one on the trial cofactor
        test_primality = recorded != "partial"
        actual = _prime_cofactor_tier(m, congs) if test_primality else None
        proof = "m/B prime" if actual else "trial scan"
        if actual is None:
            actual = classify_squarefree(m, test_primality=test_primality)
        if actual == "not_squarefree":
            ok, detail = False, "m has a square factor"
        elif recorded not in _TIER_RANK:
            ok, detail = False, f"unknown recorded tier {recorded!r}"
        elif _TIER_RANK[recorded] > _TIER_RANK[actual]:
            ok, detail = False, f"recorded tier {recorded} claims more than {actual}"
        else:
            ok, detail = True, f"status {actual} ({proof})"
            if actual != recorded:
                notes.append(f"squarefree tier changed: recorded {recorded}, now {actual}")
        sections.append(("squarefree", ok, detail))

    # the metrics the serializer derives, from the numbers checked above;
    # a squarefree trial bound may claim no more than the scan to
    # SQUAREFREE_TRIAL_BOUND checked
    metrics = doc["metrics"]
    derived = derived_metrics(m, modulus, power, y)
    wrong = next((key for key, value in derived.items()
                  if key not in metrics or not _agrees(metrics[key], value)), None)
    bound = metrics.get("squarefree_trial_bound")
    if wrong:
        recorded = metrics.get(wrong, "missing")
        shown = _short(recorded) if type(recorded) is int else repr(recorded)
        ok, detail = False, f"{wrong} recorded {shown}, recomputed {derived[wrong]!r}"
    elif mode == "squarefree" and not (
        isinstance(bound, str) and bound.isascii() and bound.isdigit()
    ):
        ok, detail = False, f"squarefree_trial_bound {bound!r} is not a decimal string"
    elif mode == "squarefree" and int(bound) > SQUAREFREE_TRIAL_BOUND:
        ok, detail = False, (
            f"squarefree_trial_bound {_short(int(bound))} exceeds the scan to "
            f"{SQUAREFREE_TRIAL_BOUND}"
        )
    else:
        constant = derived["avoidance_constant"]
        shown = "null" if constant is None else repr(constant)
        ok, detail = True, f"{len(derived)} values recomputed, avoidance constant {shown}"
    sections.append(("metrics", ok, detail))

    return VerifyReport(sections=sections, notes=notes)
