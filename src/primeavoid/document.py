"""Certificate documents: lossless JSON serialization and re-verification.

All big integers are carried as decimal strings so no consumer can
truncate them.  ``verify_document`` re-checks a document from its own
numbers alone (congruences, progression membership, witness divisions,
primality claims); it never re-runs the construction.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from .errors import DocumentError
from .numtheory import (
    MR_DETERMINISTIC_BOUND,
    cofactor_tier,
    is_prime,
    trial_cofactor,
)

if TYPE_CHECKING:  # the verifier never imports the construction modules
    from .kpower import KCertificate
    from .squarefree import AvoidanceCertificate

FORMAT_VERSION = "1.4"


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


def _document(cert, sets: tuple[str, ...], metrics: dict, **fields) -> dict:
    """The keys both modes share, read off the certificate as built, plus
    the cardinality of each of the mode's named ``sets`` (the lower-cased
    attribute of cert.sets), its own metrics and top-level ``fields``."""
    return {
        "format_version": FORMAT_VERSION,
        "seed": cert.seed,
        "schedule": asdict(cert.schedule),  # a new Schedule field changes the format
        "sets": {name: len(getattr(cert.sets, name.lower())) for name in sets},
        "congruences": [[str(c.residue), str(c.modulus)] for c in cert.congruences],
        "modulus": str(cert.modulus),
        "m0": str(cert.m0),
        "m": str(cert.m),
        "cover": [
            {"u": u, "witness_prime": str(p)} for u, p in sorted(cert.cover.items())
        ],
        "metrics": {
            "log_m": math.log(cert.m),
            "log_modulus": math.log(cert.modulus),
            "exponent_report": cert.exponent_report,
            "avoidance_constant": cert.avoidance_constant,
            "autoshrink_trace": list(cert.autoshrink_trace),
            **metrics,
        },
        **fields,
    }


@unlimited_int_digits()
def certificate_to_document(cert: AvoidanceCertificate) -> dict:
    """Serialize a squarefree certificate."""
    return _document(
        cert,
        ("P1", "P2", "P3", "U1", "U2", "U6"),
        {
            "prime_count_in_window": 0,
            "squarefree_status": cert.squarefree_status,
            "squarefree_trial_bound": str(cert.squarefree_bound),
        },
        mode="squarefree",
        exceptions=[],
    )


@unlimited_int_digits()
def kcertificate_to_document(cert: KCertificate) -> dict:
    """Serialize a k-th power certificate."""
    return _document(
        cert,
        ("P1", "P2", "P3tilde", "P3", "P4", "U1", "U2", "U3", "U4", "U5", "U6", "U7"),
        {
            "prime_count_in_window": cert.prime_count_in_window,
            "unmatched_offsets": list(cert.matching.unmatched),
            "p1_upper_empty": cert.sets.p1_upper_empty,
        },
        mode="kpower",
        reduced_modulus=cert.reduced,
        exceptions=[{"u": u, "status": st} for u, st in cert.exceptions],
    )


def document_to_json(doc: dict) -> str:
    """Canonical rendering; identical documents give identical bytes."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


_REQUIRED_KEYS = (
    "format_version",
    "mode",
    "seed",
    "schedule",
    "sets",
    "congruences",
    "modulus",
    "m0",
    "m",
    "cover",
    "exceptions",
    "metrics",
)


@unlimited_int_digits()
def parse_document(text: str) -> dict:
    """Parse and structurally validate a certificate document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DocumentError("document root must be an object")
    for key in _REQUIRED_KEYS:
        if key not in doc:
            raise DocumentError(f"missing required key {key!r}")
    # 1.0 to 1.3 differ from 1.4 in how witnesses were chosen, residues
    # picked and primes assigned or matched, and in what ``sets`` and
    # ``metrics`` list; verify reads none of that, as it checks each
    # witness by its division
    if doc["format_version"] not in ("1.0", "1.1", "1.2", "1.3", FORMAT_VERSION):
        raise DocumentError(
            f"unsupported format_version {doc['format_version']!r}; "
            f"this verifier reads 1.0 to {FORMAT_VERSION}"
        )
    if doc["mode"] not in ("squarefree", "kpower"):
        raise DocumentError(f"unknown mode {doc['mode']!r}")
    try:
        if int(doc["modulus"]) < 1:
            raise ValueError("modulus must be positive")
        int(doc["m0"])
        if int(doc["m"]) < 1:
            raise ValueError("m must be positive")
        for r, q in doc["congruences"]:
            int(r), int(q)
        for entry in doc["cover"]:
            int(entry["u"]), int(entry["witness_prime"])
        for entry in doc["exceptions"]:
            int(entry["u"])
            if not isinstance(entry["status"], str):
                raise TypeError(f"exception status {entry['status']!r} is not a string")
        int(doc["schedule"]["y"])
        if int(doc["schedule"]["k"]) < 1:
            raise ValueError("schedule.k must be at least 1")
    except (ValueError, TypeError, KeyError) as exc:
        raise DocumentError(f"malformed field: {exc}") from exc
    metrics = doc["metrics"]
    if not isinstance(metrics, dict):
        raise DocumentError("metrics must be an object")
    if not isinstance(metrics.get("squarefree_status", ""), str):
        raise DocumentError("metrics.squarefree_status must be a string")
    return doc


# squarefree tiers from the weakest claim to the strongest; a document may
# record a weaker tier than the verifier finds, never a stronger one
_TIER_RANK = {"partial": 0, "prp": 1, "proven": 2}


@dataclass
class VerifyReport:
    sections: list[tuple[str, bool, str]]
    notes: list[str]

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

    # congruence system: distinct prime moduli, m0 in range, all satisfied
    moduli = [q for _, q in congs]
    problems = []
    if len(set(moduli)) != len(moduli):
        problems.append("duplicate moduli")
    if math.prod(moduli) != modulus:
        problems.append("modulus is not the product of the congruence moduli")
    if not 1 <= m0 <= modulus:
        problems.append(f"m0={m0} outside [1, modulus]")
    for r, q in congs:
        if not is_prime(q):
            problems.append(f"modulus {q} is not prime")
            break
        if m0 % q != r % q:
            problems.append(f"m0 fails residue {r} mod {q}")
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
        detail = f"m={m} < 2y={2 * y}"
    sections.append(("progression", member, detail))

    # window cover: completeness, then every witness division
    cover = {int(e["u"]): int(e["witness_prime"]) for e in doc["cover"]}
    exc = {int(e["u"]): e["status"] for e in doc["exceptions"]}
    expected = set(range(-y, y + 1))
    if mode == "kpower":
        expected.discard(1)
    seen = set(cover) | set(exc)
    complete = seen == expected and not (set(cover) & set(exc))
    sections.append(
        (
            "completeness",
            complete,
            f"{len(cover)} witnessed + {len(exc)} exceptions"
            if complete
            else f"offsets covered do not tile the window (missing "
            f"{sorted(expected - seen)[:5]}, extra {sorted(seen - expected)[:5]})",
        )
    )

    value_base = m if mode == "squarefree" else m**k
    # thousands of offsets share a few hundred witness primes
    prime = {p: is_prime(p) for p in set(cover.values())}
    bad_offset = None
    for u, p in sorted(cover.items()):
        value = value_base + u if mode == "squarefree" else value_base + u - 1
        if not prime[p] or value % p != 0 or p >= value:
            bad_offset = (u, p)
            break
    sections.append(
        (
            "witnesses",
            bad_offset is None,
            f"{len(cover)} divisions verified"
            if bad_offset is None
            else f"witness {bad_offset[1]} fails at offset {bad_offset[0]}",
        )
    )

    if mode == "kpower":
        m_prime = is_prime(m)
        if not m_prime:
            detail = "m is composite"
        elif m < MR_DETERMINISTIC_BOUND:
            detail = "m is proven prime"
        else:
            detail = "m is a BPSW probable prime"
        sections.append(("prime_base", m_prime, detail))
        mismatch = None
        for u, status in sorted(exc.items()):
            actual = "prime" if is_prime(value_base + u - 1) else "composite"
            if actual != status:
                mismatch = (u, status, actual)
                break
        sections.append(
            (
                "exceptions",
                mismatch is None,
                f"{len(exc)} statuses re-checked"
                if mismatch is None
                else f"offset {mismatch[0]} recorded {mismatch[1]} but is {mismatch[2]}",
            )
        )
    else:
        recorded = doc["metrics"].get("squarefree_status", "proven")
        rest = trial_cofactor(m)
        if rest is None:
            actual = "not_squarefree"
        else:
            # no tier found can fall below a partial claim, so its cofactor
            # skips the primality test, which would only pick the tier
            actual = cofactor_tier(rest, test_primality=recorded != "partial")
        if actual == "not_squarefree":
            ok, detail = False, "m has a square factor"
        elif recorded not in _TIER_RANK:
            ok, detail = False, f"unknown recorded tier {recorded!r}"
        elif _TIER_RANK[recorded] > _TIER_RANK[actual]:
            ok, detail = False, f"recorded tier {recorded} claims more than {actual}"
        else:
            ok, detail = True, f"status {actual}"
            if actual != recorded:
                notes.append(f"squarefree tier changed: recorded {recorded}, now {actual}")
        sections.append(("squarefree", ok, detail))

    return VerifyReport(sections=sections, notes=notes)
