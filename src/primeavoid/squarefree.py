"""Construction of prime-avoiding squarefree numbers.

The pipeline classifies the primes up to x into three bands, strikes the
window offsets [-y, y] with the congruences of the two small bands,
gives the offsets that neither band strikes large primes, solves the
resulting system of congruences, searches the progression for a
squarefree member, and emits a certificate holding one witness prime
divisor per window offset: the least modulus q of the system whose
residue r has u == -r (mod q).

Every prime of band one takes residue 0, so it strikes the offsets it
divides.  The mid band and the large band choose their classes by one
greedy rule (greedy_classes): each prime, ascending, takes the class
that strikes the most offsets still unstruck, the least class on a tie
(Rankin's covering, as refined by Maier and Pomerance).  So:

  * u1 -- u divisible by a band-one prime;
  * u2 -- the rest of the window, the offsets the mid band runs over;
  * u6 -- the u2 offsets no mid-band class strikes, which the large
    band covers: a large prime q <= y may strike two of them, u and
    u + 2q, and the offsets left above y take one prime each.

With 2 in band one (log x >= 2), 2 strikes every even offset, so u2 and
u6 hold odd offsets only.  A congruence whose modulus is no offset's
least striker is dropped before the system is solved: it would only
make m larger.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .errors import CapacityError, ConstructionError, SearchExhausted
from .numtheory import (
    SQUAREFREE_TRIAL_BOUND,
    Congruence,
    avoidance_constant,
    classify_squarefree,
    crt_solve,
    primes_upto,
    struck_witnesses,
)
from .schedule import Schedule, iter_log, shrink_to_capacity

DEFAULT_MAX_STEPS = 10_000


@dataclass(frozen=True)
class SetSystem:
    """Prime bands, window offset classes and mid-band classes for one
    schedule."""

    y: int  # window radius: the offsets are [-y, y]
    p1: tuple[int, ...]  # p <= log x, plus the band (z, x/4]
    p2: tuple[int, ...]  # mid band (log x, z]
    p3: tuple[int, ...]  # large band (x/4, x]: the assignable cover primes
    u1: tuple[int, ...]  # some band-one prime divides u
    u2: tuple[int, ...]  # window minus u1
    mid_classes: tuple[int, ...]  # greedy class c of each p2 prime over u2
    u6: tuple[int, ...]  # u2 offsets no mid class strikes: the large band's


def greedy_classes(offsets, primes) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Each prime p of ``primes``, in the order given, takes the class
    c in [0, p) holding the most of ``offsets`` that no earlier class
    strikes, the least such c on a tie (0 once none are left).  Returns
    the classes, one per prime, and the offsets that no class strikes."""
    left = tuple(offsets)
    classes = []
    for p in primes:
        counts = Counter(u % p for u in left)
        most = max(counts.values(), default=0)
        c = min((c for c, n in counts.items() if n == most), default=0)
        classes.append(c)
        left = tuple(u for u in left if u % p != c)
    return tuple(classes), left


def build_sets(sch: Schedule) -> SetSystem:
    """Classify primes and window offsets for a squarefree run, and
    choose the mid-band classes."""
    if sch.degenerate:
        raise ValueError(
            f"degenerate schedule: z={sch.z:.4f} <= log x={iter_log(sch.x, 1):.4f}; "
            "the mid prime band is empty"
        )
    x, z, y = sch.x, sch.z, sch.y
    if z > x / 4:
        raise ValueError(f"z={z} exceeds x/4={x / 4}; prime bands would overlap")
    log_x = math.log(x)
    primes = primes_upto(math.floor(x))

    p1 = tuple(p for p in primes if p <= log_x or z < p <= x / 4)
    p2 = tuple(p for p in primes if log_x < p <= z)
    p3 = tuple(p for p in primes if x / 4 < p <= x)

    band = struck_witnesses(y, ((0, p) for p in p1))
    u1 = tuple(u for u in range(-y, y + 1) if band[u + y])
    u2 = tuple(u for u in range(-y, y + 1) if not band[u + y])
    mid_classes, u6 = greedy_classes(u2, p2)
    return SetSystem(
        y=y, p1=p1, p2=p2, p3=p3, u1=u1, u2=u2, mid_classes=mid_classes, u6=u6
    )


def assign_primes(sets: SetSystem) -> dict[int, int]:
    """Map every u6 offset to the large prime whose class strikes it.

    The primes q <= y run greedy_classes over u6, so one class may strike
    two offsets, u and u + 2q; a prime above y strikes at most one odd
    offset, so the offsets still left are paired ascending with the
    primes above y ascending.  A prime whose class strikes no offset still
    unstruck is left out.
    """
    if len(sets.u6) > len(sets.p3):
        raise CapacityError(
            f"{len(sets.u6)} offsets need assigned primes but only "
            f"{len(sets.p3)} large primes are available",
            needed=len(sets.u6),
            available=len(sets.p3),
        )
    small = [q for q in sets.p3 if q <= sets.y]
    classes, left = greedy_classes(sets.u6, small)
    phi = dict(zip(left, sets.p3[len(small) :]))
    for u in set(sets.u6) - set(left):  # the first class to strike u took it
        phi[u] = next(q for q, c in zip(small, classes) if u % q == c)
    return dict(sorted(phi.items()))


def covering_congruences(
    sets: SetSystem, phi: dict[int, int]
) -> tuple[Congruence, ...]:
    """m0 == 0 mod p for band-one primes, m0 == -c mod p for each mid-band
    prime of class c, m0 == -u mod q for each assigned pair (u, q), in
    that order, once per congruence, without those whose modulus is no
    offset's least striker; a prime used twice makes crt_solve raise."""
    congs = [Congruence(0, p) for p in sets.p1]
    congs += [Congruence(-c % p, p) for c, p in zip(sets.mid_classes, sets.p2)]
    pairs = sorted(phi.items(), key=lambda pair: pair[1])
    congs += dict.fromkeys(Congruence(-u % q, q) for u, q in pairs)
    witnesses = set(struck_witnesses(sets.y, ((-c.residue, c.modulus) for c in congs)))
    return tuple(c for c in congs if c.modulus in witnesses)


def solve_m0(sets: SetSystem, phi: dict[int, int]) -> tuple[int, int]:
    """Solve the covering congruences.

    Returns (N, m0) with N the product of all moduli and m0 the
    representative in [1, N] (so the u = 0 witness stays valid even when
    the solution is 0 mod N).
    """
    try:
        m0, n = crt_solve(covering_congruences(sets, phi))
    except ValueError as exc:
        raise ConstructionError(str(exc)) from exc
    if m0 == 0:
        m0 = n
    return n, m0


@dataclass(frozen=True)
class SquarefreeSearch:
    """Result of the progression search."""

    m: int
    steps: int  # progression index j with m = m0 + j*N
    status: str  # "proven" | "prp" | "partial", see classify_squarefree
    trial_bound: int
    candidates_tried: int


def find_squarefree_in_ap(
    m0: int, n: int, sch: Schedule, max_steps: int = DEFAULT_MAX_STEPS
) -> SquarefreeSearch:
    """Smallest m = m0 + j*N with m >= 2y passing the squarefree check.

    Verification is tiered: full when trial factorization to the bound
    settles it, otherwise the partial tier is recorded honestly.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    j = max(0, -(-(2 * sch.y - m0) // n))  # ceil division
    tried = 0
    while tried < max_steps:
        m = m0 + j * n
        status = classify_squarefree(m)
        tried += 1
        if status != "not_squarefree":
            return SquarefreeSearch(
                m=m,
                steps=j,
                status=status,
                trial_bound=SQUAREFREE_TRIAL_BOUND,
                candidates_tried=tried,
            )
        j += 1
    raise SearchExhausted(
        f"no squarefree member found in {max_steps} progression steps "
        f"(last index {j - 1})",
        steps=max_steps,
    )


def verify_window(
    m: int, congruences: tuple[Congruence, ...], sch: Schedule
) -> dict[int, int]:
    """One verified witness prime for every offset in [-y, y]: the least
    modulus q of ``congruences`` that strikes u, a pure divisibility fact
    (q | m+u with q < m+u).  An unstruck offset means the construction
    itself is broken, so it raises rather than returning a partial cover.
    """
    y = sch.y
    if m < 2 * y:
        raise ValueError(f"m={m} violates m >= 2y = {2 * y}")
    witness = struck_witnesses(y, ((-c.residue, c.modulus) for c in congruences))
    cover: dict[int, int] = {}
    for u, p in zip(range(-y, y + 1), witness):
        value = m + u
        if p == 0 or value % p != 0 or p >= value:
            raise RuntimeError(
                f"offset {u} lacks a valid witness (got p={p}); "
                "the covering construction is inconsistent"
            )
        cover[u] = p
    return cover


@dataclass(frozen=True)
class AvoidanceCertificate:
    """Complete verifiable output of one squarefree run."""

    schedule: Schedule
    sets: SetSystem
    phi: dict[int, int]
    modulus: int
    m0: int
    m: int
    congruences: tuple[Congruence, ...]  # the system solved for m0, in order
    cover: dict[int, int]  # offset u -> witness prime dividing m + u
    squarefree_status: str
    squarefree_bound: int
    exponent_report: float
    avoidance_constant: float | None
    autoshrink_trace: tuple[int, ...]
    seed: int  # recorded in the document only; no step of the run uses it


def construct_certificate(
    sch: Schedule, max_steps: int = DEFAULT_MAX_STEPS, seed: int = 0
) -> AvoidanceCertificate:
    """Run the full pipeline, auto-shrinking y until capacity holds."""
    sch, sets, trace = shrink_to_capacity(
        sch, build_sets, lambda s: (len(s.u6), len(s.p3))
    )
    phi = assign_primes(sets)
    n, m0 = solve_m0(sets, phi)
    search = find_squarefree_in_ap(m0, n, sch, max_steps=max_steps)
    congruences = covering_congruences(sets, phi)
    cover = verify_window(search.m, congruences, sch)
    try:
        constant = avoidance_constant(search.m, sch.y)
    except ValueError:
        constant = None
    return AvoidanceCertificate(
        schedule=sch,
        sets=sets,
        phi=phi,
        modulus=n,
        m0=m0,
        m=search.m,
        congruences=congruences,
        cover=cover,
        squarefree_status=search.status,
        squarefree_bound=search.trial_bound,
        exponent_report=math.log(search.m) / math.log(n),
        avoidance_constant=constant,
        autoshrink_trace=trace,
        seed=seed,
    )
