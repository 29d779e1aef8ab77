"""Construction of prime-avoiding squarefree numbers.

The pipeline classifies the primes up to x into three bands, strikes the
window offsets [-y, y] with the congruences of the two small bands,
assigns one large prime to each offset that neither band strikes, solves
the resulting system of congruences, searches the progression for a
squarefree member, and emits a certificate holding one witness prime
divisor per window offset: the least modulus q of the system whose
residue r has u == -r (mod q).

The small bands strike, read off numtheory.window_tables:

  * u1 -- u divisible by a band-one prime (residue 0, so p | m + u);
  * u2 \\ u6 -- no band-one prime divides u, but a mid-band prime divides
    u + 1 (residue 1, so p | m + u);
  * u6 -- everything left, each covered by its own assigned large prime.

With 2 in band one (log x >= 2), 2 strikes u = 0 and every mid-band prime
strikes u = -1, while neither band strikes u = 1, which takes a large prime.
"""

from __future__ import annotations

import math
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
    window_tables,
)
from .schedule import Schedule, iter_log, shrink_to_capacity

DEFAULT_MAX_STEPS = 10_000


@dataclass(frozen=True)
class SetSystem:
    """Prime bands and window offset classes for one schedule."""

    p1: tuple[int, ...]  # p <= log x, plus the band (z, x/4]
    p2: tuple[int, ...]  # mid band (log x, z]
    p3: tuple[int, ...]  # large band (x/4, x]: the assignable cover primes
    # offset classes from window_tables(y, p1, p2, 1), index i = u + y
    u1: tuple[int, ...]  # band[i] > 0: some band-one prime divides u
    u2: tuple[int, ...]  # window minus u1
    u6: tuple[int, ...]  # u2 offsets with mid[i] == 0: unstruck, so assigned a prime


def build_sets(sch: Schedule) -> SetSystem:
    """Classify primes and window offsets for a squarefree run."""
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

    band, mid, _ = window_tables(y, p1, p2, 1)
    u1 = tuple(u for u in range(-y, y + 1) if band[u + y])
    u2 = tuple(u for u in range(-y, y + 1) if not band[u + y])
    u6 = tuple(u for u in u2 if not mid[u + y])
    return SetSystem(p1=p1, p2=p2, p3=p3, u1=u1, u2=u2, u6=u6)


def assign_primes(sets: SetSystem) -> dict[int, int]:
    """Injective map u6 -> p3, ascending offsets paired with ascending
    primes (deterministic tie-break)."""
    if len(sets.u6) > len(sets.p3):
        raise CapacityError(
            f"{len(sets.u6)} offsets need assigned primes but only "
            f"{len(sets.p3)} large primes are available",
            needed=len(sets.u6),
            available=len(sets.p3),
        )
    return dict(zip(sets.u6, sets.p3))


def covering_congruences(
    sets: SetSystem, phi: dict[int, int]
) -> tuple[Congruence, ...]:
    """m0 == 0 mod p for band-one primes, m0 == 1 mod p for mid-band
    primes, m0 == -u mod p_u for each assigned pair, in that order; a
    prime used twice makes crt_solve raise."""
    congs = [Congruence(0, p) for p in sets.p1]
    congs += [Congruence(1, p) for p in sets.p2]
    congs += [Congruence((-u) % p, p) for u, p in sorted(phi.items())]
    return tuple(congs)


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
