"""Construction of prime-avoiding squarefree numbers.

The pipeline classifies the primes up to x into three bands, strikes the
window offsets [-y, y] with the congruences of the two small bands,
gives the offsets that neither band strikes large primes, solves the
resulting system of congruences, searches the progression for a
squarefree member, and emits a certificate holding one witness prime
divisor per window offset: the least modulus q of the system whose
residue r has u == -r (mod q).  The window rule, class to congruence and
the witness check, is numtheory's, shared with kpower: the element is
m^k + u + shift with k = 1 and shift 0 here.

Every band-one prime takes residue 0, so it strikes the offsets it
divides.  The mid and large bands take the greedy classes kpower also
uses (numtheory.greedy_classes): each prime, ascending, takes the class
that strikes the most offsets still unstruck, the least class on a tie
(Rankin's covering, as refined by Maier and Pomerance).  So:

  * u2 -- the offsets no band-one prime divides, which the mid band
    runs over;
  * u6 -- the u2 offsets no mid-band class strikes, which the large
    band that kpower runs too covers (numtheory.large_band): a large
    prime q <= y may strike two of them, u and u + 2q, and the offsets
    left above y take one prime each.

With 2 in band one (log x >= 2), 2 strikes every even offset, so u2 and
u6 hold odd offsets only.  A congruence whose modulus is no offset's
least striker is dropped (numtheory.drop_idle) before the system is
solved: it would only make m larger.

The solution is m0 mod N.  B = gcd(m0, N) is the product of the
residue-0 moduli, and every other modulus leaves m0 a nonzero residue.
When N/B has PRIME_COFACTOR_MIN_BITS to PRIME_COFACTOR_MAX_BITS bits, the
search takes m = B*C with C the least prime C0 + j*(N/B), C0 = m0/B and
j >= 1, above max(x, 2y) and so above every modulus
(numtheory.find_prime_in_ap); C0 itself is never tried, even when it
exceeds max(x, 2y).  So m is squarefree by construction, with C's tier
(numtheory.prime_tier: "proven" below 3.3*10^24, "prp" above).  Outside
that window m is the first member of m0 + j*N that the tiered trial scan
(numtheory.classify_squarefree) does not reject, with the scan's tier.
Below the window the scan's cofactor gets one primality round; above it
the round is skipped.  There it would only pick "prp" over "partial",
and a cofactor free of primes to 10^7 is prime with chance about
e^gamma * ln(10^7) / ln(cofactor), some 2% at 1,700 bits and less above,
while the round is the costliest step of a large construct.

The run's record is document.Certificate, as in kpower; squarefree adds
m's tier and the trial bound as metrics.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .document import Certificate
from .errors import CapacityError, ConstructionError, SearchExhausted
from .numtheory import (
    DEFAULT_PRIME_STEPS,
    SQUAREFREE_TRIAL_BOUND,
    Congruence,
    class_congruences,
    classify_squarefree,
    crt_solve,
    find_prime_in_ap,
    greedy_classes,
    large_band,
    prime_tier,
    primes_upto,
    struck_witnesses,
    window_cover,
)
from .schedule import Schedule, shrink_to_capacity

# The bit lengths of N/B for which find_squarefree_in_ap searches for a
# prime cofactor C; the trial scan runs outside.  On a 2-core host
# (CPython 3.11, in-process):
#   * Below the window the scan's tier is luck worth keeping.  From x =
#     1000 to 5000 in steps of 100, the scan proves m at x = 1000, 1100,
#     1200, 1300, 1500 and 1600, where N/B has 58 to 93 bits.  At 1000
#     and 1600 (93 and 92 bits) a prime C, above N/B, would pass
#     3.3*10^24 (about 2^81.5) and be only "prp".  No x of
#     that sweep with 94 or more bits is "proven"; 1700, 1800 and 2800
#     (97, 103 and 96 bits) are "partial".
#   * Above the window the search costs more than the scan.  Mean search
#     times, prime C against the scan, over the x from 10^4 to 2.6*10^4
#     (steps of 500) whose N/B falls in each band: 500-1000 bits 0.16 s
#     against 0.24 s (7 runs), 1000-1400 bits 0.18 s against 0.22 s (6),
#     1400-1800 bits 0.57 s against 0.23 s (8).  Single searches swing
#     with the prime gaps: 0.07 to 1.14 s between 1,500 and 1,700 bits.
PRIME_COFACTOR_MIN_BITS = 94
PRIME_COFACTOR_MAX_BITS = 1400


class SetSystem(NamedTuple):
    """Prime bands, window offset classes and mid-band classes for one
    schedule."""

    y: int  # window radius: the offsets are [-y, y]
    p1: tuple[int, ...]  # p <= log x, plus the band (z, x/4]
    p2: tuple[int, ...]  # mid band (log x, z]
    p3: tuple[int, ...]  # large band (x/4, x]: the assignable cover primes
    u2: tuple[int, ...]  # the offsets no band-one prime divides
    mid_classes: tuple[int, ...]  # greedy class c of each p2 prime over u2
    u6: tuple[int, ...]  # u2 offsets no mid class strikes: the large band's


def build_sets(sch: Schedule) -> SetSystem:
    """Classify primes and window offsets for a squarefree run, and
    choose the mid-band classes.  The mode squares nothing: k must be 1."""
    x, z, y = sch.x, sch.z, sch.y
    if sch.k != 1:
        raise ValueError(f"squarefree mode takes k=1, got k={sch.k}")
    if z > x / 4:
        raise ValueError(f"z={z} exceeds x/4={x / 4}; prime bands would overlap")
    log_x = math.log(x)
    primes = primes_upto(math.floor(x))

    p1 = tuple(p for p in primes if p <= log_x or z < p <= x / 4)
    p2 = tuple(p for p in primes if log_x < p <= z)
    p3 = tuple(p for p in primes if x / 4 < p <= x)

    band = struck_witnesses(y, ((0, p) for p in p1))
    u2 = tuple(u for u in range(-y, y + 1) if not band[u + y])
    mid_classes, u6 = greedy_classes(u2, p2)
    return SetSystem(
        y=y, p1=p1, p2=p2, p3=p3, u2=u2, mid_classes=mid_classes, u6=u6
    )


def assign_primes(sets: SetSystem) -> list[tuple[int, int]]:
    """The large band's (class, prime) pairs over u6, ascending by prime
    (numtheory.large_band).  Every class is admissible, so the offsets the
    primes q <= y leave are paired ascending with the primes above y.  A
    q <= y whose class strikes no offset still open is no offset's least
    striker, so covering_congruences drops it."""
    if len(sets.u6) > len(sets.p3):
        raise CapacityError(
            f"{len(sets.u6)} offsets need assigned primes but only "
            f"{len(sets.p3)} large primes are available",
            needed=len(sets.u6),
            available=len(sets.p3),
        )
    return large_band(sets.u6, sets.p3, sets.y)[0]


def covering_congruences(
    sets: SetSystem, pairs: list[tuple[int, int]]
) -> tuple[Congruence, ...]:
    """m0 == 0 mod p for band-one primes, m0 == -c mod p for each mid-band
    prime of class c and for each large-band pair (c, q) of assign_primes,
    in that order, without those whose modulus is no offset's least
    striker (numtheory.class_congruences with k = 1, shift 0); a prime
    used twice makes crt_solve raise."""
    classes = [(0, p) for p in sets.p1]
    classes += zip(sets.mid_classes, sets.p2)
    classes += pairs
    return class_congruences(sets.y, classes, 1, 0)


def solve_m0(congruences: tuple[Congruence, ...]) -> tuple[int, int]:
    """Solve the covering congruences (covering_congruences).

    Returns (N, m0) with N the product of all moduli and m0 the
    representative in [1, N] (so the u = 0 witness stays valid even when
    the solution is 0 mod N).
    """
    m0, n = crt_solve(congruences)
    if m0 == 0:
        m0 = n
    return n, m0


class SquarefreeSearch(NamedTuple):
    """Result of the progression search."""

    m: int
    steps: int  # progression index j with m = m0 + j*N
    status: str  # "proven" | "prp" | "partial", see find_squarefree_in_ap
    candidates_tried: int  # members classified, or stepped over for C


def _prime_cofactor(
    m0: int, n: int, b: int, sch: Schedule, max_steps: int
) -> SquarefreeSearch:
    """m = B*C for the least prime C = C0 + j*(N/B), C0 = m0/B and j >= 1,
    above both x (so above every modulus) and 2y; C0 itself is not tried.

    C0 is coprime to N/B, since each prime of N/B leaves m0 a nonzero
    residue and is coprime to B.  C is a prime that no prime of B equals,
    and B is a product of distinct primes, so m is squarefree; and
    m = B*C0 + j*N = m0 + j*N.
    """
    c0, step = m0 // b, n // b
    least = max(math.floor(sch.x), 2 * sch.y)
    skip = max(0, (least - c0) // step)  # the members after this one exceed least
    c = find_prime_in_ap(c0 + skip * step, step, max_steps)
    steps = (c - c0) // step
    return SquarefreeSearch(
        m=b * c,
        steps=steps,
        status=prime_tier(c),
        candidates_tried=steps - skip,
    )


def find_squarefree_in_ap(
    m0: int, n: int, sch: Schedule, max_steps: int = DEFAULT_PRIME_STEPS
) -> SquarefreeSearch:
    """A squarefree m = m0 + j*N with m >= 2y, and its tier.

    With B = gcd(m0, N), the product of the residue-0 moduli: when N/B has
    PRIME_COFACTOR_MIN_BITS to PRIME_COFACTOR_MAX_BITS bits, m = B*C with
    C the least prime C0 + j*(N/B), j >= 1, above max(x, 2y)
    (_prime_cofactor), with C's prime_tier.  Otherwise the least such j
    whose member classify_squarefree does not reject, with its tier: full
    when trial factorization to the bound settles it, otherwise the
    partial tier is recorded honestly.  Below the window one primality
    round on the scan's cofactor may still raise the tier to prp or
    proven; above it the round is skipped, so the tier there is proven or
    partial.  Either search tries at most max_steps members.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    b = math.gcd(m0, n)
    bits = (n // b).bit_length()
    if PRIME_COFACTOR_MIN_BITS <= bits <= PRIME_COFACTOR_MAX_BITS:
        return _prime_cofactor(m0, n, b, sch, max_steps)
    test_primality = bits < PRIME_COFACTOR_MIN_BITS
    j = max(0, -(-(2 * sch.y - m0) // n))  # ceil division
    tried = 0
    while tried < max_steps:
        m = m0 + j * n
        status = classify_squarefree(m, test_primality=test_primality)
        tried += 1
        if status != "not_squarefree":
            return SquarefreeSearch(
                m=m,
                steps=j,
                status=status,
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
    """The least striker of every offset in [-y, y] (numtheory.window_cover,
    k = 1, shift 0, no offset skipped).  An m below 2y or an unstruck
    offset is a construction bug, so it raises ConstructionError."""
    y = sch.y
    if m < 2 * y:
        raise ConstructionError(f"m={m} violates m >= 2y = {2 * y}")
    return window_cover(m, congruences, y, 1, 0)


def construct_certificate(
    sch: Schedule, max_steps: int = DEFAULT_PRIME_STEPS
) -> Certificate:
    """Run the full pipeline, auto-shrinking y until capacity holds."""
    sch, sets, trace = shrink_to_capacity(
        sch, build_sets, lambda s: (len(s.u6), len(s.p3))
    )
    congruences = covering_congruences(sets, assign_primes(sets))
    n, m0 = solve_m0(congruences)
    search = find_squarefree_in_ap(m0, n, sch, max_steps=max_steps)
    cover = verify_window(search.m, congruences, sch)
    return Certificate(
        mode="squarefree",
        schedule=sch,
        modulus=n,
        m0=m0,
        m=search.m,
        congruences=congruences,
        cover=cover,
        metrics={
            "squarefree_status": search.status,
            "squarefree_trial_bound": str(SQUAREFREE_TRIAL_BOUND),
        },
        autoshrink_trace=trace,
    )
