"""Construction of prime-avoiding k-th powers of primes.

Every prime p <= max(z, x/40k), ascending, takes the admissible class
that strikes the most window offsets still open (numtheory.greedy_classes),
the least such class on a tie.  A class c is admissible when 1 - c is a
nonzero k-th power residue mod p, so m == r (mod p) with r^k == 1 - c
puts p | m^k + u - 1 for every u == c (mod p) and never strikes u = 1,
whose element is m^k itself; the least root r is taken, and class 0 gives
m == 1 (mod p).  U7, the offsets this pass leaves open, goes to the
large band that squarefree runs too (numtheory.large_band), under the
same rule.  Congruences that are no offset's least striker are dropped
(numtheory.drop_idle).  The capacity check counts the paper's offsets,
the z-smooth and prime ones (U4 | U5), so y is the paper's; an offset the
large band leaves open then halves y as a failed count does.  The
pipeline then solves the congruence system, finds a prime m in the
progression (numtheory.find_prime_in_ap, the search squarefree runs for
its prime cofactor too), and certifies the window: the witness of
m^k + (u - 1) is the least modulus q of the system whose residue r has
u == 1 - r^k (mod q), and every offset but u = 1 has one.  The window
rule, class to root and the witness check, is numtheory's, shared with
squarefree: the element is m^k + u + shift with shift -1 here.

The run's record is document.Certificate, as in squarefree, with no
metric of kpower's own: a full modulus shows in its congruences, one for
every prime <= x.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import kernels, numtheory
from .document import Certificate
from .errors import CapacityError, ConstructionError
from .numtheory import (
    DEFAULT_PRIME_STEPS,
    Congruence,
    class_congruences,
    crt_solve,
    find_prime_in_ap,
    greedy_classes,
    jacobi,
    kth_root_count,
    large_band,
    primes_upto,
    struck_witnesses,
    window_cover,
)
from .schedule import Schedule, shrink_to_capacity

# the paper's delta, which sets legendre_screen's threshold
DELTA = 0.01


class KSetSystem(NamedTuple):
    """Primes and offset classes for one k-th power run.

    U3, U4 and U5 are the paper's prime/smooth taxonomy: they set the
    capacity demand (paper_demand), but only U7, the offsets that the P1
    classes leave open (strike_offsets), is matched.
    """

    k: int
    y: int  # window radius: the offsets are [-y, y]
    p1: tuple[int, ...]  # p <= max(z, x/40k): the primes of greedy classes
    # large primes passing the band's congruence filter; for odd k the
    # filter p == 2 (mod 3) gives gcd(k, p-1) = 1 only when k is a power
    # of 3 (for k=5 at x=2000, 37 of the 147 have 5 | p-1), so
    # match_offsets checks each class it tries with kth_root_count
    p3tilde: tuple[int, ...]
    u3: tuple[int, ...]  # |u| prime
    u4: tuple[int, ...]  # u != 0 with |u| z-smooth
    # u3 offsets with no prime of (log x, z] dividing u + 2^k - 1
    u5: tuple[int, ...]
    classes: tuple[int, ...] = ()  # greedy admissible class of each p1 prime
    u7: tuple[int, ...] = ()  # u != 1 that no p1 class strikes

    @property
    def paper_demand(self) -> int:
        """|U4 | U5|, the paper's count of offsets needing a matched prime;
        the capacity check takes y from it, not from |U7|."""
        return len(set(self.u4) | set(self.u5))


def build_sets_k(sch: Schedule) -> KSetSystem:
    """Classify primes and window offsets for a k-th power run, without
    the greedy classes (strike_offsets)."""
    x, k, z, y = sch.x, sch.k, sch.z, sch.y
    if k % 6 == 0:
        raise ValueError(
            f"k={k} is divisible by 6: the matchable class p == 3 (mod {2 * k}) "
            "holds no prime above 3"
        )
    cut = x / (40 * k)
    if cut < 1:
        raise CapacityError(
            f"x={x:g} is too small for k={k}: the large-prime band starts at "
            f"x/(40k)={cut:g} < 1; need x >= {40 * k}",
            needed=1,
            available=0,
        )
    log_x = math.log(x)
    primes = primes_upto(math.floor(x))
    top = max(z, cut)
    p1 = tuple(p for p in primes if p <= top)
    if k % 2 == 1:
        p3t = tuple(p for p in primes if top < p <= x and p % 3 == 2)
    else:
        p3t = tuple(p for p in primes if top < p <= x / 2 and p % (2 * k) == 3)
    if not p3t:
        raise CapacityError(
            f"no matchable large primes in the band above max(z, x/(40k))={top:g}",
            needed=1,
            available=0,
        )

    # at index u + y, the least prime of (log x, z] dividing u + 2^k - 1;
    # at n <= y, the largest prime factor of n, as the primes stamp their
    # multiples in ascending order (0 when there is none)
    mid = struck_witnesses(y, ((1 - (1 << k), p) for p in primes if log_x < p <= z))
    largest = kernels.stamp(y + 1, ((p, p) for p in kernels.iter_primes(y)))
    window = range(-y, y + 1)
    u3 = tuple(u for u in window if largest[abs(u)] == abs(u) > 1)
    u4 = tuple(u for u in window if u != 0 and largest[abs(u)] <= z)
    u5 = tuple(u for u in u3 if not mid[u + y])
    return KSetSystem(k=k, y=y, p1=p1, p3tilde=p3t, u3=u3, u4=u4, u5=u5)


def _admissible(k: int):
    """The class rule of both kpower bands: 1 - c is a nonzero k-th power
    residue mod p, so m == r (mod p) with r^k == 1 - c has r != 0."""
    return lambda c, p: (1 - c) % p != 0 and kth_root_count(1 - c, k, p) > 0


def strike_offsets(sets: KSetSystem) -> KSetSystem:
    """The P1 primes, ascending, take their greedy classes
    (numtheory.greedy_classes) over the window offsets u != 1 under
    _admissible; U7 is what they leave open."""
    y = sets.y
    classes, u7 = greedy_classes(
        (u for u in range(-y, y + 1) if u != 1), sets.p1, _admissible(sets.k)
    )
    return sets._replace(classes=classes, u7=u7)


def legendre_screen(sch: Schedule, p3tilde) -> tuple[int, ...]:
    """The paper's delta-screen: offsets u whose -u is a quadratic residue
    for too few matchable primes (at most DELTA*x/log x of them); empty
    for odd k.  construct stopped running it at format 1.10, as it changed
    neither U7 nor the matching.  It stays while e2ebench/traced.py looks
    its name up, and goes with that span (ROADMAP)."""
    if sch.k % 2 == 1:
        return ()
    threshold = DELTA * sch.x / math.log(sch.x)

    def exceptional(u: int) -> bool:
        count = 0
        for p in p3tilde:
            if jacobi(-u, p) == 1:
                count += 1
                if count > threshold:
                    return False
        return True

    return tuple(u for u in range(-sch.y, sch.y + 1) if exceptional(u))


class KMatching(NamedTuple):
    """The large band's (class, prime) pairs, ascending by prime, the prime
    striking each offset it covers, by offset, and the offsets left open,
    which make construct_certificate_k halve y."""

    pairs: tuple[tuple[int, int], ...]
    matched: dict[int, int]
    unmatched: tuple[int, ...]


def match_offsets(sets: KSetSystem) -> KMatching:
    """The large band (numtheory.large_band) over U7 and P3tilde under
    _admissible: u = 1 (whose element is m^k) and every offset a P1 class
    strikes are left out, and an edge (u, p) holds when m^k == 1 - u
    (mod p) has a nonzero root.  2 takes class 0 in P1, so every U7
    offset is odd and a prime above y strikes only its matched offset.
    """
    y = sets.y
    pairs, unmatched = large_band(sets.u7, sets.p3tilde, y, _admissible(sets.k))
    witness = struck_witnesses(y, pairs)
    matched = {u: q for u in sets.u7 if (q := witness[u + y])}
    return KMatching(pairs=tuple(pairs), matched=matched, unmatched=unmatched)


def solve_m0_k(congruences: tuple[Congruence, ...]) -> tuple[int, int]:
    """Solve the covering congruences (covering_congruences) for the
    progression base.

    Returns (modulus, m0) with modulus the product of all moduli and m0
    the solution in [0, modulus), which must be coprime to the modulus.
    """
    m0, modulus = crt_solve(congruences)
    if math.gcd(m0, modulus) != 1:
        raise ConstructionError("m0 is not coprime to the modulus; construction bug")
    return modulus, m0


def covering_congruences(sets: KSetSystem, pairs) -> tuple[Congruence, ...]:
    """The congruences (numtheory.class_congruences, shift -1) of each P1
    prime's class, then of each large-band pair of match_offsets.  A root
    0, which would put p | m, raises ConstructionError."""
    classes = [*zip(sets.classes, sets.p1), *pairs]
    congruences = class_congruences(sets.y, classes, sets.k, -1)
    if 0 in (c.residue for c in congruences):
        raise ConstructionError("a kept class has root 0: no nonzero root for m")
    return congruences


def verify_power_window(
    m: int, congruences: tuple[Congruence, ...], sch: Schedule
) -> tuple[dict[int, int], list]:
    """The witness of each window element m^k + u - 1 (numtheory.window_cover,
    shift -1); u = 1 is skipped: its element is m^k, the prime power."""
    # the empty list stands where the exceptions were, as
    # e2ebench/traced.py counts the result's second item
    return window_cover(m, congruences, sch.y, sch.k, -1, skip=1), []


def _band(sch: Schedule) -> tuple[KSetSystem, KMatching | None]:
    """The set system at ``sch`` and, once the paper's count holds, its
    greedy classes (strike_offsets) and large band (match_offsets)."""
    sets = build_sets_k(sch)
    if sets.paper_demand > len(sets.p3tilde):
        return sets, None
    sets = strike_offsets(sets)
    return sets, match_offsets(sets)


def _band_demand(built) -> tuple[int, int]:
    """The paper's count, |U4 | U5| against |P3tilde|, until it holds; then
    |U7| against the U7 offsets the large band covers."""
    sets, matching = built
    if matching is None:
        return sets.paper_demand, len(sets.p3tilde)
    return len(sets.u7), len(sets.u7) - len(matching.unmatched)


def construct_certificate_k(
    sch: Schedule,
    reduced: bool = True,
    max_steps: int = DEFAULT_PRIME_STEPS,
) -> Certificate:
    """Run the full k-th power pipeline, halving y while the paper's count
    fails or the large band leaves an offset open."""
    sch, (sets, matching), trace = shrink_to_capacity(sch, _band, _band_demand)
    congruences = covering_congruences(sets, matching.pairs)
    if not reduced:  # 1 mod every other prime <= x, for a full primorial
        used = {c.modulus for c in congruences}
        p4 = tuple(p for p in primes_upto(math.floor(sch.x)) if p not in used)
        congruences += tuple(Congruence(1, p) for p in p4)
    modulus, m0 = solve_m0_k(congruences)
    m = find_prime_in_ap(m0, modulus, max_steps=max_steps)
    if sch.k * m.bit_length() > numtheory.MAX_POWER_BITS:
        raise ConstructionError(
            f"m^k too large: k * bits(m) = {sch.k} * {m.bit_length()} exceeds "
            f"{numtheory.MAX_POWER_BITS}, which a verifier refuses"
        )
    cover, _ = verify_power_window(m, congruences, sch)
    return Certificate(
        mode="kpower",
        schedule=sch,
        modulus=modulus,
        m0=m0,
        m=m,
        congruences=congruences,
        cover=cover,
        metrics={},
        autoshrink_trace=trace,
    )
