"""Construction of prime-avoiding squarefree numbers.

The pipeline classifies the primes up to x into three bands and the
window offsets [-y, y] into cover classes, assigns one large prime to
each offset the small bands cannot cover, solves the resulting system of
congruences, searches the progression for a squarefree member, and emits
a certificate holding one witness prime divisor per window offset.

Cover classes for an offset u:

  * u1 -- u divisible by a band-one prime (residue 0 covers it);
  * u3 \\ u5 -- |u| prime with some mid-band prime dividing u + 1
    (residue 1 covers it);
  * u6 -- everything left (smooth offsets, screened primes, and
    -1, 0, 1), each covered by its own assigned large prime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress

from . import kernels
from .errors import CapacityError, SearchExhausted
from .numtheory import (
    MR_DETERMINISTIC_BOUND,
    Congruence,
    FactorWitness,
    crt_solve,
    is_prime,
    natural_log,
    primes_upto,
)
from .schedule import Schedule, capacity_check, iter_log

SQUAREFREE_TRIAL_BOUND = 10**7
TRIAL_BLOCK_BITS = 2000  # fewer gcds when larger, earlier exit for small m when smaller
# integers per trial block: theta(x) ~ x makes their primes' product
# about TRIAL_BLOCK_BITS bits; even, so each block starts on an odd number
_TRIAL_BLOCK_SPAN = 2 * round(TRIAL_BLOCK_BITS * math.log(2) / 2)
_POWER_SCREEN_PRIMES = 8  # a non-power passes each prime with chance 1/e
DEFAULT_MAX_STEPS = 10_000


@dataclass(frozen=True)
class SetSystem:
    """Prime bands and window offset classes for one schedule."""

    p1: tuple[int, ...]  # p <= log x, plus the band (z, x/4]
    p2: tuple[int, ...]  # mid band (log x, z]
    p3: tuple[int, ...]  # large band (x/4, x]: the assignable cover primes
    u1: tuple[int, ...]  # offsets divisible by some band-one prime
    u2: tuple[int, ...]  # window minus u1 minus {-1, 0, 1}
    u3: tuple[int, ...]  # u2 offsets with |u| prime
    u4: tuple[int, ...]  # u2 offsets composed only of mid-band primes
    u5: tuple[int, ...]  # u3 offsets with no mid-band prime dividing u+1
    u6: tuple[int, ...]  # u4 | u5 | {-1, 0, 1}: need assigned primes


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

    in_u1 = bytearray(2 * y + 1)  # index u + y
    for p in p1:
        first = -((y // p) * p)
        for m in range(first, y + 1, p):
            in_u1[m + y] = 1
    in_u1[y] = 1  # u = 0: every prime divides 0

    u1 = tuple(u for u in range(-y, y + 1) if in_u1[u + y])
    u2 = tuple(
        u for u in range(-y, y + 1) if not in_u1[u + y] and u not in (-1, 0, 1)
    )
    u3 = tuple(u for u in u2 if is_prime(abs(u)))
    p2_set = set(p2)
    u4 = tuple(u for u in u2 if _factors_within(abs(u), p2_set))
    u5 = tuple(u for u in u3 if all((u + 1) % p for p in p2))
    u6 = tuple(sorted(set(u4) | set(u5) | {-1, 0, 1}))
    return SetSystem(p1=p1, p2=p2, p3=p3, u1=u1, u2=u2, u3=u3, u4=u4, u5=u5, u6=u6)


def _factors_within(n: int, allowed: set[int]) -> bool:
    """True iff every prime factor of n lies in ``allowed``."""
    if n == 1:
        return True
    d = 2
    while d * d <= n:
        if n % d == 0:
            if d not in allowed:
                return False
            while n % d == 0:
                n //= d
        d += 1
    return n == 1 or n in allowed


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


def solve_m0(sets: SetSystem, phi: dict[int, int]) -> tuple[int, int]:
    """Solve the covering congruences.

    m0 == 0 mod p for band-one primes, m0 == 1 mod p for mid-band primes,
    m0 == -u mod p_u for each assigned pair.  Returns (N, m0) with N the
    product of all moduli and m0 the representative in [1, N] (so the
    u = 0 witness stays valid even when the solution is 0 mod N).
    """
    assigned = set(phi.values())
    if len(assigned) != len(phi):
        raise ValueError("assignment is not injective")
    if assigned & (set(sets.p1) | set(sets.p2)):
        raise ValueError("duplicate modulus: assigned primes overlap the bands")
    congs = [Congruence(0, p) for p in sets.p1]
    congs += [Congruence(1, p) for p in sets.p2]
    congs += [Congruence((-u) % p, p) for u, p in sorted(phi.items())]
    m0, n = crt_solve(congs)
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


@lru_cache(maxsize=4)  # the default bound plus a few caller-chosen ones
def _trial_blocks(bound: int) -> tuple[tuple[int, int], ...]:
    """The primes <= bound as (lower end, product) blocks, one block per
    interval of _TRIAL_BLOCK_SPAN consecutive integers, read straight off
    the odd sieve.  Since theta(x) ~ x, a full block's product has about
    TRIAL_BLOCK_BITS bits.  The lower end is at most every prime of its
    block and of the blocks after it; 2 is folded into the first block."""
    if bound < 2:
        return ()
    flags = kernels.odd_sieve(bound)
    step = _TRIAL_BLOCK_SPAN // 2  # odd numbers per interval
    blocks = []
    for i in range(0, len(flags), step):
        lo = 2 * i + 1
        primes = compress(range(lo, bound + 1, 2), flags[i : i + step])
        product = math.prod(primes, start=2 if i == 0 else 1)
        if product > 1:
            blocks.append((lo, product))
    return tuple(blocks)


def trial_cofactor(m: int, bound: int = SQUAREFREE_TRIAL_BOUND) -> int | None:
    """m with every prime <= bound divided out once, or None when one of
    those primes divides m twice.

    A block of consecutive primes per gcd: g = gcd(rest, block) is the
    product of the block's primes that divide rest, and a repeated factor
    shows as gcd(rest // g, g) > 1.  The scan stops early once the next
    block's lower end p has p*p > rest, since rest is then 1 or a prime.
    """
    rest = m
    for first, block in _trial_blocks(bound):
        if first * first > rest:
            break
        g = math.gcd(rest, block)
        if g > 1:
            rest //= g
            if math.gcd(rest, g) > 1:
                return None
    return rest


def cofactor_tier(
    rest: int, bound: int = SQUAREFREE_TRIAL_BOUND, test_primality: bool = True
) -> str:
    """The tier of m from its trial_cofactor ``rest``: "proven", "prp",
    "partial" or "not_squarefree".

    rest is 1, a prime, a proper perfect power, or opaque.  A prime is
    "proven" when is_prime's verdict is a proof (below
    MR_DETERMINISTIC_BOUND) and "prp" when it is only a BPSW probable
    prime; the opaque case is left "partial" (possible for m > bound**2).
    The perfect-power test relies on the full scan, which leaves no prime
    factor <= bound; see _is_perfect_power.  With ``test_primality``
    false a prime above bound**2 is left "partial" too: the primality
    test only picks the tier and never finds a square factor.
    """
    if rest == 1 or rest <= bound * bound:
        # a composite cofactor below bound^2 would need a factor <= bound
        return "proven"
    if test_primality and is_prime(rest):
        return "proven" if rest < MR_DETERMINISTIC_BOUND else "prp"
    if _is_perfect_power(rest, bound):
        return "not_squarefree"
    return "partial"


def classify_squarefree(m: int, bound: int = SQUAREFREE_TRIAL_BOUND) -> str:
    """Tiered squarefree check: "proven", "prp", "partial", or
    "not_squarefree": the trial_cofactor scan, then its cofactor_tier."""
    rest = trial_cofactor(m, bound)
    if rest is None:
        return "not_squarefree"
    return cofactor_tier(rest, bound)


def _iroot(n: int, e: int) -> int:
    """floor(n ** (1/e)) in pure integer arithmetic."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // e)
    while True:
        y = ((e - 1) * x + n // x ** (e - 1)) // e
        if y >= x:
            return x
        x = y


@lru_cache(maxsize=None)  # one small entry per prime exponent ever tried
def _power_screen(e: int) -> tuple[int, ...]:
    """The first _POWER_SCREEN_PRIMES odd primes q == 1 (mod e)."""
    step = math.lcm(2, e)  # q odd and q == 1 (mod e)
    screen: list[int] = []
    q = 1 + step
    while len(screen) < _POWER_SCREEN_PRIMES:
        if is_prime(q):
            screen.append(q)
        q += step
    return tuple(screen)


def _not_a_power(n: int, e: int) -> bool:
    """True when some screen prime q shows n is no e-th power: for q not
    dividing n, an e-th power r**e has (r**e)**((q-1)/e) == r**(q-1) == 1
    (mod q) by Fermat.  False proves nothing."""
    for q in _power_screen(e):
        r = n % q
        if r and pow(r, (q - 1) // e, q) != 1:
            return True
    return False


def _is_perfect_power(n: int, bound: int) -> bool:
    """True iff n = r**e with e >= 2, for n with no prime factor <= bound.

    Every such root r exceeds bound, so n >= (bound + 1)**e and e is at
    most n.bit_length() // floor(log2(bound + 1)).  Only prime exponents
    are tried: r**(p*f) is also the p-th power of r**f, which exceeds
    bound as well.  A residue screen rules most exponents out before the
    exact integer root (Bernstein, Math. Comp. 67, 1998).
    """
    max_e = n.bit_length() // (max(bound + 1, 2).bit_length() - 1)
    return any(
        not _not_a_power(n, e) and _iroot(n, e) ** e == n for e in primes_upto(max_e)
    )


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
    m: int, sets: SetSystem, phi: dict[int, int], sch: Schedule
) -> dict[int, FactorWitness]:
    """One verified witness prime for every offset in [-y, y].

    Every witness is a pure divisibility fact (p | m+u with p < m+u);
    an uncovered offset means the construction itself is broken, so it
    raises rather than returning a partial cover.
    """
    y = sch.y
    if m < 2 * y:
        raise ValueError(f"m={m} violates m >= 2y = {2 * y}")
    u1_set = set(sets.u1)
    u3_set = set(sets.u3)
    cover: dict[int, FactorWitness] = {}
    for u in range(-y, y + 1):
        if u in phi:
            p = phi[u]
        elif u in u1_set:
            p = next(q for q in sets.p1 if u % q == 0)
        elif u in u3_set:
            p = next((q for q in sets.p2 if (u + 1) % q == 0), 0)
        else:
            p = 0
        value = m + u
        if p == 0 or value % p != 0 or p >= value:
            raise RuntimeError(
                f"offset {u} lacks a valid witness (got p={p}); "
                "the covering construction is inconsistent"
            )
        cover[u] = FactorWitness.checked(value, p)
    return cover


def avoidance_constant(m: int, y: int) -> float:
    """Measured ratio y * (logloglog m)^2 / (log m loglog m logloglog(log m)).

    Needs m large enough that the fourth iterated log is positive
    (m > e^(e^e)).
    """
    l1 = natural_log(m)
    l2 = math.log(l1)
    l3 = math.log(l2)
    if l3 <= 0:
        raise ValueError(f"m={m} too small: third iterated log is <= 0")
    l4 = math.log(l3)
    if l4 <= 0:
        raise ValueError(f"m={m} too small: fourth iterated log is <= 0")
    return y * l3 * l3 / (l1 * l2 * l4)


@dataclass(frozen=True)
class AvoidanceCertificate:
    """Complete verifiable output of one squarefree run."""

    schedule: Schedule
    sets: SetSystem
    phi: dict[int, int]
    n: int
    m0: int
    m: int
    cover: dict[int, FactorWitness]
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
    trace = [sch.y]
    while True:
        sets = build_sets(sch)
        decision = capacity_check(sch, len(sets.u6), len(sets.p3))
        if decision.ok:
            break
        if decision.status == "shrink":
            sch = sch.shrunk(decision.new_y)
            trace.append(sch.y)
            continue
        raise CapacityError(
            f"capacity failed at y={sch.y}: |u6|={decision.needed} > "
            f"|p3|={decision.available} and y cannot shrink below 3",
            needed=decision.needed,
            available=decision.available,
        )

    phi = assign_primes(sets)
    n, m0 = solve_m0(sets, phi)
    search = find_squarefree_in_ap(m0, n, sch, max_steps=max_steps)
    cover = verify_window(search.m, sets, phi, sch)
    try:
        constant = avoidance_constant(search.m, sch.y)
    except ValueError:
        constant = None
    return AvoidanceCertificate(
        schedule=sch,
        sets=sets,
        phi=phi,
        n=n,
        m0=m0,
        m=search.m,
        cover=cover,
        squarefree_status=search.status,
        squarefree_bound=search.trial_bound,
        exponent_report=natural_log(search.m) / natural_log(n),
        avoidance_constant=constant,
        autoshrink_trace=tuple(trace),
        seed=seed,
    )
