"""Exact integer and modular arithmetic primitives, including the one
primality rule (is_prime, and prime_tier: "proven" or "prp"), the covering
core both pipelines share: the greedy class rule, the large band built on
it (large_band), the pass that drops idle congruences, and the window rule
keyed by the element m^k + u + shift (squarefree k = 1, shift 0; kpower
shift -1), which turns classes into congruences (class_congruences) and
checks the window (window_cover); the progression prime search both
pipelines run (find_prime_in_ap: kpower for its prime m, squarefree for the
prime cofactor of its m), the tiered squarefree check that the squarefree
search and the verifier fall back on (its head scans is_prime's primorial
in cached trial blocks), the cap on the powers m^k that the kpower
construction and the verifier build (MAX_POWER_BITS), and the
worker-process policy that the prime search and the trial scan use.

Everything else here is a pure function over Python ints (arbitrary
precision, no rounding); fixed-width inner loops are delegated to
``kernels``.
"""

from __future__ import annotations

import math
import os
from array import array
from collections import Counter, deque, namedtuple
from contextlib import closing
from functools import lru_cache
from itertools import chain, compress

from . import kernels
from .errors import ConstructionError, SearchExhausted

# The last bound of the kernels' base table: below it the table's bases
# decide primality; above it is_prime runs BPSW, which no known composite
# passes but which is not a proof.
MR_DETERMINISTIC_BOUND = kernels._BASE_TIERS[-1][0]
# is_prime screens n >= 2**64 by one gcd with the product of the primes
# below this bound, and a trial scan starts with the trial blocks it is
# taken over (the head; both built on first use).  Each band-one prime p
# of a squarefree run divides its m by construction, so p*p divides a
# candidate with chance 1/p: most rejects end in the head's first block,
# 24 times cheaper at 5,600 bits than a gcd with the whole product.  A
# small m, such as a small-x search's, is settled by the head alone: its
# cofactor falls below the square of the bound.
_PRIMORIAL_BOUND = 2**16

SIEVE_LIMIT = 10**8
ROOT_ENUM_LIMIT = 10**6

_MERTENS_FRAC_BITS = 96

SQUAREFREE_TRIAL_BOUND = 10**7
TRIAL_BLOCK_BITS = 2000  # fewer gcds when larger, earlier exit for small m when smaller
# integers per trial block: theta(x) ~ x makes their primes' product
# about TRIAL_BLOCK_BITS bits; even, so each block starts on an odd number
_TRIAL_BLOCK_SPAN = 2 * round(TRIAL_BLOCK_BITS * math.log(2) / 2)
_POWER_SCREEN_PRIMES = 8  # a non-power passes each prime with chance 1/e
# The verifier and the kpower construction build m^k only when k * bits(m)
# is at most this.  The largest power any documented run builds, kpower
# k=3 at x=10^5, has 3 * 2,792 = 8,376 bits; a copy of a kpower k=2
# x=600 certificate claiming k = 3*10^6 would ask for a power of 2.4*10^9
# bits and run for minutes before any verdict.
MAX_POWER_BITS = 2**16

DEFAULT_PRIME_STEPS = 100_000
# The progression sieve's prime bound, for members of every size.  A
# sieve prime p costs one root in the table (_root_table) and spares the
# test of each survivor it divides, and under 2^16 is_prime's primorial
# gcd already rejects a survivor for less than a base-2 round.  On a
# 2-core host (CPython 3.11), find_prime_in_ap's medians with a bound of
# (bits/32)^3 in [2^10, 2^18] against this one: 5.5 against 5.5 ms at
# 517 bits, 3.0 against 3.8 ms at 170, 1.5 against 1.5 ms at 167, 102
# against 89 ms at 1,311, 1,141 against 1,105 ms at 2,089 and 515
# against 520 ms at 2,789; from 1024 bits up the search is flat within
# noise from 2^12 to 2^18, and single runs at 2,089 bits were 7% slower
# at 2^11 and 12% slower at 2^10.
_SIEVE_DEPTH = 2**12
# the number of steps sieved at a time
_SIEVE_CHUNK = 1024
# Sieve survivors of at least this many bits are tested in worker
# processes.  On a 2-core host (CPython 3.11) a base-2 round costs 4.4 ms
# at 1024 bits and 30 ms at 2048, and starting and stopping a 2-worker
# pool 15 ms (benchmarks/bench_kernels.py), so below this size the pool
# costs more than it saves.
_POOL_MIN_BITS = 1024
# a large host forks no more workers than this: a prime search wastes
# about one survivor test per worker past the first prime, and a trial
# scan's slices shrink while each worker's start-up cost does not
_MAX_WORKERS = 8


class Congruence(namedtuple("Congruence", "residue modulus")):
    """residue mod a prime modulus, validated on construction."""

    __slots__ = ()

    def __new__(cls, residue: int, modulus: int):
        if modulus < 2 or not is_prime(modulus):
            raise ValueError(f"congruence modulus {modulus} is not prime")
        if not 0 <= residue < modulus:
            raise ValueError(f"residue {residue} out of range for modulus {modulus}")
        return super().__new__(cls, residue, modulus)


def primes_upto(n: int) -> list[int]:
    """Ordered list of primes <= n (n <= 10**8)."""
    n = int(n)
    if n > SIEVE_LIMIT:
        raise ValueError(f"sieve limit {n} exceeds desk bound {SIEVE_LIMIT}")
    if n < 2:
        return []
    return kernels.sieve_primes(n)


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas probable-prime test with Selfridge's parameters.

    n is odd and > 1.  D is the first of 5, -7, 9, -11, ... with
    (D/n) = -1, P = 1 and Q = (1 - D)/4.  A perfect square has no such D,
    so squares are rejected first.
    """
    if math.isqrt(n) ** 2 == n:
        return False
    d_abs, sign = 5, 1
    while True:
        # every Selfridge D is 1 mod 4, so reciprocity gives (D/n) = (n/|D|)
        j = jacobi(n, d_abs)
        if j == -1:
            break
        if j == 0:
            return n == d_abs  # otherwise gcd(D, n) is a proper factor
        d_abs, sign = d_abs + 2, -sign
    D = sign * d_abs
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # left-to-right binary chain over d: (U, V, Qk) = (U_k, V_k, Q^k) mod n
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = (U + V) % n, (D * U + V) % n
            if U & 1:
                U += n
            if V & 1:
                V += n
            U, V, Qk = U >> 1, V >> 1, Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _pool_workers() -> int:
    """Worker processes for a pooled job: the CPUs this process may run
    on, at most _MAX_WORKERS.  1 (work in-process) without os.fork, or
    while another thread runs, since a forked worker would inherit any
    lock that thread held."""
    import threading

    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, _MAX_WORKERS)


def _start_pool(workers: int):
    """A process pool of ``workers`` forked workers: a fork starts with the
    parent's modules already imported, where a spawned worker re-imports
    them."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))


@lru_cache(maxsize=4)
def _primorial(limit: int) -> int:
    """Product of the primes <= limit (94,027 bits at _PRIMORIAL_BOUND - 1),
    over _head_blocks: eight interleaved partial products first, so that
    large operands meet only in the last seven multiplications."""
    blocks = [product for _, product in _head_blocks(limit)]
    return math.prod(math.prod(blocks[i::8]) for i in range(8))


def _bpsw(n: int) -> bool:
    """Baillie-PSW test for odd n > 1: a base-2 strong probable-prime test
    plus a strong Lucas test.  No composite is known to pass both."""
    return kernels.strong_probable_prime(n, (2,)) and _strong_lucas_probable_prime(n)


def is_prime(n: int) -> bool:
    """Primality test, deterministic for every n.

    Below MR_DETERMINISTIC_BOUND (about 3.3e24) the verdict is a proof:
    kernels.strong_probable_prime to kernels.proof_bases(n), the first one
    to thirteen primes by the size of n (below 2**64 through
    kernels.is_prime_u64).
    Above that bound the verdict is BPSW's: "False" is a proof of
    compositeness, "True" means a BPSW probable prime (prime_tier).
    From 2**64 up, one gcd with the product of the primes below 2**16
    first rejects n with a small factor: n exceeds every such prime, so a
    common factor proves n composite.
    """
    if n < 2:
        return False
    if n < 2**64:
        return kernels.is_prime_u64(n)
    if math.gcd(n, _primorial(_PRIMORIAL_BOUND - 1)) != 1:
        return False
    if n < MR_DETERMINISTIC_BOUND:
        return kernels.strong_probable_prime(n, kernels.proof_bases(n))
    return _bpsw(n)


def prime_tier(n: int) -> str:
    """The tier of an n that is_prime accepted: "proven" below
    MR_DETERMINISTIC_BOUND, where its verdict is a proof, and "prp", a
    BPSW probable prime, above."""
    return "proven" if n < MR_DETERMINISTIC_BOUND else "prp"


def _root_table(m0: int, modulus: int, bound: int) -> tuple[array, array]:
    """The primes p <= bound that do not divide the modulus, and for each
    the step class -m0 / modulus (mod p) of the members it divides."""
    primes, roots = array("i"), array("i")
    for p in kernels.iter_primes(bound):
        step = modulus % p
        if step:
            primes.append(p)
            roots.append(-(m0 % p) * pow(step, -1, p) % p)
    return primes, roots


def _sieved_steps(m0: int, modulus: int, last: int):
    """Steps j = 1..last, ascending, whose member m0 + j*modulus has no
    prime factor p <= _SIEVE_DEPTH that is coprime to the modulus, or is
    itself at most _SIEVE_DEPTH.

    Such a p divides the member exactly when j == -m0 / modulus (mod p).
    The root is kept per prime in a compact array, and the steps are
    sieved _SIEVE_CHUNK at a time.  Members at or below _SIEVE_DEPTH are
    always yielded, so a small prime member is never sieved away by
    itself.
    """
    primes, roots = _root_table(m0, modulus, _SIEVE_DEPTH)
    small = (_SIEVE_DEPTH - m0) // modulus  # j <= small: member <= _SIEVE_DEPTH
    for j0 in range(1, last + 1, _SIEVE_CHUNK):
        size = min(_SIEVE_CHUNK, last + 1 - j0)
        alive = bytearray(b"\x01") * size
        kernels.strike(alive, (((r - j0) % p, p) for p, r in zip(primes, roots)))
        keep = min(size, small - j0 + 1)
        if keep > 0:
            alive[:keep] = b"\x01" * keep
        yield from compress(range(j0, j0 + size), alive)


def _test_member(n: int) -> bool:
    # the pool pickles this function by name; the worker then calls
    # whatever this module's is_prime is bound to, which need not pickle
    return is_prime(n)


def _prime_verdicts(members):
    """Yield (n, is_prime(n)) for every n of ``members``, in input order.

    Members are tested here until the first one of _POOL_MIN_BITS bits or
    more; from there on they go to _pool_workers() worker processes,
    with one test in flight per worker and one more queued, so that a
    worker that finishes need not wait for the consumer to read a
    verdict.
    Every member gets the full is_prime and no verdict is skipped or
    reordered, so a caller that stops at the first prime gets the serial
    search's answer.  Closing the generator cancels the queued tests and
    shuts the pool down once the running ones end.
    """
    members = iter(members)
    for n in members:
        big = n.bit_length() >= _POOL_MIN_BITS
        if big and (workers := _pool_workers()) > 1:
            break
        yield n, is_prime(n)
    else:
        return
    pool = _start_pool(workers)
    ahead: deque = deque()
    try:
        for n in chain((n,), members):
            ahead.append((n, pool.submit(_test_member, n)))
            if len(ahead) > workers:
                n, verdict = ahead.popleft()
                yield n, verdict.result()
        for n, verdict in ahead:
            yield n, verdict.result()
    finally:
        pool.shutdown(cancel_futures=True)


def find_prime_in_ap(
    m0: int, modulus: int, max_steps: int = DEFAULT_PRIME_STEPS
) -> int:
    """Smallest prime m0 + j*modulus with 1 <= j <= max_steps.

    Every step that survives the progression sieve goes through the full
    is_prime, in step order (_prime_verdicts); SearchExhausted.tests
    counts those tests."""
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    if math.gcd(m0, modulus) != 1:
        raise ValueError("m0 and modulus are not coprime: progression has no primes")
    members = (m0 + j * modulus for j in _sieved_steps(m0, modulus, max_steps))
    tests = 0
    with closing(_prime_verdicts(members)) as verdicts:
        for candidate, prime in verdicts:
            tests += 1
            if prime:
                return candidate
    raise SearchExhausted(
        f"no prime in {max_steps} progression steps "
        f"({tests} probable-prime tests performed)",
        steps=max_steps,
        tests=tests,
    )


def struck_witnesses(y: int, classes) -> list[int]:
    """The least modulus striking each offset of the window [-y, y]: at
    index u + y, the least q of the (class c, prime q) pairs of
    ``classes`` with u == c (mod q), 0 when no pair strikes u.

    One kernels.stamp, with the moduli in descending order, so that the
    least one is written last at every offset it strikes.
    """
    ordered = sorted(classes, key=lambda pair: pair[1], reverse=True)
    return kernels.stamp(2 * y + 1, (((c + y) % q, q) for c, q in ordered))


def greedy_classes(
    offsets, primes, admissible=lambda c, p: True
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Each prime p of ``primes``, in the order given, takes the class
    c in [0, p) with admissible(c, p) that holds the most of ``offsets``
    that no earlier class strikes, the least such c on a tie (the least
    admissible c once none are left).  Returns the classes, one per prime,
    and the offsets that no class strikes."""
    left = tuple(offsets)
    classes = []
    for p in primes:
        counts = Counter(u % p for u in left)
        best = (c for c in counts if admissible(c, p))
        c = min(best, key=lambda c: (-counts[c], c), default=None)
        if c is None:
            c = next(c for c in range(p) if admissible(c, p))
        classes.append(c)
        left = tuple(u for u in left if u % p != c)
    return tuple(classes), left


def large_band(offsets, primes, y: int, admissible=lambda c, p: True):
    """The large band's (class, prime) pairs, ascending by prime, and the
    offsets left open.  The primes q <= y take greedy classes; the offsets
    they leave are matched to the primes above y, the edge (u, q) holding
    when admissible(u mod q, q): each, in order, takes the first free
    prime whose edge holds, then each one unmatched seeks an augmenting
    path (Kuhn's algorithm).  An edge is tested once, when reached."""
    small = [q for q in primes if q <= y]
    above = [q for q in primes if q > y]
    classes, left = greedy_classes(offsets, small, admissible)
    edge = lru_cache(maxsize=None)(lambda u, q: admissible(u % q, q))
    owner: dict[int, int] = {}  # matched prime -> its offset

    def augment(u: int, seen: set[int]) -> bool:
        for q in above:
            if q not in seen and edge(u, q):
                seen.add(q)
                if q not in owner or augment(owner[q], seen):
                    owner[q] = u
                    return True
        return False

    free, waiting = list(above), []
    for u in left:
        i = next((i for i, q in enumerate(free) if edge(u, q)), None)
        if i is None:
            waiting.append(u)
        else:
            owner[free.pop(i)] = u
    still = tuple(u for u in waiting if not augment(u, set()))
    matched = ((owner[q] % q, q) for q in above if q in owner)
    return [*zip(classes, small), *matched], still


def drop_idle(y: int, classes) -> list[tuple[int, int]]:
    """The (class c, prime q) pairs of ``classes``, in order, whose q is
    the least modulus striking some offset of [-y, y]: the others witness
    nothing and would only make the modulus larger."""
    classes = list(classes)
    witnesses = set(struck_witnesses(y, classes))
    return [pair for pair in classes if pair[1] in witnesses]


def class_congruences(y: int, classes, k: int, shift: int) -> tuple[Congruence, ...]:
    """m == r (mod p) for each (class c, prime p) that drop_idle keeps, r
    the least root of r^k == -shift - c (mod p), so that p divides
    m^k + u + shift for every u == c (mod p); ConstructionError if none."""
    congruences = []
    for c, p in drop_idle(y, classes):
        a = (-shift - c) % p
        roots = (a,) if k == 1 else kth_roots_mod_p(a, k, p)
        if not roots:
            raise ConstructionError(f"class {c} mod {p}: no nonzero root for m")
        congruences.append(Congruence(min(roots), p))
    return tuple(congruences)


def window_cover(m: int, congruences, y: int, k: int, shift: int, skip=None):
    """The least modulus q striking each offset u of [-y, y], where
    m == r (mod q) strikes u == -shift - r^k, checked to divide
    m^k + u + shift and to be below it; then every offset but ``skip``
    (kpower's u = 1, whose element is m^k) must be struck.  A failed check
    is a construction bug, so it raises ConstructionError.  The base
    m^k + shift is reduced once per modulus; each offset is then checked
    in small ints, and no element is built."""
    base = m**k + shift
    residue = {c.modulus: base % c.modulus for c in congruences}
    witness = struck_witnesses(
        y, ((-shift - pow(c.residue, k, c.modulus), c.modulus) for c in congruences)
    )
    cover = {u: q for u, q in zip(range(-y, y + 1), witness) if q}
    for u, q in cover.items():
        if (residue[q] + u) % q or q - u >= base:
            raise ConstructionError(f"offset {u}: invalid witness q={q}; construction bug")
    for u in range(-y, y + 1):
        if u not in cover and u != skip:
            raise ConstructionError(f"offset {u} lacks a witness; construction bug")
    return cover


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n); equals the Legendre symbol for prime n."""
    if n < 1 or n % 2 == 0:
        raise ValueError(f"Jacobi symbol needs odd positive n, got {n}")
    a %= n
    return kernels.jacobi_sym(a, n)


def kth_roots_mod_p(a: int, k: int, p: int) -> set[int]:
    """{n in [0,p) : n**k == a (mod p)}, by full residue enumeration.

    Every modulus used at desk scale is small, so O(p) enumeration is
    cheap and unconditionally correct.  An empty set means unsolvable.
    """
    if k < 1:
        raise ValueError(f"exponent must be >= 1, got {k}")
    if p > ROOT_ENUM_LIMIT:
        raise ValueError(f"modulus {p} exceeds enumeration bound {ROOT_ENUM_LIMIT}")
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    a %= p
    return {n for n in range(p) if pow(n, k, p) == a}


def kth_root_count(a: int, k: int, p: int) -> int:
    """|{n in [0,p) : n**k == a (mod p)}| for prime p, in closed form.

    The unit group mod p is cyclic of order p - 1, so with g = gcd(k, p-1)
    a nonzero a has g k-th roots when a**((p-1)/g) == 1 (Euler's
    criterion) and none otherwise; a == 0 has the single root 0.
    """
    if k < 1:
        raise ValueError(f"exponent must be >= 1, got {k}")
    a %= p
    if a == 0:
        return 1
    g = math.gcd(k, p - 1)
    return g if pow(a, (p - 1) // g, p) == 1 else 0


def crt_solve(congruences) -> tuple[int, int]:
    """Solve a system of congruences with pairwise distinct prime moduli.

    Returns (m0, N) with N the product of the moduli and m0 the unique
    solution in [0, N).  A modulus used twice is a fault of the system's
    builder, so it raises ConstructionError.
    """
    congs = [
        c if isinstance(c, Congruence) else Congruence(residue=c[0], modulus=c[1])
        for c in congruences
    ]
    seen = set()
    for c in congs:
        if c.modulus in seen:
            raise ConstructionError(f"duplicate modulus {c.modulus}")
        seen.add(c.modulus)
    m, prod = 0, 1
    for c in congs:
        t = ((c.residue - m) * pow(prod, -1, c.modulus)) % c.modulus
        m += prod * t
        prod *= c.modulus
    return m, prod


def mertens_product(w: int) -> float:
    """prod_{p <= w} (1 - 1/p), accumulated in 96-fractional-bit fixed point.

    Plain doubles would be fine at small w, but the fixed-point product
    keeps the full-range error below one part in 1e20 even at w = 1e8.
    """
    if w < 2:
        raise ValueError(f"mertens_product needs w >= 2, got {w}")
    acc = 1 << _MERTENS_FRAC_BITS
    for p in primes_upto(w):
        acc = acc * (p - 1) // p
    return acc / (1 << _MERTENS_FRAC_BITS)


def avoidance_constant(m: int, y: int) -> float:
    """Measured ratio y * (logloglog m)^2 / (log m loglog m logloglog(log m)).

    Needs m large enough that the fourth iterated log is positive
    (m > e^(e^e)).
    """
    l1 = math.log(m)
    l2 = math.log(l1)
    l3 = math.log(l2)
    if l3 <= 0:
        raise ValueError(f"m={m} too small: third iterated log is <= 0")
    l4 = math.log(l3)
    if l4 <= 0:
        raise ValueError(f"m={m} too small: fourth iterated log is <= 0")
    return y * l3 * l3 / (l1 * l2 * l4)


def _trial_block_count(bound: int) -> int:
    """Intervals of _TRIAL_BLOCK_SPAN consecutive integers up to bound."""
    return -(-bound // _TRIAL_BLOCK_SPAN) if bound >= 2 else 0


def _block_products(bound: int, start: int, stop: int):
    """Yield the trial blocks of intervals start..stop-1 of the primes
    <= bound as (lower end, product) pairs, read straight off an odd
    sieve of just those intervals.  Since theta(x) ~ x, a full block's
    product has about TRIAL_BLOCK_BITS bits.  The lower end is at most
    every prime of its block and of the blocks after it; 2 is folded into
    the first block, and an interval without a prime yields nothing."""
    if bound < 2:
        return
    lo = start * _TRIAL_BLOCK_SPAN + 1
    hi = min(bound, stop * _TRIAL_BLOCK_SPAN)
    flags = kernels.odd_sieve(hi, lo)
    step = _TRIAL_BLOCK_SPAN // 2  # odd numbers per interval
    for i in range(0, len(flags), step):
        first = lo + 2 * i
        primes = compress(range(first, hi + 1, 2), flags[i : i + step])
        product = math.prod(primes, start=2 if first == 1 else 1)
        if product > 1:
            yield first, product


@lru_cache(maxsize=4)
def _head_blocks(limit: int) -> tuple[tuple[int, int], ...]:
    """The trial blocks of the primes <= limit, built once per process."""
    return tuple(_block_products(limit, 0, _trial_block_count(limit)))


def _scan_blocks(rest: int, blocks) -> int | None:
    """rest with every prime of ``blocks`` that divides it divided out
    once, or None when one of them divides it twice.

    A block of consecutive primes per gcd: g = gcd(rest, block) is the
    product of the block's primes that divide rest, and a repeated factor
    shows as gcd(rest // g, g) > 1.  The scan stops early once the next
    block's lower end p has p*p > rest.  rest without its prime factors
    below p is then less than p*p, so it is 1 or a prime: no prime from p
    on divides rest twice, and at most one divides it at all.
    """
    for first, block in blocks:
        if first * first > rest:
            break
        g = math.gcd(rest, block)
        if g > 1:
            rest //= g
            if math.gcd(rest, g) > 1:
                return None
    return rest


def _scan_slice(rest: int, bound: int, start: int, stop: int) -> int | None:
    """_scan_blocks over the trial blocks of intervals start..stop-1, built
    here; a pool worker's task, pickled by name."""
    return _scan_blocks(rest, _block_products(bound, start, stop))


def trial_cofactor(m: int, bound: int = SQUAREFREE_TRIAL_BOUND) -> int | None:
    """m with the primes <= bound divided out once each, or None when one
    of those primes divides m twice (m >= 1).

    The head, the primes up to limit = min(bound, _PRIMORIAL_BOUND - 1),
    is scanned here in cached blocks (_head_blocks, _scan_blocks): a
    repeated prime there, or a rest below (limit + 1)**2, 2**32 for the
    full head, ends the scan.  The trial blocks from the one that holds
    _PRIMORIAL_BOUND up go in one contiguous slice per _pool_workers()
    process (a single slice is scanned here, without a pool), and each
    slice builds its own blocks and scans the reduced rest.  The head's
    primes in that first block no longer divide the rest, and every other
    prime <= bound lies in exactly one block, so dividing out what each
    slice divided out gives the cofactor, and a repeated prime shows in
    its own slice.  A slice may stop early as _scan_blocks does, so the
    cofactor is 1, a prime below bound**2, or free of primes <= bound,
    and classify_squarefree gives m the same tier for any number of slices.

    On a 2-core host (CPython 3.11, benchmarks/bench_kernels.py) the head
    rejects a 5,600-bit candidate with 2**2 in 0.03 ms and with 65521**2
    in 1.4 ms, and settles the m of a squarefree x=400 run in 0.003 ms.
    A full scan takes 0.36 s with the blocks after the head in one slice
    and 0.35 s in two workers at 2048 bits, and 0.46 s and 0.26 s at
    5,600 bits.
    """
    if m < 1:
        raise ValueError(f"trial_cofactor needs m >= 1, got {m}")
    limit = min(bound, _PRIMORIAL_BOUND - 1)
    rest = _scan_blocks(m, _head_blocks(limit))
    if rest is None or limit == bound or (limit + 1) ** 2 > rest:
        return rest
    head = (_PRIMORIAL_BOUND - 1) // _TRIAL_BLOCK_SPAN  # the block holding the bound
    blocks = _trial_block_count(bound)
    slices = min(_pool_workers(), blocks - head)
    if slices == 1:
        return _scan_slice(rest, bound, head, blocks)
    cuts = [head + (blocks - head) * i // slices for i in range(slices + 1)]
    with _start_pool(slices) as pool:
        parts = [
            pool.submit(_scan_slice, rest, bound, start, stop)
            for start, stop in zip(cuts, cuts[1:])
        ]
        parts = [part.result() for part in parts]
    if any(part is None for part in parts):
        return None
    return rest // math.prod(rest // part for part in parts)


def classify_squarefree(
    m: int, bound: int = SQUAREFREE_TRIAL_BOUND, test_primality: bool = True
) -> str:
    """Tiered squarefree check: "proven", "prp", "partial" or
    "not_squarefree".

    The trial_cofactor scan rejects a prime <= bound that divides m twice.
    Its cofactor rest is then 1, a prime, a proper perfect power, or
    opaque.  A prime takes prime_tier's tier, "proven" when is_prime's
    verdict is a proof and "prp" when it is only a BPSW probable prime;
    the opaque case is left "partial" (possible for m > bound**2).
    The perfect-power test relies on the full scan, which leaves no prime
    factor <= bound; see _is_perfect_power.  With ``test_primality``
    false a prime above bound**2 is left "partial" too: the primality
    test only picks the tier and never finds a square factor.
    """
    rest = trial_cofactor(m, bound)
    if rest is None:
        return "not_squarefree"
    if rest <= bound * bound:
        # a composite cofactor below bound^2 would need a factor <= bound
        return "proven"
    if test_primality and is_prime(rest):
        return prime_tier(rest)
    if _is_perfect_power(rest, bound):
        return "not_squarefree"
    return "partial"


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
