"""Exact integer and modular arithmetic primitives, including the window
tables and struck witnesses that both pipelines classify offsets by, the
tiered squarefree check that the squarefree search and the verifier
share, and the worker-process policy that it and the kpower prime search
use.

Everything else here is a pure function over Python ints (arbitrary
precision, no rounding); fixed-width inner loops are delegated to
``kernels``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress

from . import kernels

# The first thirteen primes decide primality for every n below this
# bound (Sorenson & Webster); above it is_prime runs BPSW, which no known
# composite passes but which is not a proof.
MR_DETERMINISTIC_BOUND = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# is_prime screens n >= 2**64 by one gcd with the product of the primes
# below this bound (about 94k bits, built on first use)
_PRIMORIAL_BOUND = 2**16

SIEVE_LIMIT = 10**8
ROOT_ENUM_LIMIT = 10**6

_MERTENS_FRAC_BITS = 96

SQUAREFREE_TRIAL_BOUND = 10**7
TRIAL_BLOCK_BITS = 2000  # fewer gcds when larger, earlier exit for small m when smaller
# integers per trial block: theta(x) ~ x makes their primes' product
# about TRIAL_BLOCK_BITS bits; even, so each block starts on an odd number
_TRIAL_BLOCK_SPAN = 2 * round(TRIAL_BLOCK_BITS * math.log(2) / 2)
# Trial scans of an m of at least this many bits split the blocks after
# the head (_SCAN_HEAD_BOUND) across worker processes.  A process's first
# in-process scan builds every block ("cold"); later ones reuse them
# ("warm").  On a 2-core host (CPython 3.11, benchmarks/bench_kernels.py)
# a full scan of a 2048-bit m takes 0.51 s cold, 0.18 s warm and 0.30 s
# with 2 workers; of a 10,625-bit m, 0.83 s, 0.52 s and 0.48 s.  From
# this size on the pool saves a first scan (one per construct or verify)
# more than it costs a repeated one; smaller m, such as a small-x
# search's, keep the warm blocks.
_SCAN_POOL_MIN_BITS = 2048
# A pooled scan first checks, in-process, every block holding a prime
# below this bound, against blocks built once per process.  Each band-one
# prime p of a squarefree run divides its m by construction, so p*p
# divides a candidate with chance 1/p; a head ending at the first block
# would leave each such p above 1386 to a pooled scan.  On a 2-core host
# (CPython 3.11, benchmarks/bench_kernels.py, row "head: p^2 | m") the
# head rejects a 5,600-bit candidate with p = 65521 squared in 2 ms, where
# one pooled scan of that size takes 0.29 s.
_SCAN_HEAD_BOUND = 2**16
_POWER_SCREEN_PRIMES = 8  # a non-power passes each prime with chance 1/e
# a large host forks no more workers than this: a prime search wastes
# about one survivor test per worker past the first prime, and a trial
# scan's slices shrink while each worker's start-up cost does not
_MAX_WORKERS = 8


@dataclass(frozen=True)
class Congruence:
    """residue mod a prime modulus, validated on construction."""

    residue: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 2 or not is_prime(self.modulus):
            raise ValueError(f"congruence modulus {self.modulus} is not prime")
        if not 0 <= self.residue < self.modulus:
            raise ValueError(
                f"residue {self.residue} out of range for modulus {self.modulus}"
            )


def primes_upto(n: int) -> list[int]:
    """Ordered list of primes <= n (n <= 10**8)."""
    n = int(n)
    if n > SIEVE_LIMIT:
        raise ValueError(f"sieve limit {n} exceeds desk bound {SIEVE_LIMIT}")
    if n < 2:
        return []
    return kernels.sieve_primes(n)


def _strong_probable_prime(n: int, base: int) -> bool:
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


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


def _balanced_product(values) -> int:
    """The product of ``values``, multiplied pairwise level by level, so
    that large operands meet only near the root, where CPython's Karatsuba
    multiplication pays, instead of one small factor at a time."""
    level = list(values) or [1]
    while len(level) > 1:
        odd = level[-1:] if len(level) % 2 else []
        level = [a * b for a, b in zip(level[::2], level[1::2])] + odd
    return level[0]


@lru_cache(maxsize=1)
def _small_primorial() -> int:
    """Product of the primes below _PRIMORIAL_BOUND (94,027 bits)."""
    return _balanced_product(kernels.iter_primes(_PRIMORIAL_BOUND - 1))


def _bpsw(n: int) -> bool:
    """Baillie-PSW test for odd n > 1: a base-2 strong probable-prime test
    plus a strong Lucas test.  No composite is known to pass both."""
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def is_prime(n: int) -> bool:
    """Primality test, deterministic for every n.

    Below 2**64 the kernel's fixed-base test decides; below
    MR_DETERMINISTIC_BOUND (about 3.3e24) thirteen fixed Miller-Rabin
    bases decide.  Both are proofs.  Above that bound the verdict is
    BPSW's: "False" is a proof of compositeness, "True" means a BPSW
    probable prime.  From 2**64 up, one gcd with the product of the
    primes below 2**16 first rejects n with a small factor: n exceeds
    every such prime, so a common factor proves n composite.
    """
    if n < 2:
        return False
    if n < 2**64:
        return kernels.is_prime_u64(n)
    if math.gcd(n, _small_primorial()) != 1:
        return False
    if n < MR_DETERMINISTIC_BOUND:
        return all(_strong_probable_prime(n, a) for a in _MR_BASES)
    return _bpsw(n)


def struck_witnesses(y: int, classes) -> list[int]:
    """The least modulus striking each offset of the window [-y, y]: at
    index u + y, the least q of the (class c, prime q) pairs of
    ``classes`` with u == c (mod q), 0 when no pair strikes u.

    One kernels.stamp, with the moduli in descending order, so that the
    least one is written last at every offset it strikes.
    """
    ordered = sorted(classes, key=lambda pair: pair[1], reverse=True)
    return kernels.stamp(2 * y + 1, (((c + y) % q, q) for c, q in ordered))


def window_tables(y: int, p1, p2, shift: int) -> tuple[list[int], ...]:
    """Sieve tables of the window [-y, y] that kpower classifies offsets
    by (squarefree reads a band table off struck_witnesses alone):

    * band[u + y]: the least prime of p1 dividing u, 0 when none does;
    * mid[u + y]: the least prime of p2 dividing u + shift, 0 when none
      does;
    * largest[n] for 0 <= n <= y: the largest prime factor of n, 0 for
      n = 0 and n = 1.  So |u| is prime exactly when
      largest[|u|] == |u| > 1, and |u| >= 1 is z-smooth exactly when
      largest[|u|] <= z.

    band and mid are struck_witnesses of the classes 0 and -shift;
    largest is one kernels.stamp of the primes in ascending order.
    """
    band = struck_witnesses(y, ((0, p) for p in p1))
    mid = struck_witnesses(y, ((-shift, p) for p in p2))
    largest = kernels.stamp(y + 1, ((p, p) for p in kernels.iter_primes(y)))
    return band, mid, largest


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
    solution in [0, N).
    """
    congs = [
        c if isinstance(c, Congruence) else Congruence(residue=c[0], modulus=c[1])
        for c in congruences
    ]
    seen = set()
    for c in congs:
        if c.modulus in seen:
            raise ValueError(f"duplicate modulus {c.modulus}")
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
def _trial_blocks(bound: int) -> tuple[tuple[int, int], ...]:
    """Every trial block of the primes <= bound, kept for in-process scans:
    a search scans each of its candidates against them."""
    return tuple(_block_products(bound, 0, _trial_block_count(bound)))


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


def _pooled_cofactor(m: int, bound: int, workers: int) -> int | None:
    """trial_cofactor with the blocks after the head split into up to
    ``workers`` contiguous slices, one per worker process.

    The head, every block holding a prime below _SCAN_HEAD_BOUND, is
    scanned here against blocks built once per process, so a repeated
    prime below that bound returns at once, and so does a rest that the
    head leaves 1 or prime.  Each worker sieves and builds its own slice's
    blocks and scans the reduced rest against them; every prime <= bound
    lies in exactly one block, so dividing out what each worker divided
    out gives the cofactor, and a repeated prime shows in its own slice.
    """
    head = _trial_block_count(min(bound, _SCAN_HEAD_BOUND))
    rest = _scan_blocks(m, _trial_blocks(min(bound, head * _TRIAL_BLOCK_SPAN)))
    blocks = _trial_block_count(bound)
    slices = min(workers, blocks - head)
    # the first block after the head starts at head * _TRIAL_BLOCK_SPAN + 1
    if rest is None or slices < 1 or (head * _TRIAL_BLOCK_SPAN + 1) ** 2 > rest:
        return rest
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


def trial_cofactor(m: int, bound: int = SQUAREFREE_TRIAL_BOUND) -> int | None:
    """m with the primes <= bound divided out once each, or None when one
    of those primes divides m twice (m >= 1).

    The primes are scanned in blocks (_scan_blocks).  An m below
    _SCAN_POOL_MIN_BITS bits, or any m when _pool_workers() is 1, is
    scanned here, against blocks built once per process.  A larger m has
    its blocks after the head (the primes below _SCAN_HEAD_BOUND) split
    across _pool_workers() processes (_pooled_cofactor).  The verdict None
    is the same on both paths, and so is the cofactor, unless a scan
    stopped early:

    * in-process, the scan stops at the first block whose lower end p has
      p*p > rest; the cofactor is then 1 or a prime, possibly <= bound;
    * pooled, each worker stops its own slice that way, so the cofactor
      is again 1 or a prime below bound**2, but it may differ from the
      in-process one (a prime that one path stopped short of, the other
      divided out).

    Either way a cofactor that keeps a prime <= bound is at most bound**2,
    so cofactor_tier gives both paths the same tier.
    """
    if m < 1:
        raise ValueError(f"trial_cofactor needs m >= 1, got {m}")
    if m.bit_length() < _SCAN_POOL_MIN_BITS or (workers := _pool_workers()) == 1:
        return _scan_blocks(m, _trial_blocks(bound))
    return _pooled_cofactor(m, bound, workers)


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
