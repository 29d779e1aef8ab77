"""Fixed-width inner loops: sieve, the strong-probable-prime round and the
table of bases that makes it a proof (proof_bases), u64 primality,
Jacobi symbols, residue-class striking and stamping, and sifted counts.

All inputs are machine-range integers, except strong_probable_prime,
which takes any int: numtheory runs it above 2**64 too.  Callers reach
these through the module attributes (``kernels.sieve_primes``), so a
wrapper installed on the module sees every call.
"""

from itertools import chain, compress
from math import isqrt

# e2ebench/run.py's environment probe prints this and refuses to run without it.
BACKEND = "python"

# the first thirteen primes: is_prime_u64's trial divisors and the bases
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Each bound is the least strong pseudoprime to all of the first t prime
# bases, so below it those t bases decide primality (Pomerance, Selfridge
# & Wagstaff 1980; Jaeschke, Math. Comp. 61, 1993; Sorenson & Webster,
# Math. Comp. 86, 2017, for t = 12 and 13).
_BASE_TIERS = tuple(
    (bound, _WITNESSES[:t])
    for bound, t in (
        (2047, 1),
        (1373653, 2),
        (25326001, 3),
        (3215031751, 4),
        (2152302898747, 5),
        (3474749660383, 6),
        (341550071728321, 7),
        (318665857834031151167461, 12),
        (3317044064679887385961981, 13),
    )
)


def sieve_primes(limit):
    """All primes <= limit, ascending."""
    return list(iter_primes(limit))


def iter_primes(limit):
    """Iterator over the primes <= limit, ascending, holding only the
    sieve's bytearray rather than a list of the primes."""
    if limit < 2:
        return iter(())
    return chain((2,), compress(range(1, limit + 1, 2), odd_sieve(limit)))


def odd_sieve(limit, lo=1):
    """Sieve of Eratosthenes over the odd numbers from lo (odd) up to
    limit: a bytearray whose index i is 1 exactly when lo + 2i <= limit is
    prime.  From lo = 1 the sieve strikes with its own primes; a segment
    from a larger lo strikes with those of a sieve up to sqrt(limit)."""
    size = max(0, (limit - lo) // 2 + 1)
    flags = bytearray(b"\x01") * size
    if lo == 1 and size:
        flags[0] = 0  # 1 is not prime
    root = isqrt(max(limit, 0))
    # from lo = 1, flags[j] is final by the time the loop reaches it
    base = flags if lo == 1 else odd_sieve(root)
    for j in range(1, (root + 1) // 2):
        if base[j]:
            p = 2 * j + 1
            first = max(p * p, lo + -lo % p)  # smaller multiples are struck
            if first % 2 == 0:
                first += p
            i = (first - lo) // 2
            if i < size:
                flags[i::p] = bytes((size - 1 - i) // p + 1)
    return flags


def strong_probable_prime(n, bases):
    """True when odd n > 2 is a strong probable prime to every base of
    ``bases``; n - 1 = d * 2**r is split once for all of them."""
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def proof_bases(n):
    """The bases of the first row of _BASE_TIERS above n: they decide n."""
    return next(b for bound, b in _BASE_TIERS if n < bound)


def is_prime_u64(n):
    """Deterministic strong-pseudoprime test, n < 2**64: trial division by
    the witnesses, then strong_probable_prime to proof_bases(n) (twelve
    from 341550071728321 up)."""
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    return strong_probable_prime(n, proof_bases(n))


def jacobi_sym(a, n):
    """Jacobi symbol (a/n) for odd n >= 1, 0 <= a < n."""
    if n == 1:
        return 1
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def strike(flags, classes):
    """Zero flags[start], flags[start + step], ... to the end of the
    bytearray ``flags`` for every (start, step) pair in ``classes``;
    a start at or past the end strikes nothing."""
    size = len(flags)
    for start, step in classes:
        if start < size:
            flags[start::step] = bytes((size - 1 - start) // step + 1)


def stamp(size, classes):
    """A list of ``size`` zeros in which every (start, step) pair of
    ``classes`` writes step at index start, start + step, ... to the end;
    where classes overlap, the one written last wins, and a start at or
    past the end writes nothing."""
    table = [0] * size
    for start, step in classes:
        if start < size:
            table[start::step] = [step] * ((size - 1 - start) // step + 1)
    return table


def sifted_count(limit, rules):
    """Count n in [1, limit] avoiding every forbidden residue class.

    ``rules`` is a sequence of (p, residues) pairs; n survives when
    n % p is in no residue set.
    """
    alive = bytearray(b"\x01") * (limit + 1)
    alive[0] = 0
    strike(alive, ((r if r >= 1 else p, p) for p, residues in rules for r in residues))
    return sum(alive)
