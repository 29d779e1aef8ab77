"""Exact integer and modular arithmetic primitives.

Everything here is a pure function over Python ints (arbitrary precision,
no rounding); fixed-width inner loops are delegated to ``kernels``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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
TRIAL_FACTOR_LIMIT = 10**12
ROOT_ENUM_LIMIT = 10**6

_MERTENS_FRAC_BITS = 96


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

    def holds_for(self, n: int) -> bool:
        return n % self.modulus == self.residue


@dataclass(frozen=True)
class FactorWitness:
    """A prime divisor p of n; p < n certifies n composite."""

    n: int
    p: int
    cofactor_gt_one: bool

    @classmethod
    def checked(cls, n: int, p: int) -> "FactorWitness":
        if p < 2 or n % p != 0:
            raise ValueError(f"{p} does not witness a factor of {n}")
        return cls(n=n, p=p, cofactor_gt_one=p < n)

    def verify(self) -> bool:
        if self.p < 2 or self.n % self.p != 0:
            return False
        return self.cofactor_gt_one == (self.p < self.n)

    def certifies_composite(self) -> bool:
        return self.verify() and self.cofactor_gt_one


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


@lru_cache(maxsize=1)
def _small_primorial() -> int:
    """Product of the primes below _PRIMORIAL_BOUND."""
    return math.prod(kernels.iter_primes(_PRIMORIAL_BOUND - 1))


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


def largest_prime_factor(n: int) -> int:
    """P+(n) by trial division, with the convention P+(1) = 1."""
    if n < 1:
        raise ValueError(f"largest_prime_factor needs n >= 1, got {n}")
    if n > TRIAL_FACTOR_LIMIT:
        raise ValueError(f"{n} is too large to factor (bound {TRIAL_FACTOR_LIMIT})")
    if n == 1:
        return 1
    return kernels.largest_prime_factor_u64(n)


def is_smooth(n: int, z: float) -> bool:
    """True iff every prime factor of n is <= z.

    n = 1 counts as smooth for any z >= 0.
    """
    if z < 0:
        raise ValueError(f"smoothness bound must be >= 0, got {z}")
    if n == 1:
        return True
    return largest_prime_factor(n) <= z


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


def natural_log(n) -> float:
    """log of an int or float of any size (math.log handles big ints)."""
    return math.log(n)
