"""Numeric upper-bound sieve estimates and exact sifted-set counters.

The headline operation evaluates the classical combinatorial-sieve upper
bound

    S <= X * W(z) * {1 + 2 lam^(2b+1) e^(2 lam) / (1 - lam^2 e^(2+2lam))
                         * exp((2b+3) c / (lam log z))}
         + C_err * z^(2b + 2.01/(e^(2 lam/kappa) - 1))

for a sifting instance (X, omega, z).  The constant c inside the
exponential and the O-constant of the tail are not pinned by theory, so
both are exposed as configuration (sieve_c, err_c, default 1) and the
tail is reported as a separate additive line item.  The exact counter
``empirical_sifted_count`` is the independent check that the evaluated
bound actually dominates on concrete instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import kernels
from .numtheory import kth_root_count, primes_upto

SIFT_RANGE_LIMIT = 10**7


@dataclass(frozen=True)
class SieveInstance:
    """Inputs for one upper-bound evaluation.

    size is X = |A|; omega maps each sifting prime to its number of
    forbidden residue classes.  a1 bounds omega(p)/p away from 1, and
    (kappa, a2) bound the weighted prime sums; both are checked
    numerically rather than assumed.
    """

    size: int
    omega: dict[int, int] = field(default_factory=dict)
    z: float = 2.0
    kappa: float = 1.0
    a1: float = 2.0
    a2: float = 8.0
    lam: float = 0.2
    b: int = 1
    sieve_c: float = 1.0
    err_c: float = 1.0

    def validate(self) -> None:
        if self.size < 0:
            raise ValueError("instance size must be >= 0")
        if self.kappa <= 0 or self.a1 < 1 or self.a2 < 1 or self.b < 1:
            raise ValueError("need kappa > 0, A1 >= 1, A2 >= 1, b >= 1")
        if not 0 < self.lam * math.exp(1 + self.lam) < 1:
            raise ValueError(
                f"lambda={self.lam} is inadmissible (lam*e^(1+lam) must be in (0,1))"
            )
        cap = 1 - 1 / self.a1
        for p, w in self.omega.items():
            if not 0 <= w / p <= cap:
                raise ValueError(
                    f"omega({p})={w} violates omega(p)/p <= 1 - 1/A1 = {cap:.4f}"
                )
        self._check_weighted_sums()

    def _check_weighted_sums(self) -> None:
        # sum_{w <= p < z} omega(p) log p / p <= kappa log(z/w) + A2,
        # sampled at every sifting prime and at w = 2.
        ps = sorted(p for p in self.omega if p < self.z)
        samples = [2.0] + [float(p) for p in ps]
        for w in samples:
            total = sum(
                self.omega[p] * math.log(p) / p for p in ps if w <= p < self.z
            )
            budget = self.kappa * math.log(self.z / w) + self.a2
            if total > budget + 1e-12:
                raise ValueError(
                    f"weighted prime sum {total:.4f} from w={w} exceeds "
                    f"kappa*log(z/w)+A2 = {budget:.4f}"
                )


def brun_main_factor(lam: float, b: int) -> float:
    """2 lam^(2b+1) e^(2 lam) / (1 - lam^2 e^(2+2 lam))."""
    if b < 1:
        raise ValueError(f"b must be a positive integer, got {b}")
    if not 0 < lam * math.exp(1 + lam) < 1:
        raise ValueError(
            f"lambda={lam} is inadmissible (lam*e^(1+lam) must be in (0,1))"
        )
    num = 2.0 * lam ** (2 * b + 1) * math.exp(2 * lam)
    den = 1.0 - lam * lam * math.exp(2 + 2 * lam)
    return num / den


def _w_product(inst: SieveInstance) -> float:
    acc = 1.0
    for p, w in inst.omega.items():
        if p < inst.z:
            acc *= 1.0 - w / p
    return acc


def brun_bound_terms(inst: SieveInstance) -> tuple[float, float]:
    """(main term, error budget) of the sieve upper bound."""
    inst.validate()
    factor = brun_main_factor(inst.lam, inst.b)
    logz = math.log(inst.z)
    if logz <= 0:
        raise ValueError(f"z must exceed 1, got {inst.z}")
    correction = factor * math.exp((2 * inst.b + 3) * inst.sieve_c / (inst.lam * logz))
    main = inst.size * _w_product(inst) * (1.0 + correction)
    tail_exp = 2 * inst.b + 2.01 / (math.exp(2 * inst.lam / inst.kappa) - 1.0)
    error = inst.err_c * inst.z**tail_exp
    return main, error


def brun_upper_bound(inst: SieveInstance) -> float:
    """Evaluated sieve upper bound (main term plus error budget)."""
    main, error = brun_bound_terms(inst)
    return main + error


def empirical_sifted_count(range_size: int, residue_rules, z: float) -> int:
    """Exact |{n in [1, range_size] : n mod p not forbidden, all p < z}|.

    Brute force; this is the oracle the evaluated bound is checked
    against.  Rules attached to primes >= z are ignored.
    """
    if range_size < 0 or range_size > SIFT_RANGE_LIMIT:
        raise ValueError(f"range_size must be in [0, {SIFT_RANGE_LIMIT}]")
    if range_size == 0:
        return 0
    rules = [
        (p, tuple(sorted({r % p for r in residues})))
        for p, residues in sorted(residue_rules.items())
        if p < z
    ]
    return kernels.sifted_count(range_size, rules)


def residue_avoid_prime_count(x: int, moduli, a: int) -> tuple[int, float]:
    """Count primes p <= x with p != a (mod r) for every r in moduli.

    Returns the exact count and the comparator value
    (x / log x) * prod_{r <= x} (1 - 1/r); their ratio is reported by
    callers, never asserted.
    """
    if a not in (-1, 1):
        raise ValueError(f"a must be -1 or 1, got {a}")
    if x > SIFT_RANGE_LIMIT:
        raise ValueError(f"x must be <= {SIFT_RANGE_LIMIT}")
    rs = sorted(set(moduli))
    count = 0
    for p in primes_upto(x):
        if all(p % r != a % r for r in rs):
            count += 1
    comparator = x / math.log(x)
    for r in rs:
        if r <= x:
            comparator *= 1.0 - 1.0 / r
    return count, comparator


def rho_product(k: int, v: int, p_lo: int, p_hi: int) -> float:
    """prod_{p_lo < p <= p_hi} (1 - rho(p)/p) with rho(p) the number of
    solutions of n**k + v - 1 == 0 (mod p)."""
    if p_hi > 10**6:
        raise ValueError("p_hi exceeds the desk bound 10**6")
    acc = 1.0
    for p in primes_upto(p_hi):
        if p <= p_lo:
            continue
        rho = kth_root_count((1 - v) % p, k, p)
        acc *= 1.0 - rho / p
    return acc


def double_residue_rules(k: int, single_primes, double_primes) -> dict[int, set[int]]:
    """Forbidden-residue table: {0} on the first group, {0, 1-2^k} on the
    second (the sifting system behind the window's prime offsets)."""
    rules: dict[int, set[int]] = {p: {0} for p in single_primes}
    for p in double_primes:
        rules[p] = {0, (1 - (1 << k)) % p}
    return rules


def instance_for_rules(
    range_size: int,
    rules: dict[int, set[int]],
    z: float,
    *,
    lam: float,
    b: int,
    kappa: float,
    a1: float = 2.0,
    a2: float = 8.0,
    sieve_c: float = 1.0,
    err_c: float = 1.0,
) -> SieveInstance:
    """Package a forbidden-residue table as a SieveInstance."""
    omega = {p: len({r % p for r in rs}) for p, rs in rules.items() if p < z}
    return SieveInstance(
        size=range_size,
        omega=omega,
        z=z,
        kappa=kappa,
        a1=a1,
        a2=a2,
        lam=lam,
        b=b,
        sieve_c=sieve_c,
        err_c=err_c,
    )
