"""Numeric upper-bound sieve estimates and exact sifted-set counters.

The headline operation evaluates the classical combinatorial-sieve upper
bound

    S <= X * W(z) * {1 + 2 lam^(2b+1) e^(2 lam) / (1 - lam^2 e^(2+2lam))
                         * exp((2b+3) c / (lam log z))}
         + C_err * z^(2b + 2.01/(e^(2 lam/kappa) - 1))

for a sifting instance (X, omega, z).  Theory does not pin the constant
c inside the exponential or the O-constant C_err of the tail; both are
taken as 1 (SIEVE_C, ERR_C), and the tail is reported as a separate
additive line item.  The exact counter
``empirical_sifted_count`` is the independent check that the evaluated
bound actually dominates on concrete instances.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import kernels

SIFT_RANGE_LIMIT = 10**7
# omega(p)/p <= 1 - 1/A1 for every sifting prime
A1 = 2.0
SIEVE_C = 1.0
ERR_C = 1.0


class SieveInstance(NamedTuple):
    """Inputs for one upper-bound evaluation.

    size is X = |A|; omega maps each sifting prime to its number of
    forbidden residue classes.  A1 bounds omega(p)/p away from 1, and
    (kappa, a2) bound the weighted prime sums; both are checked
    numerically rather than assumed.
    """

    size: int
    omega: dict[int, int]
    z: float = 2.0
    kappa: float = 1.0
    a2: float = 8.0
    lam: float = 0.2
    b: int = 1

    def validate(self) -> None:
        if self.size < 0:
            raise ValueError("instance size must be >= 0")
        if self.kappa <= 0 or self.a2 < 1 or self.b < 1:
            raise ValueError("need kappa > 0, A2 >= 1, b >= 1")
        if not 0 < self.lam * math.exp(1 + self.lam) < 1:
            raise ValueError(
                f"lambda={self.lam} is inadmissible (lam*e^(1+lam) must be in (0,1))"
            )
        cap = 1 - 1 / A1
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
    correction = factor * math.exp((2 * inst.b + 3) * SIEVE_C / (inst.lam * logz))
    main = inst.size * _w_product(inst) * (1.0 + correction)
    tail_exp = 2 * inst.b + 2.01 / (math.exp(2 * inst.lam / inst.kappa) - 1.0)
    error = ERR_C * inst.z**tail_exp
    return main, error


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
    a2: float = 8.0,
) -> SieveInstance:
    """Package a forbidden-residue table as a SieveInstance."""
    omega = {p: len({r % p for r in rs}) for p, rs in rules.items() if p < z}
    return SieveInstance(
        size=range_size, omega=omega, z=z, kappa=kappa, a2=a2, lam=lam, b=b
    )
