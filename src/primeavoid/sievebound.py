"""Numeric upper-bound sieve estimates and exact sifted-set counters.

The headline operation evaluates the classical combinatorial-sieve upper
bound

    S <= X * W(z) * {1 + 2 lam^(2b+1) e^(2 lam) / (1 - lam^2 e^(2+2lam))
                         * exp((2b+3) c / (lam log z))}
         + C_err * z^(2b + 2.01/(e^(2 lam/kappa) - 1))

for a sifting instance: X = |A|, a forbidden-residue table (prime ->
residues) whose primes below z sift, and z.  Theory does not pin the
constant c inside the exponential or the O-constant C_err of the tail;
both are taken as 1 (SIEVE_C, ERR_C), and the tail is reported as a
separate additive line item.  The exact counter
``empirical_sifted_count`` is the independent check that the evaluated
bound actually dominates on concrete instances.
"""

from __future__ import annotations

import math

from . import kernels
from .numtheory import primes_upto

SIFT_RANGE_LIMIT = 10**7
# omega(p)/p <= 1 - 1/A1 for every sifting prime
A1 = 2.0
SIEVE_C = 1.0
ERR_C = 1.0


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


def brun_bound_terms(
    size: int,
    rules: dict[int, set[int]],
    z: float,
    *,
    lam: float,
    b: int,
    kappa: float,
    a2: float = 8.0,
) -> tuple[float, float]:
    """(main term, error budget) of the sieve upper bound for X = ``size``
    and the primes p < z of ``rules``, each forbidding omega(p) classes.

    The hypotheses are checked numerically rather than assumed:
    omega(p)/p <= 1 - 1/A1, and the weighted prime sum
    sum_{w <= p < z} omega(p) log p / p <= kappa log(z/w) + A2, sampled
    at every sifting prime and at w = 2.
    """
    if size < 0:
        raise ValueError("instance size must be >= 0")
    if kappa <= 0 or a2 < 1 or b < 1:
        raise ValueError("need kappa > 0, A2 >= 1, b >= 1")
    factor = brun_main_factor(lam, b)
    omega = {p: len({r % p for r in rs}) for p, rs in rules.items() if p < z}
    cap = 1 - 1 / A1
    for p, w in omega.items():
        if not 0 <= w / p <= cap:
            raise ValueError(
                f"omega({p})={w} violates omega(p)/p <= 1 - 1/A1 = {cap:.4f}"
            )
    ps = sorted(omega)
    for w in [2.0] + [float(p) for p in ps]:
        total = sum(omega[p] * math.log(p) / p for p in ps if w <= p)
        budget = kappa * math.log(z / w) + a2
        if total > budget + 1e-12:
            raise ValueError(
                f"weighted prime sum {total:.4f} from w={w} exceeds "
                f"kappa*log(z/w)+A2 = {budget:.4f}"
            )
    logz = math.log(z)
    if logz <= 0:
        raise ValueError(f"z must exceed 1, got {z}")
    correction = factor * math.exp((2 * b + 3) * SIEVE_C / (lam * logz))
    main = size * math.prod(1.0 - w / p for p, w in omega.items()) * (1.0 + correction)
    tail_exp = 2 * b + 2.01 / (math.exp(2 * lam / kappa) - 1.0)
    return main, ERR_C * z**tail_exp


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


def double_residue_rules(k: int, x: float, z: float) -> dict[int, set[int]]:
    """The sifting system behind the window's prime offsets, ascending:
    {0} on the primes p <= log x and {0, 1 - 2^k} on log x < p <= z."""
    log_x = math.log(x)
    return {
        p: {0} if p <= log_x else {0, (1 - (1 << k)) % p}
        for p in primes_upto(math.floor(min(x, z)))
    }
