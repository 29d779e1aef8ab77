"""primeavoid: desk-scale construction of prime-avoiding squarefree
numbers and prime powers, with machine-checkable certificates."""

from .numtheory import (
    Congruence,
    crt_solve,
    is_prime,
    jacobi,
    kth_roots_mod_p,
    mertens_product,
    primes_upto,
)
from .schedule import Schedule, capacity_check, iter_log, make_schedule

__version__ = "0.1.0"

__all__ = [
    "Congruence",
    "Schedule",
    "__version__",
    "capacity_check",
    "crt_solve",
    "is_prime",
    "iter_log",
    "jacobi",
    "kth_roots_mod_p",
    "make_schedule",
    "mertens_product",
    "primes_upto",
]
