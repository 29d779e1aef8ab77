"""primeavoid: desk-scale construction of prime-avoiding squarefree
numbers and prime powers, with machine-checkable certificates.

The package imports no submodule up front: each name of ``__all__`` is
loaded from its module on first access (PEP 562), so a command pays
only for the modules it runs.
"""

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "Congruence": "numtheory",
    "Schedule": "schedule",
    "crt_solve": "numtheory",
    "is_prime": "numtheory",
    "iter_log": "schedule",
    "jacobi": "numtheory",
    "kth_roots_mod_p": "numtheory",
    "make_schedule": "schedule",
    "mertens_product": "numtheory",
    "primes_upto": "numtheory",
}

__all__ = sorted([*_EXPORTS, "__version__"])


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
