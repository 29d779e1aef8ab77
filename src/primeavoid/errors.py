"""Exception types shared across the library."""


class CapacityError(Exception):
    """Raised when there are too few covering primes for the offsets."""

    def __init__(self, message, needed=None, available=None):
        super().__init__(message)
        self.needed = needed
        self.available = available


class ConstructionError(ValueError):
    """Raised when the construction builds an invalid congruence system
    (a zero root, a modulus used twice): a fault of the program, not of its
    arguments.  A ValueError, since the system is an invalid value; the
    CLI exits 70 on it, where other ValueErrors exit 64."""


class SearchExhausted(Exception):
    """Raised when a progression search hits its step budget."""

    def __init__(self, message, steps=0, tests=0):
        super().__init__(message)
        self.steps = steps
        self.tests = tests


class DocumentError(Exception):
    """Raised when a certificate document cannot be parsed."""
