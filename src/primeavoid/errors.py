"""Exception types shared across the library."""


class CapacityError(Exception):
    """Raised when there are too few covering primes for the offsets."""

    def __init__(self, message, needed=None, available=None):
        super().__init__(message)
        self.needed = needed
        self.available = available


class ConstructionError(ValueError):
    """Raised when a consistency check of the construction fails: a class
    with no nonzero root, a modulus used twice, an m0 that shares a factor
    with the modulus, a witness that does not divide its element, an
    offset left unstruck, an m below 2y or an m^k above the verifier's
    cap.  A fault of the program, not of its arguments.  A ValueError,
    since what was built is an invalid value; the CLI's failure table
    lists it before ValueError, so it exits 70 where other ValueErrors
    exit 64."""


class SearchExhausted(Exception):
    """Raised when a progression search hits its step budget."""

    def __init__(self, message, steps=0, tests=0):
        super().__init__(message)
        self.steps = steps
        self.tests = tests


class DocumentError(Exception):
    """Raised when a certificate document cannot be parsed."""
