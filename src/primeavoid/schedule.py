"""Run parameters: the (x, z, y) schedule and the capacity rule, which
both pipelines apply through ``shrink_to_capacity``.

The literal profile evaluates the asymptotic formulas exactly as written;
at desk scale those degenerate (z falls below log x), so the practical
profile substitutes z = sqrt(x), which keeps the mid band of primes
nonempty while preserving the mechanism.  The explicit profile takes z
and y verbatim.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import CapacityError

PROFILES = ("literal", "practical", "explicit")

DEFAULT_C1 = 0.1
DEFAULT_C2 = 0.25
DEFAULT_DELTA = 0.01

MIN_X = 16.0
MIN_Y = 3


def iter_log(x: float, j: int) -> float:
    """j-fold natural logarithm, 1 <= j <= 4.

    The iterate must stay positive before each remaining log; only the
    final value may be <= 0.
    """
    if not 1 <= j <= 4:
        raise ValueError(f"iterated log depth must be in [1, 4], got {j}")
    v = float(x)
    for level in range(1, j + 1):
        if v <= 0.0:
            raise ValueError(
                f"iterated log undefined at level {level}: value {v} <= 0"
            )
        v = math.log(v)
    return v


class Schedule(NamedTuple):
    x: float
    k: int
    c1: float
    c2: float
    z: float
    y: int
    profile: str
    delta: float
    c2_autoshrink: bool
    degenerate: bool


def make_schedule(
    x: float,
    k: int = 1,
    profile: str = "practical",
    *,
    c1: float = DEFAULT_C1,
    c2: float = DEFAULT_C2,
    delta: float = DEFAULT_DELTA,
    z: float | None = None,
    y: int | None = None,
    c2_autoshrink: bool = True,
) -> Schedule:
    """Build a validated Schedule for one construction run.

    ``z`` / ``y`` overrides pin those values directly and are mandatory
    for the explicit profile.  The degenerate flag marks z <= log x, in
    which case the mid prime band is empty and construction refuses to
    run.
    """
    x = float(x)
    if x < MIN_X:
        raise ValueError(f"x must be >= {MIN_X} (log log x must exceed 1), got {x}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}, expected one of {PROFILES}")
    if c1 <= 0 or c2 <= 0 or delta <= 0:
        raise ValueError("c1, c2 and delta must all be positive")

    l1 = iter_log(x, 1)
    l2 = iter_log(x, 2)
    l3 = iter_log(x, 3)

    if profile == "literal":
        z_val = x ** (c1 * l3 / l2)
        y_val = math.floor(c2 * x * l1 * l3 / (l2 * l2))
    elif profile == "practical":
        z_val = math.sqrt(x)
        y_val = math.floor(c2 * x * l1 * l3 / (l2 * l2))
    else:
        if z is None or y is None:
            raise ValueError("explicit profile requires both z and y")
        z_val, y_val = float(z), int(y)

    if z is not None:
        z_val = float(z)
    if y is not None:
        y_val = int(y)

    if y_val < MIN_Y:
        raise ValueError(f"window radius y must be >= {MIN_Y}, got {y_val}")

    return Schedule(
        x=x,
        k=k,
        c1=c1,
        c2=c2,
        z=z_val,
        y=y_val,
        profile=profile,
        delta=delta,
        c2_autoshrink=c2_autoshrink,
        degenerate=z_val <= l1,
    )


def shrink_to_capacity(sch: Schedule, build, demand):
    """Build the set system ``build(sch)``, halving y (when autoshrink is
    on, floor MIN_Y) while ``demand(sets)`` = (offsets needing a covering
    prime, primes available) asks for more primes than there are.  Returns
    the final schedule, its set system and every y tried; raises
    CapacityError once y cannot shrink."""
    trace = [sch.y]
    while True:
        sets = build(sch)
        needed, available = demand(sets)
        if needed <= available:
            return sch, sets, tuple(trace)
        if not sch.c2_autoshrink or sch.y // 2 < MIN_Y:
            raise CapacityError(
                f"capacity failed at y={sch.y}: {needed} offsets need a "
                f"covering prime but only {available} are available, "
                f"and y cannot shrink below {MIN_Y}",
                needed=needed,
                available=available,
            )
        sch = sch._replace(y=sch.y // 2)
        trace.append(sch.y)
