"""Run parameters: the (x, z, y) schedule and the capacity rule, which
both pipelines apply through ``shrink_to_capacity``.

The paper's z = x^(c1 log_3 x / log_2 x) falls below log x at every
desk-scale x, which leaves the mid band of primes empty, so the practical
profile takes z = sqrt(x) and the paper's y = c2 x log x log_3 x /
(log_2 x)^2 with c2 = 1/4.  A z or y given is taken verbatim, and the
explicit profile only insists on both; the schedule records x, k, z and
y, not the profile.  A schedule with z <= log x is rejected.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import CapacityError

PROFILES = ("practical", "explicit")

C2 = 0.25

MIN_X = 16.0
MIN_Y = 3


class Schedule(NamedTuple):
    x: float
    k: int
    z: float
    y: int


def make_schedule(
    x: float,
    k: int = 1,
    profile: str = "practical",
    *,
    z: float | None = None,
    y: int | None = None,
) -> Schedule:
    """Build a validated Schedule for one construction run.

    ``z`` / ``y`` overrides pin those values directly and are mandatory
    for the explicit profile.  A non-finite x or z is rejected, and so is
    a z at or below log x, which leaves the mid prime band empty.
    """
    x = float(x)
    for name, value in (("x", x), ("z", z)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if x < MIN_X:
        raise ValueError(f"x must be >= {MIN_X} (log log x must exceed 1), got {x}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}, expected one of {PROFILES}")
    if profile == "explicit" and (z is None or y is None):
        raise ValueError("explicit profile requires both z and y")

    l1 = math.log(x)
    l2 = math.log(l1)  # >= 1.02 from MIN_X on
    l3 = math.log(l2)
    z_val = math.sqrt(x) if z is None else float(z)
    if y is None:
        y_val = math.floor(C2 * x * l1 * l3 / (l2 * l2))
    else:
        y_val = int(y)

    if y_val < MIN_Y:
        raise ValueError(f"window radius y must be >= {MIN_Y}, got {y_val}")
    if z_val <= l1:
        raise ValueError(
            f"degenerate schedule: z={z_val:.4f} <= log x={l1:.4f}; "
            "the mid prime band is empty"
        )

    return Schedule(x=x, k=k, z=z_val, y=y_val)


def shrink_to_capacity(sch: Schedule, build, demand):
    """Build the set system ``build(sch)``, halving y (floor MIN_Y) while
    ``demand(sets)`` = (offsets needing a covering prime, primes available)
    asks for more primes than there are.  Returns the final schedule, its
    set system and every y tried; raises CapacityError once y cannot
    shrink."""
    trace = [sch.y]
    while True:
        sets = build(sch)
        needed, available = demand(sets)
        if needed <= available:
            return sch, sets, tuple(trace)
        if sch.y // 2 < MIN_Y:
            raise CapacityError(
                f"capacity failed at y={sch.y}: {needed} offsets need a "
                f"covering prime but only {available} are available, "
                f"and y cannot shrink below {MIN_Y}",
                needed=needed,
                available=available,
            )
        sch = sch._replace(y=sch.y // 2)
        trace.append(sch.y)
