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
from dataclasses import dataclass, replace

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


@dataclass(frozen=True)
class Schedule:
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


@dataclass(frozen=True)
class CapacityDecision:
    """Outcome of comparing offsets needing cover against available primes."""

    status: str  # "ok" | "shrink" | "fail"
    needed: int
    available: int
    new_y: int | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def capacity_check(sch: Schedule, needed: int, available: int) -> CapacityDecision:
    """Decide whether ``available`` covering primes suffice for ``needed``
    offsets; if not, suggest halving y (when autoshrink is on, floor 3)."""
    if needed <= available:
        return CapacityDecision(status="ok", needed=needed, available=available)
    if sch.c2_autoshrink and sch.y // 2 >= MIN_Y:
        return CapacityDecision(
            status="shrink", needed=needed, available=available, new_y=sch.y // 2
        )
    return CapacityDecision(status="fail", needed=needed, available=available)


def shrink_to_capacity(sch: Schedule, build, demand):
    """Build the set system ``build(sch)``, halving y while capacity_check
    refuses ``demand(sets)`` = (offsets needing a covering prime, primes
    available).  Returns the final schedule, its set system and every y
    tried; raises CapacityError once y cannot shrink."""
    trace = [sch.y]
    while True:
        sets = build(sch)
        decision = capacity_check(sch, *demand(sets))
        if decision.ok:
            return sch, sets, tuple(trace)
        if decision.status != "shrink":
            raise CapacityError(
                f"capacity failed at y={sch.y}: {decision.needed} offsets need a "
                f"covering prime but only {decision.available} are available, "
                f"and y cannot shrink below {MIN_Y}",
                needed=decision.needed,
                available=decision.available,
            )
        sch = replace(sch, y=decision.new_y)
        trace.append(sch.y)
