import math

import pytest

from primeavoid.errors import CapacityError
from primeavoid.schedule import make_schedule, shrink_to_capacity


def test_practical_profile():
    sch = make_schedule(40, 1, "practical")
    assert sch.z == pytest.approx(math.sqrt(40), rel=1e-12)
    assert sch.y == 5


def test_explicit_profile_passthrough():
    sch = make_schedule(40, 1, "explicit", z=math.sqrt(40), y=10)
    assert sch.z == pytest.approx(6.32455, abs=1e-4)
    assert sch.y == 10


def test_schedule_records_x_k_z_and_y_only():
    sch = make_schedule(40, 1, "explicit", z=6.3246, y=10)
    assert sch._asdict() == {"x": 40.0, "k": 1, "z": 6.3246, "y": 10}


def test_explicit_profile_requires_overrides():
    with pytest.raises(ValueError):
        make_schedule(40, 1, "explicit", z=6.0)


def test_y_floor_rejected():
    with pytest.raises(ValueError):
        make_schedule(40, 1, "explicit", z=6.0, y=2)


def test_make_schedule_deterministic():
    a = make_schedule(12345.0, 2, "practical", y=500)
    b = make_schedule(12345.0, 2, "practical", y=500)
    assert a == b


def test_make_schedule_validation():
    with pytest.raises(ValueError):
        make_schedule(10, 1, "practical")  # x too small
    with pytest.raises(ValueError):
        make_schedule(100, 0, "practical")
    with pytest.raises(ValueError):
        make_schedule(100, 1, "bogus")
    with pytest.raises(ValueError):
        make_schedule(100, 1, "literal")


def shrink(sch, demand, built=None):
    """shrink_to_capacity with a stub build whose set system is its y;
    ``demand(y)`` gives (offsets needing a prime, primes available), and
    ``built`` collects every y built."""

    def build(s):
        if built is not None:
            built.append(s.y)
        return s.y

    return shrink_to_capacity(sch, build, demand)


def test_capacity_ok():
    sch = make_schedule(40, 1, "explicit", z=6.3246, y=10)
    assert shrink(sch, lambda y: (5, 8)) == (sch, 10, (10,))


def test_capacity_shrink_halves_y():
    sch = make_schedule(40, 1, "explicit", z=6.3246, y=23)
    final, sets, trace = shrink(sch, lambda y: (13 if y == 23 else 8, 8))
    assert final == sch._replace(y=11)
    assert (sets, trace) == (11, (23, 11))


def test_capacity_vacuous():
    sch = make_schedule(40, 1, "explicit", z=6.3246, y=10)
    assert shrink(sch, lambda y: (0, 0)) == (sch, 10, (10,))


def test_capacity_fail_at_floor():
    # y halves 23 -> 11 -> 5 and stops there: 5 // 2 is below MIN_Y = 3
    sch = make_schedule(40, 1, "explicit", z=6.3246, y=23)
    built = []
    with pytest.raises(CapacityError, match="capacity failed at y=5") as err:
        shrink(sch, lambda y: (99, 1), built)
    assert (err.value.needed, err.value.available) == (99, 1)
    assert built == [23, 11, 5]
