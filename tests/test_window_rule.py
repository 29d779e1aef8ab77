"""The window rule both modes share (numtheory.class_congruences and
numtheory.window_cover), keyed by the element m^k + u + shift: shift 0
for squarefree (k = 1) and -1 for kpower, held to oracles that divide
every element directly."""

from functools import lru_cache

import pytest

from primeavoid import squarefree
from primeavoid.errors import ConstructionError
from primeavoid.kpower import (
    build_sets_k,
    construct_certificate_k,
    match_offsets,
    strike_offsets,
)
from primeavoid.numtheory import (
    Congruence,
    class_congruences,
    crt_solve,
    window_cover,
)
from primeavoid.schedule import make_schedule

from oracles import least_root, least_strikers, window_witnesses

# (mode, k, x): small runs of both modes, kpower k = 1 among them, where
# only the shift tells the two elements apart
RUNS = [
    ("squarefree", 1, 60),
    ("squarefree", 1, 150),
    ("squarefree", 1, 400),
    ("kpower", 1, 200),
    ("kpower", 1, 1000),
    ("kpower", 2, 600),
    ("kpower", 3, 1000),
    ("kpower", 5, 2000),
]


@lru_cache(maxsize=None)
def mode_classes(mode, k, x):
    """(schedule, the (class, prime) pairs each mode hands the core, the
    mode's own congruences) of one run, the pairs assembled as its
    covering_congruences assembles them."""
    sch = make_schedule(x, k, "practical")
    if mode == "squarefree":
        cert = squarefree.construct_certificate(sch)
        sets = squarefree.build_sets(cert.schedule)
        classes = [(0, p) for p in sets.p1]
        classes += zip(sets.mid_classes, sets.p2)
        classes += squarefree.assign_primes(sets)
    else:
        cert = construct_certificate_k(sch)
        sets = strike_offsets(build_sets_k(cert.schedule))
        classes = [*zip(sets.classes, sets.p1)]
        classes += match_offsets(sets).pairs
    return cert.schedule, tuple(classes), cert.congruences


def own_shift(mode):
    return 0 if mode == "squarefree" else -1


def oracle_congruences(y, classes, k, shift):
    """The kept classes by least strikers, each as (least root, prime);
    None when a kept class has no root."""
    strikers = set(least_strikers(range(-y, y + 1), classes).values())
    out = []
    for c, p in classes:
        if p in strikers:
            r = least_root(-shift - c, k, p)
            if r is None:
                return None
            out.append(Congruence(r, p))
    return tuple(out)


def run_id(run):
    return "%s-k%d-x%d" % run


@pytest.mark.parametrize("shift", [0, -1])
@pytest.mark.parametrize("run", RUNS, ids=run_id)
def test_core_matches_the_division_oracle(run, shift):
    mode, k, _ = run
    sch, classes, own = mode_classes(*run)
    y = sch.y
    expected = oracle_congruences(y, classes, k, shift)
    if expected is None:  # k > 1 under the other mode's shift
        with pytest.raises(ConstructionError, match="no nonzero root"):
            class_congruences(y, classes, k, shift)
        return
    congruences = class_congruences(y, classes, k, shift)
    assert congruences == expected
    if shift == own_shift(mode):
        assert congruences == own
    m0, n = crt_solve(congruences)
    m = m0 + n  # every element exceeds every modulus
    # the kpower classes never strike u = 1, whose element is m^k
    skip = 1 if mode == "kpower" else None
    cover = window_cover(m, congruences, y, k, shift, skip)
    witness = window_witnesses(m, congruences, y, k, shift)
    assert cover == {u: q for u, q in witness.items() if q}
    assert [u for u, q in witness.items() if not q] == ([1] if skip else [])


@pytest.mark.parametrize("run", [r for r in RUNS if r[1] == 1], ids=run_id)
def test_k1_classes_differ_by_the_shift_alone(run):
    sch, classes, _ = mode_classes(*run)
    plain = class_congruences(sch.y, classes, 1, 0)
    shifted = class_congruences(sch.y, classes, 1, -1)
    assert [c.modulus for c in plain] == [c.modulus for c in shifted]
    assert all((b.residue - a.residue) % b.modulus == 1 for a, b in zip(plain, shifted))


@pytest.mark.parametrize("run", RUNS, ids=run_id)
def test_core_refuses_a_wrong_residue(run):
    mode, k, _ = run
    sch, _, congruences = mode_classes(*run)
    m = sum(crt_solve(congruences))
    # the least modulus strikes every offset of its class; a residue whose
    # power differs moves the class, and the offsets it now claims are not
    # divisible by it
    i, c = next((i, c) for i, c in enumerate(congruences) if c.modulus <= sch.y)
    power = pow(c.residue, k, c.modulus)
    r = next(r for r in range(c.modulus) if pow(r, k, c.modulus) != power)
    spoiled = list(congruences)
    spoiled[i] = Congruence(r, c.modulus)
    with pytest.raises(ConstructionError, match="invalid witness"):
        window_cover(m, spoiled, sch.y, k, own_shift(mode))


@pytest.mark.parametrize(
    "k, shift, congruence, m, y, u",
    [
        # m + 2 = 5: the witness 5 of u = 2 is the element itself
        (1, 0, Congruence(3, 5), 3, 2, 2),
        # 3^2 - 1 - 1 = 7: the witness 7 of u = -1 is the element itself
        (2, -1, Congruence(3, 7), 3, 1, -1),
        # 3 + 1 - 1 = 3: kpower k = 1 with a root 0
        (1, -1, Congruence(0, 3), 3, 1, 1),
    ],
)
def test_core_refuses_a_witness_not_below_its_element(
    k, shift, congruence, m, y, u
):
    q = congruence.modulus
    with pytest.raises(ConstructionError, match=f"offset {u}: invalid witness q={q}"):
        window_cover(m, [congruence], y, k, shift)
    # the same congruence over a larger m of its class witnesses u: the
    # check passes it and stops at an offset left unstruck
    with pytest.raises(ConstructionError, match="lacks a witness"):
        window_cover(m + 100 * q, [congruence], y, k, shift)


@pytest.mark.parametrize("run", RUNS, ids=run_id)
def test_core_refuses_an_unstruck_offset(run):
    # the largest modulus is the only striker of the offset it witnesses
    mode, k, _ = run
    sch, _, congruences = mode_classes(*run)
    shift, skip = own_shift(mode), (1 if mode == "kpower" else None)
    kept = sorted(congruences, key=lambda c: c.modulus)[:-1]
    with pytest.raises(ConstructionError, match="lacks a witness"):
        window_cover(sum(crt_solve(kept)), kept, sch.y, k, shift, skip)
    if skip:  # u = 1 passes only as the offset skipped
        with pytest.raises(ConstructionError, match="offset 1 lacks a witness"):
            window_cover(sum(crt_solve(congruences)), congruences, sch.y, k, shift)
