import math
import random
from contextlib import nullcontext
from dataclasses import replace
from itertools import islice

import pytest

from primeavoid import numtheory
from primeavoid.errors import CapacityError
from primeavoid.numtheory import (
    MR_DETERMINISTIC_BOUND,
    SQUAREFREE_TRIAL_BOUND,
    _iroot,
    _is_perfect_power,
    _not_a_power,
    _trial_blocks,
    avoidance_constant,
    classify_squarefree,
    cofactor_tier,
    is_prime,
    primes_upto,
    trial_cofactor,
)
from primeavoid.schedule import make_schedule
from primeavoid.squarefree import (
    assign_primes,
    build_sets,
    construct_certificate,
    covering_congruences,
    find_squarefree_in_ap,
    solve_m0,
    verify_window,
)

from oracles import (
    congruence_witness,
    greedy_classes,
    large_prime_classes,
    least_divisor,
    offset_partition_holds,
)


# x=40 explicit instance: small enough to verify by hand
MICRO = make_schedule(40, 1, "explicit", z=math.sqrt(40), y=10)


@pytest.fixture(scope="module")
def micro():
    return MICRO, build_sets(MICRO)


# -- oracles ---------------------------------------------------------------


def stepping_crt(congs):
    sol, mod = 0, 1
    for r, p in congs:
        while sol % p != r:
            sol += mod
        mod *= p
    return sol, mod


def brute_force_squarefree(n):
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        if n % d == 0:
            n //= d
        d += 1
    return True


def reference_classify(m, bound):
    """The linear classification: one modulo per prime <= bound, then
    every exponent up to the cofactor's bit length."""
    rest = m
    for p in primes_upto(bound):
        if p * p > rest:
            break
        if rest % p == 0:
            rest //= p
            if rest % p == 0:
                return "not_squarefree"
    if rest == 1 or rest <= bound * bound:
        return "proven"
    if is_prime(rest):
        return "proven" if rest < MR_DETERMINISTIC_BOUND else "prp"
    for e in range(2, rest.bit_length()):
        lo, hi = 2, 1 << (rest.bit_length() // e + 1)  # bisect r**e == rest
        while lo <= hi:
            mid = (lo + hi) // 2
            power = mid**e
            if power == rest:
                return "not_squarefree"
            lo, hi = (mid + 1, hi) if power < rest else (lo, mid - 1)
    return "partial"


# -- set construction ---------------------------------------------------------


def test_micro_prime_bands(micro):
    _, sets = micro
    assert sets.p1 == (2, 3, 7)
    assert sets.p2 == (5,)
    assert sets.p3 == (11, 13, 17, 19, 23, 29, 31, 37)


def test_micro_offset_classes(micro):
    _, sets = micro
    assert sets.u2 == (-5, -1, 1, 5)
    # 5's class 0 holds -5 and 5, the most of u2; 0 is in u1 (2 divides it)
    assert sets.mid_classes == (0,)
    assert sets.u6 == (-1, 1)


def test_micro_window_scan_oracle(micro):
    # u2 by definition: window members coprime to every band-one prime
    _, sets = micro
    expected = [u for u in range(-10, 11) if all(u % p for p in (2, 3, 7))]
    assert list(sets.u2) == expected


def test_tiny_window_edge():
    sch = make_schedule(40, 1, "explicit", z=math.sqrt(40), y=3)
    sets = build_sets(sch)
    assert sets.u2 == (-1, 1)
    assert set(sets.u1) | set(sets.u2) == set(range(-3, 4))
    # 5's classes 1 and 4 hold one offset each: the tie goes to 1
    assert sets.mid_classes == (1,)
    assert sets.u6 == (-1,)


def test_degenerate_schedule_rejected():
    sch = make_schedule(1e6, 1, "literal")
    assert sch.degenerate
    with pytest.raises(ValueError, match="degenerate"):
        build_sets(sch)


def test_monotone_cardinalities():
    for x in (60, 100, 150, 400):
        sch = make_schedule(x, 1, "practical")
        sets = build_sets(sch)
        assert len(sets.u6) <= len(sets.u2) <= 2 * sch.y + 1


# -- partition law ------------------------------------------------------------


def test_partition_micro(micro):
    sch, sets = micro
    assert offset_partition_holds(sets, sch.y)
    assert greedy_classes(sets.u2, sets.p2) == ((0,), (-1, 1))


def test_partition_practical_1000():
    sch = make_schedule(1000, 1, "practical")
    assert offset_partition_holds(build_sets(sch), sch.y)


def test_partition_detects_artificial_violation(micro):
    sch, sets = micro
    # -5 and 0 are struck (5 | u and 2 | u), so assigning them large
    # primes breaks the law
    broken = replace(sets, u6=(-5, -1, 0, 1))
    assert not offset_partition_holds(broken, sch.y)


# -- prime assignment ----------------------------------------------------------


def test_assignment_micro(micro):
    _, sets = micro
    assert assign_primes(sets) == {-1: 11, 1: 13}


def test_assignment_empty():
    sch, sets = (
        make_schedule(40, 1, "explicit", z=math.sqrt(40), y=10),
        None,
    )
    sets = build_sets(sch)
    empty = replace(sets, u6=())
    assert assign_primes(empty) == {}


def test_assignment_bijection_at_boundary(micro):
    _, sets = micro
    squeezed = replace(sets, p3=sets.p3[: len(sets.u6)])
    phi = assign_primes(squeezed)
    assert len(phi) == len(sets.u6) == len(set(phi.values()))


def test_assignment_capacity_error(micro):
    _, sets = micro
    squeezed = replace(sets, p3=sets.p3[:1])
    with pytest.raises(CapacityError) as err:
        assign_primes(squeezed)
    assert err.value.needed == 2 and err.value.available == 1


# -- congruence solving ---------------------------------------------------------


def test_solve_m0_micro_against_stepping_oracle(micro):
    _, sets = micro
    phi = assign_primes(sets)
    n, m0 = solve_m0(sets, phi)
    assert n == 30030
    congs = (
        [(0, p) for p in sets.p1]
        + [((-c) % p, p) for c, p in zip(sets.mid_classes, sets.p2)]
        + [((-u) % p, p) for u, p in sorted(phi.items())]
    )
    oracle_m0, oracle_n = stepping_crt(congs)
    assert (n, m0) == (oracle_n, oracle_m0)
    assert 1 <= m0 <= n
    for r, p in congs:
        assert m0 % p == r


def test_solve_m0_zero_maps_to_n(micro):
    _, sets = micro
    tiny = replace(sets, p1=(2,), p2=(), u6=())
    n, m0 = solve_m0(tiny, {})
    assert (n, m0) == (2, 2)


def test_solve_m0_single_congruence(micro):
    _, sets = micro
    tiny = replace(sets, p1=(), p2=(5,), mid_classes=(1,), u6=())
    assert solve_m0(tiny, {}) == (5, 4)


def test_solve_m0_duplicate_modulus(micro):
    _, sets = micro
    with pytest.raises(ValueError, match="duplicate"):
        solve_m0(sets, {-5: 2, 1: 13, 5: 17})


# -- squarefree search ------------------------------------------------------------


def test_classify_matches_brute_force():
    for n in range(1, 4000):
        status = classify_squarefree(n)
        assert status in ("proven", "not_squarefree")
        assert (status == "proven") == brute_force_squarefree(n)


def test_classify_tiers_on_opaque_cofactors():
    q1, q2 = 10**20 + 39, 10**20 + 153  # both prime, far above the trial bound
    assert classify_squarefree(210 * q1 * q1) == "not_squarefree"  # square
    assert classify_squarefree(210 * q1**3) == "not_squarefree"  # perfect power
    assert classify_squarefree(210 * q1) == "proven"  # prime cofactor
    # a prime cofactor above MR_DETERMINISTIC_BOUND is only a BPSW verdict
    assert classify_squarefree(210 * (2**89 - 1)) == "prp"
    assert classify_squarefree(210 * q1 * q2) == "partial"  # opaque composite
    # bound + 1 = 2**7: q**23 with q = 131 has 162 bits, and 162 // 7 == 23
    # puts the exponent exactly at the admitted limit
    q = 131
    assert (q**23).bit_length() // 7 == 23
    assert classify_squarefree(210 * q**23, bound=127) == "not_squarefree"
    assert classify_squarefree(210 * q**22 * 137, bound=127) == "partial"
    # composite exponents are caught through their prime factors
    assert classify_squarefree(210 * q**4, bound=127) == "not_squarefree"
    assert classify_squarefree(210 * q**6, bound=127) == "not_squarefree"
    big = 2**1000 + 297  # the smallest prime above 2**1000
    assert is_prime(big)
    assert classify_squarefree(210 * big * big, bound=127) == "not_squarefree"


def reference_cases(bound):
    """3,000 seeded m whose every tier occurs at ``bound``."""
    rng = random.Random(20151)
    small = primes_upto(bound)
    above = [q for q in range(bound + 1, bound + 300) if is_prime(q)]
    for _ in range(3000):
        m = 1
        for p in rng.sample(small, rng.randrange(4)):
            m *= p ** rng.choice((1, 1, 1, 2))
        q, r = rng.choice(above), rng.choice(above)  # r may equal q
        kind = rng.randrange(6)
        if kind == 0:
            m *= q ** rng.randrange(2, 14)  # prime power above the bound
        elif kind == 1:
            m *= q * r
        elif kind == 2:
            m *= (q * r) ** rng.randrange(2, 6)  # composite root
        elif kind == 3:
            m *= rng.getrandbits(rng.randrange(8, 160)) | 1
        elif kind == 4:
            m *= q
        else:
            m *= rng.getrandbits(rng.randrange(8, 90)) | 1
            m *= m  # a square of a random odd number
        yield m


def test_classify_matches_reference():
    bound = 1000
    for m in reference_cases(bound):
        assert classify_squarefree(m, bound=bound) == reference_classify(m, bound), m


@pytest.mark.parametrize("bound", [127, 1000, 1386, 1387, 10**5])
def test_trial_blocks_hold_the_primes_in_order(bound):
    expected = primes_upto(bound)
    i, previous = 0, 0
    for lo, product in _trial_blocks(bound):
        # the early exit needs lo <= every prime not yet scanned
        assert previous < lo <= expected[i]
        while i < len(expected) and product % expected[i] == 0:
            product //= expected[i]
            i += 1
        assert product == 1
        previous = lo
    assert i == len(expected)


def unscreened_perfect_power(n, bound):
    max_e = n.bit_length() // (max(bound + 1, 2).bit_length() - 1)
    return any(_iroot(n, e) ** e == n for e in primes_upto(max_e))


def test_power_screen_keeps_every_verdict():
    bound = 1000
    cofactors = {trial_cofactor(m, bound) for m in reference_cases(bound)}
    cofactors = [c for c in cofactors if c is not None and c > bound * bound]
    assert any(unscreened_perfect_power(c, bound) for c in cofactors)
    for c in cofactors:
        assert _is_perfect_power(c, bound) == unscreened_perfect_power(c, bound), c
    # roots just above a small bound; 131 is itself a screen prime for
    # e = 5 and e = 13, so it divides the power it screens
    for bound in (127, 1000):
        roots = [r for r in range(bound + 1, bound + 60) if is_prime(r)]
        for r in roots:
            for e in range(2, 24):
                for n in (r**e, r**e * roots[-1], (r * roots[0]) ** e):
                    expected = unscreened_perfect_power(n, bound)
                    assert _is_perfect_power(n, bound) == expected, (r, e, n)
    assert _is_perfect_power(131**5, 127) and _is_perfect_power(131**13, 127)
    # the screen does rule exponents out
    assert _not_a_power((10**20 + 39) * (10**20 + 153), 2)


# -- pooled trial scan ----------------------------------------------------------

POOL_WORKERS = 3  # more than the cores of a 2-core host, and odd
POOL_BOUND = 10**5  # 73 trial blocks: a head of 48 and slices of 8, 8 and 9
BIG_PRIME = 2**89 - 1  # above POOL_BOUND**2, so no scan stops early
ONE_BLOCK = numtheory._TRIAL_BLOCK_SPAN  # a head bound that gives one block


def pool_slices(bound, workers=POOL_WORKERS, head_bound=numtheory._SCAN_HEAD_BOUND):
    """The block ranges the head and each worker scan, as
    _pooled_cofactor lays them out for a head of the primes below
    ``head_bound``."""
    blocks = len(_trial_blocks(bound))
    head = len(_trial_blocks(min(bound, head_bound)))
    cuts = [head + (blocks - head) * i // workers for i in range(workers + 1)]
    return [(0, head), *zip(cuts, cuts[1:])]


def scan_both_ways(monkeypatch, m, bound, start_pool=None):
    """trial_cofactor(m, bound) in-process, then with the cutoff lowered
    and POOL_WORKERS forced, and the worker counts of the pools started."""
    started = []
    start_pool = start_pool or numtheory._start_pool

    def counting_start_pool(workers):
        started.append(workers)
        return start_pool(workers)

    with monkeypatch.context() as patch:
        patch.setattr(numtheory, "_pool_workers", lambda: 1)
        here = trial_cofactor(m, bound)
    with monkeypatch.context() as patch:
        patch.setattr(numtheory, "_pool_workers", lambda: POOL_WORKERS)
        patch.setattr(numtheory, "_SCAN_POOL_MIN_BITS", 1)
        patch.setattr(numtheory, "_start_pool", counting_start_pool)
        pooled = trial_cofactor(m, bound)
    return here, pooled, started


def assert_paths_agree(here, pooled, m, bound, expected=None):
    """Both scans give the same verdict and tier, and the same cofactor
    unless the in-process scan stopped early short of a prime <= bound."""
    expected = expected or reference_classify(m, bound)
    if here is None or pooled is None:
        assert here is pooled is None and expected == "not_squarefree", m
        return
    if not 1 < here <= bound:
        assert pooled == here, m
    assert cofactor_tier(pooled, bound) == cofactor_tier(here, bound) == expected, m


def planted_primes(bound):
    """2, which the first block holds, the largest prime <= bound, and for
    each range of the layout, a prime in its middle and the primes on
    both sides of its start.  The ranges are those of the scan's own
    layout and of the layout with a one-block head, whose boundaries fall
    inside the head and inside the slices."""
    primes = primes_upto(bound)
    lows = [lo for lo, _ in _trial_blocks(bound)]
    planted = {primes[-1]}
    for head_bound in (ONE_BLOCK, numtheory._SCAN_HEAD_BOUND):
        for start, stop in pool_slices(bound, head_bound=head_bound):
            middle = lows[(start + stop) // 2]
            planted.add(next(p for p in primes if p >= middle))
            if start:
                planted.add(max(p for p in primes if p < lows[start]))
                planted.add(next(p for p in primes if p >= lows[start]))
    return sorted(planted)


@pytest.mark.parametrize("times", [1, 2])
@pytest.mark.parametrize("p", planted_primes(POOL_BOUND))
def test_pooled_scan_finds_planted_prime(monkeypatch, p, times):
    m = BIG_PRIME * p**times
    here, pooled, started = scan_both_ways(monkeypatch, m, POOL_BOUND)
    assert_paths_agree(here, pooled, m, POOL_BOUND)
    assert (pooled is None) == (times == 2)
    assert pooled in (None, BIG_PRIME)
    # a repeated prime of the head is found before any pool starts
    (_, head), *_ = pool_slices(POOL_BOUND)
    head_repeat = times == 2 and p < _trial_blocks(POOL_BOUND)[head][0]
    assert started == ([] if head_repeat else [POOL_WORKERS])


@pytest.mark.parametrize("times", [1, 2])
def test_pooled_scan_reaches_the_last_prime_below_the_bound(monkeypatch, times):
    p = 9_999_991
    assert p == primes_upto(SQUAREFREE_TRIAL_BOUND)[-1]
    m = 3 * BIG_PRIME * p**times
    here, pooled, started = scan_both_ways(monkeypatch, m, SQUAREFREE_TRIAL_BOUND)
    assert started == [POOL_WORKERS]
    assert here == pooled == (BIG_PRIME if times == 1 else None)
    assert classify_squarefree(m) == ("prp" if times == 1 else "not_squarefree")


def test_pooled_scan_matches_reference_cases(monkeypatch):
    # one pool serves every case, which keeps the scans quick; each case
    # the head does not settle still splits its blocks across POOL_WORKERS
    # processes
    tiers, pooled_scans = set(), 0
    with numtheory._start_pool(POOL_WORKERS) as pool:
        for m in islice(reference_cases(POOL_BOUND), 450):
            here, pooled, started = scan_both_ways(
                monkeypatch, m, POOL_BOUND, start_pool=lambda workers: nullcontext(pool)
            )
            expected = reference_classify(m, POOL_BOUND)
            assert_paths_agree(here, pooled, m, POOL_BOUND, expected)
            assert started in ([], [POOL_WORKERS])
            tiers.add(expected)
            pooled_scans += len(started)
    assert tiers == {"proven", "prp", "partial", "not_squarefree"}
    assert pooled_scans > 200


@pytest.mark.parametrize("p", [1399, 65521])  # just above the first block, below 2^16
def test_head_rejects_a_repeated_prime_below_2_16_without_a_pool(monkeypatch, p):
    # p * p times primes above the trial bound, past the pool cutoff
    bound = SQUAREFREE_TRIAL_BOUND
    m, q = p * p, bound + 1
    while m.bit_length() < numtheory._SCAN_POOL_MIN_BITS:
        q += 2
        if is_prime(q):
            m *= q

    def no_pool(workers):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(numtheory, "_pool_workers", lambda: 2)
    monkeypatch.setattr(numtheory, "_start_pool", no_pool)
    assert trial_cofactor(m) is None
    assert classify_squarefree(m) == "not_squarefree"


def test_trial_cofactor_rejects_m_below_one():
    for m in (0, -5):
        with pytest.raises(ValueError, match="m >= 1"):
            trial_cofactor(m)


def test_find_squarefree_micro(micro):
    sch, sets = micro
    phi = assign_primes(sets)
    n, m0 = solve_m0(sets, phi)
    result = find_squarefree_in_ap(m0, n, sch)
    assert result.m == m0 + result.steps * n
    assert result.m >= 2 * sch.y
    assert result.status == "proven"
    assert brute_force_squarefree(result.m)


def test_find_squarefree_skips_square_multiples(micro):
    sch, _ = micro
    # progression 4 + j*8: every member divisible by 4, never squarefree
    from primeavoid.errors import SearchExhausted

    with pytest.raises(SearchExhausted):
        find_squarefree_in_ap(4, 8, sch, max_steps=50)


def test_progression_skip_rate_for_two(micro):
    # m0 even, N == 2 mod 4: exactly every other member divisible by 4
    sch, sets = micro
    phi = assign_primes(sets)
    n, m0 = solve_m0(sets, phi)
    assert m0 % 2 == 0 and n % 4 == 2
    skips = sum(1 for j in range(100) if (m0 + j * n) % 4 == 0)
    assert skips == 50


def test_squarefree_n_itself(micro):
    # N is a product of distinct primes, hence squarefree
    _, sets = micro
    phi = assign_primes(sets)
    n, _ = solve_m0(sets, phi)
    assert brute_force_squarefree(n)


# -- window verification -----------------------------------------------------------


@pytest.mark.parametrize("x", [150, 1000, 3000])
def test_classes_and_witnesses_match_their_definitions(x):
    cert = construct_certificate(make_schedule(x, 1, "practical"))
    sets, y = cert.sets, cert.schedule.y
    window = range(-y, y + 1)
    assert sets.u1 == tuple(u for u in window if least_divisor(u, sets.p1))
    assert sets.u2 == tuple(u for u in window if not least_divisor(u, sets.p1))
    assert (sets.mid_classes, sets.u6) == greedy_classes(sets.u2, sets.p2)
    assert cert.cover == {
        u: congruence_witness(cert.m + u, cert.congruences) for u in window
    }
    # an offset takes an assigned prime exactly when no small band strikes it
    small = set(sets.p1) | set(sets.p2)
    for u, witness in cert.cover.items():
        assert (witness in sets.p3 if u in sets.u6 else witness in small), u


@pytest.mark.parametrize(
    "sch",
    [MICRO, *(make_schedule(x, 1, "practical") for x in (150, 400, 1000))],
    ids=["micro", "150", "400", "1000"],
)
def test_mid_and_large_classes_are_the_greedy_choice(sch):
    sets = build_sets(sch)
    assert (sets.mid_classes, sets.u6) == greedy_classes(sets.u2, sets.p2)
    assert assign_primes(sets) == large_prime_classes(sets.u6, sets.p3, sch.y)


@pytest.mark.parametrize("x", [150, 1000, 10**4])
def test_every_congruence_witnesses_an_offset(x):
    cert = construct_certificate(make_schedule(x, 1, "practical"))
    assert {c.modulus for c in cert.congruences} == set(cert.cover.values())
    # so every large prime covers one or two offsets, all of them in u6
    assert set(cert.phi) == set(cert.sets.u6)
    for p in set(cert.phi.values()):
        assert 1 <= sum(w == p for w in cert.cover.values()) <= 2


def test_verify_window_micro(micro):
    sch, sets = micro
    phi = assign_primes(sets)
    n, m0 = solve_m0(sets, phi)
    m = find_squarefree_in_ap(m0, n, sch).m
    cover = verify_window(m, covering_congruences(sets, phi), sch)
    assert len(cover) == 2 * sch.y + 1
    assert cover[-7] == 7
    # u = 0 and +-5 are struck by 2 | m (band one) and 5 | m (mid band's
    # class 0), so only -1 and 1 carry assigned primes
    assert cover[0] == 2
    assert cover[-5] == cover[5] == 5
    assert (cover[-1], cover[1]) == (11, 13)
    assert cover[4] == 2
    for u, witness in cover.items():
        assert (m + u) % witness == 0
        assert witness < m + u


def test_verify_window_rejects_small_m(micro):
    sch, sets = micro
    phi = assign_primes(sets)
    with pytest.raises(ValueError):
        verify_window(5, covering_congruences(sets, phi), sch)


# -- avoidance constant --------------------------------------------------------------


def test_avoidance_constant_value():
    m = round(math.exp(20))
    got = avoidance_constant(m, 10)
    l1 = math.log(m)
    l2, l3 = math.log(l1), math.log(math.log(l1))
    l4 = math.log(l3)
    assert got == pytest.approx(10 * l3 * l3 / (l1 * l2 * l4), rel=1e-9)
    assert got == pytest.approx(2.166, abs=2e-3)


def test_avoidance_constant_domain():
    with pytest.raises(ValueError):
        avoidance_constant(1000, 10)  # below e^(e^e)


def test_avoidance_constant_linear_in_y():
    m = round(math.exp(25))
    assert avoidance_constant(m, 20) == pytest.approx(
        2 * avoidance_constant(m, 10), rel=1e-12
    )


# -- full pipeline ---------------------------------------------------------------------


def test_certificate_micro_end_to_end():
    sch = make_schedule(40, 1, "explicit", z=math.sqrt(40), y=10)
    cert = construct_certificate(sch)
    assert cert.modulus == 30030
    assert 1 <= cert.m0 <= cert.modulus
    assert cert.m % cert.modulus == cert.m0 % cert.modulus
    assert len(cert.cover) == 21
    assert cert.squarefree_status == "proven"
    assert cert.exponent_report == pytest.approx(
        math.log(cert.m) / math.log(cert.modulus), rel=1e-12
    )


@pytest.mark.parametrize("x", [60, 100, 150])
def test_certificate_windows_total_coverage(x):
    cert = construct_certificate(make_schedule(x, 1, "practical"))
    y = cert.schedule.y
    assert set(cert.cover) == set(range(-y, y + 1))
    for u, witness in cert.cover.items():
        assert witness <= x
        assert (cert.m + u) % witness == 0
    # every congruence kept reproduces its band's residue
    residues = {c.modulus: c.residue for c in cert.congruences}
    assert all(cert.m0 % q == r for q, r in residues.items())
    for p in set(cert.sets.p1) & set(residues):
        assert residues[p] == 0
    for c, p in zip(cert.sets.mid_classes, cert.sets.p2):
        assert residues.get(p, -c % p) == -c % p
    for u, p in cert.phi.items():
        assert (cert.m0 + u) % p == 0


def test_autoshrink_trace_recorded():
    # a deliberately oversized explicit window forces shrinking
    sch = make_schedule(60, 1, "explicit", z=math.sqrt(60), y=29)
    cert = construct_certificate(sch)
    assert cert.autoshrink_trace[0] == 29
    assert cert.autoshrink_trace[-1] == cert.schedule.y
    assert len(cert.cover) == 2 * cert.schedule.y + 1


def test_window_primes_all_below_x():
    cert = construct_certificate(make_schedule(100, 1, "practical"))
    assert all(w in set(primes_upto(100)) for w in cert.cover.values())
    assert all(is_prime(w) for w in cert.cover.values())
