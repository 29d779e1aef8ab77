import json
import math
import random
from collections import Counter
from pathlib import Path

import pytest

from primeavoid import cli, kpower, numtheory
from primeavoid import document as doc_mod
from primeavoid.errors import CapacityError, ConstructionError, SearchExhausted
from primeavoid.kpower import (
    build_sets_k,
    construct_certificate_k,
    covering_congruences,
    find_prime_in_ap,
    legendre_screen,
    match_offsets,
    solve_m0_k,
    strike_offsets,
    verify_power_window,
)
from primeavoid.numtheory import (
    is_prime,
    jacobi,
    kth_root_count,
    kth_roots_mod_p,
    large_band,
    primes_upto,
)
from primeavoid.schedule import make_schedule, shrink_to_capacity

from oracles import (
    congruence_witness,
    greedy_classes,
    has_augmenting_path,
    kth_power_class,
    largest_prime_factor,
    least_divisor,
)

FIXTURES = Path(__file__).parent / "fixtures"


def solved_sets(cert):
    """The set system of a run's schedule with its P1 classes, as the run
    solved it."""
    return strike_offsets(build_sets_k(cert.schedule))


# -- set construction -----------------------------------------------------


def test_build_sets_k2_x10000_prime_bands():
    sch = make_schedule(1e4, 2, "practical")
    sets = build_sets_k(sch)
    # P1: every prime up to max(z, x/40k) = max(100, 125)
    assert sets.p1 == tuple(primes_upto(125))
    # matchable band: (125, 5000], p == 3 (mod 4)
    assert sets.p3tilde == tuple(
        p for p in primes_upto(5000) if p > 125 and p % 4 == 3
    )


def test_build_sets_k1_band_rule():
    sch = make_schedule(40, 1, "explicit", z=math.sqrt(40), y=10)
    sets = build_sets_k(sch)
    assert sets.p1 == (2, 3, 5)  # x/40 = 1 < z = sqrt(40)
    expected = tuple(p for p in primes_upto(40) if p > math.sqrt(40) and p % 3 == 2)
    assert sets.p3tilde == expected


def test_build_sets_tiny_window():
    sch = make_schedule(200, 1, "explicit", z=math.sqrt(200), y=3)
    sets = build_sets_k(sch)
    assert set(sets.u3) == {-3, -2, 2, 3}
    assert set(sets.u4) == {-3, -2, -1, 1, 2, 3}
    assert (sets.classes, sets.u7) == ((), ())  # filled by strike_offsets
    struck = strike_offsets(sets)
    assert struck.u7 == ()
    assert struck._replace(classes=(), u7=()) == sets


def test_build_sets_rejects_too_small_x():
    sch = make_schedule(40, 2, "practical", y=5)
    with pytest.raises(CapacityError):
        build_sets_k(sch)


def test_build_sets_rejects_empty_matchable_band():
    # k divisible by 6: p == 3 (mod 2k) forces 3 | p, so no prime above 3
    # is matchable at any x
    for k in (6, 12):
        sch = make_schedule(1e4, k, "practical")
        with pytest.raises(ValueError, match=rf"p == 3 \(mod {2 * k}\)"):
            build_sets_k(sch)


# -- exceptional-offset screen ------------------------------------------------


def test_screen_empty_for_odd_k():
    sch = make_schedule(200, 1, "practical")
    sets = build_sets_k(sch)
    assert legendre_screen(sch, sets.p3tilde) == ()


def test_screen_zero_always_included_for_even_k():
    sch = make_schedule(1e4, 2, "practical", y=50)
    sets = build_sets_k(sch)
    u6 = legendre_screen(sch, sets.p3tilde)
    assert 0 in u6


def test_screen_excludes_minus_one():
    # jacobi(1, p) == 1 for every p, so -1 is never exceptional
    sch = make_schedule(1e4, 2, "practical", y=50)
    sets = build_sets_k(sch)
    assert -1 not in legendre_screen(sch, sets.p3tilde)


def test_screen_catches_squares_for_k2():
    # for p == 3 (mod 4), (-u/p) = -(u/p): squares are residues nowhere
    sch = make_schedule(1e4, 2, "practical", y=50)
    sets = build_sets_k(sch)
    u6 = set(legendre_screen(sch, sets.p3tilde))
    assert {0, 1, 4, 9, 16, 25, 36, 49} <= u6
    assert all(jacobi(-u, sets.p3tilde[0]) != 1 or u == 0 for u in u6 if abs(u) < 50)


# -- solvability and matching ---------------------------------------------------


def test_matching_k1_is_total_and_ascending():
    # y=40: eleven offsets that no P1 class strikes (y=20 leaves three)
    sch = make_schedule(200, 1, "explicit", z=math.sqrt(200), y=40)
    sets = strike_offsets(build_sets_k(sch))
    matching = match_offsets(sets)
    assert len(sets.u7) == 11 and 1 not in sets.u7
    assert matching.unmatched == ()
    assert sorted(matching.matched) == list(sets.u7)
    # linear congruences always solvable: the offsets the band primes
    # q <= y leave hit the primes above y ascending, except where
    # 1-u == 0 mod p knocks an edge out
    above = [p for u, p in sorted(matching.matched.items()) if p > sets.y]
    assert above == sorted(above)
    # the pairs come in ascending prime order, each with its offsets' class
    primes = [p for _, p in matching.pairs]
    assert primes == sorted(primes)
    for u, p in matching.matched.items():
        assert (u % p, p) in matching.pairs


@pytest.fixture(scope="module")
def k2_y300_sets():
    # 33 offsets that no P1 class strikes, two of them unmatchable
    return strike_offsets(build_sets_k(make_schedule(1e4, 2, "practical", y=300)))


def test_matching_roots_verify(k2_y300_sets):
    # each matched prime's congruence takes the least nonzero root of its
    # offset's class
    sets = k2_y300_sets
    matching = match_offsets(sets)
    assert len(matching.matched) == 31
    root = {c.modulus: c.residue for c in covering_congruences(sets, matching.pairs)}
    kept = {u: p for u, p in matching.matched.items() if p in root}
    assert kept
    for u, p in kept.items():
        assert root[p] != 0
        assert pow(root[p], sets.k, p) == (1 - u) % p
        assert root[p] == min(r for r in range(p) if pow(r, sets.k, p) == (1 - u) % p)


def test_matching_k2_unsolvable_edge():
    # m^2 == -1 (mod 7) has no solution: (-1/7) = -1
    assert kth_root_count(-1, 2, 7) == 0
    assert kth_roots_mod_p(-1, 2, 7) == set()


def test_matching_zero_residue_edge_dropped(k2_y300_sets):
    # 1 - u == 0 (mod p) admits only the root 0, which is useless
    matching = match_offsets(k2_y300_sets)
    assert matching.matched
    for u, p in matching.matched.items():
        assert (1 - u) % p != 0


def test_matching_excludes_offset_one():
    sch = make_schedule(200, 1, "practical")
    sets = strike_offsets(build_sets_k(sch))
    matching = match_offsets(sets)
    assert matching.matched
    assert 1 not in matching.matched
    assert 1 not in matching.unmatched


def test_matching_is_maximum_no_augmenting_path(k2_y300_sets):
    # the band primes q <= y take greedy classes, and the matching of the
    # offsets they leave to the primes above y admits no augmenting path
    sets = k2_y300_sets
    assert 0 < len(sets.u7) <= 50
    admissible = kth_power_class(sets.k)
    small = [p for p in sets.p3tilde if p <= sets.y]
    _, left = greedy_classes(sets.u7, small, admissible)
    adjacency = {
        u: tuple(p for p in sets.p3tilde if p > sets.y and admissible(u % p, p))
        for u in left
    }
    matching = match_offsets(sets)
    pairs = {u: p for u, p in matching.matched.items() if p > sets.y}
    assert set(pairs) <= set(left)
    assert len(pairs) < len(left)
    assert not has_augmenting_path(adjacency, pairs)


def band_matching(adjacency):
    """numtheory.large_band over a bipartite graph of offsets 0, 1, ...
    and primes above them and above y = 0: each offset is its own class
    mod every prime, so the pairs read back as offset -> prime."""
    pairs, left = large_band(
        list(adjacency), sorted({v for vs in adjacency.values() for v in vs}), 0,
        lambda c, p: p in adjacency[c],
    )
    assert len(pairs) + len(left) == len(adjacency)
    return dict(pairs)


# primes above every offset of the graphs below (at most 8 offsets)
RIGHT = primes_upto(100)[4:]


def test_max_matching_equals_exhaustive_optimum():
    def brute_max(adjacency):
        lefts = list(adjacency)
        best = 0

        def rec(i, used):
            nonlocal best
            if i == len(lefts):
                best = max(best, len(used))
                return
            if len(used) + (len(lefts) - i) <= best:
                return
            rec(i + 1, used)
            for v in adjacency[lefts[i]]:
                if v not in used:
                    rec(i + 1, used | {v})

        rec(0, frozenset())
        return best

    rng = random.Random(2024)
    for _ in range(80):
        nl, nr = rng.randrange(1, 8), rng.randrange(1, 8)
        adjacency = {
            u: tuple(v for v in RIGHT[:nr] if rng.random() < 0.4) for u in range(nl)
        }
        pairs = band_matching(adjacency)
        assert not has_augmenting_path(adjacency, pairs)
        assert len(pairs) == brute_max(adjacency)


def test_max_matching_on_crafted_graphs():
    # would be size 2 under greedy, 3 under maximum
    a, b, c = RIGHT[:3]
    adjacency = {1: (a, b), 2: (a,), 3: (b, c)}
    pairs = band_matching(adjacency)
    assert len(pairs) == 3
    assert not has_augmenting_path(adjacency, pairs)
    starved = {1: (a,), 2: (a,), 3: (a,)}
    pairs = band_matching(starved)
    assert len(pairs) == 1
    assert not has_augmenting_path(starved, pairs)


@pytest.fixture(scope="module")
def kp3_x30000_sets():
    # the y that capacity leaves (752): 65 U7 offsets, 1,607 band primes
    _, sets, _ = shrink_to_capacity(
        make_schedule(3e4, 3), build_sets_k, lambda s: (s.paper_demand, len(s.p3tilde))
    )
    return strike_offsets(sets)


def test_band_prime_below_y_strikes_two_offsets(kp3_x30000_sets):
    # a band prime q <= y takes the greedy class, which may strike two U7
    # offsets, u and u + 2q
    sets = kp3_x30000_sets
    matching = match_offsets(sets)
    twice = [
        q for q, n in Counter(matching.matched.values()).items() if n == 2
    ]
    assert twice and all(q <= sets.y for q in twice)
    for q in twice:
        u, v = sorted(u for u, p in matching.matched.items() if p == q)
        assert (v - u) % (2 * q) == 0


def test_band_tests_edges_lazily(kp3_x30000_sets, monkeypatch):
    # an edge is tested when the matching reaches it, and once
    sets = kp3_x30000_sets
    assert (len(sets.u7), len(sets.p3tilde)) == (65, 1607)
    calls = []
    admissible = kpower._admissible

    def counting(k):
        rule = admissible(k)
        return lambda c, p: calls.append((c, p)) or rule(c, p)

    monkeypatch.setattr(kpower, "_admissible", counting)
    match_offsets(sets)
    assert len(calls) < len(sets.u7) * len(sets.p3tilde) // 20


# -- congruence solving -----------------------------------------------------------


def test_solve_m0_k_reduced_example():
    sch = make_schedule(1e4, 2, "practical", y=60)
    sets = build_sets_k(sch)
    # classes 0, 0 and 2 take the least roots 1, 1 and 2 (2^2 == 1 - 2)
    tiny = sets._replace(p1=(2, 3, 5), classes=(0, 0, 2))
    modulus, m0 = solve_m0_k(covering_congruences(tiny, ()))
    assert (modulus, m0) == (30, 7)  # 1 mod 2, 1 mod 3, 2 mod 5


def test_solve_m0_k_full_mode_extends_with_ones():
    sch = make_schedule(200, 1, "practical")
    full = construct_certificate_k(sch, reduced=False)
    assert full.modulus == math.prod(primes_upto(200))
    reduced = construct_certificate_k(sch, reduced=True)
    kept = {c.modulus for c in reduced.congruences}
    # the reduced system, then 1 mod every prime <= x it leaves out
    assert full.congruences == reduced.congruences + tuple(
        (1, p) for p in primes_upto(200) if p not in kept
    )
    # reduced solution is the full one reduced mod the smaller modulus
    assert full.modulus % reduced.modulus == 0
    assert full.m0 % reduced.modulus == reduced.m0


def test_solve_m0_k_defining_congruences():
    sch = make_schedule(200, 1, "practical")
    sets = strike_offsets(build_sets_k(sch))
    matching = match_offsets(sets)
    congruences = covering_congruences(sets, matching.pairs)
    modulus, m0 = solve_m0_k(congruences)
    k = sets.k
    assert math.gcd(m0, modulus) == 1
    kept = {c.modulus for c in congruences}
    assert kept <= set(sets.p1) | set(matching.matched.values())
    # m0 puts p | m0^k + u - 1 for every u == c (mod p), c the class of p
    classes = [*zip(sets.classes, sets.p1)]
    classes += ((u, p) for u, p in matching.matched.items())
    # at y=48 the band primes 17 and 23 each strike two offsets
    assert len(kept) < len(classes)
    for c, p in classes:
        if p in kept:
            assert (pow(m0, k, p) + c - 1) % p == 0


def test_solve_m0_k_rejects_zero_root():
    # 1 - 18 == 0 (mod 17) admits only the root 0
    sets = build_sets_k(make_schedule(200, 1, "practical"))
    with pytest.raises(ConstructionError, match="no nonzero root"):
        solve_m0_k(covering_congruences(sets, [(18 % 17, 17)]))


# -- prime search --------------------------------------------------------------------
# find_prime_in_ap and its sieve live in numtheory, where squarefree's
# prime-cofactor search calls them too; the tests patch them there


def test_find_prime_is_numtheorys_search():
    assert find_prime_in_ap is numtheory.find_prime_in_ap
    assert kpower.DEFAULT_PRIME_STEPS == numtheory.DEFAULT_PRIME_STEPS


def test_find_prime_examples():
    assert find_prime_in_ap(7, 30) == 37
    assert find_prime_in_ap(1, 2) == 3


def test_find_prime_rejects_shared_factor():
    with pytest.raises(ValueError):
        find_prime_in_ap(6, 30)


def test_find_prime_rejects_max_steps_below_one(monkeypatch):
    # refused before the progression sieve is built
    monkeypatch.setattr(numtheory, "_sieved_steps", None)
    for steps in (0, -1):
        with pytest.raises(ValueError, match="max_steps"):
            find_prime_in_ap(7, 30, max_steps=steps)


def test_find_prime_exhaustion_reports_tests():
    # 25 mod 30: progression holds primes (55? no; 85? no...) force tiny budget
    with pytest.raises(SearchExhausted) as err:
        find_prime_in_ap(25, 34571 * 2, max_steps=1)
    assert err.value.steps == 1


def naive_find_prime(m0, modulus, max_steps):
    """First prime m0 + j*modulus with 1 <= j <= max_steps, testing every
    step."""
    for j in range(1, max_steps + 1):
        if is_prime(m0 + j * modulus):
            return m0 + j * modulus
    return None


def seeded_progressions():
    rng = random.Random(5)
    cases = [(7, 30), (1, 2), (2, 1), (0, 1), (1, 6), (5, 6), (3, 4)]
    # tiny moduli: the first members fall at or below the sieve bound
    for _ in range(60):
        modulus = rng.randrange(1, 3000)
        m0 = rng.randrange(0, 2 * modulus)
        if math.gcd(m0, modulus) == 1:
            cases.append((m0, modulus))
    # moduli that put every member far above the sieve bound
    for bits in (40, 64, 90, 200):
        for _ in range(5):
            modulus = rng.getrandbits(bits) | 1
            m0 = rng.randrange(1, modulus)
            if math.gcd(m0, modulus) == 1:
                cases.append((m0, modulus))
    # a modulus divisible by every prime up to 53, as in the construction
    modulus = math.prod(primes_upto(53))
    cases += [(rng.randrange(1, modulus) | 1, modulus) for _ in range(5)]
    return [(m0, n) for m0, n in cases if math.gcd(m0, n) == 1]


def test_find_prime_matches_naive_search():
    for m0, modulus in seeded_progressions():
        assert find_prime_in_ap(m0, modulus, max_steps=5000) == naive_find_prime(
            m0, modulus, 5000
        ), (m0, modulus)


# The gap of 1132 after this prime is a maximal prime gap, so with modulus
# 1 the first prime sits at any chosen step up to 1132.
GAP_START = 1693182318746371
GAP_END = GAP_START + 1132


@pytest.mark.parametrize("j", [1023, 1024, 1025, 1132])
def test_find_prime_across_chunk_boundary(j):
    m0 = GAP_END - j
    assert naive_find_prime(m0, 1, 1200) == GAP_END
    assert find_prime_in_ap(m0, 1) == GAP_END


def test_find_prime_exhaustion_counts_only_primality_tests(monkeypatch):
    # 1131 steps inside the gap: crosses a chunk boundary, finds nothing
    tested = []

    def counting_is_prime(n):
        tested.append(n)
        return is_prime(n)

    monkeypatch.setattr(numtheory, "is_prime", counting_is_prime)
    m0 = GAP_START
    with pytest.raises(SearchExhausted) as err:
        find_prime_in_ap(m0, 1, max_steps=1131)
    assert err.value.steps == 1131
    assert err.value.tests == len(tested)
    # exactly the members without a prime factor <= the sieve bound
    sieve_primorial = math.prod(primes_upto(numtheory._SIEVE_DEPTH))
    survivors = [
        m0 + j for j in range(1, 1132) if math.gcd(m0 + j, sieve_primorial) == 1
    ]
    assert tested == survivors
    assert 0 < len(survivors) < 1131 // 5


def test_find_prime_tests_small_members_directly(monkeypatch):
    # members at or below the sieve bound reach is_prime even when a
    # sieve prime divides them (here the member is that prime)
    tested = []

    def counting_is_prime(n):
        tested.append(n)
        return is_prime(n)

    monkeypatch.setattr(numtheory, "is_prime", counting_is_prime)
    assert find_prime_in_ap(1, 2) == 3
    assert find_prime_in_ap(0, 1) == 2
    big_prime = max(primes_upto(numtheory._SIEVE_DEPTH))
    assert find_prime_in_ap(big_prime - 1, 1) == big_prime
    assert tested == [3, 1, 2, big_prime]


# 2^1024 + 3711 and 2^1024 + 5335 are consecutive primes.  Every member of
# the gap between them is at least _POOL_MIN_BITS bits long, so with
# modulus 1 the first prime sits at any chosen step or survivor position
# of a pooled search.
BIG_GAP_START = 2**1024 + 3711
BIG_GAP_END = 2**1024 + 5335
POOL_WORKERS = 3  # more than the cores of a 2-core host, and odd


@pytest.fixture(scope="module")
def big_gap_survivors():
    """The gap's members with no prime factor <= the sieve bound."""
    struck = set()
    for p in primes_upto(numtheory._SIEVE_DEPTH):
        struck.update(range(BIG_GAP_START + p - BIG_GAP_START % p, BIG_GAP_END, p))
    return [n for n in range(BIG_GAP_START + 1, BIG_GAP_END) if n not in struck]


def record_tests(monkeypatch, workers):
    """Force ``workers`` pool workers and return the list of members that
    numtheory.is_prime tests in this process; a pool worker's tests are not
    seen."""
    tested = []

    def counting_is_prime(n):
        tested.append(n)
        return is_prime(n)

    monkeypatch.setattr(numtheory, "_pool_workers", lambda: workers)
    monkeypatch.setattr(numtheory, "is_prime", counting_is_prime)
    return tested


@pytest.mark.parametrize("position", [1, 2, POOL_WORKERS, POOL_WORKERS + 1])
def test_pool_search_keeps_first_prime_at_survivor_position(
    monkeypatch, big_gap_survivors, position
):
    tested = record_tests(monkeypatch, POOL_WORKERS)
    start = big_gap_survivors[-(position - 1)] if position > 1 else BIG_GAP_END
    m0 = start - 1
    found = find_prime_in_ap(m0, 1)
    assert found == naive_find_prime(m0, 1, BIG_GAP_END - m0) == BIG_GAP_END
    assert tested == []  # every member went to a worker


@pytest.mark.parametrize("j", [1024, 1025])
def test_pool_search_across_chunk_boundary(monkeypatch, j):
    record_tests(monkeypatch, POOL_WORKERS)
    m0 = BIG_GAP_END - j
    assert find_prime_in_ap(m0, 1) == naive_find_prime(m0, 1, j) == BIG_GAP_END


@pytest.mark.parametrize("workers", [1, POOL_WORKERS])
def test_pool_search_exhaustion_counts_every_survivor(
    monkeypatch, big_gap_survivors, workers
):
    tested = record_tests(monkeypatch, workers)
    steps = BIG_GAP_END - BIG_GAP_START - 1
    with pytest.raises(SearchExhausted) as err:
        find_prime_in_ap(BIG_GAP_START, 1, max_steps=steps)
    assert err.value.steps == steps
    assert err.value.tests == len(big_gap_survivors) > POOL_WORKERS
    # one worker: every survivor tested here, in step order
    assert tested == (big_gap_survivors if workers == 1 else [])


def test_pool_search_over_odd_members(monkeypatch):
    # modulus 2: the odd members from inside the big gap, first prime at
    # step 600
    tested = record_tests(monkeypatch, POOL_WORKERS)
    m0 = BIG_GAP_END - 2 * 600
    assert find_prime_in_ap(m0, 2) == naive_find_prime(m0, 2, 600) == BIG_GAP_END
    assert tested == []


# -- window verification ---------------------------------------------------------------


@pytest.fixture(scope="module")
def k1_cert():
    return construct_certificate_k(make_schedule(200, 1, "practical"))


def test_k1_pipeline_cover(k1_cert):
    cert = k1_cert
    y = cert.schedule.y
    assert set(cert.cover) | {1} == set(range(-y, y + 1))
    for u, w in cert.cover.items():
        assert (cert.m + u - 1) % w == 0
        assert w < cert.m + u - 1
    assert is_prime(cert.m)
    assert math.gcd(cert.m0, cert.modulus) == 1


def test_k1_zero_offset_covered_by_band_one(k1_cert):
    # u=0: class 0 of 2, the least admissible class, gives m == 1 (mod 2)
    w = k1_cert.cover[0]
    assert w == 2 and k1_cert.m0 % 2 == 1


@pytest.mark.parametrize(
    "k, x", [(1, 200), (2, 2000), (3, 1000), (4, 2000), (5, 2000), (1, 10_000)]
)
def test_classes_and_witnesses_match_their_definitions(k, x):
    sch = make_schedule(x, k, "practical")
    cert = construct_certificate_k(sch)
    # the paper's classes of the first y the run tries (3725 at k=1,
    # x=10^4, so the largest-prime-factor table is checked at that size)
    # and of the last, which the certificate keeps
    for s in (sch, cert.schedule):
        sets = build_sets_k(s)
        z, y, shift = s.z, s.y, (1 << k) - 1
        mid = [p for p in primes_upto(z) if p > math.log(x)]
        window = range(-y, y + 1)
        assert sets.p1 == tuple(primes_upto(max(z, x / (40 * k))))
        assert sets.u3 == tuple(
            u for u in window if largest_prime_factor(abs(u)) == abs(u) > 1
        )
        assert sets.u4 == tuple(
            u for u in window if u != 0 and largest_prime_factor(abs(u)) <= z
        )
        assert sets.u5 == tuple(u for u in sets.u3 if not least_divisor(u + shift, mid))
    assert x < 10_000 or sch.y == 3725
    base = cert.m**k
    window = range(-cert.schedule.y, cert.schedule.y + 1)
    offsets = [u for u in window if u != 1]
    sets = solved_sets(cert)
    assert (sets.classes, sets.u7) == greedy_classes(
        offsets, sets.p1, kth_power_class(k)
    )
    witness = {u: congruence_witness(base + u - 1, cert.congruences) for u in offsets}
    assert cert.cover == witness  # every offset but u = 1 has a witness


@pytest.mark.parametrize("k", [1, 2, 3, 5])
@pytest.mark.parametrize("x, y", [(200, 30), (1000, 60), (2000, 90)])
def test_strike_offsets_matches_the_greedy_oracle(k, x, y):
    sets = strike_offsets(build_sets_k(make_schedule(x, k, "practical", y=y)))
    offsets = [u for u in range(-y, y + 1) if u != 1]
    oracle = greedy_classes(offsets, sets.p1, kth_power_class(k))
    assert (sets.classes, sets.u7) == oracle
    # every class is admissible, so none strikes u = 1
    assert all(1 % p != c for c, p in zip(sets.classes, sets.p1))


KPOWER_GRID = [(1, 100), (1, 200), (2, 600), (2, 2000), (3, 1000), (4, 2000),
               (5, 2000)]


@pytest.fixture(scope="module", params=KPOWER_GRID, ids=lambda kx: f"k{kx[0]}-x{kx[1]}")
def grid_cert(request):
    k, x = request.param
    return construct_certificate_k(make_schedule(x, k, "practical"))


def struck_by_p1(sets, u):
    return any(u % p == c for c, p in zip(sets.classes, sets.p1))


def test_u7_is_the_offsets_no_band_strikes(grid_cert):
    sets, y = solved_sets(grid_cert), grid_cert.schedule.y
    expected = tuple(
        u for u in range(-y, y + 1) if u != 1 and not struck_by_p1(sets, u)
    )
    assert sets.u7 == expected


def test_no_matched_offset_has_a_band_witness(grid_cert):
    sets = solved_sets(grid_cert)
    for u in match_offsets(sets).matched:
        assert not struck_by_p1(sets, u)
        assert grid_cert.cover[u] not in sets.p1


def test_every_matched_prime_witnesses_an_offset(grid_cert):
    witnesses = set(grid_cert.cover.values())
    matched = match_offsets(solved_sets(grid_cert)).matched
    assert all(p in witnesses for p in matched.values())


@pytest.fixture(scope="module")
def kp2_x10000_cert():
    return construct_certificate_k(make_schedule(1e4, 2, "practical"))


def test_every_reduced_congruence_witnesses_an_offset(grid_cert, kp2_x10000_cert):
    for cert in (grid_cert, kp2_x10000_cert):
        assert sorted(c.modulus for c in cert.congruences) == sorted(
            set(cert.cover.values())
        )


def test_kp2_x10000_is_small_and_has_no_exception(kp2_x10000_cert):
    cert = kp2_x10000_cert
    assert cert.schedule.y == 116  # the paper's y, as in format 1.5
    assert cert.modulus.bit_length() <= 170
    assert len(cert.cover) == 2 * cert.schedule.y  # every offset but u = 1


def test_full_mode_has_one_congruence_per_prime():
    cert = construct_certificate_k(make_schedule(600, 2, "practical"), reduced=False)
    assert len(cert.congruences) == 109
    assert [c.modulus for c in sorted(cert.congruences, key=lambda c: c.modulus)] == (
        primes_upto(600)
    )


def test_exceptions_are_the_unmatched_u7_offsets(grid_cert):
    cert = grid_cert
    sets = solved_sets(cert)
    matching = match_offsets(sets)
    # none: an unmatched offset halves y
    assert set(matching.matched) == set(sets.u7) and matching.unmatched == ()
    assert doc_mod.certificate_to_document(cert)["exceptions"] == []
    assert cert.metrics == {}


def leave_one_open(monkeypatch, first_only):
    """Make kpower's large band leave the offset of its last pair open, on
    its first call or on every call, as if that offset had no matchable
    prime; returns the y of each call."""
    real, calls = kpower.large_band, []

    def band(offsets, primes, y, admissible):
        pairs, left = real(offsets, primes, y, admissible)
        calls.append(y)
        if first_only and len(calls) > 1:
            return pairs, left
        c, q = pairs[-1]
        assert left == () and q > y  # the last pair is a matched prime
        return pairs[:-1], (next(u for u in offsets if u % q == c),)

    monkeypatch.setattr(kpower, "large_band", band)
    return calls


def test_an_unmatched_offset_halves_y(monkeypatch):
    sch = make_schedule(1000, 3, "practical")
    trace = construct_certificate_k(sch).autoshrink_trace
    calls = leave_one_open(monkeypatch, first_only=True)
    cert = construct_certificate_k(sch)
    y = trace[-1] // 2
    assert cert.autoshrink_trace == (*trace, y) and calls == [trace[-1], y]
    doc = doc_mod.certificate_to_document(cert)
    assert doc["exceptions"] == [] and set(cert.cover) | {1} == set(range(-y, y + 1))
    assert doc_mod.verify_document(doc_mod.parse_document(doc_mod.document_to_json(doc))).ok


def test_no_matching_y_is_a_capacity_failure(monkeypatch, capsys):
    # x=400, k=2, z=6: P1 is 2, 3 and 5, whose classes leave 3 offsets
    # open at y=10 and 1 at y=5; the paper's count holds at both
    calls = leave_one_open(monkeypatch, first_only=False)
    with pytest.raises(CapacityError) as failure:
        construct_certificate_k(make_schedule(400, 2, "explicit", z=6, y=10))
    assert calls == [10, 5]
    assert (failure.value.needed, failure.value.available) == (1, 0)
    message = (
        "capacity failed at y=5: 1 offsets need a covering prime but only 0 "
        "are available, and y cannot shrink below 3"
    )
    assert str(failure.value) == message
    argv = ["--mode", "kpower", "--k", "2", "--x", "400", "--profile", "explicit",
            "--z", "6", "--y", "10"]
    assert cli.main(["construct", *argv]) == cli.EXIT_CAPACITY == 2
    assert capsys.readouterr() == ("", f"capacity failure: {message}\n")


@pytest.mark.parametrize(
    "name", ["kp1_x200.json", "kp2_x600_full.json", "kp3_x1000.json", "kp5_x2000.json"]
)
def test_fixture_keeps_format_1_2_window(name):
    # U7 changes which primes are matched, never y or the exceptions
    new, old = (
        json.loads((d / name).read_text())
        for d in (FIXTURES / "v1.4", FIXTURES / "v1.2")
    )
    assert new["schedule"] == old["schedule"]
    assert new["metrics"]["autoshrink_trace"] == old["metrics"]["autoshrink_trace"]
    assert [e["u"] for e in new["exceptions"]] == [e["u"] for e in old["exceptions"]]


def test_verify_rechecks_divisions(k1_cert):
    cert = k1_cert
    assert verify_power_window(cert.m, cert.congruences, cert.schedule) == (
        cert.cover, []
    )
    metrics = doc_mod.certificate_to_document(cert)["metrics"]
    assert metrics["prime_count_in_window"] == 0


def test_document_derives_the_metrics(k1_cert, kp2_x10000_cert):
    # the exponent and the constant on m^k come from the certificate's m,
    # modulus and y; no window element but m^k is prime
    cert = kp2_x10000_cert
    doc = doc_mod.certificate_to_document(cert, seed=9)
    metrics = doc["metrics"]
    assert doc["seed"] == 9
    assert metrics["exponent_report"] == math.log(cert.m) / math.log(cert.modulus)
    assert metrics["prime_count_in_window"] == 0
    assert metrics["avoidance_constant"] == numtheory.avoidance_constant(
        cert.m**2, cert.schedule.y
    )
    # a 17-bit m is below e^(e^e), where the constant is undefined
    assert k1_cert.m < 2**17
    metrics = doc_mod.certificate_to_document(k1_cert)["metrics"]
    assert metrics["avoidance_constant"] is None


def test_k1_full_modulus_pipeline():
    cert = construct_certificate_k(make_schedule(200, 1, "practical"), reduced=False)
    assert cert.modulus == math.prod(primes_upto(200))
    assert math.gcd(cert.m0, cert.modulus) == 1
    assert is_prime(cert.m)
    # the primes <= x that the reduced system leaves out all got residue 1
    sets = solved_sets(cert)
    kept = {c.modulus for c in covering_congruences(sets, match_offsets(sets).pairs)}
    left = [p for p in primes_upto(200) if p not in kept]
    assert left and all(cert.m0 % p == 1 for p in left)
    y = cert.schedule.y
    assert set(cert.cover) | {1} == set(range(-y, y + 1))


def test_k2_pipeline_small():
    cert = construct_certificate_k(
        make_schedule(1e4, 2, "practical", y=60)
    )
    y = cert.schedule.y
    assert is_prime(cert.m)
    assert math.gcd(cert.m0, cert.modulus) == 1
    base = cert.m**2
    for u, w in cert.cover.items():
        assert (base + u - 1) % w == 0
    assert set(cert.cover) | {1} == set(range(-y, y + 1))
