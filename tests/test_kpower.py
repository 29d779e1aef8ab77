import json
import math
import random
from dataclasses import replace
from pathlib import Path

import pytest

from primeavoid import kpower, numtheory
from primeavoid.errors import CapacityError, SearchExhausted
from primeavoid.kpower import (
    KMatching,
    _max_matching,
    build_sets_k,
    construct_certificate_k,
    find_prime_in_ap,
    legendre_screen,
    match_offsets,
    matrix_scan,
    solve_m0_k,
    verify_power_window,
)
from primeavoid.numtheory import (
    is_prime,
    jacobi,
    kth_root_count,
    kth_roots_mod_p,
    primes_upto,
)
from primeavoid.schedule import make_schedule

from oracles import (
    congruence_witness,
    has_augmenting_path,
    largest_prime_factor,
    least_divisor,
    unstruck_offsets,
)

FIXTURES = Path(__file__).parent / "fixtures"


# -- set construction -----------------------------------------------------


def test_build_sets_k2_x10000_prime_bands():
    sch = make_schedule(1e4, 2, "practical")
    sets = build_sets_k(sch)
    assert sets.p1 == (2, 3, 5, 7, 101, 103, 107, 109, 113)
    assert sets.p2[0] == 11 and sets.p2[-1] == 97
    assert not sets.p1_upper_empty
    # matchable band: (125, 5000], p == 3 (mod 4), outside the other bands
    assert all(125 < p <= 5000 and p % 4 == 3 for p in sets.p3tilde)


def test_build_sets_k1_band_rule():
    sch = make_schedule(40, 1, "explicit", z=math.sqrt(40), y=10)
    sets = build_sets_k(sch)
    cut = 40 / 40
    expected = tuple(
        p
        for p in primes_upto(40)
        if cut < p <= 40 and p % 3 == 2 and p not in set(sets.p1) | set(sets.p2)
    )
    assert sets.p3tilde == expected


def test_build_sets_tiny_window():
    sch = make_schedule(200, 1, "explicit", z=math.sqrt(200), y=3)
    sets = build_sets_k(sch)
    assert set(sets.u1) | set(sets.u2) == set(range(-3, 4))
    assert set(sets.u3) == {-3, -2, 2, 3}
    assert set(sets.u4) == {-3, -2, -1, 1, 2, 3}


def test_build_sets_rejects_too_small_x():
    sch = make_schedule(40, 2, "practical", y=5)
    with pytest.raises(CapacityError):
        build_sets_k(sch)


def test_build_sets_rejects_empty_matchable_band():
    # even k divisible by 3: p == 3 (mod 2k) forces 3 | p, so the band
    # above x/(40k) holds no admissible prime at all
    sch = make_schedule(400, 6, "practical")
    with pytest.raises(CapacityError, match="no matchable"):
        build_sets_k(sch)


def test_upper_band_empty_is_flagged_not_fatal():
    # x=200, k=1: x/40 = 5 < z = sqrt(200), so band one has no upper part
    sch = make_schedule(200, 1, "practical")
    sets = build_sets_k(sch)
    assert sets.p1_upper_empty
    assert sets.p1 == (2, 3, 5)


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
    # y=20: nine offsets that no small band strikes (y=6 leaves none)
    sch = make_schedule(200, 1, "explicit", z=math.sqrt(200), y=20)
    sets = build_sets_k(sch)
    matching = match_offsets(sets)
    domain = [u for u in sets.u7 if u != 1]
    assert len(domain) == 9
    assert matching.unmatched == ()
    assert sorted(matching.matched) == domain
    # linear congruences always solvable: ascending offsets hit ascending
    # primes, except where 1-u == 0 mod p knocks an edge out
    primes_used = [matching.matched[u][0] for u in sorted(matching.matched)]
    assert primes_used == sorted(primes_used)


def test_matching_roots_verify():
    sch = make_schedule(1e4, 2, "practical", y=60)
    sets = build_sets_k(sch)
    matching = match_offsets(sets)
    for u, (p, root) in matching.matched.items():
        assert root != 0
        assert pow(root, sets.k, p) == (1 - u) % p


def test_matching_k2_unsolvable_edge():
    # m^2 == -1 (mod 7) has no solution: (-1/7) = -1
    assert kth_root_count(-1, 2, 7) == 0
    assert kth_roots_mod_p(-1, 2, 7) == set()


def test_matching_zero_residue_edge_dropped():
    # 1 - u == 0 (mod p) admits only the root 0, which is useless
    sch = make_schedule(1e4, 2, "practical", y=60)
    sets = build_sets_k(sch)
    matching = match_offsets(sets)
    for u, (p, _) in matching.matched.items():
        assert (1 - u) % p != 0


def test_matching_excludes_offset_one():
    sch = make_schedule(200, 1, "practical")
    sets = build_sets_k(sch)
    matching = match_offsets(sets)
    assert 1 not in matching.matched
    assert 1 not in matching.unmatched


def test_matching_is_maximum_no_augmenting_path():
    sch = make_schedule(1e4, 2, "practical", y=20)
    sets = build_sets_k(sch)
    domain = [u for u in sets.u7 if u != 1]
    assert len(domain) <= 50
    adjacency = {
        u: tuple(
            p for p in sets.p3tilde
            if (1 - u) % p != 0 and kth_root_count(1 - u, sets.k, p)
        )
        for u in domain
    }
    pairs = _max_matching(adjacency)
    assert not has_augmenting_path(adjacency, pairs)


def test_max_matching_equals_exhaustive_optimum():
    import random

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
            u: tuple(v for v in range(nr) if rng.random() < 0.4) for u in range(nl)
        }
        pairs = _max_matching(adjacency)
        assert not has_augmenting_path(adjacency, pairs)
        assert len(pairs) == brute_max(adjacency)


def test_max_matching_on_crafted_graphs():
    # would be size 2 under greedy, 3 under maximum
    adjacency = {1: (10, 20), 2: (10,), 3: (20, 30)}
    pairs = _max_matching(adjacency)
    assert len(pairs) == 3
    assert not has_augmenting_path(adjacency, pairs)
    starved = {1: (10,), 2: (10,), 3: (10,)}
    pairs = _max_matching(starved)
    assert len(pairs) == 1
    assert not has_augmenting_path(starved, pairs)


# -- congruence solving -----------------------------------------------------------


def test_solve_m0_k_reduced_example():
    sch = make_schedule(1e4, 2, "practical", y=60)
    sets = build_sets_k(sch)
    tiny = replace(sets, p1=(2, 3), p2=(5,))
    matching = KMatching(matched={}, unmatched=())
    _, modulus, m0 = solve_m0_k(sch, tiny, matching, reduced=True)
    assert (modulus, m0) == (30, 7)  # 1 mod 2, 1 mod 3, 2 mod 5


def test_solve_m0_k_full_mode_extends_with_ones():
    sch = make_schedule(200, 1, "practical")
    sets = build_sets_k(sch)
    matching = match_offsets(sets)
    sets_full, modulus_full, m0_full = solve_m0_k(sch, sets, matching, reduced=False)
    assert modulus_full == math.prod(primes_upto(200))
    for p in sets_full.p4:
        assert m0_full % p == 1
    # reduced solution is the full one reduced mod the smaller modulus
    _, modulus_red, m0_red = solve_m0_k(sch, sets, matching, reduced=True)
    assert modulus_full % modulus_red == 0
    assert m0_full % modulus_red == m0_red


def test_solve_m0_k_defining_congruences():
    sch = make_schedule(200, 1, "practical")
    sets = build_sets_k(sch)
    matching = match_offsets(sets)
    _, modulus, m0 = solve_m0_k(sch, sets, matching, reduced=True)
    k = sets.k
    assert math.gcd(m0, modulus) == 1
    for p in sets.p1:
        assert m0 % p == 1
    for p in sets.p2:
        assert m0 % p == 2
    for u, (p, _) in matching.matched.items():
        assert (pow(m0, k, p) + u - 1) % p == 0


def test_solve_m0_k_rejects_zero_root():
    sch = make_schedule(200, 1, "practical")
    sets = build_sets_k(sch)
    bad = KMatching(matched={4: (17, 0)}, unmatched=())
    with pytest.raises(ValueError, match="zero root"):
        solve_m0_k(sch, sets, bad, reduced=True)


# -- prime search --------------------------------------------------------------------


def test_find_prime_examples():
    assert find_prime_in_ap(7, 30) == 37
    assert find_prime_in_ap(1, 2) == 3


def test_find_prime_rejects_shared_factor():
    with pytest.raises(ValueError):
        find_prime_in_ap(6, 30)


def test_find_prime_rejects_max_steps_below_one(monkeypatch):
    # refused before the progression sieve is built
    monkeypatch.setattr(kpower, "_sieved_steps", None)
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

    monkeypatch.setattr(kpower, "is_prime", counting_is_prime)
    m0 = GAP_START
    with pytest.raises(SearchExhausted) as err:
        find_prime_in_ap(m0, 1, max_steps=1131)
    assert err.value.steps == 1131
    assert err.value.tests == len(tested)
    # exactly the members without a prime factor <= the sieve bound
    sieve_primorial = math.prod(primes_upto(kpower._SCREEN_PRIME_LIMIT))
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

    monkeypatch.setattr(kpower, "is_prime", counting_is_prime)
    assert find_prime_in_ap(1, 2) == 3
    assert find_prime_in_ap(0, 1) == 2
    limit = kpower._SCREEN_PRIME_LIMIT
    big_prime = max(primes_upto(limit))
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
    for p in primes_upto(kpower._SCREEN_PRIME_LIMIT):
        struck.update(range(BIG_GAP_START + p - BIG_GAP_START % p, BIG_GAP_END, p))
    return [n for n in range(BIG_GAP_START + 1, BIG_GAP_END) if n not in struck]


def record_tests(monkeypatch, workers):
    """Force ``workers`` pool workers and return the list of members that
    kpower.is_prime tests in this process; a pool worker's tests are not
    seen."""
    tested = []

    def counting_is_prime(n):
        tested.append(n)
        return is_prime(n)

    monkeypatch.setattr(numtheory, "_pool_workers", lambda: workers)
    monkeypatch.setattr(kpower, "is_prime", counting_is_prime)
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


def test_pool_matrix_scan_matches_naive_scan(monkeypatch):
    record_tests(monkeypatch, POOL_WORKERS)
    # odd rows from inside the big gap to past its end: three prime rows
    m0, rows, exceptional = BIG_GAP_END - 2 * 600, 950, (-1, 0, 2)
    report = matrix_scan(m0, 2, 2, rows, 5, exceptional=exceptional)
    prime_rows, avoiding = naive_matrix_scan(m0, 2, 2, rows, exceptional)
    assert report.prime_rows == prime_rows == 3
    assert list(report.avoiding_rows) == avoiding


# -- window verification ---------------------------------------------------------------


@pytest.fixture(scope="module")
def k1_cert():
    return construct_certificate_k(make_schedule(200, 1, "practical"), seed=0)


def test_k1_pipeline_cover(k1_cert):
    cert = k1_cert
    y = cert.schedule.y
    covered = set(cert.cover) | {u for u, _ in cert.exceptions} | {1}
    assert covered == set(range(-y, y + 1))
    for u, w in cert.cover.items():
        assert (cert.m + u - 1) % w == 0
        assert w < cert.m + u - 1
    assert is_prime(cert.m)
    assert math.gcd(cert.m0, cert.modulus) == 1


def test_k1_zero_offset_covered_by_band_one(k1_cert):
    # u=0: every band-one prime divides 0 and m - 1 == 0 (mod p)
    w = k1_cert.cover[0]
    assert w in k1_cert.sets.p1


def test_k1_mid_band_witness_algebra(k1_cert):
    cert = k1_cert
    for u, w in cert.cover.items():
        if w in set(cert.sets.p2):
            assert (u + 1) % w == 0  # k=1: p | u + 2^1 - 1
            assert cert.m0 % w == 2


@pytest.mark.parametrize(
    "k, x", [(1, 200), (2, 2000), (3, 1000), (4, 2000), (5, 2000)]
)
def test_classes_and_witnesses_match_their_definitions(k, x):
    cert = construct_certificate_k(make_schedule(x, k, "practical"))
    sets, z, y = cert.sets, cert.schedule.z, cert.schedule.y
    window = range(-y, y + 1)
    assert sets.u1 == tuple(u for u in window if least_divisor(u, sets.p1))
    assert sets.u2 == tuple(u for u in window if not least_divisor(u, sets.p1))
    assert sets.u3 == tuple(
        u for u in window if largest_prime_factor(abs(u)) == abs(u) > 1
    )
    assert sets.u4 == tuple(
        u for u in window if u != 0 and largest_prime_factor(abs(u)) <= z
    )
    shift = (1 << k) - 1
    assert sets.u5 == tuple(u for u in sets.u3 if not least_divisor(u + shift, sets.p2))
    base = cert.m**k
    witness = {
        u: congruence_witness(base + u - 1, cert.congruences) for u in window if u != 1
    }
    assert cert.cover == {u: p for u, p in witness.items() if p}
    assert [u for u, _ in cert.exceptions] == [u for u, p in witness.items() if not p]


def test_minus_one_struck_by_mid_band(k1_cert):
    # every mid-band prime divides u + 1 = 0 at u = -1, so the least of
    # them witnesses -1 although |u| = 1 is no prime.  The paper counts -1
    # (z-smooth, in U4) as needing a matched prime, but it gets none, and
    # it stays covered by the band congruences alone
    cert = k1_cert
    assert -1 in cert.sets.u4 and -1 not in cert.sets.u1
    assert -1 not in cert.sets.u7 and -1 not in cert.matching.matched
    assert cert.cover[-1] == min(cert.sets.p2)
    bands = set(cert.sets.p1) | set(cert.sets.p2)
    congruences = tuple(c for c in cert.congruences if c.modulus in bands)
    cover, exceptions, _ = verify_power_window(cert.m, congruences, cert.schedule)
    assert cover[-1] == min(cert.sets.p2)
    assert -1 not in {u for u, _ in exceptions}


KPOWER_GRID = [(1, 100), (1, 200), (2, 600), (2, 2000), (3, 1000), (4, 2000),
               (5, 2000)]


@pytest.fixture(scope="module", params=KPOWER_GRID, ids=lambda kx: f"k{kx[0]}-x{kx[1]}")
def grid_cert(request):
    k, x = request.param
    return construct_certificate_k(make_schedule(x, k, "practical"))


def test_u7_is_the_offsets_no_band_strikes(grid_cert):
    sets, y = grid_cert.sets, grid_cert.schedule.y
    shift = (1 << sets.k) - 1
    expected = tuple(u for u in unstruck_offsets(y, sets.p1, sets.p2, shift) if u != 1)
    assert sets.u7 == expected


def test_no_matched_offset_has_a_band_witness(grid_cert):
    sets = grid_cert.sets
    shift = (1 << sets.k) - 1
    bands = set(sets.p1) | set(sets.p2)
    for u in grid_cert.matching.matched:
        assert not least_divisor(u, sets.p1) and not least_divisor(u + shift, sets.p2)
        assert grid_cert.cover[u] not in bands


def test_every_matched_prime_witnesses_an_offset(grid_cert):
    witnesses = set(grid_cert.cover.values())
    assert all(p in witnesses for p, _ in grid_cert.matching.matched.values())


def test_exceptions_are_the_unmatched_u7_offsets(grid_cert):
    cert = grid_cert
    matching = cert.matching
    assert set(matching.matched) | set(matching.unmatched) == set(cert.sets.u7)
    assert [u for u, _ in cert.exceptions] == list(cert.matching.unmatched)


@pytest.mark.parametrize(
    "name", ["kp1_x200.json", "kp2_x600_full.json", "kp3_x1000.json", "kp5_x2000.json"]
)
def test_fixture_keeps_format_1_2_window(name):
    # U7 changes which primes are matched, never y or the exceptions
    new, old = (
        json.loads((d / name).read_text()) for d in (FIXTURES, FIXTURES / "v1.2")
    )
    assert new["schedule"] == old["schedule"]
    assert new["metrics"]["autoshrink_trace"] == old["metrics"]["autoshrink_trace"]
    assert [e["u"] for e in new["exceptions"]] == [e["u"] for e in old["exceptions"]]


def test_verify_rechecks_divisions(k1_cert):
    cert = k1_cert
    cover, exceptions, prime_count = verify_power_window(
        cert.m, cert.congruences, cert.schedule
    )
    assert cover.keys() == cert.cover.keys()
    assert exceptions == cert.exceptions
    assert prime_count == cert.prime_count_in_window


def test_k1_full_modulus_pipeline():
    cert = construct_certificate_k(
        make_schedule(200, 1, "practical"), reduced=False, seed=0
    )
    assert cert.modulus == math.prod(primes_upto(200))
    assert math.gcd(cert.m0, cert.modulus) == 1
    assert is_prime(cert.m)
    # leftover primes all got residue 1
    for p in cert.sets.p4:
        assert cert.m0 % p == 1
    y = cert.schedule.y
    assert set(cert.cover) | {u for u, _ in cert.exceptions} | {1} == set(
        range(-y, y + 1)
    )


def test_k2_pipeline_small():
    cert = construct_certificate_k(
        make_schedule(1e4, 2, "practical", y=60), seed=0
    )
    y = cert.schedule.y
    assert is_prime(cert.m)
    assert math.gcd(cert.m0, cert.modulus) == 1
    base = cert.m**2
    for u, w in cert.cover.items():
        assert (base + u - 1) % w == 0
    for u, status in cert.exceptions:
        assert status in ("prime", "composite")
        assert (status == "prime") == is_prime(base + u - 1)
    covered = set(cert.cover) | {u for u, _ in cert.exceptions} | {1}
    assert covered == set(range(-y, y + 1))


# -- matrix scan ----------------------------------------------------------------------


def test_matrix_scan_zero_rows(k1_cert):
    report = matrix_scan(k1_cert.m0, k1_cert.modulus, 1, 0, k1_cert.schedule.y)
    assert (report.prime_rows, report.rows_with_window_prime) == (0, 0)
    assert report.ratio == 0.0


def test_matrix_scan_counts_match_direct_enumeration(k1_cert):
    cert = k1_cert
    report = matrix_scan(
        cert.m0, cert.modulus, 1, 60, cert.schedule.y, exceptional=()
    )
    direct = [
        r for r in range(1, 61) if is_prime(cert.m0 + r * cert.modulus)
    ]
    assert report.prime_rows == len(direct)
    assert list(report.avoiding_rows) == direct
    assert report.rows_with_window_prime == 0  # no exceptional columns


def test_matrix_scan_small_modulus_cross_check():
    report = matrix_scan(7, 30, 1, 100, 5, exceptional=())
    direct = [r for r in range(1, 101) if is_prime(7 + 30 * r)]
    assert report.prime_rows == len(direct)
    assert list(report.avoiding_rows) == direct


def naive_matrix_scan(m0, modulus, k, rows, exceptional):
    prime_rows, avoiding = 0, []
    for r in range(1, rows + 1):
        g = m0 + r * modulus
        if is_prime(g):
            prime_rows += 1
            if not any(is_prime(g**k + u - 1) for u in exceptional):
                avoiding.append(r)
    return prime_rows, avoiding


def test_matrix_scan_matches_naive_scan():
    rng = random.Random(9)
    cases = [(m0, n, 1200) for m0, n in seeded_progressions()[:20]]
    cases += [(GAP_END - 1025, 1, 1100)]  # one prime row, in the second chunk
    cases += [(m0, n, 60) for m0, n in seeded_progressions()[-10:]]
    for m0, modulus, rows in cases:
        k = rng.choice((1, 2))
        exceptional = tuple(rng.sample(range(-4, 5), 2))
        report = matrix_scan(m0, modulus, k, rows, 5, exceptional=exceptional)
        prime_rows, avoiding = naive_matrix_scan(
            m0, modulus, k, rows, [u for u in exceptional if u != 1]
        )
        assert report.prime_rows == prime_rows, (m0, modulus)
        assert list(report.avoiding_rows) == avoiding, (m0, modulus)


def test_matrix_scan_flags_rows_with_window_primes():
    # k=1, modulus 2, exceptional offset u=3: value g + 2, so twin-prime
    # rows are flagged and everything else is avoiding
    report = matrix_scan(1, 2, 1, 30, 5, exceptional=(3,))
    flagged = [
        r for r in range(1, 31) if is_prime(1 + 2 * r) and is_prime(3 + 2 * r)
    ]
    avoiding = [
        r for r in range(1, 31) if is_prime(1 + 2 * r) and not is_prime(3 + 2 * r)
    ]
    assert report.rows_with_window_prime == len(flagged) > 0
    assert list(report.avoiding_rows) == avoiding
    assert report.ratio == pytest.approx(len(flagged) / report.prime_rows)
