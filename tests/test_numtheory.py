import math
import random
import threading
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primeavoid import kernels, numtheory
from primeavoid.errors import ConstructionError
from primeavoid.numtheory import (
    MR_DETERMINISTIC_BOUND,
    Congruence,
    crt_solve,
    drop_idle,
    greedy_classes,
    is_prime,
    jacobi,
    kth_root_count,
    kth_roots_mod_p,
    mertens_product,
    prime_tier,
    primes_upto,
    struck_witnesses,
    _bpsw,
    _strong_lucas_probable_prime,
)

from oracles import greedy_classes as oracle_greedy_classes
from oracles import kth_power_class
from oracles import largest_prime_factor as oracle_largest_prime_factor
from oracles import least_divisor

EULER_GAMMA = 0.5772156649015329


# -- independent oracles -------------------------------------------------


def trial_division_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# the references' own bases and round, kept apart from the base table and
# the round in kernels
THIRTEEN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprimes to all of the first 1 to 7, 12 and 13
# primes, the bounds of the base table
TIER_BOUNDS = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 318665857834031151167461, 3317044064679887385961981,
)


def strong_probable_prime_to(n, base):
    """One strong probable-prime round: with n - 1 = d * 2**r, d odd,
    base**d == 1 or base**(d * 2**i) == -1 (mod n) for some i < r."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(base, d, n)
    return x in (1, n - 1) or any(pow(x, 2**i, n) == n - 1 for i in range(1, r))


def stepping_crt(congs):
    """Brute-force residue search: step the partial solution by the
    partial modulus until the next congruence holds.  No inverses."""
    sol, mod = 0, 1
    for r, p in congs:
        while sol % p != r:
            sol += mod
        mod *= p
    return sol, mod


# -- primes_upto ----------------------------------------------------------


def test_primes_upto_examples():
    assert primes_upto(10) == [2, 3, 5, 7]
    assert primes_upto(1) == []
    assert len(primes_upto(100)) == 25


def test_primes_upto_matches_trial_division():
    expected = [n for n in range(2000) if trial_division_is_prime(n)]
    assert primes_upto(1999) == expected


def test_sieve_kernels_match_trial_division():
    # every limit up to 3000, and each side of a square, where the odd
    # sieve starts striking that prime
    limits = list(range(3001))
    limits += [p * p + d for p in (53, 101, 151, 211) for d in (-1, 0, 1)]
    primes = [n for n in range(max(limits) + 1) if trial_division_is_prime(n)]
    for limit in limits:
        expected = primes[: bisect_right(primes, limit)]
        assert kernels.sieve_primes(limit) == expected, limit
        assert list(kernels.iter_primes(limit)) == expected, limit


def test_odd_sieve_segment_matches_trial_division():
    # segments that start and end on each side of a square and of a prime,
    # inside the first block, and empty or one number long
    odd_primes = [n for n in range(3, 50_000, 2) if trial_division_is_prime(n)]
    edges = [1, 3, 9, 49, 1385, 1387, 2809, 10201, 10203, 22801, 44521, 49999]
    spans = [(lo, hi) for lo in edges for hi in (lo - 2, lo, lo + 1, lo + 2, 49_999)]
    rng = random.Random(7)
    starts = [rng.randrange(1, 46_000) | 1 for _ in range(200)]
    spans += [(lo, lo + rng.randrange(4000)) for lo in starts]
    for lo, hi in spans:
        odd = range(lo, hi + 1, 2)
        flags = kernels.odd_sieve(hi, lo)
        assert len(flags) == len(odd), (lo, hi)
        expected = [p for p in odd_primes if lo <= p <= hi]
        assert [n for n, prime in zip(odd, flags) if prime] == expected, (lo, hi)


def test_primes_upto_rejects_oversized():
    with pytest.raises(ValueError):
        primes_upto(10**8 + 1)


# -- is_prime -------------------------------------------------------------


def test_is_prime_examples():
    assert not is_prime(561)  # Carmichael
    assert is_prime(2)
    assert is_prime(1000000007)
    assert trial_division_is_prime(1000000007)


@pytest.mark.parametrize("carmichael", [561, 1105, 1729, 2465, 2821, 6601])
def test_carmichael_numbers_composite(carmichael):
    assert not is_prime(carmichael)
    assert not trial_division_is_prime(carmichael)


def test_is_prime_agrees_with_trial_division_small():
    for n in range(10_000):
        assert is_prime(n) == trial_division_is_prime(n), n


# the least strong pseudoprime to the first 12 prime bases (psi_12)
PSI_12 = TIER_BOUNDS[-2]


def test_is_prime_big_deterministic_band():
    # [2^64, MR_DETERMINISTIC_BOUND): 2^79 - 67 is the largest prime below
    # 2^79, so the 66 numbers above it are composite, and psi_12 passes a
    # round to every base but the thirteenth
    top = 2**79
    assert 2**64 < PSI_12 < top < MR_DETERMINISTIC_BOUND
    assert is_prime(top - 67) and prime_tier(top - 67) == "proven"
    assert not any(is_prime(n) for n in range(top - 66, top))
    assert all(strong_probable_prime_to(PSI_12, a) for a in THIRTEEN_BASES[:12])
    assert not is_prime(PSI_12)


def test_is_prime_big_bpsw_band():
    # 2^89 - 1 is a Mersenne prime above MR_DETERMINISTIC_BOUND, so a prp;
    # its neighbors are composite
    m = 2**89 - 1
    assert m > MR_DETERMINISTIC_BOUND
    assert is_prime(m) and prime_tier(m) == "prp"
    assert not is_prime(m - 2)
    assert not is_prime(m + 2)


def thirteen_base_is_prime(n):
    """Trial division by the thirteen bases, then a strong probable-prime
    round to each: a proof below MR_DETERMINISTIC_BOUND."""
    if n < 2:
        return False
    for p in THIRTEEN_BASES:
        if n % p == 0:
            return n == p
    return all(strong_probable_prime_to(n, a) for a in THIRTEEN_BASES)


def test_is_prime_u64_matches_thirteen_base_test():
    rng = random.Random(42)
    ns = list(range(100)) + [rng.randrange(2, 2**62) for _ in range(300)]
    ns += [2**61 - 1, 2**61 + 1, 2**63 - 259, 10**12 + 39]
    for n in ns:
        assert kernels.is_prime_u64(n) == thirteen_base_is_prime(n), n
    assert kernels.is_prime_u64(2**61 - 1)  # Mersenne prime
    assert not kernels.is_prime_u64(2**61 + 1)  # divisible by 3


def test_is_prime_u64_refuses_each_tier_bound():
    # each bound is a strong pseudoprime to every base of the tiers below
    # it, so only the next tier's bases show it composite
    bounds = [bound for bound, _ in kernels._BASE_TIERS]
    assert bounds == list(TIER_BOUNDS)
    sizes = [len(bases) for _, bases in kernels._BASE_TIERS]
    assert sizes == [1, 2, 3, 4, 5, 6, 7, 12, 13]
    assert MR_DETERMINISTIC_BOUND == bounds[-1]
    # 2047 = 23 * 89 falls to trial division, so the base-3 round of the
    # second tier also meets 8321 = 53 * 157, the least base-2 strong
    # pseudoprime with no factor among the thirteen witnesses
    for n, bases in [*kernels._BASE_TIERS, (8321, (2,))]:
        assert all(strong_probable_prime_to(n, a) for a in bases), n
        assert kernels.strong_probable_prime(n, bases), n
        assert not is_prime(n), n
        if n < 2**64:
            assert not kernels.is_prime_u64(n), n
    # the twelve-base bound falls to base 41, which decides from there on,
    # and the thirteen-base bound, above the table, to BPSW
    psi12, psi13 = bounds[-2:]
    assert not strong_probable_prime_to(psi12, 41)
    assert all(strong_probable_prime_to(psi13, a) for a in THIRTEEN_BASES)
    assert not _bpsw(psi13)


def test_proof_bases_takes_the_least_tier_above_n():
    lows = [2, *TIER_BOUNDS]
    for lo, (bound, bases) in zip(lows, kernels._BASE_TIERS):
        assert kernels.proof_bases(lo) == kernels.proof_bases(bound - 1) == bases
    with pytest.raises(StopIteration):
        kernels.proof_bases(MR_DETERMINISTIC_BOUND)


def test_strong_probable_prime_matches_one_round_per_base():
    rng = random.Random(29)
    ns = [rng.getrandbits(bits) | 1 | (1 << (bits - 1)) for bits in (8, 40, 70, 90, 200)
          for _ in range(40)]
    ns += [*TIER_BOUNDS, 8321, 2**89 - 1]
    for n in ns:
        for t in (1, 2, 12, 13):
            bases = THIRTEEN_BASES[:t]
            expected = all(strong_probable_prime_to(n, a) for a in bases)
            assert kernels.strong_probable_prime(n, bases) == expected, (n, t)


def test_is_prime_u64_matches_thirteen_base_test_in_every_tier():
    # the tiers below 2**64 through the kernel, and [2**64, psi12) and
    # [psi12, psi13) through is_prime
    rng = random.Random(25)
    edges = sorted([2, *TIER_BOUNDS, 2**64])
    for lo, hi in zip(edges, edges[1:]):
        test = kernels.is_prime_u64 if hi <= 2**64 else is_prime
        # every n of the one-base tier, where 43^2 is the least composite
        # that trial division passes
        ns = [rng.randrange(lo, hi) for _ in range(60)] if lo > 2 else list(range(hi))
        ns += [lo, hi - 1]
        # a prime from each of a few random starts, so that every tier
        # runs its full set of rounds on primes as well as composites
        for start in ns[:8]:
            n = start
            while n < hi - 1 and not thirteen_base_is_prime(n):
                n += 1
            ns.append(n)
        for n in ns:
            assert test(n) == thirteen_base_is_prime(n), n


def seeded_miller_rabin(n, seed=0, rounds=64):
    """The test is_prime ran above MR_DETERMINISTIC_BOUND before BPSW:
    trial division by the thirteen bases, then 64 strong probable-prime
    rounds with bases from a seeded generator.  Kept as a reference."""
    if n < 2:
        return False
    for p in THIRTEEN_BASES:
        if n % p == 0:
            return n == p
    rng = random.Random(seed)
    return all(
        strong_probable_prime_to(n, rng.randrange(2, n - 1)) for _ in range(rounds)
    )


@pytest.mark.parametrize("n", [2047, 3277, 4033, 4681, 8321])
def test_bpsw_rejects_base2_strong_pseudoprimes(n):
    assert kernels.strong_probable_prime(n, (2,))
    assert not _strong_lucas_probable_prime(n)
    assert not _bpsw(n)


@pytest.mark.parametrize("n", [5459, 5777, 10877, 16109, 18971])
def test_bpsw_rejects_strong_lucas_pseudoprimes(n):
    assert _strong_lucas_probable_prime(n)
    assert not kernels.strong_probable_prime(n, (2,))
    assert not _bpsw(n)


def test_bpsw_rejects_perfect_squares():
    # 1093^2 and 3511^2 (Wieferich squares) pass base 2, so only the
    # square check in the Lucas test stops them
    for q in (1093, 3511):
        assert kernels.strong_probable_prime(q * q, (2,))
        assert not _bpsw(q * q)
    for q in (2**89 - 1, 2**127 - 1):
        assert not _strong_lucas_probable_prime(q * q)
        assert not _bpsw(q * q)
        assert not is_prime(q * q)


def test_bpsw_agrees_with_trial_division_small():
    for n in range(3, 20_000, 2):
        assert _bpsw(n) == trial_division_is_prime(n), n


def test_prime_tier_turns_prp_at_the_last_table_bound():
    below = TIER_BOUNDS[-1] - 1
    while not is_prime(below):
        below -= 1
    above = next_prime(TIER_BOUNDS[-1])
    assert prime_tier(below) == "proven" and prime_tier(above) == "prp"
    assert prime_tier(2) == prime_tier(2**61 - 1) == "proven"


def test_is_prime_bpsw_band():
    for e in (127, 521, 607):
        assert is_prime(2**e - 1)
    assert not is_prime(2**67 - 1)  # 193707721 * 761838257287
    assert not is_prime((2**89 - 1) * (2**107 - 1))
    assert (2**89 - 1) * (2**107 - 1) > MR_DETERMINISTIC_BOUND


def test_bpsw_matches_seeded_miller_rabin():
    # walk up from a random odd start until the reference finds a prime,
    # so every walk checks composites and ends on a prime
    for seed in range(24):
        rng = random.Random(seed)
        bits = rng.randrange(100, 601)
        n = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        while True:
            expected = seeded_miller_rabin(n)
            assert _bpsw(n) == expected, n
            assert is_prime(n) == expected, n
            if expected:
                break
            n += 2


def unscreened_is_prime(n):
    """is_prime above 2**64 without the primorial gcd: trial division by
    the thirteen bases, then Miller-Rabin or BPSW."""
    if any(n % p == 0 for p in THIRTEEN_BASES):
        return False
    if n < MR_DETERMINISTIC_BOUND:
        return all(strong_probable_prime_to(n, a) for a in THIRTEEN_BASES)
    return _bpsw(n)


def next_prime(n):
    while not is_prime(n):
        n += 1
    return n


def test_primorial_screen_rejects_small_factor_without_bpsw(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a probable-prime test ran")

    qs = (next_prime(2**64 + 1), next_prime(2**80))
    assert 65521 * qs[1] > MR_DETERMINISTIC_BOUND
    monkeypatch.setattr(numtheory, "_bpsw", forbidden)
    monkeypatch.setattr(kernels, "strong_probable_prime", forbidden)
    for q in qs:
        assert not is_prime(65521 * q)  # 65521 is the largest prime < 2**16
        assert not is_prime(2 * q) and not is_prime(3 * q)


def test_primorial_screen_leaves_larger_factors_to_bpsw(monkeypatch):
    calls = []

    def counting_bpsw(n):
        calls.append(n)
        return _bpsw(n)

    q = next_prime(2**80)
    monkeypatch.setattr(numtheory, "_bpsw", counting_bpsw)
    assert not is_prime(65537 * q)  # 65537 is the smallest prime > 2**16
    assert calls == [65537 * q]


def test_primorial_screen_keeps_every_verdict():
    rng = random.Random(16)
    small = primes_upto(70_000)
    for _ in range(200):
        bits = rng.choice((65, 70, 82, 90, 128, 300, 600))
        n = rng.getrandbits(bits) | (1 << (bits - 1))
        if rng.random() < 0.3:
            n = rng.choice(small) * next_prime(n >> 17)
        if n >= 2**64:
            assert is_prime(n) == unscreened_is_prime(n), n
    for e in (89, 107, 127, 521):
        assert is_prime(2**e - 1) == unscreened_is_prime(2**e - 1) is True


def test_small_primorial_is_the_sequential_product():
    product = numtheory._primorial(numtheory._PRIMORIAL_BOUND - 1)
    assert product == math.prod(primes_upto(2**16 - 1))
    assert product.bit_length() == 94027
    for limit in (1, 2, 127, 1000):
        assert numtheory._primorial(limit) == math.prod(primes_upto(limit))


# -- worker processes -------------------------------------------------------


def test_pool_workers_bounded_and_serial_beside_another_thread():
    assert 1 <= numtheory._pool_workers() <= numtheory._MAX_WORKERS
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(10,))
    thread.start()
    try:
        assert numtheory._pool_workers() == 1
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


# -- struck_witnesses ----------------------------------------------------


@pytest.mark.parametrize("y", [0, 3, 10, 61])
def test_struck_witnesses_match_brute_force(y):
    # unsorted moduli, negative classes and classes of q or more, one
    # modulus past the window's width, and a modulus with two classes
    classes = [(4, 13), (-1, 2), (0, 97), (10, 3), (-7, 5), (2, 7), (5, 7)]
    witness = struck_witnesses(y, classes)
    assert len(witness) == 2 * y + 1
    for u in range(-y, y + 1):
        expected = min((q for c, q in classes if (u - c) % q == 0), default=0)
        assert witness[u + y] == expected, u
    assert struck_witnesses(y, ()) == [0] * (2 * y + 1)


# -- the covering core: greedy classes and the drop pass ------------------


@pytest.mark.parametrize("seed", range(6))
def test_greedy_classes_match_the_oracle(seed):
    rng = random.Random(seed)
    offsets = sorted(rng.sample(range(-60, 61), rng.randrange(0, 80)))
    primes = primes_upto(rng.choice((13, 31, 71)))
    assert greedy_classes(offsets, primes) == oracle_greedy_classes(offsets, primes)
    for k in (1, 2, 3, 5):
        admissible = kth_power_class(k)
        expected = oracle_greedy_classes(offsets, primes, admissible)
        # kpower's test by Euler's criterion, against the oracle's roots
        assert greedy_classes(offsets, primes, admissible) == expected
        assert greedy_classes(
            offsets, primes, lambda c, p: (1 - c) % p and kth_root_count(1 - c, k, p)
        ) == expected


def test_greedy_classes_with_nothing_left_take_the_least_admissible_class():
    assert greedy_classes((), (2, 3, 5)) == ((0, 0, 0), ())
    # k=2, p=7: 1 - c is a nonzero square for c in {0, 2, 4, 5}
    assert greedy_classes((3,), (7,), kth_power_class(2)) == ((0,), (3,))
    assert greedy_classes((4, 11), (7,), kth_power_class(2)) == ((4,), ())


@pytest.mark.parametrize("y", [0, 5, 30])
def test_drop_idle_keeps_the_least_strikers(y):
    classes = [(0, 2), (1, 3), (0, 5), (3, 7), (2, 7), (0, 61), (5, 11)]
    kept = drop_idle(y, classes)
    least = {
        min((q for c, q in classes if (u - c) % q == 0), default=0)
        for u in range(-y, y + 1)
    }
    assert kept == [(c, q) for c, q in classes if q in least]
    if y == 0:  # 0 is struck by 2, 5 and 61, and 2 is the least
        assert kept == [(0, 2)]


# -- the window tables both build_sets functions classify offsets by -----


def window_tables(y, p1, p2, shift):
    """band as squarefree.build_sets builds it, and mid and largest as
    kpower.build_sets_k builds them: the least prime of p1 dividing u, the
    least prime of p2 dividing u + shift, and the largest prime factor of
    n <= y (0 for n < 2)."""
    band = struck_witnesses(y, ((0, p) for p in p1))
    mid = struck_witnesses(y, ((-shift, p) for p in p2))
    largest = kernels.stamp(y + 1, ((p, p) for p in kernels.iter_primes(y)))
    return band, mid, largest


def test_largest_prime_factor_examples():
    largest = window_tables(60, (), (), 1)[2]
    assert largest[12] == 3
    assert largest[49] == 7
    assert largest[59] == 59
    assert largest[0] == largest[1] == 0


def test_largest_prime_factor_matches_factorization():
    largest = window_tables(3000, (), (), 1)[2]
    assert largest == [oracle_largest_prime_factor(n) for n in range(3001)]


def test_is_smooth_examples():
    largest = window_tables(12, (), (), 1)[2]
    assert largest[12] <= 3
    assert not largest[12] <= 2.9
    assert largest[1] <= 0  # 1 is z-smooth for every z >= 0


@pytest.mark.parametrize("y", [3, 10, 61])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_window_tables_match_brute_force(y, k):
    shift = (1 << k) - 1
    # unsorted, and with primes above 2y + 1: at y = 3, k = 5 the mid
    # class of 37 starts at (3 - 31) % 37 = 9, past the window's end
    p1 = (13, 2, 19, 3, 17)
    p2 = (37, 5, 97, 11, 7)
    band, mid, largest = window_tables(y, p1, p2, shift)
    assert len(band) == len(mid) == 2 * y + 1
    for u in range(-y, y + 1):
        assert band[u + y] == least_divisor(u, p1), u
        assert mid[u + y] == least_divisor(u + shift, p2), u
    assert largest == [oracle_largest_prime_factor(n) for n in range(y + 1)]


def test_window_tables_at_zero_and_one():
    band, mid, largest = window_tables(3, (3, 2), (7, 5), 1)
    assert band[3] == 2  # every prime divides u = 0; the least is kept
    assert band[2] == band[4] == 0  # u = -1, 1
    assert mid[2] == 5  # u = -1: u + 1 = 0
    assert mid[4] == 0  # u = 1: u + 1 = 2
    assert largest[:2] == [0, 0]


# -- jacobi ----------------------------------------------------------------


def test_jacobi_examples():
    assert jacobi(2, 7) == 1  # 3^2 == 2 (mod 7)
    assert jacobi(3, 7) == -1
    assert jacobi(0, 5) == 0


def test_jacobi_rejects_even_or_nonpositive():
    with pytest.raises(ValueError):
        jacobi(3, 8)
    with pytest.raises(ValueError):
        jacobi(3, 0)
    with pytest.raises(ValueError):
        jacobi(3, -5)


def test_jacobi_matches_squares_and_euler_criterion():
    for p in primes_upto(500):
        if p == 2:
            continue
        squares = {n * n % p for n in range(1, p)}
        for a in range(1, p):
            sym = jacobi(a, p)
            assert sym == (1 if a in squares else -1)
            assert sym % p == pow(a, (p - 1) // 2, p)


@given(
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=0, max_value=167),
)
def test_jacobi_multiplicative_in_top_argument(a, idx):
    n = [x for x in range(3, 2001, 2)][idx]
    assert jacobi(a, n) == jacobi(a % n, n)
    assert jacobi(a * a, n) in (0, 1)


# -- kth roots ----------------------------------------------------------


def test_kth_roots_examples():
    assert kth_roots_mod_p(2, 2, 7) == {3, 4}
    assert kth_roots_mod_p(0, 3, 7) == {0}
    assert kth_roots_mod_p(3, 2, 7) == set()


def test_kth_roots_match_enumeration_and_total():
    for p in primes_upto(60):
        for k in range(1, 7):
            total = 0
            for a in range(p):
                expected = {n for n in range(p) if pow(n, k, p) == a}
                got = kth_roots_mod_p(a, k, p)
                assert got == expected, (a, k, p)
                assert kth_root_count(a, k, p) == len(expected)
                total += len(got)
            assert total == p


def test_kth_root_count_past_enumeration_bound():
    # p - 1 = 2 * 3 * 166667, so gcd(k, p - 1) is 1, 2, 3, 2, 1, 6 for k = 1..6
    p = 10**6 + 3
    for k in range(1, 7):
        assert kth_root_count(0, k, p) == kth_root_count(p, k, p) == 1
    rng = random.Random(9)
    for _ in range(50):
        r = rng.randrange(1, p)
        for k in range(1, 7):
            assert kth_root_count(pow(r, k, p), k, p) == math.gcd(k, p - 1)
        a = rng.randrange(1, p)
        assert kth_root_count(a, 2, p) == 1 + jacobi(a, p)
        assert kth_root_count(a, 5, p) == 1


def test_kth_roots_validation():
    with pytest.raises(ValueError):
        kth_roots_mod_p(1, 0, 7)
    with pytest.raises(ValueError):
        kth_roots_mod_p(1, 2, 10**6 + 3)
    with pytest.raises(ValueError):
        kth_roots_mod_p(1, 2, 9)  # not prime


# -- crt -----------------------------------------------------------------


def test_crt_examples():
    assert crt_solve([(0, 2), (1, 3), (2, 5)]) == (22, 30)
    assert crt_solve([(1, 7)]) == (1, 7)
    assert crt_solve([(0, 2), (0, 3)]) == (0, 6)


def test_crt_duplicate_modulus():
    # a fault of the system's builder, which the CLI reports as exit 70
    with pytest.raises(ConstructionError, match="duplicate modulus"):
        crt_solve([(0, 5), (1, 5)])


def test_crt_matches_stepping_oracle():
    congs = [(1, 2), (2, 3), (3, 5), (5, 7), (10, 11)]
    assert crt_solve(congs) == stepping_crt(congs)


@settings(max_examples=60)
@given(st.data())
def test_crt_solution_satisfies_all_and_is_minimal(data):
    ps = data.draw(
        st.lists(
            st.sampled_from(primes_upto(200)), min_size=1, max_size=6, unique=True
        )
    )
    congs = [(data.draw(st.integers(min_value=0, max_value=p - 1)), p) for p in ps]
    m0, n = crt_solve(congs)
    assert n == math.prod(ps)
    assert 0 <= m0 < n
    for r, p in congs:
        assert m0 % p == r
    # minimality: subtracting n once leaves the range
    assert m0 - n < 0


def test_congruence_validation():
    with pytest.raises(ValueError):
        Congruence(0, 9)
    with pytest.raises(ValueError):
        Congruence(5, 5)


# -- mertens ----------------------------------------------------------------


def test_mertens_small_values():
    assert mertens_product(2) == 0.5
    assert mertens_product(10) == pytest.approx(48 / 210, rel=1e-12)


@pytest.mark.parametrize("w", [10**3, 10**4, 10**5])
def test_mertens_asymptotic_window(w):
    v = mertens_product(w)
    assert abs(v * math.log(w) * math.exp(EULER_GAMMA) - 1) <= 3 / math.log(w)
