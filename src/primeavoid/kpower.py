"""Construction of prime-avoiding k-th powers of primes.

Builds the offset classes for the window around m^k from the sieve
tables of numtheory.window_tables and matches large primes, under k-th
power solvability, to U7: the offsets u != 1 that neither small band
strikes (no band-one prime divides u and no mid-band prime divides
u + 2^k - 1).  An offset a band already strikes gets no matched prime of
its own.  The capacity check still counts the paper's offsets, the
z-smooth and prime ones (U4 | U5), so y is the paper's.  The pipeline
then solves the congruence system, finds a prime m in the progression,
and certifies the window: the witness of m^k + (u - 1) is the least
modulus q of the system whose residue r has u == 1 - r^k (mod q), and an
element that no congruence strikes is an exception with its primality
status.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from contextlib import closing
from dataclasses import dataclass, replace
from itertools import chain, compress

from . import kernels, numtheory
from .errors import CapacityError, ConstructionError, SearchExhausted
from .numtheory import (
    Congruence,
    avoidance_constant,
    crt_solve,
    is_prime,
    jacobi,
    kth_root_count,
    kth_roots_mod_p,
    primes_upto,
    struck_witnesses,
    window_tables,
)
from .schedule import Schedule, shrink_to_capacity

DEFAULT_PRIME_STEPS = 100_000
# progression-sieve depth and the number of steps sieved at a time
_SCREEN_PRIME_LIMIT = 2**18
_SIEVE_CHUNK = 1024
# Sieve survivors of at least this many bits are tested in worker
# processes.  On a 2-core host (CPython 3.11) a base-2 round costs 4.4 ms
# at 1024 bits and 30 ms at 2048, and starting and stopping a 2-worker
# pool 15 ms (benchmarks/bench_kernels.py), so below this size the pool
# costs more than it saves.
_POOL_MIN_BITS = 1024


@dataclass(frozen=True)
class KSetSystem:
    """Prime bands and offset classes for one k-th power run.

    U3, U4 and U5 are the paper's prime/smooth taxonomy; they set the
    capacity demand (paper_demand) and are reported, but no prime is
    matched from them.  Only U7, the offsets no band strikes, is matched.
    """

    k: int
    p1: tuple[int, ...]  # p <= log x, plus the band (z, x/40k]
    p2: tuple[int, ...]  # mid band (log x, z]
    # large primes passing the band's congruence filter; for odd k the
    # filter p == 2 (mod 3) gives gcd(k, p-1) = 1 only when k is a power
    # of 3, so match_offsets checks each edge with kth_root_count
    p3tilde: tuple[int, ...]
    # offset classes from window_tables(y, p1, p2, 2**k - 1), index i = u + y
    u1: tuple[int, ...]  # band[i] > 0: some band-one prime divides u
    u2: tuple[int, ...]  # window minus u1
    u3: tuple[int, ...]  # offsets with largest[|u|] == |u| > 1: |u| prime
    u4: tuple[int, ...]  # u != 0 with largest[|u|] <= z: |u| z-smooth
    u5: tuple[int, ...]  # u3 offsets with mid[i] == 0: no mid-band prime covers u
    # u != 1 with band[i] == mid[i] == 0: the offsets match_offsets serves
    u7: tuple[int, ...]
    p1_upper_empty: bool  # x/40k fell at or below z
    u6: tuple[int, ...] = ()  # screened exceptional offsets (k even)
    p3: tuple[int, ...] = ()  # matched image, filled after matching
    p4: tuple[int, ...] = ()  # leftover primes <= x, filled in full mode

    @property
    def paper_demand(self) -> int:
        """|U4 | U5|, the paper's count of offsets needing a matched prime;
        the capacity check takes y from it, not from |U7|."""
        return len(set(self.u4) | set(self.u5))


def build_sets_k(sch: Schedule) -> KSetSystem:
    """Classify primes and window offsets for a k-th power run."""
    if sch.degenerate:
        raise ValueError(
            f"degenerate schedule: z={sch.z:.4f} <= log x; mid prime band empty"
        )
    x, k, z, y = sch.x, sch.k, sch.z, sch.y
    cut = x / (40 * k)
    if cut < 1:
        raise CapacityError(
            f"x={x:g} is too small for k={k}: the large-prime band starts at "
            f"x/(40k)={cut:g} < 1; need x >= {40 * k}",
            needed=1,
            available=0,
        )
    log_x = math.log(x)
    primes = primes_upto(math.floor(x))

    p1_upper_empty = cut <= z
    p1 = tuple(p for p in primes if p <= log_x or z < p <= cut)
    p2 = tuple(p for p in primes if log_x < p <= z)
    banned = set(p1) | set(p2)
    if k % 2 == 1:
        p3t = tuple(
            p for p in primes if cut < p <= x and p % 3 == 2 and p not in banned
        )
    else:
        p3t = tuple(
            p
            for p in primes
            if cut < p <= x / 2 and p % (2 * k) == 3 and p not in banned
        )
    if not p3t:
        raise CapacityError(
            f"no matchable large primes in the band above x/(40k)={cut:g}",
            needed=1,
            available=0,
        )

    band, mid, largest = window_tables(y, p1, p2, (1 << k) - 1)
    window = range(-y, y + 1)
    u1 = tuple(u for u in window if band[u + y])
    u2 = tuple(u for u in window if not band[u + y])
    u3 = tuple(u for u in window if largest[abs(u)] == abs(u) > 1)
    u4 = tuple(u for u in window if u != 0 and largest[abs(u)] <= z)
    u5 = tuple(u for u in u3 if not mid[u + y])
    u7 = tuple(u for u in window if u != 1 and not band[u + y] and not mid[u + y])
    return KSetSystem(
        k=k,
        p1=p1,
        p2=p2,
        p3tilde=p3t,
        u1=u1,
        u2=u2,
        u3=u3,
        u4=u4,
        u5=u5,
        u7=u7,
        p1_upper_empty=p1_upper_empty,
    )


def legendre_screen(sch: Schedule, p3tilde) -> tuple[int, ...]:
    """Offsets u whose -u is a quadratic residue for too few matchable
    primes (at most delta*x/log x of them).  Empty for odd k.

    The odd-k filter p == 2 (mod 3) makes k-th powers cover every residue
    mod p only when k is a power of 3: for k=5 at x=2000, 37 of the 147
    matchable primes have 5 | p-1.  Witnesses stay valid regardless,
    because match_offsets draws an edge only where kth_root_count finds
    a root; an offset left unmatched and otherwise uncovered is recorded
    as an exception by verify_power_window.

    The screen runs over the whole window and is only reported (U6): it
    changes neither U7 nor the matching, which spends no prime on an
    offset that a small band strikes, screened or not."""
    if sch.k % 2 == 1:
        return ()
    threshold = sch.delta * sch.x / math.log(sch.x)

    def exceptional(u: int) -> bool:
        count = 0
        for p in p3tilde:
            if jacobi(-u, p) == 1:
                count += 1
                if count > threshold:
                    return False
        return True

    return tuple(u for u in range(-sch.y, sch.y + 1) if exceptional(u))


@dataclass(frozen=True)
class KMatching:
    """Offset -> (prime, chosen root) assignment from the solvability graph."""

    matched: dict[int, tuple[int, int]]
    unmatched: tuple[int, ...]


def _max_matching(adjacency: dict[int, tuple[int, ...]]) -> dict[int, int]:
    """Hopcroft-Karp maximum bipartite matching.

    Deterministic given the iteration order of ``adjacency`` and its
    neighbor tuples.
    """
    inf = float("inf")
    match_left: dict[int, int] = {}
    match_right: dict[int, int] = {}

    while True:
        dist: dict[int, float] = {}
        queue: deque[int] = deque()
        for u in adjacency:
            if u not in match_left:
                dist[u] = 0
                queue.append(u)
        shortest = inf
        while queue:
            u = queue.popleft()
            if dist[u] >= shortest:
                continue
            for v in adjacency[u]:
                w = match_right.get(v)
                if w is None:
                    if shortest == inf:
                        shortest = dist[u] + 1
                elif w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if shortest == inf:
            return match_left

        def augment(u: int) -> bool:
            for v in adjacency[u]:
                w = match_right.get(v)
                if w is None:
                    if dist[u] + 1 == shortest:
                        match_left[u] = v
                        match_right[v] = u
                        return True
                elif dist.get(w) == dist[u] + 1 and augment(w):
                    match_left[u] = v
                    match_right[v] = u
                    return True
            dist[u] = inf
            return False

        for u in adjacency:
            if u not in match_left:
                augment(u)


def match_offsets(sets: KSetSystem) -> KMatching:
    """Maximum matching between the U7 offsets and matchable primes.

    An edge (u, p) exists iff m**k == 1 - u (mod p) has a nonzero
    solution; zero roots are useless (the found prime m would have to be
    divisible by p), so offsets with 1 - u == 0 mod p lose that edge.
    U7 leaves out u = 1 (its window element is m^k itself, the
    constructed prime power) and every offset a small band strikes.
    """
    k = sets.k
    adjacency: dict[int, tuple[int, ...]] = {}
    for u in sets.u7:
        edges = []
        for p in sets.p3tilde:
            a = (1 - u) % p
            if a != 0 and kth_root_count(a, k, p):
                edges.append(p)
        adjacency[u] = tuple(edges)
    pairs = _max_matching(adjacency)
    matched: dict[int, tuple[int, int]] = {}
    for u in sorted(pairs):
        p = pairs[u]
        roots = kth_roots_mod_p((1 - u) % p, k, p)
        if not roots:
            raise RuntimeError(
                f"root count and enumeration disagree at (u={u}, p={p})"
            )
        root = min(roots)
        if pow(root, k, p) != (1 - u) % p:
            raise RuntimeError(f"chosen root fails re-verification at (u={u}, p={p})")
        matched[u] = (p, root)
    unmatched = tuple(u for u in sets.u7 if u not in matched)
    return KMatching(matched=matched, unmatched=unmatched)


def solve_m0_k(
    sch: Schedule, sets: KSetSystem, matching: KMatching, reduced: bool = True
) -> tuple[KSetSystem, int, int]:
    """Solve the congruence system for the progression base.

    Residue 1 on band-one primes, 2 on mid-band primes, the chosen root
    on each matched prime, and (full mode only) 1 on every remaining
    prime <= x.  Reduced mode drops that last block: it exists only to
    force coprimality to the full primorial, and the construction's
    coverage never uses it, while the smaller modulus makes the prime
    search far cheaper.

    Returns the set system with the matched image and leftovers filled
    in, the modulus, and m0.
    """
    p3 = tuple(sorted(p for p, _ in matching.matched.values()))
    p4: tuple[int, ...] = ()
    if not reduced:
        used = set(sets.p1) | set(sets.p2) | set(p3)
        p4 = tuple(p for p in primes_upto(math.floor(sch.x)) if p not in used)
    sets = replace(sets, p3=p3, p4=p4)
    try:
        m0, modulus = crt_solve(covering_congruences(sets, matching))
    except ValueError as exc:
        raise ConstructionError(str(exc)) from exc
    if math.gcd(m0, modulus) != 1:
        raise RuntimeError("m0 is not coprime to the modulus; construction bug")
    return sets, modulus, m0


def covering_congruences(
    sets: KSetSystem, matching: KMatching
) -> tuple[Congruence, ...]:
    """m0 == 1 mod band-one primes, 2 mod mid-band primes, the chosen root
    mod each matched prime, then 1 mod each leftover prime of P4 (empty
    in reduced mode), in that order."""
    congs = [Congruence(1, p) for p in sets.p1]
    congs += [Congruence(2, p) for p in sets.p2]
    for u in sorted(matching.matched):
        p, root = matching.matched[u]
        if root == 0:
            raise ConstructionError(
                f"zero root chosen for offset {u}: would break coprimality"
            )
        congs.append(Congruence(root, p))
    congs += [Congruence(1, p) for p in sets.p4]
    return tuple(congs)


def _sieved_steps(m0: int, modulus: int, last: int):
    """Steps j = 1..last, ascending, whose member m0 + j*modulus has no
    prime factor p <= _SCREEN_PRIME_LIMIT that is coprime to the modulus,
    or is itself at most that bound.

    Such a p divides the member exactly when j == -m0 / modulus (mod p).
    The root is kept per prime in a compact array, and the steps are
    sieved _SIEVE_CHUNK at a time.  Members at or below the bound are
    always yielded, so a small prime member is never sieved away by
    itself.
    """
    primes, roots = array("i"), array("i")
    for p in kernels.iter_primes(_SCREEN_PRIME_LIMIT):
        step = modulus % p
        if step:
            primes.append(p)
            roots.append(-(m0 % p) * pow(step, -1, p) % p)
    small = (_SCREEN_PRIME_LIMIT - m0) // modulus  # j <= small: member <= bound
    for j0 in range(1, last + 1, _SIEVE_CHUNK):
        size = min(_SIEVE_CHUNK, last + 1 - j0)
        alive = bytearray(b"\x01") * size
        kernels.strike(alive, (((r - j0) % p, p) for p, r in zip(primes, roots)))
        keep = min(size, small - j0 + 1)
        if keep > 0:
            alive[:keep] = b"\x01" * keep
        yield from compress(range(j0, j0 + size), alive)


def _test_member(n: int) -> bool:
    # the pool pickles this function by name; the worker then calls
    # whatever this module's is_prime is bound to, which need not pickle
    return is_prime(n)


def _prime_verdicts(members):
    """Yield (n, is_prime(n)) for every n of ``members``, in input order.

    Members are tested here until the first one of _POOL_MIN_BITS bits or
    more; from there on they go to numtheory._pool_workers() worker
    processes, with one test in flight per worker and one more queued, so
    that a worker that finishes need not wait for the consumer to read a
    verdict.
    Every member gets the full is_prime and no verdict is skipped or
    reordered, so a caller that stops at the first prime gets the serial
    search's answer.  Closing the generator cancels the queued tests and
    shuts the pool down once the running ones end.
    """
    members = iter(members)
    for n in members:
        big = n.bit_length() >= _POOL_MIN_BITS
        if big and (workers := numtheory._pool_workers()) > 1:
            break
        yield n, is_prime(n)
    else:
        return
    pool = numtheory._start_pool(workers)
    ahead: deque = deque()
    try:
        for n in chain((n,), members):
            ahead.append((n, pool.submit(_test_member, n)))
            if len(ahead) > workers:
                n, verdict = ahead.popleft()
                yield n, verdict.result()
        for n, verdict in ahead:
            yield n, verdict.result()
    finally:
        pool.shutdown(cancel_futures=True)


def find_prime_in_ap(
    m0: int, modulus: int, max_steps: int = DEFAULT_PRIME_STEPS
) -> int:
    """Smallest prime m0 + j*modulus with 1 <= j <= max_steps.

    Every step that survives the progression sieve goes through the full
    is_prime, in step order (_prime_verdicts); SearchExhausted.tests
    counts those tests."""
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    if math.gcd(m0, modulus) != 1:
        raise ValueError("m0 and modulus are not coprime: progression has no primes")
    members = (m0 + j * modulus for j in _sieved_steps(m0, modulus, max_steps))
    tests = 0
    with closing(_prime_verdicts(members)) as verdicts:
        for candidate, prime in verdicts:
            tests += 1
            if prime:
                return candidate
    raise SearchExhausted(
        f"no prime in {max_steps} progression steps "
        f"({tests} probable-prime tests performed)",
        steps=max_steps,
        tests=tests,
    )


def verify_power_window(
    m: int, congruences: tuple[Congruence, ...], sch: Schedule
) -> tuple[dict[int, int], list[tuple[int, str]], int]:
    """Witness or classify every window element m^k + (u - 1): the witness
    is the least modulus of ``congruences`` that strikes u, and an element
    none strikes gets an explicit primality status (the number found prime
    is reported, never asserted to be zero).  u = 1 is skipped: the
    element is m^k, the constructed prime power.
    """
    k, y = sch.k, sch.y
    value_base = m**k
    witness = struck_witnesses(
        y, ((1 - pow(c.residue, k, c.modulus), c.modulus) for c in congruences)
    )
    cover: dict[int, int] = {}
    exceptions: list[tuple[int, str]] = []
    for u, p in zip(range(-y, y + 1), witness):
        if u == 1:
            continue
        value = value_base + u - 1
        if not p:
            exceptions.append((u, "prime" if is_prime(value) else "composite"))
        elif value % p != 0 or p >= value:
            raise RuntimeError(f"offset {u}: invalid witness p={p}; construction bug")
        else:
            cover[u] = p
    return cover, exceptions, sum(1 for _, s in exceptions if s == "prime")


@dataclass(frozen=True)
class MatrixScanReport:
    rows: int
    prime_rows: int  # rows whose progression member is prime
    rows_with_window_prime: int  # of those, rows with a prime exception
    avoiding_rows: tuple[int, ...]

    @property
    def ratio(self) -> float:
        return self.rows_with_window_prime / self.prime_rows if self.prime_rows else 0.0


def matrix_scan(
    m0: int,
    modulus: int,
    k: int,
    rows: int,
    y: int,
    exceptional=(),
) -> MatrixScanReport:
    """Scan rows r = 1..rows of the progression.

    A row counts when m0 + r*modulus is prime; it is "avoiding" when
    none of its exceptional window elements (the offsets the congruence
    system left open) is prime -- every other element inherits its
    witness divisor from the congruences, row by row.  The rows that
    survive the progression sieve are tested as find_prime_in_ap tests
    them (_prime_verdicts).
    """
    if not 0 <= rows <= 10**5:
        raise ValueError(f"row count {rows} is outside [0, 10**5]")
    exceptional = tuple(u for u in exceptional if u != 1 and -y <= u <= y)
    prime_rows = 0
    with_window_prime = 0
    avoiding: list[int] = []
    members = (m0 + r * modulus for r in _sieved_steps(m0, modulus, rows))
    for g, prime in _prime_verdicts(members):
        if not prime:
            continue
        r = (g - m0) // modulus
        prime_rows += 1
        base = g**k
        if any(is_prime(base + u - 1) for u in exceptional):
            with_window_prime += 1
        else:
            avoiding.append(r)
    return MatrixScanReport(
        rows=rows,
        prime_rows=prime_rows,
        rows_with_window_prime=with_window_prime,
        avoiding_rows=tuple(avoiding),
    )


@dataclass(frozen=True)
class KCertificate:
    """Complete verifiable output of one k-th power run."""

    schedule: Schedule
    sets: KSetSystem
    matching: KMatching
    modulus: int
    m0: int
    m: int
    reduced: bool
    congruences: tuple[Congruence, ...]  # the system solved for m0, in order
    cover: dict[int, int]  # offset u -> witness prime dividing m^k + u - 1
    exceptions: list[tuple[int, str]]
    prime_count_in_window: int
    exponent_report: float
    avoidance_constant: float | None  # measured on m^k
    autoshrink_trace: tuple[int, ...]
    seed: int  # recorded in the document only; no step of the run uses it


def construct_certificate_k(
    sch: Schedule,
    reduced: bool = True,
    max_steps: int = DEFAULT_PRIME_STEPS,
    seed: int = 0,
) -> KCertificate:
    """Run the full k-th power pipeline, auto-shrinking y on capacity."""
    sch, sets, trace = shrink_to_capacity(
        sch, build_sets_k, lambda s: (s.paper_demand, len(s.p3tilde))
    )
    sets = replace(sets, u6=legendre_screen(sch, sets.p3tilde))
    matching = match_offsets(sets)
    sets, modulus, m0 = solve_m0_k(sch, sets, matching, reduced=reduced)
    m = find_prime_in_ap(m0, modulus, max_steps=max_steps)
    congruences = covering_congruences(sets, matching)
    cover, exceptions, prime_count = verify_power_window(m, congruences, sch)
    try:
        constant = avoidance_constant(m**sch.k, sch.y)
    except ValueError:
        constant = None
    return KCertificate(
        schedule=sch,
        sets=sets,
        matching=matching,
        modulus=modulus,
        m0=m0,
        m=m,
        reduced=reduced,
        congruences=congruences,
        cover=cover,
        exceptions=exceptions,
        prime_count_in_window=prime_count,
        exponent_report=math.log(m) / math.log(modulus),
        avoidance_constant=constant,
        autoshrink_trace=trace,
        seed=seed,
    )
