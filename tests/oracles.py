"""Independent reference checks that the tests hold the construction to."""


def check_partition(sets) -> bool:
    """Exact set equality u2 == u3 | u4 of a squarefree SetSystem."""
    return set(sets.u2) == set(sets.u3) | set(sets.u4)


def largest_prime_factor(n: int) -> int:
    """The largest prime factor of n by trial division, 0 for n < 2 (the
    convention of numtheory.window_tables)."""
    largest, d = 0, 2
    while d * d <= n:
        while n % d == 0:
            largest, n = d, n // d
        d += 1
    return n if n > 1 else largest


def least_divisor(n: int, primes) -> int:
    """The least prime of ``primes`` that divides n, 0 when none does."""
    return min((q for q in primes if n % q == 0), default=0)


def congruence_witness(value: int, congruences) -> int:
    """The witness of a window element, from the definition: the least
    modulus among ``congruences`` that divides value, 0 when none does."""
    return least_divisor(value, [c.modulus for c in congruences])


def has_augmenting_path(adjacency, matched: dict[int, int]) -> bool:
    """Independent maximality check: True iff an augmenting path exists
    with respect to ``matched`` (then the matching is not maximum)."""
    right_owner = {v: u for u, v in matched.items()}
    for start in adjacency:
        if start in matched:
            continue
        seen_left = {start}
        frontier = [start]
        while frontier:
            u = frontier.pop()
            for v in adjacency[u]:
                w = right_owner.get(v)
                if w is None:
                    return True
                if w not in seen_left:
                    seen_left.add(w)
                    frontier.append(w)
    return False
