"""Independent reference checks that the tests hold the construction to."""


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


def unstruck_offsets(y: int, p1, p2, shift: int = 1) -> tuple[int, ...]:
    """The offsets of [-y, y] that neither small band strikes, from the
    definition: no prime of p1 divides u and no prime of p2 divides
    u + shift.  With shift 1 these are the squarefree offsets that need an
    assigned prime; kpower's U7 takes shift 2^k - 1 and drops u = 1."""
    return tuple(
        u
        for u in range(-y, y + 1)
        if not least_divisor(u, p1) and not least_divisor(u + shift, p2)
    )


def offset_partition_holds(sets, y: int) -> bool:
    """The squarefree offset law: u1 and u2 split the window [-y, y], and
    u6 is exactly unstruck_offsets(y, p1, p2)."""
    window = set(range(-y, y + 1))
    return (
        set(sets.u1) | set(sets.u2) == window
        and not set(sets.u1) & set(sets.u2)
        and sets.u6 == unstruck_offsets(y, sets.p1, sets.p2)
    )


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
