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


def unstruck_offsets(y: int, p1, p2, shift: int) -> tuple[int, ...]:
    """The offsets of [-y, y] that neither small band strikes, from the
    definition: no prime of p1 divides u and no prime of p2 divides
    u + shift.  kpower's U7 takes shift 2^k - 1 and drops u = 1."""
    return tuple(
        u
        for u in range(-y, y + 1)
        if not least_divisor(u, p1) and not least_divisor(u + shift, p2)
    )


def greedy_classes(offsets, primes) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The greedy covering rule from its definition: each prime p in turn
    takes the class c in [0, p) holding the most offsets that no earlier
    class strikes, the least such c on a tie.  Returns the classes and the
    offsets left unstruck."""
    left, classes = list(offsets), []
    for p in primes:
        counts = [sum(1 for u in left if u % p == c) for c in range(p)]
        c = counts.index(max(counts))
        classes.append(c)
        left = [u for u in left if u % p != c]
    return tuple(classes), tuple(left)


def large_prime_classes(u6, p3, y: int) -> dict[int, int]:
    """Each u6 offset's large prime: the primes q <= y, ascending, take
    their greedy class over the offsets left while any are, and the
    offsets left after them are paired ascending with the primes above
    y."""
    cover, left = {}, list(u6)
    for q in p3:
        if q > y or not left:
            break
        (c,), rest = greedy_classes(left, (q,))
        cover.update((u, q) for u in left if u % q == c)
        left = list(rest)
    cover.update(zip(left, [q for q in p3 if q > y]))
    return cover


def offset_partition_holds(sets, y: int) -> bool:
    """The squarefree offset law: u1 holds the offsets of [-y, y] that a
    band-one prime divides, u2 the rest, and u6 exactly the u2 offsets
    that no mid-band class strikes."""
    window = range(-y, y + 1)
    mid = list(zip(sets.mid_classes, sets.p2))
    return (
        sets.u1 == tuple(u for u in window if least_divisor(u, sets.p1))
        and sets.u2 == tuple(u for u in window if not least_divisor(u, sets.p1))
        and sets.u6 == tuple(u for u in sets.u2 if all(u % p != c for c, p in mid))
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
