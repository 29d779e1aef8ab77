"""Independent reference checks that the tests hold the construction to."""

import math


def largest_prime_factor(n: int) -> int:
    """The largest prime factor of n by trial division, 0 for n < 2."""
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


def window_witnesses(m: int, congruences, y: int, k: int, shift: int) -> dict[int, int]:
    """Each offset u of [-y, y] with its least modulus q among
    ``congruences`` that divides the element m^k + u + shift, found by
    direct division; 0 when none does."""
    return {
        u: congruence_witness(m**k + u + shift, congruences) for u in range(-y, y + 1)
    }


def least_root(a: int, k: int, p: int):
    """The least r in [0, p) with r^k == a (mod p), None when none does."""
    return next((r for r in range(p) if pow(r, k, p) == a % p), None)


def kth_power_class(k: int):
    """kpower's admissibility from its definition: the class c is
    admissible mod p when some r in [1, p) has r^k == 1 - c (mod p)."""
    return lambda c, p: any(pow(r, k, p) == (1 - c) % p for r in range(1, p))


def greedy_classes(
    offsets, primes, admissible=lambda c, p: True
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The greedy covering rule from its definition: each prime p in turn
    takes the admissible class c in [0, p) holding the most offsets that
    no earlier class strikes, the least such c on a tie.  Returns the
    classes and the offsets left unstruck."""
    left, classes = list(offsets), []
    for p in primes:
        allowed = [c for c in range(p) if admissible(c, p)]
        counts = [sum(1 for u in left if u % p == c) for c in allowed]
        c = allowed[counts.index(max(counts))]
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


def least_strikers(offsets, pairs) -> dict[int, int]:
    """Each offset's least prime q among the (class c, prime q) ``pairs``
    with u == c (mod q); offsets that no pair strikes are left out."""
    cover = {}
    for u in offsets:
        struck = [q for c, q in pairs if u % q == c]
        if struck:
            cover[u] = min(struck)
    return cover


def offset_partition_holds(sets, y: int) -> bool:
    """The squarefree offset law: u2 holds the offsets of [-y, y] that no
    band-one prime divides, and u6 exactly the u2 offsets that no mid-band
    class strikes."""
    window = range(-y, y + 1)
    mid = list(zip(sets.mid_classes, sets.p2))
    return (
        sets.u2 == tuple(u for u in window if not least_divisor(u, sets.p1))
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


def squarefree_by_cube_root(n: int) -> bool:
    """Whether n >= 1 is squarefree, by trial division and a square test.

    Each d >= 2 whose cube is at most what is left of n divides it out
    once, and a second division proves a square factor.  What is left
    then has no prime factor below d, and d^3 exceeds it, so it is 1, a
    prime or a product of two primes: squarefree unless it is a square
    above 1.
    """
    d = 2
    while d**3 <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return False
        d += 1
    return n == 1 or math.isqrt(n) ** 2 != n
