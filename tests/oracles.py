"""Independent reference checks that the tests hold the construction to."""


def check_partition(sets) -> bool:
    """Exact set equality u2 == u3 | u4 of a squarefree SetSystem."""
    return set(sets.u2) == set(sets.u3) | set(sets.u4)


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
