"""One bounded breadth-first walk for every finite orbit cflat enumerates.

``orbit(start, moves, bound, overflow)`` yields ``start``, then each new
state in breadth-first discovery order: the states of one frontier in the
order they were found, and for each of them its moves in the order given.
It raises ``overflow`` as soon as more than ``bound`` distinct states have
been found.  It is lazy: a consumer that stops early walks no further.
"""


def orbit(start, moves, bound: int, overflow: Exception):
    """Yield the orbit of ``start`` under ``moves``, breadth first."""
    seen = {start}
    yield start
    frontier = [start]
    while frontier:
        found = []
        for state in frontier:
            for move in moves:
                new = move(state)
                if new not in seen:
                    seen.add(new)
                    if len(seen) > bound:
                        raise overflow
                    yield new
                    found.append(new)
        frontier = found
