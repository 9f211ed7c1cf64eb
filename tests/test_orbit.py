"""The bounded breadth-first walk behind every finite orbit in cflat:
its discovery order, its bound, and that it walks no further than its
consumer reads."""

import pytest

from cflat.orbit import orbit

# successor and doubling on Z/10: ten states, reached over four frontiers
MOVES = (lambda n: (n + 1) % 10, lambda n: (2 * n) % 10)


class Overflow(Exception):
    pass


def test_orbit_yields_in_breadth_first_discovery_order():
    # frontiers [1], [2], [3, 4], [6, 5, 8], [7, 0, 9]; within one, each
    # state's moves in the order given
    assert list(orbit(1, MOVES, 10, Overflow())) == [1, 2, 3, 4, 6, 5, 8, 7, 0, 9]
    assert list(orbit(0, MOVES[1:], 10, Overflow())) == [0]


def test_orbit_raises_past_its_bound_and_only_when_walked_there():
    with pytest.raises(Overflow):
        list(orbit(1, MOVES, 9, Overflow()))
    walk = orbit(1, MOVES, 3, Overflow())
    assert any(state == 3 for state in walk)  # the third state: no overflow
    with pytest.raises(Overflow):
        next(walk)
