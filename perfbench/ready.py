"""Bring cflat to the ready state.

As a script it is one set-up sample: started in a fresh interpreter, it
imports cflat (``api``: and fills the lazy caches; ``cli``: only what
``python -m cflat`` imports before parsing) and prints the
``time.perf_counter()`` reading at which it was ready.  The caller took a
reading just before starting it; both use the same monotonic clock.
"""

import sys
import time


def warm(cflat) -> None:
    """Fill the lazy caches a long-running caller would have filled."""
    cflat.catalog()
    for base in ("S1", "T2", "K"):
        cflat.cup_table(base)


if __name__ == "__main__":
    if sys.argv[1] == "cli":
        import cflat.cli  # noqa: F401
    else:
        import cflat

        warm(cflat)
    print(time.perf_counter())
