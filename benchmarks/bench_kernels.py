"""Time the four integer kernels of cflat.zlinalg.backend on seeded inputs.

Run from the repository root:

    python3 benchmarks/bench_kernels.py            # default sizes
    python3 benchmarks/bench_kernels.py --repeat 5
"""

import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cflat.zlinalg import backend  # noqa: E402

SEED = 20260816


def rand_lists(rng, rows, cols, bound):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def identity_lists(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def bench_snf(mats):
    for m in mats:
        n = len(m)
        d = [row[:] for row in m]
        backend.snf_inplace(d, identity_lists(n), identity_lists(n))


def bench_det(mats):
    for m in mats:
        backend.det_inplace([row[:] for row in m])


def bench_rank(mats):
    for m in mats:
        backend.rank_mod_inplace([row[:] for row in m], 3)


def bench_matmul(mats):
    for m in mats:
        backend.matmul(m, m)


def time_case(fn, mats, repeat):
    best = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(mats)
        dt = time.perf_counter() - t0
        if best is None or dt < best:
            best = dt
    return best


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=3, help="timing repeats, best kept")
    args = ap.parse_args()

    rng = random.Random(SEED)
    cases = [
        ("snf 16x16 x20", bench_snf, [rand_lists(rng, 16, 16, 9) for _ in range(20)]),
        ("snf 24x24 x10", bench_snf, [rand_lists(rng, 24, 24, 9) for _ in range(10)]),
        ("snf 32x32 x5", bench_snf, [rand_lists(rng, 32, 32, 9) for _ in range(5)]),
        ("det 32x32 x20", bench_det, [rand_lists(rng, 32, 32, 30) for _ in range(20)]),
        ("det 48x48 x10", bench_det, [rand_lists(rng, 48, 48, 30) for _ in range(10)]),
        ("rank mod 3 64x64 x10", bench_rank, [rand_lists(rng, 64, 64, 30) for _ in range(10)]),
        ("matmul 64x64 x10", bench_matmul, [rand_lists(rng, 64, 64, 30) for _ in range(10)]),
    ]

    header = f"{'case':<22}{'best (s)':>12}"
    print(header)
    print("-" * len(header))
    for name, fn, mats in cases:
        print(f"{name:<22}{time_case(fn, mats, args.repeat):>12.4f}")


if __name__ == "__main__":
    main()
