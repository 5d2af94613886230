"""Time one hierarchical evaluate call, the work of a predict_mean request.

Builds the hierarchical interpolation tables of G(4, d) for d = 4, 6 and 8
and prints the median wall time of evaluate(X, g) at 1, 16 and 256 points,
with X uniform on [0, 1]^d and g random surpluses from fixed seeds.  The
skibench request metrics add up whole requests of mixed sizes; this gives
the per-call figure at each size, for changes to the request path.

    python tools/request_latency.py [REPEATS]    # REPEATS defaults to 200

Run from the root of a source checkout: skigrid is imported from its src/.
"""

import os

# one BLAS thread, set before numpy loads, as skibench runs
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

RESOLUTION = 4
DIMS = (4, 6, 8)
SIZES = (1, 16, 256)


def median_ms(fn, repeats):
    """Median wall time of fn() over ``repeats`` calls, in ms."""
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return 1e3 * statistics.median(times)


def main(argv):
    repeats = int(argv[1]) if len(argv) > 1 else 200
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from skigrid.grids import build_sparse_grid
    from skigrid.interp import interpolator

    # A serving process has freed a fit's large arrays before its first
    # request, and glibc's malloc then reuses blocks up to that size.  Until
    # then, freed work arrays over 128 KiB go back to the system, so each
    # call page-faults them in again.  Freeing one fit-sized block (16 MiB)
    # times the calls in the serving state.
    np.ones(1 << 21)
    print(f"median evaluate time (ms) over {repeats} calls, l = {RESOLUTION}")
    print("   d    |G|" + "".join(f"{n:>9d} pt" for n in SIZES))
    for d in DIMS:
        grid = build_sparse_grid(RESOLUTION, d)
        tables = interpolator(grid)
        rng = np.random.default_rng([d, RESOLUTION])
        g = tables.table_values(rng.standard_normal(grid.size))
        cells = []
        for n in SIZES:
            X = rng.uniform(size=(n, d))
            tables.evaluate(X, g)
            cells.append(median_ms(lambda: tables.evaluate(X, g), repeats))
        print(f"{d:4d} {grid.size:6d}" + "".join(f"{c:12.4f}" for c in cells))


if __name__ == "__main__":
    main(sys.argv)
