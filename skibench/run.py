"""Run one skigrid benchmark workload and print its metrics.

    python3 skibench/run.py --workload fit_d6_l4 --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; skigrid is imported from ``src/``
there.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
every end-to-end metric of BENCHMARK.json, with ``--trace 1`` every
per-layer one.  The lines before it record the environment and every
failed operation with its statistics.
"""

import os

# One BLAS thread, fixed before numpy loads: CG iteration counts then repeat
# exactly, and one thread was also the faster setting on a 2-core machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def declared_units(kind):
    """{name: unit} of the ``kind`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def environment():
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"blas_threads": int(BLAS_THREADS), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "skigrid" / "__init__.py").is_file():
        sys.exit(f"no skigrid sources under {src}; run from a source checkout")
    sys.path[:0] = [str(src), str(HERE)]
    import skigrid
    if Path(skigrid.__file__).resolve().parent != src / "skigrid":
        sys.exit(f"skigrid imported from {skigrid.__file__}, not from {src}")
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    units = declared_units("per_layer" if args.trace else "end_to_end")
    w = workloads.WORKLOADS[args.workload]
    runner, metrics, info = workloads.run(w, args.seed, args.seconds,
                                          bool(args.trace))
    print(json.dumps({"workload": w.name, "seed": args.seed,
                      "trace": args.trace, **environment(), **info}))
    for record in runner.failures:
        print(json.dumps(record))
    if metrics is None:
        sys.exit("no fit converged; nothing could be served")
    if set(metrics) != set(units):
        sys.exit(f"metrics {sorted(metrics)} do not match BENCHMARK.json "
                 f"{sorted(units)}")
    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                    for k in units},
    }))


if __name__ == "__main__":
    main()
