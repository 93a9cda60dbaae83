"""Re-measure the one-shot probe table of the roadmap's benchmark item.

    python3 bench/probes.py [--seed N] [--repeats R]

Run from a checkout root.  Prints one JSON object: for each probe the
median over ``repeats`` runs, in ms, plus the run record.  The networks
come from the benchmark's own generators, so they are not the ones the
roadmap's probes used; see README.md for the comparison.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import run

os.environ.update(run.BLAS_ENV)
sys.path.insert(0, str(run.ROOT / "src"))

import numpy as np  # noqa: E402

import beliefnet as bn  # noqa: E402
import corpus  # noqa: E402


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--repeats", type=int, default=7)
    args = p.parse_args()
    rng = np.random.default_rng(args.seed)
    env = dict(os.environ, PYTHONPATH=str(run.ROOT / "src"))

    def child(*argv):
        subprocess.run([sys.executable, *argv], cwd=run.ROOT, env=env, check=True,
                       capture_output=True)

    out = {}
    for n in (200, 1000):
        net = corpus.polytree(rng, n, f"poly{n}").build()
        out[f"propagate_{n}_nodes_ms"] = _median_ms(lambda: bn.propagate(net), args.repeats)
    grid = corpus.grid(rng, 3, 6).build()
    target = grid.variables[-1].id
    out["cutset_3x6_ms"] = _median_ms(lambda: bn.conditioned_posterior(grid, target),
                                      args.repeats)
    out["enumeration_3x6_ms"] = _median_ms(lambda: bn.posterior(grid, target), args.repeats)
    loopy8 = str(run.ROOT / "fixtures" / "loopy8.bn")
    out["cli_loopy8_wall_ms"] = _median_ms(
        lambda: child("-m", "beliefnet", "query", loopy8, "--target", "H"), args.repeats)
    out["import_numpy_wall_ms"] = _median_ms(lambda: child("-c", "import numpy"), args.repeats)
    out["python_bare_wall_ms"] = _median_ms(lambda: child("-c", "pass"), args.repeats)
    record = run.run_record(argparse.Namespace(workload="probes", seed=args.seed, seconds=0,
                                               trace=0), {"repeats": args.repeats})
    print(json.dumps({"probes_ms": out, "run_record": record}, indent=2))


if __name__ == "__main__":
    main()
