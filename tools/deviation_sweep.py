"""Check every masked round a benchmark run could reach against the 1e-6 gate.

A timed benchmark run cycles through 256 mask seeds derived from its
``--seed`` but reaches only as many as its time allows, so a faster tree
reaches seeds a slower one never ran.  This runs all of them: for each
benchmark seed it derives the same mask seeds as ``perfbench/run.py``
(``random.Random(seed)``, ``randrange(2**32)``), sets the workload up with
perfbench's own ``setup`` and measures every masked round with perfbench's
own ``deviation`` (both imported, read-only, from ``perfbench/run.py``).

    python3 tools/deviation_sweep.py grid118-2h --seeds 0 1 2 3
    python3 tools/deviation_sweep.py threebus-seeds --root OTHER   # OTHER's src/

Per benchmark seed it prints the worst deviation, its index among the
derived seeds and its mask seed, and the number of rounds over the gate (a
round that raises counts as over).  It exits 1 if any round is over.
"""

import argparse
import importlib.util
import os
import random
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_perfbench(root):
    """``perfbench/run.py`` of the checkout at `root`, with its ``src/``
    first on the import path."""
    bench = os.path.join(os.path.abspath(root), "perfbench")
    sys.path.insert(0, bench)
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(bench, "run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    sys.path.insert(0, str(run.SRC))
    return run


def sweep(run, workload, seed):
    """(worst deviation, its index, its mask seed, rounds over the gate)."""
    from maskdispatch import run_market_round

    ctx, _ = run.setup(workload)
    rng = random.Random(seed)
    mask_seeds = [rng.randrange(2 ** 32) for _ in range(run.N_MASK_SEEDS)]
    worst, over = (-1.0, None, None), 0
    for i, mask_seed in enumerate(mask_seeds):
        try:
            cleared, _ = run_market_round(ctx["system"], mask_seed,
                                          mode="masked", config=ctx["solver"],
                                          mask_config=ctx["mask"])
            dev = run.deviation(ctx["reference"], cleared)
        except Exception as exc:  # a failed round is over the gate
            print(f"  index {i} (mask seed {mask_seed}) failed: "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
            dev = float("inf")
        if not dev <= run.TOL:
            over += 1
        if not dev <= worst[0]:
            worst = (dev, i, mask_seed)
    return (*worst, over)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("workload")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0],
                    help="benchmark --seed values to sweep (default: 0)")
    ap.add_argument("--root", default=HERE,
                    help="checkout whose perfbench/ and src/ are used "
                         "(default: this one)")
    args = ap.parse_args()
    run = load_perfbench(args.root)
    if args.workload not in run.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(sorted(run.WORKLOADS))}")
    failed = False
    for seed in args.seeds:
        dev, index, mask_seed, over = sweep(run, args.workload, seed)
        print(f"{args.workload} seed {seed}: worst {dev:.3e} at index {index} "
              f"(mask seed {mask_seed}), {over} of {run.N_MASK_SEEDS} over "
              f"{run.TOL:g}", flush=True)
        failed = failed or over > 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
