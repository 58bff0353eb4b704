#!/usr/bin/env python3
"""Benchmark: whole clear and masked market rounds through the public API.

Run from the repository root:

    python3 perfbench/run.py --workload threebus-seeds --seed 1 --seconds 50 --trace 0

One process drives a closed loop: it runs market rounds back to back, each
waiting for the previous one.  Every masked round is checked against the
workload's clear round.  With ``--trace 0`` the last line of standard output
is a JSON object holding the end-to-end metrics; with ``--trace 1`` the
calls between the package's modules are wrapped in spans and the line holds
the per-layer metrics.  Round times are reported at a reference host speed
(see ``hostspeed.py``).  The line before it records the environment, and
metrics that BENCHMARK.json does not gate.  Files go to
``perfbench/results/``.  See ``perfbench/README.md``.
"""

import os
import sys
import time

SCRIPT_START = time.perf_counter()
# Must be set before numpy loads.  The bundled simplex refactors small LU
# bases on every pivot, which default OpenBLAS threading slows ~50x on a
# 2-core host.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import HostProbe, correct  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.sparse as sp  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "maskdispatch"
RESULTS = HERE / "results"

TOL = 1e-6              # masked vs clear agreement (ROADMAP "same outputs")
TAIL_ROUNDS = 100       # masked rounds a run needs to report a p90 (10 beyond)
CLEAR_SHARE = 0.1       # clear rounds get this share of the masked busy time
N_MASK_SEEDS = 256      # masked seeds derived from the workload seed, cycled
SETUPS = 3              # set-ups per run: this process plus two fresh ones
MAX_REPORTED = 20       # failed rounds printed one by one; all are counted
PROBE_SHARE = 0.05      # host probes get this share of the rounds' busy time
# Set-up is mostly imports and process start, which the host probe does not
# represent, so set-up times stay wall-clock.
SETUP_METRICS = ("setup_s", "casefile.save_s", "casefile.load_s")

# Cases are fixed per workload; the workload seed picks the masked seeds.
# BENCHMARK.json gates threebus-seeds and grid118-2h; README.md says why the
# other two are run by hand only.
WORKLOADS = {
    # what `maskdispatch compare --seeds N` does on the shipped case
    "threebus-seeds": {"case": None, "solver": {}, "mask": {}},
    # a few parties with large dense full-horizon masks (dense assembly)
    "pooled30-4h": {
        "case": {"buses": 30, "gencos": 2, "lses": 2, "entity_size": 5,
                 "T": 4, "seed": 1, "segments": 3},
        "solver": {}, "mask": {}},
    # criterion 7's configuration at 2 of its 24 hours: 146 parties, hourly
    # sparse masks, sparse assembly, IPM
    "grid118-2h": {
        "case": {"buses": 118, "gencos": 54, "lses": 91, "entity_size": 1,
                 "T": 2, "seed": 7, "segments": 1},
        "solver": {"highs_method": "highs-ipm"},
        "mask": {"hourly_block_masks": True}},
    # the same at 3 hours
    "grid118-3h": {
        "case": {"buses": 118, "gencos": 54, "lses": 91, "entity_size": 1,
                 "T": 3, "seed": 7, "segments": 1},
        "solver": {"highs_method": "highs-ipm"},
        "mask": {"hourly_block_masks": True}},
}

THREEBUS_GOLDEN = {"objective": 1330.0, "lmp": [15.0, 15.5, 16.0]}

# counts that must repeat exactly for one workload, seed and source tree
COUNT_KEYS = ("wire_up_bytes", "wire_down_bytes", "protocol.messages",
              "masking.masked_nnz", "masking.masked_rows",
              "masking.masked_cols", "market.clear_nnz",
              "lp.iterations_masked", "lp.iterations_clear",
              "masking.keygen_calls")


def metric_units(kind):
    """Metric name -> unit, for ``end_to_end`` or ``per_layer``, as
    BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up once, print the timings as JSON and exit")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup(name):
    """Imports, case creation or loading, and a warm-up clear round (which
    pays the lazy scipy.optimize import where a workload reaches HiGHS).
    The case goes through save_case/load_case.  Returns the run context and
    the set-up timings."""
    import maskdispatch
    from maskdispatch import (MaskConfig, SolverConfig, gen_synthetic,
                              load_case, run_market_round, save_case)

    if Path(maskdispatch.__file__).resolve().parent != PACKAGE.resolve():
        raise SystemExit(f"error: imported maskdispatch from "
                         f"{maskdispatch.__file__}, not from {PACKAGE}")
    spec = WORKLOADS[name]
    if spec["case"] is None:
        system = load_case(PACKAGE / "cases" / "threebus.case")
    else:
        system = gen_synthetic(**spec["case"])
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{name}-{os.getpid()}.case"
    t0 = time.perf_counter()
    save_case(system, path)
    t1 = time.perf_counter()
    system = load_case(path)
    t2 = time.perf_counter()
    path.unlink()
    solver = SolverConfig(**spec["solver"])
    mask = MaskConfig(**spec["mask"])
    reference, _ = run_market_round(system, 0, mode="clear", config=solver)
    timings = {"setup_s": time.perf_counter() - SCRIPT_START,
               "save_s": t1 - t0, "load_s": t2 - t1}
    ctx = {"system": system, "solver": solver, "mask": mask,
           "reference": reference}
    return ctx, timings


def setup_in_fresh_process(name):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_golden(name, reference):
    """The shipped three-bus case has a published outcome."""
    if name != "threebus-seeds":
        return True
    g = THREEBUS_GOLDEN
    return (abs(reference.objective - g["objective"]) <= TOL
            and all(abs(a - b) <= TOL
                    for a, b in zip(reference.lmp.ravel(), g["lmp"])))


# ---------------------------------------------------------------------------
# the timed loop
# ---------------------------------------------------------------------------

def deviation(ref, got):
    """Worst masked-vs-clear deviation: objective relative to 1 + |obj|,
    per-owner dispatch and LMPs absolute."""
    dev = abs(got.objective - ref.objective) / (1.0 + abs(ref.objective))
    for mine, theirs in ((ref.gen_dispatch, got.gen_dispatch),
                         (ref.load_dispatch, got.load_dispatch)):
        if mine.keys() != theirs.keys():
            return float("inf")
        for owner, x in mine.items():
            dev = max(dev, float(np.max(np.abs(x - theirs[owner]))))
    return max(dev, float(np.max(np.abs(ref.lmp - got.lmp))))


def run_rounds(ctx, mask_seeds, seconds, tracer, probe):
    """Closed loop for ``seconds``: masked rounds cycle through
    ``mask_seeds``; clear rounds are interleaved so that they take
    CLEAR_SHARE of the masked rounds' busy time, and host probes so that
    they take PROBE_SHARE of both."""
    from maskdispatch import (ClearingFailed, KeyGenerationFailed,
                              NumericalBreakdown, ProtocolViolation,
                              comm_cost, run_market_round)

    errors = (ClearingFailed, NumericalBreakdown, KeyGenerationFailed,
              ProtocolViolation)
    system, solver, mask = ctx["system"], ctx["solver"], ctx["mask"]
    ref = ctx["reference"]
    out = {"times": {"clear": [], "masked": []},
           "busy": {"clear": 0.0, "masked": 0.0, "probe": 0.0},
           "attempted": 0, "failed": 0, "mismatched": 0, "max_dev": 0.0,
           "first": {}, "counts": {}, "drift": [], "log": []}
    n_masked = 0
    deadline = time.perf_counter() + seconds
    # past the deadline, only until each mode has been tried once
    while time.perf_counter() < deadline or not out["busy"]["clear"]:
        busy = out["busy"]
        if busy["probe"] < PROBE_SHARE * (busy["clear"] + busy["masked"]):
            busy["probe"] += probe.sample()
            continue
        mode = "clear" if busy["clear"] < CLEAR_SHARE * busy["masked"] else "masked"
        seed = 0
        if mode == "masked":
            seed = mask_seeds[n_masked % len(mask_seeds)]
            n_masked += 1
        out["attempted"] += 1
        rid = out["attempted"]
        scope = (tracer.round(rid, mode, keep_results=mode not in out["first"])
                 if tracer else contextlib.nullcontext())
        t0 = time.perf_counter()
        try:
            with scope:
                cleared, log = run_market_round(system, seed, mode=mode,
                                                config=solver,
                                                mask_config=mask)
        except errors as exc:
            busy[mode] += time.perf_counter() - t0
            report_failure(out, f"round {rid} ({mode}, seed {seed}) failed: "
                                f"{type(exc).__name__}: {exc}")
            continue
        dt = time.perf_counter() - t0
        busy[mode] += dt
        out["log"].append((mode, seed, t0, dt))

        dev = deviation(ref, cleared)
        if mode == "masked":
            out["max_dev"] = max(out["max_dev"], dev)
        if not dev <= TOL:
            out["mismatched"] += 1
            report_failure(out, f"round {rid} ({mode}, seed {seed}) does not "
                                f"match the clear round: deviation {dev:.3e}")
            continue
        out["times"][mode].append(dt)
        out["first"].setdefault(mode, rid)
        if mode == "masked":
            cost = comm_cost(log)
            record_count(out, "wire_up_bytes", cost.total_up_bytes)
            record_count(out, "wire_down_bytes", cost.total_down_bytes)
            record_count(out, "protocol.messages", len(log.messages))
    return out


def report_failure(out, message):
    out["failed"] += 1
    if out["failed"] <= MAX_REPORTED:
        print(message, file=sys.stderr)


def record_count(out, key, value):
    """Counts are the same for every masked round; flag any that differs."""
    seen = out["counts"].setdefault(key, value)
    if seen != value and len(out["drift"]) < 10:
        out["drift"].append(f"{key}: {seen} then {value} within one run")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(rounds, setups):
    masked = rounds["times"]["masked"]
    masked_p50 = statistics.median(masked)
    clear_p50 = statistics.median(rounds["times"]["clear"])
    return {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "masked_round_p50_s": masked_p50,
        "masked_rounds_per_s": len(masked) / sum(masked),
        "clear_round_p50_s": clear_p50,
        "masked_clear_ratio": masked_p50 / clear_p50,
        "wire_up_bytes": rounds["counts"]["wire_up_bytes"],
        "wire_down_bytes": rounds["counts"]["wire_down_bytes"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "round_success_ratio": 1.0 - rounds["failed"] / rounds["attempted"],
    }


def nnz(problem):
    return sum(int(a.count_nonzero() if sp.issparse(a) else np.count_nonzero(a))
               for a in (problem.A_eq, problem.A_in))


def per_layer(tracer, rounds, setups):
    """Medians over completed rounds of per-round layer times; counts and
    the certificate from the first matching round of each mode."""
    def med(rows, layer):
        return statistics.median(layers.get(layer, 0.0) for _, layers in rows)

    masked = tracer.rounds("masked")
    clear = tracer.rounds("clear")
    first_m = tracer.spans_of(rounds["first"]["masked"])
    solve_m = next(s for s in first_m if s.layer == "lp.solve_s")
    solve_c = next(s for s in tracer.spans_of(rounds["first"]["clear"])
                   if s.layer == "lp.solve_s")
    keygen = [s for s in first_m if s.layer == "masking.keygen_s"]
    problem_m, sol_m = solve_m.args[0], solve_m.result
    problem_c, sol_c = solve_c.args[0], solve_c.result
    masked_nnz, clear_nnz = nnz(problem_m), nnz(problem_c)
    metrics = {
        "lp.solve_masked_s": med(masked, "lp.solve_s"),
        "lp.solve_share": statistics.median(
            layers.get("lp.solve_s", 0.0) / root.seconds
            for root, layers in masked),
        "lp.solve_clear_s": med(clear, "lp.solve_s"),
        "lp.iterations_masked": sol_m.iterations,
        "lp.iterations_clear": sol_c.iterations,
        "lp.max_scaled_gap": sol_m.gap / (1.0 + abs(sol_m.objective)),
        "masking.masked_nnz": masked_nnz,
        "masking.masked_rows": problem_m.n_rows,
        "masking.masked_cols": problem_m.n_vars,
        "masking.fill_ratio": masked_nnz / clear_nnz,
        "masking.keygen_s": med(masked, "masking.keygen_s"),
        "masking.keygen_calls": len(keygen),
        "masking.mask_entity_s": med(masked, "masking.mask_entity_s"),
        "masking.mask_iso_s": med(masked, "masking.mask_iso_s"),
        "masking.assemble_s": med(masked, "masking.assemble_s"),
        "masking.recover_s": med(masked, "masking.recover_s"),
        "masking.max_recovery_dev": rounds["max_dev"],
        "market.build_blocks_s": med(masked + clear, "market.build_blocks_s"),
        "market.assemble_clear_s": med(clear, "market.assemble_clear_s"),
        "market.extract_s": med(clear, "market.extract_s"),
        "market.clear_nnz": clear_nnz,
        "protocol.round_s": statistics.median(r.seconds for r, _ in masked),
        "protocol.self_s": statistics.median(
            r.seconds - sum(layers.values()) for r, layers in masked),
        "protocol.messages": rounds["counts"]["protocol.messages"],
        "casefile.save_s": statistics.median(s["save_s"] for s in setups),
        "casefile.load_s": statistics.median(s["load_s"] for s in setups),
        "trace.masked_round_p50_s": statistics.median(rounds["times"]["masked"]),
    }
    labels = {"lp.backend_masked": sol_m.backend,
              "lp.backend_clear": sol_c.backend}
    return metrics, labels


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

def source_hash():
    h = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".case"):
            h.update(str(path.relative_to(PACKAGE)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(args, ctx):
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "highs_method": ctx["solver"].highs_method,
        "solver_backend": ctx["solver"].backend,
        "mask_config": dataclasses.asdict(ctx["mask"]),
        "git_commit": git_commit(), "source_sha256": source_hash(),
    }


def check_repeat(args, src_hash, counts):
    """Compare counts with earlier runs of the same workload, seed and
    source tree; returns the differences and records the union."""
    store = RESULTS / "counts" / f"{args.workload}-seed{args.seed}-{src_hash[:16]}.json"
    store.parent.mkdir(parents=True, exist_ok=True)
    earlier = json.loads(store.read_text()) if store.exists() else {}
    drift = [f"{k}: {earlier[k]} in an earlier run, {v} now"
             for k, v in counts.items() if k in earlier and earlier[k] != v]
    tmp = store.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps({**earlier, **counts}, sort_keys=True))
    tmp.replace(store)
    return drift


def main(argv=None):
    args = parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: {PACKAGE} not found; run from a checkout of the "
              f"repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    ctx, first_setup = setup(args.workload)
    if args.setup_only:
        print(json.dumps(first_setup))
        return 0
    setups = [first_setup] + [setup_in_fresh_process(args.workload)
                              for _ in range(SETUPS - 1)]
    golden_ok = check_golden(args.workload, ctx["reference"])
    if not golden_ok:
        print("the clear round does not reproduce the published three-bus "
              "outcome", file=sys.stderr)

    rng = random.Random(args.seed)
    mask_seeds = [rng.randrange(2 ** 32) for _ in range(N_MASK_SEEDS)]
    probe = HostProbe()
    probe.sample()          # warm; also leaves a sample if the run is short
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        rounds = run_rounds(ctx, mask_seeds, args.seconds, tracer, probe)
    finally:
        if tracer:
            tracer.uninstall()
    if not rounds["times"]["masked"] or not rounds["times"]["clear"]:
        print("error: no masked or no clear round succeeded", file=sys.stderr)
        return 1

    env = environment(args, ctx)
    env["host_slowdown"] = probe.slowdown()
    if tracer:
        raw, labels = per_layer(tracer, rounds, setups)
        env.update(labels)
        units = metric_units("per_layer")
    else:
        raw = end_to_end(rounds, setups)
        units = metric_units("end_to_end")
    if raw.keys() != units.keys():
        raise SystemExit(f"error: metrics {sorted(raw.keys() ^ units.keys())} "
                         f"disagree with BENCHMARK.json")
    extra = {}
    masked = rounds["times"]["masked"]
    if not tracer and len(masked) >= TAIL_ROUNDS:
        # not gated: BENCHMARK.json needs every metric on every workload
        p90 = statistics.quantiles(masked, n=10, method="inclusive")[8]
        extra["masked_round_p90_s"] = p90 / env["host_slowdown"]
    metrics = correct(raw, units, env["host_slowdown"], skip=SETUP_METRICS)
    counts = {k: v for k, v in {**rounds["counts"], **metrics}.items()
              if k in COUNT_KEYS}
    drift = rounds["drift"] + check_repeat(args, env["source_sha256"], counts)
    for line in drift:
        print(f"count drift: {line}", file=sys.stderr)
    if rounds["failed"]:
        print(f"{rounds['failed']} of {rounds['attempted']} rounds failed, "
              f"{rounds['mismatched']} of them by not matching the clear "
              f"round", file=sys.stderr)

    result = {
        "correct": golden_ok and rounds["mismatched"] == 0 and not drift,
        "attempted": rounds["attempted"],
        "failed": rounds["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(
        {"env": env, "setups": setups, "counts": counts, "drift": drift,
         "result": result, "raw_metrics": raw, "extra": extra,
         "probes": probe.seconds,
         "rounds": rounds["log"]}, indent=1) + "\n")
    if tracer:
        tracer.write(RESULTS / f"{stem}-spans.jsonl")
    print(json.dumps({"env": env, "extra": extra}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
