"""Command-line driver.

Subcommands:

    solve    clear or masked solve of a case file, JSON report
    compare  clear baseline vs N masked seeds, CSV
    gen      write a synthetic case file
    audit    per-entity inference audit of a masked round

Exit codes: 0 solved to optimality, 1 input/usage error (including an
islanded network, an empty market or a seed that is not a non-negative
integer), 2 infeasible, 4 round failed (numerical breakdown, key
generation failure or protocol violation).  Every error is one
``error:`` line on stderr.  MASKDISPATCH_SEED sets the default seed.

The JSON report is versioned with a top-level ``"schema": 1`` field;
all numbers carry six decimals and wall-clock measurements live in
their own ``timing`` section so reports are reproducible up to it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from maskdispatch.casefile import CaseFileError, load_case, save_case
from maskdispatch.lp import NumericalBreakdown
from maskdispatch.market import (
    ClearingFailed, EmptyMarket, InvalidCounts, IslandedNetwork,
    build_ed_blocks, gen_synthetic,
)
from maskdispatch.masking import KeyGenerationFailed, leakage_audit
from maskdispatch.protocol import ProtocolViolation, comm_cost, run_market_round

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_ROUND_FAILED = 4


class UsageError(Exception):
    """The command line (or MASKDISPATCH_SEED) could not be parsed."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _seed(text):
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(
            f"seed must be a non-negative integer (from --seed or "
            f"MASKDISPATCH_SEED), got {text!r}")
    return seed


def _r6(x):
    return round(float(x), 6) + 0.0   # normalizes -0.0


def _matrix(a):
    return [[_r6(v) for v in row] for row in np.atleast_2d(np.asarray(a))]


def _dispatch_section(system, cleared):
    blocks = build_ed_blocks(system)
    gens, loads = {}, {}
    for e in blocks.gencos:
        x = cleared.gen_dispatch[e.owner]
        gens.update(_per_asset(e, x))
    for e in blocks.lses:
        x = cleared.load_dispatch[e.owner]
        loads.update(_per_asset(e, x))
    return gens, loads


def _per_asset(entity, x):
    out = {}
    for name, v in zip(entity.var_names, x):
        asset, seg, hour = name.split(":")
        rec = out.setdefault(asset, {"owner": entity.owner, "segments": {}, "total": 0.0})
        rec["segments"][f"{seg}:{hour}"] = _r6(v)
        rec["total"] = _r6(rec["total"] + float(v))
    return out


def _error(exc, code) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


def cmd_solve(args) -> int:
    system = load_case(args.case)
    t0 = time.perf_counter()
    cleared, log = run_market_round(system, args.seed, mode=args.mode)
    elapsed = time.perf_counter() - t0

    gens, loads = _dispatch_section(system, cleared)
    report = {
        "schema": 1,
        "case": system.name,
        "mode": args.mode,
        "seed": args.seed,
        "status": "optimal",
        "objective": _r6(cleared.objective),
        "generators": gens,
        "loads": loads,
        "angles": _matrix(cleared.angles),
        "flows": _matrix(cleared.flows),
        "lmp": _matrix(cleared.lmp),
    }
    if args.mode == "masked":
        report["comm"] = comm_cost(log).to_json()
    report["timing"] = {"solve_seconds": elapsed}

    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_compare(args) -> int:
    if args.seeds < 1:
        return _error("--seeds must be at least 1", EXIT_INPUT)
    system = load_case(args.case)
    t0 = time.perf_counter()
    clear, _ = run_market_round(system, 0, mode="clear")
    t_clear_ms = (time.perf_counter() - t0) * 1e3

    rows = ["seed,obj_clear,obj_masked,max_dispatch_diff,max_lmp_diff,"
            "t_clear_ms,t_masked_ms,scalars_up,scalars_down"]
    for seed in range(args.seeds):
        t0 = time.perf_counter()
        masked, log = run_market_round(system, seed, mode="masked")
        t_masked_ms = (time.perf_counter() - t0) * 1e3
        cost = comm_cost(log)
        rows.append(",".join([
            str(seed), f"{clear.objective:.6f}", f"{masked.objective:.6f}",
            f"{clear.max_dispatch_diff(masked):.9f}",
            f"{np.max(np.abs(clear.lmp - masked.lmp)):.9f}",
            f"{t_clear_ms:.3f}", f"{t_masked_ms:.3f}",
            str(cost.total_up_count), str(cost.total_down_count)]))

    text = "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_gen(args) -> int:
    system = gen_synthetic(args.buses, args.gencos, args.lses,
                           args.entity_size, args.hours, args.seed)
    save_case(system, args.out)
    return EXIT_OK


def cmd_audit(args) -> int:
    system = load_case(args.case)
    cleared, log = run_market_round(system, args.seed, mode="masked")

    submissions = [m for m in log.messages if m.kind == "Submission"]
    published = {**cleared.gen_dispatch, **cleared.load_dispatch}
    # replay the audit from the public submissions alone
    from maskdispatch.masking import EncryptedSubmission

    for msg in submissions:
        if msg.sender == "ISO":
            continue
        sub = EncryptedSubmission(
            owner=msg.sender,
            kind="GENCO" if msg.sender in cleared.gen_dispatch else "LSE",
            masked_cost=msg.payload["masked_cost"],
            masked_constraints=msg.payload["masked_constraints"],
            masked_slack=msg.payload["masked_slack"],
            masked_rhs=msg.payload["masked_rhs"],
            masked_incidence=msg.payload["masked_incidence"])
        rep = leakage_audit(sub, published_recovery=published.get(msg.sender))
        print(f"{rep.owner} ({rep.kind}) "
              f"linear: {rep.linear_equations} eq / {rep.linear_unknowns} unk -> "
              f"{rep.verdict}; bilinear: {rep.bilinear_equations} eq / "
              f"{rep.bilinear_unknowns} unk")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    # a string default goes through `type` too, so MASKDISPATCH_SEED is
    # checked like --seed whenever the flag is absent
    default_seed = os.environ.get("MASKDISPATCH_SEED", "0")
    parser = _Parser(
        prog="maskdispatch",
        description="Clear a DC dispatch market in the open or under "
                    "random-matrix masking.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one case")
    p.add_argument("case")
    p.add_argument("--mode", choices=["clear", "masked"], default="clear")
    p.add_argument("--seed", type=_seed, default=default_seed)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("compare", help="clear vs masked over several seeds")
    p.add_argument("case")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("gen", help="write a synthetic case")
    p.add_argument("--buses", type=int, required=True)
    p.add_argument("--gencos", type=int, required=True)
    p.add_argument("--lses", type=int, required=True)
    p.add_argument("--entity-size", type=int, default=1)
    p.add_argument("--hours", type=int, default=1)
    p.add_argument("--seed", type=_seed, default=default_seed)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("audit", help="inference audit of a masked round")
    p.add_argument("case")
    p.add_argument("--seed", type=_seed, default=default_seed)
    p.set_defaults(func=cmd_audit)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (UsageError, CaseFileError, InvalidCounts, IslandedNetwork,
            EmptyMarket) as exc:
        return _error(exc, EXIT_INPUT)
    except ClearingFailed as exc:
        return _error(exc, EXIT_INFEASIBLE)
    except (NumericalBreakdown, KeyGenerationFailed, ProtocolViolation) as exc:
        return _error(exc, EXIT_ROUND_FAILED)


if __name__ == "__main__":
    sys.exit(main())
