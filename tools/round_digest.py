"""Print three SHA-256 digests per case: one over everything its masked
rounds produce, one over their outcome alone, and one over its clear
round's outcome.

An outcome is the objective, the iteration count of every LP solve, and
the recovered dispatch, LMPs, angles and flows.  The outcome digest covers
the outcome of every masked round of the case, the clear digest that of
one clear round.  The full digest covers the masked outcomes and every
logged message's sender, receiver, byte size and payload (each block's
type, shape, dtype and values; for a sparse block its CSR data, indices
and indptr as stored).  Two source trees that print the same lines
produce bit-identical rounds on these cases; two whose outcome digests
agree clear every masked round bit for bit, whatever their wire format,
and two whose clear digests agree clear the case bit for bit in clear
mode.  Each line reads ``case full-digest outcome-digest clear-digest``.

With ``--against OTHER`` it prints, in place of the digests, how far
this tree's rounds lie from those of OTHER's ``src/`` (run in a
subprocess): per case, the worst deviation over its masked rounds and
that of its clear round, in objective (relative to 1 + |objective|),
dispatch, angles, flows and LMPs (absolute).  Each line reads ``case
mode objective dispatch angles flows lmp``.

    python3 tools/round_digest.py                 # this checkout's src/
    python3 tools/round_digest.py --root OTHER    # OTHER/src, e.g. a parent checkout
    python3 tools/round_digest.py --against OTHER grid118-2h
"""

import argparse
import dataclasses
import hashlib
import os
import pickle
import subprocess
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# name -> (case, solver settings, mask settings, mask seeds); a case is
# threebus or gen_synthetic's arguments, and its "one_segment" owners have
# their units cut to their first bid segment and its "zero_price" owners
# bid every segment at 0
CASES = {
    "threebus-auto": (None, {}, {}, range(30)),
    # every price in [10, 12] is optimal, so this pins which optimal dual
    # the simplex picks
    "threebus-zero-lse": ({"zero_price": ("LSE1",)}, {}, {}, range(10)),
    "threebus-highs": (None, {"backend": "highs"}, {}, range(10)),
    "grid118-2h": ({"buses": 118, "gencos": 54, "lses": 91, "entity_size": 1,
                    "T": 2, "seed": 7, "segments": 1},
                   {"highs_method": "highs-ipm"}, {"hourly_block_masks": True},
                   range(1000, 1010)),
    "pooled30-4h": ({"buses": 30, "gencos": 2, "lses": 2, "entity_size": 5,
                     "T": 4, "seed": 1, "segments": 3}, {}, {}, (44, 73, 5)),
    "hourly14-3h": ({"buses": 14, "gencos": 5, "lses": 5, "entity_size": 1,
                     "T": 3, "seed": 3, "segments": 2}, {},
                    {"hourly_block_masks": True}, range(3)),
    # hourly14-3h with two GENCOs of another block shape between the others
    "interleaved14-3h": ({"buses": 14, "gencos": 5, "lses": 5, "entity_size": 1,
                          "T": 3, "seed": 3, "segments": 2,
                          "one_segment": ("GENCO2", "GENCO4")}, {},
                         {"hourly_block_masks": True}, range(3)),
}


def chunks(value):
    """The bytes hashed for a block, its type first, so equal values of
    another type differ."""
    import numpy as np
    import scipy.sparse as sp

    yield type(value).__name__.encode()
    if sp.issparse(value):
        m = value.tocsr() if value.format != "csr" else value
        yield repr(m.shape).encode()
        for a in (m.data, m.indices, m.indptr):
            yield a.dtype.str.encode()
            yield np.ascontiguousarray(a).tobytes()
        return
    a = np.asarray(value)
    yield f"{a.dtype.str}{a.shape}".encode()
    yield np.ascontiguousarray(a).tobytes()


def outcome(label, cleared, iterations):
    """The bytes hashed for one round's outcome."""
    parts = [f"{label} objective {cleared.objective!r} "
             f"iterations {iterations}".encode()]
    for d in (cleared.gen_dispatch, cleared.load_dispatch):
        for owner, x in d.items():
            parts += [owner.encode(), *chunks(x)]
    for a in (cleared.lmp, cleared.angles, cleared.flows):
        parts += chunks(a)
    return parts


def rounds(name, run_market_round, iterations):
    """``(label, cleared, iterations, log)`` for each masked round of the
    case in seed order, then for its clear round."""
    from maskdispatch import MaskConfig, SolverConfig, gen_synthetic, load_case

    case, solver, mask, seeds = CASES[name]
    case = dict(case or {})
    cut = case.pop("one_segment", ())
    zero = case.pop("zero_price", ())
    if case:
        system = gen_synthetic(**case)
    else:
        import maskdispatch
        system = load_case(os.path.join(os.path.dirname(maskdispatch.__file__),
                                        "cases", "threebus.case"))

    def bid(unit):
        segments = unit.segments[:1] if unit.owner in cut else unit.segments
        if unit.owner in zero:
            segments = [dataclasses.replace(s, price=0.0) for s in segments]
        return dataclasses.replace(unit, segments=segments)

    system = dataclasses.replace(system, generators=list(map(bid, system.generators)),
                                 loads=list(map(bid, system.loads)))
    for seed in seeds:
        iterations.clear()
        cleared, log = run_market_round(system, seed, mode="masked",
                                        config=SolverConfig(**solver),
                                        mask_config=MaskConfig(**mask))
        yield f"seed {seed}", cleared, iterations, log
    iterations.clear()
    cleared, log = run_market_round(system, 0, mode="clear",
                                    config=SolverConfig(**solver))
    yield "clear", cleared, iterations, log


def digest(name, run_market_round, iterations):
    """``(full, outcome, clear)``, the hex digests of the case's rounds."""
    full, masked = hashlib.sha256(), hashlib.sha256()
    for label, cleared, counts, log in rounds(name, run_market_round, iterations):
        if label == "clear":
            clear = hashlib.sha256(b"".join(outcome("clear", cleared, counts)))
            break
        for part in outcome(label, cleared, counts):
            full.update(part)
            masked.update(part)
        for m in log.messages:
            full.update(f"{m.sender}>{m.receiver} {m.kind} {m.byte_size}".encode())
            for key, value in m.payload.items():
                full.update(key.encode())
                for part in chunks(value):
                    full.update(part)
    return full.hexdigest(), masked.hexdigest(), clear.hexdigest()


def load(root):
    """``(run_market_round, iterations)`` from `root`'s ``src/``, with the
    iteration count of every LP solve appended to `iterations`."""
    sys.path.insert(0, os.path.join(os.path.abspath(root), "src"))
    from maskdispatch import protocol

    iterations = []
    solve_lp = protocol.solve_lp

    def counted(*a, **k):
        sol = solve_lp(*a, **k)
        iterations.append(sol.iterations)
        return sol

    protocol.solve_lp = counted
    return protocol.run_market_round, iterations


def outcomes(root, names):
    """Case name -> ``[(label, objective, dispatch, angles, flows, lmp)]``
    over its rounds (`rounds`) in `root`'s ``src/``, dispatch joined over
    the owners in order."""
    import numpy as np

    run, iterations = load(root)
    return {name: [(label, c.objective,
                    np.concatenate([*c.gen_dispatch.values(),
                                    *c.load_dispatch.values()]),
                    c.angles, c.flows, c.lmp)
                   for label, c, _, _ in rounds(name, run, iterations)]
            for name in names}


def deviations(mine, theirs):
    """Per case and mode (masked, clear), the worst deviation of `mine`
    from `theirs` (`outcomes` of both trees) in objective, relative to
    1 + |objective|, and in dispatch, angles, flows and LMPs, absolute."""
    import numpy as np

    out = {}
    for name, rows in mine.items():
        for a, b in zip(rows, theirs[name]):
            if a[0] != b[0]:
                raise ValueError(f"{name}: round {a[0]} against {b[0]}")
            mode = "clear" if a[0] == "clear" else "masked"
            dev = [abs(a[1] - b[1]) / (1.0 + abs(b[1]))]
            dev += [float(np.max(np.abs(x - y), initial=0.0))
                    for x, y in zip(a[2:], b[2:])]
            worst = out.setdefault((name, mode), dev)
            out[name, mode] = [max(u, v) for u, v in zip(worst, dev)]
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", default=HERE,
                    help="repository whose src/ is imported (default: this one)")
    ap.add_argument("--against", metavar="OTHER",
                    help="print the deviations from OTHER's src/ instead")
    ap.add_argument("cases", nargs="*", default=list(CASES),
                    help=f"cases to run (default: all of {', '.join(CASES)})")
    args = ap.parse_args()
    unknown = sorted(set(args.cases) - set(CASES))
    if unknown:
        ap.error(f"unknown case(s): {', '.join(unknown)}")
    if args.against:
        code = ("import pickle, sys; sys.path.insert(0, sys.argv[1]); "
                "import round_digest as r; sys.stdout.buffer.write("
                "pickle.dumps(r.outcomes(sys.argv[2], sys.argv[3:])))")
        theirs = pickle.loads(subprocess.run(
            [sys.executable, "-c", code, os.path.dirname(os.path.abspath(__file__)),
             args.against, *args.cases],
            check=True, stdout=subprocess.PIPE).stdout)
        mine = outcomes(args.root, args.cases)
        for (name, mode), dev in deviations(mine, theirs).items():
            print(name, mode, *(f"{d:.3e}" for d in dev), flush=True)
        return
    run, iterations = load(args.root)
    for name in args.cases:
        print(name, *digest(name, run, iterations), flush=True)


if __name__ == "__main__":
    main()
