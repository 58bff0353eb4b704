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

    python3 tools/round_digest.py                 # this checkout's src/
    python3 tools/round_digest.py --root OTHER    # OTHER/src, e.g. a parent checkout
"""

import argparse
import hashlib
import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# name -> (case, solver settings, mask settings, mask seeds)
CASES = {
    "threebus-auto": (None, {}, {}, range(30)),
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


def digest(name, run_market_round, iterations):
    """``(full, outcome, clear)``, the hex digests of the case's rounds."""
    from maskdispatch import MaskConfig, SolverConfig, gen_synthetic, load_case

    case, solver, mask, seeds = CASES[name]
    if case is None:
        import maskdispatch
        system = load_case(os.path.join(os.path.dirname(maskdispatch.__file__),
                                        "cases", "threebus.case"))
    else:
        system = gen_synthetic(**case)
    full, masked = hashlib.sha256(), hashlib.sha256()
    for seed in seeds:
        iterations.clear()
        cleared, log = run_market_round(system, seed, mode="masked",
                                        config=SolverConfig(**solver),
                                        mask_config=MaskConfig(**mask))
        for part in outcome(f"seed {seed}", cleared, iterations):
            full.update(part)
            masked.update(part)
        for m in log.messages:
            full.update(f"{m.sender}>{m.receiver} {m.kind} {m.byte_size}".encode())
            for key, value in m.payload.items():
                full.update(key.encode())
                for part in chunks(value):
                    full.update(part)
    iterations.clear()
    cleared, _ = run_market_round(system, 0, mode="clear",
                                  config=SolverConfig(**solver))
    clear = hashlib.sha256(b"".join(outcome("clear", cleared, iterations)))
    return full.hexdigest(), masked.hexdigest(), clear.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", default=HERE,
                    help="repository whose src/ is imported (default: this one)")
    ap.add_argument("cases", nargs="*", default=list(CASES),
                    help=f"cases to run (default: all of {', '.join(CASES)})")
    args = ap.parse_args()
    unknown = sorted(set(args.cases) - set(CASES))
    if unknown:
        ap.error(f"unknown case(s): {', '.join(unknown)}")
    sys.path.insert(0, os.path.join(os.path.abspath(args.root), "src"))
    from maskdispatch import protocol

    iterations = []
    solve_lp = protocol.solve_lp

    def counted(*a, **k):
        sol = solve_lp(*a, **k)
        iterations.append(sol.iterations)
        return sol

    protocol.solve_lp = counted
    for name in args.cases:
        print(name, *digest(name, protocol.run_market_round, iterations), flush=True)


if __name__ == "__main__":
    main()
