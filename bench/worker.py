"""One workload run in a fresh interpreter: set up, time the batch, check.

Started by run.py, which reads the one JSON line this prints.  The package is
imported from the checkout's src/ and nowhere else.  With --setup-only the
process stops once the inputs exist, so run.py can time set-up alone.
Operations run one after another in this single process, with no threads.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench", "out")

# A fixed pure-Python loop, timed before the first operation and after each
# one.  CAL_REF_S is its time on the reference host (bench/NOTES.md); run.py
# scales each operation's time by CAL_REF_S over the mean of the two loops
# around it, so a host that runs slower for a while slows both alike.
CAL_STEPS = 50_000
CAL_REF_S = 0.15


def digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def calibrate() -> float:
    """Time one run of the fixed loop.  It mixes the arithmetic the workloads
    spend on: small-int multiply-mods, modular powers and Fraction products
    and sums."""
    gc.disable()  # the loop makes no cycles; a collection would time the heap
    start = time.perf_counter()
    x, acc, frac = 1, 0, Fraction(0)
    for i in range(1, CAL_STEPS):
        x = x * 48271 % 2147483647
        acc += pow(x, 25, 244140625)
        if i % 4 == 0:
            frac += Fraction(x % 1009, 1 + i % 97) * Fraction(1 + x % 13, 7)
        if i % 256 == 0:
            frac = Fraction(0)
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    pkg = os.path.join(SRC, "eiscong")
    if not os.path.isfile(os.path.join(pkg, "__init__.py")):
        print(f"no eiscong sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import eiscong

    if os.path.dirname(os.path.abspath(eiscong.__file__)) != pkg:
        print(f"eiscong imported from {eiscong.__file__}, not {pkg}", file=sys.stderr)
        return 2
    import checks
    import workloads
    from tracing import Tracer

    ops = workloads.generate(args.workload, args.seed, args.seconds)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = Tracer(bool(args.trace))
    run_op = workloads.OPS[args.workload]
    results, op_s, cal_s = [], [], [calibrate()]
    with workloads.traced_parts(tracer, args.workload):
        for i, params in enumerate(ops):
            start = time.perf_counter()
            try:
                with tracer.op(i):
                    res = run_op(tracer, **params)
                err = None
            except Exception:  # one failed operation must not stop the batch
                res, err = None, traceback.format_exc(limit=4)
            op_s.append(time.perf_counter() - start)
            results.append((res, err))
            cal_s.append(calibrate())
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # everything below is outside the timed region
    records, tallies, checker_misses = [], {}, []
    for params, (res, err) in zip(ops, results):
        rec = {"params": params, "digest": None, "problems": [err] if err else []}
        if res is not None:
            try:
                rec["digest"] = digest(workloads.serialize(args.workload, params, res))
                judge = checks.checker(args.workload, params, res)
                rec["problems"] = judge(res)
                if not rec["problems"]:
                    checker_misses += [f"{params}: {label}" for label, bad in
                                       checks.corruptions(args.workload, params, res)
                                       if not judge(bad)]
                for k, v in workloads.tallies(args.workload, params, res).items():
                    tallies[k] = tallies.get(k, 0) + v
            except Exception:  # a result the checks cannot read fails them
                rec["problems"] = [traceback.format_exc(limit=4)]
        records.append(rec)

    out = {"ready": ready, "wall_s": sum(op_s), "op_s": op_s, "cal_s": cal_s,
           "cal_ref_s": CAL_REF_S, "peak_rss_mb": peak_mb,
           "ops": records, "tallies": tallies, "checker_misses": checker_misses}
    if tracer.enabled:
        totals = tracer.totals()
        out["span_totals"] = totals
        out["self_times"] = tracer.self_times()
        out["probe_s"] = sum(v for k, v in totals.items() if k.startswith("probe."))
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace_{args.workload}_seed{args.seed}.jsonl")
        tracer.write(path)
        out["trace_file"] = os.path.relpath(path, ROOT)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
