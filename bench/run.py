"""The eiscong benchmark: one seeded workload per run, or all four in turn.

    python3 bench/run.py --workload census --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1

Each workload runs in its own fresh interpreter (bench/worker.py), one
operation at a time with no threads, so the package's caches start cold as
they do for every CLI call.  With --trace 0 the run prints the end-to-end
metrics, with operation times scaled to the reference host speed by a
calibration loop timed around each operation; with --trace 1 it runs the
batch untraced and then traced, and prints the per-layer metrics and the
tracing overhead.  Outputs are checked outside the timed region; the last
line of stdout is one JSON object, and the exit code is 1 if any check
failed.  bench/NOTES.md says why each workload exists and what the metrics
are predicted to show.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracing import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("census", "branch-conductor", "branch-prime", "tower")
# interpreter starts timed for setup_s besides the measured one, half before
# and half after it, so their median spans the run rather than its first seconds
SETUP_PROBES = 20
WORKER_TIMEOUT_S = 170

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_s", "s"),
              ("peak_rss_mb", "MB"))

# (metric, unit, span name or count key); "s" metrics sum the spans of the
# whole batch.  measures.power_cells is computed from f0 * p, not measured.
SPAN_METRICS = (
    ("lseries.hecke_L_neg_induced.s", "lseries.hecke_L_neg_induced"),
    ("eisenstein.scan_congruence.s", "eisenstein.scan_congruence"),
    ("arith.factorize.s", "arith.factorize"),
    ("eisenstein.eisenstein_coeffs.s", "eisenstein.eisenstein_coeffs"),
    ("characters.induce_quadratic.s", "characters.induce_quadratic"),
    ("measures.kubota_leopoldt.cold_s", "measures.kubota_leopoldt"),
    ("measures.kubota_leopoldt.warm_s", "probe.kubota_leopoldt_warm"),
    ("iwasawa.euler_factor.s", "iwasawa.euler_factor"),
    ("iwasawa.mul.s", "iwasawa.mul"),
    ("iwasawa.lambda_mu.s", "iwasawa.lambda_mu"),
    ("measures.bernoulli_family.s", "measures.bernoulli_family"),
    ("measures.stabilize.s", "measures.stabilize"),
    ("measures.check_distribution.s", "measures.check_distribution"),
    ("measures.to_iwasawa_series.s", "measures.to_iwasawa_series"),
    ("iwasawa.weierstrass_prepare.s", "iwasawa.weierstrass_prepare"),
)
COUNT_METRICS = (
    ("lseries.character_terms", "count"),
    ("eisenstein.ideals", "count"),
    ("arith.factorize.unfactored", "count"),
    ("measures.power_cells", "count_computed"),
    ("measures.check_distribution.cells", "count"),
)


class WorkerError(RuntimeError):
    pass


def run_worker(args, trace: int, setup_only: bool = False) -> tuple[dict, float]:
    """Start a worker, wait for it, and return its record and start time."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:  # run() has killed and reaped it
        raise WorkerError(f"worker timed out after {WORKER_TIMEOUT_S} s") from e
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def op_problems(rec: dict) -> list[list[str]]:
    return [op["problems"] for op in rec["ops"]]


def report_ops(rec: dict, phase: str) -> None:
    scaled, factors = host_scaled(rec)
    for i, (op, s, f, r) in enumerate(zip(rec["ops"], rec["op_s"], factors, scaled)):
        status = "ok" if not op["problems"] else "FAIL " + " | ".join(
            p.strip().replace("\n", " ") for p in op["problems"])
        print(f"{phase} op {i:2d} {json.dumps(op['params'], sort_keys=True)} "
              f"{s:.4f} s (host {f:.3f}, {r:.4f} s) sha256:{op['digest']} {status}")
    for miss in rec["checker_misses"]:
        print(f"{phase} CHECKER MISSED a corrupted result: {miss}")


def tail_note(op_s: list[float]) -> str:
    """The highest percentile with ten samples above it, when one exists."""
    n = len(op_s)
    if n < 21:
        return f"no tail percentile: {n} ops leave fewer than 10 above the median"
    return (f"op_p{100 * (n - 10) // n}_s = {sorted(op_s)[n - 11]:.6g} s "
            f"(10 of {n} ops above it)")


def host_scaled(rec: dict) -> tuple[list[float], list[float]]:
    """Each operation's time at the reference host speed, and the speed
    factors: the calibration loop's time around the operation over its
    reference time (worker.calibrate)."""
    cal, ref = rec["cal_s"], rec["cal_ref_s"]
    factors = [(a + b) / 2 / ref for a, b in zip(cal, cal[1:])]
    return [s / f for s, f in zip(rec["op_s"], factors)], factors


def end_to_end(args) -> tuple[dict, int, int, bool]:
    def probe() -> float:
        rec, started = run_worker(args, 0, setup_only=True)
        return rec["ready"] - started

    samples = [probe() for _ in range(SETUP_PROBES // 2)]
    rec, started = run_worker(args, 0)
    samples.append(rec["ready"] - started)
    samples += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    report_ops(rec, "untraced")
    n = len(rec["op_s"])
    failed = sum(bool(p) for p in op_problems(rec))
    scaled, factors = host_scaled(rec)
    metrics = {
        "setup_s": statistics.median(samples),
        "wall_s": sum(scaled),
        "op_p50_s": statistics.median(scaled),
        "peak_rss_mb": rec["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(samples)} interpreter starts, each to the "
                   f"end of import eiscong and input generation",
        "wall_s": f"one batch of {n} ops at reference host speed, untraced, "
                  f"checks outside the timing; measured {rec['wall_s']:.4f} s",
        "op_p50_s": f"median of {n} ops at reference host speed, measured "
                    f"{statistics.median(rec['op_s']):.4f} s; {tail_note(scaled)}",
        "peak_rss_mb": "the worker process, at the end of the timed batch",
    }
    print(f"host speed factor: median {statistics.median(factors):.4f}, "
          f"range {min(factors):.4f}-{max(factors):.4f} over {n} ops "
          f"(calibration loop time over its reference {rec['cal_ref_s']} s)")
    for name, unit in END_TO_END:
        print(f"metric {name} = {metrics[name]:.6g} {unit} ({notes[name]})")
    print(f"metric fail_ratio = {failed / n:.4g} ({failed} of {n} ops raised or "
          f"failed a check; reported as attempted/failed below)")
    return metrics, n, failed, not failed and not rec["checker_misses"]


def per_layer(args) -> tuple[dict, int, int, bool]:
    plain, _ = run_worker(args, 0)
    traced, _ = run_worker(args, 1)
    report_ops(plain, "untraced")
    report_ops(traced, "traced")
    mismatched = [i for i, (a, b) in enumerate(zip(plain["ops"], traced["ops"]))
                  if a["digest"] != b["digest"]]
    for i in mismatched:
        print(f"op {i}: traced result differs from the untraced one")
    failed = (sum(bool(p) for p in op_problems(plain))
              + sum(bool(p) or i in mismatched
                    for i, p in enumerate(op_problems(traced))))
    totals, counts = traced["span_totals"], traced["tallies"]
    metrics = {name: totals.get(span, 0.0) for name, span in SPAN_METRICS}
    metrics["measures.deligne_ribet_induced.s"] = plain["tallies"].get(
        "measures.deligne_ribet_induced.s", 0.0)
    metrics["measures.power_tables.est_s"] = (metrics["measures.kubota_leopoldt.cold_s"]
                                              - metrics["measures.kubota_leopoldt.warm_s"])
    for name, _ in COUNT_METRICS:
        metrics[name] = counts.get(name, 0)
    tested = counts.get("scan.primes_tested", 0)
    metrics["eisenstein.scan.candidate_ratio"] = (
        counts.get("scan.candidates", 0) / tested if tested else 0.0)
    traced_wall = traced["wall_s"] - traced["probe_s"]
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = traced["self_times"][layer]
    metrics["trace.overhead_s"] = traced_wall - plain["wall_s"]

    print(f"untraced wall_s {plain['wall_s']:.4f} s; traced wall_s {traced_wall:.4f} s "
          f"(warm probes {traced['probe_s']:.4f} s excluded); spans in "
          f"{traced['trace_file']}")
    for layer in LAYERS:
        share = traced["self_times"][layer] / traced_wall
        print(f"layer {layer}: self {traced['self_times'][layer]:.4f} s, "
              f"{100 * share:.1f}% of traced wall_s")
    for name in sorted(metrics):
        print(f"metric {name} = {metrics[name]:.6g} {unit_of(name)}")
    ok = not failed and not plain["checker_misses"] and not traced["checker_misses"]
    return metrics, 2 * len(plain["ops"]), failed, ok


def unit_of(name: str) -> str:
    units = dict(END_TO_END + COUNT_METRICS)
    if name in units:
        return units[name]
    return "ratio" if name.endswith("ratio") else "s"


def run_all(args) -> int:
    """Every workload in turn, each through its own run of this script."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for w in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {w}", flush=True)
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        code = code or proc.returncode
        if proc.returncode not in (0, 1) or not lines:
            combined["correct"] = False
            continue
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{w}.{k}"] = v
    print(json.dumps(combined))
    return code


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload == "all":
        return run_all(args)
    print(f"workload {args.workload} seed {args.seed}: closed loop, one client, "
          f"one operation at a time in one process", flush=True)
    try:
        metrics, attempted, failed, ok = (per_layer if args.trace else end_to_end)(args)
    except WorkerError as e:
        print(f"benchmark aborted: {e}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": ok, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
