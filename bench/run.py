"""Benchmark of pathpairs: three exact-arithmetic workloads timed from outside.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S]

Run from the repository root. Each pass runs in a fresh single-threaded
interpreter (``bench/worker.py``) with ``src`` on PYTHONPATH and
PYTHONHASHSEED=0. A run makes round(S / nominal pass seconds) passes, so
the work in a run is pinned rather than bounded by the clock, and a few
extra set-up-only starts so that ``setup_s`` is a median of
SETUP_SAMPLES.

``--trace 0`` prints the end-to-end metrics (medians over the passes; op
latencies pooled over them), in reference-host seconds (see ``hostclock``),
next to the seconds measured. ``--trace 1`` runs pass 0 untraced and traced,
in pairs, and prints the per-layer metrics plus ``trace.overhead_s``. The last
line of standard output is one JSON object: correct, attempted, failed and
metrics. ``--all`` runs every workload both ways, prints everything and
writes ``bench/out/report.json``. See ``bench/README.md`` for the rationale.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostclock import REFERENCE_SLICE_S

ROOT = Path(__file__).resolve().parent.parent

# Seconds one pass takes on the reference machine (2 cores, Python 3.11).
NOMINAL_PASS_S = {"verify-all": 13.0, "query-mix": 3.0, "large-exact": 9.5}
SETUP_SAMPLES = 11
RUN_LIMIT_S = 160.0  # no new pass starts that would end a run past this
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.99)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mib": "MiB",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
}


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the highest ladder
    percentile with at least ten samples beyond it, nearest-rank."""
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= 10:
            best = (pct, ordered[rank - 1], n - rank)
    if best is None:  # no percentile has ten samples beyond it: report the maximum
        best = (100.0, ordered[-1], 0)
    return best


def spawn(workload: str, seed: int, pass_index: int, deadline: float,
          trace: bool = False, setup_only: bool = False) -> tuple[float, dict]:
    """Start one worker, wait for it, and return (setup seconds, payload)."""
    cmd = [sys.executable, str(ROOT / "bench" / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--pass", str(pass_index)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    path = [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), PYTHONHASHSEED="0")
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass {pass_index} ran past the run's time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("ready "):
        raise BenchError(f"{workload} pass {pass_index}: worker exited {proc.returncode}: {err.strip()[-800:]}")
    setup_s = float(lines[0].split()[1]) - start
    try:
        return setup_s, json.loads(lines[-1])
    except (ValueError, IndexError):
        raise BenchError(f"{workload} pass {pass_index}: no result line: {err.strip()[-800:]}") from None


def _failures(payloads: list[dict]) -> list[str]:
    return [f"{op[0]}: {op[2]}" for p in payloads for op in p["ops"] if op[2] is not None]


def measure(workload: str, seed: int, seconds: int) -> dict:
    """The untraced run: end-to-end metrics over pinned passes."""
    passes = max(1, round(seconds / NOMINAL_PASS_S[workload]))
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S + 15.0
    setups, payloads, durations = [], [], []
    for i in range(passes):
        t0 = time.monotonic()
        if durations and t0 + max(durations) > start + RUN_LIMIT_S:
            break
        setup_s, payload = spawn(workload, seed, i, deadline)
        setups.append((setup_s, payload["setup_ref_s"]))
        payloads.append(payload)
        durations.append(time.monotonic() - t0)
    while len(setups) < SETUP_SAMPLES and time.monotonic() < start + RUN_LIMIT_S:
        setup_s, payload = spawn(workload, seed, 0, deadline, setup_only=True)
        setups.append((setup_s, payload["setup_ref_s"]))

    # times in reference-host seconds (see hostclock)
    factors = [p["wall_ref_s"] / p["wall_s"] for p in payloads]
    latencies_ms = [t * 1e3 for p in payloads for t in p["latencies_ref_s"]]
    pct, tail_ms, beyond = tail(latencies_ms)
    attempted = sum(len(p["ops"]) for p in payloads)
    failures = _failures(payloads)
    digest = hashlib.sha256("".join(p["digest"] for p in payloads).encode()).hexdigest()
    metrics = {
        "setup_s": statistics.median(s * REFERENCE_SLICE_S / ref for s, ref in setups),
        "wall_s": statistics.median(p["wall_ref_s"] for p in payloads),
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in payloads),
        "query_p50_ms": statistics.median(latencies_ms),
        "query_tail_ms": tail_ms,
    }
    return {
        "workload": workload,
        "seed": seed,
        "trace": 0,
        "passes": len(payloads),
        "pass_walls_s": [p["wall_s"] for p in payloads],
        "factors": factors,
        "raw_setup_s": statistics.median(s for s, _ in setups),
        "setup_samples": len(setups),
        "queries": len(latencies_ms),
        "tail_percentile": pct,
        "tail_beyond": beyond,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "digest": digest,
        "metrics": {name: [value, END_TO_END_UNITS[name]] for name, value in metrics.items()},
    }


def trace(workload: str, seed: int, seconds: int) -> dict:
    """The traced run: pairs of pass 0 untraced and traced, in alternating
    order, as many as the run length allows. Per-layer values are medians
    over the traced passes; ``trace.overhead_s`` is the median difference."""
    pairs = max(1, round(seconds / (2 * NOMINAL_PASS_S[workload])))
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S + 15.0
    plains, traceds, durations = [], [], []
    for i in range(pairs):
        t0 = time.monotonic()
        if durations and t0 + max(durations) > start + RUN_LIMIT_S:
            break
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            (traceds if traced else plains).append(spawn(workload, seed, 0, deadline, trace=traced)[1])
        durations.append(time.monotonic() - t0)
    layers = {
        name: [statistics.median(t["layers"][name][0] for t in traceds), unit]
        for name, (_, unit) in traceds[0]["layers"].items()
    }
    layers["trace.overhead_s"] = [
        statistics.median(t["wall_s"] - p["wall_s"] for p, t in zip(plains, traceds)), "s"
    ]
    failures = _failures(plains + traceds)
    return {
        "workload": workload,
        "seed": seed,
        "trace": 1,
        "pairs": len(traceds),
        "attempted": sum(len(p["ops"]) for p in plains + traceds),
        "failed": len(failures),
        "failures": failures[:20],
        "digest": plains[0]["digest"],
        "digests_match": len({p["digest"] for p in plains + traceds}) == 1,
        "metrics": layers,
    }


def describe(result: dict) -> list[str]:
    """Human-readable lines: every metric by name and unit, with its base."""
    w = result["workload"]
    lines = [f"# {w} seed={result['seed']} trace={result['trace']}"]
    if result["trace"] == 0:
        n = result["passes"]
        lines += [
            f"{w} host speed factors {min(result['factors']):.3f}-{max(result['factors']):.3f} over {n} passes; "
            "times below are reference-host seconds (measured x factor)",
            f"{w} setup_s        {result['metrics']['setup_s'][0]:.6f} s    median of {result['setup_samples']} starts "
            f"(measured {result['raw_setup_s']:.6f} s)",
            f"{w} wall_s         {result['metrics']['wall_s'][0]:.6f} s    median of {n} passes "
            f"(measured {', '.join(f'{x:.3f}' for x in result['pass_walls_s'])})",
            f"{w} peak_rss_mib   {result['metrics']['peak_rss_mib'][0]:.3f} MiB  median of {n} passes",
            f"{w} query_p50_ms   {result['metrics']['query_p50_ms'][0]:.4f} ms   median of {result['queries']} queries",
            f"{w} query_tail_ms  {result['metrics']['query_tail_ms'][0]:.4f} ms   p{result['tail_percentile']:g} of "
            f"{result['queries']} queries ({result['tail_beyond']} beyond)",
        ]
    else:
        metrics = result["metrics"]
        for name, (value, unit) in sorted(metrics.items()):
            lines.append(f"{w} {name:<44} {value:.6g} {unit}  median of {result['pairs']} traced passes")
        wall = metrics["trace.wall_s"][0]
        for name in ("oracle.walker.self_s", "cli.build_parser.self_s"):
            lines.append(f"{w} share of traced wall_s in {name}: {metrics[name][0] / wall:.3f}")
        lines.append(f"{w} traced and untraced results match: {result['digests_match']}")
    rate = result["failed"] / result["attempted"] if result["attempted"] else float("nan")
    lines.append(f"{w} error_rate     {rate:.6g}  ({result['failed']} failed / {result['attempted']} attempted ops)")
    lines.append(f"{w} digest sha256  {result['digest']}")
    lines += [f"{w} FAILED {text}" for text in result["failures"]]
    return lines


def _correct(result: dict) -> bool:
    return result["failed"] == 0 and result.get("digests_match", True)


def final_line(result: dict) -> str:
    return json.dumps({
        "correct": _correct(result),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()},
    })


def environment() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"python": platform.python_version(), "platform": platform.platform(),
            "nproc": os.cpu_count(), "commit": commit}


def run_all(seed: int, seconds: int) -> int:
    results = []
    for workload in NOMINAL_PASS_S:
        for result in (measure(workload, seed, seconds), trace(workload, seed, seconds)):
            print("\n".join(describe(result)), flush=True)
            results.append(result)
    out_dir = ROOT / "bench" / "out"
    out_dir.mkdir(exist_ok=True)
    report = {"environment": environment(), "seconds": seconds, "results": results}
    (out_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out_dir / 'report.json'}")
    print(json.dumps({
        "correct": all(map(_correct, results)),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {f"{r['workload']}.{name}": {"value": v, "unit": u}
                    for r in results for name, (v, u) in r["metrics"].items()},
    }))
    return 0 if all(map(_correct, results)) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pathpairs benchmark")
    parser.add_argument("--workload", choices=tuple(NOMINAL_PASS_S))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pathpairs" / "__init__.py").is_file():
        print(f"error: no pathpairs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.all and args.workload is None:
        parser.error("give --workload NAME or --all")
    try:
        if args.all:
            return run_all(args.seed, args.seconds)
        if args.trace:
            result = trace(args.workload, args.seed, args.seconds)
        else:
            result = measure(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(describe(result)))
    print(final_line(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
