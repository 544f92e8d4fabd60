"""One benchmark pass in a fresh interpreter; started by ``run.py``.

    python3 bench/worker.py --workload NAME --seed N --pass I [--trace] [--setup-only]

with ``src`` on PYTHONPATH. Set-up is the interpreter start, ``import
pathpairs`` and one ``cli.build_parser()``; the worker then prints
``ready <time.monotonic()>`` so the parent can time set-up across the process
boundary (CLOCK_MONOTONIC is system-wide on Linux). Next it times
SETUP_SLICES reference slices (see ``hostclock``) to sample the host's speed
right after set-up; with ``--setup-only`` it prints that and stops.
Otherwise it serves the pass and prints one JSON line: timed wall, peak RSS,
per-op seconds and failures, the wall and query latencies in reference-host
seconds, the result digest and, with ``--trace``, the per-layer metrics. An
untraced pass samples the host's speed while it runs; a traced pass does
not, so its spans hold no sampling time. Spans of a traced pass are written
to ``bench/out/spans-<workload>.jsonl``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    import argparse
    import json

    import hostclock
    import ops
    import spans

    setup_ref_s = hostclock.timed_slices(hostclock.SETUP_SLICES)

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=ops.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass", dest="pass_index", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.setup_only:
        print(json.dumps({"setup_ref_s": setup_ref_s}), flush=True)
        return 0

    tracer = None
    clock = hostclock.PlainClock()
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    else:
        clock = hostclock.HostClock()
    try:
        with clock:
            report = ops.run_pass(args.workload, args.seed, args.pass_index, tracer, clock)
    finally:
        if tracer is not None:
            tracer.uninstall()
    payload = {
        "setup_ref_s": setup_ref_s,
        "ref_slices": len(clock.slices),
        "wall_s": report.wall_s,
        "wall_ref_s": clock.scaled(*report.span),
        "latencies_ref_s": [clock.scaled(a, b) for a, b in report.intervals],
        "peak_rss_mib": report.peak_rss_mib,
        "digest": report.digest,
        "ops": [[op.label, op.seconds, op.failure] for op in report.ops],
    }
    if tracer is not None:
        values = tracer.metrics(ops.PINNED_SUITES, report.wall_s, report.bytes_out)
        units = dict(spans.per_layer_metrics(ops.PINNED_SUITES))
        payload["layers"] = {name: [values.get(name, 0), unit] for name, unit in units.items()}
        out_dir = Path(__file__).resolve().parent / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}.jsonl")
    print(json.dumps(payload), flush=True)
    return 0


if __name__ == "__main__":
    from pathpairs import cli

    cli.build_parser()
    print(f"ready {time.monotonic()!r}", flush=True)
    sys.exit(main(sys.argv[1:]))
