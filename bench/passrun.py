"""One pass of one workload in this process, printed as one JSON line.

    python3 bench/passrun.py --workload frames --seed 3 --spawned-at NS [--trace] [--setup-only]

The runner (run.py) starts each pass in a fresh interpreter, as a CLI
user's process is, with PYTHONHASHSEED=0 and src/ on PYTHONPATH.
`--spawned-at` is the CLOCK_MONOTONIC time in ns just before the
interpreter was started; set-up time runs from there to the first timed
call.  `--setup-only` stops at that point.  Times are raw wall times; the
record's host_factor (see hostspeed.py) says how much slower than nominal
the host ran during the pass.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

import hostspeed
import workloads
from tracer import Tracer

PINS = Path(__file__).with_name("pins.json")


def load_pins(path=PINS):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def expected_digest(pins, workload, seed, op):
    """The pinned digest for an op, None when its seed is not pinned.

    Raises KeyError when the op should be pinned but is not."""
    table = pins.get(workload, {})
    if not op.seeded:
        return table["*"][op.id]
    by_seed = table.get("seeds", {}).get(str(seed))
    return None if by_seed is None else by_seed[op.id]


def run_pass(workload, seed, trace=False, pins=None, setup_only=False, select=None):
    """Run one workload's schedule; returns the pass record.

    `select` optionally filters the workload's ops (the benchmark's own
    tests run a few cheap ops this way).
    """
    wl = workloads.build(workload, seed)
    if select is not None:
        wl.ops = [op for op in wl.ops if select(op)]
        wl.before, wl.after = [], []
    record = {"workload": workload, "seed": seed, "first_call": time.monotonic_ns()}
    if setup_only:
        record["host_factor"] = hostspeed.factor_now()
        return record
    pins = load_pins() if pins is None else pins
    times = {op.id: [] for op in wl.ops}
    once = {}  # times of the calls made once per pass, before and after the ops
    outputs = {}
    failures = []
    attempted = 0

    def run_schedule(sampler):
        nonlocal attempted
        for op in wl.schedule():
            attempted += 1
            spent = sampler.spent
            start = time.perf_counter()
            try:
                out, verify = op.call()
            except Exception as exc:  # an op that raises or trips a cap has failed
                failures.append(f"{op.id}: {type(exc).__name__}: {exc}")
                continue
            # the host-speed samples taken during the op do not count
            elapsed = time.perf_counter() - start - (sampler.spent - spent)
            if op.id in times:
                times[op.id].append(elapsed)
            else:
                once[op.id] = elapsed
            try:
                verify()
                want = expected_digest(pins, workload, seed, op)
                got = workloads.digest(out)
                if want is not None and got != want:
                    raise workloads.CheckFailed(f"digest {got} differs from pin {want}")
                if outputs.setdefault(op.id, out) != out:
                    raise workloads.CheckFailed("output differs between repeats")
            except workloads.CheckFailed as exc:
                failures.append(f"{op.id}: {exc}")
            except KeyError:
                failures.append(f"{op.id}: no pin")

    with hostspeed.Sampler() as sampler:
        start = time.perf_counter()
        if trace:
            with Tracer(workload) as tracer:
                run_schedule(sampler)
            record["trace"] = tracer.metrics()
            record["missing"] = tracer.missing_names()
            record["unreached"] = tracer.unreached()
        else:
            run_schedule(sampler)
        record["run_s"] = time.perf_counter() - start - sampler.spent
    record["host_factor"] = sampler.factor()
    record["per_op"] = wl.per_op
    record["op_times"] = times
    record["once_times"] = once
    record["attempted"] = attempted
    record["failures"] = failures
    record["outputs"] = outputs
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        parser.error("run with PYTHONHASHSEED=0 so that the work repeats exactly")
    record = run_pass(args.workload, args.seed, args.trace, setup_only=args.setup_only)
    record["setup_s"] = (record.pop("first_call") - args.spawned_at) / 1e9
    # the runner compares output digests, not bytes
    record["outputs"] = {k: workloads.digest(v) for k, v in record.get("outputs", {}).items()}
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
