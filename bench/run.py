"""Run one workload of the conglab benchmark and print its metrics.

    python3 bench/run.py --workload frames --seed 3 --seconds 10 --trace 0

Each pass runs in a fresh interpreter (bench/passrun.py), one process with
no threads and PYTHONHASHSEED=0.  The runner makes as many passes as come
closest to --seconds of measuring (at least one).  Set-up-only processes,
before and after the passes, time the import and input generation.  With
--trace 1 the runner makes
one untraced and one traced pass and reports the per-layer metrics; the
end-to-end metrics come only from untraced passes.

The output is a report of every metric (name, unit, sample count,
quartiles), the environment, and as its last line one JSON object with
the keys correct, attempted, failed and metrics.  The exit code is 0 when
every output passed its checks, 1 when one did not, and 2 when the
checkout lacks the conglab sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import stats
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

SETUP_SAMPLES = 5  # before the passes, and again after them
PASS_TIMEOUT_S = 170
BUDGET_S = 150  # no pass starts that is expected to end later than this

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)

# per-layer metrics in the result line: counts, which repeat exactly, and
# self times of the spans that every workload reaches; run.py prints the
# other spans' times in its report
PER_LAYER = tuple(
    [(name, "count") for name in (
        "subgroups.dense_group.calls",
        "subgroups.dense_group.elements",
        "subgroups.subgroup_classes.classes",
        "subgroups.subgroup_classes.subgroups",
        "subgroups.closure.calls",
        "matgroups.mmul.calls",
        "matgroups.full_sl2.calls",
        "matgroups.full_sl2.builds",
        "matgroups.closure_codes.calls",
        "matgroups.closure_codes.elements",
        "matgroups.double_cosets.calls",
        "matgroups.double_cosets.elements",
        "matgroups.core_of.calls",
        "quotients.build_quotient.calls",
        "quotients.largest_ideal_inside.calls",
        "domains.ideal_arith.calls",
        "domains.factor_ideal.calls",
        "analyzer.frame.calls",
        "analyzer.cusps.calls",
        "analyzer.cusps.cusps",
        "analyzer.quasi_amplitude_at.calls",
        "modular.projective_group.calls",
        "modular.projective_group.distinct",
        "modular.projective_group.elements",
        "modular.exact_test.calls",
        "modular.coset_permrep.calls",
        "modular.low_index_enumerate.reps",
        "suites.exhaustive_frames.frames",
    )]
    + [(name, "ratio") for name in (
        "subgroups.join_yield",
        "modular.projective_group.reuse",
        "trace.overhead_ratio",
    )]
    + [(name, "s") for name in (
        "matgroups.full_sl2.self_s",
        "matgroups.closure_codes.self_s",
        "matgroups.double_cosets.self_s",
        "matgroups.core_of.self_s",
        "quotients.build_quotient.self_s",
        "quotients.ensure_tables.self_s",
        "quotients.largest_ideal_inside.self_s",
        "quotients.additive_closure.self_s",
        "domains.ideal_arith.self_s",
        "domains.factor_ideal.self_s",
        "analyzer.frame.self_s",
        "analyzer.cusps.self_s",
        "analyzer.quasi_amplitude_at.self_s",
    )]
)


class PassError(RuntimeError):
    pass


def spawn(workload, seed, trace=False, setup_only=False):
    """Run bench/passrun.py in a fresh interpreter; returns its record."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(BENCH / "passrun.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    cmd += ["--spawned-at", str(time.monotonic_ns())]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise PassError(f"pass exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def scaled_setup(record):
    return record["setup_s"] / record["host_factor"]


def setup_samples(args):
    return [scaled_setup(spawn(args.workload, args.seed, setup_only=True)) for _ in range(SETUP_SAMPLES)]


def scaled_run(record):
    return record["run_s"] / record["host_factor"]


def op_latencies(passes):
    """{op: median latency in ms} over every repeat in every pass, each
    repeat scaled by its pass's host factor.

    A batch workload (survey, verify_default) has one op, the whole pass,
    because its user waits for the whole batch."""
    if not passes[0]["per_op"]:
        return {f"pass{i}": scaled_run(r) * 1e3 for i, r in enumerate(passes)}
    pooled = {}
    for record in passes:
        for op, samples in record["op_times"].items():
            pooled.setdefault(op, []).extend(s / record["host_factor"] for s in samples)
    return {op: stats.median(s) * 1e3 for op, s in pooled.items() if s}


def end_to_end(passes, setups):
    """{metric: (value, samples)} from untraced passes; times are scaled to
    the nominal host speed (hostspeed.py)."""
    latencies = sorted(op_latencies(passes).values())
    tail_p = stats.tail_percentile(len(latencies))
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(len(r["failures"]) for r in passes)
    out = {
        "setup_s": (stats.median(setups), setups),
        "run_s": (stats.median([scaled_run(r) for r in passes]), [scaled_run(r) for r in passes]),
        "op_p50_ms": (stats.median(latencies), latencies),
        # too few ops for a tail percentile: the slowest op stands in
        "op_tail_ms": (
            stats.nearest_rank(latencies, tail_p if tail_p else 100),
            latencies,
        ),
        "peak_rss_mb": (
            stats.median([r["peak_rss_mb"] for r in passes]),
            [r["peak_rss_mb"] for r in passes],
        ),
        "ok_ratio": ((attempted - failed) / attempted, [(attempted - failed) / attempted] * attempted),
    }
    return out, tail_p


def inconsistent_outputs(passes):
    """Ops whose output digest differs between passes."""
    seen, bad = {}, []
    for record in passes:
        for op, value in record["outputs"].items():
            if seen.setdefault(op, value) != value:
                bad.append(op)
    return bad


def environment():
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "PYTHONHASHSEED": "0",
    }


def report_end_to_end(passes, setups):
    metrics, tail_p = end_to_end(passes, setups)
    print(f"# passes {len(passes)}, set-up samples {len(setups)}; raw wall time of the passes "
          + ", ".join(f"{r['run_s']:.3f} s" for r in passes)
          + "; host factors " + ", ".join(f"{r['host_factor']:.3f}" for r in passes))
    print("# times below are wall times divided by the host factor (see bench/hostspeed.py)")
    print(f"# {'metric':<12} {'value':>14} {'unit':<6} {'n':>4} {'q1':>14} {'q3':>14}")
    for name, unit in END_TO_END:
        value, samples = metrics[name]
        q1, _, q3 = stats.quartiles(samples)
        print(f"# {name:<12} {value:>14.6f} {unit:<6} {len(samples):>4} {q1:>14.6f} {q3:>14.6f}")
    count = len(metrics["op_p50_ms"][1])
    if not passes[0]["per_op"]:
        print(f"# batch workload: the op is the whole pass ({count} passes)")
    label = f"p{tail_p}" if tail_p else "max (too few ops for a percentile with 10 beyond)"
    print(f"# op_tail_ms is the {label} of {count} per-op medians")
    return {name: {"value": metrics[name][0], "unit": unit} for name, unit in END_TO_END}


def report_trace(base, traced):
    layer = dict(traced["trace"])
    layer["trace.overhead_ratio"] = scaled_run(traced) / scaled_run(base)
    print(f"# traced run_s {traced['run_s']:.3f} s, untraced run_s {base['run_s']:.3f} s")
    for name in sorted(layer):
        print(f"# {name:<48} {layer[name]:>16.6f}")
    for name in traced["missing"]:
        print(f"# missing: {name}: the name is no longer in conglab, so its metrics read 0")
    return {name: {"value": layer.get(name, 0.0), "unit": unit} for name, unit in PER_LAYER}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tracer.ALL)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "conglab" / "__init__.py").is_file():
        print(f"error: no conglab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print(f"# conglab benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("# " + json.dumps(environment()))
    problems = []
    try:
        if args.trace:
            base = spawn(args.workload, args.seed)
            traced = spawn(args.workload, args.seed, trace=True)
            passes = [base, traced]
            metrics = report_trace(base, traced)
            problems += [f"traced pass did not reach {name}" for name in traced["unreached"]]
        else:
            setups = setup_samples(args)
            passes = []
            start = time.monotonic()
            while True:
                passes.append(spawn(args.workload, args.seed))
                elapsed = time.monotonic() - start
                per_pass = elapsed / len(passes)
                # another pass only if it brings the measured time closer to --seconds
                if elapsed + per_pass / 2 >= args.seconds or elapsed + per_pass > BUDGET_S:
                    break
            # set-up samples on both sides of the passes, so that they do not
            # all fall into one slow or fast spell of the host
            setups += setup_samples(args) + [scaled_setup(r) for r in passes]
            metrics = report_end_to_end(passes, setups)
    except (PassError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    problems += [f"output of {op} differs between passes" for op in inconsistent_outputs(passes)]
    for record in passes:
        problems += record["failures"]
    for line in problems[:20]:
        print(f"# FAILED {line}")
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(len(r["failures"]) for r in passes)
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
