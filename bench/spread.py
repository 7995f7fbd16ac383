"""Run the benchmark over several seeds and print how far runs agree.

    python3 bench/spread.py --workloads frames,modular --seeds 0-9 [--out FILE] [--against FILE]

For every end-to-end metric of every workload it prints the median, the
quartiles (statistics.quantiles, n=4), the sample count and the spread
(q3 - q1) / median next to the metric's bound in BENCHMARK.json.  With
--against it also prints the change of each median from an earlier
--out file, as a share of that earlier median.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import stats
from run import BENCH, ROOT


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out")
    parser.add_argument("--against")
    args = parser.parse_args(argv)
    results = {}
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            line = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else None
            if line is None or not line["correct"]:
                print(f"{workload} seed {seed}: failed\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                return 1
            for name, metric in line["metrics"].items():
                results.setdefault(workload, {}).setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in line["metrics"].items()), flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1)
    earlier = json.load(open(args.against, encoding="utf-8")) if args.against else {}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"{'workload':<15} {'metric':<12} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6} {'change':>7}")
    for workload, metrics in results.items():
        for name, values in metrics.items():
            q1, med, q3 = stats.quartiles(values)
            spread = (q3 - q1) / med
            change = ""
            if name in earlier.get(workload, {}):
                before = stats.median(earlier[workload][name])
                change = f"{(med - before) / before:+7.3f}"
            print(f"{workload:<15} {name:<12} {len(values):>3} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                  f"{spread:>7.3f} {bounds.get(name, float('nan')):>6.2f} {change:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
