"""Write bench/pins.json: digests of every op's canonical output bytes.

    PYTHONHASHSEED=0 PYTHONPATH=src python3 bench/pin.py [--seeds 0-9]

Seed-free ops (the survey suites, the built-in examples, the modular
enumeration, screens and exact_soundness) are pinned for every seed;
seeded ops (the generated frames and the default suites) for the listed
seeds.  Pins are only written when every op passes its identity checks,
and they freeze the JSON contract: a change that alters any output byte
fails the benchmark's check on those ops.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import passrun
import workloads


def digests(workload, seed):
    wl = workloads.build(workload, seed)
    out = {}
    for op in wl.before + wl.ops + wl.after:
        data, verify = op.call()
        verify()
        out[op.id] = (op.seeded, workloads.digest(data))
    return out


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        parser.error("run with PYTHONHASHSEED=0")
    pins = {}
    for workload in workloads.WORKLOADS:
        table = pins.setdefault(workload, {"*": {}, "seeds": {}})
        for seed in args.seeds:
            for op_id, (seeded, value) in digests(workload, seed).items():
                if seeded:
                    table["seeds"].setdefault(str(seed), {})[op_id] = value
                elif table["*"].setdefault(op_id, value) != value:
                    raise SystemExit(f"{workload} {op_id}: output depends on the seed")
            if not table["seeds"]:
                break  # seed-free workload: one seed is enough
            print(f"pinned {workload} seed {seed}", file=sys.stderr)
    with open(passrun.PINS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
