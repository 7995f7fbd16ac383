"""Reprint the rows of the ROADMAP baseline table from benchmark passes.

    python3 bench/baseline.py [--seed 0] [--workloads survey,verify_default,modular,frames]

For each workload it runs one untraced and one traced pass (each in a
fresh interpreter, as bench/run.py does).  Whole-suite rows come from
the untraced pass; rows for one layer come from the traced pass, whose
times include the tracer's overhead (printed per workload).  Then it
prints the nine layer stages of ROADMAP item 1 for every workload.  It
only prints; it edits nothing.
"""

from __future__ import annotations

import argparse
import sys

from run import spawn

Z12 = 1152  # |SL2(Z/12)|

# (row, workload, source, key, counters): source "op" is an untraced op's
# time, "trace" a traced span's inclusive time
ROWS = (
    ("C9 amplitude_extrema over the 6 survey families (531 frames)", "survey", "op",
     ("amplitude_extrema",), ()),
    ("  exhaustive_frames, all families", "survey", "trace", ("suites.exhaustive_frames",), ("frames",)),
    ("  exhaustive_frames, Z/12 alone", "survey", "trace", ("suites.exhaustive_frames[Z/12]",), ("frames",)),
    ("  subgroup_classes on SL2(Z/12)", "survey", "trace",
     (f"subgroups.subgroup_classes[{Z12}]",), ("classes", "subgroups")),
    ("  DenseGroup Cayley table, SL2(Z/12)", "survey", "trace", (f"subgroups.dense_group[{Z12}]",), ("elements",)),
    ("  _double_coset_data, Z/12 frames", "survey", "trace", (f"matgroups.double_cosets[{Z12}]",), ("calls",)),
    ("  core_of, Z/12 frames", "survey", "trace", (f"matgroups.core_of[{Z12}]",), ("calls",)),
    ("C10 level_divisibility (frames cached by C9)", "survey", "op", ("level_divisibility",), ()),
    ("C11 structural suites", "verify_default", "op",
     ("cube_law", "center_triviality", "crt", "coprime_product"), ()),
    ("  coprime_product", "verify_default", "op", ("coprime_product",), ()),
    ("default-run suite square_unit_closure", "verify_default", "op", ("square_unit_closure",), ()),
    ("default-run suite amplitude_join", "verify_default", "op", ("amplitude_join",), ()),
    ("C8 exact_soundness", "modular", "op", ("exact_soundness",), ()),
    ("modular screens, ProjectiveGroup construction, all repeats", "modular", "trace",
     ("modular.projective_group",), ("calls", "distinct")),
)

# the nine timed stages of ROADMAP item 1, as traced spans
STAGES = (
    ("ring tables", "quotients.ensure_tables"),
    ("full_sl2 closure", "matgroups.full_sl2"),
    ("DenseGroup Cayley table", "subgroups.dense_group"),
    ("subgroup_classes", "subgroups.subgroup_classes"),
    ("double cosets and cusps", "analyzer.cusps"),
    ("core_of", "matgroups.core_of"),
    ("level_chain", "analyzer.level_chain"),
    ("permrep exact test", "modular.exact_test"),
    ("low_index_enumerate", "modular.low_index_enumerate"),
)


def op_time(record, name):
    if name in record["op_times"]:
        return sum(record["op_times"][name])
    return record["once_times"].get(name)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workloads", default="survey,verify_default,modular,frames")
    args = parser.parse_args(argv)
    untraced, traced = {}, {}
    for workload in args.workloads.split(","):
        untraced[workload] = spawn(workload, args.seed)
        traced[workload] = spawn(workload, args.seed, trace=True)
        ratio = traced[workload]["run_s"] / untraced[workload]["run_s"]
        print(f"# {workload}: untraced pass {untraced[workload]['run_s']:.2f} s, "
              f"traced pass {traced[workload]['run_s']:.2f} s (overhead ratio {ratio:.2f})")
    print(f"\n{'what':<62} {'time':>9}  counts")
    for row, workload, source, keys, counters in ROWS:
        if workload not in untraced:
            continue
        if source == "op":
            times = [op_time(untraced[workload], k) for k in keys]
            value = None if None in times else sum(times)
            extra = ""
        else:
            layer = traced[workload]["trace"]
            value = layer.get(f"{keys[0]}.total_s")
            extra = ", ".join(f"{c} {layer.get(f'{keys[0]}.{c}', 0):.0f}" for c in counters)
            extra += " (traced)"
        shown = "missing" if value is None else f"{value:8.2f} s"
        print(f"{row:<62} {shown:>9}  {extra}")
    print(f"\n{'stage (traced, inclusive s / calls)':<36}" + "".join(f"{w:>22}" for w in traced))
    for stage, span in STAGES:
        cells = []
        for record in traced.values():
            layer = record["trace"]
            cells.append(f"{layer.get(span + '.total_s', 0.0):10.2f} / {layer.get(span + '.calls', 0):<9.0f}")
        print(f"{stage:<36}" + "".join(f"{c:>22}" for c in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
