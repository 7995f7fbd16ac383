"""An outside-in tracer: wraps conglab functions and methods by name.

The library has no spans of its own, so the tracer replaces module
attributes (in every conglab module that imported the name, e.g.
analyzer._double_coset_data and suites.subgroup_classes) and class
methods with wrappers that time each call.  A span's self time is its
duration minus the time covered by its child spans.  Counts are taken at
the same boundaries.  A target whose name no longer exists is reported
as missing; a target that exists but records no calls on a workload that
must reach it is an error.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

MODULES = ("domains", "quotients", "matgroups", "analyzer", "modular", "subgroups", "suites", "cli")
ALL = ("survey", "frames", "modular", "verify_default")


@dataclass(frozen=True)
class Target:
    metric: str  # metric prefix, e.g. "matgroups.core_of"
    module: str  # conglab submodule that defines the name
    name: str  # "function" or "Class.method"
    reach: tuple = ()  # workloads on which the name must record calls
    count_only: bool = False  # count calls without timing them (hot paths)
    sizes: object = None  # (result, args, before) -> {counter: amount}
    before: object = None  # (args) -> value passed to sizes
    label: object = None  # (args) -> str: calls are also kept per label


def _new_family(seen):
    def sizes(result, args, before):
        if id(result) in seen:
            return {}
        seen.add(id(result))
        return {"frames": len(result)}

    return sizes


def _distinct_levels(seen):
    def sizes(result, args, before):
        self = args[0]
        new = 0 if self.n in seen else 1
        seen.add(self.n)
        return {"elements": self.size, "distinct": new}

    return sizes


def targets():
    """The wrapped names, layer by layer."""
    return (
        # subgroups
        Target("subgroups.dense_group", "subgroups", "DenseGroup.__init__", ("survey",),
               sizes=lambda r, a, b: {"elements": a[0].size}, label=lambda a: a[0].size),
        Target("subgroups.subgroup_classes", "subgroups", "subgroup_classes", ("survey",),
               sizes=lambda r, a, b: {"classes": len(r[0]), "subgroups": len(r[1])},
               label=lambda a: a[0].size),
        Target("subgroups.closure", "subgroups", "DenseGroup.closure", ("survey",), count_only=True),
        # matgroups
        Target("matgroups.mmul", "matgroups", "_MatOps.mmul", ALL, count_only=True),
        Target("matgroups.full_sl2", "matgroups", "full_sl2", ALL,
               before=lambda a: getattr(a[0], "_full_sl2", None) is None,
               sizes=lambda r, a, b: {"builds": int(b)}),
        Target("matgroups.closure_codes", "matgroups", "closure_codes", ALL,
               sizes=lambda r, a, b: {"elements": len(r)}),
        Target("matgroups.double_cosets", "matgroups", "_double_coset_data", ("frames", "survey"),
               sizes=lambda r, a, b: {"elements": a[0].order}, label=lambda a: a[0].order),
        Target("matgroups.core_of", "matgroups", "core_of", ("frames", "survey"),
               label=lambda a: a[1].order),
        Target("matgroups.principal_congruence_image", "matgroups",
               "principal_congruence_image", ("verify_default",)),
        # quotients
        Target("quotients.build_quotient", "quotients", "build_quotient", ALL),
        Target("quotients.ensure_tables", "quotients", "QuotientRing.ensure_tables", ("frames",)),
        Target("quotients.largest_ideal_inside", "quotients", "largest_ideal_inside", ALL),
        Target("quotients.additive_closure", "quotients", "additive_closure", ALL),
        # domains
        Target("domains.ideal_arith", "domains", "ideal_arith", ("verify_default",)),
        Target("domains.factor_ideal", "domains", "factor_ideal", ("verify_default",)),
        # analyzer
        Target("analyzer.frame", "analyzer", "frame_subgroup", ("frames", "verify_default")),
        Target("analyzer.frame", "analyzer", "frame_from_group", ("survey", "modular")),
        Target("analyzer.cusps", "analyzer", "cusps", ALL, sizes=lambda r, a, b: {"cusps": len(r)}),
        Target("analyzer.quasi_amplitude_at", "analyzer", "quasi_amplitude_at", ALL),
        Target("analyzer.level_chain", "analyzer", "level_chain", ("frames", "survey")),
        Target("analyzer.analyze", "analyzer", "analyze", ("frames",)),
        Target("analyzer.unit_square_closure", "analyzer", "unit_square_closure_check",
               ("frames", "verify_default")),
        Target("analyzer.amplitude_join", "analyzer", "amplitude_join_search", ("verify_default",)),
        # modular
        Target("modular.projective_group", "modular", "ProjectiveGroup.__init__", ("modular",),
               sizes=_distinct_levels(set())),
        Target("modular.exact_test", "modular", "exact_congruence_test", ("modular",)),
        Target("modular.coset_permrep", "modular", "coset_permrep", ("modular",)),
        Target("modular.low_index_enumerate", "modular", "low_index_enumerate", ("modular",),
               sizes=lambda r, a, b: {"reps": len(r)}),
        Target("modular.screen_permrep", "modular", "screen_permrep", ("modular",)),
        # suites
        Target("suites.exhaustive_frames", "suites", "exhaustive_frames", ("survey", "verify_default"),
               sizes=_new_family(set()), label=lambda a: a[0]),
        Target("suites.suite", "suites", "run_suite", ("survey", "verify_default")),
    )


class Tracer:
    """Install with `with Tracer(workload) as tracer:`; read `metrics()`."""

    def __init__(self, workload):
        self.workload = workload
        self.stats = defaultdict(lambda: defaultdict(float))
        self.hits = defaultdict(int)  # calls per target, for the reach check
        self.stack = []
        self.missing = []
        self.targets = targets()
        self._restore = []

    # -- installing --------------------------------------------------------

    def __enter__(self):
        for name in MODULES:
            importlib.import_module(f"conglab.{name}")
        modules = [m for n, m in sys.modules.items() if n == "conglab" or n.startswith("conglab.")]
        for target in self.targets:
            owner = sys.modules[f"conglab.{target.module}"]
            cls_name, _, attr = target.name.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name, None)
                original = None if cls is None else cls.__dict__.get(attr)
                if original is None:
                    self.missing.append(target)
                    continue
                self._patch(cls, attr, original, self._wrap(target, original))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(target)
                continue
            wrapper = self._wrap(target, original)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._patch(module, attr, original, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False

    def _patch(self, owner, attr, original, wrapper):
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, target, fn):
        stats, stack, hits = self.stats, self.stack, self.hits
        perf = time.perf_counter
        key = target.name
        if target.count_only:
            counter = stats[target.metric]

            def counted(*args, **kwargs):
                counter["calls"] += 1
                return fn(*args, **kwargs)

            return counted
        dynamic = target.metric == "suites.suite"

        def spanned(*args, **kwargs):
            hits[key] += 1
            metric = target.metric
            if dynamic:
                metric = f"{metric}.{args[0] if args else kwargs['name']}"
            before = target.before(args) if target.before else None
            stack.append(0.0)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                entry = stats[metric]
                entry["calls"] += 1
                entry["self_s"] += elapsed - child
                entry["total_s"] += elapsed
            entries = [entry]
            if target.label:
                labelled = stats[f"{metric}[{target.label(args)}]"]
                labelled["calls"] += 1
                labelled["self_s"] += elapsed - child
                labelled["total_s"] += elapsed
                entries.append(labelled)
            if target.sizes:
                for counter, amount in target.sizes(result, args, before).items():
                    for e in entries:
                        e[counter] += amount
            return result

        return spanned

    # -- reading -----------------------------------------------------------

    def unreached(self):
        """Targets present in the code that the workload must reach but did not."""
        missing = {id(t) for t in self.missing}
        calls = dict(self.hits)
        calls.update((t.name, self.stats[t.metric]["calls"]) for t in self.targets if t.count_only)
        return [
            f"{t.module}.{t.name}"
            for t in self.targets
            if id(t) not in missing and self.workload in t.reach and not calls.get(t.name)
        ]

    def metrics(self):
        """Flat {name: value}: <span>.calls, .self_s, .total_s and counts."""
        flat = {}
        for metric, entry in sorted(self.stats.items()):
            if metric.startswith("suites.suite."):
                flat[f"{metric}.s"] = entry["total_s"]  # one suite's wall time
                continue
            for key, value in sorted(entry.items()):
                flat[f"{metric}.{key}"] = value
        joins = flat.get("subgroups.closure.calls", 0)
        # every subgroup_classes call registers the trivial class without a join
        new_classes = flat.get("subgroups.subgroup_classes.classes", 0) - flat.get(
            "subgroups.subgroup_classes.calls", 0
        )
        flat["subgroups.join_yield"] = new_classes / joins if joins else 0.0
        distinct = flat.get("modular.projective_group.distinct", 0)
        calls = flat.get("modular.projective_group.calls", 0)
        flat["modular.projective_group.reuse"] = calls / distinct if distinct else 0.0
        return flat

    def missing_names(self):
        """'metric (module.name)' for each target whose name is gone."""
        return sorted({f"{t.metric} ({t.module}.{t.name})" for t in self.missing})
