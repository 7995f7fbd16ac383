"""The benchmark's workloads: seeded lists of the library calls that one
conglab CLI command makes, with a check of every output.

Only stable public calls are timed (run_suite, frame_subgroup, analyze,
build_example, low_index_enumerate, screen_permrep, and the parsing and
ring set-up the CLI does before them), so the same benchmark code can
measure both sides of a change to the library's internals.  Every op
returns the bytes the CLI would print, and checks identities that hold
for every input.

Workloads (a pass is one process running one workload's op list):

* survey -- C9 amplitude_extrema then C10 level_divisibility over all six
  survey families, as the acceptance gate runs them.  Seed-free.
* frames -- analyze requests: the built-in examples plus seeded
  two-generator frames over seven rings, each request making the calls
  `conglab analyze --domain --modulus --gens` makes.
* modular -- screen_permrep(rep, run_all=True) for every rep of
  low_index_enumerate(12), as `enumerate-modular --max-index 12 --screen`
  does; the pass also runs the enumeration and the exact_soundness suite.
* verify_default -- `verify-suite` with the default suites and --jobs 1.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

# calls go through the module attributes, so that the tracer's wrappers
# (installed after this import) are the ones called
from conglab import analyzer, domains, matgroups, modular, quotients, suites

CAPS = analyzer.DEFAULT_CAPS

# request workloads report per-op latency percentiles; each op runs this
# many times per pass, round-robin with the others, and its latency is
# the median of its runs
REPEATS = {"frames": 3, "modular": 5}

SURVEY_FRAMES = 531  # subgroup classes over the six survey families
MODULAR_MAX_INDEX = 12
MODULAR_REPS = 175  # conjugacy classes of index <= 12

# (name, domain spec, modulus, prime elements of the ring's maximal ideals,
#  digits of one element: (coefficient range, number of coefficients, symbol))
FRAME_RINGS = (
    ("Z/20", "Z", "(20)", ("2", "5"), (20, 1, None)),
    ("Z/24", "Z", "(24)", ("2", "3"), (24, 1, None)),
    ("Z/30", "Z", "(30)", ("2", "3", "5"), (30, 1, None)),
    ("F3[t]/(t^3)", "Fq[t] q=3", "(t^3)", ("t",), (3, 3, "t")),
    ("F5[t]/(t^2)", "Fq[t] q=5", "(t^2)", ("t",), (5, 2, "t")),
    ("F2[t]/(t^4)", "Fq[t] q=2", "(t^4)", ("t",), (2, 4, "t")),
    ("Q(sqrt(-7))/(4)", "Q(sqrt(-7)) maximal", "(4)", ("w", "1-w"), (4, 2, "w")),
)
FRAMES_PER_RING = 3


class CheckFailed(Exception):
    """An op's output broke an identity or did not match its pin."""


def canonical(payload):
    """The bytes `conglab --format json` prints for a payload."""
    return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode()


def digest(data):
    return hashlib.sha256(data).hexdigest()[:20]


@dataclass
class Op:
    """One timed library call sequence.

    `call()` returns the canonical output bytes and a `verify()` that
    raises CheckFailed when an identity fails; verify runs untimed.

    `seeded` ops depend on the workload seed and are pinned only for the
    seeds in the pin file; the others are pinned for every seed.
    """

    id: str
    call: object
    seeded: bool = False


@dataclass
class Workload:
    name: str
    ops: list  # timed ops that enter the per-op statistics
    repeats: int = 1
    before: list = field(default_factory=list)  # run once before the ops
    after: list = field(default_factory=list)  # run once after the ops
    per_op: bool = False

    def schedule(self):
        """The pass in call order: before, ops round-robin, after."""
        rounds = [op for _ in range(self.repeats) for op in self.ops]
        return self.before + rounds + self.after


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# survey and verify_default: batches of run_suite calls


def suite_op(name, seed, families=None, expected_checks=None):
    def call():
        result = suites.run_suite(name, CAPS, seed, families)
        entry = {
            "name": result.name,
            "checks": result.checks,
            "passed": result.checks - len(result.failures),
            "failures": result.failures,
        }

        def verify():
            expect(not result.failures, f"suite {name}: {result.failures[:3]}")
            if expected_checks is not None:
                expect(result.checks == expected_checks, f"suite {name}: {result.checks} checks")

        return canonical(entry), verify

    return call


def survey(seed):
    ops = [
        Op(name, suite_op(name, 0, list(suites.SURVEY_FAMILIES), SURVEY_FRAMES))
        for name in ("amplitude_extrema", "level_divisibility")
    ]
    return Workload("survey", ops)


def verify_default(seed):
    ops = [Op(name, suite_op(name, seed), seeded=True) for name in suites.DEFAULT_SUITE_NAMES]
    return Workload("verify_default", ops)


# ---------------------------------------------------------------------------
# frames: analyze requests


def _report_bytes(frame):
    report = analyzer.analyze(frame).to_json()
    if frame.info:
        report["info"] = {k: v for k, v in sorted(frame.info.items())}

    def verify():
        # identities that hold for every frame, whatever the seed
        index = report["index"]
        expect(
            frame.group.order * index == matgroups.sl2_order_formula(frame.modulus),
            "|H| * index differs from |SL2(R)|",
        )
        expect(sum(c["width"] for c in report["cusps"]) == index, "cusp widths do not sum to the index")
        expect(report["c_min"] == report["level"], "c_min differs from the level")
        expect(report["theorems"]["cusp_split"] is True, "cusp split fails")

    return canonical(report), verify


def example_op(name):
    def call():
        return _report_bytes(analyzer.build_example(name, CAPS))

    return call


def request_op(spec, modulus_text, gens_text):
    """What `conglab analyze --domain spec --modulus m --gens file` does."""

    def call():
        domain = domains.parse_domain(spec)
        modulus = domain.parse_ideal(modulus_text)
        ring = quotients.build_quotient(domain, modulus, ring_cap=CAPS.ring)
        gens = [
            matgroups.Mat2(ring, *(ring.reduce(domain.parse_element(text)) for text in matrix))
            for matrix in gens_text
        ]
        return _report_bytes(analyzer.frame_subgroup(domain, modulus, gens, CAPS))

    return call


def _element(rng, digits):
    bound, count, symbol = digits
    coeffs = [rng.randrange(bound) for _ in range(count)]
    if symbol is None:
        return str(coeffs[0])
    return "+".join(f"{c}*{symbol}^{k}" if k else str(c) for k, c in enumerate(coeffs))


def _unipotent_word(rng, digits, prime=None):
    """T(x) L(y) T(z), with y in the ideal (prime) when prime is given.

    T and L are the upper and lower unipotent matrices, so the product has
    determinant 1 in any commutative ring; generators that all have y in
    one maximal ideal generate a subgroup of that ideal's Gamma_0 image.
    """
    x, y, z = (_element(rng, digits) for _ in range(3))
    if prime is not None:
        y = f"({prime})*({y})"
    return (f"1+({x})*({y})", f"({x})+({z})+({x})*({y})*({z})", y, f"1+({y})*({z})")


def _product(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (
        f"({a})*({e})+({b})*({g})",
        f"({a})*({f})+({b})*({h})",
        f"({c})*({e})+({d})*({g})",
        f"({c})*({f})+({d})*({h})",
    )


def _inverse(m):
    a, b, c, d = m
    return (d, f"-({b})", f"-({c})", a)


def frame_requests(seed):
    """Generator texts per request: {(ring name, i): (spec, modulus, gens)}.

    Request i of a ring conjugates a fixed base frame (the whole group's
    generators for i = 0, a Gamma_0 image's for i > 0) by a seeded element
    k.  Conjugation keeps the index, the cusp widths and the sizes every
    step works on, so each request costs the same on every seed while its
    input and output bytes change with the seed.
    """
    out = {}
    for name, spec, modulus, primes, digits in FRAME_RINGS:
        rng = random.Random(f"{seed}:frames:{name}")
        for i in range(FRAMES_PER_RING):
            base = random.Random(f"base:{name}:{i}")
            prime = None if i == 0 else primes[(i - 1) % len(primes)]
            k = _unipotent_word(rng, digits)
            gens = tuple(
                _product(_product(_inverse(k), _unipotent_word(base, digits, prime)), k)
                for _ in range(2)
            )
            out[(name, i)] = (spec, modulus, gens)
    return out


def frames(seed):
    ops = [Op(f"example:{name}", example_op(name)) for name in analyzer.EXAMPLE_NAMES]
    for (ring, i), (spec, modulus, gens) in frame_requests(seed).items():
        ops.append(Op(f"{ring}#{i}", request_op(spec, modulus, gens), seeded=True))
    return Workload("frames", ops, REPEATS["frames"], per_op=True)


# ---------------------------------------------------------------------------
# modular: permrep screens over the low-index enumeration


def modular_screens(seed):
    reps = []

    def enumerate_op():
        reps[:] = modular.low_index_enumerate(MODULAR_MAX_INDEX)

        def verify():
            expect(len(reps) == MODULAR_REPS, f"{len(reps)} reps of index <= {MODULAR_MAX_INDEX}")

        return canonical([rep.to_json() for rep in reps]), verify

    def screen_op(i):
        def call():
            rep = reps[i]
            out = modular.screen_permrep(rep, run_all=True, cap=CAPS.group)

            def verify():
                lengths = modular.cusp_split(rep).lengths
                expect(sum(lengths) == rep.n, "cusp split does not sum to the degree")
                expect(out["cusp_split"] == list(lengths), "screen reports another cusp split")

            return canonical(out), verify

        return call

    ops = [Op(f"rep{i}", screen_op(i)) for i in range(MODULAR_REPS)]
    return Workload(
        "modular",
        ops,
        REPEATS["modular"],
        before=[Op("low_index_enumerate", enumerate_op)],
        after=[Op("exact_soundness", suite_op("exact_soundness", 0))],
        per_op=True,
    )


BUILDERS = {
    "survey": survey,
    "frames": frames,
    "modular": modular_screens,
    "verify_default": verify_default,
}


WORKLOADS = tuple(BUILDERS)


def build(name, seed):
    return BUILDERS[name](seed)
