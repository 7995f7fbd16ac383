"""Command-line front end.

Subcommands: analyze, screen-perm, screen-subspace, enumerate-modular,
verify-suite.  JSON is the output contract (byte-identical for a fixed
config and seed); text output is derived from the JSON.  The env var
CONGLAB_CAPS ("ring=65536,group=5000000,factor=18446744073709551616")
overrides the default caps; explicit flags win over the environment.

Exit codes: 0 success, 1 suite failure, 2 parse/validation error,
3 cap exceeded, 4 internal verifier contradiction.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .analyzer import (
    Caps,
    DEFAULT_CAPS,
    EXAMPLE_NAMES,
    InternalCheckError,
    analyze,
    build_example,
    frame_ring,
    frame_subgroup,
    screen_translation_subspace,
)
from .domains import CapExceeded, ParseError, PolynomialDomain, parse_domain
from .matgroups import Mat2

EXIT_OK = 0
EXIT_SUITE_FAILURE = 1
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


def decimal(text):
    """An optional '-' and ASCII digits as an int; int() also takes '_' and other digits."""
    if re.fullmatch(r"-?[0-9]+", text) is None:
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def _parse_caps(args):
    caps = {"ring": DEFAULT_CAPS.ring, "group": DEFAULT_CAPS.group, "factor": DEFAULT_CAPS.factor}
    for part in os.environ.get("CONGLAB_CAPS", "").split(","):
        part = part.strip()
        if not part:
            continue
        key, _, value = part.partition("=")
        if key not in caps:
            raise ParseError(f"unknown cap {key!r} in CONGLAB_CAPS")
        try:
            caps[key] = decimal(value)
        except ValueError:
            raise ParseError(f"bad cap value in CONGLAB_CAPS: {part!r}")
    for key in caps:
        if getattr(args, f"{key}_cap", None) is not None:
            caps[key] = getattr(args, f"{key}_cap")
    if min(caps.values()) <= 0:
        raise ParseError("caps must be positive")
    return Caps(**caps)


def _emit(payload, fmt, stream=None):
    stream = sys.stdout if stream is None else stream
    if fmt == "json":
        stream.write(json.dumps(payload, sort_keys=True, separators=(",", ":")))
        stream.write("\n")
    else:
        _emit_text(payload, stream, prefix="")


def _emit_text(value, stream, prefix):
    if isinstance(value, dict):
        for key in sorted(value):
            sub = value[key]
            if isinstance(sub, (dict, list)):
                stream.write(f"{prefix}{key}:\n")
                _emit_text(sub, stream, prefix + "  ")
            else:
                stream.write(f"{prefix}{key}: {sub}\n")
    elif isinstance(value, list):
        for i, sub in enumerate(value):
            if isinstance(sub, (dict, list)):
                stream.write(f"{prefix}- [{i}]\n")
                _emit_text(sub, stream, prefix + "  ")
            else:
                stream.write(f"{prefix}- {sub}\n")
    else:
        stream.write(f"{prefix}{value}\n")


def _load_json_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"bad JSON in {path}: {exc}") from exc


def _element_text(value):
    if not isinstance(value, str):
        raise ParseError(f"element text must be a JSON string, not {value!r}")
    return value


def _gens_from_file(path, ring):
    data = _load_json_file(path)
    if not isinstance(data, list):
        raise ParseError("generators file must hold a JSON list of matrices")
    gens = []
    for entry in data:
        rows = entry if isinstance(entry, list) and len(entry) == 2 else [None]
        if not all(isinstance(row, list) and len(row) == 2 for row in rows):
            raise ParseError(f"bad matrix entry {entry!r}")
        (a, b), (c, d) = entry
        idx = [ring.reduce(ring.domain.parse_element(_element_text(v))) for v in (a, b, c, d)]
        try:
            gens.append(Mat2(ring, *idx))
        except ValueError as exc:
            raise ParseError(f"matrix {entry!r}: {exc}") from exc
    return gens


def cmd_analyze(args):
    if args.example:
        if args.example not in EXAMPLE_NAMES:
            raise ParseError(
                f"unknown example {args.example!r}; known: {', '.join(EXAMPLE_NAMES)}"
            )
        frame = build_example(args.example, args.caps)
    else:
        if not args.domain or not args.modulus:
            raise ParseError("analyze needs --example or both --domain and --modulus")
        domain = parse_domain(args.domain)
        modulus = domain.parse_ideal(args.modulus)
        ring = frame_ring(domain, modulus, args.caps)
        gens = _gens_from_file(args.gens, ring) if args.gens else []
        frame = frame_subgroup(domain, modulus, gens, args.caps)
    report = analyze(frame).to_json()
    if frame.info:
        report["info"] = {k: v for k, v in sorted(frame.info.items())}
    _emit(report, args.format)
    return EXIT_OK


def cmd_screen_perm(args):
    from .modular import parse_permrep, screen_permrep

    rep = parse_permrep(_load_json_file(args.permrep))
    out = screen_permrep(rep, run_all=args.all, cap=args.caps.group)
    _emit(out, args.format)
    return EXIT_OK


def cmd_screen_subspace(args):
    data = _load_json_file(args.subspace)
    if not isinstance(data, dict) or not {"k", "f", "basis"} <= set(data):
        raise ParseError('subspace JSON needs keys "k", "f", "basis"')
    kspec, basis = data["k"], data["basis"]
    if isinstance(kspec, bool) or not isinstance(kspec, (int, str)):
        raise ParseError(f'subspace "k" must be a JSON integer or string, not {kspec!r}')
    if not isinstance(basis, list):
        raise ParseError(f'subspace "basis" must be a JSON array, not {basis!r}')
    domain = parse_domain(kspec if isinstance(kspec, str) else f"Fq[t] q={kspec}")
    if not isinstance(domain, PolynomialDomain):
        raise ParseError("subspace screening needs a polynomial domain")
    f = domain.parse_element(_element_text(data["f"]))
    if domain.deg(f) < 1:
        raise ParseError("modulus polynomial must be non-constant")
    basis = tuple(domain.parse_element(_element_text(b)) for b in basis)
    report = screen_translation_subspace(domain, f, basis)
    _emit(report.to_json(), args.format)
    return EXIT_OK


def cmd_enumerate_modular(args):
    from .modular import cusp_split, low_index_enumerate, screen_permrep

    reps = low_index_enumerate(args.max_index)
    payload = []
    for rep in reps:
        entry = rep.to_json()
        split = cusp_split(rep)
        entry["cusp_split"] = list(split.lengths)
        entry["level"] = split.level
        if args.screen:
            entry["screens"] = screen_permrep(rep, run_all=True, cap=args.caps.group)[
                "screens"
            ]
        payload.append(entry)
    _emit({"max_index": args.max_index, "count": len(reps), "reps": payload}, args.format)
    return EXIT_OK


def _run_suite_job(job):
    from .suites import run_suite

    name, caps, seed, families = job
    result = run_suite(name, caps, seed, families)
    return (result.name, result.checks, result.failures)


def cmd_verify_suite(args):
    from .suites import DEFAULT_SUITE_NAMES, SUITE_ALIASES, SUITES, pick_families

    if args.jobs < 1:
        raise ParseError("--jobs must be at least 1")
    names = [args.suite] if args.suite else list(DEFAULT_SUITE_NAMES)
    for name in names:
        if SUITE_ALIASES.get(name, name) not in SUITES:
            raise ParseError(f"unknown suite {name!r}; known: {sorted(SUITES)}")
    families = args.exhaustive or None
    pick_families(families)  # unknown names exit 2 before any suite starts
    jobs = [(name, args.caps, args.seed, families) for name in names]
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(args.jobs, len(jobs))) as pool:
            results = list(pool.map(_run_suite_job, jobs))
    else:
        results = [_run_suite_job(job) for job in jobs]
    suites = [
        {"name": name, "checks": checks, "passed": checks - len(failures), "failures": failures}
        for name, checks, failures in results
    ]
    _emit({"seed": args.seed, "suites": suites}, args.format)
    return EXIT_SUITE_FAILURE if any(s["failures"] for s in suites) else EXIT_OK


def _add_global_options(parser, suppress):
    # the same options are accepted before and after the subcommand; the
    # per-subcommand copies must not clobber earlier values with defaults
    def dflt(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument("--format", choices=("text", "json"), default=dflt("json"))
    parser.add_argument("--seed", type=decimal, default=dflt(0))
    parser.add_argument("--ring-cap", type=decimal, default=dflt(None))
    parser.add_argument("--group-cap", type=decimal, default=dflt(None))
    parser.add_argument("--factor-cap", type=decimal, default=dflt(None))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="conglab",
        description=(
            "Exact congruence-subgroup invariants over Z, Fq[t], and "
            "imaginary quadratic maximal orders"
        ),
    )
    _add_global_options(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        _add_global_options(p, suppress=True)
        return p

    p = add_command("analyze", help="full invariant report for a framed subgroup")
    p.add_argument("--domain", help='domain spec, e.g. "Z" or "Fq[t] q=9 mod=u^2+1"')
    p.add_argument("--modulus", help='ideal text, e.g. "(6)" or "(t^2+t)"')
    p.add_argument("--gens", help="JSON file with generator matrices")
    p.add_argument("--example", help=f"built-in frame: {', '.join(EXAMPLE_NAMES)}")
    p.set_defaults(func=cmd_analyze)

    p = add_command("screen-perm", help="congruence screens for a permutation rep")
    p.add_argument("--permrep", required=True, help='JSON file {"n", "S", "T"}')
    p.add_argument("--all", action="store_true", help="run every screen")
    p.set_defaults(func=cmd_screen_perm)

    p = add_command("screen-subspace", help="translation-subspace screen")
    p.add_argument("--subspace", required=True, help='JSON file {"k", "f", "basis"}')
    p.set_defaults(func=cmd_screen_subspace)

    p = add_command("enumerate-modular", help="low-index subgroups up to conjugacy")
    p.add_argument("--max-index", type=decimal, required=True)
    p.add_argument("--screen", action="store_true", help="attach screen results")
    p.set_defaults(func=cmd_enumerate_modular)

    p = add_command("verify-suite", help="run the bundled verification suites")
    p.add_argument("--suite", help="run a single suite by name")
    p.add_argument(
        "--exhaustive",
        action="append",
        help="restrict exhaustive suites to a family, e.g. Z/12 (repeatable)",
    )
    p.add_argument("--jobs", type=decimal, default=1)
    p.set_defaults(func=cmd_verify_suite)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.caps = _parse_caps(args)
        return args.func(args)
    except ParseError as exc:
        print(f"error: parse: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapExceeded as exc:
        print(f"error: cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except InternalCheckError as exc:
        print(f"error: internal-check: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: parse: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
