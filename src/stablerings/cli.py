"""Batch front end: parse inputs, run analyses, emit deterministic reports.

Each leaf command is declared once, in ``COMMANDS``, keyed by its argv
words: its handler, its help text and its arguments.  ``build_parser``
builds every subparser from that table and tags each leaf with its handler.
A handler returns the command echo, the canonical input, the result payload
and the exit code; ``main`` is the one report path, which times the handler,
hands its record to ``emit`` and maps errors to exit codes.

Every report record holds the command echo, canonical input, result payload,
tool version, seed, and elapsed time.  JSON is the machine interface (sorted
keys, fixed indentation); text output is a thin flattened rendering of the
result.  With --no-timing the elapsed-time field is omitted, making reports
byte-comparable; worker count never affects output.

Exit codes: 0 success, 1 theorem violation or check failure, 2 usage or
input error, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__, idealization, numsg, quadalg, relideal, ringlab, sweep
from .errors import CapExceeded, StableringsError


def parse_generators(text: str) -> list[int]:
    """Accept '3,4,5' or bracketed forms like '<3,4,5>'; the builders check the values."""
    cleaned = text.strip().strip("<>").strip("⟨⟩")
    try:
        gens = [int(p) for p in cleaned.replace(" ", "").split(",") if p != ""]
    except ValueError:
        raise ValueError(f"cannot parse generator list {text!r}") from None
    if not gens:
        raise ValueError(f"cannot parse generator list {text!r}")
    return gens


def _canonical(values) -> str:
    return ",".join(str(v) for v in values)


def _flatten(prefix: str, value, lines: list[str]) -> None:
    if isinstance(value, dict):
        for k in value:
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], lines)
    elif isinstance(value, (list, tuple)):
        if all(isinstance(v, (dict, list, tuple)) for v in value) and value:
            for i, v in enumerate(value):
                _flatten(f"{prefix}[{i}]", v, lines)
        else:
            lines.append(f"{prefix}: " + " -> ".join(str(v) for v in value))
    elif isinstance(value, bool):
        lines.append(f"{prefix}: {'true' if value else 'false'}")
    elif value is None:
        lines.append(f"{prefix}: null")
    else:
        lines.append(f"{prefix}: {value}")


def emit(args, command: str, input_form: str, result: dict, started: float) -> None:
    payload = {
        "command": command,
        "input": input_form,
        "result": result,
        "version": __version__,
        "seed": args.seed,
    }
    if not args.no_timing:
        payload["elapsed_s"] = round(time.monotonic() - started, 6)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        lines: list[str] = []
        _flatten("", result, lines)
        for line in lines:
            print(line)


def _semigroup(args) -> tuple[numsg.NumericalSemigroup, str]:
    S = numsg.from_generators(parse_generators(args.generators))
    return S, _canonical(S.minimal_generators)


def _sg_info(args):
    S, name = _semigroup(args)
    return "sg info", name, {"semigroup": name, **numsg.invariants(S), "gaps": _canonical(S.gaps())}, 0


def _sg_ideal(args):
    S, name = _semigroup(args)
    ideal = relideal.make_ideal(S, parse_generators(args.ideal))
    ideal_name = _canonical(ideal.minimal_generators)
    result = {
        "semigroup": name,
        "ideal": ideal_name,
        "min": ideal.min_element,
        "mu": relideal.minimal_generator_count(ideal),
        "stable": relideal.is_stable(ideal),
        "endomorphism_semigroup": _canonical(relideal.end_semigroup(ideal).minimal_generators),
    }
    if args.stable and not args.json:
        result = {"stable": result["stable"]}
    return "sg ideal", f"{name} --ideal {ideal_name}", result, 0


def _sg_tower(args):
    S, name = _semigroup(args)
    tower = relideal.blowup_tower(S, cap=args.cap)
    result = {
        "semigroup": name,
        "tower": [_canonical(t.minimal_generators) for t in tower],
        "multiplicity_sequence": _canonical(t.multiplicity for t in tower),
        "stabilization_index": len(tower) - 1,
        "reached_normalization": tower[-1].is_full,
    }
    return "sg tower", name, result, 0


def _sg_report(args):
    S, name = _semigroup(args)
    return "sg report", name, ringlab.stable_ring_report(S), 0


def _sg_two_gen(args):
    ringlab.check_n_max(args.n_max)
    S, name = _semigroup(args)
    two = ringlab.two_generator_check(S, args.n_max, ringlab.max_ideal_chain(S))
    return "sg two-gen", name, {"semigroup": name, **two}, 0


def _sweep(args):
    result = sweep.run_sweep(args.max_genus, args.jobs, args.n_max, args.sally_genus_cap)
    code = 0 if result["violations_total"] == 0 else 1
    return f"sweep --max-genus {args.max_genus}", str(args.max_genus), result, code


def _alg_classify(args):
    with open(args.file, encoding="utf-8") as fh:
        text = fh.read(quadalg.ALGEBRA_FILE_CAP + 1)
    if len(text) > quadalg.ALGEBRA_FILE_CAP:
        raise CapExceeded(f"algebra file exceeds the cap of {quadalg.ALGEBRA_FILE_CAP:,} characters")
    try:
        payload = json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    A = quadalg.load_algebra_payload(payload)
    cls, k = quadalg.classify_handelman(A)
    result = {
        "field": A.field.name,
        "dim": A.dimension,
        "quadratic": cls != quadalg.HandelmanClass.NotQuadratic,
        "class": cls.value,
        "maximal_ideals": k,
    }
    return "alg classify", f"{A.field.name} dim {A.dimension}", result, 0


def _idealization_check(args):
    idealization.check_caps(args.rank, args.prec, args.trials)
    ring = idealization.make_ring(args.field, args.rank, args.prec)

    top = min(6, args.prec // 2)
    lengths = idealization.hilbert_lengths(ring, top)
    probes = [{"n": n, "length": length} for n, length in enumerate(lengths, 1)]
    skipped = [{"n": n, "reason": "PrecisionTooLow"} for n in range(top + 1, 7)]
    expected_slope = 1 + args.rank
    diffs = [b - a for a, b in zip(lengths, lengths[1:])]
    slope_ok = all(d == expected_slope for d in diffs)

    prime = idealization.square_zero_prime_check(ring)
    stability = idealization.stability_sweep(ring, args.trials, args.seed)

    ok = (prime["p_squared_zero"] and prime["quotient_is_dvr"] and slope_ok
          and stability["not_stable"] == 0 and stability["inconclusive_rate"] < 0.05)
    result = {
        "field": args.field,
        "rank": args.rank,
        "precision": args.prec,
        "square_zero_prime": prime,
        "hilbert": dict(probes=probes, skipped=skipped, expected_slope=expected_slope, slope_ok=slope_ok),
        "stability": stability,
        "margin_convention": (
            "verdicts are certified on coefficients below prec//2; "
            "the margin rule is this tool's own convention"
        ),
        "pass": ok,
    }
    command = f"idealization check --field {args.field} --rank {args.rank} --prec {args.prec}"
    input_form = f"{args.field} rank {args.rank} prec {args.prec} trials {args.trials}"
    return command, input_form, result, 0 if ok else 1


def _arg(*flags, **kwargs) -> tuple:
    return flags, kwargs


GENERATORS = _arg("generators")

# group words -> (help, dest of its leaves' subparsers)
GROUPS = {
    ("sg",): ("numerical semigroup analyses", "sgcmd"),
    ("alg",): ("structure-constant algebra analyses", "algcmd"),
    ("idealization",): ("truncated Nagata idealization checks", "idecmd"),
}

# argv words -> (handler, help, *leaf arguments), in --help order
COMMANDS = {
    ("sg", "info"): (_sg_info, "invariants of a semigroup", GENERATORS),
    ("sg", "ideal"): (
        _sg_ideal,
        "relative ideal analysis",
        GENERATORS,
        _arg("--ideal", required=True, help="comma-separated ideal generators (may be negative)"),
        _arg("--stable", action="store_true", help="print only the stability verdict in text mode"),
    ),
    ("sg", "tower"): (
        _sg_tower, "blow-up tower of endomorphism semigroups", GENERATORS, _arg("--cap", type=int, default=64)
    ),
    ("sg", "report"): (_sg_report, "stable/quadratic/Bass agreement report", GENERATORS),
    ("sg", "two-gen"): (
        _sg_two_gen, "two-generated power biconditional", GENERATORS, _arg("--n-max", type=int, default=8)
    ),
    ("sweep",): (
        _sweep,
        "run the full invariant suite over all semigroups up to a genus",
        _arg("--max-genus", type=int, required=True),
        _arg("--n-max", type=int, default=8),
        _arg(
            "--sally-genus-cap",
            type=int,
            default=sweep.SALLY_GENUS_CAP,
            help="genus cap for the per-ideal two-generated-power sweep",
        ),
    ),
    ("alg", "classify"): (
        _alg_classify,
        "validate and classify an algebra file",
        _arg("file", help="JSON file: {field, dim, table}"),
    ),
    ("idealization", "check"): (
        _idealization_check,
        "square-zero prime, Hilbert slope, stability sweep",
        _arg("--field", default="F2", choices=sorted(idealization.DOMAINS)),
        _arg("--rank", type=int, default=1),
        _arg("--prec", type=int, default=16),
        _arg("--trials", type=int, default=100),
    ),
}

# every leaf takes these after its own arguments
COMMON = (
    _arg("--json", action="store_true", help="emit the JSON report"),
    _arg("--seed", type=int, default=0, help="seed echoed in reports and used by randomized checks"),
    _arg("--jobs", type=int, default=sweep.usable_cpus(), help="worker processes for sweeps"),
    _arg("--no-timing", action="store_true", help="omit elapsed time for byte-stable output"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stablerings",
        description="Exact workbench for one-dimensional stable local ring models.",
    )
    subparsers = {(): parser.add_subparsers(dest="cmd", required=True)}
    for words, (handler, help_text, *arguments) in COMMANDS.items():
        group = words[:-1]
        if group not in subparsers:
            group_help, dest = GROUPS[group]
            group_parser = subparsers[()].add_parser(*group, help=group_help)
            subparsers[group] = group_parser.add_subparsers(dest=dest, required=True)
        p = subparsers[group].add_parser(words[-1], help=help_text)
        for flags, kwargs in (*arguments, *COMMON):
            p.add_argument(*flags, **kwargs)
        p.set_defaults(run=handler)
    return parser


def _join_ideal_values(argv: list[str]) -> list[str]:
    """Rewrite ``--ideal VALUE`` as ``--ideal=VALUE``.

    argparse takes a separate value that starts with '-' but is not a plain
    negative number, such as ``-1,0``, for an unknown option.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--ideal":
            out[-1] = f"--ideal={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_ideal_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    started = time.monotonic()
    try:
        command, input_form, result, code = args.run(args)
        emit(args, command, input_form, result, started)
        return code
    except CapExceeded as exc:
        print(f"error: CapExceeded: {exc}", file=sys.stderr)
        return 3
    except (StableringsError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
