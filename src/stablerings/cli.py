"""Batch front end: parse inputs, run analyses, emit deterministic reports.

Every command produces one report record: command echo, canonical input,
result payload, tool version, seed, and elapsed time.  JSON is the machine
interface (sorted keys, fixed indentation); text output is a thin flattened
rendering of the same record.  With --no-timing the elapsed-time field is
omitted, making reports byte-comparable; worker count never affects output.

Exit codes: 0 success, 1 theorem violation or check failure, 2 usage or
input error, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__, idealization, numsg, quadalg, relideal, ringlab, sweep
from .errors import CapExceeded, StableringsError


def parse_generators(text: str, allow_negative: bool = False) -> list[int]:
    """Accept '3,4,5' or bracketed forms like '<3,4,5>'."""
    cleaned = text.strip().strip("<>").strip("⟨⟩")
    try:
        gens = [int(p) for p in cleaned.replace(" ", "").split(",") if p != ""]
    except ValueError:
        raise ValueError(f"cannot parse generator list {text!r}") from None
    if not gens:
        raise ValueError(f"cannot parse generator list {text!r}")
    if not allow_negative and min(gens) < 1:
        raise ValueError("semigroup generators must be positive")
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
        elif all(isinstance(v, int) and not isinstance(v, bool) for v in value):
            lines.append(f"{prefix}: {_canonical(value)}")
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


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="emit the JSON report")
    p.add_argument("--seed", type=int, default=0, help="seed echoed in reports and used by randomized checks")
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1, help="worker processes for sweeps")
    p.add_argument("--no-timing", action="store_true", help="omit elapsed time for byte-stable output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stablerings",
        description="Exact workbench for one-dimensional stable local ring models.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    sg = sub.add_parser("sg", help="numerical semigroup analyses")
    sgsub = sg.add_subparsers(dest="sgcmd", required=True)

    p = sgsub.add_parser("info", help="invariants of a semigroup")
    p.add_argument("generators")
    _add_common(p)

    p = sgsub.add_parser("ideal", help="relative ideal analysis")
    p.add_argument("generators")
    p.add_argument("--ideal", required=True, help="comma-separated ideal generators (may be negative)")
    p.add_argument("--stable", action="store_true", help="print only the stability verdict in text mode")
    _add_common(p)

    p = sgsub.add_parser("tower", help="blow-up tower of endomorphism semigroups")
    p.add_argument("generators")
    p.add_argument("--cap", type=int, default=64)
    _add_common(p)

    p = sgsub.add_parser("report", help="stable/quadratic/Bass agreement report")
    p.add_argument("generators")
    _add_common(p)

    p = sgsub.add_parser("two-gen", help="two-generated power biconditional")
    p.add_argument("generators")
    p.add_argument("--n-max", type=int, default=8)
    _add_common(p)

    p = sub.add_parser("sweep", help="run the full invariant suite over all semigroups up to a genus")
    p.add_argument("--max-genus", type=int, required=True)
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument(
        "--sally-genus-cap",
        type=int,
        default=sweep.SALLY_GENUS_CAP,
        help="genus cap for the per-ideal two-generated-power sweep",
    )
    _add_common(p)

    alg = sub.add_parser("alg", help="structure-constant algebra analyses")
    algsub = alg.add_subparsers(dest="algcmd", required=True)
    p = algsub.add_parser("classify", help="validate and classify an algebra file")
    p.add_argument("file", help="JSON file: {field, dim, table}")
    _add_common(p)

    ide = sub.add_parser("idealization", help="truncated Nagata idealization checks")
    idesub = ide.add_subparsers(dest="idecmd", required=True)
    p = idesub.add_parser("check", help="square-zero prime, Hilbert slope, stability sweep")
    p.add_argument("--field", default="F2", choices=sorted(idealization.DOMAINS))
    p.add_argument("--rank", type=int, default=1)
    p.add_argument("--prec", type=int, default=16)
    p.add_argument("--trials", type=int, default=100)
    _add_common(p)

    return parser


def cmd_sg(args) -> int:
    started = time.monotonic()
    if args.sgcmd == "two-gen":
        ringlab.check_n_max(args.n_max)
    gens = parse_generators(args.generators)
    S = numsg.from_generators(gens)
    name = _canonical(S.minimal_generators)

    if args.sgcmd == "info":
        result = {"semigroup": name, **numsg.invariants(S), "gaps": _canonical(S.gaps())}
        emit(args, "sg info", name, result, started)
        return 0

    if args.sgcmd == "ideal":
        igens = set(parse_generators(args.ideal, allow_negative=True))
        if len(igens) > numsg.GENERATOR_CAP:
            raise CapExceeded(f"{len(igens)} distinct ideal generators exceed cap {numsg.GENERATOR_CAP}")
        ideal = relideal.make_ideal(S, igens)
        result = {
            "semigroup": name,
            "ideal": _canonical(ideal.minimal_generators),
            "min": ideal.min_element,
            "mu": relideal.minimal_generator_count(ideal),
            "stable": relideal.is_stable(ideal),
            "endomorphism_semigroup": _canonical(
                relideal.end_semigroup(ideal).minimal_generators
            ),
        }
        if args.stable and not args.json:
            print(f"stable: {'true' if result['stable'] else 'false'}")
            return 0
        emit(args, "sg ideal", f"{name} --ideal {_canonical(ideal.minimal_generators)}", result, started)
        return 0

    if args.sgcmd == "tower":
        rep = relideal.blowup_tower(S, cap=args.cap)
        result = {
            "semigroup": name,
            "tower": [_canonical(t.minimal_generators) for t in rep.tower],
            "multiplicity_sequence": _canonical(rep.multiplicity_sequence),
            "stabilization_index": rep.stabilization_index,
            "reached_normalization": rep.reached_normalization,
        }
        emit(args, "sg tower", name, result, started)
        return 0

    if args.sgcmd == "report":
        rep = ringlab.stable_ring_report(S)
        emit(args, "sg report", name, rep.to_payload(), started)
        return 0

    if args.sgcmd == "two-gen":
        result = {"semigroup": name, **ringlab.two_generator_check(S, args.n_max)}
        emit(args, "sg two-gen", name, result, started)
        return 0

    raise AssertionError(args.sgcmd)


def cmd_sweep(args) -> int:
    started = time.monotonic()
    result = sweep.run_sweep(
        args.max_genus,
        jobs=args.jobs,
        n_max=args.n_max,
        sally_cap=args.sally_genus_cap,
    )
    emit(args, f"sweep --max-genus {args.max_genus}", str(args.max_genus), result, started)
    return 0 if result["violations_total"] == 0 else 1


def cmd_alg(args) -> int:
    started = time.monotonic()
    with open(args.file, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None
    A = quadalg.load_algebra_payload(payload)
    cls = quadalg.classify_handelman(A)
    result = {
        "field": A.field.name,
        "dim": A.dimension,
        "quadratic": cls != quadalg.HandelmanClass.NotQuadratic,
        "class": cls.value,
        "maximal_ideals": quadalg.maximal_ideal_count(A),
    }
    emit(args, "alg classify", f"{A.field.name} dim {A.dimension}", result, started)
    return 0


def cmd_idealization(args) -> int:
    started = time.monotonic()
    idealization.check_caps(args.rank, args.prec, args.trials)
    ring = idealization.make_ring(args.field, args.rank, args.prec)

    top = min(6, args.prec // 2)
    lengths = idealization.hilbert_lengths(ring, top)
    probes = [{"n": n, "length": length} for n, length in enumerate(lengths, 1)]
    skipped = [{"n": n, "reason": "PrecisionTooLow"} for n in range(top + 1, 7)]
    expected_slope = 1 + args.rank
    diffs = [
        probes[i]["length"] - probes[i - 1]["length"] for i in range(1, len(probes))
    ]
    slope_ok = bool(diffs) and all(d == expected_slope for d in diffs)

    prime = idealization.square_zero_prime_check(ring)
    stability = idealization.stability_sweep(ring, args.trials, args.seed)

    ok = (
        prime["p_squared_zero"]
        and prime["quotient_is_dvr"]
        and (slope_ok or not diffs)
        and stability["not_stable"] == 0
        and stability["inconclusive_rate"] < 0.05
    )
    result = {
        "field": args.field,
        "rank": args.rank,
        "precision": args.prec,
        "square_zero_prime": prime,
        "hilbert": {
            "probes": probes,
            "skipped": skipped,
            "expected_slope": expected_slope,
            "slope_ok": slope_ok,
        },
        "stability": stability,
        "margin_convention": (
            "verdicts are certified on coefficients below prec//2; "
            "the margin rule is this tool's own convention"
        ),
        "pass": ok,
    }
    emit(
        args,
        f"idealization check --field {args.field} --rank {args.rank} --prec {args.prec}",
        f"{args.field} rank {args.rank} prec {args.prec} trials {args.trials}",
        result,
        started,
    )
    return 0 if ok else 1


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
    try:
        if args.cmd == "sg":
            return cmd_sg(args)
        if args.cmd == "sweep":
            return cmd_sweep(args)
        if args.cmd == "alg":
            return cmd_alg(args)
        if args.cmd == "idealization":
            return cmd_idealization(args)
        raise AssertionError(args.cmd)
    except CapExceeded as exc:
        print(f"error: CapExceeded: {exc}", file=sys.stderr)
        return 3
    except (StableringsError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
