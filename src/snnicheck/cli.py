"""Command-line front end.

Exit codes: 0 means the net is interference-free, 1 means it is not,
2 means the input or a standing assumption was rejected.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .basis import build_brg, build_ubrg
from .dot import export_dot, format_marking
from .explanations import minimal_e_vector_sets
from .fixtures import DEMOS, fixture_document
from .netdoc import parse_net, serialize_net
from .oracle import snni_oracle
from .petri import (DEFAULT_EXPLORATION_CAP, AssumptionReport, LabeledPetriNet,
                    NetError, check_assumptions, format_word)
from .randnets import random_lpn
from .reach import reachability_graph
from .report import analyze
from .verifier import build_sv


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--net", required=True, help="path to a net document")
    sub.add_argument("--out", help="write output here instead of stdout")
    sub.add_argument("--cap", type=int, default=DEFAULT_EXPLORATION_CAP,
                     help="exploration cap on distinct markings")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snnicheck",
        description="Non-interference analysis of bounded labeled Petri nets.")
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser("check", help="full pipeline verdict with report")
    _add_common(check)
    check.set_defaults(func=_cmd_check)

    oracle = commands.add_parser("oracle", help="brute-force language-equality verdict")
    _add_common(oracle)
    oracle.set_defaults(func=_cmd_oracle)

    for name, help_text in (("brg", "export the basis reachability graph"),
                            ("ubrg", "export the unfolded basis graph"),
                            ("sv", "export the verifier automaton"),
                            ("reach", "export the full reachability graph")):
        sub = commands.add_parser(name, help=help_text)
        _add_common(sub)
        sub.set_defaults(func=_cmd_export, graph=name)

    info = commands.add_parser("info", help="boundedness and acyclicity report")
    _add_common(info)
    info.set_defaults(func=_cmd_info)

    explain = commands.add_parser("explain", help="minimal explanation vectors at a marking")
    _add_common(explain)
    explain.add_argument("--marking", help="marking as space-separated token counts "
                                           "(default: initial marking)")
    explain.add_argument("--transition", help="restrict to one low transition")
    explain.set_defaults(func=_cmd_explain)

    gen = commands.add_parser("gen", help="emit a net document (random or bundled demo)")
    gen.add_argument("--out", help="write output here instead of stdout")
    gen.add_argument("--seed", type=int, help="seed for a random net")
    gen.add_argument("--demo", choices=sorted(DEMOS), help="bundled demo net")
    gen.set_defaults(func=_cmd_gen)

    for sub in (check, oracle, info, explain):
        sub.add_argument("--format", choices=["text", "machine-readable"], default="text",
                         help="report format")
    return parser


def run_cli(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


def _load_net(args) -> LabeledPetriNet:
    return parse_net(Path(args.net).read_bytes())


def _emit(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_check(args) -> int:
    report = analyze(_load_net(args), args.cap)
    if args.format == "machine-readable":
        _emit(args, json.dumps(report.to_dict(), indent=2) + "\n")
    else:
        _emit(args, report.to_text())
    return 0 if report.verdict.snni else 1


def _cmd_oracle(args) -> int:
    verdict = snni_oracle(_load_net(args), args.cap)
    if args.format == "machine-readable":
        payload = {"snni": verdict.snni,
                   "counterexample": list(verdict.counterexample)
                   if verdict.counterexample is not None else None}
        _emit(args, json.dumps(payload, indent=2) + "\n")
    else:
        lines = [f"verdict: {'SNNI' if verdict.snni else 'NOT SNNI'}"]
        if verdict.counterexample is not None:
            lines.append(f"leaked low word (shortest): {format_word(verdict.counterexample)}")
        _emit(args, "\n".join(lines) + "\n")
    return 0 if verdict.snni else 1


def _cmd_export(args) -> int:
    lpn = _load_net(args)
    if args.graph == "brg":
        graph = build_brg(lpn, args.cap)
    elif args.graph == "ubrg":
        graph = build_ubrg(lpn, args.cap)
    elif args.graph == "sv":
        graph = build_sv(lpn, args.cap)
    else:
        graph = reachability_graph(lpn.net, args.cap)
    _emit(args, export_dot(graph))
    return 0


def _assumption_dict(report: AssumptionReport) -> dict:
    witness = report.domination_witness
    return {
        "ok": report.ok,
        "bounded": report.bounded,
        "reachable_markings": report.reachable_count,
        "domination_witness": None if witness is None else
            {"path": list(witness.path), "pump_start": witness.pump_start},
        "high_subnet_acyclic": report.high_subnet_acyclic,
        "high_cycle": list(report.high_cycle) if report.high_cycle else None,
        "cap": report.cap,
    }


def _cmd_info(args) -> int:
    report = check_assumptions(_load_net(args), args.cap)
    if args.format == "machine-readable":
        _emit(args, json.dumps(_assumption_dict(report), indent=2) + "\n")
    elif report.ok:
        _emit(args, f"assumptions hold: bounded ({report.reachable_count} reachable "
                    "markings), high subnet acyclic\n")
    else:
        _emit(args, report.describe_failure() + "\n")
    return 0 if report.ok else 2


def _cmd_explain(args) -> int:
    lpn = _load_net(args)
    if args.marking is None:
        marking = lpn.net.initial_marking
    else:
        try:
            marking = lpn.net.check_marking([int(v) for v in args.marking.replace(",", " ").split()])
        except ValueError as exc:
            raise NetError(f"malformed marking {args.marking!r}: {exc}") from exc
    targets = [args.transition] if args.transition else list(lpn.low_transitions)
    results = {t: sorted(found.evectors) for t, found
               in minimal_e_vector_sets(lpn, marking, targets, args.cap).items()}
    if args.format == "machine-readable":
        payload = {"marking": list(marking),
                   "high_transitions": list(lpn.high_transitions),
                   "minimal_e_vectors": {t: [list(v) for v in vs] for t, vs in results.items()}}
        _emit(args, json.dumps(payload, indent=2) + "\n")
    else:
        lines = [f"marking {format_marking(marking)}, high order {lpn.high_transitions}"]
        for t, vectors in results.items():
            rendered = ", ".join(format_marking(v) for v in vectors) if vectors else "none"
            lines.append(f"  {t}: {rendered}")
        _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_gen(args) -> int:
    if (args.demo is None) == (args.seed is None):
        raise NetError("gen needs exactly one of --demo or --seed")
    if args.demo is not None:
        _emit(args, fixture_document(args.demo))
    else:
        _emit(args, serialize_net(random_lpn(args.seed)))
    return 0


if __name__ == "__main__":
    main()
