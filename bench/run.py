"""Benchmark of snnicheck on seeded net suites, timed in whole passes.

Run from the repository root:

    python3 bench/run.py --workload battery --seed 0 --seconds 30 --trace 0

Workloads are ``battery``, ``deep-unfold`` and ``state-space`` (see
README.md).  The run builds the workload's net documents from the seed
(timed as set-up, three times and again after every round), runs one
untimed warm-up round, then whole rounds while they fit in ``--seconds``,
and confirms every output with the reference in ``reference.py``.  The
operations' costs are read in units of fixed reference work timed
alongside them (``yardstick.py``), since the host's speed drifts.  With
``--trace 1`` it instead alternates untraced and traced rounds, reports
per-layer metrics and writes the spans to ``bench/results/``.  Progress goes to stderr; the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The package is imported from this checkout's ``src`` only; without it the
run exits with a non-zero status and prints no result.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SOURCE_DIR = BENCH_DIR.parent / "src"
RESULTS_DIR = BENCH_DIR / "results"
OPERATIONS = ("check", "oracle", "brg")
#: Set-ups before the warm-up round; one more follows every timed round.
SETUP_REPEATS = 3


def _parse_args(argv: list[str] | None, workloads) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def _import_checkout_package() -> None:
    """Put this checkout's ``src`` first on the path, and refuse any other copy."""
    if not (SOURCE_DIR / "snnicheck" / "__init__.py").is_file():
        sys.exit(f"error: no snnicheck package under {SOURCE_DIR}")
    sys.path.insert(0, str(SOURCE_DIR))
    import snnicheck
    if Path(snnicheck.__file__).resolve().parent != SOURCE_DIR / "snnicheck":
        sys.exit(f"error: imported snnicheck from {snnicheck.__file__}, not from {SOURCE_DIR}")


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _build(suite, workload, seed: int, setup_times: list[float], ledger, first=None):
    """One timed set-up: generate and serialise the workload's nets.

    A repeat must give the same documents as the ``first`` set-up.
    """
    start = time.perf_counter()
    nets = suite.build_documents(workload, seed)
    setup_times.append(time.perf_counter() - start)
    if first is not None and nets != first:
        ledger.problems.append("set-up gave other documents on a repeat")
    return nets


def main(argv: list[str] | None = None) -> int:
    _import_checkout_package()
    import suite
    import tracing
    import yardstick

    args = _parse_args(argv, suite.WORKLOADS)
    workload = suite.WORKLOADS[args.workload]
    ledger = suite.Ledger()
    setup_times: list[float] = []
    nets = _build(suite, workload, args.seed, setup_times, ledger)
    for _ in range(SETUP_REPEATS - 1):
        _build(suite, workload, args.seed, setup_times, ledger, nets)
    _log(f"{args.workload}: {len(nets)} nets, set-up {statistics.median(setup_times):.3f} s")

    yard = yardstick.Yardstick()
    yard.start()
    try:
        suite.run_round(workload, nets, ledger, yard)  # warm-up, discarded
        tracer = tracing.Tracer(nets, yard.clock) if args.trace else None
        plain, traced = [], []
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            plain.append(suite.run_round(workload, nets, ledger, yard))
            if tracer is not None:
                traced.append(suite.run_round(workload, nets, ledger, yard, tracer.traced_call))
                tracer.close_round(workload.round)
            # Set-up again between rounds, so that its median also spans the run.
            _build(suite, workload, args.seed, setup_times, ledger, nets)
            _log(f"round {len(plain)}: " + " ".join(
                f"{op}={g.seconds:.3f}s/{g.units}u" for op, g in plain[-1].items()))
            now = time.perf_counter()
            # Whole rounds only; stop before one that would run past --seconds.
            if now - start + (now - round_start) > args.seconds:
                break
    finally:
        yard.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checked = time.perf_counter()
    problems = ledger.problems + suite.verify(workload, nets, ledger.first)
    _log(f"outputs checked against the reference in {time.perf_counter() - checked:.1f} s")
    for problem in problems:
        _log(f"INCORRECT: {problem}")

    repeats = dict(workload.round)
    plain_units = suite.pass_units(plain, repeats)
    if tracer is None:
        metrics = {f"{op}_rel_cost": {"value": plain_units[op], "unit": "ref"}
                   for op in OPERATIONS}
        metrics["setup_s"] = {"value": statistics.median(setup_times), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    else:
        traced_units = suite.pass_units(traced, repeats)
        layers = tracer.layer_metrics()
        # Traced over untraced rounds, each in yardstick units.
        ops_units = [sum(units[op] * repeats[op] for op in OPERATIONS)
                     for units in (plain_units, traced_units)]
        layers["trace.overhead_pct"] = 100.0 * (ops_units[1] / ops_units[0] - 1.0)
        # The untraced rounds' rates in nets per second of this host, and
        # the host's speed as the yardstick saw it.
        for op in OPERATIONS:
            layers[f"raw.{op}_nets_per_s"] = (sum(r[op].done for r in plain)
                                              / sum(r[op].seconds for r in plain))
        layers["host.ref_unit_s"] = suite.unit_seconds(plain)
        metrics = {name: {"value": value, "unit": _unit(name)} for name, value in layers.items()}
        RESULTS_DIR.mkdir(exist_ok=True)
        out = RESULTS_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                   "span_fields": ["name", "start", "end", "parent", "net",
                                                   "counts"],
                                   "spans": tracer.dump()}))
        _log(f"spans written to {out}")

    print(json.dumps({"correct": not problems, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("per_brg_state"):
        return "nodes/state"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
