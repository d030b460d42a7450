"""``python -m repro`` — the experiment command line.

Subcommands
-----------
* ``sweep``   — run the failure-rate sweep and emit JSON (and optionally CSV):
  ``python -m repro sweep --system frodo3 --rates 0,10,20 --runs 20 --out results.json``.
  ``--jobs N`` runs cells on a process pool (output stays byte-identical to
  serial); ``--resume ck.json`` checkpoints every finished cell there and
  skips cells the file already contains.  Observability (never changes the
  results): ``--trace-dir out/`` streams one NDJSON trace per cell plus a
  ``telemetry.ndjson`` journal, ``--progress`` prints live cells/s and ETA
  to stderr.  Fault tolerance: ``--cell-timeout`` bounds individual cells,
  ``--max-cell-failures N`` quarantines up to N failed cells instead of
  aborting (their gaps stay explicit; exit 3), and Ctrl-C flushes completed
  cells to ``--resume`` and prints the exact resume command.  A failed or
  interrupted cell runs again when the sweep is resumed from its
  ``--resume`` checkpoint.
* ``run``     — execute a single scenario and print its RunResult as JSON;
  ``--trace t.ndjson`` streams the full event trace there.
* ``trace``   — analyse captured NDJSON traces:
  ``python -m repro trace summarize out/`` (record, event and message-kind
  histograms, all kinds and update-related ones), ``trace timeline``
  (record listing); both accept ``--since/--until`` (inclusive) and
  ``--category`` filters.
* ``systems`` — list the deployable systems of the protocol registry.
* ``scenarios`` — list the disruption-scenario families of the scenario
  registry (selectable on ``sweep``/``run`` via ``--scenario
  churn@rate=0.1``; default ``table4`` is the paper's model).

Rates are given in percent (``--rates 0,10,20`` sweeps lambda = 0, 0.1, 0.2).
The sweep's ``--users`` accepts a comma-separated list of topology sizes
(``--users 5,100,1000``), forming a full systems x users x rates grid.
Output is deterministic for a given ``--seed``: re-running the same command
produces byte-identical JSON.  ``--out -`` writes to stdout.

Throughput is measured outside the package: ``python3 benchmark/run.py``
times fixed workloads in host-calibrated reference seconds (see
``benchmark/README.md``).  To profile one cell, run ``run`` under the
standard library's profiler (EXPERIMENTS.md, "Profiling workflow").
"""

from __future__ import annotations

import argparse
import shlex
import sys
from typing import Any, List, Optional, Sequence

from repro.experiments.executors import make_executor
from repro.experiments.resilience import PoolRecoveryError, ResiliencePolicy
from repro.experiments.report import (
    format_summary_table,
    summaries_to_csv,
    to_json,
    write_sweep_json,
    write_text,
)
from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenario import (
    DEFAULT_CHANGE_TIME,
    DEFAULT_SIM_DURATION,
    ScenarioSpec,
)
from repro.experiments.scenarios import SCENARIOS
from repro.experiments.sweep import SweepSpec, sweep
from repro.obs.analyze import format_summary, format_timeline, iter_records, summarize
from repro.obs.progress import SweepProgress
from repro.protocols.registry import SYSTEMS
from repro.tokens import UnknownNameError, canonical_token, parse_token, split_token_list


def _parse_percent(token: str) -> float:
    """Parse one failure rate in percent into a fraction."""
    percent = float(token)
    if not 0.0 <= percent <= 100.0:
        raise argparse.ArgumentTypeError(f"rate {token!r} not in [0, 100] percent")
    return percent / 100.0


def _parse_rates(text: str) -> List[float]:
    """Parse ``"0,10,20"`` (percent) into ``[0.0, 0.1, 0.2]``."""
    rates = [_parse_percent(token.strip()) for token in text.split(",") if token.strip()]
    if not rates:
        raise argparse.ArgumentTypeError("no failure rates given")
    return rates


def _positive_int(text: str) -> int:
    """Parse a count that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} must be >= 1")
    return value


def _parse_users(text: str) -> List[int]:
    """Parse ``"5,100,1000"`` into a list of topology sizes."""
    sizes = [_positive_int(token.strip()) for token in text.split(",") if token.strip()]
    if not sizes:
        raise argparse.ArgumentTypeError("no user counts given")
    return sizes


def _add_scenario_arguments(parser: argparse.ArgumentParser, users_grid: bool = False) -> None:
    parser.add_argument("--seed", type=int, default=0, help="base seed (default: 0)")
    if users_grid:
        parser.add_argument(
            "--users",
            type=_parse_users,
            default=[5],
            help="comma-separated numbers of Users, a grid axis (default: 5)",
        )
    else:
        parser.add_argument("--users", type=int, default=5, help="number of Users (default: 5)")
    parser.add_argument(
        "--change-time",
        type=float,
        default=DEFAULT_CHANGE_TIME,
        help=f"service-change time in seconds (default: {DEFAULT_CHANGE_TIME:g})",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=DEFAULT_SIM_DURATION,
        help=f"measurement deadline in seconds (default: {DEFAULT_SIM_DURATION:g})",
    )
    parser.add_argument(
        "--scenario",
        default="table4",
        metavar="NAME[@K=V,...]",
        help=(
            "disruption-scenario family and options, e.g. churn@rate=0.1 "
            "(default: table4, the paper's model; see `python -m repro scenarios`)"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Failure-rate experiments for the service-discovery reproduction.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sweep_parser = subparsers.add_parser("sweep", help="run the failure-rate sweep")
    sweep_parser.add_argument(
        "--system",
        dest="systems",
        action="append",
        required=True,
        help=(
            "system to deploy; repeatable and/or comma-separated, bare name "
            "or name@key=value,... token, e.g. --system frodo3 "
            "--system upnp,jini@k=8,mode=gossip (see 'systems')"
        ),
    )
    sweep_parser.add_argument(
        "--rates",
        type=_parse_rates,
        default=[0.0],
        help="comma-separated failure rates in percent (default: 0)",
    )
    sweep_parser.add_argument(
        "--runs", type=int, default=20, help="replications per cell (default: 20)"
    )
    _add_scenario_arguments(sweep_parser, users_grid=True)
    sweep_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes; >1 runs cells on a process pool (default: 1)",
    )
    sweep_parser.add_argument(
        "--resume",
        default=None,
        metavar="CHECKPOINT",
        help=(
            "checkpoint file: completed cells found there are skipped, new "
            "completions are persisted after every cell"
        ),
    )
    sweep_parser.add_argument(
        "--out", default="-", help="JSON output path, or - for stdout (default: -)"
    )
    sweep_parser.add_argument(
        "--csv", default=None, help="also write the summary table as CSV to this path"
    )
    sweep_parser.add_argument(
        "--per-run", action="store_true", help="include every RunResult in the JSON"
    )
    sweep_parser.add_argument(
        "--table", action="store_true", help="print the summary table to stderr"
    )
    sweep_parser.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help=(
            "stream one NDJSON trace per executed cell into DIR and write a "
            "telemetry.ndjson journal there (results are unchanged)"
        ),
    )
    sweep_parser.add_argument(
        "--progress",
        action="store_true",
        help="print live progress (cells done, cells/s, ETA) to stderr",
    )
    sweep_parser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per cell; an over-budget cell fails",
    )
    sweep_parser.add_argument(
        "--max-cell-failures",
        type=int,
        default=0,
        metavar="N",
        help=(
            "quarantined cells tolerated before aborting the sweep; tolerated "
            "failures leave explicit gaps in the output and exit status 3 "
            "(default: 0)"
        ),
    )

    run_parser = subparsers.add_parser("run", help="execute one scenario")
    run_parser.add_argument("--system", required=True, help="system to deploy")
    run_parser.add_argument(
        "--rate", type=_parse_percent, default=0.0, help="failure rate in percent (default: 0)"
    )
    _add_scenario_arguments(run_parser)
    run_parser.add_argument(
        "--out", default="-", help="JSON output path, or - for stdout (default: -)"
    )
    run_parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="stream the full event trace to PATH as NDJSON (results are unchanged)",
    )

    trace_parser = subparsers.add_parser(
        "trace", help="analyse NDJSON traces captured by sweep --trace-dir / run --trace"
    )
    trace_sub = trace_parser.add_subparsers(dest="trace_command", required=True)

    def _add_trace_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "paths",
            nargs="+",
            metavar="PATH",
            help="trace files and/or trace directories (a --trace-dir)",
        )
        sub.add_argument(
            "--since",
            type=float,
            default=None,
            help="keep records at or after this simulation time (inclusive)",
        )
        sub.add_argument(
            "--until",
            type=float,
            default=None,
            help="keep records at or before this simulation time (inclusive)",
        )
        sub.add_argument(
            "--category", default=None, help="keep only this record category (e.g. net)"
        )

    summarize_parser = trace_sub.add_parser(
        "summarize", help="record counts, time span, and per-category/event/kind histograms"
    )
    _add_trace_arguments(summarize_parser)

    timeline_parser = trace_sub.add_parser(
        "timeline", help="print the filtered records, one per line"
    )
    _add_trace_arguments(timeline_parser)
    timeline_parser.add_argument(
        "--event", default=None, help="keep only this event name (e.g. send)"
    )
    timeline_parser.add_argument(
        "--limit",
        type=_positive_int,
        default=50,
        help="records to print before truncating (default: 50)",
    )
    timeline_parser.add_argument(
        "--show-source",
        action="store_true",
        help="prefix every line with the trace file it came from",
    )

    subparsers.add_parser("systems", help="list deployable systems")
    subparsers.add_parser("scenarios", help="list disruption-scenario families")
    return parser


def _split_systems(values: Sequence[str]) -> List[str]:
    """Flatten repeated/comma-separated ``--system`` values into canonical tokens.

    Values may be bare names or parameterised ``name@k=v,...`` tokens; a
    comma-separated segment containing ``=`` belongs to the preceding
    token's option list (``--system upnp,jini@k=8,mode=gossip,frodo3``),
    anything else starts a new selection.  Each selection is resolved
    against the registry here so bad names/options fail before any cycles
    are spent, and canonicalised so equal selections share cell keys.
    """
    tokens = [token for value in values for token in split_token_list(value)]
    return [SYSTEMS.resolve(token).token for token in tokens]


def _command_sweep(args: argparse.Namespace) -> int:
    scenario_name, scenario_options = parse_token(args.scenario, "scenario")
    spec = SweepSpec(
        systems=tuple(_split_systems(args.systems)),
        failure_rates=tuple(args.rates),
        runs_per_cell=args.runs,
        base_seed=args.seed,
        n_users=args.users[0],
        users=tuple(args.users),
        change_time=args.change_time,
        deadline=args.deadline,
        scenario_name=scenario_name,
        scenario_options=scenario_options,
    )
    policy = ResiliencePolicy(
        cell_timeout=args.cell_timeout, max_cell_failures=args.max_cell_failures
    )
    result = sweep(
        spec,
        executor=make_executor(args.jobs),
        checkpoint=args.resume,
        trace_dir=args.trace_dir,
        progress=SweepProgress(stream=sys.stderr) if args.progress else None,
        policy=policy,
    )
    write_sweep_json(result, args.out, include_runs=args.per_run)
    if args.csv is not None:
        write_text(summaries_to_csv(result.summaries), args.csv)
    if args.table:
        sys.stderr.write(format_summary_table(result.summaries))
    if result.failures:
        keys = ", ".join(failure.key for failure in result.failures)
        print(
            f"warning: {len(result.failures)} cell(s) quarantined ({keys}); "
            f"the output has explicit gaps for them",
            file=sys.stderr,
        )
        return 3
    return 0


def _command_run(args: argparse.Namespace) -> int:
    scenario_name, scenario_options = parse_token(args.scenario, "scenario")
    spec = ScenarioSpec(
        system=SYSTEMS.resolve(args.system).token,
        failure_rate=args.rate,
        seed=args.seed,
        n_users=args.users,
        change_time=args.change_time,
        deadline=args.deadline,
        trace_path=args.trace,
        scenario=scenario_name,
        scenario_options=scenario_options,
    )
    result = ExperimentRunner().run(spec)
    write_text(to_json(result.to_dict()), args.out)
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    since, until, category = args.since, args.until, args.category
    if args.trace_command == "summarize":
        summary = summarize(args.paths, since=since, until=until, category=category)
        sys.stdout.write(format_summary(summary))
    else:  # timeline
        pairs = iter_records(
            args.paths, since=since, until=until, category=category, event=args.event
        )
        sys.stdout.write(format_timeline(pairs, limit=args.limit, show_source=args.show_source))
    return 0


def _default_options(entry: Any) -> str:
    """The option part of the canonical token of an entry's defaults."""
    return canonical_token(entry.name, entry.defaults).partition("@")[2]


def _command_systems() -> int:
    for entry in SYSTEMS:
        line = f"{entry.name:<10} m'={entry.m_prime_form}"
        if entry.alias_of:
            line += f"  [= {entry.alias_of}]"
        elif entry.defaults:
            line += f"  [{_default_options(entry)}]"
        print(f"{line}  {entry.description}")
    return 0


def _command_scenarios() -> int:
    for family in SCENARIOS:
        options = _default_options(family) or "no options"
        print(f"{family.name:<12} [{options}]  {family.description}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(argv) if argv is not None else sys.argv[1:]
    args = build_parser().parse_args(argv)
    try:
        if args.command == "sweep":
            return _command_sweep(args)
        if args.command == "run":
            return _command_run(args)
        if args.command == "trace":
            return _command_trace(args)
        if args.command == "scenarios":
            return _command_scenarios()
        return _command_systems()
    except KeyboardInterrupt:
        # Completed cells were flushed to the checkpoint before the
        # interrupt propagated (the executors drain finished work first),
        # so re-running the very same command resumes where this run died.
        checkpoint = getattr(args, "resume", None)
        if checkpoint:
            command = "python -m repro " + " ".join(shlex.quote(token) for token in argv)
            print(
                f"interrupted: completed cells are checkpointed in {checkpoint!r}; "
                f"resume with:\n  {command}",
                file=sys.stderr,
            )
        else:
            print(
                "interrupted: no --resume checkpoint was given, progress is lost",
                file=sys.stderr,
            )
        return 130
    except (UnknownNameError, PoolRecoveryError, ValueError, OSError) as exc:
        # Bad grids (e.g. --runs 0), unwritable --out paths, exhausted
        # failure budgets, and unrecoverable worker pools surface as clean
        # CLI errors, not tracebacks.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
