"""Command-line front end.

Subcommands: train-fed, train-central, cost, sweep, partition-stats. Each
takes --config <path>, repeatable --set key=value overrides, and --out <dir>.
Exit codes: 0 success, 2 config error, 3 training divergence, 4 I/O error,
130 interrupted by SIGINT (Ctrl-C), 143 stopped by SIGTERM. Every way a run
ends after its manifest is started goes through one finish path, which
records the outcome in the manifest: run.status = complete, failed (with
run.error; a diverged run also records run.failed_round) or interrupted.
A stopped training run keeps the rounds it completed in its rounds CSV. A
stop prints one stderr line and no traceback; any other exception is a bug:
its run is recorded as failed and the exception is raised again (exit 1,
with its traceback). SIGKILL is the one stop that leaves run.status =
running and no rounds CSV, since the process gets no chance to write them.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

from .config import Value, apply_overrides, load_config
from .data import IdxFormatError
from .federation import ClientDivergedError
from .harness import (
    effective_config,
    finish_manifest,
    run_cost,
    run_partition_stats,
    run_sweep,
    run_train_central,
    run_train_fed,
    start_manifest,
)

# command -> (help, run function). A run function takes (cfg, out_dir, meta), may add
# run.* entries for the manifest to meta, and returns (outputs, text to print).
COMMANDS = {
    "train-fed": ("run a federated training experiment", run_train_fed),
    "train-central": ("run the centralized baseline", run_train_central),
    "cost": ("evaluate cloud cost scenarios", run_cost),
    "sweep": ("sweep one cost dimension", run_sweep),
    "partition-stats": ("report per-client shard statistics", run_partition_stats),
}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_IO = 4
EXIT_INTERRUPTED = 128  # plus the signal number, as a shell reports it: 130 for SIGINT, 143 for SIGTERM

# (exception types, exit code, stderr label) of the stops that are not bugs; the first match wins
STOPS = (
    (ClientDivergedError, EXIT_DIVERGED, "diverged"),
    ((IdxFormatError, OSError), EXIT_IO, "i/o error"),
    (ValueError, EXIT_CONFIG, "config error"),  # ConfigError, FieldError, PartitionError, ShapeMismatchError
)


def _add_common_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", type=Path, default=None, help="flat key=value config file")
    sub.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    )
    sub.add_argument("--out", type=Path, default=Path("out"), help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in COMMANDS.items():
        _add_common_args(sub.add_parser(name, help=help_text))
    return parser


def _load_effective(args) -> dict:
    cfg = load_config(args.config) if args.config is not None else {}
    cfg = apply_overrides(cfg, args.overrides)
    return effective_config(cfg)


def _raise_interrupt(signum, frame):
    """SIGTERM handler: stop the way Python stops on SIGINT, naming the signal."""
    raise KeyboardInterrupt(signum)


def _outcome(stop: BaseException) -> tuple[int | None, str, dict[str, Value]]:
    """Exit code (None for a bug), stderr line and manifest run.* entries of a run that stop ended."""
    if isinstance(stop, KeyboardInterrupt):
        signum = signal.Signals(stop.args[0] if stop.args else signal.SIGINT)
        return EXIT_INTERRUPTED + signum, f"interrupted: stopped by {signum.name}", {"run.status": "interrupted"}
    code, label = next(((code, label) for kinds, code, label in STOPS if isinstance(stop, kinds)), (None, None))
    message = f"{label or type(stop).__name__}: {stop}"
    entries: dict[str, Value] = {"run.status": "failed", "run.error": " ".join(message.split())}
    if isinstance(stop, ClientDivergedError) and stop.round_index is not None:
        entries["run.failed_round"] = stop.round_index
    return code, message, entries


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    manifest, cfg, meta, stop = None, {}, {}, None
    previous = signal.signal(signal.SIGTERM, _raise_interrupt)
    try:
        try:
            cfg = _load_effective(args)
            args.out.mkdir(parents=True, exist_ok=True)
            manifest = start_manifest(args.out, args.command, cfg)
            outputs, text = COMMANDS[args.command][1](cfg, args.out, meta)
            meta.update({"run.status": "complete", "run.outputs": ",".join(p.name for p in outputs)})
        except BaseException as err:  # a bug too: its run is recorded as failed, then it is raised again
            stop = err
            meta.update(_outcome(stop)[2])
        if manifest is not None:  # the one finish path, whatever the outcome
            try:
                finish_manifest(manifest, cfg, args.command, meta)
            except OSError as err:
                stop = stop or err  # a run that already stopped reports its own stop
    finally:
        signal.signal(signal.SIGTERM, previous)
    if stop is None:
        if text:
            print(text)
        for path in outputs:
            print(f"wrote {path}")
        return EXIT_OK
    code, message, _ = _outcome(stop)
    if code is None:
        raise stop
    print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
