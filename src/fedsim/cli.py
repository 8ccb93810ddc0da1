"""Command-line front end.

Subcommands: train-fed, train-central, cost, sweep, partition-stats. Each
takes --config <path>, repeatable --set key=value overrides, and --out <dir>.
Exit codes: 0 success, 2 config error, 3 training divergence, 4 I/O error,
130 interrupted (SIGINT, Ctrl-C). A run that fails after its manifest is
started leaves run.status = failed; a diverged run also keeps the rounds it
completed in its rounds CSV and records run.failed_round. An interrupted run
leaves run.status = interrupted and prints one line, no traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path

from .config import ConfigError, apply_overrides, load_config
from .data import IdxFormatError, PartitionError
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
EXIT_INTERRUPTED = 130  # 128 + SIGINT, what a shell reports for a command stopped by Ctrl-C


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


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    manifest = None
    meta: dict = {}
    try:
        cfg = _load_effective(args)
        out_dir = args.out
        out_dir.mkdir(parents=True, exist_ok=True)
        manifest = start_manifest(out_dir, args.command, cfg)
        _, run = COMMANDS[args.command]
        outputs, text = run(cfg, out_dir, meta)
        finish_manifest(manifest, cfg, args.command, outputs, run_meta=meta)
        if text:
            print(text)
        for path in outputs:
            print(f"wrote {path}")
        return EXIT_OK
    except ConfigError as err:
        code, label, error = EXIT_CONFIG, "config error", err
    except ClientDivergedError as err:
        code, label, error = EXIT_DIVERGED, "diverged", err
    except (IdxFormatError, OSError) as err:
        code, label, error = EXIT_IO, "i/o error", err
    except (PartitionError, ValueError) as err:
        code, label, error = EXIT_CONFIG, "config error", err
    except KeyboardInterrupt:
        code, label, error = EXIT_INTERRUPTED, "interrupted", "stopped by SIGINT"
    message = f"{label}: {error}"
    print(message, file=sys.stderr)
    if manifest is not None:
        failed_round = error.round_index if isinstance(error, ClientDivergedError) else None
        with contextlib.suppress(OSError):
            finish_manifest(
                manifest, cfg, args.command, [], error=message, failed_round=failed_round,
                run_meta=meta, interrupted=code == EXIT_INTERRUPTED,
            )
    return code


if __name__ == "__main__":
    sys.exit(main())
