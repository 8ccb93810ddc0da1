"""Run one fedsim CLI command in this fresh process and record what the benchmark needs.

Usage (bench/run.py starts it; it is not meant to be run by hand):

    PYTHONPATH=src python3 bench/child.py --command train-fed --config CFG --seed N \
        --out DIR --result RESULT.json [--spans SPANS.json]

The command runs in-process through ``fedsim.cli.main``. The only hook that is
always installed times ``fedsim.harness.train_federated`` /
``train_centralized`` (the start of training ends set-up) and keeps the final
weights they return, so the result digest covers the weights as well as the
data columns of rounds.csv. With --spans the public functions of every module
are also wrapped at the names their callers look up, and each call is kept as
a span (name, start, end, parent) in memory and written out at the end.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import importlib
import json
import resource
import sys
import time
from pathlib import Path

DATA_COLUMNS = ("round", "train_acc", "test_acc", "mean_client_loss")


def _rows_of_inputs(args, result) -> int:
    # loss_and_grad_raw(values, spec, inputs, labels) and forward_logits(values, spec, inputs)
    return int(args[2].shape[0])


def _batches_and_rows(args, result) -> tuple[int, int]:
    return len(result), sum(int(b.inputs.shape[0]) for b in result)


# (span name, module, attribute, work recorder). Each attribute is the global a
# caller looks up, so the wrapper sees every call made through that module.
TRACE_POINTS = (
    ("nn.loss_and_grad_raw", "fedsim.federation", "loss_and_grad_raw", _rows_of_inputs),
    ("nn.forward_logits", "fedsim.federation", "forward_logits", _rows_of_inputs),
    ("nn.forward_logits", "fedsim.nn", "forward_logits", _rows_of_inputs),
    ("nn.loss", "fedsim.federation", "loss", None),
    ("nn.server_apply", "fedsim.federation", "server_apply", None),
    ("nn.init_params", "fedsim.federation", "init_params", None),
    ("data.synth_dataset", "fedsim.harness", "synth_dataset", None),
    ("data.partition", "fedsim.harness", "partition", None),
    ("data.shard_batches", "fedsim.federation", "shard_batches", _batches_and_rows),
    ("rng.derive_seed", "fedsim.federation", "derive_seed", None),
    ("rng.derive_seed", "fedsim.harness", "derive_seed", None),
    ("federation.select_clients", "fedsim.federation", "select_clients", None),
    ("federation.client_update", "fedsim.federation", "client_update", None),
    ("federation.aggregate", "fedsim.federation", "aggregate_weights", None),
    ("federation.aggregate", "fedsim.federation", "aggregate_deltas", None),
    ("federation.evaluate", "fedsim.federation", "evaluate", None),
    ("federation.run_round", "fedsim.federation", "run_round", None),
    ("federation.train_federated", "fedsim.harness", "train_federated", None),
    ("federation.train_centralized", "fedsim.harness", "train_centralized", None),
    ("harness.resolve_datasets", "fedsim.harness", "resolve_datasets", None),
    ("harness.write_rounds_csv", "fedsim.harness", "write_rounds_csv", None),
    ("harness.manifest", "fedsim.cli", "start_manifest", None),
    ("harness.manifest", "fedsim.cli", "finish_manifest", None),
)


class Tracer:
    """In-memory span store. A span is [name, start_ns, end_ns, parent, work, error]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]

    def wrap(self, module, attr: str, name: str, work=None) -> None:
        fn = getattr(module, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1], None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if work is not None:
                span[4] = work(args, result)
            return result

        setattr(module, attr, traced)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans, separators=(",", ":")))


def _hook_training(harness, record: dict) -> None:
    """Time the training call and keep its final weights; it runs once per custom experiment."""

    def hook(attr: str, weights_of):
        fn = getattr(harness, attr)

        @functools.wraps(fn)
        def timed(model, *args, **kwargs):
            record["train_start"] = time.monotonic()
            started = time.perf_counter()
            result = fn(model, *args, **kwargs)
            record["train_s"] = time.perf_counter() - started
            record["layer_sizes"] = list(model.layer_sizes)
            record["weights"] = weights_of(result)
            record["train_calls"] = record.get("train_calls", 0) + 1
            return result

        setattr(harness, attr, timed)

    hook("train_federated", lambda result: result[1].weights.values)
    hook("train_centralized", lambda result: result[1].values)


def digest_and_rows(rounds_csv: Path, weights) -> tuple[str, list[dict]]:
    """sha256 over the data columns of rounds.csv (not elapsed_s) and the final weight bytes."""
    h = hashlib.sha256()
    with open(rounds_csv, newline="") as f:
        rows = list(csv.DictReader(f))
    for row in rows:
        h.update((",".join(row[c] for c in DATA_COLUMNS) + "\n").encode())
    h.update(weights.astype("<f8", copy=False).tobytes())
    return h.hexdigest(), rows


def _blas() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": blas.get("name"), "blas_version": blas.get("version")}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--command", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    import fedsim.cli  # found through PYTHONPATH, which run.py points at the checkout's src/
    import fedsim.harness

    record: dict = {}
    tracer = None
    if args.spans is not None:
        tracer = Tracer()
        for name, module, attr, work in TRACE_POINTS:
            tracer.wrap(importlib.import_module(module), attr, name, work)
    _hook_training(fedsim.harness, record)

    code = fedsim.cli.main([
        args.command, "--config", args.config, "--set", f"seed={args.seed}", "--out", str(args.out),
    ])
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    weights = record.pop("weights", None)
    if code == 0 and weights is not None:
        record["digest"], rows = digest_and_rows(args.out / "rounds.csv", weights)
        record["rounds"] = len(rows)
        record["final_test_acc"] = float(rows[-1]["test_acc"]) if rows and rows[-1]["test_acc"] else None
    record.update(_blas())
    if tracer is not None:
        tracer.dump(args.spans)
    args.result.write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main())
