"""Per-layer metrics from the spans a traced run writes, plus computed kernel counts.

A span is [name, start_ns, end_ns, parent_index, work, error] (see child.py).
busy_s is the total span time of a name, self_s is busy_s minus the time of
its traced child spans, and percentiles are over calls. The FLOP and byte
figures are computed from the architecture and batch sizes, not measured, so
they repeat exactly between runs of the same workload.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

TRAINING_ROOTS = ("federation.train_federated", "federation.train_centralized")

# metric names that are computed from shapes rather than measured
COMPUTED = ("nn.loss_and_grad_raw.gflops", "nn.loss_and_grad_raw.gflop", "data.shard_batches.bytes_copied",
            "nn.param_bytes")


def loss_and_grad_flops(layer_sizes: list[int], batch: int) -> int:
    """Matmul FLOPs of one loss_and_grad_raw call on a batch of `batch` rows.

    Forward h @ W is 2*B*d_in*d_out per layer, the weight gradient
    acts.T @ delta is the same again, and propagating delta @ W.T through
    every layer but the first adds 2*B*d_in*d_out once more.
    """
    pairs = [din * dout for din, dout in zip(layer_sizes[:-1], layer_sizes[1:])]
    return 2 * batch * (2 * sum(pairs) + sum(pairs[1:]))


def param_bytes(layer_sizes: list[int]) -> int:
    """Bytes of the flat float64 parameter vector."""
    return 8 * sum((din + 1) * dout for din, dout in zip(layer_sizes[:-1], layer_sizes[1:]))


def _percentile_us(durations_ns: list[int], q: int) -> float:
    if not durations_ns:
        return 0.0
    if len(durations_ns) == 1:
        return durations_ns[0] / 1e3
    return statistics.quantiles(durations_ns, n=100, method="inclusive")[q - 1] / 1e3


class SpanTable:
    """Durations, self times and work of the spans grouped by name."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.child_ns = [0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                self.child_ns[parent] += end - start
        self.dur_ns: dict[str, list[int]] = defaultdict(list)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.work: dict[str, list] = defaultdict(list)
        self.errors: dict[str, list[str]] = defaultdict(list)
        for i, (name, start, end, _, work, error) in enumerate(spans):
            self.dur_ns[name].append(end - start)
            self.self_ns[name] += end - start - self.child_ns[i]
            if work is not None:
                self.work[name].append(work)
            if error is not None:
                self.errors[name].append(error)
        self.root_index = next((i for i, s in enumerate(spans) if s[0] in TRAINING_ROOTS), None)

    def calls(self, name: str) -> int:
        return len(self.dur_ns[name])

    def busy_s(self, name: str) -> float:
        return sum(self.dur_ns[name]) / 1e9

    def self_s(self, name: str) -> float:
        return self.self_ns[name] / 1e9

    def training_self_sum_s(self) -> float:
        """Sum of the self times of the training root span and every span under it."""
        if self.root_index is None:
            return 0.0
        under = [False] * len(self.spans)
        total = 0
        for i, (_, start, end, parent, _, _) in enumerate(self.spans):
            # spans are stored in start order, so a parent precedes its children
            under[i] = i == self.root_index or (parent >= 0 and under[parent])
            if under[i]:
                total += end - start - self.child_ns[i]
        return total / 1e9


def per_layer_metrics(spans: list[list], layer_sizes: list[int]) -> dict[str, float]:
    """Every per-layer metric except trace.overhead_frac, which needs an untraced run."""
    t = SpanTable(spans)
    m: dict[str, float] = {}

    k = "nn.loss_and_grad_raw"
    flop = sum(loss_and_grad_flops(layer_sizes, rows) for rows in t.work[k])
    m[f"{k}.calls"] = t.calls(k)
    m[f"{k}.busy_s"] = t.busy_s(k)
    m[f"{k}.us_p50"] = _percentile_us(t.dur_ns[k], 50)
    m[f"{k}.us_p99"] = _percentile_us(t.dur_ns[k], 99)
    m[f"{k}.gflop"] = flop / 1e9
    m[f"{k}.gflops"] = flop / 1e9 / t.busy_s(k) if t.calls(k) else 0.0
    m["nn.param_bytes"] = param_bytes(layer_sizes)

    k = "nn.forward_logits"
    m[f"{k}.calls"] = t.calls(k)
    m[f"{k}.busy_s"] = t.busy_s(k)
    m[f"{k}.rows"] = sum(t.work[k])
    for k in ("nn.loss", "nn.server_apply"):
        m[f"{k}.calls"] = t.calls(k)
        m[f"{k}.busy_s"] = t.busy_s(k)
    m["nn.init_params.busy_s"] = t.busy_s("nn.init_params")

    m["data.synth_dataset.busy_s"] = t.busy_s("data.synth_dataset")
    m["data.partition.busy_s"] = t.busy_s("data.partition")
    k = "data.shard_batches"
    row_bytes = 8 * layer_sizes[0] + 8  # one float64 input row plus its int64 label
    m[f"{k}.calls"] = t.calls(k)
    m[f"{k}.busy_s"] = t.busy_s(k)
    m[f"{k}.batches"] = sum(batches for batches, _ in t.work[k])
    m[f"{k}.bytes_copied"] = sum(rows for _, rows in t.work[k]) * row_bytes

    m["rng.derive_seed.calls"] = t.calls("rng.derive_seed")
    m["rng.derive_seed.busy_s"] = t.busy_s("rng.derive_seed")

    m["federation.select_clients.busy_s"] = t.busy_s("federation.select_clients")
    k = "federation.client_update"
    m[f"{k}.calls"] = t.calls(k)
    m[f"{k}.busy_s"] = t.busy_s(k)
    m[f"{k}.self_s"] = t.self_s(k)
    m[f"{k}.us_p50"] = _percentile_us(t.dur_ns[k], 50)
    m[f"{k}.us_p99"] = _percentile_us(t.dur_ns[k], 99)
    m[f"{k}.diverged"] = t.errors[k].count("ClientDivergedError")
    m["federation.aggregate.calls"] = t.calls("federation.aggregate")
    m["federation.aggregate.busy_s"] = t.busy_s("federation.aggregate")
    k = "federation.evaluate"
    m[f"{k}.calls"] = t.calls(k)
    m[f"{k}.busy_s"] = t.busy_s(k)
    m[f"{k}.self_s"] = t.self_s(k)
    m["federation.run_round.self_s"] = t.self_s("federation.run_round")
    m["federation.train_centralized.self_s"] = t.self_s("federation.train_centralized")

    m["harness.resolve_datasets.busy_s"] = t.busy_s("harness.resolve_datasets")
    m["harness.write_rounds_csv.busy_s"] = t.busy_s("harness.write_rounds_csv")
    m["harness.manifest.busy_s"] = t.busy_s("harness.manifest")
    return m
