"""Experiment harness: presets, dataset resolution, CSV emission, manifests.

Every run directory gets a manifest.txt holding the effective config plus
run metadata under the reserved `run.` namespace. Manifests are themselves
valid configs, so a finished run can be repeated with --config manifest.txt;
all data columns are emitted deterministically (timing columns and manifest
timestamps are the only thing that varies between identical runs).

Preset hyperparameters (client counts, rates, round budgets) are desk-scale
defaults chosen for this simulator, not published values; manifests carry a
note saying so.
"""

from __future__ import annotations

import csv
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    Value,
    as_list,
    coerce_value,
    config_fields,
    format_config,
    format_value,
    from_config,
    get_typed,
    naming_keys,
)
from .costs import (
    DEFAULT_PRICE_SHEET,
    CentralScenario,
    CostBreakdown,
    FlScenario,
    PriceSheet,
    SweepRow,
    fl_deployment_cost,
    fl_training_cost,
    central_cost,
    sweep,
)
from .data import (
    IID,
    SINGLE_LABEL,
    SINGLE_SAMPLE,
    Dataset,
    PartitionPlan,
    load_idx,
    partition,
    synth_dataset,
)
from .federation import (
    FedConfig,
    RoundMetrics,
    check_dataset_fits,
    layout,
    train_centralized,
    train_federated,
)
from .machine import blas_thread_count, fingerprint
from .nn import MlpSpec, ServerOptimizerState, ShapeMismatchError
from .rng import derive_seed

ENV_DATA_DIR = "FEDSIM_DATA_DIR"

CUSTOM = "custom"
SAMPLES_SWEEP = "samples_sweep"
SINGLE_LABEL_SWEEP = "single_label_sweep"
ROUND_CURVES = "round_curves"
CENTRAL_BASELINE = "central_baseline"
COST_MODEL_SIZE_SWEEP = "cost_model_size_sweep"
COST_ROUNDS_SWEEP = "cost_rounds_sweep"
COST_ROUNDS_PER_DAY_SWEEP = "cost_rounds_per_day_sweep"

MNIST_FILES = {
    "data.train_images": "train-images-idx3-ubyte.gz",
    "data.train_labels": "train-labels-idx1-ubyte.gz",
    "data.test_images": "t10k-images-idx3-ubyte.gz",
    "data.test_labels": "t10k-labels-idx1-ubyte.gz",
}

_FED_PRESET_COMMON: dict[str, Value] = {
    "data.source": "mnist",
    "partition.kind": IID,
    "fed.num_clients": 100,
    "fed.client_fraction": 0.1,
    "fed.local_epochs": 5,
    "fed.batch_size": 10,
    "fed.client_lr": 0.1,
    "fed.rounds": 100,
    "fed.update_mode": "send_weights",
    "fed.eval_every": 10,
    "server.kind": "sgd",
    "server.lr": 1.0,
}

PRESETS: dict[str, dict[str, Value]] = {
    CUSTOM: {},
    SAMPLES_SWEEP: {
        **_FED_PRESET_COMMON,
        "preset.arch.0": [784, 10],
        "preset.arch.1": [784, 200, 10],
        "preset.arch.2": [784, 500, 200, 10],
        "preset.samples_per_client": [1, 10, 50, 100, 200],
    },
    SINGLE_LABEL_SWEEP: {
        **_FED_PRESET_COMMON,
        "partition.kind": SINGLE_LABEL,
        "model.layers": [784, 500, 200, 10],
        "preset.samples_per_client": [10, 50, 100, 200],
    },
    ROUND_CURVES: {
        **_FED_PRESET_COMMON,
        "partition.kind": SINGLE_LABEL,
        "fed.rounds": 300,
        "model.layers": [784, 500, 200, 10],
        "preset.samples_per_client": [1, 10, 200],
    },
    CENTRAL_BASELINE: {
        "data.source": "mnist",
        "central.lr": 0.1,
        "central.batch_size": 32,
        "central.epochs": 5,
        "preset.arch.0": [784, 10],
        "preset.arch.1": [784, 200, 10],
        "preset.arch.2": [784, 500, 200, 10],
    },
    COST_MODEL_SIZE_SWEEP: {
        "cost.rounds": 200,
        "cost.rounds_per_day": 100,
        "cost.sweep.dimension": "model_size",
        "cost.sweep.values": [15_000, 500_000, 1_000_000, 15_000_000],
        "cost.model_size_bytes": 500_000,
    },
    COST_ROUNDS_SWEEP: {
        "cost.rounds": 3000,
        "cost.rounds_per_day": 200,
        "cost.sweep.dimension": "rounds",
        "cost.sweep.values": [200, 500, 1000, 2000, 3000, 5000],
        "cost.model_size_bytes": 500_000,
    },
    COST_ROUNDS_PER_DAY_SWEEP: {
        "cost.rounds": 3000,
        "cost.rounds_per_day": 200,
        "cost.sweep.dimension": "rounds_per_day",
        "cost.sweep.values": [25, 50, 100, 200, 400],
        "cost.model_size_bytes": 500_000,
    },
}
EXPERIMENTS = tuple(PRESETS)

# The server.* and cost.* keys are the config fields of their dataclasses;
# only keys that are no dataclass field are listed here.
KNOWN_KEYS = {
    "experiment",
    "seed",
    "data.source",
    "data.dir",
    "data.train_images",
    "data.train_labels",
    "data.test_images",
    "data.test_labels",
    "data.num_classes",
    "data.features",
    "data.train_samples",
    "data.test_samples",
    "model.layers",
    "model.activation",
    "partition.kind",
    "partition.samples_per_client",
    "fed.num_clients",
    "fed.client_fraction",
    "fed.local_epochs",
    "fed.batch_size",
    "fed.client_lr",
    "fed.rounds",
    "fed.update_mode",
    "fed.eval_every",
    "fed.alg1_literal_normalization",
    "central.lr",
    "central.batch_size",
    "central.epochs",
    "cost.scenario",
    "cost.sweep.dimension",
    "cost.sweep.values",
    "preset.samples_per_client",
    "price.zero",
} | {f"server.{name}" for name in config_fields(ServerOptimizerState)} | {
    f"cost.{name}" for cls in (FlScenario, CentralScenario) for name in config_fields(cls)
}
KNOWN_PREFIXES = ("run.", "price.", "preset.arch.")


def validate_keys(cfg: dict[str, Value]) -> None:
    for key in cfg:
        if key in KNOWN_KEYS or any(key.startswith(p) for p in KNOWN_PREFIXES):
            continue
        raise ConfigError("unknown config key", key=key)


def effective_config(cfg: dict[str, Value]) -> dict[str, Value]:
    """Overlay the user config on its experiment preset's defaults."""
    experiment = cfg.get("experiment", CUSTOM)
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}, pick one of {EXPERIMENTS}", key="experiment")
    merged = {**PRESETS[experiment], **cfg}
    merged["experiment"] = experiment
    validate_keys(merged)
    return merged


# ---------------------------------------------------------------- datasets

def _resolve_idx_path(directory: Path, name: str, key: str) -> Path:
    """Accept the configured name, with or without a .gz twist."""
    candidates = [directory / name]
    if name.endswith(".gz"):
        candidates.append(directory / name[: -len(".gz")])
    else:
        candidates.append(directory / (name + ".gz"))
    for c in candidates:
        if c.exists():
            return c
    raise FileNotFoundError(f"{key}: none of {[str(c) for c in candidates]} exist")


def resolve_datasets(cfg: dict[str, Value]) -> tuple[Dataset, Dataset | None]:
    """Build (train, test) datasets from the data.* config section."""
    source = get_typed(cfg, "data.source", str, "synth")
    if source == "synth":
        seed = get_typed(cfg, "seed", int)
        classes = get_typed(cfg, "data.num_classes", int, 10)
        features = get_typed(cfg, "data.features", int, 20)
        n_train = get_typed(cfg, "data.train_samples", int, 2000)
        n_test = get_typed(cfg, "data.test_samples", int, 1000)  # 0: no test set
        keys = {"num_classes": "data.num_classes", "num_features": "data.features"}
        with naming_keys(lambda field: keys.get(field, "data.train_samples")):
            train = synth_dataset(classes, features, n_train, derive_seed(seed, "synth-train"))
        with naming_keys(lambda field: keys.get(field, "data.test_samples")):
            test = synth_dataset(classes, features, n_test, derive_seed(seed, "synth-test")) if n_test else None
        return train, test
    if source == "mnist":
        directory = Path(os.environ.get(ENV_DATA_DIR) or get_typed(cfg, "data.dir", str, "data"))
        paths = {
            key: _resolve_idx_path(directory, get_typed(cfg, key, str, default_name), key)
            for key, default_name in MNIST_FILES.items()
        }
        train = load_idx(paths["data.train_images"], paths["data.train_labels"])
        test = load_idx(paths["data.test_images"], paths["data.test_labels"])
        return train, test
    raise ConfigError(f"unknown data source {source!r}", key="data.source")


def _typed_list(cfg: dict[str, Value], key: str, kind: type) -> list:
    """A required key's value as a list, every element checked as kind."""
    return [get_typed({key: v}, key, kind) for v in as_list(get_typed(cfg, key, object))]


def _batch_size(cfg: dict[str, Value], key: str, default: int) -> int | None:
    """An integer batch size, or None for "full" (the whole shard per step)."""
    value = cfg.get(key)
    if isinstance(value, str):
        if value.lower() != "full":
            raise ConfigError(f"expected an integer or 'full', got {value!r}", key=key)
        return None
    return get_typed(cfg, key, int, default)


def build_fed_config(cfg: dict[str, Value]) -> FedConfig:
    kwargs = dict(
        num_clients=get_typed(cfg, "fed.num_clients", int),
        client_fraction=get_typed(cfg, "fed.client_fraction", float),
        local_epochs=get_typed(cfg, "fed.local_epochs", int, 1),
        batch_size=_batch_size(cfg, "fed.batch_size", 10),
        client_lr=get_typed(cfg, "fed.client_lr", float),
        rounds=get_typed(cfg, "fed.rounds", int),
        seed=get_typed(cfg, "seed", int),
        server_opt=from_config(ServerOptimizerState, cfg, "server."),
        update_mode=get_typed(cfg, "fed.update_mode", str, "send_weights"),
        eval_every=get_typed(cfg, "fed.eval_every", int, None),
        alg1_literal_normalization=get_typed(cfg, "fed.alg1_literal_normalization", bool, False),
    )
    with naming_keys(lambda field: "fed." + field):
        return FedConfig(**kwargs)


def build_price_sheet(cfg: dict[str, Value]) -> PriceSheet:
    """The base sheet (default, or all zeros under price.zero) with price.* overrides."""
    base = PriceSheet.zeros() if get_typed(cfg, "price.zero", bool, False) else DEFAULT_PRICE_SHEET
    scalars = config_fields(PriceSheet)
    changes: dict[str, float] = {}
    instance = dict(base.instance_hourly)
    for key in cfg:
        if not key.startswith("price.") or key == "price.zero":
            continue
        name = key[len("price."):]
        price = get_typed(cfg, key, float)
        if name.startswith("instance."):
            role = name[len("instance."):]
            if role not in instance:
                raise ConfigError(f"unknown instance role {role!r}", key=key)
            instance[role] = price
        elif name in scalars:
            changes[name] = price
        else:
            raise ConfigError("unknown price field", key=key)
    return replace(base, instance_hourly=instance, **changes)


# ---------------------------------------------------------------- emission

def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(cell) for cell in row] for row in rows)


def write_rounds_csv(path: Path, history: list[RoundMetrics]) -> None:
    _write_csv(
        path,
        ["round", "train_acc", "test_acc", "mean_client_loss", "elapsed_s"],
        ([m.round_index, m.train_accuracy, m.test_accuracy, m.mean_client_loss, m.elapsed_s] for m in history),
    )


def write_breakdown_csv(path: Path, breakdown: CostBreakdown) -> None:
    _write_csv(
        path,
        ["item", "name", "category", "quantity", "unit_price", "dollars"],
        ([i, item.name, item.category, item.quantity, item.unit_price, item.dollars] for i, item in enumerate(breakdown.items)),
    )


def write_sweep_csv(path: Path, rows: list[SweepRow]) -> None:
    _write_csv(
        path,
        ["value", "training_cost", "deployment_cost"],
        ([row.value, row.training_cost, row.deployment_cost] for row in rows),
    )


GNUPLOT_TEMPLATE = """\
# plot the accuracy curves from {csv} (any gnuplot >= 5)
set datafile separator ","
set xlabel "round"
set ylabel "accuracy"
set yrange [0:1]
set key bottom right
plot "{csv}" using 1:2 every ::1 with linespoints title "train", \\
     "{csv}" using 1:3 every ::1 with linespoints title "test"
"""


def write_partition_csv(path: Path, shards, dataset: Dataset) -> None:
    rows = []
    for shard in shards:
        census = shard.label_census
        p = census[census > 0] / census.sum()
        entropy = float(-(p * np.log(p)).sum())
        rows.append([shard.client_id, shard.num_samples, int(census.argmax()), entropy])
    _write_csv(path, ["client_id", "num_samples", "dominant_label", "census_entropy"], rows)


def format_breakdown_table(title: str, breakdown: CostBreakdown) -> str:
    lines = [title, "-" * len(title)]
    lines.append(f"{'name':<34} {'category':<14} {'quantity':>16} {'unit $':>12} {'dollars':>12}")
    for item in breakdown.items:
        lines.append(
            f"{item.name:<34} {item.category:<14} {item.quantity:>16.6g} {item.unit_price:>12.6g} {item.dollars:>12.2f}"
        )
    lines.append(f"{'total':<34} {'':<14} {'':>16} {'':>12} {breakdown.total:>12.2f}")
    return "\n".join(lines)


def format_sweep_table(dimension: str, rows: list[SweepRow]) -> str:
    header = f"{dimension:>16} {'training $':>14} {'deployment $':>14}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(f"{row.value:>16.6g} {row.training_cost:>14.2f} {row.deployment_cost:>14.2f}")
    return "\n".join(lines)


# ---------------------------------------------------------------- manifests

MANIFEST_NOTE = "preset hyperparameters are desk-scale simulator defaults, not published values"


def _utc_now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _write_manifest(path: Path, cfg: dict[str, Value], command: str, meta: dict[str, Value]) -> None:
    """Write cfg plus this run's run.* metadata; run.* keys a rerun config carries are dropped.

    run.platform.* is the envelope the run's bits depend on (see fedsim.machine).
    """
    path.write_text(format_config({
        **{key: value for key, value in cfg.items() if not key.startswith("run.")},
        "run.package_version": __version__,
        "run.command": command,
        "run.seed": cfg.get("seed", 0),
        "run.note": MANIFEST_NOTE,
        **{f"run.platform.{key}": value for key, value in fingerprint().items()},
        **meta,
    }))


def platform_note(cfg: dict[str, Value]) -> str | None:
    """One stderr line naming the run.platform.* fields a rerun config records differently from here, else None.

    A config that carries run.platform.* entries is a manifest read back.
    Each field is compared as the manifest writes and reads it.
    """
    recorded = {key[len("run.platform."):]: value for key, value in cfg.items() if key.startswith("run.platform.")}
    if not recorded:
        return None
    differ = [
        f"{field} {format_value(recorded[field])} -> {value}"
        for field, value in fingerprint().items()
        if field in recorded and format_value(recorded[field]) != format_value(coerce_value(format_value(value)))
    ]
    if not differ:
        return None
    return f"note: the manifest's platform differs here ({', '.join(differ)}); results may differ in their last bits"


def start_manifest(out_dir: Path, command: str, cfg: dict[str, Value]) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "manifest.txt"
    _write_manifest(path, cfg, command, {"run.started_utc": _utc_now(), "run.status": "running"})
    return path


def finish_manifest(path: Path, cfg: dict[str, Value], command: str, run_meta: dict[str, Value]) -> None:
    """Rewrite the manifest with the finish time and run_meta, the run.* entries its outcome decided.

    run_meta holds run.status (complete, failed or interrupted) and whatever
    the command and its outcome added: run.outputs, run.error, run.workers,
    run.client_group, run.blas_threads.
    """
    _write_manifest(path, cfg, command, {"run.finished_utc": _utc_now(), **run_meta})


# ---------------------------------------------------------------- commands

BLAS_NOTE = (
    "note: the BLAS has no call to set its thread count, so runs whose local steps fit one thread keep its own;"
    " their results may differ in their last bits across thread counts"
)

# One run of a plan: arch label, samples per client, rounds CSV name, and a
# closure that trains the run, passing each round's metrics to its argument.
Run = tuple[str, int, str, Callable[[Callable[[RoundMetrics], object]], object]]

COST_SCENARIOS = {
    "fl_training": ("federated training cost", FlScenario, fl_training_cost),
    "fl_deployment": ("federated deployment cost", FlScenario, fl_deployment_cost),
    "central": ("centralized training cost", CentralScenario, central_cost),
}


def _arch_label(layers) -> str:
    return "-".join(str(n) for n in layers)


def _arch_keys(cfg: dict[str, Value]) -> list[str]:
    """The keys of a preset's architectures, model.layers where it sets none."""
    return sorted(k for k in cfg if k.startswith("preset.arch.")) or ["model.layers"]


def _mlp_spec(cfg: dict[str, Value], key: str, dataset: Dataset) -> MlpSpec:
    """The net of the layer sizes at key and model.activation; a range error or a misfit to dataset names its key."""
    with naming_keys(lambda field: "model.activation" if field == "activation" else key):
        spec = MlpSpec(tuple(_typed_list(cfg, key, int)), get_typed(cfg, "model.activation", str, "relu"))
    try:
        check_dataset_fits(spec, dataset)
    except ShapeMismatchError as err:
        raise ConfigError(str(err), key=key) from err
    return spec


def _partition_plan(
    cfg: dict[str, Value], samples_per_client: int | None = None, *seed_path: str | int, kind: str | None = None
) -> PartitionPlan:
    """fed.num_clients shards seeded by derive_seed(seed, "partition", *seed_path).

    kind and samples_per_client default to partition.kind and partition.samples_per_client
    (preset.samples_per_client when given), the keys a range error names.
    """
    kind = kind or get_typed(cfg, "partition.kind", str, IID)
    spc_key = "partition.samples_per_client" if samples_per_client is None else "preset.samples_per_client"
    if samples_per_client is None:
        samples_per_client = get_typed(cfg, spc_key, int)
    num_clients, seed = get_typed(cfg, "fed.num_clients", int), get_typed(cfg, "seed", int)
    with naming_keys({"kind": "partition.kind", "num_clients": "fed.num_clients", "samples_per_client": spc_key}.get):
        return PartitionPlan(kind, num_clients, samples_per_client, derive_seed(seed, "partition", *seed_path))


def _train_plan(out_dir: Path, runs: list[Run], grid: bool) -> tuple[list[Path], str]:
    """Train the runs in order and write each one's rounds CSV, however the run ends.

    A run that stops early (diverged, interrupted, failed) keeps the rounds
    it completed. Only a config error (a ValueError) that stops a run before
    its first round completes leaves no CSV: the run trained nothing. A grid
    also writes summary.csv, the last evaluated accuracies of every run; a
    single run writes its gnuplot script instead.
    """
    outputs: list[Path] = []
    summary = []
    for arch, samples_per_client, name, train in runs:
        path = out_dir / name
        rows: list[RoundMetrics] = []
        rejected = False
        try:
            train(rows.append)
        except ValueError:
            rejected = not rows
            raise
        finally:
            if not rejected:  # one write per run, after training: no file I/O inside the timed call
                write_rounds_csv(path, rows)
        outputs.append(path)
        last = next((m for m in reversed(rows) if m.train_accuracy is not None), None)
        summary.append([arch, samples_per_client, last and last.train_accuracy, last and last.test_accuracy])
    if grid:
        path = out_dir / "summary.csv"
        _write_csv(path, ["arch", "samples_per_client", "final_train_acc", "final_test_acc"], summary)
    else:
        path = out_dir / "plot_rounds.gnuplot"
        path.write_text(GNUPLOT_TEMPLATE.format(csv=outputs[0].name))
    return outputs + [path], ""


def run_train_fed(cfg: dict[str, Value], out_dir: Path, meta: dict[str, Value]) -> tuple[list[Path], str]:
    """Train the custom run or the preset's grid.

    meta gets each run's federation.layout as run.workers, run.client_group
    and run.blas_threads, the BLAS thread count of its rounds: 1 when pinned,
    else the BLAS's own, or unknown where it reports none. When a run whose
    local steps fit one BLAS thread finds no call to pin it, one note: line
    on stderr says so, once per command.
    """
    experiment = cfg["experiment"]
    if experiment not in (CUSTOM, SAMPLES_SWEEP, SINGLE_LABEL_SWEEP, ROUND_CURVES):
        raise ConfigError(f"experiment {experiment!r} is not a federated-training preset", key="experiment")
    fed_config = build_fed_config(cfg)  # before any data or partition plan, so a bad fed.* value names its key
    dataset, test_set = resolve_datasets(cfg)
    seed = get_typed(cfg, "seed", int)
    noted = False

    def run(model: MlpSpec, plan: PartitionPlan, name: str, run_seed: int) -> Run:
        # built with the plan, so a grid point that cannot be met fails before any run trains
        shards = partition(dataset, plan)
        config = replace(fed_config, seed=run_seed)

        def train(on_round) -> None:
            nonlocal noted
            run_layout, threads = layout(model, config, shards), blas_thread_count()
            pinned = "unknown" if threads is None else 1 if run_layout.one_thread else threads
            meta.setdefault("run.workers", []).append(run_layout.workers)
            meta.setdefault("run.client_group", []).append(run_layout.group)
            meta.setdefault("run.blas_threads", []).append(pinned)
            if threads is None and run_layout.one_thread and not noted:
                noted = True
                print(BLAS_NOTE, file=sys.stderr)
            train_federated(model, config, shards, dataset, test_set, on_round=on_round)

        return _arch_label(model.layer_sizes), plan.samples_per_client, name, train

    if experiment == CUSTOM:
        runs = [run(_mlp_spec(cfg, "model.layers", dataset), _partition_plan(cfg), "rounds.csv", seed)]
        return _train_plan(out_dir, runs, grid=False)
    samples_values = _typed_list(cfg, "preset.samples_per_client", int)
    kind = get_typed(cfg, "partition.kind", str, IID)
    runs = []
    for key in _arch_keys(cfg):
        model = _mlp_spec(cfg, key, dataset)
        arch = _arch_label(model.layer_sizes)
        for spc in samples_values:
            single_sample = experiment == ROUND_CURVES and kind == SINGLE_LABEL and spc == 1
            plan = _partition_plan(cfg, spc, arch, spc, kind=SINGLE_SAMPLE if single_sample else kind)
            runs.append(run(model, plan, f"rounds_{arch}_spc{spc}.csv", derive_seed(seed, "run", arch, spc)))
    return _train_plan(out_dir, runs, grid=True)


def run_train_central(cfg: dict[str, Value], out_dir: Path, meta: dict[str, Value]) -> tuple[list[Path], str]:
    dataset, test_set = resolve_datasets(cfg)
    seed = get_typed(cfg, "seed", int)
    lr = get_typed(cfg, "central.lr", float, 0.1)
    batch = _batch_size(cfg, "central.batch_size", 32)
    epochs = get_typed(cfg, "central.epochs", int, 5)
    grid = cfg["experiment"] == CENTRAL_BASELINE

    def run(key: str) -> Run:
        model = _mlp_spec(cfg, key, dataset)
        arch = _arch_label(model.layer_sizes)

        def train(on_round) -> None:
            with naming_keys(lambda field: "central." + field):
                train_centralized(model, dataset, test_set, lr, batch, epochs, derive_seed(seed, "central", arch), on_round)

        return arch, len(dataset), f"central_{arch}.csv" if grid else "rounds.csv", train

    return _train_plan(out_dir, [run(key) for key in (_arch_keys(cfg) if grid else ["model.layers"])], grid)


def run_cost(cfg: dict[str, Value], out_dir: Path, meta: dict[str, Value]) -> tuple[list[Path], str]:
    if cfg["experiment"] in (COST_MODEL_SIZE_SWEEP, COST_ROUNDS_SWEEP, COST_ROUNDS_PER_DAY_SWEEP):
        return run_sweep(cfg, out_dir, meta)
    sheet = build_price_sheet(cfg)
    scenario = get_typed(cfg, "cost.scenario", str, "all")
    if scenario != "all" and scenario not in COST_SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}", key="cost.scenario")
    outputs: list[Path] = []
    texts: list[str] = []
    for kind in COST_SCENARIOS if scenario == "all" else (scenario,):
        title, scenario_cls, cost = COST_SCENARIOS[kind]
        breakdown = cost(from_config(scenario_cls, cfg, "cost."), sheet)
        path = out_dir / f"breakdown_{kind}.csv"
        write_breakdown_csv(path, breakdown)
        outputs.append(path)
        texts.append(format_breakdown_table(title, breakdown))
    return outputs, "\n\n".join(texts)


def run_sweep(cfg: dict[str, Value], out_dir: Path, meta: dict[str, Value]) -> tuple[list[Path], str]:
    sheet = build_price_sheet(cfg)
    dimension = get_typed(cfg, "cost.sweep.dimension", str)
    values = _typed_list(cfg, "cost.sweep.values", float)
    base = from_config(FlScenario, cfg, "cost.")
    # an unknown dimension, or a swept value the scenario rejects
    with naming_keys(lambda field: "cost.sweep." + ("dimension" if field == "dimension" else "values")):
        rows = sweep(dimension, values, base, sheet)
    path = out_dir / "sweep.csv"
    write_sweep_csv(path, rows)
    return [path], format_sweep_table(dimension, rows)


def run_partition_stats(cfg: dict[str, Value], out_dir: Path, meta: dict[str, Value]) -> tuple[list[Path], str]:
    dataset, _ = resolve_datasets(cfg)
    shards = partition(dataset, _partition_plan(cfg))
    path = out_dir / "shards.csv"
    write_partition_csv(path, shards, dataset)
    return [path], ""
