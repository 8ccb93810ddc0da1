"""Experiment harness, in order: presets and keys, datasets, CSV and table emission, manifests, commands.

Each command, run_*, takes (cfg, out_dir, meta) and returns its outputs and
the text to print. A training command lists its runs, each one's training
call bound with functools.partial, and _train_plan trains them in order and
writes their CSVs. Every run directory gets a manifest.txt: the effective
config plus run.* metadata, itself a valid config, so --config manifest.txt
repeats the run. Data columns are deterministic; only elapsed_s and the
manifest timestamps vary between identical runs. Preset hyperparameters are
desk-scale simulator defaults, not published values; manifests say so.
"""

from __future__ import annotations

import csv
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

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
    read_field,
)
from .costs import (
    DEFAULT_PRICE_SHEET,
    INSTANCE_ROLES,
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
    ClientShard,
    Dataset,
    PartitionError,
    PartitionPlan,
    load_idx,
    partition,
    synth_dataset,
)
from .federation import (
    CentralConfig,
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

# The keys of a dataclass-backed section are its config fields; only keys
# that are no dataclass field are listed by hand.
SECTIONS = (
    ("fed.", FedConfig), ("central.", CentralConfig), ("server.", ServerOptimizerState), ("model.", MlpSpec),
    ("cost.", FlScenario), ("cost.", CentralScenario), ("price.", PriceSheet),
)
KNOWN_KEYS = {
    "experiment", "seed", "model.layers", "partition.kind", "partition.samples_per_client", "preset.samples_per_client",
    "data.source", "data.dir", *MNIST_FILES, "data.num_classes", "data.features", "data.train_samples", "data.test_samples",
    "cost.scenario", "cost.sweep.dimension", "cost.sweep.values", "price.zero",
    *(f"price.instance.{role}" for role in INSTANCE_ROLES),
} | {prefix + name for prefix, cls in SECTIONS for name in config_fields(cls)}
KNOWN_PREFIXES = ("run.", "preset.arch.")


def effective_config(cfg: dict[str, Value]) -> dict[str, Value]:
    """Overlay the user config on its experiment preset's defaults; an unknown key is a config error."""
    experiment = cfg.get("experiment", CUSTOM)
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}, pick one of {EXPERIMENTS}", key="experiment")
    merged = {**PRESETS[experiment], **cfg}
    merged["experiment"] = experiment
    for key in merged:
        if key not in KNOWN_KEYS and not key.startswith(KNOWN_PREFIXES):
            raise ConfigError("unknown config key", key=key)
    return merged


# ---------------------------------------------------------------- datasets

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
        if n_test < 0:
            raise ConfigError("must be >= 0 (0: no test set)", key="data.test_samples")
        with naming_keys(lambda field: keys.get(field, "data.test_samples")):
            test = synth_dataset(classes, features, n_test, derive_seed(seed, "synth-test")) if n_test else None
        return train, test
    if source == "mnist":
        directory = Path(os.environ.get(ENV_DATA_DIR) or get_typed(cfg, "data.dir", str, "data"))
        paths = {}
        for key, default_name in MNIST_FILES.items():  # each file as named, or with its .gz suffix toggled
            name = get_typed(cfg, key, str, default_name)
            candidates = [directory / name, directory / (name[:-3] if name.endswith(".gz") else name + ".gz")]
            paths[key] = next((c for c in candidates if c.exists()), None)
            if paths[key] is None:
                raise FileNotFoundError(f"{key}: none of {[str(c) for c in candidates]} exist")
        train = load_idx(paths["data.train_images"], paths["data.train_labels"])
        test = load_idx(paths["data.test_images"], paths["data.test_labels"])
        if test.num_features != train.num_features:
            message = f"test images have {test.num_features} pixels, training images {train.num_features}"
            raise ConfigError(message, key="data.test_images")
        return train, test
    raise ConfigError(f"unknown data source {source!r}", key="data.source")


def _typed_list(cfg: dict[str, Value], key: str, kind: type) -> list:
    """A required key's value as a list, every element checked as kind."""
    return [get_typed({key: v}, key, kind) for v in as_list(get_typed(cfg, key, object))]


def build_fed_config(cfg: dict[str, Value]) -> FedConfig:
    return from_config(
        FedConfig, cfg, "fed.", seed=get_typed(cfg, "seed", int), server_opt=from_config(ServerOptimizerState, cfg, "server.")
    )


def build_price_sheet(cfg: dict[str, Value]) -> PriceSheet:
    """The base sheet (default, or all zeros under price.zero), each price overridden by its price.* key."""
    base = PriceSheet.zeros() if get_typed(cfg, "price.zero", bool, False) else DEFAULT_PRICE_SHEET
    changes = {name: get_typed(cfg, "price." + name, float, getattr(base, name)) for name in config_fields(PriceSheet)}
    instance = {role: get_typed(cfg, f"price.instance.{role}", float, p) for role, p in base.instance_hourly.items()}
    with naming_keys(lambda field: "price." + field):
        return replace(base, instance_hourly=instance, **changes)


# ---------------------------------------------------------------- emission

def _write_csv(path: Path, header: list[str], rows) -> None:
    """One CSV, each float cell to 10 significant digits; the csv module writes None as an empty cell."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([f"{x:.10g}" if isinstance(x, float) else x for x in row] for row in rows)


def write_rounds_csv(path: Path, history: list[RoundMetrics]) -> None:
    _write_csv(
        path,
        ["round", "train_acc", "test_acc", "mean_client_loss", "elapsed_s"],
        ([m.round_index, m.train_accuracy, m.test_accuracy, m.mean_client_loss, m.elapsed_s] for m in history),
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


def start_manifest(out_dir: Path, command: str, cfg: dict[str, Value]) -> tuple[Path, str]:
    """Write the manifest of a run that is starting; returns its path and start time for finish_manifest."""
    path, started = out_dir / "manifest.txt", _utc_now()
    _write_manifest(path, cfg, command, {"run.started_utc": started, "run.status": "running"})
    return path, started


def finish_manifest(path: Path, started: str, cfg: dict[str, Value], command: str, run_meta: dict[str, Value]) -> None:
    """Rewrite the manifest whole, from the start time start_manifest returned, the finish time and run_meta.

    It reads no file, so a manifest changed or deleted while the run ran is
    written anew. run_meta holds run.status (complete, failed or interrupted)
    and whatever the command and its outcome added: run.outputs, run.error,
    run.workers, run.client_group, run.blas_threads.
    """
    _write_manifest(path, cfg, command, {"run.started_utc": started, "run.finished_utc": _utc_now(), **run_meta})


# ---------------------------------------------------------------- commands

BLAS_NOTE = (
    "note: the BLAS has no call to set its thread count, so runs whose local steps fit one thread keep its own;"
    " their results may differ in their last bits across thread counts"
)

# One run of a plan: arch label, samples per client, rounds CSV name, and its
# training call, which passes each round's metrics to its argument.
Run = tuple[str, int, str, Callable[[Callable[[RoundMetrics], object]], object]]

COST_SCENARIOS = {
    "fl_training": ("federated training cost", FlScenario, fl_training_cost),
    "fl_deployment": ("federated deployment cost", FlScenario, fl_deployment_cost),
    "central": ("centralized training cost", CentralScenario, central_cost),
}


def _arch_label(layers) -> str:
    return "-".join(str(n) for n in layers)


def _mlp_spec(cfg: dict[str, Value], key: str, dataset: Dataset, test_set: Dataset | None) -> MlpSpec:
    """The net of the layer sizes at key and model.activation; a range error or a misfit to dataset names its key.

    A test label the net has no output for names data.test_labels.
    """
    with naming_keys(lambda field: "model.activation" if field == "activation" else key):
        spec = MlpSpec(tuple(_typed_list(cfg, key, int)), read_field(MlpSpec, cfg, "model.", "activation"))
    try:
        check_dataset_fits(spec, dataset)
    except ShapeMismatchError as err:
        raise ConfigError(str(err), key=key) from err
    if test_set is not None and test_set.num_classes > spec.num_classes:
        message = f"test label {test_set.num_classes - 1} has no output in {spec.layer_sizes}"
        raise ConfigError(message, key="data.test_labels")
    return spec


def _grid_specs(cfg: dict[str, Value], dataset: Dataset, test_set: Dataset | None) -> Iterator[MlpSpec]:
    """The nets of a grid's preset.arch.N keys (else model.layers) in key order; a repeated net names its key."""
    key_of: dict[tuple[int, ...], str] = {}
    for key in sorted(k for k in cfg if k.startswith("preset.arch.")) or ["model.layers"]:
        spec = _mlp_spec(cfg, key, dataset, test_set)
        if key_of.setdefault(spec.layer_sizes, key) != key:
            raise ConfigError(f"repeats the layer sizes of {key_of[spec.layer_sizes]}", key=key)
        yield spec


def _partition(
    cfg: dict[str, Value], dataset: Dataset, samples_per_client: int | None = None, *seed_path: str | int,
    single_sample: bool = False,
) -> tuple[PartitionPlan, list[ClientShard]]:
    """dataset cut into fed.num_clients shards seeded by derive_seed(seed, "partition", *seed_path), and the plan.

    The plan's kind is partition.kind, but single_sample turns a single-label kind
    into single_sample. samples_per_client defaults to partition.samples_per_client
    (preset.samples_per_client when given), the keys a range error, or a plan the
    dataset cannot meet, names.
    """
    kind = get_typed(cfg, "partition.kind", str, IID)
    if single_sample and kind == SINGLE_LABEL:
        kind = SINGLE_SAMPLE
    spc_key = "partition.samples_per_client" if samples_per_client is None else "preset.samples_per_client"
    if samples_per_client is None:
        samples_per_client = get_typed(cfg, spc_key, int)
    num_clients, seed = read_field(FedConfig, cfg, "fed.", "num_clients"), get_typed(cfg, "seed", int)
    with naming_keys({"kind": "partition.kind", "num_clients": "fed.num_clients", "samples_per_client": spc_key}.get):
        plan = PartitionPlan(kind, num_clients, samples_per_client, derive_seed(seed, "partition", *seed_path))
    try:
        return plan, partition(dataset, plan)
    except PartitionError as err:  # ClassPoolExhaustedError too
        rows = f"the dataset's {len(dataset)} rows"
        if get_typed(cfg, "data.source", str, "synth") == "synth":
            rows += " (data.train_samples)"
        fit = f"fed.num_clients = {num_clients} shards of {samples_per_client} must fit {rows}"
        raise ConfigError(f"{err}; {fit}", key=spc_key) from err


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
        try:
            train(rows.append)
        except BaseException as stop:  # written once the run ends, so no file I/O falls inside the timed call
            if rows or not isinstance(stop, ValueError):
                write_rounds_csv(path, rows)
            raise
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

    def train(model: MlpSpec, config: FedConfig, shards: list[ClientShard], on_round) -> None:
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

    if experiment == CUSTOM:
        model = _mlp_spec(cfg, "model.layers", dataset, test_set)
        plan, shards = _partition(cfg, dataset)
        arch = _arch_label(model.layer_sizes)
        run = arch, plan.samples_per_client, "rounds.csv", partial(train, model, fed_config, shards)
        return _train_plan(out_dir, [run], grid=False)
    samples_values = _typed_list(cfg, "preset.samples_per_client", int)
    if len(set(samples_values)) < len(samples_values):  # a repeated point, or net, would train a run into its CSV again
        raise ConfigError(f"repeats a value in {samples_values}", key="preset.samples_per_client")
    runs = []
    for model in _grid_specs(cfg, dataset, test_set):
        arch = _arch_label(model.layer_sizes)
        for spc in samples_values:
            # partitioned here, so a grid point that cannot be met fails before any run trains
            _, shards = _partition(cfg, dataset, spc, arch, spc, single_sample=experiment == ROUND_CURVES and spc == 1)
            config = replace(fed_config, seed=derive_seed(seed, "run", arch, spc))
            runs.append((arch, spc, f"rounds_{arch}_spc{spc}.csv", partial(train, model, config, shards)))
    return _train_plan(out_dir, runs, grid=True)


def run_train_central(cfg: dict[str, Value], out_dir: Path, meta: dict[str, Value]) -> tuple[list[Path], str]:
    dataset, test_set = resolve_datasets(cfg)
    seed = get_typed(cfg, "seed", int)
    config = from_config(CentralConfig, cfg, "central.")  # after the data, so a missing data file is an I/O error first
    grid = cfg["experiment"] == CENTRAL_BASELINE
    runs = []
    for model in _grid_specs(cfg, dataset, test_set) if grid else [_mlp_spec(cfg, "model.layers", dataset, test_set)]:
        arch = _arch_label(model.layer_sizes)
        train = partial(train_centralized, model, dataset, test_set, config, derive_seed(seed, "central", arch))
        runs.append((arch, len(dataset), f"central_{arch}.csv" if grid else "rounds.csv", train))
    return _train_plan(out_dir, runs, grid)


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
        rows = ([i, x.name, x.category, x.quantity, x.unit_price, x.dollars] for i, x in enumerate(breakdown.items))
        _write_csv(path, ["item", "name", "category", "quantity", "unit_price", "dollars"], rows)
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
    columns = ["value", "training_cost", "deployment_cost"]
    _write_csv(path, columns, ([getattr(row, column) for column in columns] for row in rows))
    return [path], format_sweep_table(dimension, rows)


def run_partition_stats(cfg: dict[str, Value], out_dir: Path, meta: dict[str, Value]) -> tuple[list[Path], str]:
    dataset, _ = resolve_datasets(cfg)
    _, shards = _partition(cfg, dataset)
    rows = []
    for shard in shards:
        census = shard.label_census
        p = census[census > 0] / census.sum()
        rows.append([shard.client_id, shard.num_samples, int(census.argmax()), float(-(p * np.log(p)).sum())])
    path = out_dir / "shards.csv"
    _write_csv(path, ["client_id", "num_samples", "dominant_label", "census_entropy"], rows)
    return [path], ""
