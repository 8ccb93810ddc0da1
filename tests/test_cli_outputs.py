"""Every CLI command's outputs, pinned through fedsim.cli.main.

The cost and partition commands are pinned byte for byte: the sha256 of each
file a run wrote, of its stdout, and of the manifest's config part (every
line outside the run.* namespace). Training commands are pinned by
structure, since their data columns rest on the BLAS (tests/test_golden.py
pins those): the files written, the CSV headers, the gnuplot script, the
`wrote` lines and the manifest's key set. Failing invocations are pinned by
exit code and their last stderr line. The digests were taken from the code
before the harness was flattened and are never regenerated from newer code.
"""

import csv
import hashlib
from pathlib import Path

import pytest

from fedsim.cli import main

REPO = Path(__file__).resolve().parent.parent
SYNTH_QUICK = str(REPO / "configs" / "synth_quick.cfg")

SYNTH_FED = [
    "seed=7", "data.source=synth", "data.num_classes=3", "data.features=6", "data.train_samples=120",
    "data.test_samples=60", "model.layers=6,3", "partition.kind=iid", "partition.samples_per_client=10",
    "fed.num_clients=6", "fed.client_fraction=0.5", "fed.local_epochs=1", "fed.batch_size=5", "fed.client_lr=0.2",
    "fed.rounds=4", "fed.eval_every=2",
]
SMALL_ARCHS = ["preset.arch.0=6,3", "preset.arch.1=6,4,3", "preset.arch.2=6,5,3"]
SYNTH_CENTRAL = [
    "seed=7", "data.source=synth", "data.num_classes=3", "data.features=6", "data.train_samples=120",
    "data.test_samples=60", "model.layers=6,4,3", "central.epochs=2",
]


def run(tmp_path, capsys, command, sets, config=None):
    """Exit code, stdout and stderr of one fedsim command writing to tmp_path/out, with that path as <out>."""
    out = tmp_path / "out"
    argv = [command, "--out", str(out)] + (["--config", config] if config else [])
    for item in sets:
        argv += ["--set", item]
    code = main(argv)
    stdout, stderr = capsys.readouterr()
    return code, stdout.replace(str(out), "<out>"), stderr.replace(str(tmp_path), "<tmp>")


def sha(data: bytes | str) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def manifest_lines(out: Path) -> list[str]:
    return (out / "manifest.txt").read_text().splitlines()


def manifest_keys(out: Path) -> list[str]:
    """The manifest's keys, its two run.*_utc timestamps left out."""
    return [line.split(" = ")[0] for line in manifest_lines(out) if not line.split(" = ")[0].endswith("_utc")]


# ------------------------------------------------------------ byte for byte

CAMPAIGN = ["cost.model_size_bytes=500000", "cost.rounds=200", "cost.rounds_per_day=100", "cost.cohort=1000"]

# name -> (command, config file, --set items, {file: sha256} of what it wrote, sha256 of stdout, sha256 of the
# manifest's config part)
DIGESTED = {
    "cost": (
        "cost", None, CAMPAIGN,
        {
            "breakdown_fl_training.csv": "de10ce1e9ec271d8fe8b9aa620ae3b6cc8151ca0fbe25ad26b8076767c709d94",
            "breakdown_fl_deployment.csv": "46e1d921b084c3c0d8f6aa0a92ac44803e1a0c18337d2fa0cf326ae314c80bd9",
            "breakdown_central.csv": "60c05b3755c8cd793ba5619529125ad1c2deba0a15a9ee33a63fa8937eed99b5",
        },
        "6bc8e921f7e17b6428fbdef4933bb79715bd43791a390209e16d2b99f5724046",
        "56ef1123e360323481885af52927e28fc4be0aa67e1a9f388975fa04fdf0cdc9",
    ),
    "cost-central-priced": (
        "cost", None, ["cost.scenario=central", "price.instance.portal=1.5", "price.data_out_per_gb=0.2"],
        {"breakdown_central.csv": "3a48cce38aff5a9dbdf83445774ae589837a4725b7942b0d56ab383be2d22e87"},
        "c2844ebb402dec3177ade85c41cc1883ce1d07fab6e254d6f83c693a98840d90",
        "b93511939522af1d88ad6b961d740e08dea4984971b0024939c6759d3705bfec",
    ),
    "cost-zero-priced": (
        "cost", None, CAMPAIGN + ["price.zero=true", "cost.scenario=fl_training", "price.lb_hourly=3"],
        {"breakdown_fl_training.csv": "ec48ea986dcc9275da35efe32765822be110de22d4d930e131800b9263966b94"},
        "db9f0d78c6fe2e80d7a2eb31ab8016b662a6e0918a733f715f382d71496119b8",
        "a069ce35a22931dfd4be859efbc9cd6002cff947236f50b53e18cbb91bab021f",
    ),
    "cost-model-size-sweep": (
        "cost", None, ["experiment=cost_model_size_sweep"],
        {"sweep.csv": "d202adec6f6dd2219ddf7c258d28b5c7ffabddb8be6d628523a7ada1dca124fc"},
        "035a9d85dc3b22ee48c15d7a47013fe5f8c8e34c2b9665628bceb34654e172aa",
        "0a9dc8ee33740954eb60620156989b0d91e6a70cafe11ca0b1969a31019f4c84",
    ),
    "cost-rounds-sweep": (
        "cost", None, ["experiment=cost_rounds_sweep"],
        {"sweep.csv": "34af7f6f83fbdd3f21cc3bdd355b1d76dea5af43c2767648881bb47d1aa8547d"},
        "d3dd7f63238d5c9d9755354ef58e2b1e170312c71c8531ad29217cb90dd1247f",
        "1dc60baa1d01f0301cabc85b25e70edebeefbbc278bfd702abea33343639600a",
    ),
    "sweep-rounds-per-day": (
        "sweep", None, ["experiment=cost_rounds_per_day_sweep"],
        {"sweep.csv": "7d0bd1b034060cd96ee97b59b01e5ec008f4c343ec860b44a6f1bb3061cc9aac"},
        "3dbfa4da07ec86fde966bdbeefc957ccbe7bc4e92fc0144c180f246e4d2bdd6b",
        "70f258979093351cc9ebf1e0121b02ff90871f8930246e9d6cd9dda0358d292e",
    ),
    "partition-stats-iid": (
        "partition-stats", SYNTH_QUICK, [],
        {"shards.csv": "078a3f0aef0967220849df50854781b4968516140c1cde76d580ee90389de9cd"},
        "6f19a2585a30970d6634bb73c2bbfff52fb8f2a495fe3f6899a8a3624e311a03",
        "969e280c41b25a7ce30c0cce62c019b4927bd6b9b843a83de7a443720f45be7f",
    ),
    "partition-stats-single-label": (
        "partition-stats", SYNTH_QUICK, ["partition.kind=single_label_multi_sample"],
        {"shards.csv": "6d353619a3e575a18c0ffd5c187eb70b2148460740847249f44d3fb2ed1797b6"},
        "6f19a2585a30970d6634bb73c2bbfff52fb8f2a495fe3f6899a8a3624e311a03",
        "89bd12f901b977a79ff24e18fc12ae33abba8efe8ed6bb94797e1a1b0f223b06",
    ),
}


@pytest.mark.parametrize("name", DIGESTED)
def test_cost_and_partition_outputs_are_byte_for_byte_pinned(name, tmp_path, capsys):
    command, config, sets, files, stdout_sha, config_sha = DIGESTED[name]
    code, stdout, stderr = run(tmp_path, capsys, command, sets, config)
    out = tmp_path / "out"
    assert (code, stderr) == (0, "")
    written = [line.split(" = ")[1] for line in manifest_lines(out) if line.startswith("run.outputs = ")][0]
    assert {path: sha((out / path).read_bytes()) for path in written.split(",")} == files
    assert sha(stdout) == stdout_sha
    assert sha("\n".join(line for line in manifest_lines(out) if not line.startswith("run."))) == config_sha
    assert "run.status = complete" in manifest_lines(out)


# ------------------------------------------------------------ by structure

ROUNDS_HEADER = "round,train_acc,test_acc,mean_client_loss,elapsed_s"
SUMMARY_HEADER = "arch,samples_per_client,final_train_acc,final_test_acc"
GNUPLOT = """\
# plot the accuracy curves from rounds.csv (any gnuplot >= 5)
set datafile separator ","
set xlabel "round"
set ylabel "accuracy"
set yrange [0:1]
set key bottom right
plot "rounds.csv" using 1:2 every ::1 with linespoints title "train", \\
     "rounds.csv" using 1:3 every ::1 with linespoints title "test"
"""
SYNTH_KEYS = [
    "data.features", "data.num_classes", "data.source", "data.test_samples", "data.train_samples", "experiment",
    "model.layers", "seed",
]
FED_KEYS = SYNTH_KEYS + [
    "fed.batch_size", "fed.client_fraction", "fed.client_lr", "fed.eval_every", "fed.local_epochs", "fed.num_clients",
    "fed.rounds", "partition.kind", "partition.samples_per_client",
]
FED_PRESET_KEYS = FED_KEYS + ["fed.update_mode", "preset.samples_per_client", "server.kind", "server.lr"]
ARCH_KEYS = ["preset.arch.0", "preset.arch.1", "preset.arch.2"]
RUN_KEYS = [
    "run.command", "run.note", "run.outputs", "run.package_version", "run.platform.blas", "run.platform.blas_version",
    "run.platform.cpu_flags_sha", "run.platform.cpus", "run.platform.mkl_num_threads", "run.platform.numpy",
    "run.platform.omp_num_threads", "run.platform.openblas_num_threads", "run.seed", "run.status",
]
FED_RUN_KEYS = RUN_KEYS + ["run.blas_threads", "run.client_group", "run.workers"]

# name -> (command, --set items, CSV files in order of writing, last output, manifest keys but the timestamps)
STRUCTURED = {
    "train-fed-custom": ("train-fed", SYNTH_FED, ["rounds.csv"], "plot_rounds.gnuplot", FED_KEYS + FED_RUN_KEYS),
    "train-fed-samples-sweep": (
        "train-fed",
        SYNTH_FED + SMALL_ARCHS + ["experiment=samples_sweep", "preset.samples_per_client=5,10", "fed.rounds=2"],
        [f"rounds_{arch}_spc{spc}.csv" for arch in ("6-3", "6-4-3", "6-5-3") for spc in (5, 10)],
        "summary.csv",
        FED_PRESET_KEYS + ARCH_KEYS + FED_RUN_KEYS,
    ),
    "train-fed-round-curves": (
        "train-fed",
        SYNTH_FED + ["experiment=round_curves", "preset.samples_per_client=1,5", "fed.rounds=3"],
        ["rounds_6-3_spc1.csv", "rounds_6-3_spc5.csv"],
        "summary.csv",
        FED_PRESET_KEYS + FED_RUN_KEYS,
    ),
    "train-central-custom": (
        "train-central", SYNTH_CENTRAL, ["rounds.csv"], "plot_rounds.gnuplot", SYNTH_KEYS + ["central.epochs"] + RUN_KEYS,
    ),
    "train-central-baseline": (
        "train-central",
        SYNTH_CENTRAL + SMALL_ARCHS + ["experiment=central_baseline"],
        ["central_6-3.csv", "central_6-4-3.csv", "central_6-5-3.csv"],
        "summary.csv",
        SYNTH_KEYS + ["central.batch_size", "central.epochs", "central.lr"] + ARCH_KEYS + RUN_KEYS,
    ),
}


def csv_header(path: Path) -> str:
    with open(path, newline="") as f:
        return ",".join(next(csv.reader(f)))


@pytest.mark.parametrize("name", STRUCTURED)
def test_training_outputs_keep_their_structure(name, tmp_path, capsys):
    command, sets, csvs, last, keys = STRUCTURED[name]
    code, stdout, stderr = run(tmp_path, capsys, command, sets)
    out = tmp_path / "out"
    assert code == 0
    assert [line for line in stderr.splitlines() if not line.startswith("note: ")] == []
    outputs = csvs + [last]
    assert stdout == "".join(f"wrote <out>/{path}\n" for path in outputs)
    assert sorted(p.name for p in out.iterdir()) == sorted(outputs + ["manifest.txt"])
    assert [csv_header(out / path) for path in csvs] == [ROUNDS_HEADER] * len(csvs)
    if last == "summary.csv":
        assert csv_header(out / last) == SUMMARY_HEADER
    else:
        assert (out / last).read_text() == GNUPLOT
    assert manifest_keys(out) == sorted(keys)
    assert f"run.outputs = {','.join(outputs)}" in manifest_lines(out)


# ------------------------------------------------------------ failures

MISSING_MNIST = [
    "seed=1", "data.source=mnist", "data.dir=<tmp>/nowhere", "model.layers=784,10",
    "partition.samples_per_client=10", "fed.num_clients=10", "fed.client_fraction=0.1", "fed.client_lr=0.1",
    "fed.rounds=1",
]

# name -> (command, config file, --set items, exit code, last stderr line)
FAILING = {
    "unknown-fed-key": (
        "train-fed", None, SYNTH_FED + ["fed.bogus=1"], 2, "config error: fed.bogus: unknown config key",
    ),
    "unknown-price-key": ("cost", None, ["price.bogus=1"], 2, "config error: price.bogus: unknown config key"),
    "unpartitionable": (
        "train-fed", None, SYNTH_FED + ["partition.samples_per_client=40"], 2,
        "config error: partition.samples_per_client: plan needs 240 samples but dataset has 120;"
        " fed.num_clients = 6 shards of 40 must fit the dataset's 120 rows (data.train_samples)",
    ),
    "unknown-sweep-dimension": (
        "sweep", None, ["experiment=cost_rounds_sweep", "cost.sweep.dimension=bogus"], 2,
        "config error: cost.sweep.dimension: dimension must be one of ('model_size', 'rounds', 'rounds_per_day'),"
        " got 'bogus'",
    ),
    "missing-mnist": (
        "train-fed", None, MISSING_MNIST, 4,
        "i/o error: data.train_images: none of"
        " ['<tmp>/nowhere/train-images-idx3-ubyte.gz', '<tmp>/nowhere/train-images-idx3-ubyte'] exist",
    ),
    "diverged-server-step": (
        "train-fed", SYNTH_QUICK, ["fed.rounds=3", "fed.update_mode=send_delta", "server.kind=rmsprop", "server.lr=1e308"],
        3, "diverged: the server step diverged in round 0 (non-finite loss or weights)",
    ),
}


@pytest.mark.parametrize("name", FAILING)
def test_failing_invocations_keep_their_exit_code_and_message(name, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("FEDSIM_DATA_DIR", raising=False)
    command, config, sets, code, line = FAILING[name]
    sets = [item.replace("<tmp>", str(tmp_path)) for item in sets]
    got, stdout, stderr = run(tmp_path, capsys, command, sets, config)
    assert (got, stdout, stderr.splitlines()[-1]) == (code, "", line)
