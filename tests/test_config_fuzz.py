"""Seeded config fuzz: mutated configs keep the CLI's exit-code contract.

Each case starts from a shipped config (configs/*.cfg and
bench/workloads/*.cfg, only read) or a preset, shrunk to desk size. numpy's
RNG then sets, drops or adds a few keys and picks the command. Run in-process
through cli.main, every case must return 0, 2, 3 or 4, let no exception
escape, and leave no manifest saying run.status = running. A case that exits
2 must name its key on stderr: `config error: <key>: `, where <key> is a
known key, has a known prefix, or is one the case set.
"""

import re
import sys
from pathlib import Path

import numpy as np
import pytest

from fedsim.cli import COMMANDS, main
from fedsim.config import format_value, load_config
from fedsim.harness import KNOWN_KEYS, KNOWN_PREFIXES, PRESETS

REPO = Path(__file__).resolve().parent.parent
SEED, CASES = 20261018, 300

# desk-size values for the keys that set a run's size; each base config gets them all
SHRINK = {
    "data.source": "synth", "data.num_classes": 3, "data.features": 6, "data.train_samples": 120,
    "data.test_samples": 30, "model.layers": [6, 5, 3], "partition.samples_per_client": 5, "fed.num_clients": 8,
    "fed.rounds": 2, "fed.local_epochs": 1, "fed.eval_every": 1, "central.epochs": 1,
    "preset.samples_per_client": [1, 5], "preset.arch.0": [6, 3], "preset.arch.1": [6, 4, 3],
    "preset.arch.2": [6, 5, 3],
}
# no value here can make a run large: every number is at most 3 or not an integer
VALUES = [
    "0", "-1", "1", "2", "3", "0.5", "-0.5", "1e300", "1e-300", "nan", "inf", "-inf", "abc", "", "true", "false", "full", "1,2",
    "6,0,3", "6,3", "send_delta", "adam", "rmsprop", "sgd", "iid", "single_label_multi_sample", "single_sample",
    "identity", "relu", "mnist", "model_size", "rounds", "central", "fl_training", "custom", "samples_sweep",
]
NAMED_KEY = re.compile(r"config error: ([\w.]+): ")
COMMAND_OF = {"central_baseline": "train-central"} | {
    name: "cost" for name in PRESETS if name.startswith("cost_")
} | {name: "train-fed" for name in ("custom", "samples_sweep", "single_label_sweep", "round_curves")}


def bases() -> list[tuple[str, str, dict]]:
    """(name, command, config) of every shipped config and preset."""
    found = []
    for path in sorted([*(REPO / "configs").glob("*.cfg"), *(REPO / "bench" / "workloads").glob("*.cfg")]):
        cfg = load_config(path)
        found.append((path.name, "train-central" if "central" in path.stem else "train-fed", cfg))
    found += [(name, COMMAND_OF[name], {"experiment": name, "seed": 1}) for name in PRESETS]
    return found


def sections() -> dict[str, list[str]]:
    """The keys a case may set, by section: the part of the key before its first dot."""
    by_section: dict[str, list[str]] = {}
    for key in sorted(KNOWN_KEYS | {"preset.arch.1", "run.status"}):
        by_section.setdefault(key.partition(".")[0], []).append(key)
    return by_section


def case(i: int, all_bases: list[tuple[str, str, dict]], by_section: dict[str, list[str]]) -> tuple[str, list, set]:
    """Case i, drawn from its own generator: (name, argv, the sections it set a key of).

    A key is picked by section and then by field, so a key added to one
    section changes only the cases that picked that section.
    """
    rng = np.random.default_rng([SEED, i])
    names, picked = sorted(by_section), set()
    name, command, cfg = all_bases[rng.integers(len(all_bases))]
    cfg = {**cfg, **SHRINK}
    for _ in range(rng.integers(1, 4)):
        action = rng.random()
        if action < 0.15:
            cfg.pop(sorted(cfg)[rng.integers(len(cfg))])
        elif action < 0.2:
            cfg["fuzz.unknown"] = "1"
        else:
            section = names[rng.integers(len(names))]
            picked.add(section)
            fields = by_section[section]
            cfg[fields[rng.integers(len(fields))]] = VALUES[rng.integers(len(VALUES))]
    if rng.random() < 0.2:
        command = sorted(COMMANDS)[rng.integers(len(COMMANDS))]
    overrides = [x for key in sorted(cfg) for x in ("--set", f"{key}={format_value(cfg[key])}")]
    return f"{name}:{command}", [command, *overrides], picked


def cases() -> list[tuple[str, list[str], set[str]]]:
    all_bases, by_section = bases(), sections()
    return [case(i, all_bases, by_section) for i in range(CASES)]


def test_a_new_key_changes_only_the_cases_that_picked_its_section(monkeypatch):
    before = cases()
    monkeypatch.setattr(sys.modules[__name__], "KNOWN_KEYS", KNOWN_KEYS | {"fed.fuzz_extra"})
    after = cases()
    assert sum("fed" in picked for _, _, picked in before) > 0
    for i, (old, new) in enumerate(zip(before, after)):
        if "fed" not in old[2]:
            assert new == old, i


def test_mutated_configs_keep_the_exit_code_contract(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FEDSIM_DATA_DIR", str(tmp_path / "no-mnist-here"))
    for i, (name, argv, _) in enumerate(cases()):
        out = tmp_path / str(i)
        try:
            code = main([argv[0], "--out", str(out), *argv[1:]])
        except BaseException as err:  # any escape fails the test, naming the case
            pytest.fail(f"case {i} ({name}) raised {type(err).__name__}: {err}\nargv: {argv}")
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4), (i, name, argv, err)
        if code == 2:
            key = NAMED_KEY.search(err)
            set_keys = {item.partition("=")[0] for item in argv[2::2]}
            assert key is not None, (i, name, argv, err)
            assert key[1] in KNOWN_KEYS | set_keys or key[1].startswith(KNOWN_PREFIXES), (i, name, argv, err)
        manifest = out / "manifest.txt"
        if manifest.exists():
            assert "run.status = running" not in manifest.read_text().splitlines(), (i, name, argv)
