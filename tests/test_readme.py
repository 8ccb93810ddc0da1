"""README.md names only what exists, and states the design, not its history.

Every backticked module-qualified name resolves, and the file stays short
and free of paired-run reports, which CHANGES.md keeps.

A span such as `federation._groups`, `machine.one_blas_thread()` or
`fedsim.nn.Workspace` must name an attribute of that fedsim module, so a
rename that leaves the README behind fails here. Spans whose first part is
no fedsim module (`np.take`, `run.workers`) are not checked, nor are config
keys and benchmark metrics, which share the dotted form (`data.source`,
`nn.loss_and_grad_raw.calls`).
"""

import importlib
import json
import pkgutil
import re
from pathlib import Path

import pytest

import fedsim
from fedsim.harness import KNOWN_KEYS

REPO = Path(__file__).resolve().parent.parent
MODULES = {module.name for module in pkgutil.iter_modules(fedsim.__path__)}
METRICS = {metric["name"] for metric in json.loads((REPO / "BENCHMARK.json").read_text())["per_layer"]}


def readme_names() -> list[str]:
    """The module-qualified names in README.md's inline code spans, in order, each once."""
    text = re.sub(r"```.*?```", "", (REPO / "README.md").read_text(), flags=re.S)  # fenced blocks hold no spans
    names = []
    for span in re.findall(r"`([^`\n]+)`", text):
        name = span.removesuffix("()")
        parts = name.removeprefix("fedsim.").split(".")
        if re.fullmatch(r"\w+(\.\w+)+", name) and parts[0] in MODULES and name not in KNOWN_KEYS | METRICS:
            names.append(name)
    return list(dict.fromkeys(names))


def test_the_check_finds_the_readmes_names():
    assert {"federation._groups", "machine.one_blas_thread", "fedsim.nn.Workspace"} <= set(readme_names())


@pytest.mark.parametrize("name", readme_names())
def test_a_name_in_the_readme_resolves(name):
    module, *attrs = name.removeprefix("fedsim.").split(".")
    obj = importlib.import_module(f"fedsim.{module}")
    for attr in attrs:
        assert hasattr(obj, attr), f"README.md names {name}, but {obj.__name__} has no {attr}"
        obj = getattr(obj, attr)


def test_the_readme_stays_short():
    assert len((REPO / "README.md").read_text().splitlines()) <= 400


def test_the_readme_holds_no_paired_run_history():
    history = [line for line in (REPO / "README.md").read_text().splitlines() if re.search(r"alternating pairs|seeds \d+–\d+", line)]
    assert history == [], "paired-run reports belong in CHANGES.md"
