import multiprocessing
import os
from pathlib import Path

import numpy as np
import pytest

from fedsim.data import load_idx
from fedsim.nn import unflatten
from fedsim.rng import derive_seed

REPO = Path(__file__).resolve().parent.parent
DATA_DIR = Path(os.environ.get("FEDSIM_DATA_DIR", str(REPO / "data")))

MNIST_NAMES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


def child_env(*dirs: Path, env: dict | None = None) -> dict[str, str]:
    """env (os.environ when omitted) for a child process that imports this checkout's fedsim.

    Its PYTHONPATH is src, then dirs, then the PYTHONPATH env already had.
    """
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), *map(str, dirs), env.get("PYTHONPATH")]))
    return env


@pytest.fixture(autouse=True)
def no_worker_left():
    """Every test ends with no child process of its own running: a run closes the cohort pool it made."""
    yield
    assert multiprocessing.active_children() == []


def _find(name: str) -> Path | None:
    for candidate in (DATA_DIR / (name + ".gz"), DATA_DIR / name):
        if candidate.exists():
            return candidate
    return None


@pytest.fixture(scope="session")
def mnist():
    """Real MNIST train/test datasets, or a skip when the IDX files are absent."""
    paths = {key: _find(name) for key, name in MNIST_NAMES.items()}
    missing = [MNIST_NAMES[k] for k, v in paths.items() if v is None]
    if missing:
        pytest.skip(
            f"MNIST IDX files not found under {DATA_DIR} (missing {missing}); "
            "set FEDSIM_DATA_DIR or place the files in ./data to run this check"
        )
    train = load_idx(paths["train_images"], paths["train_labels"])
    test = load_idx(paths["test_images"], paths["test_labels"])
    assert len(train) == 60_000 and train.num_features == 784
    assert len(test) == 10_000
    return train, test


def reference_loss_and_grad(values, spec, inputs, labels):
    """The allocating formulation of loss_and_grad_raw: every intermediate is a fresh array."""
    layers = unflatten(values, spec)
    acts = [inputs]
    pre = []
    h = inputs
    for i, (w, b) in enumerate(layers):
        z = h @ w + b
        pre.append(z)
        h = np.maximum(z, 0.0) if i < len(layers) - 1 and spec.activation == "relu" else z
        acts.append(h)
    shifted = acts[-1] - acts[-1].max(axis=1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=1, keepdims=True)
    n = inputs.shape[0]
    value = float(-np.log(np.maximum(probs[np.arange(n), labels], 1e-12)).mean())
    delta = probs.copy()
    delta[np.arange(n), labels] -= 1.0
    delta /= n
    grad = np.empty_like(values)
    grad_layers = unflatten(grad, spec)
    for i in range(len(layers) - 1, -1, -1):
        gw, gb = grad_layers[i]
        gw[:] = acts[i].T @ delta
        gb[:] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ layers[i][0].T
            if spec.activation == "relu":
                delta = delta * (pre[i - 1] > 0)
    return value, grad


def reference_sgd_epoch(w, spec, ds, order, batch_size, lr):
    """The allocating loop on a (P,) vector: fresh batch arrays and gradient per step, then w -= lr * grad.

    It shares no code with fedsim's kernel, so the bit tests that compare against it check the kernel too.
    """
    losses = []
    for start in range(0, order.size, batch_size):
        idx = order[start : start + batch_size]
        value, grad = reference_loss_and_grad(w, spec, ds.inputs[idx], ds.labels[idx])
        w -= lr * grad
        losses.append(value)
    return losses


def reference_client_update(shard, ds, weights, local_epochs, batch_size, lr, client_seed):
    """One client's local training as a (P,) vector through the allocating loop; returns its new weights."""
    w = weights.values.copy()
    b = shard.num_samples if batch_size is None else batch_size
    for epoch in range(local_epochs):
        order = np.random.default_rng(derive_seed(client_seed, "epoch", epoch)).permutation(shard.indices)
        reference_sgd_epoch(w, weights.spec, ds, order, b, lr)
    return w
