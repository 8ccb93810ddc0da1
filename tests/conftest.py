import os
from pathlib import Path

import numpy as np
import pytest

from fedsim.data import load_idx
from fedsim.nn import loss_and_grad_raw
from fedsim.rng import derive_seed

DATA_DIR = Path(os.environ.get("FEDSIM_DATA_DIR", str(Path(__file__).resolve().parent.parent / "data")))

MNIST_NAMES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


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


def reference_sgd_epoch(w, spec, ds, order, batch_size, lr):
    """The allocating loop: fresh batch arrays and gradient per step, then w -= lr * grad."""
    losses = []
    for start in range(0, order.size, batch_size):
        idx = order[start : start + batch_size]
        value, grad = loss_and_grad_raw(w, spec, ds.inputs[idx], ds.labels[idx])
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
