"""Acceptance suite: numbered end-to-end checks at pinned tolerances.

Checks 1-6 are fast oracle/property gates and always run. Checks 7-10 need
the real MNIST IDX files (./data or FEDSIM_DATA_DIR) and skip when absent;
the standin_* checks exercise the same training trends on synthetic data so
those code paths are verified end to end on every run. Checks 11-14 pin the
dollar figures the calibrated default price sheet is expected to reproduce.

Each check prints one `ACCEPTANCE <id>: PASS` line (visible with pytest -s;
with plain pytest -v the test name itself is the pass/fail line).
"""

import numpy as np
import pytest

from fedsim.config import from_config
from fedsim.costs import (
    DEFAULT_PRICE_SHEET,
    CentralScenario,
    FlScenario,
    PriceSheet,
    central_cost,
    fl_deployment_cost,
    fl_training_cost,
    sweep,
)
from fedsim.data import (
    IID,
    SINGLE_LABEL,
    SINGLE_SAMPLE,
    PartitionPlan,
    partition,
    synth_dataset,
)
from fedsim.federation import (
    CentralConfig,
    FedConfig,
    GlobalState,
    run_round,
    train_centralized,
    train_federated,
)
from fedsim.harness import COST_ROUNDS_SWEEP, PRESETS
from fedsim.nn import Batch, MlpSpec, ParamVector, ServerOptimizerState, init_params, loss, loss_grad, sgd_step
from fedsim.rng import derive_seed

# the campaign of the cost_rounds_sweep preset; tests/test_costs.py pins it to the reference shape
ROUNDS_BASE = from_config(FlScenario, PRESETS[COST_ROUNDS_SWEEP], "cost.")


def report(check_id: str, detail: str) -> None:
    print(f"ACCEPTANCE {check_id}: PASS ({detail})")


# ------------------------------------------------------------ 1-4: oracles

def test_c01_gradients_match_finite_differences():
    """Backprop agrees with central finite differences on 20 random small nets."""
    spec = MlpSpec((20, 8, 5))
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        params = init_params(spec, trial)
        batch = Batch(rng.uniform(0, 1, size=(6, 20)), rng.integers(0, 5, size=6))
        _, grad = loss_grad(params, batch)

        fd = np.zeros_like(params.values)
        h = 1e-5
        for i in range(fd.size):
            bumped = params.values.copy()
            bumped[i] += h
            up = loss(ParamVector(bumped, spec), batch)
            bumped[i] -= 2 * h
            down = loss(ParamVector(bumped, spec), batch)
            fd[i] = (up - down) / (2 * h)

        tol = np.maximum(1e-6, 1e-4 * np.abs(fd))
        gap = np.abs(grad.values - fd)
        assert np.all(gap <= tol)
        worst = max(worst, float((gap / tol).max()))
    report("01 gradient-correctness", f"20 nets, worst gap at {worst:.2e} of tolerance")


def _pooled_batch(dataset, shards):
    union = np.sort(np.concatenate([s.indices for s in shards]))
    return Batch(dataset.inputs[union], dataset.labels[union])


def test_c02_full_participation_round_equals_central_batch_step():
    """C=1, E=1, full-batch rounds track central batch gradient descent."""
    ds = synth_dataset(5, 12, 400, seed=21)
    shards = partition(ds, PartitionPlan(IID, num_clients=8, samples_per_client=50, seed=21))
    spec = MlpSpec((12, 10, 5))
    config = FedConfig(
        num_clients=8, client_fraction=1.0, local_epochs=1, batch_size=None, client_lr=0.3, rounds=10, seed=21
    )
    pooled = _pooled_batch(ds, shards)

    state = GlobalState(init_params(spec, 21), 0, config.server_opt)
    central = state.weights
    worst = 0.0
    for _ in range(10):
        state, _ = run_round(state, config, shards, ds)
        central = sgd_step(central, loss_grad(central, pooled)[1], 0.3)
        worst = max(worst, float(np.max(np.abs(state.weights.values - central.values))))
        assert worst <= 1e-9
    report("02 fedsgd-equals-batch-gd", f"10 rounds, max coordinate gap {worst:.2e}")


def test_c03_single_sample_round_equals_minibatch_sgd_step():
    ds = synth_dataset(4, 10, 300, seed=22)
    shards = partition(ds, PartitionPlan(SINGLE_SAMPLE, num_clients=60, samples_per_client=1, seed=22))
    spec = MlpSpec((10, 4))
    config = FedConfig(
        num_clients=60, client_fraction=0.15, local_epochs=1, batch_size=None, client_lr=0.4, rounds=1, seed=22
    )

    state = GlobalState(init_params(spec, 22), 0, config.server_opt)
    new_state, metrics = run_round(state, config, shards, ds)

    chosen = np.array([shards[c].indices[0] for c in metrics.selected_clients])
    minibatch = Batch(ds.inputs[chosen], ds.labels[chosen])
    expected = sgd_step(state.weights, loss_grad(state.weights, minibatch)[1], 0.4)
    gap = float(np.max(np.abs(new_state.weights.values - expected.values)))
    assert gap <= 1e-9
    report("03 single-sample-equals-minibatch-sgd", f"{metrics.selected_clients} selected, gap {gap:.2e}")


def test_c04_delta_mode_matches_weight_mode_over_20_rounds():
    ds = synth_dataset(4, 10, 480, seed=23)
    shards = partition(ds, PartitionPlan(IID, num_clients=12, samples_per_client=20, seed=23))
    spec = MlpSpec((10, 8, 4))
    base = dict(num_clients=12, client_fraction=0.4, local_epochs=3, batch_size=5, client_lr=0.15, rounds=20, seed=23)

    _, final_w = train_federated(spec, FedConfig(update_mode="send_weights", **base), shards, ds)
    _, final_d = train_federated(
        spec,
        FedConfig(update_mode="send_delta", server_opt=ServerOptimizerState(kind="sgd", lr=1.0), **base),
        shards,
        ds,
    )
    gap = float(np.max(np.abs(final_w.weights.values - final_d.weights.values)))
    assert gap <= 1e-9
    report("04 delta-mode-equivalence", f"20 rounds, max coordinate gap {gap:.2e}")


# ------------------------------------------------------ 5: partition suite

def test_c05_partition_invariants_over_100_random_plans():
    rng = np.random.default_rng(24)
    ds = synth_dataset(6, 8, 1800, seed=24)  # 300 samples per class
    checked = 0
    for _ in range(100):
        kind = (IID, SINGLE_LABEL, SINGLE_SAMPLE)[rng.integers(0, 3)]
        num_clients = int(rng.integers(1, 25))
        if kind == IID:
            spc = int(rng.integers(1, len(ds) // num_clients + 1))
        elif kind == SINGLE_LABEL:
            heaviest = -(-num_clients // ds.num_classes)  # clients sharing the busiest class
            spc = int(rng.integers(1, 300 // heaviest + 1))
        else:
            spc = 1
        shards = partition(ds, PartitionPlan(kind, num_clients, spc, seed=int(rng.integers(0, 2**31))))

        flat = np.concatenate([s.indices for s in shards])
        assert len(flat) == len(set(flat.tolist())), "shards must be pairwise disjoint"
        assert len(flat) == num_clients * spc
        for shard in shards:
            census = np.bincount(ds.labels[shard.indices], minlength=ds.num_classes)
            assert np.array_equal(census, shard.label_census), "census must match indices"
            if kind in (SINGLE_LABEL, SINGLE_SAMPLE):
                assert (shard.label_census > 0).sum() == 1, "shards must be label-homogeneous"
        checked += 1
    assert checked == 100
    report("05 partition-invariants", "100 random plans: disjoint, honest census, homogeneous")


# ----------------------------------------------------- 6: cost properties

def test_c06_cost_model_properties():
    p = DEFAULT_PRICE_SHEET
    base = FlScenario(model_size_bytes=500_000, rounds=200, rounds_per_day=100)

    for breakdown in (fl_training_cost(base, p), fl_deployment_cost(base, p), central_cost(CentralScenario(), p)):
        assert breakdown.total == pytest.approx(sum(i.dollars for i in breakdown.items), abs=1e-6)

    zero = PriceSheet.zeros()
    assert fl_training_cost(base, zero).total == 0.0
    assert fl_deployment_cost(base, zero).total == 0.0
    assert central_cost(CentralScenario(), zero).total == 0.0

    t0 = fl_training_cost(base, p).total
    assert fl_training_cost(FlScenario(model_size_bytes=5e6, rounds=200, rounds_per_day=100), p).total >= t0
    assert fl_training_cost(FlScenario(model_size_bytes=500_000, rounds=400, rounds_per_day=100), p).total >= t0
    d0 = fl_deployment_cost(base, p).total
    assert fl_deployment_cost(FlScenario(model_size_bytes=500_000, rounds=200, rounds_per_day=100, population=24_000_000), p).total >= d0
    c0 = central_cost(CentralScenario(), p).total
    assert central_cost(CentralScenario(population=24_000_000), p).total >= c0

    def comm(breakdown):
        return sum(i.dollars for i in breakdown.items if i.category == "communication")

    doubled = FlScenario(model_size_bytes=500_000, rounds=200, rounds_per_day=100, cohort=1000)
    assert comm(fl_training_cost(doubled, p)) == pytest.approx(2 * comm(fl_training_cost(base, p)), rel=1e-12)
    report("06 cost-properties", "additivity, zero-sheet, monotonicity, cohort linearity")


# ------------------------------------------- 7-10: MNIST trend reproduction

def _fed_run(dataset, test_set, layers, kind, spc, seed, rounds=100, eval_every=None, num_clients=100):
    shards = partition(
        dataset,
        PartitionPlan(kind, num_clients=num_clients, samples_per_client=spc, seed=derive_seed(seed, "partition", spc)),
    )
    config = FedConfig(
        num_clients=num_clients,
        client_fraction=0.1,
        local_epochs=5,
        batch_size=10,
        client_lr=0.1,
        rounds=rounds,
        seed=seed,
        eval_every=eval_every if eval_every is not None else rounds,
    )
    history, _ = train_federated(MlpSpec(tuple(layers)), config, shards, dataset, test_set)
    return [m for m in history if m.train_accuracy is not None]


@pytest.mark.mnist
def test_c07_accuracy_increases_with_samples_per_device(mnist):
    train, test = mnist
    margins = []
    for layers in ([784, 10], [784, 200, 10], [784, 500, 200, 10]):
        finals = {}
        for spc in (1, 50, 200):
            accs = [
                _fed_run(train, test, layers, IID, spc, derive_seed(7, "c07", tuple(layers), spc, s))[-1].test_accuracy
                for s in range(3)
            ]
            finals[spc] = float(np.mean(accs))
        assert finals[1] < finals[50] < finals[200], f"{layers}: {finals}"
        assert finals[200] - finals[1] >= 0.02, f"{layers}: {finals}"
        margins.append(finals[200] - finals[1])
    report("07 samples-per-device-trend", f"endpoint margins {[f'{m:.3f}' for m in margins]}")


@pytest.mark.mnist
def test_c08_single_label_many_samples_overfit(mnist):
    train, test = mnist
    layers = [784, 500, 200, 10]
    last_200 = _fed_run(train, test, layers, SINGLE_LABEL, 200, derive_seed(8, "c08", 200))[-1]
    gap_200 = last_200.train_accuracy - last_200.test_accuracy
    last_10 = _fed_run(train, test, layers, SINGLE_LABEL, 10, derive_seed(8, "c08", 10))[-1]
    gap_10 = last_10.train_accuracy - last_10.test_accuracy
    assert gap_200 >= 0.10, f"gap at 200 samples/device: {gap_200:.3f}"
    assert gap_10 <= 0.05, f"gap at 10 samples/device: {gap_10:.3f}"
    report("08 single-label-overfitting", f"gap@200={gap_200:.3f}, gap@10={gap_10:.3f}")


@pytest.mark.mnist
def test_c09_single_sample_underfits_multi_sample(mnist):
    train, test = mnist
    layers = [784, 500, 200, 10]

    def mean_curve(kind, spc):
        runs = [
            _fed_run(train, test, layers, kind, spc, derive_seed(9, "c09", spc, s), rounds=300, eval_every=25)
            for s in range(3)
        ]
        rounds_idx = [m.round_index for m in runs[0]]
        curve = np.mean([[m.test_accuracy for m in r] for r in runs], axis=0)
        return rounds_idx, curve

    rounds_idx, single = mean_curve(SINGLE_SAMPLE, 1)
    _, multi = mean_curve(SINGLE_LABEL, 10)
    late = [(r, s, m) for r, s, m in zip(rounds_idx, single, multi) if r + 1 >= 50]
    assert late, "need checkpoints at round 50 or later"
    for r, s, m in late:
        assert s < m, f"round {r}: single-sample {s:.3f} not below 10-sample {m:.3f}"
    report("09 single-sample-underfitting", f"{len(late)} checkpoints, all below multi-sample curve")


@pytest.mark.mnist
def test_c10_centralized_mnist_sanity(mnist):
    train, test = mnist
    history, _ = train_centralized(
        MlpSpec((784, 500, 200, 10)), train, test, CentralConfig(lr=0.1, batch_size=32, epochs=5), seed=10
    )
    final = history[-1].test_accuracy
    assert final >= 0.95, f"centralized test accuracy {final:.4f}"
    report("10 centralized-sanity", f"test accuracy {final:.4f} after 5 epochs")


# ------------------------------- synthetic stand-ins for the trend checks

def _standin_run(kind, spc, seed, d=100, classes=10, rounds=60, eval_every=10):
    train = synth_dataset(classes, d, 4000, derive_seed(seed, "standin-train"))
    test = synth_dataset(classes, d, 1500, derive_seed(seed, "standin-test"))
    shards = partition(train, PartitionPlan(kind, num_clients=20, samples_per_client=spc, seed=derive_seed(seed, "p", spc)))
    config = FedConfig(
        num_clients=20, client_fraction=0.5, local_epochs=8, batch_size=10, client_lr=0.3, rounds=rounds, seed=seed,
        eval_every=eval_every,
    )
    history, _ = train_federated(MlpSpec((d, 128, classes)), config, shards, train, test)
    return [m for m in history if m.train_accuracy is not None]


def test_standin_accuracy_increases_with_samples_per_device():
    """Synthetic stand-in for the samples-per-device trend (MNIST check 07)."""
    finals = {}
    for spc in (1, 10, 50):
        accs = []
        for seed in range(2):
            train = synth_dataset(10, 20, 8000, derive_seed(seed, "sa-train"))
            test = synth_dataset(10, 20, 2000, derive_seed(seed, "sa-test"))
            shards = partition(train, PartitionPlan(IID, 40, spc, derive_seed(seed, "sa-p", spc)))
            config = FedConfig(
                num_clients=40, client_fraction=0.25, local_epochs=3, batch_size=10, client_lr=0.2, rounds=40, seed=seed,
                eval_every=40,
            )
            history, _ = train_federated(MlpSpec((20, 32, 10)), config, shards, train, test)
            accs.append(history[-1].test_accuracy)
        finals[spc] = float(np.mean(accs))
    assert finals[1] < finals[10] < finals[50]
    assert finals[50] - finals[1] >= 0.02
    report("standin samples-per-device", f"{finals}")


def test_standin_label_skew_hurts_generalization():
    """Synthetic stand-in for the label-skew effect (MNIST check 08)."""
    iid_acc = float(np.mean([_standin_run(IID, 50, s)[-1].test_accuracy for s in range(3)]))
    skew_acc = float(np.mean([_standin_run(SINGLE_LABEL, 50, s)[-1].test_accuracy for s in range(3)]))
    assert iid_acc - skew_acc >= 0.02
    report("standin label-skew-penalty", f"iid {iid_acc:.3f} vs single-label {skew_acc:.3f}")


def test_standin_single_sample_underfits():
    """Synthetic stand-in for the single-sample learning curve (MNIST check 09)."""
    single = np.mean([[m.test_accuracy for m in _standin_run(SINGLE_SAMPLE, 1, s)] for s in range(3)], axis=0)
    multi = np.mean([[m.test_accuracy for m in _standin_run(SINGLE_LABEL, 10, s)] for s in range(3)], axis=0)
    rounds_idx = [m.round_index for m in _standin_run(SINGLE_SAMPLE, 1, 0)]
    late = [(r, s, m) for r, s, m in zip(rounds_idx, single, multi) if r + 1 >= 20]
    for r, s, m in late:
        assert s < m, f"round {r}: single-sample {s:.3f} not below multi-sample {m:.3f}"
    report("standin single-sample-underfit", f"{len(late)} checkpoints below multi-sample curve")


# ------------------------------------------------ 11-14: cost reproduction

def test_c11_central_cost_reference_points():
    p = DEFAULT_PRICE_SHEET
    low = central_cost(CentralScenario(sync_bytes_per_device_month=250_000), p).total
    high = central_cost(CentralScenario(sync_bytes_per_device_month=1_000_000), p).total
    assert low == pytest.approx(1967.90, rel=0.10)
    assert high == pytest.approx(3769.70, rel=0.10)
    assert high - low == pytest.approx(1801.80, abs=1e-6)
    report("11 central-cost", f"{low:.2f} / {high:.2f}, delta {high - low:.2f}")


def test_c12_training_cost_flat_in_model_size_deployment_not():
    p = DEFAULT_PRICE_SHEET
    targets = {15_000: 525.68, 500_000: 533.15, 1_000_000: 540.85}
    totals = {}
    for size, target in targets.items():
        total = fl_training_cost(FlScenario(model_size_bytes=size, rounds=200, rounds_per_day=100), p).total
        assert total == pytest.approx(target, rel=0.10), f"{size}: {total:.2f} vs {target}"
        totals[size] = total
    spread = (max(totals.values()) - min(totals.values())) / min(totals.values())
    assert spread < 0.05

    def transfer(size):
        breakdown = fl_deployment_cost(FlScenario(model_size_bytes=size, rounds=200, rounds_per_day=100), p)
        return next(i.dollars for i in breakdown.items if "downloads" in i.name)

    ratio = transfer(15_000_000) / transfer(15_000)
    assert ratio >= 500
    report("12 model-size-cost-shape", f"totals {[f'{t:.2f}' for t in totals.values()]}, spread {spread:.2%}, ratio {ratio:.0f}x")


def test_c13_reference_model_training_cost_targets():
    rows = sweep("model_size", [1_610_000, 24_030_000], ROUNDS_BASE, DEFAULT_PRICE_SHEET)
    totals = [row.training_cost for row in rows]
    assert totals[0] == pytest.approx(1111.0, rel=0.15)
    assert totals[1] == pytest.approx(6290.0, rel=0.15)
    report("13 model-size-cost-targets", f"1.61MB -> {totals[0]:.2f}, 24.03MB -> {totals[1]:.2f}")


def test_c14_sweep_shapes():
    rows_rounds = sweep("rounds", [200, 500, 1000, 2000, 3000, 5000], ROUNDS_BASE, DEFAULT_PRICE_SHEET)
    costs = [r.training_cost for r in rows_rounds]
    assert all(b > a for a, b in zip(costs, costs[1:]))

    rows_rpd = sweep("rounds_per_day", [25, 50, 100, 200, 400], ROUNDS_BASE, DEFAULT_PRICE_SHEET)
    costs_rpd = [r.training_cost for r in rows_rpd]
    assert all(b <= a for a, b in zip(costs_rpd, costs_rpd[1:]))
    report("14 sweep-shapes", "training cost rises with rounds, falls with rounds/day")
