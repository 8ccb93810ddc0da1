from dataclasses import replace

import pytest

from fedsim.costs import (
    COMMUNICATION,
    DEFAULT_PRICE_SHEET,
    GB,
    CentralScenario,
    FlScenario,
    PriceSheet,
    central_cost,
    fl_deployment_cost,
    fl_training_cost,
    sweep,
)
from fedsim.config import from_config
from fedsim.harness import COST_MODEL_SIZE_SWEEP, COST_ROUNDS_SWEEP, PRESETS

# the campaigns of the cost_model_size_sweep and cost_rounds_sweep presets
MODEL_SIZE_BASE = from_config(FlScenario, PRESETS[COST_MODEL_SIZE_SWEEP], "cost.")
ROUNDS_BASE = from_config(FlScenario, PRESETS[COST_ROUNDS_SWEEP], "cost.")


def sync_slope_from_costs(
    total_low: float, total_high: float, population: int, bytes_low: float, bytes_high: float
) -> float:
    """Per-GB slope implied by two (sync volume, total cost) observations.

    This is the calibration rule behind the default sheet's sync pricing:
    the slope equals sync_per_gb + storage_per_gb_month, since those are the
    only volume-proportional terms in central_cost.
    """
    delta_gb = population * (bytes_high - bytes_low) / GB
    return (total_high - total_low) / delta_gb


def fl(model_size=500_000, rounds=200, rounds_per_day=100, **kw):
    return FlScenario(model_size_bytes=model_size, rounds=rounds, rounds_per_day=rounds_per_day, **kw)


def comm_total(breakdown):
    return sum(i.dollars for i in breakdown.items if i.category == COMMUNICATION)


class TestBreakdownInvariants:
    def test_total_is_sum_of_items(self):
        for breakdown in (
            fl_training_cost(fl(), DEFAULT_PRICE_SHEET),
            fl_deployment_cost(fl(), DEFAULT_PRICE_SHEET),
            central_cost(CentralScenario(), DEFAULT_PRICE_SHEET),
        ):
            assert breakdown.total == pytest.approx(sum(i.dollars for i in breakdown.items), abs=1e-6)
            assert all(i.dollars >= 0 for i in breakdown.items)

    def test_zero_sheet_zeroes_everything(self):
        zero = PriceSheet.zeros()
        assert fl_training_cost(fl(), zero).total == 0.0
        assert fl_deployment_cost(fl(), zero).total == 0.0
        assert central_cost(CentralScenario(), zero).total == 0.0


class TestFlTrainingCost:
    def test_independent_arithmetic_oracle(self):
        # every term recomputed from first principles against the default sheet
        p = DEFAULT_PRICE_SHEET
        s = fl()
        out_gb = 200 * 500 * (500_000 + 50_000 + 2 * 1_000) / GB
        days = 200 / 100
        expected = (
            out_gb * p.data_out_per_gb
            + 200 * 500 * 500_000 / GB * p.data_in_per_gb
            + days * 24 * (p.instance_hourly["aggregator"] + p.instance_hourly["training"] + p.lb_hourly)
            + 730 * (
                p.instance_hourly["portal"]
                + p.instance_hourly["monitoring"]
                + p.instance_hourly["jumpbox"]
                + p.nat_hourly
            )
            + p.dns_monthly_fixed
        )
        assert fl_training_cost(s, p).total == pytest.approx(expected, abs=1e-9)

    def test_degenerate_scenario_is_fixed_infra_only(self):
        s = fl(model_size=0, rounds=0, msg_size_bytes=0, plan_size_bytes=0)
        breakdown = fl_training_cost(s, DEFAULT_PRICE_SHEET)
        p = DEFAULT_PRICE_SHEET
        fixed_only = (
            730 * (p.instance_hourly["portal"] + p.instance_hourly["monitoring"] + p.instance_hourly["jumpbox"] + p.nat_hourly)
            + p.dns_monthly_fixed
        )
        assert breakdown.total == pytest.approx(fixed_only, abs=1e-9)

    def test_doubling_rounds_increases_comm_and_compute(self):
        a = fl_training_cost(fl(rounds=200), DEFAULT_PRICE_SHEET)
        b = fl_training_cost(fl(rounds=400), DEFAULT_PRICE_SHEET)
        assert comm_total(b) > comm_total(a)
        by_a, by_b = a.by_category(), b.by_category()
        assert by_b["compute"] > by_a["compute"]

    def test_communication_is_linear_in_cohort_and_model_size(self):
        base = fl_training_cost(fl(), DEFAULT_PRICE_SHEET)
        doubled_cohort = fl_training_cost(fl(cohort=1000), DEFAULT_PRICE_SHEET)
        assert comm_total(doubled_cohort) == pytest.approx(2 * comm_total(base), rel=1e-12)

        m1 = fl_training_cost(fl(model_size=1_000_000, plan_size_bytes=0, msg_size_bytes=0), DEFAULT_PRICE_SHEET)
        m2 = fl_training_cost(fl(model_size=2_000_000, plan_size_bytes=0, msg_size_bytes=0), DEFAULT_PRICE_SHEET)
        assert comm_total(m2) == pytest.approx(2 * comm_total(m1), rel=1e-12)

    def test_monotone_in_sizes_rounds_population_and_prices(self):
        base = fl()
        t0 = fl_training_cost(base, DEFAULT_PRICE_SHEET).total
        assert fl_training_cost(replace(base, model_size_bytes=2e6), DEFAULT_PRICE_SHEET).total >= t0
        assert fl_training_cost(replace(base, rounds=300), DEFAULT_PRICE_SHEET).total >= t0
        assert fl_training_cost(replace(base, population=24_000_000), DEFAULT_PRICE_SHEET).total >= t0
        for bump in (
            {"data_out_per_gb": 1.0},
            {"data_in_per_gb": 1.0},
            {"lb_hourly": 1.0},
            {"nat_hourly": 1.0},
            {"dns_monthly_fixed": 10.0},
            {"instance_hourly": {**DEFAULT_PRICE_SHEET.instance_hourly, "portal": 5.0}},
        ):
            pricier = replace(DEFAULT_PRICE_SHEET, **bump)
            assert fl_training_cost(base, pricier).total >= t0


class TestFlDeploymentCost:
    def test_population_zero_leaves_storage_only(self):
        breakdown = fl_deployment_cost(fl(population=0, registered=0, cohort=0), DEFAULT_PRICE_SHEET)
        nonzero = [i for i in breakdown.items if i.dollars > 0]
        assert [i.name for i in nonzero] == ["model storage (GB-months)"]

    def test_transfer_item_slope_is_population_times_rate(self):
        p = DEFAULT_PRICE_SHEET
        small = fl_deployment_cost(fl(model_size=1_000_000), p)
        large = fl_deployment_cost(fl(model_size=2_000_000), p)
        transfer_small = next(i for i in small.items if "downloads" in i.name)
        transfer_large = next(i for i in large.items if "downloads" in i.name)
        slope = (transfer_large.dollars - transfer_small.dollars) / (1_000_000 / GB)
        assert slope == pytest.approx(12_000_000 * p.data_out_per_gb, rel=1e-12)

    def test_transfer_ratio_tracks_model_size_ratio(self):
        p = DEFAULT_PRICE_SHEET
        big = fl_deployment_cost(fl(model_size=15_000_000), p)
        small = fl_deployment_cost(fl(model_size=15_000), p)
        t_big = next(i for i in big.items if "downloads" in i.name).dollars
        t_small = next(i for i in small.items if "downloads" in i.name).dollars
        assert t_big / t_small == pytest.approx(1000.0, rel=1e-12)


class TestCentralCost:
    def test_independent_arithmetic_oracle(self):
        p = DEFAULT_PRICE_SHEET
        s = CentralScenario()
        sync_gb = 12_000_000 * 250_000 / GB
        expected = (
            sync_gb * (p.sync_per_gb + p.storage_per_gb_month)
            + 12_000_000 * 12 / 1000 * p.object_write_per_1k
            + 12_000_000 * 100 / GB * p.data_out_per_gb
            + (3 * 1 + 2 * 1 + 3 * 4) * 24 * p.instance_hourly["training"]
            + 6 * 24 * p.lb_hourly
            + 730 * (p.instance_hourly["portal"] + p.instance_hourly["monitoring"] + p.instance_hourly["jumpbox"] + p.nat_hourly)
            + p.dns_monthly_fixed
        )
        assert central_cost(s, p).total == pytest.approx(expected, abs=1e-9)

    def test_sync_slope_oracle_matches_sheet_calibration(self):
        # the slope solved from the two stock totals must equal the
        # volume-proportional rates in the sheet: sync + storage
        p = DEFAULT_PRICE_SHEET
        low = central_cost(CentralScenario(sync_bytes_per_device_month=250_000), p).total
        high = central_cost(CentralScenario(sync_bytes_per_device_month=1_000_000), p).total
        slope = sync_slope_from_costs(low, high, 12_000_000, 250_000, 1_000_000)
        assert slope == pytest.approx(p.sync_per_gb + p.storage_per_gb_month, abs=1e-12)

    def test_monotone_in_population_and_sync_volume(self):
        t0 = central_cost(CentralScenario(), DEFAULT_PRICE_SHEET).total
        assert central_cost(CentralScenario(population=24_000_000), DEFAULT_PRICE_SHEET).total >= t0
        assert central_cost(CentralScenario(sync_bytes_per_device_month=500_000), DEFAULT_PRICE_SHEET).total >= t0


class TestSweeps:
    def test_preset_bases_are_the_reference_campaigns(self):
        assert MODEL_SIZE_BASE == FlScenario(model_size_bytes=500_000.0, rounds=200, rounds_per_day=100)
        assert ROUNDS_BASE == FlScenario(model_size_bytes=500_000.0, rounds=3000, rounds_per_day=200)

    def test_rows_follow_base_scenario(self):
        rows = sweep("model_size", [15_000, 500_000], MODEL_SIZE_BASE, DEFAULT_PRICE_SHEET)
        assert [r.value for r in rows] == [15_000, 500_000]
        assert rows[1].training_cost > rows[0].training_cost
        assert rows[1].deployment_cost > rows[0].deployment_cost

    def test_training_cost_strictly_increasing_in_rounds(self):
        rows = sweep("rounds", [200, 500, 1000, 2000, 3000], ROUNDS_BASE, DEFAULT_PRICE_SHEET)
        costs = [r.training_cost for r in rows]
        assert all(b > a for a, b in zip(costs, costs[1:]))

    def test_training_cost_non_increasing_in_rounds_per_day(self):
        rows = sweep("rounds_per_day", [25, 50, 100, 200, 400], ROUNDS_BASE, DEFAULT_PRICE_SHEET)
        costs = [r.training_cost for r in rows]
        assert all(b <= a for a, b in zip(costs, costs[1:]))

    def test_unknown_dimension_rejected(self):
        with pytest.raises(ValueError):
            sweep("cohort", [1], MODEL_SIZE_BASE, DEFAULT_PRICE_SHEET)

    def test_training_column_matches_individual_evaluations(self):
        sizes = [1_610_000, 24_030_000]
        totals = [row.training_cost for row in sweep("model_size", sizes, ROUNDS_BASE, DEFAULT_PRICE_SHEET)]
        for size, total in zip(sizes, totals):
            direct = fl_training_cost(replace(ROUNDS_BASE, model_size_bytes=size), DEFAULT_PRICE_SHEET).total
            assert total == pytest.approx(direct, rel=1e-15)


class TestScenarioValidation:
    def test_cohort_bounds(self):
        with pytest.raises(ValueError):
            fl(cohort=600_000)

    def test_negative_prices_rejected(self):
        with pytest.raises(ValueError):
            replace(DEFAULT_PRICE_SHEET, data_out_per_gb=-0.1)

    def test_missing_instance_role_rejected(self):
        with pytest.raises(ValueError):
            PriceSheet(
                data_out_per_gb=0.1,
                data_in_per_gb=0.0,
                sync_per_gb=0.1,
                storage_per_gb_month=0.02,
                object_read_per_1k=0.0,
                object_write_per_1k=0.0,
                instance_hourly={"portal": 0.2},
                lb_hourly=0.0,
                nat_hourly=0.0,
                dns_monthly_fixed=0.0,
            )
