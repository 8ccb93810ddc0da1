"""Cloud dollar costs: federated training vs deployment vs centralized sync.

Uses the bundled calibrated price sheet. Shows the three stock breakdowns,
then the three sweeps that matter when sizing a federated campaign: model
size (deployment explodes, training barely moves), number of aggregation
rounds (training cost climbs), and rounds per day (training cost falls as
the training fleet stays up for fewer days).
"""

from fedsim.costs import (
    DEFAULT_PRICE_SHEET,
    CentralScenario,
    FlScenario,
    central_cost,
    fl_deployment_cost,
    fl_training_cost,
    sweep,
)
from fedsim.config import from_config
from fedsim.harness import COST_MODEL_SIZE_SWEEP, COST_ROUNDS_SWEEP, PRESETS, format_breakdown_table, format_sweep_table

sheet = DEFAULT_PRICE_SHEET
model_size_base = from_config(FlScenario, PRESETS[COST_MODEL_SIZE_SWEEP], "cost.")  # the CLI presets' campaigns
rounds_base = from_config(FlScenario, PRESETS[COST_ROUNDS_SWEEP], "cost.")
campaign = FlScenario(model_size_bytes=500_000, rounds=200, rounds_per_day=100)

print(format_breakdown_table("federated training, 500 KB model, 200 rounds @ 100/day",
                             fl_training_cost(campaign, sheet)))
print()
print(format_breakdown_table("deployment of the 500 KB model to 12M devices",
                             fl_deployment_cost(campaign, sheet)))
print()
print(format_breakdown_table("centralized pipeline, 250 KB sync per device-month",
                             central_cost(CentralScenario(), sheet)))
print()

central_1mb = central_cost(CentralScenario(sync_bytes_per_device_month=1_000_000), sheet).total
print(f"centralized total at 1 MB sync per device-month: ${central_1mb:,.2f}")
print()

print("model size sweep (200 rounds @ 100/day):")
print(format_sweep_table("model_size", sweep("model_size", [15e3, 500e3, 1e6, 15e6], model_size_base, sheet)))
print()
print("rounds sweep (500 KB model @ 200 rounds/day):")
print(format_sweep_table("rounds", sweep("rounds", [200, 1000, 3000, 5000], rounds_base, sheet)))
print()
print("rounds-per-day sweep (500 KB model, 3000 rounds):")
print(format_sweep_table("rounds_per_day", sweep("rounds_per_day", [25, 50, 100, 200, 400], rounds_base, sheet)))
