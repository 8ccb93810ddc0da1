"""Dollar-cost calculator for federated training, model deployment, and a
centralized training pipeline, parameterized by a cloud price sheet.

Conventions:
  * sizes are bytes, converted at decimal rates (1 GB = 1e9 bytes), matching
    how cloud providers meter transfer and storage;
  * instance hours bill per started hour fraction (plain multiplication);
  * a month is month_hours long (730 by default).

The bundled DEFAULT_PRICE_SHEET is calibrated: unit prices sit in the band of
on-demand list prices of the era it models (high-cost region tier), and two
of them are derived rather than quoted. data_out_per_gb comes from the slope
of training cost against model size in the reference scenarios, and
sync_per_gb from the slope of the centralized cost against monthly sync
volume (see tests for the derivations). Every value can be overridden.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Iterable, Mapping

from .config import FieldError

GB = 1e9  # decimal gigabyte, the unit cloud transfer/storage is billed in

INSTANCE_ROLES = ("portal", "aggregator", "training", "ingestion", "tagging", "monitoring", "jumpbox")

COMMUNICATION = "communication"
COMPUTE = "compute"
STORAGE = "storage"
FIXED = "fixed"

SWEEP_DIMENSIONS = ("model_size", "rounds", "rounds_per_day")

# Defaults shared by FlScenario and CentralScenario.
POPULATION = 12_000_000
MONTH_HOURS = 730.0


@dataclass(frozen=True)
class PriceSheet:
    """Unit prices. All dollars; see field names for the unit each applies to."""

    data_out_per_gb: float
    data_in_per_gb: float
    sync_per_gb: float
    storage_per_gb_month: float
    object_read_per_1k: float
    object_write_per_1k: float
    instance_hourly: Mapping[str, float]
    lb_hourly: float
    nat_hourly: float
    dns_monthly_fixed: float

    def __post_init__(self):
        object.__setattr__(self, "instance_hourly", dict(self.instance_hourly))
        missing = [r for r in INSTANCE_ROLES if r not in self.instance_hourly]
        if missing:
            raise ValueError(f"price sheet missing instance roles: {missing}")
        for name, value in self.as_flat_dict().items():
            if value < 0:
                raise FieldError(name, f"must be non-negative, got {value}")

    def as_flat_dict(self) -> dict[str, float]:
        flat = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "instance_hourly"}
        for role, price in self.instance_hourly.items():
            flat[f"instance.{role}"] = price
        return flat

    @staticmethod
    def zeros() -> "PriceSheet":
        zero = dict.fromkeys((f.name for f in fields(PriceSheet)), 0.0)
        return PriceSheet(**{**zero, "instance_hourly": dict.fromkeys(INSTANCE_ROLES, 0.0)})


# Calibrated defaults. Instance prices are xlarge-class on-demand rates
# (general purpose for portal/training/ingestion/tagging, compute optimized
# for the aggregator, burstable for monitoring/jumpbox). The two derived
# rates: data_out 0.154 $/GB (training-cost-vs-model-size slope) and
# sync 0.1752 $/GB (central-cost-vs-sync-volume slope 0.2002 minus the
# storage component 0.025).
DEFAULT_PRICE_SHEET = PriceSheet(
    data_out_per_gb=0.154,
    data_in_per_gb=0.0,
    sync_per_gb=0.1752,
    storage_per_gb_month=0.025,
    object_read_per_1k=0.0004,
    object_write_per_1k=0.005,
    instance_hourly={
        "portal": 0.318,
        "aggregator": 0.262,
        "training": 0.318,
        "ingestion": 0.318,
        "tagging": 0.318,
        "monitoring": 0.1856,
        "jumpbox": 0.0672,
    },
    lb_hourly=0.069,
    nat_hourly=0.093,
    dns_monthly_fixed=0.50,
)


def _check_non_negative(scenario) -> None:
    """Raise FieldError naming a scenario's first negative field: every field is a count, size or time."""
    for f in fields(scenario):
        if getattr(scenario, f.name) < 0:
            raise FieldError(f.name, "must be non-negative")


@dataclass(frozen=True)
class FlScenario:
    """A federated training campaign, one month of billing.

    Per round, each cohort device receives a readiness response and an
    aggregation ack (msg_size each), downloads the model plus the training
    plan, and uploads one model-sized update (inbound, free by default).
    """

    model_size_bytes: float
    rounds: int
    rounds_per_day: float
    population: int = POPULATION
    registered: int = 500_000
    cohort: int = 500
    plan_size_bytes: float = 50_000.0
    msg_size_bytes: float = 1_000.0
    month_hours: float = MONTH_HOURS

    def __post_init__(self):
        _check_non_negative(self)
        if self.cohort > self.registered:
            raise FieldError("cohort", f"must be <= registered ({self.registered})")
        if self.registered > self.population:
            raise FieldError("registered", f"must be <= population ({self.population})")
        if self.rounds_per_day < 1:
            raise FieldError("rounds_per_day", "must be >= 1")

    @property
    def training_days(self) -> float:
        return self.rounds / self.rounds_per_day


@dataclass(frozen=True)
class CentralScenario:
    """Centralized training month: devices sync raw data up, labels sync back.

    The instance plan runs ingestion, then training, then tagging back to
    back; the load balancer is billed for that active window and the rest of
    the infrastructure for the whole month. sync_events_per_device_month is
    how many object writes each device's sync produces.
    """

    population: int = POPULATION
    sync_bytes_per_device_month: float = 250_000.0
    label_bytes_back: float = 100.0
    sync_events_per_device_month: float = 12.0
    ingestion_count: int = 3
    ingestion_days: float = 1.0
    training_count: int = 2
    training_days: float = 1.0
    tagging_count: int = 3
    tagging_days: float = 4.0
    month_hours: float = MONTH_HOURS

    def __post_init__(self):
        _check_non_negative(self)

    @property
    def active_days(self) -> float:
        return self.ingestion_days + self.training_days + self.tagging_days


@dataclass(frozen=True)
class CostItem:
    name: str
    category: str
    quantity: float
    unit_price: float
    dollars: float


@dataclass(frozen=True)
class CostBreakdown:
    items: tuple[CostItem, ...]

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))
        for item in self.items:
            if item.dollars < 0:
                raise ValueError(f"negative cost item {item.name}")

    @property
    def total(self) -> float:
        return sum(item.dollars for item in self.items)

    def by_category(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for item in self.items:
            out[item.category] = out.get(item.category, 0.0) + item.dollars
        return out


def _item(name: str, category: str, quantity: float, unit_price: float) -> CostItem:
    return CostItem(name, category, quantity, unit_price, quantity * unit_price)


def _fixed_infra_items(p: PriceSheet, month_hours: float) -> list[CostItem]:
    hourly = p.instance_hourly
    return [
        _item("portal instance (hours)", FIXED, month_hours, hourly["portal"]),
        _item("monitoring instance (hours)", FIXED, month_hours, hourly["monitoring"]),
        _item("jumpbox instance (hours)", FIXED, month_hours, hourly["jumpbox"]),
        _item("nat gateway (hours)", FIXED, month_hours, p.nat_hourly),
        _item("dns zone (months)", FIXED, 1.0, p.dns_monthly_fixed),
    ]


def fl_training_cost(s: FlScenario, p: PriceSheet) -> CostBreakdown:
    """Itemized cost of one federated training campaign."""
    device_rounds = s.rounds * s.cohort
    items = [
        _item("readiness responses (GB out)", COMMUNICATION, device_rounds * s.msg_size_bytes / GB, p.data_out_per_gb),
        _item("model+plan downloads (GB out)", COMMUNICATION, device_rounds * (s.model_size_bytes + s.plan_size_bytes) / GB, p.data_out_per_gb),
        _item("update uploads (GB in)", COMMUNICATION, device_rounds * s.model_size_bytes / GB, p.data_in_per_gb),
        _item("aggregation acks (GB out)", COMMUNICATION, device_rounds * s.msg_size_bytes / GB, p.data_out_per_gb),
    ]
    training_hours = s.training_days * 24.0
    items += [
        _item("aggregator instance (hours)", COMPUTE, training_hours, p.instance_hourly["aggregator"]),
        _item("training instance (hours)", COMPUTE, training_hours, p.instance_hourly["training"]),
        _item("load balancer (hours)", COMPUTE, training_hours, p.lb_hourly),
    ]
    items += _fixed_infra_items(p, s.month_hours)
    return CostBreakdown(tuple(items))


def fl_deployment_cost(s: FlScenario, p: PriceSheet) -> CostBreakdown:
    """Cost of shipping the final model to the whole device population."""
    items = [
        _item("model downloads (GB out)", COMMUNICATION, s.population * s.model_size_bytes / GB, p.data_out_per_gb),
        _item("object reads (thousands)", STORAGE, s.population / 1000.0, p.object_read_per_1k),
        _item("model storage (GB-months)", STORAGE, s.model_size_bytes / GB, p.storage_per_gb_month),
    ]
    return CostBreakdown(tuple(items))


def central_cost(s: CentralScenario, p: PriceSheet) -> CostBreakdown:
    """Itemized cost of the centralized train-and-tag month."""
    sync_gb = s.population * s.sync_bytes_per_device_month / GB
    hourly = p.instance_hourly
    items = [
        _item("device data sync (GB)", COMMUNICATION, sync_gb, p.sync_per_gb),
        _item("synced data storage (GB-months)", STORAGE, sync_gb, p.storage_per_gb_month),
        _item("object writes (thousands)", STORAGE, s.population * s.sync_events_per_device_month / 1000.0, p.object_write_per_1k),
        _item("label sync back (GB out)", COMMUNICATION, s.population * s.label_bytes_back / GB, p.data_out_per_gb),
        _item("ingestion instances (hours)", COMPUTE, s.ingestion_count * s.ingestion_days * 24.0, hourly["ingestion"]),
        _item("training instances (hours)", COMPUTE, s.training_count * s.training_days * 24.0, hourly["training"]),
        _item("tagging instances (hours)", COMPUTE, s.tagging_count * s.tagging_days * 24.0, hourly["tagging"]),
        _item("load balancer (hours)", COMPUTE, s.active_days * 24.0, p.lb_hourly),
    ]
    items += _fixed_infra_items(p, s.month_hours)
    return CostBreakdown(tuple(items))


@dataclass(frozen=True)
class SweepRow:
    value: float
    training_cost: float
    deployment_cost: float


def sweep(dimension: str, values: Iterable[float], base: FlScenario, p: PriceSheet) -> list[SweepRow]:
    """Vary one scenario dimension, holding everything else at base."""
    if dimension not in SWEEP_DIMENSIONS:
        raise FieldError("dimension", f"must be one of {SWEEP_DIMENSIONS}, got {dimension!r}")
    rows = []
    for value in values:
        if dimension == "model_size":
            scenario = replace(base, model_size_bytes=float(value))
        elif dimension == "rounds":
            if not float(value).is_integer():  # nor are inf and nan
                raise FieldError("rounds", f"must be a whole number, got {value!r}")
            scenario = replace(base, rounds=int(value))
        else:
            scenario = replace(base, rounds_per_day=float(value))
        rows.append(
            SweepRow(
                value=float(value),
                training_cost=fl_training_cost(scenario, p).total,
                deployment_cost=fl_deployment_cost(scenario, p).total,
            )
        )
    return rows
