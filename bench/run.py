"""fedsim benchmark: fixed CLI workloads, end-to-end run metrics, per-layer traced costs.

    python3 bench/run.py --workload fed_standin --seed 3 --seconds 28 --trace 0
    python3 bench/run.py --smoke [--workload NAME]

A measured run is a closed loop with one client: it starts one fresh process
at a time (bench/child.py), each running one `fedsim` CLI command on the
workload's config in bench/workloads/ with `--set seed=<seed>`, until
--seconds have passed: at least MIN_PROCESSES times, stopping at the process
boundary nearest to --seconds. Set-up, training rate and memory are medians
over those processes. Every process of a run must produce the same digest of
the rounds.csv data columns and final weights, and at the reference seed the
digest must equal the one in bench/reference.json.

--trace 0 reports the end-to-end metrics with tracing off. --trace 1
alternates untraced and traced processes and reports the per-layer metrics
of the traced ones plus trace.overhead_frac. The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics; metric
names and units are the ones declared in BENCHMARK.json.

--smoke checks, per workload, that every declared metric is emitted with its
unit, that two same-seed processes agree on the digest, that the reference
digest matches, that another seed gives another digest, and that no process
failed. It prints every end-to-end metric of every workload and exits 1 on
any failed check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

from layers import COMPUTED, SpanTable, per_layer_metrics  # bench/ is sys.path[0] when run as a script

# workload name -> fedsim subcommand; the config is bench/workloads/<name>.cfg
WORKLOADS = {
    "fed_standin": "train-fed",
    "fed_mnist_shaped": "train-fed",
    "fed_single_sample_delta": "train-fed",
    "central_mnist_shaped": "train-central",
}
MIN_PROCESSES = 2
RUN_LIMIT_S = 170.0  # a run must end within 180 s, whatever --seconds says
SELF_SUM_TOLERANCE = 0.01  # traced self times must add up to the training wall time within 1%
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def read_config(path: Path) -> dict[str, str]:
    cfg = {}
    for line in path.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            cfg[key.strip()] = value.strip()
    return cfg


def expected_rounds(command: str, cfg: dict[str, str]) -> int:
    return int(cfg["fed.rounds"] if command == "train-fed" else cfg["central.epochs"])


def cpu_info() -> tuple[str, str]:
    """CPU model name and a short hash of its feature flags, which pick the BLAS kernels."""
    model = flags = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                if key.strip() == "model name" and not model:
                    model = value.strip()
                elif key.strip() == "flags" and not flags:
                    flags = value.strip()
    except OSError:
        model = platform.processor()
    return model, hashlib.sha256(flags.encode()).hexdigest()[:12]


def environment(first: dict | None, seed: int) -> dict:
    model, flags = cpu_info()
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "cpu_flags_sha": flags,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": (first or {}).get("numpy"),
        "blas": (first or {}).get("blas"),
        "blas_version": (first or {}).get("blas_version"),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
        "load": "closed loop, one client, one single-process fedsim run at a time",
    }


def platform_key(env: dict) -> dict:
    """What a float64 digest depends on: the CPU's kernels, the numpy/BLAS build and BLAS's thread count."""
    keys = ("machine", "cpu", "cpu_flags_sha", "nproc", "thread_env", "numpy", "blas", "blas_version")
    return {k: env[k] for k in keys}


class Runner:
    """Runs fedsim processes for one workload and seed, and checks each result."""

    def __init__(self, workload: str, seed: int, work_dir: Path, deadline: float):
        self.workload = workload
        self.command = WORKLOADS[workload]
        self.config = BENCH / "workloads" / f"{workload}.cfg"
        self.rounds = expected_rounds(self.command, read_config(self.config))
        self.seed = seed
        self.work_dir = work_dir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.count = 0

    def warm_up(self) -> None:
        """Compile fedsim's bytecode and page in numpy once, outside every timed process."""
        subprocess.run([sys.executable, "-c", "import fedsim.cli"], env=self.env, check=True,
                       timeout=max(1.0, self.deadline - time.monotonic()))

    def run(self, traced: bool) -> dict:
        """One fresh process; returns its sample with an `error` key when it failed."""
        self.count += 1
        tag = f"p{self.count}"
        result = self.work_dir / f"{tag}.json"
        spans = self.work_dir / f"{tag}.spans.json"
        argv = [sys.executable, str(BENCH / "child.py"), "--command", self.command,
                "--config", str(self.config), "--seed", str(self.seed),
                "--out", str(self.work_dir / tag), "--result", str(result)]
        if traced:
            argv += ["--spans", str(spans)]
        sample: dict = {"traced": traced}
        spawned = time.monotonic()
        try:
            proc = subprocess.run(argv, env=self.env, capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - spawned))
        except subprocess.TimeoutExpired:
            return {**sample, "error": "timed out"}
        sample["wall_s"] = time.monotonic() - spawned
        if proc.returncode != 0 or not result.exists():
            return {**sample, "error": f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"}
        rec = json.loads(result.read_text())
        if "digest" not in rec:
            return {**sample, "error": f"the command trained nothing: {rec}"}
        sample.update(rec)
        sample["setup_s"] = rec["train_start"] - spawned
        sample["rounds_per_s"] = rec["rounds"] / rec["train_s"]
        if rec.get("train_calls") != 1 or rec["rounds"] != self.rounds:
            sample["error"] = f"expected one training call of {self.rounds} rounds, got {rec}"
        elif not (rec["final_test_acc"] is not None and 0.0 < rec["final_test_acc"] <= 1.0):
            sample["error"] = f"final test accuracy {rec['final_test_acc']} out of (0, 1]"
        if traced:
            table = SpanTable(json.loads(spans.read_text()))
            sample["layers"] = per_layer_metrics(table.spans, rec["layer_sizes"])
            total = table.training_self_sum_s()
            if abs(total - rec["train_s"]) > SELF_SUM_TOLERANCE * rec["train_s"]:
                sample.setdefault("error", f"span self times sum to {total:.6f} s, "
                                           f"training took {rec['train_s']:.6f} s")
        return sample


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run processes closed-loop for `seconds`; return samples and digest checks."""
    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as tmp:
        runner = Runner(workload, seed, Path(tmp), started + RUN_LIMIT_S)
        runner.warm_up()
        samples: list[dict] = []
        while True:
            # stop at the process boundary nearest to --seconds
            walls = [s["wall_s"] for s in samples if "wall_s" in s]
            done = time.monotonic() - started
            if len(samples) >= MIN_PROCESSES and (not walls or done + statistics.median(walls) / 2 > seconds):
                break
            if time.monotonic() > runner.deadline:
                break
            samples.append(runner.run(traced=trace and len(samples) % 2 == 1))
            s = samples[-1]
            print(f"process {len(samples)} traced={int(s['traced'])} "
                  + (f"FAILED {s['error']}" if "error" in s else
                     f"setup_s={s['setup_s']:.4f} rounds_per_s={s['rounds_per_s']:.4f} "
                     f"peak_rss_mb={s['peak_rss_mb']:.1f} digest={s['digest'][:16]}"), flush=True)
    return check_digests(workload, seed, samples)


def check_digests(workload: str, seed: int, samples: list[dict]) -> dict:
    """Fail samples whose digest differs from the run's first, or from the reference at its seed."""
    done = completed(samples)
    env = environment(done[0] if done else None, seed)
    reference = json.loads((BENCH / "reference.json").read_text())
    digest = done[0]["digest"] if done else None
    note = f"no reference for seed {seed}"
    if seed == reference["seed"]:
        expected = reference["digests"].get(workload)
        if reference["platform"] != platform_key(env):
            note = "reference recorded on another platform, not compared"
        elif expected == digest:
            note = "matches reference"
        else:
            note = f"MISMATCH with reference {expected}"
            for s in done:
                s.setdefault("error", "digest differs from the reference")
    consistent = all(s["digest"] == digest for s in done)
    for s in done:
        if s["digest"] != digest:
            s.setdefault("error", f"digest {s['digest']} differs from the run's first {digest}")
    return {"env": env, "samples": samples, "digest": digest, "digest_note": note, "consistent": consistent}


def completed(samples: list[dict]) -> list[dict]:
    """Samples whose process ran to the end, whether or not a later check failed them."""
    return [s for s in samples if "rounds_per_s" in s]


def end_to_end(samples: list[dict]) -> dict[str, float]:
    done = [s for s in completed(samples) if not s["traced"]]
    return {
        "setup_s": statistics.median(s["setup_s"] for s in done),
        "rounds_per_s": statistics.median(s["rounds_per_s"] for s in done),
        "final_test_acc": done[0]["final_test_acc"],
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in done),
    }


def per_layer(samples: list[dict]) -> dict[str, float]:
    traced = [s for s in completed(samples) if "layers" in s]
    untraced = [s for s in completed(samples) if not s["traced"]]
    m = {k: statistics.median(s["layers"][k] for s in traced) for k in traced[0]["layers"]}
    m["trace.overhead_frac"] = 1.0 - (statistics.median(s["rounds_per_s"] for s in traced)
                                      / statistics.median(s["rounds_per_s"] for s in untraced))
    return m


def declared() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def report(workload: str, trace: bool, run: dict) -> dict:
    """Print the run record and return the result object (the caller prints it last)."""
    samples = run["samples"]
    failed = sum("error" in s for s in samples)
    print("env " + json.dumps(run["env"], sort_keys=True))
    print(f"digest {workload} seed={run['env']['seed']} {run['digest']} ({run['digest_note']})")
    kinds = {s["traced"] for s in completed(samples) if "layers" in s or not s["traced"]}
    metrics: dict = {}
    if kinds == ({False, True} if trace else {False}):
        units = declared()["per_layer" if trace else "end_to_end"]
        values = per_layer(samples) if trace else end_to_end(samples)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        for name, m in metrics.items():
            label = " (computed)" if name in COMPUTED else ""
            print(f"metric {workload} {name} {m['value']:.6g} {m['unit']}{label}")
    print(f"failed_frac {failed}/{len(samples)}")
    correct = failed == 0 and bool(metrics)
    return {"correct": correct, "attempted": len(samples), "failed": failed, "metrics": metrics}


def smoke(workloads: list[str]) -> int:
    seed = json.loads((BENCH / "reference.json").read_text())["seed"]
    spec = declared()
    problems = []
    for w in workloads:
        plain = measure(w, seed, 0, trace=False)
        plain_result = report(w, False, plain)
        traced = measure(w, seed + 1, 0, trace=True)
        traced_result = report(w, True, traced)
        checks = {
            "end-to-end metrics emitted with units":
                {k: v["unit"] for k, v in plain_result["metrics"].items()} == spec["end_to_end"],
            "per-layer metrics emitted with units":
                {k: v["unit"] for k, v in traced_result["metrics"].items()} == spec["per_layer"],
            "digest repeats across same-seed processes, traced or not":
                plain["consistent"] and traced["consistent"] and len(completed(plain["samples"])) >= 2,
            "digest matches the reference": plain["digest_note"] == "matches reference",
            "digest differs across seeds": plain["digest"] != traced["digest"],
            "failed_frac is 0": plain_result["failed"] == traced_result["failed"] == 0,
        }
        for name, ok in checks.items():
            print(f"smoke {w}: {'ok  ' if ok else 'FAIL'} {name}")
            if not ok:
                problems.append(f"{w}: {name}")
    print("smoke: " + ("all checks passed" if not problems else "FAILED " + "; ".join(problems)))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run the self-tests instead of a measurement")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fedsim" / "cli.py").is_file():
        print(f"error: no fedsim sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke([args.workload] if args.workload else list(WORKLOADS))
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report(args.workload, bool(args.trace), run)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
