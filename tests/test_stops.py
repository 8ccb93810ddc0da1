"""Real stop signals sent to a running `fedsim train-fed` with a cohort pool.

The CLI must exit 128 + the signal number with one stderr line, record
run.status = interrupted, keep the rounds it completed as whole CSV rows, and
leave no worker process behind.
"""

import csv
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import child_env

REPO = Path(__file__).resolve().parent.parent
# the CLI on 2 CPUs, so that its run, whose steps fit one BLAS thread, has a pool on any number of CPUs
ENTRY = (
    "import sys; from fedsim import federation; federation.usable_cpus = lambda: 2; "
    "from fedsim.cli import main; sys.exit(main())"
)

pytestmark = pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="finds the worker processes in /proc")


def children(pid: int) -> list[int]:
    kids = []
    for entry in Path("/proc").iterdir():
        try:
            stat = (entry / "stat").read_text() if entry.name.isdigit() else ""
        except OSError:  # the process ended while the list was read
            continue
        if stat and int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            kids.append(int(entry.name))
    return kids


def wait_for(condition, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.05)


@pytest.mark.parametrize("signum, code", [(signal.SIGINT, 130), (signal.SIGTERM, 143)])
def test_a_stop_signal_keeps_the_completed_rounds_and_leaves_no_worker(tmp_path, signum, code):
    env = child_env()
    argv = ["train-fed", "--config", "configs/synth_quick.cfg", "--set", "fed.rounds=100000", "--out", str(tmp_path)]
    proc = subprocess.Popen(
        [sys.executable, "-c", ENTRY, *argv], cwd=REPO, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        wait_for(lambda: children(proc.pid) or proc.poll() is not None)
        workers = children(proc.pid)
        assert len(workers) == 1
        time.sleep(1.0)  # some rounds complete
        proc.send_signal(signum)
        out, err = proc.communicate(timeout=30)
    finally:
        proc.kill()
    assert proc.returncode == code
    assert err == f"interrupted: stopped by {signal.Signals(signum).name}\n"
    assert out == ""
    lines = (tmp_path / "manifest.txt").read_text().splitlines()
    assert "run.status = interrupted" in lines and "run.workers = 2" in lines
    with open(tmp_path / "rounds.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["round", "train_acc", "test_acc", "mean_client_loss", "elapsed_s"]
    assert len(rows) > 1
    assert [int(row[0]) for row in rows[1:]] == list(range(len(rows) - 1))
    assert all(len(row) == 5 and float(row[3]) > 0 and float(row[4]) > 0 for row in rows[1:])
    for pid in workers:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
