"""Cohort-parallel rounds: forked worker processes that train and fold their groups of every round's cohort.

federation.train_federated makes a CohortPool when federation.layout lays
the run out on more than one process. run_round cuts each cohort into
lockstep groups and trains group g in process g % N; each process folds its
own groups into the round's sum in turn. Only that call imports this
module, so a run without a pool pays nothing for multiprocessing. A worker
reports to the parent through its pipe alone: each group's losses as their
float64 bytes, or the exception the group raised, pickled, each behind a
tag byte and sent once its turn has come; and its death as the pipe's end
of file.
"""

from __future__ import annotations

import mmap
import multiprocessing
import os
import pickle
import signal
from typing import Sequence

import numpy as np

from .data import ClientShard, Dataset
from .federation import FedConfig, WorkerDiedError, _round_workspace, _train_group
from .nn import MlpSpec, ParamVector

# the first byte of a worker's message: a group's losses as float64 bytes follow, or a pickled exception
_LOSSES, _RAISED = b"L", b"E"
_STOP_SIGNALS = {signal.SIGINT, signal.SIGTERM}


class CohortPool:
    """workers - 1 forked processes that train, and fold, every workers-th group of each round's cohort.

    start_round publishes the round's global weights, zeroes the round's
    sum and sends every worker the round's groups; worker j trains groups
    j + 1, j + 1 + workers, ... (run_round trains the rest). A worker trains
    each of its groups into a (K, P) buffer of its own with
    federation._train_group, waits on its turn semaphore until the group
    before it is folded, adds the group's terms to the sum and passes the
    turn on (pass_turn): to the next worker's semaphore, or to the parent,
    whose turn is the report it reads. It then sends the group's losses on
    its pipe as raw float64 bytes, or the exception the group raised,
    pickled; a tag byte ahead of either tells them apart. A group that
    failed folds nothing and passes no turn, for the parent raises there
    (report). One anonymous shared mapping, made before the fork, holds the
    round's global weights and the sum, 2 * 8 * P bytes for any K and N.
    The dataset and shards are inherited copy-on-write, not pickled; fork
    is safe with OpenBLAS, which stops its threads around a fork. Each
    worker holds the only copy of its pipe's child end, so a worker that
    dies (killed, as by the out-of-memory killer) closes it, and
    federation.WorkerDiedError is raised at once where the parent waits for
    it, or when it next sends to it. A worker whose parent is gone exits
    within a second, whether it waits for a round or for its turn.
    Workers ignore SIGINT and take SIGTERM's default action, whatever
    handlers the parent has: close() terminates (SIGTERM) and joins them.
    """

    def __init__(
        self, workers: int, spec: MlpSpec, config: FedConfig, shards: Sequence[ClientShard], dataset: Dataset,
        group: int,
    ):
        self.workers = workers
        size = spec.parameter_count()
        self._mem = mmap.mmap(-1, 2 * 8 * size)
        self._weights, self._acc = np.frombuffer(self._mem, dtype=np.float64).reshape(2, size)
        ctx = multiprocessing.get_context("fork")
        self._turns = [ctx.Semaphore(0) for _ in range(workers - 1)]
        self._conns: list[multiprocessing.connection.Connection] = []
        self._procs: list[multiprocessing.process.BaseProcess] = []
        parent = os.getpid()
        # a worker is born with both signals blocked and sets their actions before unblocking them
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, _STOP_SIGNALS)
        try:
            for j in range(workers - 1):
                parent_end, child_end = ctx.Pipe()  # made just before the fork, so no earlier worker holds it
                self._conns.append(parent_end)
                args = (j, child_end, parent, spec, config, shards, dataset, group)
                proc = ctx.Process(target=self._serve, args=args, daemon=True)
                proc.start()
                child_end.close()  # the worker now holds the only copy: its death reads as end of file
                self._procs.append(proc)
        except BaseException:
            self.close()
            raise
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)

    def __enter__(self) -> CohortPool:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        for proc in self._procs:
            proc.terminate()
        for proc in self._procs:
            proc.join()
        for conn in self._conns:
            conn.close()

    def start_round(
        self, round_index: int, weights: np.ndarray, groups: Sequence[list[int]], denom: float
    ) -> np.ndarray:
        """Publish the round's global weights, send every worker the round's groups; return the zeroed shared sum."""
        np.copyto(self._weights, weights)
        self._acc.fill(0.0)
        for j, conn in enumerate(self._conns):
            try:
                conn.send((round_index, groups, denom))
            except OSError:  # the worker's end of the pipe closed: it died after its last round
                raise self._died(j) from None
        return self._acc

    def pass_turn(self, g: int) -> None:
        """Let group g be folded: wake its worker; the parent's turn is the report of group g - 1."""
        if g % self.workers:
            self._turns[g % self.workers - 1].release()

    def report(self, j: int) -> list[float]:
        """The losses of worker j's next group, read once the worker has folded it; raises what the group raised.

        Raises WorkerDiedError as soon as the worker is gone.
        """
        try:
            message = self._conns[j].recv_bytes()  # the one place the parent waits on a worker
        except (EOFError, OSError):  # the worker's end closed: it died
            raise self._died(j) from None
        if message[:1] == _RAISED:
            raise pickle.loads(message[1:])
        return np.frombuffer(message, offset=1).tolist()

    def _died(self, j: int) -> WorkerDiedError:
        """The error for worker j, whose end of the pipe closed: joined first, so that it names the exit."""
        proc = self._procs[j]
        proc.join(timeout=1.0)
        return WorkerDiedError(proc.pid, proc.exitcode)

    def _serve(self, j, conn, parent, spec, config, shards, dataset, group) -> None:
        """Worker j's loop: train and fold its groups of each announced round, until the parent goes away."""
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, _STOP_SIGNALS)
        for parent_end in self._conns:  # so that recv sees EOF once the parent is gone
            parent_end.close()
        turn, acc, out = self._turns[j], self._acc, np.empty((group, spec.parameter_count()))
        workspace = _round_workspace(spec, shards, group)
        try:
            while True:
                round_index, groups, denom = conn.recv()
                weights = ParamVector(self._weights, spec)
                for g in range(j + 1, len(groups), self.workers):
                    try:
                        losses = _train_group(
                            out, groups[g], round_index, shards, dataset, weights, config, denom, workspace
                        )
                        report, folds = _LOSSES + losses.tobytes(), bool(np.isfinite(losses).all())
                    except Exception as exc:  # raised in the parent at the group's first client
                        report, folds = _RAISED + pickled(exc), False
                    while not turn.acquire(timeout=1.0):  # group g - 1 is not folded yet
                        if os.getppid() != parent:
                            return
                    if folds:
                        for term in out[: len(groups[g])]:
                            acc += term
                        if g + 1 < len(groups):
                            self.pass_turn(g + 1)
                    conn.send_bytes(report)
                    if not folds:  # the parent raises at this group, so the round ends here
                        break
                workspace.release()  # the views it kept of this round's arrays
        except (EOFError, OSError):  # the parent's end closed: it is gone
            return


def pickled(exc: Exception) -> bytes:
    """exc pickled, or a RuntimeError naming it when exc does not survive a pickle round trip."""
    try:
        payload = pickle.dumps(exc)
        pickle.loads(payload)
    except Exception:
        payload = pickle.dumps(RuntimeError(f"{type(exc).__name__} in a cohort worker: {exc}"))
    return payload
