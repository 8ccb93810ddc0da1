"""Cohort-parallel rounds: forked worker processes that train a share of every round's cohort.

federation.train_federated makes a CohortPool when federation.layout lays
the run out on more than one process, and run_round folds the workers'
streams beside its own. Only that call imports this module, so a run
without a pool pays nothing for multiprocessing.
"""

from __future__ import annotations

import itertools
import math
import mmap
import multiprocessing
import os
import pickle
import signal
from typing import Iterator, Sequence

import numpy as np

from .data import ClientShard, Dataset
from .federation import FedConfig, WorkerDiedError, _groups, _round_workspace, _train_group
from .nn import MlpSpec, ParamVector

_SLOTS = 2  # a worker trains into a ring of two group slots: the next group while the parent folds the last
_STOP_SIGNALS = {signal.SIGINT, signal.SIGTERM}


class CohortPool:
    """workers - 1 forked processes that train a share of every round's cohort.

    Worker j's share is the clients at cohort positions j + 1, j + 1 +
    workers, ..., as run_round cuts them. start_round sends each worker its
    share and returns one stream per worker, which run_round folds like its
    own. Worker j cuts its share into lockstep groups of up to `group`
    clients (federation._groups) and trains them in order, each into the
    next slot of its ring with federation._train_group; beside the slot it
    writes each client's loss (nan for a diverged client) and the group's
    size, 0 when the group raised. Its stream waits for each slot in turn,
    folds the slot's rows one client at a time and frees it after the last.
    One anonymous shared mapping, made before the fork, holds the round's
    global weights, the slots, the losses and the sizes. The dataset and
    shards are inherited copy-on-write, not pickled; fork is safe with
    OpenBLAS, which stops its threads around a fork. A worker's exception is
    sent through its pipe and raised by the stream at the group's first
    client, and a diverged client's loss reaches run_round as one of its
    own, so either is raised where a single process would raise it. A worker
    that dies (killed, as by the out-of-memory killer) raises
    federation.WorkerDiedError when the parent next sends to it or waits
    for it.
    Workers ignore SIGINT and take SIGTERM's default action, whatever
    handlers the parent has: close() terminates (SIGTERM) and joins them.
    """

    def __init__(
        self, workers: int, spec: MlpSpec, config: FedConfig, shards: Sequence[ClientShard], dataset: Dataset,
        group: int,
    ):
        self.workers = workers
        n, size, rows = workers - 1, spec.parameter_count(), (workers - 1) * _SLOTS * group
        self._mem = mmap.mmap(-1, 8 * (size + rows * (size + 1) + n * _SLOTS))
        shared = np.frombuffer(self._mem, dtype=np.float64)
        self._weights = shared[:size]
        self._slots = shared[size : size + rows * size].reshape(n, _SLOTS, group, size)
        self._losses = shared[size + rows * size : size + rows * (size + 1)].reshape(n, _SLOTS, group)
        self._sizes = shared[size + rows * (size + 1) :].reshape(n, _SLOTS)  # a slot's group size; 0: it raised
        ctx = multiprocessing.get_context("fork")
        self._ready = [ctx.Semaphore(0) for _ in range(n)]
        self._free = [ctx.Semaphore(_SLOTS) for _ in range(n)]
        pipes = [ctx.Pipe() for _ in range(n)]
        self._conns = [parent_end for parent_end, _ in pipes]
        self._procs: list[multiprocessing.process.BaseProcess] = []
        parent = os.getpid()
        # a worker is born with both signals blocked and sets their actions before unblocking them
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, _STOP_SIGNALS)
        try:
            for j, (_, child_end) in enumerate(pipes):
                args = (j, child_end, parent, spec, config, shards, dataset, group)
                proc = ctx.Process(target=self._serve, args=args, daemon=True)
                proc.start()
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
        self, round_index: int, weights: np.ndarray, shares: Sequence[np.ndarray], denom: float, acc: np.ndarray
    ) -> list[Iterator[float]]:
        """Publish the round's global weights, send worker j shares[j], and return each worker's stream into acc."""
        np.copyto(self._weights, weights)
        for proc, conn, share in zip(self._procs, self._conns, shares):
            try:
                conn.send((round_index, [int(c) for c in share], denom))
            except OSError:  # the worker's end of the pipe closed: it died after its last round
                proc.join(timeout=1.0)
                raise WorkerDiedError(proc.pid, proc.exitcode) from None
        return [self._stream(j, acc) for j in range(len(self._conns))]

    def _stream(self, j: int, acc: np.ndarray) -> Iterator[float]:
        """Worker j's share as a stream: per client in share order, fold its term into acc, yield its loss.

        A failed client, whose loss is non-finite, adds nothing. Raises the
        worker's exception instead when a group raised one, and
        WorkerDiedError when the worker is gone (the ready-wait checks once a
        second). The stream does not end: run_round takes exactly the share's
        clients from it.
        """
        proc, ready, free = self._procs[j], self._ready[j], self._free[j]
        for slot in itertools.cycle(range(_SLOTS)):
            while not ready.acquire(timeout=1.0):  # the one place the parent waits on a worker
                if not proc.is_alive():
                    raise WorkerDiedError(proc.pid, proc.exitcode)
            size = int(self._sizes[j, slot])
            if size == 0:
                raise pickle.loads(self._conns[j].recv_bytes())
            for row in range(size):
                client_loss = float(self._losses[j, slot, row])
                if math.isfinite(client_loss):
                    acc += self._slots[j, slot, row]
                if row == size - 1:
                    free.release()  # from here on the worker may overwrite the slot
                yield client_loss

    def _serve(self, j, conn, parent, spec, config, shards, dataset, group) -> None:
        """Worker j's loop: train its share of each announced round, until the parent goes away."""
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, _STOP_SIGNALS)
        for parent_end in self._conns:  # so that recv sees EOF once the parent is gone
            parent_end.close()
        ready, free, slots, losses, sizes = self._ready[j], self._free[j], self._slots[j], self._losses[j], self._sizes[j]
        workspace = _round_workspace(spec, shards, group)
        while True:
            try:
                round_index, clients, denom = conn.recv()
            except EOFError:
                return
            weights = ParamVector(self._weights, spec)
            for g, members in enumerate(_groups(shards, clients, group)):
                while not free.acquire(timeout=1.0):
                    if os.getppid() != parent:
                        return
                slot, error = g % _SLOTS, None
                try:
                    losses[slot, : len(members)] = _train_group(
                        slots[slot], members, round_index, shards, dataset, weights, config, denom, workspace
                    )
                except Exception as exc:  # raised in the parent when it reaches the group's first client
                    error = exc
                sizes[slot] = 0 if error is not None else len(members)
                ready.release()
                if error is not None:
                    # after the release: a payload larger than the pipe buffer waits for the parent's read
                    conn.send_bytes(pickled(error))
                if error is not None or not np.isfinite(losses[slot, : len(members)]).all():
                    break  # the parent raises at this group, so the run ends there


def pickled(exc: Exception) -> bytes:
    """exc pickled, or a RuntimeError naming it when exc does not survive a pickle round trip."""
    try:
        payload = pickle.dumps(exc)
        pickle.loads(payload)
    except Exception:
        payload = pickle.dumps(RuntimeError(f"{type(exc).__name__} in a cohort worker: {exc}"))
    return payload
