"""Cohort-parallel rounds: forked worker processes that train a share of every round's cohort.

federation.train_federated makes a CohortPool when federation.layout lays
the run out on more than one process, and run_round folds the workers'
streams beside its own. Only that call imports this module, so a run
without a pool pays nothing for multiprocessing. A worker reports to the
parent through its pipe alone: each group's losses as their float64 bytes,
or the exception the group raised, pickled, each behind a tag byte; and its
death as the pipe's end of file.
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
# the first byte of a worker's message: a group's losses as float64 bytes follow, or a pickled exception
_LOSSES, _RAISED = b"L", b"E"
_STOP_SIGNALS = {signal.SIGINT, signal.SIGTERM}


class CohortPool:
    """workers - 1 forked processes that train a share of every round's cohort.

    Worker j's share is the clients at cohort positions j + 1, j + 1 +
    workers, ..., as run_round cuts them. start_round sends each worker its
    share and returns one stream per worker, which run_round folds like its
    own. Worker j cuts its share into lockstep groups of up to `group`
    clients (federation._groups) and trains them in order, each into the
    next slot of its ring with federation._train_group, then sends the
    group's losses (nan for a diverged client) on its pipe as raw float64
    bytes, or the exception the group raised, pickled; a tag byte ahead of
    either tells them apart. Its stream reads one message per group, folds
    the slot's rows one client at a time and frees the slot after the last. One
    anonymous shared mapping, made before the fork, holds the round's global
    weights and the slots. The dataset and shards are inherited
    copy-on-write, not pickled; fork is safe with OpenBLAS, which stops its
    threads around a fork. A worker's exception is raised by the stream at
    the group's first client, and a diverged client's loss reaches
    run_round as one of its own, so either is raised where a single process
    would raise it. Each worker holds the only copy of its pipe's child end,
    so a worker that dies (killed, as by the out-of-memory killer) closes it,
    and federation.WorkerDiedError is raised at once where the parent waits
    for it, or when it next sends to it.
    Workers ignore SIGINT and take SIGTERM's default action, whatever
    handlers the parent has: close() terminates (SIGTERM) and joins them.
    """

    def __init__(
        self, workers: int, spec: MlpSpec, config: FedConfig, shards: Sequence[ClientShard], dataset: Dataset,
        group: int,
    ):
        self.workers = workers
        n, size = workers - 1, spec.parameter_count()
        self._mem = mmap.mmap(-1, 8 * size * (1 + n * _SLOTS * group))
        shared = np.frombuffer(self._mem, dtype=np.float64)
        self._weights = shared[:size]
        self._slots = shared[size:].reshape(n, _SLOTS, group, size)
        ctx = multiprocessing.get_context("fork")
        self._free = [ctx.Semaphore(_SLOTS) for _ in range(n)]
        self._conns: list[multiprocessing.connection.Connection] = []
        self._procs: list[multiprocessing.process.BaseProcess] = []
        parent = os.getpid()
        # a worker is born with both signals blocked and sets their actions before unblocking them
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, _STOP_SIGNALS)
        try:
            for j in range(n):
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
        self, round_index: int, weights: np.ndarray, shares: Sequence[list[int]], denom: float, acc: np.ndarray
    ) -> list[Iterator[float]]:
        """Publish the round's global weights, send worker j shares[j], and return each worker's stream into acc."""
        np.copyto(self._weights, weights)
        for j, share in enumerate(shares):
            try:
                self._conns[j].send((round_index, share, denom))
            except OSError:  # the worker's end of the pipe closed: it died after its last round
                raise self._died(j) from None
        return [self._stream(j, acc) for j in range(len(self._conns))]

    def _died(self, j: int) -> WorkerDiedError:
        """The error for worker j, whose end of the pipe closed: joined first, so that it names the exit."""
        proc = self._procs[j]
        proc.join(timeout=1.0)
        return WorkerDiedError(proc.pid, proc.exitcode)

    def _stream(self, j: int, acc: np.ndarray) -> Iterator[float]:
        """Worker j's share as a stream: per client in share order, fold its term into acc, yield its loss.

        A failed client, whose loss is non-finite, adds nothing. Raises the
        worker's exception instead when a group raised one, and
        WorkerDiedError as soon as the worker is gone. The stream does not
        end: run_round takes exactly the share's clients from it.
        """
        conn, free = self._conns[j], self._free[j]
        for slot in itertools.cycle(self._slots[j]):
            try:
                message = conn.recv_bytes()  # the one place the parent waits on a worker
            except (EOFError, OSError):  # the worker's end closed: it died
                raise self._died(j) from None
            if message[:1] == _RAISED:
                raise pickle.loads(message[1:])
            losses = np.frombuffer(message, offset=1).tolist()
            last = len(losses) - 1
            for row, client_loss in enumerate(losses):
                if math.isfinite(client_loss):
                    acc += slot[row]
                if row == last:
                    free.release()  # from here on the worker may overwrite the slot
                yield client_loss

    def _serve(self, j, conn, parent, spec, config, shards, dataset, group) -> None:
        """Worker j's loop: train its share of each announced round, until the parent goes away."""
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, _STOP_SIGNALS)
        for parent_end in self._conns:  # so that recv sees EOF once the parent is gone
            parent_end.close()
        free, slots = self._free[j], list(self._slots[j])  # one array per slot, whose views the workspace keeps
        workspace = _round_workspace(spec, shards, group)
        try:
            while True:
                round_index, clients, denom = conn.recv()
                weights = ParamVector(self._weights, spec)
                for g, members in enumerate(_groups(shards, clients, group)):
                    while not free.acquire(timeout=1.0):
                        if os.getppid() != parent:
                            return
                    try:
                        losses = _train_group(
                            slots[g % _SLOTS], members, round_index, shards, dataset, weights, config, denom, workspace
                        )
                    except Exception as exc:  # raised in the parent when it reaches the group's first client
                        conn.send_bytes(_RAISED + pickled(exc))
                        break  # the parent raises at this group, so the run ends there
                    conn.send_bytes(_LOSSES + losses.tobytes())
                    if not np.isfinite(losses).all():
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
