"""Cohort-parallel rounds: forked worker processes that train a share of every round's cohort.

federation.train_federated makes a CohortPool when cohort_workers says more
than one process pays off, and run_round hands it the worker-owned cohort
positions. Only that call imports this module, so a run without a pool pays
nothing for multiprocessing.
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
from .federation import FedConfig, _client_seed, _round_workspace, _train_client
from .nn import MlpSpec, ParamVector

_SLOTS = 2  # a worker trains into a ring of two slots: the next client while the parent folds the last
_STOP_SIGNALS = {signal.SIGINT, signal.SIGTERM}


class CohortPool:
    """workers - 1 forked processes that train a share of every round's cohort.

    Cohort position k belongs to process k % workers; process 0 is the
    parent. Worker j trains its positions in order, each into the next slot
    of its ring with federation._train_client, and writes the client's loss
    and a failed flag beside the slot. The parent trains its own positions
    and folds every position in order, waiting for a worker's slot when it
    reaches it. One anonymous shared mapping, made before the fork, holds the
    round's global weights, the slots and the loss table. The dataset and
    shards are inherited copy-on-write, not pickled; fork is safe with
    OpenBLAS, which stops its threads around a fork. A worker's exception is
    sent through its pipe and raised in the parent when the parent reaches
    that client, so it is raised where a single process would raise it.
    Workers ignore SIGINT and take SIGTERM's default action, whatever
    handlers the parent has: close() terminates (SIGTERM) and joins them.
    """

    def __init__(self, workers: int, spec: MlpSpec, config: FedConfig, shards: Sequence[ClientShard], dataset: Dataset):
        self.workers = workers
        n, size = workers - 1, spec.parameter_count()
        self._mem = mmap.mmap(-1, 8 * (size + n * _SLOTS * (size + 2)))
        shared = np.frombuffer(self._mem, dtype=np.float64)
        self._weights = shared[:size]
        self._slots = shared[size : size + n * _SLOTS * size].reshape(n, _SLOTS, size)
        self._table = shared[size + n * _SLOTS * size :].reshape(n, _SLOTS, 2)  # (loss, failed) per slot
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
                args = (j, child_end, parent, spec, config, shards, dataset)
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

    def start_round(self, round_index: int, weights: np.ndarray, selected: np.ndarray, denom: float) -> None:
        """Publish the round's global weights and send each worker its share of the cohort."""
        np.copyto(self._weights, weights)
        for j, conn in enumerate(self._conns):
            conn.send((round_index, [int(c) for c in selected[j + 1 :: self.workers]], denom))

    def fold(self, acc: np.ndarray, position: int) -> float:
        """acc += the term of the worker-trained client at cohort position; return its loss.

        Raises the worker's exception instead when that client failed.
        """
        j, slot = position % self.workers - 1, position // self.workers % _SLOTS
        proc = self._procs[j]
        while not self._ready[j].acquire(timeout=1.0):
            if not proc.is_alive():
                raise RuntimeError(f"cohort worker {proc.pid} exited with code {proc.exitcode}")
        if self._table[j, slot, 1]:
            raise pickle.loads(self._conns[j].recv_bytes())
        acc += self._slots[j, slot]
        client_loss = float(self._table[j, slot, 0])
        self._free[j].release()  # from here on the worker may overwrite the slot
        return client_loss

    def _serve(self, j, conn, parent, spec, config, shards, dataset) -> None:
        """Worker j's loop: train its share of each announced round, until the parent goes away."""
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, _STOP_SIGNALS)
        for parent_end in self._conns:  # so that recv sees EOF once the parent is gone
            parent_end.close()
        ready, free, slots, table = self._ready[j], self._free[j], self._slots[j], self._table[j]
        workspace = _round_workspace(spec, shards)
        while True:
            try:
                round_index, clients, denom = conn.recv()
            except EOFError:
                return
            weights = ParamVector(self._weights, spec)
            for i, client_id in enumerate(clients):
                while not free.acquire(timeout=1.0):
                    if os.getppid() != parent:
                        return
                slot, error = i % _SLOTS, None
                try:
                    seed = _client_seed(config.seed, round_index, client_id)
                    table[slot, 0] = _train_client(
                        slots[slot], shards[client_id], dataset, weights, config, seed, denom, workspace
                    )
                except Exception as exc:  # raised in the parent when it reaches this client
                    error = exc
                table[slot, 1] = error is not None
                ready.release()
                if error is not None:
                    # after the release: a payload larger than the pipe buffer waits for the parent's read
                    conn.send_bytes(pickled(error))
                    break  # the parent raises at this client, so the run ends there


def pickled(exc: Exception) -> bytes:
    """exc pickled, or a RuntimeError naming it when exc does not survive a pickle round trip."""
    try:
        payload = pickle.dumps(exc)
        pickle.loads(payload)
    except Exception:
        payload = pickle.dumps(RuntimeError(f"{type(exc).__name__} in a cohort worker: {exc}"))
    return payload
