"""Shard hosting transports: in-process, or one forked process per shard.

Both hosts expose the same asynchronous request/response API so the
router can overlap work across shards::

    for host in hosts:  host.request("apply", ("insert", edges))
    for host in hosts:  readings.append(host.response())

``InlineShardHost`` executes synchronously in the router process — zero
IPC cost, bit-exact debuggability, and the transport used for ``K == 1``
(where sharding must stay within 5% of the unsharded pipeline).

``ProcessShardHost`` forks the shard into its own process **once** at
construction and feeds it method calls over a duplex pipe.  Requests pipeline: the router sends to every
shard before collecting any response, so K shard processes settle their
local sub-batches concurrently.  A dead shard process surfaces as
:class:`ShardCrashError` — the router's state is then unusable and must
be recovered from the per-shard journals
(:func:`repro.sharding.recovery.recover_sharded`).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import traceback
from typing import Any, List, Optional, Tuple

from repro.sharding.shard import Shard, ShardConfig


class ShardCrashError(RuntimeError):
    """A shard process died or its pipe broke; recover from journals."""


class ShardRemoteError(RuntimeError):
    """A shard raised inside a method call (carries the remote traceback)."""


class InlineShardHost:
    """A shard living in the router's own process."""

    def __init__(self, config: ShardConfig) -> None:
        self.config = config
        self.shard = Shard(config)
        self._pending: List[Any] = []

    @classmethod
    def adopt(cls, config: ShardConfig, shard: Shard) -> "InlineShardHost":
        self = cls.__new__(cls)
        self.config = config
        self.shard = shard
        self._pending = []
        return self

    def request(self, method: str, args: Tuple = ()) -> None:
        # Executes eagerly; SimulatedCrash and friends propagate to the
        # caller exactly like an in-process fault would.
        self._pending.append(getattr(self.shard, method)(*args))

    def response(self) -> Any:
        return self._pending.pop(0)

    def call(self, method: str, *args) -> Any:
        self.request(method, args)
        return self.response()

    @property
    def pid(self) -> int:
        return os.getpid()

    def kill(self) -> None:
        raise RuntimeError("inline shards cannot be killed; use process transport")

    def close(self) -> None:
        self.shard.close()


def _shard_main(conn, config: ShardConfig) -> None:
    """Child process loop: build the shard, serve method calls until EOF.

    Ordinary exceptions are reported back with their traceback; anything
    else (``SimulatedCrash``, SIGKILL) kills the process — the parent
    observes a broken pipe, exactly like real shard death.
    """
    shard = Shard(config)
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            if msg[0] == "stop":
                break
            method, args = msg
            try:
                conn.send(("ok", getattr(shard, method)(*args)))
            except Exception as exc:  # noqa: BLE001 — report, don't die
                conn.send(
                    ("err", f"{type(exc).__name__}: {exc}", traceback.format_exc())
                )
    finally:
        shard.close()
        conn.close()


def _pick_context() -> mp.context.BaseContext:
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else None)


class ProcessShardHost:
    """A shard hosted in its own forked, long-lived process."""

    def __init__(self, config: ShardConfig) -> None:
        self.config = config
        ctx = _pick_context()
        parent, child = ctx.Pipe(duplex=True)
        self._proc = ctx.Process(
            target=_shard_main, args=(child, config), daemon=True
        )
        self._proc.start()
        child.close()
        self._conn = parent
        self._inflight = 0
        self._broken = False

    @property
    def pid(self) -> int:
        return self._proc.pid

    @property
    def broken(self) -> bool:
        return self._broken

    def request(self, method: str, args: Tuple = ()) -> None:
        if self._broken:
            raise ShardCrashError(f"shard {self.config.shard_id} is down")
        try:
            self._conn.send((method, args))
            self._inflight += 1
        except (BrokenPipeError, OSError) as exc:
            self._broken = True
            raise ShardCrashError(
                f"shard {self.config.shard_id} pipe failed: {exc}"
            ) from exc

    def response(self) -> Any:
        if self._broken:
            raise ShardCrashError(f"shard {self.config.shard_id} is down")
        try:
            msg = self._conn.recv()
        except (EOFError, OSError):
            self._broken = True
            raise ShardCrashError(
                f"shard {self.config.shard_id} died mid-call"
            ) from None
        self._inflight -= 1
        if msg[0] == "err":
            raise ShardRemoteError(
                f"shard {self.config.shard_id}: {msg[1]}\n{msg[2]}"
            )
        return msg[1]

    def call(self, method: str, *args) -> Any:
        self.request(method, args)
        return self.response()

    def kill(self) -> None:
        """SIGKILL the shard process (crash testing)."""
        if self._proc.pid is not None and self._proc.is_alive():
            os.kill(self._proc.pid, signal.SIGKILL)
            self._proc.join(timeout=5)
        self._broken = True

    def close(self) -> None:
        if not self._broken:
            try:
                self._conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        self._proc.join(timeout=5)
        if self._proc.is_alive():  # pragma: no cover — stuck shard
            self._proc.terminate()
            self._proc.join(timeout=5)
        self._conn.close()
        self._broken = True


TRANSPORTS = ("inline", "process")


def make_host(transport: str, config: ShardConfig):
    if transport == "inline":
        return InlineShardHost(config)
    if transport == "process":
        return ProcessShardHost(config)
    raise ValueError(f"unknown shard transport {transport!r}; expected {TRANSPORTS}")
