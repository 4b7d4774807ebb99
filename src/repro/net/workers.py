"""Read-worker processes over one shared-memory engine export.

:class:`WorkerPool` forks N processes (fork context: the manifest and
control socket pass by inheritance, no pickling of engine state), each
of which attaches the :func:`~repro.net.shm.export_index` snapshot and
serves read ops from its own :class:`~repro.engine.executor.BatchExecutor`.
The parent process is the **single writer**: a ``WriteEvent`` listener
captures every applied mutation *at the engine apply point* (under the
engine's lock chain, so capture order is apply order even when
connection handlers interleave their awaits), and the queued events are
flushed to each worker's control socket — in that order — before the
write is acknowledged to the client.  Keys travel in wire-native form
(`float` for float key dtypes, arbitrary-precision `int` otherwise), so
replicas replay exactly what the engine applied.

Control channel (one ``socket.socketpair()`` per worker, framed with the
same codec as the public wire, limit ``2 * max_frame + slack`` because
response envelopes wrap a full client frame):

parent → worker
    ``{"op": "req", "conn", "seq", "req": <client request dict>}``
    ``{"op": "event", "kind": "insert"|"delete", "key"}``
    ``{"op": "barrier", "bid"}`` / ``{"op": "stop"}``
worker → parent
    ``{"op": "res", "seq", "conn", "raw": <ready-to-send client frame>}``
    ``{"op": "barrier_ack", "bid"}``

Correctness leans on two properties:

* **Per-socket FIFO.**  A worker applies events and answers requests in
  arrival order; event frames are written to every control socket (in
  apply order) before a write is acked, so a read dispatched after the
  ack sees that write (read-your-writes).
* **Reads are idempotent.**  When a worker dies (EOF on its socket),
  its in-flight requests are re-dispatched to a surviving worker — or
  answered inline by the parent when none survive — and any answer the
  corpse already flushed is a duplicate the client drops by request id.
  Zero wrong answers, possibly one extra right one.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import signal
import socket
from collections import deque
from dataclasses import dataclass, field

from .protocol import DEFAULT_MAX_FRAME, FrameDecoder, ProtocolError, encode_frame
from .shm import export_index

__all__ = ["WorkerPool"]


def _ctrl_limit(max_frame: int) -> int:
    """Frame limit on the control channel (res wraps a client frame)."""
    return 2 * max_frame + 4096


@dataclass
class _Worker:
    wid: int
    proc: multiprocessing.process.BaseProcess
    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    stats: object
    task: asyncio.Task | None = None
    #: seq -> (conn id, request dict), for rerouting on death
    inflight: dict = field(default_factory=dict)
    #: barrier id -> future resolved by the matching ack
    barriers: dict = field(default_factory=dict)


class WorkerPool:
    """N forked read workers + event fan-out + death rerouting."""

    def __init__(self, net, workers: int,
                 max_frame: int = DEFAULT_MAX_FRAME) -> None:
        self.net = net
        self.n = workers
        self.max_frame = max_frame
        self._ctrl_max = _ctrl_limit(max_frame)
        self.export = None
        self._workers: list[_Worker] = []
        self._sem: asyncio.Semaphore | None = None
        self._next_seq = 0
        self._next_barrier = 0
        self._rr = 0
        #: replication events in engine apply order (filled by the
        #: WriteEvent listener, drained by :meth:`flush_events`)
        self._events: deque = deque()
        self._event_lock: asyncio.Lock | None = None
        self._listening = False

    @property
    def alive_count(self) -> int:
        return sum(1 for w in self._workers if w.stats.alive)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self.export = export_index(self.net.server.index)
        self._sem = asyncio.Semaphore(self.net.server.max_inflight)
        self._event_lock = asyncio.Lock()
        # registered right after the exclusive-lock snapshot, before the
        # TCP listener binds: no protocol write can land in the gap, so
        # the snapshot plus the captured event stream is exact
        self.net.server.index.add_write_listener(self._on_engine_write)
        self._listening = True
        for wid in range(self.n):
            await self._spawn(wid)

    async def _spawn(self, wid: int) -> None:
        ctx = multiprocessing.get_context("fork")
        parent_sock, child_sock = socket.socketpair()
        proc = ctx.Process(
            target=_worker_main,
            args=(self.export.manifest, child_sock, self.max_frame),
            daemon=True,
        )
        proc.start()
        child_sock.close()  # the child holds its end; EOF must propagate
        reader, writer = await asyncio.open_connection(sock=parent_sock)
        worker = _Worker(
            wid=wid, proc=proc, reader=reader, writer=writer,
            stats=self.net.stats.register_worker(wid, proc.pid),
        )
        self._workers.append(worker)
        worker.task = asyncio.create_task(self._reader_loop(worker))

    async def close(self) -> None:
        if self._listening:
            self.net.server.index.remove_write_listener(self._on_engine_write)
            self._listening = False
        self._events.clear()
        stop = encode_frame({"op": "stop"}, self._ctrl_max)
        for w in self._workers:
            if w.stats.alive:
                try:
                    w.writer.write(stop)
                    await w.writer.drain()
                except (ConnectionError, OSError):
                    pass
        for w in self._workers:
            if w.task is not None:
                w.task.cancel()
                await asyncio.gather(w.task, return_exceptions=True)
            w.writer.close()
            w.proc.join(timeout=1.0)
            if w.proc.is_alive():
                w.proc.terminate()
                w.proc.join(timeout=1.0)
            if w.proc.is_alive():  # pragma: no cover - last resort
                w.proc.kill()
                w.proc.join(timeout=1.0)
            w.stats.alive = False
        self._workers.clear()
        if self.export is not None:
            self.export.close()  # unlinks the shared segment
            self.export = None

    # ------------------------------------------------------------------
    # dispatch / events / barriers
    # ------------------------------------------------------------------
    def _pick_alive(self) -> _Worker | None:
        """Next live worker round-robin (advances the cursor)."""
        live = [w for w in self._workers if w.stats.alive]
        if not live:
            return None
        self._rr += 1
        return live[self._rr % len(live)]

    async def dispatch(self, cid: int, msg: dict) -> bool:
        """Route one read to a live worker; False when none remain."""
        if not self.alive_count:
            return False
        await self._sem.acquire()
        # pick once, after the wait: a second pick would advance the
        # round-robin cursor twice per read and starve every other worker
        worker = self._pick_alive()
        if worker is None:  # the last worker died while we waited
            self._sem.release()
            return False
        seq = self._next_seq
        self._next_seq += 1
        worker.inflight[seq] = (cid, msg)
        worker.stats.dispatched += 1
        try:
            worker.writer.write(encode_frame(
                {"op": "req", "conn": cid, "seq": seq, "req": msg},
                self._ctrl_max))
            await worker.writer.drain()
        except (ConnectionError, OSError):
            pass  # the reader loop notices the death and reroutes
        return True

    def _on_engine_write(self, event) -> None:
        """WriteEvent listener: capture replication at the apply point.

        Runs synchronously under the engine's lock chain, so queue
        order here *is* engine apply order — connection handlers that
        interleave their awaits (durability, backpressure) in some
        other order cannot reorder the replica stream.  Keys are
        converted to wire-native form with the engine's key-dtype
        semantics: ``float`` for float key dtypes, ``int`` otherwise
        (never a silent ``int()`` truncation of a float key).
        """
        if event.kind not in ("insert", "delete"):
            return  # refresh/retune leave the logical keys unchanged
        if self.net.server.index.key_dtype.kind == "f":
            key = float(event.key)
        else:
            key = int(event.key)
        self._events.append((event.kind, key))

    async def flush_events(self) -> None:
        """Ship queued events to every live worker, in apply order.

        Called by the writer before acking (read-your-writes) and by
        :meth:`barrier`.  The asyncio lock makes each event's fan-out
        atomic: concurrent flushers cannot interleave two events'
        frames on one control socket, and a flusher that returns knows
        every event queued before its call has been written — a
        competitor that popped them finished sending before releasing
        the lock.
        """
        async with self._event_lock:
            while self._events:
                kind, key = self._events.popleft()
                frame = encode_frame(
                    {"op": "event", "kind": kind, "key": key},
                    self._ctrl_max)
                for w in self._workers:
                    if not w.stats.alive:
                        continue
                    w.stats.events += 1
                    try:
                        w.writer.write(frame)
                        await w.writer.drain()
                    except (ConnectionError, OSError):
                        pass

    async def barrier(self) -> None:
        """Resolve when every live worker has drained its event queue."""
        await self.flush_events()
        bid = self._next_barrier
        self._next_barrier += 1
        loop = asyncio.get_running_loop()
        frame = encode_frame({"op": "barrier", "bid": bid}, self._ctrl_max)
        futures = []
        for w in self._workers:
            if not w.stats.alive:
                continue
            fut = loop.create_future()
            w.barriers[bid] = fut
            futures.append(fut)
            try:
                w.writer.write(frame)
                await w.writer.drain()
            except (ConnectionError, OSError):
                pass  # death handling resolves the future
        if futures:
            await asyncio.gather(*futures)

    # ------------------------------------------------------------------
    # worker replies + death
    # ------------------------------------------------------------------
    async def _reader_loop(self, worker: _Worker) -> None:
        decoder = FrameDecoder(self._ctrl_max)
        try:
            while True:
                data = await worker.reader.read(1 << 16)
                if not data:
                    break
                for msg in decoder.feed(data):
                    self._on_worker_msg(worker, msg)
        except asyncio.CancelledError:
            raise
        except Exception:
            # a corrupted control stream — undecodable frames, or a
            # control message the handler chokes on — counts as a
            # death; anything narrower would leave the worker marked
            # alive with its in-flight slots leaked forever
            pass
        await self._on_worker_death(worker)

    def _on_worker_msg(self, worker: _Worker, msg: dict) -> None:
        op = msg.get("op")
        if op == "res":
            entry = worker.inflight.pop(msg["seq"], None)
            if entry is None:
                return  # already rerouted
            self._sem.release()
            worker.stats.completed += 1
            cid, raw = msg["conn"], msg["raw"]
            writer = self.net._conn_writers.get(cid)
            conn = self.net.stats.connections.get(cid)
            if writer is None or writer.is_closing():
                return  # the client died first: drop the answer
            if conn is not None:
                conn.responses += 1
                conn.bytes_out += len(raw)
            writer.write(raw)
        elif op == "barrier_ack":
            fut = worker.barriers.pop(msg["bid"], None)
            if fut is not None and not fut.done():
                fut.set_result(True)

    async def _on_worker_death(self, worker: _Worker) -> None:
        if not worker.stats.alive:
            return
        worker.stats.alive = False
        for fut in worker.barriers.values():
            if not fut.done():  # its queue died with it: nothing to drain
                fut.set_result(False)
        worker.barriers.clear()
        inflight, worker.inflight = dict(worker.inflight), {}
        for _ in inflight:
            self._sem.release()
        for _, (cid, msg) in sorted(inflight.items()):
            worker.stats.rerouted += 1
            if self.alive_count:
                await self.dispatch(cid, msg)
            else:
                # last worker down: the parent answers inline
                conn = self.net.stats.connections.get(cid)
                if conn is not None and conn.open:
                    await self.net._inline_read(cid, conn, msg)


# ----------------------------------------------------------------------
# worker process entry point (runs in the forked child)
# ----------------------------------------------------------------------
def _worker_main(manifest: dict, sock: socket.socket,
                 max_frame: int) -> None:  # pragma: no cover - forked child
    """Blocking control-socket loop of one read worker."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # ^C belongs to the parent
    from ..engine.executor import BatchExecutor
    from .ops import error_response, execute_read
    from .shm import attach_index

    index, shm = attach_index(manifest)
    executor = BatchExecutor(index)
    decoder = FrameDecoder(_ctrl_limit(max_frame))
    try:
        while True:
            try:
                data = sock.recv(1 << 16)
            except (ConnectionResetError, OSError):
                break
            if not data:
                break
            for msg in decoder.feed(data):
                op = msg.get("op")
                if op == "req":
                    response = execute_read(executor, msg["req"])
                    try:
                        raw = encode_frame(response, max_frame)
                    except ProtocolError as exc:
                        # an oversized answer (a huge range_keys scan)
                        # must fail its own request, not kill the
                        # worker — death would reroute the same request
                        # and cascade through the whole pool
                        raw = encode_frame(
                            error_response(msg["req"].get("id"), exc),
                            max_frame)
                    sock.sendall(encode_frame(
                        {"op": "res", "seq": msg["seq"],
                         "conn": msg["conn"], "raw": raw},
                        _ctrl_limit(max_frame)))
                elif op == "event":
                    try:
                        if msg["kind"] == "insert":
                            index.insert(msg["key"])
                        else:
                            index.delete(msg["key"])
                    except KeyError:
                        pass  # replayed delete of a key this snapshot missed
                elif op == "barrier":
                    sock.sendall(encode_frame(
                        {"op": "barrier_ack", "bid": msg["bid"]},
                        _ctrl_limit(max_frame)))
                elif op == "stop":
                    return
    finally:
        sock.close()
        executor.close()
        del executor, index
        try:
            shm.close()
        except BufferError:  # a live view pins the mapping; exit frees it
            pass
