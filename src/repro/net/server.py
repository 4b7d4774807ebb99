"""Asyncio TCP front end over :class:`~repro.serve.server.IndexServer`.

The socket-read boundary *is* the batch boundary: every request decoded
from one TCP read is submitted to the
:class:`~repro.serve.batcher.MicroBatcher` synchronously via
``submit_lookup``/``submit_range`` — no per-request task churn — and a
done-callback writes the response frame when the batch resolves.  One
read syscall's worth of pipelined requests therefore becomes one
executor dispatch, which is exactly how the in-process serving tier
amortises per-request overhead.

Request envelope (one TLV dict per frame, see :mod:`repro.net.protocol`):

=============  ========================================================
op             fields / answer
=============  ========================================================
``ping``       → ``"pong"``
``lookup``     ``q`` scalar → int rank; list/ndarray → ndarray
``range``      ``lo``, ``hi`` scalar → int count; vectors → ndarray
``range_keys`` ``lo``, ``hi`` scalar → ndarray of keys
``insert``     ``key`` → owning shard id (durable on ack)
``delete``     ``key`` → shard id, or KeyError error frame
``stats``      → ``ServerStats.snapshot()`` + per-connection counters
``barrier``    drain the micro-batcher → ``True``
=============  ========================================================

Responses are ``{"id", "ok": True, "r": ...}`` or ``{"id", "ok": False,
"error", "message"}``.  Framing violations (bad magic, oversized
prefix, undecodable TLV) answer one final error frame and close the
connection; request-level errors fail only their own request.

Backpressure is inherited from the wrapped server: reads claim its
``max_inflight`` slots, so the connection's read loop — and therefore
the peer's TCP window — stalls once the server saturates.
"""

from __future__ import annotations

import asyncio

from ..serve.server import IndexServer
from .ops import READ_OPS, WRITE_OPS, error_response, execute_read
from .protocol import DEFAULT_MAX_FRAME, FrameDecoder, ProtocolError, encode_frame

__all__ = ["NetServer"]


class _CloseConnection(Exception):
    """Internal: stop this connection's read loop after a fatal frame."""


def _is_vector(value) -> bool:
    return isinstance(value, (list, tuple)) or hasattr(value, "dtype")


class NetServer:
    """TCP serving: framed protocol in, micro-batched engine out."""

    def __init__(
        self,
        server: IndexServer,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_frame: int = DEFAULT_MAX_FRAME,
        own_server: bool = False,
        replicate_addr: tuple[str, int] | None = None,
    ) -> None:
        if replicate_addr is not None and server.durability is None:
            raise ValueError(
                "replicate_addr needs a durable index: build it with "
                "durable_dir=... (replication ships checkpoint "
                "segments and streams the WAL)")
        self.server = server
        self.stats = server.stats
        self.host = host
        self.port = port
        self.max_frame = max_frame
        self._own_server = own_server
        self._replicate_addr = replicate_addr
        #: the :class:`~repro.replica.leader.ReplicationServer`, once
        #: started (``replicate_addr=...``); shares :attr:`stats`
        self.replication = None
        self._asyncio_server: asyncio.base_events.Server | None = None
        #: conn id -> live StreamWriter (deferred answers route through it)
        self._conn_writers: dict[int, asyncio.StreamWriter] = {}
        self._conn_tasks: set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind (and start replication, if asked); returns ``(host, port)``."""
        if self._replicate_addr is not None:
            from ..replica.leader import ReplicationServer

            rhost, rport = self._replicate_addr
            self.replication = ReplicationServer(
                self.server.durability, rhost, rport,
                stats=self.stats, max_frame=self.max_frame)
            await self.replication.start()
        self._asyncio_server = await asyncio.start_server(
            self._on_connection, self.host, self.port)
        self.port = self._asyncio_server.sockets[0].getsockname()[1]
        return self.host, self.port

    @property
    def address(self) -> tuple[str, int]:
        return self.host, self.port

    @property
    def replication_address(self) -> tuple[str, int] | None:
        """Where followers subscribe (None unless replicating)."""
        return None if self.replication is None else self.replication.address

    async def serve_forever(self) -> None:
        await self._asyncio_server.serve_forever()

    async def close(self) -> None:
        """Stop accepting, drop connections (and close the server)."""
        if self.replication is not None:
            await self.replication.close()
            self.replication = None
        if self._asyncio_server is not None:
            self._asyncio_server.close()
            await self._asyncio_server.wait_closed()
            self._asyncio_server = None
        for writer in list(self._conn_writers.values()):
            writer.close()
        self._conn_writers.clear()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._conn_tasks.clear()
        if self._own_server:
            await self.server.close()

    async def __aenter__(self) -> "NetServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _on_connection(self, reader, writer) -> None:
        peer = writer.get_extra_info("peername")
        cid, conn = self.stats.open_connection(str(peer))
        self._conn_writers[cid] = writer
        self._conn_tasks.add(asyncio.current_task())
        decoder = FrameDecoder(self.max_frame)
        try:
            while True:
                data = await reader.read(1 << 16)
                if not data:
                    break
                conn.bytes_in += len(data)
                try:
                    msgs = decoder.feed(data)
                except ProtocolError as exc:
                    conn.protocol_errors += 1
                    self._send(conn, writer, {
                        "id": None, "ok": False,
                        "error": "ProtocolError", "message": str(exc),
                    })
                    break
                for msg in msgs:
                    await self._handle(cid, conn, writer, msg)
                await writer.drain()
        except _CloseConnection:
            pass
        except asyncio.CancelledError:
            pass  # server shutdown: end the handler without complaint
        except (ConnectionResetError, BrokenPipeError, TimeoutError):
            pass
        finally:
            self._conn_tasks.discard(asyncio.current_task())
            self._conn_writers.pop(cid, None)
            self.stats.close_connection(cid)
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass

    def _send(self, conn, writer, payload: dict) -> None:
        """Frame + write one response; maintains the per-conn counters."""
        try:
            data = encode_frame(payload, self.max_frame)
        except ProtocolError as exc:
            # an answer too big for the frame limit (a huge range_keys
            # scan) fails its own request — the error frame is tiny —
            # instead of killing this connection's handler
            payload = error_response(payload.get("id"), exc)
            data = encode_frame(payload, self.max_frame)
        conn.responses += 1
        conn.bytes_out += len(data)
        if payload.get("ok") is False:
            conn.errors += 1
        if not writer.is_closing():
            writer.write(data)

    def _send_to(self, cid: int, payload: dict) -> None:
        """Deferred send by connection id (batcher done-callbacks).

        A connection that died while its answer was in flight simply
        drops the answer — its slot was already released, so nothing
        leaks.
        """
        writer = self._conn_writers.get(cid)
        conn = self.stats.connections.get(cid)
        if writer is None or conn is None:
            return
        self._send(conn, writer, payload)

    # ------------------------------------------------------------------
    # request routing
    # ------------------------------------------------------------------
    async def _handle(self, cid: int, conn, writer, msg) -> None:
        if not isinstance(msg, dict) or not isinstance(msg.get("op"), str):
            conn.protocol_errors += 1
            self._send(conn, writer, {
                "id": None, "ok": False, "error": "ProtocolError",
                "message": "request must be a dict with a string 'op'",
            })
            raise _CloseConnection
        conn.requests += 1
        op = msg["op"]
        rid = msg.get("id")
        if op in WRITE_OPS:
            await self._handle_write(conn, writer, msg)
        elif op == "stats":
            snap = dict(self.stats.snapshot())
            snap["net"] = self.stats.net_snapshot()
            self._send(conn, writer, {"id": rid, "ok": True, "r": snap})
        elif op == "barrier":
            await self.server.drain()
            self._send(conn, writer, {"id": rid, "ok": True, "r": True})
        elif op in READ_OPS:
            await self._read(cid, msg)
        else:
            self._send(conn, writer, error_response(
                rid, ValueError(f"unknown op {op!r}")))

    async def _handle_write(self, conn, writer, msg) -> None:
        rid = msg.get("id")
        conn.writes += 1
        try:
            key = msg["key"]
            if msg["op"] == "insert":
                shard = await self.server.insert(key)
            else:
                shard = await self.server.delete(key)
        except Exception as exc:
            self._send(conn, writer, error_response(rid, exc))
            return
        self._send(conn, writer, {"id": rid, "ok": True, "r": shard})

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    async def _read(self, cid: int, msg: dict) -> None:
        """Answer one read on this process via cache + micro-batcher."""
        op = msg.get("op")
        rid = msg.get("id")
        server = self.server
        if op == "lookup" and not _is_vector(msg.get("q")):
            q = msg["q"]
            try:
                cached = server.cache.get_point(q)
            except TypeError:  # unhashable garbage: let submit reject it
                cached = None
            if cached is not None:
                server.stats.record_cache_hit()
                self._send_to(cid, {"id": rid, "ok": True, "r": cached})
                return
            epoch = server._write_epoch
            await self._claim_slot()
            try:
                fut = server.batcher.submit_lookup(q)
            except Exception as exc:
                server._release_slot()
                self._send_to(cid, error_response(rid, exc))
                return
            server.stats.request_started()
            fut.add_done_callback(
                lambda f: self._finish_point(f, cid, rid, q, epoch))
        elif op == "range" and not _is_vector(msg.get("lo")):
            lo, hi = msg["lo"], msg["hi"]
            try:
                cached = server.cache.get_range(lo, hi)
            except TypeError:
                cached = None
            if cached is not None:
                server.stats.record_cache_hit()
                self._send_to(cid, {"id": rid, "ok": True, "r": cached})
                return
            epoch = server._write_epoch
            await self._claim_slot()
            try:
                fut = server.batcher.submit_range(lo, hi)
            except Exception as exc:
                server._release_slot()
                self._send_to(cid, error_response(rid, exc))
                return
            server.stats.request_started()
            fut.add_done_callback(
                lambda f: self._finish_range(f, cid, rid, lo, hi, epoch))
        else:
            # vector reads, range_keys and ping: synchronous vectorised
            # answer (no suspension point between resolve and reply)
            server.stats.request_started()
            try:
                self._send_to(cid, execute_read(server.executor, msg))
            finally:
                server.stats.request_finished()

    async def _claim_slot(self) -> None:
        """Claim a backpressure slot; stalls this connection when full."""
        server = self.server
        if server._slots > 0:
            server._slots -= 1
        else:
            await server._take_slot()

    def _finish_point(self, fut, cid: int, rid, q, epoch: int) -> None:
        server = self.server
        server._release_slot()
        server.stats.request_finished()
        if fut.cancelled():
            return
        exc = fut.exception()
        if exc is not None:
            self._send_to(cid, error_response(rid, exc))
            return
        position = fut.result()
        if epoch == server._write_epoch:  # no write raced the dispatch
            server.cache.put_point(q, position)
        self._send_to(cid, {"id": rid, "ok": True, "r": position})

    def _finish_range(self, fut, cid: int, rid, lo, hi, epoch: int) -> None:
        server = self.server
        server._release_slot()
        server.stats.request_finished()
        if fut.cancelled():
            return
        exc = fut.exception()
        if exc is not None:
            self._send_to(cid, error_response(rid, exc))
            return
        first, last = fut.result()
        count = last - first
        if epoch == server._write_epoch:
            server.cache.put_range(lo, hi, count)
        self._send_to(cid, {"id": rid, "ok": True, "r": count})
