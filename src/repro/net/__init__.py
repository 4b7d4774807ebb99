"""Networked serving: wire protocol, TCP front end, pipelining client.

The serving stack so far ends at :class:`~repro.serve.server.IndexServer`
— in-process asyncio.  This package puts a network boundary around it:

* :mod:`repro.net.protocol` — a length-prefixed binary frame codec
  (magic + version + u32 length, TLV payload) with an incremental
  decoder built for adversarial peers: bad magic, oversized prefixes
  and truncated frames all fail loudly at the connection that sent
  them, never anywhere else.
* :mod:`repro.net.server` — :class:`NetServer`, an asyncio TCP front
  end whose socket-read boundary feeds the
  :class:`~repro.serve.batcher.MicroBatcher` *synchronously*: every
  request decoded from one TCP read joins the current micro-batch with
  no per-request task churn.
* :mod:`repro.net.client` — :class:`Client`, a thin async client with
  pipelining (request-id matched futures), per-request timeouts and
  reconnect-on-idempotent-read.
* :mod:`repro.net.ops` — the read/write op tables and the vectorised
  read executor the server answers non-batchable reads with.

Every read is answered in the serving process, through the result cache
and the micro-batcher.  Process-level read scale-out is the replica
tier: :func:`repro.replica.follow` returns a
:class:`~repro.replica.follower.ReplicaIndex` that serves reads in its
own process at an exact LSN watermark.

Entry points: ``Index.serve(addr=...)`` (:mod:`repro.api`) and the CLI
``serve`` / ``client-bench`` subcommands.
"""

from .client import Client
from .protocol import (
    FrameDecoder,
    ProtocolError,
    encode_frame,
    pack,
    unpack,
)
from .server import NetServer

__all__ = [
    "Client",
    "NetServer",
    "FrameDecoder",
    "ProtocolError",
    "encode_frame",
    "pack",
    "unpack",
]
