"""Length-prefixed framed wire format of the live deployment (v2).

One frame is::

    offset  size  field
    0       2     magic ``b"PP"``
    2       1     protocol version (2; v1 peers are still understood)
    3       1     message type (:class:`MessageType`)
    4       1     flags (bit 0 = response, bit 1 = error)
    5       4     request id (big-endian; response echoes the request's)
    9       4     body length in bytes (big-endian)
    13      ...   body

and the body is::

    0       4     JSON header length ``H``
    4       H     UTF-8 JSON header
    4+H     ...   concatenated binary buffers

The JSON header carries the message payload (wire forms of the
``repro.fs.messages`` dataclasses ride here) plus a ``__buffers__`` index
``[[key, length], ...]`` describing how to cut the binary tail back into
the ``row -> buffer`` maps PPR ships around.  Bulk bytes therefore never
pass through JSON; a partial result's GF-combined rows go on the socket
as raw buffers.

A second reserved header key, ``__trace__``, optionally carries the causal
trace context (``{"trace_id": ..., "span_id": ...}``, see
:mod:`repro.obs.causal`) of the caller.  It is stripped from the payload on
decode and attached to requests only when a repair is being traced.

Version 2 adds the *stream plane*: a sliced bulk transfer travels as a
``STREAM_BEGIN`` / ``STREAM_DATA``* / ``STREAM_END`` sub-frame sequence
(``STREAM_ABORT`` for early teardown), each an ordinary acknowledged
frame, so one logical transfer pipelines across hops without any single
frame holding the whole chunk.  Readers accept both versions — v1 never
emits stream types, and every v1 frame is bit-identical under v2 — and
reject anything else.  The normative spec is ``docs/PROTOCOL.md``.

Senders should prefer :func:`write_frame` (or :func:`frame_parts`) over
:func:`encode_frame`: it writes each buffer's ``memoryview`` straight to
the transport, so slicing a chunk into stream segments never copies the
payload bytes.
"""

from __future__ import annotations

import asyncio
import enum
import json
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.errors import ReproError, WireFormatError
# The slicing rule both ends of a stream must share (docs/PROTOCOL.md).
from repro.repair.aggregate import slice_bounds  # noqa: F401

MAGIC = b"PP"
#: Version stamped on every emitted frame.
VERSION = 2
#: Versions :func:`read_frame` accepts.  v1 is the pre-stream protocol —
#: a strict subset of v2 — so old peers interoperate unmodified.
SUPPORTED_VERSIONS = (1, 2)

#: Frame header: magic, version, type, flags, request id, body length.
HEADER = struct.Struct("!2sBBBII")

FLAG_RESPONSE = 0x01
FLAG_ERROR = 0x02


class MessageType(enum.IntEnum):
    """Every message the live protocol speaks."""

    # Liveness + membership
    PING = 1
    HELLO = 2
    HEARTBEAT = 3
    # Chunk data plane
    PUT_CHUNK = 10
    GET_CHUNK = 11
    DROP_CHUNK = 12
    # Metadata plane
    REGISTER_STRIPE = 20
    LOCATE_STRIPE = 21
    CHUNK_ADDED = 22
    LIST_SERVERS = 23
    # Repair plane
    PARTIAL_OP = 30
    PARTIAL_RESULT = 31
    RAW_READ = 32
    START_RAW_REPAIR = 33
    REPAIR_ABORT = 34
    # Telemetry plane
    STATS = 40
    HEALTH = 41
    DOCTOR = 42
    #: Node -> collector push: batched series deltas + histogram
    #: snapshots, shipped on the heartbeat cadence.
    TELEMETRY = 43
    #: Cockpit pull: one RPC answering query/fleet/top/prom/stats
    #: against the collector's tiered retention.
    COLLECTOR_QUERY = 44
    # Stream plane (v2): sliced bulk transfer as BEGIN / DATA* / END
    STREAM_BEGIN = 50
    STREAM_DATA = 51
    STREAM_END = 52
    STREAM_ABORT = 53


@dataclass
class Frame:
    """One decoded protocol frame."""

    mtype: MessageType
    request_id: int
    payload: "Dict[str, object]" = field(default_factory=dict)
    buffers: "Dict[int, np.ndarray]" = field(default_factory=dict)
    flags: int = 0
    #: Causal trace context (``__trace__`` header key): the caller's
    #: ``{"trace_id", "span_id"}``, or None when the call is untraced.
    trace: "Optional[Dict[str, object]]" = None

    @property
    def is_response(self) -> bool:
        return bool(self.flags & FLAG_RESPONSE)

    @property
    def is_error(self) -> bool:
        return bool(self.flags & FLAG_ERROR)

    def error_info(self) -> "Tuple[str, str]":
        """(code, message) of an error frame."""
        return (
            str(self.payload.get("error", "ReproError")),
            str(self.payload.get("message", "")),
        )


def frame_parts(frame: Frame) -> "List[Union[bytes, memoryview]]":
    """Serialize a frame as a list of write-ready parts (zero-copy).

    The first part is the fixed header plus JSON header; each buffer
    follows as a ``memoryview`` over its array — a stream segment that is
    a slice view of the sender's partial rows goes on the socket without
    ever being copied.  Non-contiguous or non-uint8 buffers fall back to
    a contiguous copy, which is the only way to put them on a wire.
    """
    header = dict(frame.payload)
    index = []
    views: "List[Union[bytes, memoryview]]" = []
    for key in sorted(frame.buffers):
        buf = np.ascontiguousarray(frame.buffers[key], dtype=np.uint8)
        index.append([int(key), int(buf.size)])
        views.append(buf.data)
    if index:
        header["__buffers__"] = index
    if frame.trace is not None:
        header["__trace__"] = frame.trace
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    body_len = 4 + len(header_bytes) + sum(len(v) for v in views)
    head = (
        HEADER.pack(
            MAGIC,
            VERSION,
            int(frame.mtype),
            frame.flags,
            frame.request_id,
            body_len,
        )
        + struct.pack("!I", len(header_bytes))
        + header_bytes
    )
    return [head, *views]


def write_frame(writer: asyncio.StreamWriter, frame: Frame) -> None:
    """Queue a frame on ``writer`` without copying its buffers.

    Callers still ``await writer.drain()`` themselves — batching several
    frames before one drain is valid and the transport handles it.
    """
    writer.writelines(frame_parts(frame))


def encode_frame(frame: Frame) -> bytes:
    """Serialize a frame to one contiguous ``bytes`` (copies buffers)."""
    return b"".join(bytes(part) for part in frame_parts(frame))


def decode_body(mtype: int, flags: int, request_id: int, body: bytes) -> Frame:
    """Rebuild a frame from its body bytes (header already parsed)."""
    if len(body) < 4:
        raise WireFormatError("frame body shorter than its JSON length word")
    (json_len,) = struct.unpack_from("!I", body, 0)
    if 4 + json_len > len(body):
        raise WireFormatError(
            f"JSON header length {json_len} exceeds body of {len(body)} bytes"
        )
    try:
        header = json.loads(body[4 : 4 + json_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireFormatError(f"bad JSON header: {exc}") from exc
    if not isinstance(header, dict):
        raise WireFormatError("JSON header must be an object")
    buffers: "Dict[int, np.ndarray]" = {}
    offset = 4 + json_len
    for key, length in header.pop("__buffers__", []):
        if offset + length > len(body):
            raise WireFormatError("buffer index overruns frame body")
        buffers[int(key)] = np.frombuffer(
            body, dtype=np.uint8, count=int(length), offset=offset
        ).copy()
        offset += int(length)
    if offset != len(body):
        raise WireFormatError(
            f"{len(body) - offset} trailing bytes after declared buffers"
        )
    try:
        mtype_enum = MessageType(mtype)
    except ValueError as exc:
        raise WireFormatError(f"unknown message type {mtype}") from exc
    trace = header.pop("__trace__", None)
    if not isinstance(trace, dict):
        trace = None
    return Frame(
        mtype=mtype_enum,
        request_id=request_id,
        payload=header,
        buffers=buffers,
        flags=flags,
        trace=trace,
    )


async def read_frame(
    reader: asyncio.StreamReader, max_frame_bytes: int
) -> "Optional[Frame]":
    """Read one frame; ``None`` on clean EOF at a frame boundary.

    Raises :class:`WireFormatError` on garbage and
    :class:`asyncio.IncompleteReadError` when the peer dies mid-frame.
    """
    try:
        head = await reader.readexactly(HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean close between frames
        raise
    magic, version, mtype, flags, request_id, body_len = HEADER.unpack(head)
    if magic != MAGIC:
        raise WireFormatError(f"bad magic {magic!r}")
    if version not in SUPPORTED_VERSIONS:
        raise WireFormatError(f"unsupported protocol version {version}")
    if body_len > max_frame_bytes:
        raise WireFormatError(
            f"frame of {body_len} bytes exceeds cap {max_frame_bytes}"
        )
    body = await reader.readexactly(body_len)
    return decode_body(mtype, flags, request_id, body)


def response_frame(
    request: Frame,
    payload: "Optional[Dict[str, object]]" = None,
    buffers: "Optional[Dict[int, np.ndarray]]" = None,
) -> Frame:
    """A success response echoing the request's id and type."""
    return Frame(
        mtype=request.mtype,
        request_id=request.request_id,
        payload=payload or {},
        buffers=buffers or {},
        flags=FLAG_RESPONSE,
    )


def error_frame(request: Frame, exc: BaseException) -> Frame:
    """An error response; remote errors carry their class name as code."""
    from repro.errors import RpcRemoteError

    if isinstance(exc, RpcRemoteError):
        # Forwarding an already-remote error: keep its original code.
        code, message = exc.code, exc.remote_message
    elif isinstance(exc, ReproError):
        code, message = type(exc).__name__, str(exc)
    else:
        code, message = "InternalError", str(exc)
    return Frame(
        mtype=request.mtype,
        request_id=request.request_id,
        payload={"error": code, "message": message},
        flags=FLAG_RESPONSE | FLAG_ERROR,
    )
