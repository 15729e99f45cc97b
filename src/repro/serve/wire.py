"""Binary step-payload framing for the serving wire and the shm channel.

JSON bodies are fine for control routes, but a fine-tuning step moves
image-sized tensors — base64/JSON encoding of a single MCUNet example is
~5x the raw bytes and burns gateway CPU on both encode and decode. This
module defines one versioned, length-prefixed binary frame used in two
places:

* ``POST /v1/sessions/{id}/step`` request/response bodies, selected by
  ``Content-Type`` / ``Accept`` (:data:`CONTENT_TYPE`); and
* slots of the shared-memory slab ring (:mod:`repro.serve.shm`) that
  carries batches and state overlays to process-pool step workers.

Frame layout (same idiom as :mod:`repro.serve.checkpoint`)::

    magic   b"RPWIRE1\\n"                          8 bytes
    hlen    big-endian uint32                      4 bytes
    header  JSON: {"version": 1, "meta": {...},
                   "tensors": [{name, dtype,
                                shape, offset,
                                nbytes}, ...]}     hlen bytes
    payload raw C-order tensor bytes, each
            segment at its table offset            rest of frame

``meta`` carries small JSON-safe control fields (hyperparams, fetch
names, scalar results); tensors travel as raw bytes with an explicit
dtype/shape table, so :func:`decode_frame` can hand back zero-copy NumPy
views into the incoming buffer. Tensor segments are 64-byte aligned
within the payload so views into shared memory stay cache-line friendly.

Unlike checkpoints there is no trailing digest: frames live inside an
HTTP body whose length the server already knows, or inside an shm slot
guarded by a sequence counter — both framings detect truncation, and a
per-step sha256 would cost more than the copy it replaces. Every decode
failure raises :class:`WireError`, which the gateway maps to a clean 400.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Mapping

import numpy as np

from ..errors import ServeError

MAGIC = b"RPWIRE1\n"
WIRE_VERSION = 1

#: negotiated media type for binary step bodies (requests and responses)
CONTENT_TYPE = "application/x-repro-step"

_HLEN = struct.Struct(">I")
_PREFIX = len(MAGIC) + _HLEN.size
_ALIGN = 64

#: decode refuses headers larger than this — a hostile length prefix must
#: not make the server allocate or parse unbounded JSON
MAX_HEADER_BYTES = 1 << 20


class WireError(ServeError):
    """A frame that cannot be encoded or safely decoded."""


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


def _tensor_table(tensors: Mapping[str, np.ndarray]):
    """Build the header table + per-tensor source arrays.

    A strided array needs no copy here: :func:`_write_into` copies each
    tensor once, in C order, into its segment. Object dtypes have no raw
    bytes and raise :class:`WireError`.
    """
    table = []
    arrays = []
    offset = 0
    for name in sorted(tensors):
        array = np.asarray(tensors[name])
        if array.dtype.hasobject:
            raise WireError(
                f"tensor {name!r} has object dtype {array.dtype!r}; only "
                f"plain numeric/bool buffers travel on the wire")
        offset = _align(offset)
        table.append({
            "name": name,
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "offset": offset,
            "nbytes": int(array.nbytes),
        })
        arrays.append(array)
        offset += array.nbytes
    return table, arrays, offset


def _header_bytes(meta: Mapping[str, Any] | None, table: list[dict]) -> bytes:
    header = json.dumps({
        "version": WIRE_VERSION,
        "meta": dict(meta or {}),
        "tensors": table,
    }, sort_keys=True, allow_nan=False).encode()
    # Pad (JSON tolerates trailing whitespace) so the payload starts on a
    # 64-byte boundary *within the frame*. Combined with 64-aligned tensor
    # offsets and a 64-aligned frame base (shm slots guarantee one), every
    # tensor segment is 64-byte aligned in memory — numpy keeps its
    # ALIGNED flag on the zero-copy views and takes exactly the same
    # kernel paths as for freshly allocated arrays, which is what makes
    # shm-ring results byte-identical to the in-process thread backend.
    header += b" " * (_align(_PREFIX + len(header)) - _PREFIX - len(header))
    if len(header) > MAX_HEADER_BYTES:
        raise WireError(
            f"frame header is {len(header)} bytes; the wire caps headers "
            f"at {MAX_HEADER_BYTES}")
    return header


def frame_nbytes(meta: Mapping[str, Any] | None,
                 tensors: Mapping[str, np.ndarray] | None = None) -> int:
    """Exact encoded size of the frame ``encode_frame`` would produce."""
    table, _, payload_len = _tensor_table(tensors or {})
    return _PREFIX + len(_header_bytes(meta, table)) + payload_len


def encode_frame(meta: Mapping[str, Any] | None = None,
                 tensors: Mapping[str, np.ndarray] | None = None) -> bytes:
    """Serialize ``meta`` + ``tensors`` into a standalone frame."""
    table, arrays, payload_len = _tensor_table(tensors or {})
    header = _header_bytes(meta, table)
    out = bytearray(_PREFIX + len(header) + payload_len)
    _write_into(memoryview(out), header, table, arrays)
    return bytes(out)


def encode_into(buf: memoryview,
                meta: Mapping[str, Any] | None = None,
                tensors: Mapping[str, np.ndarray] | None = None) -> int:
    """Write a frame directly into ``buf`` (e.g. an shm slot).

    Each tensor is copied exactly once, straight into the destination
    buffer — no intermediate ``bytes`` join. Returns the frame length.
    Raises :class:`WireError` if the frame does not fit.
    """
    table, arrays, payload_len = _tensor_table(tensors or {})
    header = _header_bytes(meta, table)
    total = _PREFIX + len(header) + payload_len
    if total > len(buf):
        raise WireError(
            f"frame needs {total} bytes but the slab slot holds only "
            f"{len(buf)}")
    _write_into(buf, header, table, arrays)
    return total


def _write_into(buf: memoryview, header: bytes, table: list[dict],
                arrays: list[np.ndarray]) -> None:
    buf[:len(MAGIC)] = MAGIC
    _HLEN.pack_into(buf, len(MAGIC), len(header))
    buf[_PREFIX:_PREFIX + len(header)] = header
    payload_start = _PREFIX + len(header)
    for spec, array in zip(table, arrays):
        start = payload_start + spec["offset"]
        dst = np.frombuffer(
            buf[start:start + spec["nbytes"]], dtype=array.dtype,
        ).reshape(array.shape)
        np.copyto(dst, array, casting="no")


def decode_frame(data, *, copy: bool = False,
                 ) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
    """Parse a frame into ``(meta, tensors)``.

    With ``copy=False`` the returned arrays are views into ``data``
    (read-only for ``bytes``, writable for a writable ``memoryview`` —
    that is how shm workers mutate state in place). ``copy=True``
    detaches them, for callers that outlive the buffer.

    Raises :class:`WireError` on any malformed input: wrong magic,
    unsupported version, truncated header or payload, a tensor table
    whose offsets/shapes do not add up, or unknown dtypes.
    """
    view = memoryview(data)
    if len(view) < _PREFIX:
        raise WireError(
            f"frame truncated: {len(view)} bytes is shorter than the "
            f"fixed framing")
    if bytes(view[:len(MAGIC)]) != MAGIC:
        raise WireError("not a step frame (bad magic)")
    (hlen,) = _HLEN.unpack_from(view, len(MAGIC))
    if hlen > MAX_HEADER_BYTES:
        raise WireError(
            f"frame header claims {hlen} bytes; the wire caps headers at "
            f"{MAX_HEADER_BYTES}")
    payload_start = _PREFIX + hlen
    if payload_start > len(view):
        raise WireError("frame header overruns the buffer")
    try:
        header = json.loads(bytes(view[_PREFIX:payload_start]))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise WireError(f"garbled frame header: {exc}") from None
    if not isinstance(header, dict):
        raise WireError("frame header is not a JSON object")
    version = header.get("version")
    if version != WIRE_VERSION:
        raise WireError(
            f"frame version {version!r} not supported by this runtime "
            f"(speaks {WIRE_VERSION})")
    meta = header.get("meta")
    if not isinstance(meta, dict):
        raise WireError("frame meta is not a JSON object")
    table = header.get("tensors")
    if not isinstance(table, list):
        raise WireError("frame tensor table is not a list")
    payload = view[payload_start:]
    tensors: dict[str, np.ndarray] = {}
    for spec in table:
        tensors.update(_decode_tensor(spec, payload, copy))
    return meta, tensors


def _decode_tensor(spec: Any, payload: memoryview, copy: bool):
    if not isinstance(spec, dict):
        raise WireError("tensor table entry is not a JSON object")
    name = spec.get("name")
    if not isinstance(name, str) or not name:
        raise WireError("tensor table entry is missing a name")
    try:
        offset = int(spec["offset"])
        nbytes = int(spec["nbytes"])
        shape = tuple(int(d) for d in spec["shape"])
        dtype = np.dtype(str(spec["dtype"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise WireError(f"tensor {name!r} has a garbled table entry: "
                        f"{exc}") from None
    if dtype.hasobject:
        raise WireError(f"tensor {name!r} declares an object dtype")
    if offset < 0 or nbytes < 0 or any(d < 0 for d in shape):
        raise WireError(f"tensor {name!r} declares negative extents")
    count = 1
    for d in shape:
        count *= d
    if count * dtype.itemsize != nbytes:
        raise WireError(
            f"tensor {name!r} declares {nbytes} bytes but shape "
            f"{shape} x {dtype.str} needs {count * dtype.itemsize}")
    if offset + nbytes > len(payload):
        raise WireError(f"tensor {name!r} overruns the frame payload")
    segment = payload[offset:offset + nbytes]
    array = np.frombuffer(segment, dtype=dtype).reshape(shape)
    return {name: array.copy() if copy else array}
