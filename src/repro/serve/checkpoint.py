"""Durable session checkpoints: versioned, checksummed, atomic.

A checkpoint freezes everything needed to resurrect a tenant session in a
fresh process: the mutable state overlay (the paper's sparse-update story
keeps this to a few KB — updated parameters plus optimizer slots), the
session counters (``step_seq``/steps/examples/loss), the idempotency
dedupe window (so replay protection survives a crash), and the family
configuration (model registry key, scheme, optimizer, loss) needed to
rebind the session against a compiled program.

File format (single file, self-verifying)::

    magic   b"RPCKPT1\\n"                        8 bytes
    hlen    big-endian uint64                    8 bytes
    header  JSON (version, session, family,
            idempotency window, tensor table)    hlen bytes
    payload raw C-contiguous tensor bytes,
            concatenated per the tensor table
    digest  sha256(magic..payload)               32 bytes

The trailing digest covers every preceding byte, so truncation and
corruption anywhere in the file are both detected
(:class:`~repro.errors.CheckpointError`). Writes are atomic: bytes land
in a same-directory temp file which is fsynced and then ``os.rename``d
into place — a crash mid-write leaves the previous version intact and at
worst a stray temp file, never a torn checkpoint.

:class:`CheckpointStore` lays checkpoints out per session as
``<root>/<session_id>/ckpt-<step_seq>.ckpt``, keeps the newest ``keep``
versions, and on load walks versions newest-first, quarantining unreadable
files (renamed to ``*.corrupt``) and falling back to the previous intact
version.

Over HTTP a checkpoint can also travel as one :mod:`repro.serve.wire`
frame (:func:`checkpoint_to_wire` / :func:`checkpoint_from_wire`), the
same framing the binary step path uses: counters and family config in the
frame meta, state tensors as raw aligned segments. The wire form skips
the sha256 trailer — the HTTP body length already detects truncation —
so it is for transport only; everything written to disk stays in the
self-verifying format above.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from ..errors import CheckpointError
from .faults import FAULTS

MAGIC = b"RPCKPT1\n"
CHECKPOINT_VERSION = 1
_DIGEST = hashlib.sha256
_DIGEST_BYTES = 32


@dataclass
class SessionCheckpoint:
    """One session's durable snapshot (see the module docstring)."""

    #: session identity + counters: id, tenant, step_seq, steps,
    #: examples, last_loss
    session: dict[str, Any]
    #: family configuration: model, model_id, model_kwargs, scheme
    #: ({name, updates}), optimizer ({family, params}), loss, logits
    family: dict[str, Any]
    #: the mutable state overlay, name -> array
    state: dict[str, np.ndarray]
    #: idempotency dedupe window, key -> recorded StepResult fields
    idempotency: dict[str, dict[str, Any]] = field(default_factory=dict)

    @property
    def session_id(self) -> str:
        return str(self.session.get("id", ""))

    @property
    def step_seq(self) -> int:
        return int(self.session.get("step_seq", 0))

    def state_bytes(self) -> int:
        return sum(array.nbytes for array in self.state.values())


def dump_checkpoint(ckpt: SessionCheckpoint) -> bytes:
    """Serialize ``ckpt`` to the self-verifying byte format."""
    tensors = []
    chunks: list[bytes] = []
    offset = 0
    for name in sorted(ckpt.state):
        array = np.ascontiguousarray(ckpt.state[name])
        raw = array.tobytes()
        tensors.append({
            "name": name,
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "offset": offset,
            "nbytes": len(raw),
        })
        chunks.append(raw)
        offset += len(raw)
    header = json.dumps({
        "version": CHECKPOINT_VERSION,
        "session": ckpt.session,
        "family": ckpt.family,
        "idempotency": ckpt.idempotency,
        "tensors": tensors,
    }, sort_keys=True).encode()
    body = b"".join([MAGIC, struct.pack(">Q", len(header)), header, *chunks])
    return body + _DIGEST(body).digest()


def load_checkpoint(data: bytes) -> SessionCheckpoint:
    """Parse checkpoint bytes; :class:`CheckpointError` on any damage."""
    FAULTS.fire("checkpoint.read", nbytes=len(data))
    if len(data) < len(MAGIC) + 8 + _DIGEST_BYTES:
        raise CheckpointError(
            f"checkpoint truncated: {len(data)} bytes is shorter than the "
            f"fixed framing")
    if not data.startswith(MAGIC):
        raise CheckpointError("not a session checkpoint (bad magic)")
    body, digest = data[:-_DIGEST_BYTES], data[-_DIGEST_BYTES:]
    if _DIGEST(body).digest() != digest:
        raise CheckpointError(
            "checkpoint checksum mismatch: the file is corrupt or was "
            "truncated mid-write")
    (hlen,) = struct.unpack_from(">Q", body, len(MAGIC))
    header_start = len(MAGIC) + 8
    payload_start = header_start + hlen
    if payload_start > len(body):
        raise CheckpointError("checkpoint header overruns the file")
    try:
        header = json.loads(body[header_start:payload_start])
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8
        raise CheckpointError(f"garbled checkpoint header: {exc}") from None
    version = header.get("version") if isinstance(header, dict) else None
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {version!r} not supported by this "
            f"runtime (speaks {CHECKPOINT_VERSION})")
    payload = body[payload_start:]
    state: dict[str, np.ndarray] = {}
    table = _tensor_table(header)
    _check_restore_fields(header["session"], header["family"],
                          header.get("idempotency", {}))
    for name, dtype, shape, start, nbytes in table:
        raw = payload[start:start + nbytes]
        if len(raw) != nbytes:
            raise CheckpointError(
                f"checkpoint tensor {name!r} overruns the payload")
        state[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    return SessionCheckpoint(
        session=dict(header["session"]),
        family=dict(header["family"]),
        state=state,
        idempotency=dict(header.get("idempotency", {})),
    )


def _count(value) -> bool:
    """A JSON integer >= 0 (``true`` is no count)."""
    return isinstance(value, int) and not isinstance(value, bool) \
        and value >= 0


def _number(value) -> bool:
    """A JSON number, NaN included (``true`` is no number)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _text(value) -> bool:
    return value is None or isinstance(value, str)


#: the fields of a recorded :class:`~repro.serve.scheduler.StepResult`:
#: name -> (required, the check its JSON value must pass)
STEP_RESULT_FIELDS = {
    "session_id": (True, lambda v: isinstance(v, str)),
    "loss": (True, _number),
    "step": (True, _count),
    "batch_size": (True, _count),
    "program_key": (True, lambda v: isinstance(v, str)),
    "timings": (False, lambda v: v is None or (
        isinstance(v, dict) and all(map(_number, v.values())))),
    "replayed": (False, lambda v: isinstance(v, bool)),
}


def _check_restore_fields(session: dict, family: dict,
                          idempotency: dict) -> None:
    """Every value ``FineTuneService.restore_session`` reads, checked as it
    reads it — so that a crafted header fails here, as a
    :class:`CheckpointError` the store quarantines, and not later as a
    ``ValueError`` or ``TypeError``."""
    optimizer = family.get("optimizer") or {}
    scheme = family.get("scheme") or {}
    updates = scheme.get("updates", {}) if isinstance(scheme, dict) else None
    checks = {
        "session.id": isinstance(session.get("id", ""), str),
        "session.tenant": _text(session.get("tenant")),
        "session.step_seq": _count(session.get("step_seq", 0)),
        "session.steps": _count(session.get("steps", 0)),
        "session.examples": _count(session.get("examples", 0)),
        "session.last_loss": _number(session.get("last_loss", 0.0)),
        "family.model_kwargs": isinstance(
            family.get("model_kwargs") or {}, dict),
        "family.optimizer": isinstance(optimizer, dict)
        and isinstance(optimizer.get("family", ""), str)
        and isinstance(optimizer.get("params", {}), dict),
        "family.scheme": isinstance(updates, dict)
        and isinstance(scheme.get("name", ""), str)
        and all(map(_number, updates.values())),
    }
    for key in ("model", "model_id", "loss", "logits"):
        checks[f"family.{key}"] = _text(family.get(key))
    for key, fields in idempotency.items():
        checks[f"idempotency.{key}"] = isinstance(fields, dict) and all(
            name in fields for name, (required, _) in
            STEP_RESULT_FIELDS.items() if required) and all(
            name in STEP_RESULT_FIELDS and STEP_RESULT_FIELDS[name][1](value)
            for name, value in fields.items())
    wrong = [path for path, ok in checks.items() if not ok]
    if wrong:
        raise CheckpointError(
            f"malformed checkpoint header: {', '.join(wrong)} not what a "
            f"restore reads")


def _tensor_table(header: dict) -> list[tuple[str, np.dtype,
                                              tuple[int, ...], int, int]]:
    """``(name, dtype, shape, offset, nbytes)`` per tensor of ``header``,
    after checking its whole structure: the digest is SHA-256, not a MAC,
    so whoever can upload a checkpoint can make its digest hold over any
    header, and the only error a header may cause is a
    :class:`CheckpointError`."""
    if not (isinstance(header.get("session"), dict)
            and isinstance(header.get("family"), dict)
            and isinstance(header.get("idempotency", {}), dict)
            and isinstance(header.get("tensors"), list)):
        raise CheckpointError(
            "malformed checkpoint header: want objects 'session', "
            "'family' and 'idempotency' and a 'tensors' list")
    table = []
    for spec in header["tensors"]:
        spec = spec if isinstance(spec, dict) else {}
        name, dtype, shape = spec.get("name"), spec.get("dtype"), \
            spec.get("shape")
        try:
            dtype = np.dtype(dtype) if isinstance(dtype, str) else None
        except (TypeError, ValueError):
            dtype = None
        if not (isinstance(name, str) and dtype is not None
                and dtype.kind in "biufc" and isinstance(shape, list)
                and all(map(_count, shape))
                and _count(spec.get("offset")) and _count(spec.get("nbytes"))
                and spec["nbytes"] == math.prod(shape) * dtype.itemsize):
            raise CheckpointError(
                f"malformed checkpoint tensor entry {spec!r}: want a name, "
                f"a numeric dtype, a shape, an offset and nbytes = "
                f"elements x itemsize")
        table.append((name, dtype, tuple(shape), spec["offset"],
                      spec["nbytes"]))
    return table


def checkpoint_to_wire(ckpt: SessionCheckpoint) -> bytes:
    """Encode ``ckpt`` as one :mod:`repro.serve.wire` frame (transport
    form: see the module docstring)."""
    from .wire import encode_frame

    meta = {
        "kind": "checkpoint",
        "checkpoint_version": CHECKPOINT_VERSION,
        "session": ckpt.session,
        "family": ckpt.family,
        "idempotency": ckpt.idempotency,
    }
    tensors = {name: np.ascontiguousarray(array)
               for name, array in ckpt.state.items()}
    return encode_frame(meta, tensors)


def checkpoint_from_wire(data: bytes) -> SessionCheckpoint:
    """Decode a :func:`checkpoint_to_wire` frame back into a
    :class:`SessionCheckpoint`; :class:`CheckpointError` on any damage.

    Tensors are decoded with ``copy=True`` — the checkpoint outlives the
    request body it arrived in.
    """
    from .wire import WireError, decode_frame

    try:
        meta, tensors = decode_frame(data, copy=True)
    except WireError as exc:
        raise CheckpointError(
            f"bad wire-framed checkpoint: {exc}") from None
    if meta.get("kind") != "checkpoint":
        raise CheckpointError(
            f"wire frame is not a checkpoint (kind={meta.get('kind')!r})")
    version = meta.get("checkpoint_version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {version!r} not supported by this "
            f"runtime (speaks {CHECKPOINT_VERSION})")
    session = meta.get("session")
    family = meta.get("family")
    if not isinstance(session, dict) or not isinstance(family, dict):
        raise CheckpointError(
            "wire-framed checkpoint lacks session/family metadata")
    idempotency = meta.get("idempotency")
    idempotency = dict(idempotency) if isinstance(idempotency, dict) else {}
    _check_restore_fields(session, family, idempotency)
    return SessionCheckpoint(
        session=dict(session),
        family=dict(family),
        state=dict(tensors),
        idempotency=idempotency,
    )


def write_checkpoint(path: str | Path, ckpt: SessionCheckpoint) -> Path:
    """Atomically write ``ckpt`` to ``path`` (temp file + fsync + rename).

    The ``checkpoint.write`` fault point fires *between* the header and
    the payload hitting the temp file, so an armed kill/exception leaves
    a partial temp file — and, by construction, never a partial final
    file. The ``disk.slow`` point injects write latency.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = dump_checkpoint(ckpt)
    FAULTS.fire("disk.slow", path=str(path))
    tmp = path.with_name(f".tmp-{os.getpid()}-{path.name}")
    try:
        with open(tmp, "wb") as fh:
            split = len(MAGIC) + 8 + 16  # a realistic partial prefix
            fh.write(data[:split])
            fh.flush()
            FAULTS.fire("checkpoint.write", path=str(tmp))
            fh.write(data[split:])
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    _fsync_dir(path.parent)
    return path


def read_checkpoint(path: str | Path) -> SessionCheckpoint:
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") \
            from None
    return load_checkpoint(data)


def _fsync_dir(path: Path) -> None:
    """Best-effort directory fsync so the rename itself is durable."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class CheckpointStore:
    """Versioned per-session checkpoint directory (thread-safe).

    One file per (session, step_seq); ``keep`` newest versions are
    retained, older ones pruned after each save. Loading walks versions
    newest-first and treats an unreadable file exactly like the program
    cache treats a corrupt artifact: quarantine (rename to ``*.corrupt``),
    count it, fall back to the next version.
    """

    def __init__(self, root: str | Path, keep: int = 3) -> None:
        if keep < 1:
            raise CheckpointError(f"keep must be >= 1, got {keep}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.keep = keep
        self._lock = threading.Lock()
        #: lifetime counts (surfaced as serve.checkpoint.* metrics)
        self.writes = 0
        self.corrupt = 0

    def _session_dir(self, session_id: str) -> Path:
        safe = session_id.replace("/", "_")
        return self.root / safe

    @staticmethod
    def _version_of(path: Path) -> int:
        try:
            return int(path.stem.split("-")[-1])
        except ValueError:
            return -1

    def versions(self, session_id: str) -> list[int]:
        """Step-seq versions on disk for ``session_id``, oldest first."""
        directory = self._session_dir(session_id)
        if not directory.is_dir():
            return []
        found = sorted(self._version_of(p)
                       for p in directory.glob("ckpt-*.ckpt"))
        return [v for v in found if v >= 0]

    def path_for(self, session_id: str, version: int) -> Path:
        return self._session_dir(session_id) / f"ckpt-{version:010d}.ckpt"

    def latest_path(self, session_id: str) -> Path | None:
        versions = self.versions(session_id)
        return self.path_for(session_id, versions[-1]) if versions else None

    def save(self, ckpt: SessionCheckpoint) -> Path:
        """Write one version and prune beyond ``keep``; returns the path.

        Saving the same ``step_seq`` twice overwrites idempotently (the
        content is identical by construction — the state is a function of
        the applied steps).
        """
        path = self.path_for(ckpt.session_id, ckpt.step_seq)
        with self._lock:
            write_checkpoint(path, ckpt)
            self.writes += 1
            versions = self.versions(ckpt.session_id)
            for stale in versions[:-self.keep]:
                try:
                    os.unlink(self.path_for(ckpt.session_id, stale))
                except OSError:
                    pass
        return path

    def load(self, session_id: str,
             version: int | None = None) -> SessionCheckpoint:
        """Newest intact checkpoint (or exactly ``version`` when given).

        Unreadable files are quarantined to ``*.corrupt`` and counted;
        with ``version=None`` the walk continues to the previous intact
        version, so one torn/corrupted file never loses the session.
        """
        if version is not None:
            return read_checkpoint(self.path_for(session_id, version))
        versions = self.versions(session_id)
        if not versions:
            raise CheckpointError(
                f"no checkpoint on disk for session {session_id!r}")
        for candidate in reversed(versions):
            path = self.path_for(session_id, candidate)
            try:
                return read_checkpoint(path)
            except CheckpointError:  # damaged or malformed alike
                self._quarantine(path)
        raise CheckpointError(
            f"every checkpoint for session {session_id!r} is corrupt "
            f"({len(versions)} quarantined)")

    def _quarantine(self, path: Path) -> None:
        with self._lock:
            self.corrupt += 1
        try:
            os.replace(path, path.with_suffix(".corrupt"))
        except OSError:
            pass

    def drop(self, session_id: str) -> None:
        """Forget a session's checkpoints (explicit close, tests)."""
        directory = self._session_dir(session_id)
        if not directory.is_dir():
            return
        for path in directory.glob("ckpt-*.ckpt"):
            try:
                os.unlink(path)
            except OSError:
                pass
        try:
            directory.rmdir()
        except OSError:
            pass

    def session_ids(self) -> list[str]:
        """Sessions with at least one checkpoint on disk."""
        return sorted(p.name for p in self.root.iterdir()
                      if p.is_dir() and any(p.glob("ckpt-*.ckpt")))
