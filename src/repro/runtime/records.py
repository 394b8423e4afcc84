"""The one durable record format: CRC-framed JSON, written atomically.

Everything the runtime keeps on disk is a *framed record* — the CRC32 of
the payload in eight hex digits, one space, the payload (one JSON
object)::

    9bb17ea3 {"kind":"ack","lsn":7}

A WAL segment is a sequence of them, one per line
(:mod:`repro.runtime.wal`); a checkpoint file
(:mod:`repro.runtime.checkpoint`) and a 2PC decision file
(:mod:`repro.runtime.txnlog`) are one each, written by
:func:`write_file`: to a ``.tmp`` sibling, fsynced, ``os.replace``-d
into place, the directory fsynced — a crash leaves the old file or the
new one, plus at most a ``.tmp`` orphan that :func:`sweep` removes.  A
record that fails verification (:func:`unframe` returns ``None``) is
never half-read: its file moves to the ``corrupt/`` sidecar
(:func:`quarantine`).  ``os.fsync`` is always reached through ``os``,
so a process that patches it (an fsync counter) sees every call.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Callable, Dict, Optional

#: The sidecar directory, beside the files, that damaged ones move to.
CORRUPT_DIR = "corrupt"


def frame(payload: bytes) -> bytes:
    """``<crc32 hex> <payload>`` (no line terminator)."""
    return b"%08x %s" % (zlib.crc32(payload) & 0xFFFFFFFF, payload)


def unframe(raw: bytes) -> Optional[Dict]:
    """The JSON object framed in *raw*, or ``None`` when the frame, the
    CRC or the JSON fails verification."""
    if len(raw) < 10 or raw[8:9] != b" ":
        return None
    payload = raw[9:]
    if raw[:8] != b"%08x" % (zlib.crc32(payload) & 0xFFFFFFFF):
        return None
    try:
        record = json.loads(payload)
    except ValueError:  # UnicodeDecodeError included
        return None
    return record if isinstance(record, dict) else None


def _fsync_directory(directory: str) -> None:
    fd = os.open(directory or ".", os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_file(
    path: str, data: bytes, before_rename: Optional[Callable[[], None]] = None
) -> None:
    """Atomically make *data* the contents of *path*.  *before_rename*
    runs once the bytes are durable under the ``.tmp`` name but not yet
    published (a crash window for failpoints)."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    if before_rename is not None:
        before_rename()
    os.replace(tmp, path)
    _fsync_directory(os.path.dirname(path))


def read_file(path: str) -> Optional[Dict]:
    """The verified record that is the whole of *path*, or ``None``."""
    try:
        with open(path, "rb") as handle:
            return unframe(handle.read())
    except OSError:
        return None


def remove_file(path: str, durable: bool = False) -> None:
    """Delete *path* (already gone is fine); with *durable*, fsync the
    directory so the deletion survives a crash."""
    try:
        os.remove(path)
    except FileNotFoundError:
        return
    if durable:
        _fsync_directory(os.path.dirname(path))


def quarantine(path: str) -> str:
    """Move *path* into the ``corrupt/`` sidecar beside it; returns the
    new path."""
    sidecar = os.path.join(os.path.dirname(path), CORRUPT_DIR, os.path.basename(path))
    os.replace(path, sidecar)
    return sidecar


def sweep(directory: str) -> None:
    """Delete the ``.tmp`` orphans crashed :func:`write_file` calls left."""
    for name in os.listdir(directory):
        if name.endswith(".tmp"):
            os.remove(os.path.join(directory, name))
