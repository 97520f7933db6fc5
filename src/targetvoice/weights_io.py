"""Versioned binary weight files.

Layout (little-endian):

    magic    4s   "PPNW"
    version  u32  currently 1
    kind     u16 length + utf-8 model kind ("embedder", "enhancer", ...)
    count    u32  number of entries
    entry*   u16 length + utf-8 name, u8 layer-kind code, u8 ndim, u32 dims
    payload  all entries' float32 data, C order, concatenated
    crc      u32  CRC32 of every preceding byte

Loads verify magic, version, and checksum and fail with a diagnostic
rather than returning corrupt tensors. Round-trips are bit-exact.
"""

from __future__ import annotations

import math
import os
import struct
import zlib

import numpy as np

MAGIC = b"PPNW"
VERSION = 1
HEADER_PEEK = 4096   # bytes; version-1 headers are a few hundred
PAYLOAD_ALIGN = 64   # bytes; a cache line

KIND_CODES = {"scalar": 0, "vector": 1, "dense": 2, "conv1d": 3, "gru": 4}
KIND_NAMES = {v: k for k, v in KIND_CODES.items()}


class WeightsFormatError(ValueError):
    """Raised for unreadable, corrupt, or wrong-version weight files."""


def pack_weights(model_kind: str, entries: list[tuple[str, str, np.ndarray]]) -> bytearray:
    """Serialize (name, layer_kind, array) entries into the binary format."""
    _check_unique(name for name, _, _ in entries)
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", VERSION)
    kind_b = model_kind.encode()
    out += struct.pack("<H", len(kind_b)) + kind_b
    out += struct.pack("<I", len(entries))
    for name, kind, arr in entries:
        if kind not in KIND_CODES:
            raise WeightsFormatError(f"unknown layer kind {kind!r}")
        name_b = name.encode()
        arr = np.asarray(arr)
        out += struct.pack("<H", len(name_b)) + name_b
        out += struct.pack("<BB", KIND_CODES[kind], arr.ndim)
        out += struct.pack(f"<{arr.ndim}I", *arr.shape)
    for _, _, arr in entries:
        out += np.ascontiguousarray(arr, dtype="<f4").data
    out += struct.pack("<I", zlib.crc32(out))
    return out


def unpack_weights(data) -> tuple[str, dict[str, tuple[str, np.ndarray]]]:
    """Parse a bytes-like weight blob into (model_kind, {name: (layer_kind, array)}).

    Every array is a read-only view of one payload buffer: `data`'s own
    bytes when the payload starts 4-byte aligned in memory (so the arrays
    change if `data` does), otherwise one aligned copy of them.
    """
    view = memoryview(data)
    if len(view) < 12 or view[:4] != MAGIC:
        raise WeightsFormatError("not a weight file (bad magic)")
    stored_crc = struct.unpack_from("<I", view, len(view) - 4)[0]
    actual_crc = zlib.crc32(view[:-4])
    if stored_crc != actual_crc:
        raise WeightsFormatError(
            f"checksum mismatch (stored {stored_crc:#010x}, "
            f"computed {actual_crc:#010x}); file is truncated or corrupt"
        )
    (version,) = struct.unpack_from("<I", view, 4)
    if version != VERSION:
        raise WeightsFormatError(f"unsupported version {version}, expected {VERSION}")

    try:
        model_kind, metas, pos = _unpack_header(view)
    except (struct.error, UnicodeDecodeError) as exc:
        raise WeightsFormatError(f"malformed header: {exc}") from exc

    # up to the end of the blob; the last check rejects entries reaching the CRC
    payload = np.frombuffer(view[pos:], dtype=np.uint8)
    if payload.ctypes.data % 4:
        payload = payload.copy()  # numpy's allocations are aligned
    payload.flags.writeable = False
    entries: dict[str, tuple[str, np.ndarray]] = {}
    at = 0
    for name, kind, shape in metas:
        nbytes = 4 * math.prod(shape)
        if at + nbytes > len(payload):
            raise WeightsFormatError(f"payload truncated at entry {name!r}")
        entries[name] = (kind, payload[at : at + nbytes].view("<f4").reshape(shape))
        at += nbytes
    if pos + at != len(view) - 4:
        raise WeightsFormatError("trailing bytes after payload")
    return model_kind, entries


def _unpack_header(data):
    """(model_kind, [(name, layer_kind, shape)], payload offset).

    Reads past the end raise struct.error, and names that are not UTF-8
    raise UnicodeDecodeError; the caller turns both into a format error.
    """
    pos = 8
    (kind_len,) = struct.unpack_from("<H", data, pos)
    pos += 2
    model_kind = str(data[pos : pos + kind_len], "utf-8")
    pos += kind_len
    (count,) = struct.unpack_from("<I", data, pos)
    pos += 4

    metas = []
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", data, pos)
        pos += 2
        name = str(data[pos : pos + name_len], "utf-8")
        pos += name_len
        code, ndim = struct.unpack_from("<BB", data, pos)
        pos += 2
        shape = struct.unpack_from(f"<{ndim}I", data, pos)
        pos += 4 * ndim
        if code not in KIND_NAMES:
            raise WeightsFormatError(f"unknown layer-kind code {code}")
        metas.append((name, KIND_NAMES[code], shape))
    _check_unique(name for name, _, _ in metas)
    return model_kind, metas, pos


def _check_unique(names) -> None:
    seen = set()
    for name in names:
        if name in seen:
            raise WeightsFormatError(f"duplicate entry name {name!r}")
        seen.add(name)


def read_meta(entries: dict, keys, model_kind: str) -> dict[str, int]:
    """Each `meta.<key>` entry as a positive integer.

    Raises WeightsFormatError for a missing, non-scalar, non-integer or
    non-positive value, so no model is ever sized from one.
    """
    values = {}
    for key in keys:
        name = f"meta.{key}"
        if name not in entries:
            raise WeightsFormatError(f"missing entry {name!r} in {model_kind} weights")
        stored = entries[name][1]
        value = float(stored.reshape(-1)[0]) if stored.size == 1 else math.nan
        if not (value >= 1 and value.is_integer()):
            raise WeightsFormatError(
                f"{name} must be a positive integer, got {stored.tolist()}"
            )
        values[key] = int(value)
    return values


def check_shapes(entries: dict, expected, model_kind: str) -> None:
    """Compare stored entries with the (name, shape) pairs a config implies.

    Run before building the model, so a file whose dimensions disagree
    with its own metadata fails here instead of sizing an allocation.
    """
    for name, shape in expected:
        if name not in entries:
            raise WeightsFormatError(f"missing entry {name!r} in {model_kind} weights")
        stored = entries[name][1].shape
        if stored != shape:
            raise WeightsFormatError(f"shape mismatch for {name}: {stored} vs {shape}")


def save_weights(path, model_kind: str,
                 entries: list[tuple[str, str, np.ndarray]]) -> None:
    with open(path, "wb") as fh:
        fh.write(pack_weights(model_kind, entries))


def load_weights(path, expect_kind: str):
    """The kind and entries of a weight file; WeightsFormatError unless it holds `expect_kind`.

    The file is read once into a private buffer, placed so that its payload
    starts on a 64-byte boundary, and the entries are read-only views of it.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        offset = _payload_offset(fh.read(HEADER_PEEK))
        buf = np.empty(size + PAYLOAD_ALIGN, dtype=np.uint8)
        pad = -(buf.ctypes.data + offset) % PAYLOAD_ALIGN
        buf = buf[pad : pad + size]
        fh.seek(0)
        got = fh.readinto(buf)
    if got != size:
        raise WeightsFormatError(f"{path}: read {got} of {size} bytes; the file changed")
    buf.flags.writeable = False
    model_kind, entries = unpack_weights(buf)
    if model_kind != expect_kind:
        raise WeightsFormatError(
            f"{path}: holds {model_kind!r} weights, expected {expect_kind!r}"
        )
    return model_kind, entries


def _payload_offset(head: bytes) -> int:
    """Where the payload of a file starting with `head` begins; 0 if unknown.

    Only places the read: a header longer than `head` or a damaged one
    costs alignment, and unpack_weights still reports the damage.
    """
    try:
        return _unpack_header(head)[2]
    except (struct.error, UnicodeDecodeError, WeightsFormatError):
        return 0


def save_embedding(path, embedding: np.ndarray) -> None:
    """Persist a unit-norm speaker embedding as a one-entry vector file."""
    save_weights(path, "embedding", [("embedding", "vector", embedding)])


def load_embedding(path) -> np.ndarray:
    _, entries = load_weights(path, expect_kind="embedding")
    if "embedding" not in entries:
        raise WeightsFormatError(f"{path}: missing embedding entry")
    vec = entries["embedding"][1].astype(np.float64)
    norm = float(np.linalg.norm(vec))
    if not 0.99 < norm < 1.01:
        raise WeightsFormatError(f"{path}: embedding norm {norm:.4f} is not 1")
    return vec / norm
