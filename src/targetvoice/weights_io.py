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
import struct
import zlib

import numpy as np

MAGIC = b"PPNW"
VERSION = 1

KIND_CODES = {"scalar": 0, "vector": 1, "dense": 2, "conv1d": 3, "gru": 4}
KIND_NAMES = {v: k for k, v in KIND_CODES.items()}


class WeightsFormatError(ValueError):
    """Raised for unreadable, corrupt, or wrong-version weight files."""


def pack_weights(model_kind: str, entries: list[tuple[str, str, np.ndarray]]) -> bytes:
    """Serialize (name, layer_kind, array) entries into the binary format."""
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
        out += np.ascontiguousarray(arr, dtype="<f4").tobytes()
    out += struct.pack("<I", zlib.crc32(bytes(out)))
    return bytes(out)


def unpack_weights(data: bytes) -> tuple[str, dict[str, tuple[str, np.ndarray]]]:
    """Parse a weight blob into (model_kind, {name: (layer_kind, array)})."""
    if len(data) < 12 or data[:4] != MAGIC:
        raise WeightsFormatError("not a weight file (bad magic)")
    stored_crc = struct.unpack_from("<I", data, len(data) - 4)[0]
    actual_crc = zlib.crc32(data[:-4])
    if stored_crc != actual_crc:
        raise WeightsFormatError(
            f"checksum mismatch (stored {stored_crc:#010x}, "
            f"computed {actual_crc:#010x}); file is truncated or corrupt"
        )
    (version,) = struct.unpack_from("<I", data, 4)
    if version != VERSION:
        raise WeightsFormatError(f"unsupported version {version}, expected {VERSION}")

    pos = 8
    (kind_len,) = struct.unpack_from("<H", data, pos)
    pos += 2
    model_kind = data[pos : pos + kind_len].decode()
    pos += kind_len
    (count,) = struct.unpack_from("<I", data, pos)
    pos += 4

    metas = []
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", data, pos)
        pos += 2
        name = data[pos : pos + name_len].decode()
        pos += name_len
        code, ndim = struct.unpack_from("<BB", data, pos)
        pos += 2
        shape = struct.unpack_from(f"<{ndim}I", data, pos)
        pos += 4 * ndim
        if code not in KIND_NAMES:
            raise WeightsFormatError(f"unknown layer-kind code {code}")
        metas.append((name, KIND_NAMES[code], shape))

    entries: dict[str, tuple[str, np.ndarray]] = {}
    for name, kind, shape in metas:
        n = int(np.prod(shape)) if shape else 1
        raw = data[pos : pos + 4 * n]
        if len(raw) != 4 * n:
            raise WeightsFormatError(f"payload truncated at entry {name!r}")
        arr = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
        entries[name] = (kind, arr)
        pos += 4 * n
    if pos != len(data) - 4:
        raise WeightsFormatError("trailing bytes after payload")
    return model_kind, entries


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


def load_weights(path, expect_kind: str | None = None):
    with open(path, "rb") as fh:
        data = fh.read()
    model_kind, entries = unpack_weights(data)
    if expect_kind is not None and model_kind != expect_kind:
        raise WeightsFormatError(
            f"{path}: holds {model_kind!r} weights, expected {expect_kind!r}"
        )
    return model_kind, entries


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
