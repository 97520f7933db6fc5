"""Audio buffers and RIFF/WAVE file I/O.

The pipeline operates on 48 kHz mono float32 audio in [-1, 1]. WAV input
accepts PCM 16-bit and IEEE-float 32-bit; everything else is rejected with
a clear error (no resampler, no channel downmix).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

SAMPLE_RATE = 48000


class AudioFormatError(ValueError):
    """Raised for unreadable or unsupported WAV files."""


@dataclass
class AudioBuffer:
    """Mono audio at the pipeline's fixed rate, SAMPLE_RATE (48 kHz).

    samples are float32 in [-1, 1]. NaN/Inf samples are rejected on
    construction.
    """

    samples: np.ndarray

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.float32)
        if self.samples.ndim != 1:
            raise AudioFormatError(
                f"expected mono audio (1-D), got shape {self.samples.shape}"
            )
        if not np.all(np.isfinite(self.samples)):
            raise AudioFormatError("audio contains NaN or Inf samples")

    @property
    def duration(self) -> float:
        return len(self.samples) / SAMPLE_RATE

    def __len__(self) -> int:
        return len(self.samples)


def read_wav(path) -> AudioBuffer:
    """Read a mono 48 kHz WAV file (PCM16 or IEEE float32).

    Raises
    ------
    AudioFormatError
        For malformed RIFF data, stereo/multichannel files, sample rates
        other than 48 kHz, or sample formats other than PCM16 / float32.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise AudioFormatError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos : pos + 4]
        (chunk_size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8 : pos + 8 + chunk_size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise AudioFormatError(f"{path}: truncated fmt chunk")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            if len(body) < chunk_size:
                raise AudioFormatError(f"{path}: truncated data chunk")
            payload = body
        pos += 8 + chunk_size + (chunk_size & 1)

    if fmt is None or payload is None:
        raise AudioFormatError(f"{path}: missing fmt or data chunk")
    audio_format, channels, rate, _byte_rate, _block_align, bits = fmt

    if channels != 1:
        raise AudioFormatError(
            f"{path}: {channels} channels; only mono input is supported"
        )
    if rate != SAMPLE_RATE:
        raise AudioFormatError(
            f"{path}: sample rate {rate} Hz; only {SAMPLE_RATE} Hz is supported"
        )
    dtype = {(1, 16): "<i2", (3, 32): "<f4"}.get((audio_format, bits))
    if dtype is None:
        raise AudioFormatError(
            f"{path}: unsupported sample format (format={audio_format}, "
            f"bits={bits}); need PCM16 or IEEE float32"
        )
    if len(payload) % (bits // 8):
        raise AudioFormatError(f"{path}: data chunk is not a whole number of samples")
    samples = np.frombuffer(payload, dtype=dtype).astype(np.float32)
    if audio_format == 1:
        samples = np.maximum(samples / 32767.0, -1.0)
    return AudioBuffer(samples)


def write_wav(path, audio: AudioBuffer | np.ndarray) -> None:
    """Write mono 48 kHz IEEE float32 WAV."""
    samples = audio.samples if isinstance(audio, AudioBuffer) else audio
    payload = np.asarray(samples).astype("<f4").tobytes()
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 3, 1, SAMPLE_RATE,
                                    SAMPLE_RATE * 4, 4, 32)
    header += b"data" + struct.pack("<I", len(payload))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)
