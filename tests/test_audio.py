"""WAV I/O contract: formats accepted, everything else rejected clearly."""

import struct

import numpy as np
import pytest

from targetvoice.audio import AudioBuffer, AudioFormatError, read_wav, write_wav


def write_pcm16(path, samples):
    """A mono 48 kHz PCM16 WAV; write_wav writes float32 only."""
    payload = np.round(np.clip(samples, -1.0, 1.0) * 32767.0).astype("<i2").tobytes()
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 48000, 48000 * 2, 2, 16)
    header += b"data" + struct.pack("<I", len(payload))
    path.write_bytes(header + payload)


@pytest.fixture
def samples():
    rng = np.random.default_rng(0)
    return np.clip(0.3 * rng.standard_normal(9600), -0.99, 0.99).astype(np.float32)


class TestRoundTrip:
    def test_float32_exact(self, tmp_path, samples):
        path = tmp_path / "f32.wav"
        write_wav(path, AudioBuffer(samples))
        back = read_wav(path)
        np.testing.assert_array_equal(back.samples, samples)

    def test_pcm16_close(self, tmp_path, samples):
        path = tmp_path / "i16.wav"
        write_pcm16(path, samples)
        back = read_wav(path)
        np.testing.assert_allclose(back.samples, samples, rtol=0, atol=0.51 / 32767)

    def test_plain_array_accepted(self, tmp_path):
        path = tmp_path / "arr.wav"
        write_wav(path, np.zeros(480, dtype=np.float64))
        assert len(read_wav(path)) == 480


class TestRejection:
    def test_stereo_rejected(self, tmp_path, samples):
        path = tmp_path / "stereo.wav"
        interleaved = np.repeat(samples[:100], 2)
        payload = interleaved.astype("<f4").tobytes()
        header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
        header += b"fmt " + struct.pack("<IHHIIHH", 16, 3, 2, 48000, 48000 * 8, 8, 32)
        header += b"data" + struct.pack("<I", len(payload))
        path.write_bytes(header + payload)
        with pytest.raises(AudioFormatError, match="mono"):
            read_wav(path)

    def test_wrong_rate_rejected(self, tmp_path):
        path = tmp_path / "rate.wav"
        payload = np.zeros(100, dtype="<f4").tobytes()
        header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
        header += b"fmt " + struct.pack("<IHHIIHH", 16, 3, 1, 44100, 44100 * 4, 4, 32)
        header += b"data" + struct.pack("<I", len(payload))
        path.write_bytes(header + payload)
        with pytest.raises(AudioFormatError, match="48000"):
            read_wav(path)

    def test_unsupported_format_rejected(self, tmp_path):
        path = tmp_path / "f64.wav"
        payload = np.zeros(100, dtype="<f8").tobytes()
        header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
        header += b"fmt " + struct.pack("<IHHIIHH", 16, 3, 1, 48000, 48000 * 8, 8, 64)
        header += b"data" + struct.pack("<I", len(payload))
        path.write_bytes(header + payload)
        with pytest.raises(AudioFormatError, match="float32"):
            read_wav(path)

    def test_not_a_wav(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"definitely not RIFF data")
        with pytest.raises(AudioFormatError, match="RIFF"):
            read_wav(path)

    def test_nan_samples_rejected(self):
        bad = np.zeros(100, dtype=np.float32)
        bad[3] = np.nan
        with pytest.raises(AudioFormatError, match="NaN"):
            AudioBuffer(bad)


def reads_or_format_error(path, blob):
    path.write_bytes(blob)
    try:
        assert isinstance(read_wav(path), AudioBuffer)
    except AudioFormatError:
        pass


def with_sizes_fixed(blob):
    """A truncated write_wav file whose RIFF and data sizes match what is left."""
    if len(blob) < 44:
        return blob
    return (blob[:4] + struct.pack("<I", len(blob) - 8) + blob[8:40]
            + struct.pack("<I", len(blob) - 44) + blob[44:])


class TestMalformedFileFuzz:
    """Damaged files must read or fail with AudioFormatError, nothing else."""

    @pytest.fixture(params=[write_pcm16, write_wav], ids=["pcm16", "float32"])
    def blob(self, request, tmp_path, samples):
        path = tmp_path / "small.wav"
        request.param(path, samples[:25])
        return path.read_bytes()

    def test_truncated_at_every_offset(self, tmp_path, blob):
        for cut in range(len(blob)):
            reads_or_format_error(tmp_path / "cut.wav", blob[:cut])
            reads_or_format_error(tmp_path / "cut.wav", with_sizes_fixed(blob[:cut]))

    @pytest.mark.parametrize("mask", [0x01, 0x80, 0xFF])
    def test_flipped_header_byte(self, tmp_path, blob, mask):
        for i in range(44):
            damaged = bytearray(blob)
            damaged[i] ^= mask
            reads_or_format_error(tmp_path / "flip.wav", bytes(damaged))

    def test_data_chunk_not_whole_samples(self, tmp_path):
        header = b"RIFF" + struct.pack("<I", 36 + 5) + b"WAVE"
        header += b"fmt " + struct.pack("<IHHIIHH", 16, 3, 1, 48000, 48000 * 4, 4, 32)
        header += b"data" + struct.pack("<I", 5)
        path = tmp_path / "odd.wav"
        path.write_bytes(header + bytes(5) + b"\0")
        with pytest.raises(AudioFormatError, match="whole number"):
            read_wav(path)
