"""Weight-file format: bit-exact round trips, corruption diagnostics."""

import numpy as np
import pytest

from targetvoice import weights_io as wio


@pytest.fixture
def entries():
    rng = np.random.default_rng(0)
    return [
        ("layer1.W", "dense", rng.standard_normal((8, 4)).astype(np.float32)),
        ("layer1.b", "dense", rng.standard_normal(4).astype(np.float32)),
        ("gru.Wx", "gru", rng.standard_normal((4, 12)).astype(np.float32)),
        ("meta.dim", "scalar", np.array([4.0], dtype=np.float32)),
    ]


class TestRoundTrip:
    @pytest.mark.parametrize("n_entries", [1, 4])
    def test_pack_holds_the_payload_about_once(self, n_entries):
        import tracemalloc

        n = (1 << 20) // n_entries  # a 4 MiB float32 payload
        rng = np.random.default_rng(1)
        entries = [(f"w{i}", "dense", rng.standard_normal(n).astype(np.float32))
                   for i in range(n_entries)]
        tracemalloc.start()
        try:
            blob = wio.pack_weights("x", entries)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert wio.unpack_weights(blob)[1]["w0"][1].tobytes() == entries[0][2].tobytes()
        assert peak <= 1.5 * 4 * n * n_entries

    @pytest.mark.parametrize("n_entries", [1, 4])
    def test_load_holds_the_payload_about_once(self, tmp_path, n_entries):
        import tracemalloc

        n = (1 << 20) // n_entries  # a 4 MiB float32 payload
        rng = np.random.default_rng(2)
        entries = [(f"w{i}", "dense", rng.standard_normal(n).astype(np.float32))
                   for i in range(n_entries)]
        path = tmp_path / "w.ppnw"
        wio.save_weights(path, "x", entries)
        tracemalloc.start()
        try:
            _, loaded = wio.load_weights(path, expect_kind="x")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded["w0"][1].tobytes() == entries[0][2].tobytes()
        assert peak <= 1.25 * path.stat().st_size

    def test_load_gives_read_only_views_of_one_buffer(self, tmp_path, entries):
        path = tmp_path / "w.ppnw"
        wio.save_weights(path, "x", entries)
        _, loaded = wio.load_weights(path, expect_kind="x")
        arrays = [loaded[name][1] for name, _, _ in entries]
        assert arrays[0].ctypes.data % wio.PAYLOAD_ALIGN == 0
        for arr in arrays:
            assert arr.dtype == np.float32
            assert arr.flags.aligned and arr.flags.c_contiguous
            assert not arr.flags.writeable and not arr.flags.owndata
            assert arr.base is arrays[0].base
        with pytest.raises(ValueError, match="read-only"):
            arrays[0][0, 0] = 1.0

    @pytest.mark.parametrize("residue", [0, 1, 2, 3, "past_peek"])
    def test_any_payload_offset_loads_bit_for_bit(self, tmp_path, entries, residue):
        payload_bytes = 4 * sum(arr.size for _, _, arr in entries)
        base = len(wio.pack_weights("", entries)) - 4 - payload_bytes
        kind = "k" * (wio.HEADER_PEEK if residue == "past_peek" else (residue - base) % 4)
        path = tmp_path / "w.ppnw"
        wio.save_weights(path, kind, entries)
        offset = path.stat().st_size - 4 - payload_bytes
        if residue == "past_peek":
            assert offset > wio.HEADER_PEEK
        else:
            assert offset % 4 == residue
        _, loaded = wio.load_weights(path, expect_kind=kind)
        for name, layer_kind, arr in entries:
            assert loaded[name][0] == layer_kind
            assert loaded[name][1].tobytes() == arr.tobytes()
            assert loaded[name][1].flags.aligned and not loaded[name][1].flags.writeable

    @pytest.mark.parametrize("shift", [0, 1, 2, 3])
    def test_blob_at_any_alignment_unpacks(self, entries, shift):
        blob = wio.pack_weights("x", entries)
        buf = bytearray(shift + len(blob))
        buf[shift:] = blob
        for data in (memoryview(buf)[shift:], bytes(blob)):
            _, loaded = wio.unpack_weights(data)
            for name, _, arr in entries:
                assert loaded[name][1].tobytes() == arr.tobytes()
                assert loaded[name][1].flags.aligned
                assert not loaded[name][1].flags.writeable

    def test_file_that_shrinks_while_read_is_format_error(self, tmp_path, monkeypatch,
                                                          entries):
        import os

        path = tmp_path / "w.ppnw"
        wio.save_weights(path, "x", entries)
        real_fstat = os.fstat

        def fstat_then_shrink(fd):
            stat = real_fstat(fd)
            os.truncate(path, stat.st_size // 2)
            return stat

        with monkeypatch.context() as patch:
            patch.setattr(wio.os, "fstat", fstat_then_shrink)
            with pytest.raises(wio.WeightsFormatError, match="changed"):
                wio.load_weights(path, expect_kind="x")

    def test_save_load_save_identical_bytes(self, entries):
        blob1 = wio.pack_weights("enhancer", entries)
        kind, loaded = wio.unpack_weights(blob1)
        assert kind == "enhancer"
        blob2 = wio.pack_weights(
            "enhancer", [(n, loaded[n][0], loaded[n][1]) for n, _, _ in entries]
        )
        assert blob1 == blob2

    def test_arrays_bit_exact(self, entries):
        _, loaded = wio.unpack_weights(wio.pack_weights("x", entries))
        for name, kind, arr in entries:
            got_kind, got = loaded[name]
            assert got_kind == kind
            np.testing.assert_array_equal(got, arr)

    def test_file_roundtrip(self, tmp_path, entries):
        path = tmp_path / "w.ppnw"
        wio.save_weights(path, "embedder", entries)
        kind, loaded = wio.load_weights(path, expect_kind="embedder")
        assert set(loaded) == {n for n, _, _ in entries}

    def test_size_is_header_plus_float32_payload(self, entries):
        blob = wio.pack_weights("x", entries)
        n_params = sum(arr.size for _, _, arr in entries)
        header = len(blob) - 4 * n_params
        assert 0 < header < 256
        assert len(blob) == header + 4 * n_params


class TestCorruption:
    def test_truncation_is_checksum_error(self, entries):
        blob = wio.pack_weights("x", entries)
        with pytest.raises(wio.WeightsFormatError, match="checksum"):
            wio.unpack_weights(blob[:-9])

    def test_flipped_byte_is_checksum_error(self, entries):
        blob = bytearray(wio.pack_weights("x", entries))
        blob[30] ^= 0xFF
        with pytest.raises(wio.WeightsFormatError, match="checksum"):
            wio.unpack_weights(bytes(blob))

    def test_bad_magic(self):
        with pytest.raises(wio.WeightsFormatError, match="magic"):
            wio.unpack_weights(b"NOPE" + b"\x00" * 64)

    def test_wrong_version(self, entries):
        blob = bytearray(wio.pack_weights("x", entries))
        blob[4] = 99
        import struct, zlib
        body = bytes(blob[:-4])
        fixed = body + struct.pack("<I", zlib.crc32(body))
        with pytest.raises(wio.WeightsFormatError, match="version"):
            wio.unpack_weights(fixed)

    def test_wrong_kind_rejected(self, tmp_path, entries):
        path = tmp_path / "w.ppnw"
        wio.save_weights(path, "embedder", entries)
        with pytest.raises(wio.WeightsFormatError, match="expected"):
            wio.load_weights(path, expect_kind="enhancer")


def with_crc(body: bytes) -> bytes:
    import struct, zlib
    return body + struct.pack("<I", zlib.crc32(body))


def parses_or_format_error(blob: bytes) -> None:
    """A blob either loads or fails with WeightsFormatError, nothing else."""
    try:
        wio.unpack_weights(blob)
    except wio.WeightsFormatError:
        pass


class TestMalformedHeaderFuzz:
    """Damage under a valid checksum must still fail with a typed error."""

    @pytest.mark.parametrize("mask", [0x01, 0x80, 0xFF])
    def test_flipped_header_byte_with_valid_crc(self, entries, mask):
        blob = wio.pack_weights("x", entries)
        header = len(blob) - 4 - 4 * sum(arr.size for _, _, arr in entries)
        for i in range(header):
            body = bytearray(blob[:-4])
            body[i] ^= mask
            parses_or_format_error(with_crc(bytes(body)))

    def test_truncated_at_every_offset(self, entries):
        blob = wio.pack_weights("x", entries[1:])
        for cut in range(len(blob)):
            parses_or_format_error(blob[:cut])
            parses_or_format_error(with_crc(blob[:cut]))

    def test_entry_count_past_header(self, entries):
        blob = bytearray(wio.pack_weights("x", entries))
        blob[11:15] = (1000).to_bytes(4, "little")  # after magic, version, kind "x"
        with pytest.raises(wio.WeightsFormatError, match="header"):
            wio.unpack_weights(with_crc(bytes(blob[:-4])))

    def test_name_not_utf8(self, entries):
        blob = bytearray(wio.pack_weights("x", entries))
        blob[17] = 0xFF  # first byte of the first entry's name
        with pytest.raises(wio.WeightsFormatError, match="header"):
            wio.unpack_weights(with_crc(bytes(blob[:-4])))


class TestDuplicateNames:
    def test_pack_rejects_repeated_name(self, entries):
        with pytest.raises(wio.WeightsFormatError, match="duplicate.*layer1.W"):
            wio.pack_weights("x", entries + [entries[0]])

    def test_unpack_rejects_repeated_name(self, entries):
        blob = bytearray(wio.pack_weights("x", entries))
        at = blob.index(b"layer1.b")  # in the header, before any payload
        blob[at:at + 8] = b"layer1.W"
        with pytest.raises(wio.WeightsFormatError, match="duplicate.*layer1.W"):
            wio.unpack_weights(with_crc(bytes(blob[:-4])))


class TestEmbeddingFiles:
    def test_roundtrip_unit_norm(self, tmp_path):
        rng = np.random.default_rng(1)
        vec = rng.standard_normal(16)
        vec /= np.linalg.norm(vec)
        path = tmp_path / "emb.ppnw"
        wio.save_embedding(path, vec)
        back = wio.load_embedding(path)
        assert np.linalg.norm(back) == pytest.approx(1.0, abs=1e-6)
        np.testing.assert_allclose(back, vec, atol=1e-6)

    def test_non_unit_vector_rejected_on_load(self, tmp_path):
        path = tmp_path / "bad.ppnw"
        wio.save_embedding(path, np.full(8, 3.0))
        with pytest.raises(wio.WeightsFormatError, match="norm"):
            wio.load_embedding(path)


class TestModelLoaders:
    """The model loaders size nothing from a file before they have checked it."""

    @pytest.mark.parametrize("kind", ["enhancer", "embedder"])
    def test_huge_meta_rejected_without_allocating(self, kind):
        import tracemalloc

        from targetvoice import embedder, enhancer

        if kind == "enhancer":
            net = enhancer.EnhancerNet(enhancer.EnhancerConfig.preset("toy"), seed=0)
            entries, load = enhancer.enhancer_entries(net), enhancer.enhancer_from_entries
        else:
            net = embedder.EmbedderNet(embedder.EmbedderConfig.toy(), seed=0)
            entries, load = embedder.embedder_entries(net), embedder.embedder_from_entries
        entries = [(name, k, np.array([2.0 ** 31]) if name == "meta.gru_units" else arr)
                   for name, k, arr in entries]
        _, stored = wio.unpack_weights(wio.pack_weights(kind, entries))
        tracemalloc.start()
        try:
            with pytest.raises(wio.WeightsFormatError, match="shape mismatch"):
                load(stored)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_param_shapes_allocate_no_parameter(self):
        import math
        import tracemalloc

        from targetvoice.enhancer import EnhancerConfig, EnhancerNet

        config = EnhancerConfig.preset("ppn1024")
        tracemalloc.start()
        try:
            shapes = EnhancerNet.param_shapes(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert sum(math.prod(shape) for _, shape in shapes) == 25_190_081
