"""Trace save/load roundtrips, across both formats."""

import json
import struct

import numpy as np
import pytest

from repro.analysis import analyze_trial
from repro.trace.columnar import ColumnarTrace
from repro.trace.persist import load_trace, save_trace
from repro.trace.trial import TrialConfig, run_fast_trial

COLUMNS = (
    "times", "levels", "silences", "qualities", "antennas", "offsets", "lengths",
)


@pytest.fixture
def trace():
    output = run_fast_trial(
        TrialConfig(name="persist-test", packets=300, mean_level=8.0, seed=42)
    )
    return output.trace


def _assert_records_equal(original, restored):
    assert restored.packets_received == original.packets_received
    for key in COLUMNS:
        np.testing.assert_array_equal(
            getattr(restored, key), getattr(original, key)
        )
    np.testing.assert_array_equal(restored.payload, original.payload)


class TestRoundtrip:
    def test_plain_json(self, trace, tmp_path):
        path = tmp_path / "trial.jsonl"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.name == trace.name
        assert loaded.packets_sent == trace.packets_sent
        assert loaded.packets_received == trace.packets_received
        assert loaded.spec == trace.spec

    def test_gzip(self, trace, tmp_path):
        path = tmp_path / "trial.jsonl.gz"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.packets_received == trace.packets_received

    def test_bytes_survive_exactly(self, trace, tmp_path):
        path = tmp_path / "trial.jsonl"
        save_trace(trace, path)
        loaded = load_trace(path)
        for index in range(trace.packets_received):
            assert loaded.record(index) == trace.record(index)

    def test_analysis_identical_after_reload(self, trace, tmp_path):
        path = tmp_path / "trial.jsonl"
        save_trace(trace, path)
        before = analyze_trial(trace)
        after = analyze_trial(load_trace(path))
        assert before.packets_received == after.packets_received
        assert before.body_bits_damaged == after.body_bits_damaged
        assert before.packets_truncated == after.packets_truncated
        assert before.worst_body_bits == after.worst_body_bits


class TestFormatMatrix:
    """Round-trip property: save -> load restores every record exactly,
    in each format, including through cross-format conversion."""

    @pytest.mark.parametrize(
        "filename,format",
        [
            ("trial.jsonl", None),
            ("trial.jsonl.gz", None),
            ("trial.wlt2", None),
            ("oddly-named.dat", "v2"),
            ("oddly-named.bin", "v1"),
        ],
    )
    def test_roundtrip_exact(self, trace, tmp_path, filename, format):
        path = tmp_path / filename
        save_trace(trace, path, format=format)
        loaded = load_trace(path)
        assert loaded.name == trace.name
        assert loaded.packets_sent == trace.packets_sent
        assert loaded.spec == trace.spec
        _assert_records_equal(trace, loaded)

    def test_autodetect_is_content_based(self, trace, tmp_path):
        """A v2 file under a v1-looking name still loads through the
        zero-copy reader, and vice versa — detection reads bytes, never
        filenames."""
        v2_in_disguise = tmp_path / "looks-like-v1.jsonl"
        save_trace(trace, v2_in_disguise, format="v2")
        assert isinstance(load_trace(v2_in_disguise).times, np.memmap)
        v1_in_disguise = tmp_path / "looks-like-v2.wlt2"
        save_trace(trace, v1_in_disguise, format="v1")
        loaded = load_trace(v1_in_disguise)
        assert not isinstance(loaded.times, np.memmap)
        _assert_records_equal(trace, loaded)

    def test_v2_to_v1_to_v2_byte_identical(self, trace, tmp_path):
        a, b, c = (tmp_path / n for n in ("a.wlt2", "b.jsonl", "c.wlt2"))
        save_trace(trace, a)
        save_trace(load_trace(a), b)
        save_trace(load_trace(b), c)
        assert a.read_bytes() == c.read_bytes()

    def test_empty_trace_roundtrips(self, trace, tmp_path):
        empty = ColumnarTrace.from_records([], "empty", trace.spec, 0)
        for name in ("empty.jsonl", "empty.jsonl.gz", "empty.wlt2"):
            path = tmp_path / name
            save_trace(empty, path)
            loaded = load_trace(path)
            assert loaded.packets_received == 0
            assert loaded.name == "empty"
            assert loaded.spec == trace.spec

    def test_unknown_format_rejected(self, trace, tmp_path):
        with pytest.raises(ValueError, match="unknown trace format"):
            save_trace(trace, tmp_path / "x.jsonl", format="v3")


class TestDeterministicOutput:
    """Identical traces must persist to identical bytes in every
    format — the serial-vs-jobs=N byte-identity invariant extends to
    saved artifacts, gzipped ones included."""

    @pytest.mark.parametrize(
        "names", [("a.jsonl", "b.jsonl"), ("a.jsonl.gz", "b.jsonl.gz"),
                  ("a.wlt2", "b.wlt2")]
    )
    def test_two_saves_identical(self, trace, tmp_path, names):
        first, second = (tmp_path / n for n in names)
        save_trace(trace, first)
        save_trace(trace, second)
        assert first.read_bytes() == second.read_bytes()

    def test_gzip_header_carries_no_mtime(self, trace, tmp_path):
        path = tmp_path / "trial.jsonl.gz"
        save_trace(trace, path)
        header = path.read_bytes()[:10]
        # RFC 1952: MTIME is bytes 4-7 of the member header.
        assert header[4:8] == b"\x00\x00\x00\x00"


class TestErrorHandling:
    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_trace(path)

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text('{"kind": "something-else", "format": 1}\n')
        with pytest.raises(ValueError, match="not a trial trace"):
            load_trace(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text('{"kind": "wavelan-trial-trace", "format": 99}\n')
        with pytest.raises(ValueError, match="format"):
            load_trace(path)

    def test_malformed_record_reports_line_number(self, trace, tmp_path):
        path = tmp_path / "broken.jsonl"
        save_trace(trace, path)
        lines = path.read_text().splitlines()
        lines[4] = "{not json"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"broken\.jsonl:5: malformed"):
            load_trace(path)

    def test_missing_field_reports_line_number(self, trace, tmp_path):
        path = tmp_path / "broken.jsonl"
        save_trace(trace, path)
        lines = path.read_text().splitlines()
        entry = json.loads(lines[2])
        del entry["data"]
        lines[2] = json.dumps(entry)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"broken\.jsonl:3: malformed"):
            load_trace(path)

    def test_bad_hex_reports_line_number(self, trace, tmp_path):
        path = tmp_path / "broken.jsonl"
        save_trace(trace, path)
        lines = path.read_text().splitlines()
        entry = json.loads(lines[1])
        entry["data"] = "zz-not-hex"
        lines[1] = json.dumps(entry)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"broken\.jsonl:2: malformed"):
            load_trace(path)

    @pytest.mark.parametrize("level", [70000, "high", None])
    def test_unstorable_register_names_file(self, trace, tmp_path, level):
        """A record line that parses but cannot become a column fails
        the load, naming the file."""
        path = tmp_path / "broken.jsonl"
        save_trace(trace, path)
        lines = path.read_text().splitlines()
        entry = json.loads(lines[3])
        entry["lvl"] = level
        lines[3] = json.dumps(entry)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"broken\.jsonl: malformed"):
            load_trace(path)

    def test_truncated_final_record_v1(self, trace, tmp_path):
        path = tmp_path / "cut.jsonl"
        save_trace(trace, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 40])  # cut mid-final-record
        with pytest.raises(ValueError, match="malformed trace record"):
            load_trace(path)

    def test_truncated_v2_rejected(self, trace, tmp_path):
        path = tmp_path / "cut.wlt2"
        save_trace(trace, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 17])
        with pytest.raises(ValueError, match="truncated"):
            load_trace(path)

    @pytest.mark.parametrize(
        "damage", ["column-without-offset", "spec-without-src-mac", "non-utf8"]
    )
    def test_damaged_v2_footer_names_file(self, trace, tmp_path, damage):
        path = tmp_path / "broken.wlt2"
        save_trace(trace, path)
        raw = path.read_bytes()
        (length,) = struct.unpack("<Q", raw[-16:-8])
        start = len(raw) - 16 - length
        footer = raw[start:-16]
        if damage == "non-utf8":
            footer = footer.replace(b'"persist-test"', b'"persist-te\xfft"')
        else:
            doc = json.loads(footer)
            if damage == "column-without-offset":
                del doc["columns"]["levels"]["offset"]
            else:
                del doc["spec"]["src_mac"]
            footer = json.dumps(doc).encode()
        path.write_bytes(
            raw[:start] + footer + struct.pack("<Q", len(footer)) + raw[-8:]
        )
        with pytest.raises(ValueError, match=r"broken\.wlt2: "):
            load_trace(path)


class TestMutatedV1Files:
    """Damaged trace files fail as ValueError naming the file.

    Seeded truncations, bit flips and 64-byte zero runs over a small
    trace, in both v1 encodings and in v2.  A damaged gzip stream (bad
    CRC, cut member, broken deflate data), undecodable text and a header
    or footer missing its fields must not escape as ``EOFError``,
    ``OSError``, ``zlib.error``, ``UnicodeDecodeError`` or
    ``KeyError``; a mutation the format cannot detect may still load.
    v2 carries no checksum, so most of its mutations load and only the
    v1 encodings must reject most of theirs.
    """

    MUTATIONS = 150

    @pytest.mark.parametrize("suffix", [".jsonl.gz", ".jsonl", ".wlt2"])
    def test_every_failure_is_a_named_value_error(self, tmp_path, suffix):
        import numpy as np

        trace = run_fast_trial(
            TrialConfig(name="mutate", packets=60, mean_level=9.5, seed=3)
        ).trace
        source = tmp_path / f"source{suffix}"
        save_trace(trace, source)
        pristine = source.read_bytes()
        rng = np.random.default_rng(2024)
        target = tmp_path / f"mutated{suffix}"
        failures = 0
        for index in range(self.MUTATIONS):
            data = bytearray(pristine)
            kind = index % 3
            if kind == 0:
                del data[int(rng.integers(0, len(data))):]
            elif kind == 1:
                for _ in range(int(rng.integers(1, 8))):
                    bit = int(rng.integers(0, len(data) * 8))
                    data[bit >> 3] ^= 0x80 >> (bit & 7)
            else:
                start = int(rng.integers(0, len(data)))
                data[start : start + 64] = bytes(len(data[start : start + 64]))
            target.write_bytes(bytes(data))
            try:
                load_trace(target)
            except ValueError as exc:
                assert str(target) in str(exc), (index, repr(exc))
                failures += 1
        if suffix != ".wlt2":
            assert failures > self.MUTATIONS // 2
