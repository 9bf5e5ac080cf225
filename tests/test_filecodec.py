"""Unit tests for the file-level encoder/decoder."""

import json
import os

import pytest

from repro.codes import LRCCode, RSCode, SDCode
from repro.core import PPMDecoder, TraditionalDecoder
from repro.filecodec import FileCodecMeta, decode_file, encode_file, repair_files


@pytest.fixture
def payload(tmp_path):
    path = tmp_path / "data.bin"
    # non-multiple-of-stripe size exercises the tail padding
    content = bytes((i * 37 + 11) % 256 for i in range(50_000)) + b"tail"
    path.write_bytes(content)
    return path, content


def encode(payload, tmp_path, code, sector_bytes=512):
    path, _ = payload
    out = tmp_path / "enc"
    meta = encode_file(str(path), code, str(out), sector_bytes=sector_bytes)
    return out, meta


def test_encode_layout(payload, tmp_path):
    code = SDCode(6, 4, 2, 2)
    out, meta = encode(payload, tmp_path, code)
    files = sorted(os.listdir(out))
    assert files == [f"data_disk{j:03d}.dat" for j in range(6)] + ["data_meta.json"]
    expected_strip = meta.num_stripes * code.r * meta.sector_bytes
    for j in range(6):
        assert os.path.getsize(out / f"data_disk{j:03d}.dat") == expected_strip


def test_meta_roundtrip(payload, tmp_path):
    code = SDCode(6, 4, 2, 2)
    out, meta = encode(payload, tmp_path, code)
    parsed = FileCodecMeta.from_json((out / "data_meta.json").read_text())
    assert parsed == meta
    rebuilt = parsed.build_code()
    assert rebuilt.describe() == code.describe()


def test_meta_rejects_foreign_json():
    with pytest.raises(ValueError):
        FileCodecMeta.from_json(json.dumps({"format": "something-else"}))


def test_decode_intact(payload, tmp_path):
    _, content = payload
    out, _ = encode(payload, tmp_path, SDCode(6, 4, 2, 2))
    restored = tmp_path / "restored.bin"
    decode_file(str(out / "data_meta.json"), str(restored))
    assert restored.read_bytes() == content


def test_decode_after_disk_losses(payload, tmp_path):
    _, content = payload
    code = SDCode(6, 4, 2, 2)
    out, _ = encode(payload, tmp_path, code)
    os.remove(out / "data_disk002.dat")
    os.remove(out / "data_disk005.dat")
    restored = tmp_path / "restored.bin"
    decode_file(str(out / "data_meta.json"), str(restored))
    assert restored.read_bytes() == content


def test_decode_with_all_decoders(payload, tmp_path):
    _, content = payload
    out, _ = encode(payload, tmp_path, SDCode(6, 4, 2, 2))
    os.remove(out / "data_disk001.dat")
    for decoder in (TraditionalDecoder(), PPMDecoder(threads=2)):
        restored = tmp_path / f"r_{type(decoder).__name__}.bin"
        decode_file(str(out / "data_meta.json"), str(restored), decoder=decoder)
        assert restored.read_bytes() == content


def test_repair_files(payload, tmp_path):
    out, _ = encode(payload, tmp_path, SDCode(6, 4, 2, 2))
    original = (out / "data_disk003.dat").read_bytes()
    os.remove(out / "data_disk003.dat")
    repaired = repair_files(str(out / "data_meta.json"))
    assert repaired == [3]
    assert (out / "data_disk003.dat").read_bytes() == original
    assert repair_files(str(out / "data_meta.json")) == []


def test_too_many_losses_fail(payload, tmp_path):
    from repro.matrix import SingularMatrixError

    out, _ = encode(payload, tmp_path, SDCode(6, 4, 2, 2))
    for j in (0, 1, 2):
        os.remove(out / f"data_disk{j:03d}.dat")
    with pytest.raises(SingularMatrixError):
        decode_file(str(out / "data_meta.json"), str(tmp_path / "x.bin"))


def test_truncated_strip_detected(payload, tmp_path):
    out, _ = encode(payload, tmp_path, SDCode(6, 4, 2, 2))
    strip = out / "data_disk000.dat"
    strip.write_bytes(strip.read_bytes()[:-7])
    with pytest.raises(ValueError, match="expected"):
        decode_file(str(out / "data_meta.json"), str(tmp_path / "x.bin"))


@pytest.mark.parametrize(
    "code",
    [LRCCode(8, 2, 2), RSCode(6, 4, r=2), SDCode(5, 2, 1, 1, w=16)],
    ids=lambda c: c.kind + str(c.field.w),
)
def test_other_codes_roundtrip(payload, tmp_path, code):
    _, content = payload
    out, _ = encode(payload, tmp_path, code, sector_bytes=512)
    os.remove(out / "data_disk000.dat")
    restored = tmp_path / "restored.bin"
    decode_file(str(out / "data_meta.json"), str(restored))
    assert restored.read_bytes() == content


def test_sector_bytes_word_multiple():
    code = SDCode(5, 2, 1, 1, w=16)
    with pytest.raises(ValueError):
        encode_file(__file__, code, "/tmp/unused-dir", sector_bytes=1001)


def test_cli_roundtrip(payload, tmp_path, capsys):
    from repro.cli import main

    path, content = payload
    out = tmp_path / "cli_enc"
    rc = main(
        [
            "encode-file", str(path), "sd", "n=6", "r=4", "m=2", "s=2",
            "--out", str(out), "--sector-bytes", "512",
        ]
    )
    assert rc == 0
    os.remove(out / "data_disk004.dat")
    restored = tmp_path / "cli_restored.bin"
    assert main(["decode-file", str(out / "data_meta.json"), "--out", str(restored)]) == 0
    assert restored.read_bytes() == content
    assert main(["repair-files", str(out / "data_meta.json")]) == 0
    assert (out / "data_disk004.dat").exists()
    capsys.readouterr()
