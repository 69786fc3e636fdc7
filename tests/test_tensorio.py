import struct

import numpy as np
import pytest

from cpdsplit.tensorio import read_mask, read_tensor, write_mask, write_tensor


def test_tensor_round_trip_is_bit_exact(tmp_path):
    path = tmp_path / "t.tns3"
    t = np.array(
        [
            [[0.1 + 0.2, -0.0], [1.0 / 3.0, 5e-324]],
            [[1e308, -1e-308], [0.0, -123456.789]],
        ]
    )
    write_tensor(path, t)
    back = read_tensor(path)
    assert back.shape == t.shape
    assert np.array_equal(back.view(np.uint64), t.view(np.uint64))


def test_tensor_round_trip_random(tmp_path):
    path = tmp_path / "t.tns3"
    t = np.random.default_rng(0).standard_normal((5, 7, 3))
    write_tensor(path, t)
    assert np.array_equal(read_tensor(path), t)


def test_tensor_write_rejects_bad_arrays(tmp_path):
    path = tmp_path / "t.tns3"
    with pytest.raises(ValueError):
        write_tensor(path, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        write_tensor(path, np.zeros((2, 2, 2), dtype=np.float32))
    bad = np.zeros((2, 2, 2))
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        write_tensor(path, bad)


def test_tensor_read_rejects_corrupted_files(tmp_path):
    path = tmp_path / "t.tns3"
    t = np.ones((2, 3, 2))
    write_tensor(path, t)
    raw = path.read_bytes()

    (tmp_path / "magic.tns3").write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ValueError, match="magic"):
        read_tensor(tmp_path / "magic.tns3")

    (tmp_path / "ver.tns3").write_bytes(raw[:4] + b"\x02" + raw[5:])
    with pytest.raises(ValueError, match="version"):
        read_tensor(tmp_path / "ver.tns3")

    (tmp_path / "trunc.tns3").write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="size"):
        read_tensor(tmp_path / "trunc.tns3")

    (tmp_path / "trail.tns3").write_bytes(raw + b"\x00")
    with pytest.raises(ValueError, match="size"):
        read_tensor(tmp_path / "trail.tns3")

    (tmp_path / "short.tns3").write_bytes(raw[:10])
    with pytest.raises(ValueError, match="truncated"):
        read_tensor(tmp_path / "short.tns3")

    # N2, the header's second uint64 after the 5-byte magic and version, set to 0
    (tmp_path / "zero.tns3").write_bytes(raw[:13] + struct.pack("<Q", 0) + raw[21:])
    with pytest.raises(ValueError, match="non-positive dimension in header"):
        read_tensor(tmp_path / "zero.tns3")

def test_tensor_read_rejects_nonfinite_payload(tmp_path):
    path = tmp_path / "t.tns3"
    write_tensor(path, np.ones((1, 1, 1)))
    raw = path.read_bytes()
    nan_path = tmp_path / "nan.tns3"
    nan_path.write_bytes(raw[:-8] + struct.pack("<d", float("nan")))
    with pytest.raises(ValueError, match="non-finite"):
        read_tensor(nan_path)


def test_mask_round_trip(tmp_path):
    path = tmp_path / "m.msk3"
    mask = np.random.default_rng(1).random((4, 2, 5)) < 0.5
    write_mask(path, mask)
    back = read_mask(path)
    assert back.dtype == np.bool_
    assert np.array_equal(back, mask)


def test_mask_rejects_bad_inputs_and_bytes(tmp_path):
    path = tmp_path / "m.msk3"
    mask = np.ones((2, 2, 2), dtype=bool)
    with pytest.raises(ValueError):
        write_mask(path, mask.astype(np.uint8))
    with pytest.raises(ValueError):
        write_mask(path, mask[0])

    write_mask(path, mask)
    raw = path.read_bytes()
    bad = tmp_path / "bad.msk3"
    for byte in (b"\x02", b"\xff"):
        bad.write_bytes(raw[:-1] + byte)
        with pytest.raises(ValueError, match="mask byte"):
            read_mask(bad)


def test_formats_are_not_interchangeable(tmp_path):
    tpath = tmp_path / "t.tns3"
    mpath = tmp_path / "m.msk3"
    write_tensor(tpath, np.ones((2, 2, 2)))
    write_mask(mpath, np.ones((2, 2, 2), dtype=bool))
    with pytest.raises(ValueError, match="magic"):
        read_mask(tpath)
    with pytest.raises(ValueError, match="magic"):
        read_tensor(mpath)
