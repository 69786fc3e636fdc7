import os
import re
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from cpdsplit.tensor import FactorSet
from cpdsplit.tensorio import (
    read_factors,
    read_mask,
    read_tensor,
    write_factors,
    write_mask,
    write_tensor,
)


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

def test_a_file_that_shrinks_after_its_size_check_is_truncated(tmp_path, monkeypatch):
    # the size check passes on the full size fstat reports; the short read
    # of the payload is then refused
    path = tmp_path / "t.tns3"
    write_tensor(path, np.ones((2, 3, 2)))
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=len(raw)))
    with pytest.raises(ValueError, match="truncated while reading$"):
        read_tensor(path)


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


def test_factor_archive_round_trip_is_bit_exact(tmp_path):
    path = tmp_path / "truth.npz"
    factors = FactorSet(tuple(np.random.default_rng(0).standard_normal((n, 3))
                              for n in (5, 4, 6)))
    factors.factors[0][:2, 0] = (-0.0, 5e-324)
    write_factors(path, factors)
    with np.load(path) as data:
        assert data.files == ["f1", "f2", "f3"]
    back = read_factors(path)
    assert isinstance(back, FactorSet)
    for got, want in zip(back.factors, factors.factors):
        assert got.dtype == np.float64 and got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_factor_archive_reader_refuses_what_is_not_one(tmp_path):
    f1, f2 = np.ones((4, 2)), np.ones((3, 2))
    np.savez(tmp_path / "bad.npz", f1=f1, f2=f2)
    np.save(tmp_path / "t.npy", f1)  # one array, not an archive
    for name, why in (("bad.npz", " lacks the arrays f3"),
                      ("t.npy", " is not an .npz archive of f1, f2, f3")):
        with pytest.raises(ValueError, match="^%s$" % re.escape(str(tmp_path / name) + why)):
            read_factors(tmp_path / name)


def test_factor_archive_reader_names_the_file_of_a_factor_that_is_not_real(tmp_path):
    f = np.ones((4, 2))
    for bad in (f + 1j * f, f.astype(str)):
        path = tmp_path / ("%s.npz" % bad.dtype.kind)
        np.savez(path, f1=f, f2=f, f3=bad)
        why = ": factor 3 must hold real numbers, got dtype %s" % bad.dtype
        with pytest.raises(ValueError, match="^%s$" % re.escape(str(path) + why)):
            read_factors(path)
