"""File formats for third-order tensors, sampling masks and CP factors.

The tensor and mask formats are self-describing and little-endian:

* tensor: magic ``TNS3``, one version byte (1), three uint64 dims,
  then N1*N2*N3 IEEE-754 doubles in C order (last index fastest);
* mask:   magic ``MSK3``, one version byte (1), three uint64 dims,
  then one byte per entry (0 or 1) in the same order.

A factor archive is numpy's ``.npz`` with the arrays ``f1``, ``f2``, ``f3``,
the N_d x R factor of each mode.  Round trips are bit-exact.
"""

import os
import struct

import numpy as np

from .tensor import FactorSet

_TENSOR_MAGIC = b"TNS3"
_MASK_MAGIC = b"MSK3"
_VERSION = 1
_FACTOR_KEYS = ("f1", "f2", "f3")
_HEADER = struct.Struct("<4sB3Q")


def _unpack_header(buf, magic, path):
    if len(buf) < _HEADER.size:
        raise ValueError("%s: truncated header" % path)
    got_magic, version, n1, n2, n3 = _HEADER.unpack_from(buf)
    if got_magic != magic:
        raise ValueError(
            "%s: bad magic %r, expected %r" % (path, got_magic, magic)
        )
    if version != _VERSION:
        raise ValueError("%s: unsupported version %d" % (path, version))
    dims = (n1, n2, n3)
    if any(n < 1 for n in dims):
        raise ValueError("%s: non-positive dimension in header" % path)
    return dims


def _write_payload(path, magic, name, a, dtype):
    """Write the 3-D array ``a`` as a TNS3/MSK3 file: the header, then its
    entries as ``dtype`` in C order."""
    if a.ndim != 3:
        raise ValueError("%s must be 3-D, got ndim=%d" % (name, a.ndim))
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(magic, _VERSION, *a.shape))
        fh.write(np.ascontiguousarray(a, dtype=dtype).tobytes())


def write_tensor(path, t):
    """Write a float64 third-order tensor to ``path`` in the TNS3 format."""
    t = np.asarray(t)
    if t.dtype != np.float64:
        raise ValueError("tensor must be float64, got %s" % t.dtype)
    if not np.isfinite(t).all():
        raise ValueError("tensor contains non-finite values")
    _write_payload(path, _TENSOR_MAGIC, "tensor", t, "<f8")


def _read_payload(path, magic, dtype):
    """The payload of a TNS3/MSK3 file, read straight into a new array once
    the header and the file size agree."""
    with open(path, "rb") as fh:
        dims = _unpack_header(fh.read(_HEADER.size), magic, path)
        nbytes = dims[0] * dims[1] * dims[2] * np.dtype(dtype).itemsize
        size = os.fstat(fh.fileno()).st_size
        if size != _HEADER.size + nbytes:
            raise ValueError(
                "%s: size %d does not match header (expected %d bytes)"
                % (path, size, _HEADER.size + nbytes)
            )
        out = np.empty(dims, dtype=dtype)
        if fh.readinto(out.reshape(-1).view(np.uint8)) != nbytes:
            raise ValueError("%s: truncated while reading" % path)
    return out


def read_tensor(path):
    """Read a TNS3 file; returns a C-contiguous float64 array."""
    t = _read_payload(path, _TENSOR_MAGIC, "<f8").astype(np.float64, copy=False)
    if not np.isfinite(t).all():
        raise ValueError("%s: tensor contains non-finite values" % path)
    return t


def write_mask(path, mask):
    """Write a boolean mask to ``path`` in the MSK3 format."""
    mask = np.asarray(mask)
    if mask.dtype != np.bool_:
        raise ValueError("mask must be boolean, got %s" % mask.dtype)
    _write_payload(path, _MASK_MAGIC, "mask", mask, np.uint8)


def read_mask(path):
    """Read an MSK3 file; returns a C-contiguous boolean array."""
    m = _read_payload(path, _MASK_MAGIC, np.uint8)
    if (m > 1).any():
        raise ValueError("%s: mask byte out of {0, 1}" % path)
    return m.view(np.bool_)


def write_factors(path, factors):
    """Write a FactorSet, or three factor matrices, as a factor archive."""
    np.savez(path, **dict(zip(_FACTOR_KEYS, FactorSet(factors).factors)))


def read_factors(path):
    """The FactorSet of a factor archive; a non-archive or a missing array is refused."""
    data = np.load(path)
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ValueError("%s is not an .npz archive of %s" % (path, ", ".join(_FACTOR_KEYS)))
    with data:
        missing = [k for k in _FACTOR_KEYS if k not in data]
        if missing:
            raise ValueError("%s lacks the arrays %s" % (path, ", ".join(missing)))
        try:
            return FactorSet(tuple(data[k] for k in _FACTOR_KEYS))
        except ValueError as exc:
            raise ValueError("%s: %s" % (path, exc)) from None
