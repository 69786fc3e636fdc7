"""Binary file formats for third-order tensors and sampling masks.

Both formats are self-describing and little-endian:

* tensor: magic ``TNS3``, one version byte (1), three uint64 dims,
  then N1*N2*N3 IEEE-754 doubles in C order (last index fastest);
* mask:   magic ``MSK3``, one version byte (1), three uint64 dims,
  then one byte per entry (0 or 1) in the same order.

Round trips are bit-exact.
"""

import os
import struct

import numpy as np

_TENSOR_MAGIC = b"TNS3"
_MASK_MAGIC = b"MSK3"
_VERSION = 1
_HEADER = struct.Struct("<4sB3Q")


def _pack_header(magic, dims):
    return _HEADER.pack(magic, _VERSION, *dims)


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


def write_tensor(path, t):
    """Write a float64 third-order tensor to ``path`` in the TNS3 format."""
    t = np.asarray(t)
    if t.ndim != 3:
        raise ValueError("tensor must be 3-D, got ndim=%d" % t.ndim)
    if t.dtype != np.float64:
        raise ValueError("tensor must be float64, got %s" % t.dtype)
    if not np.isfinite(t).all():
        raise ValueError("tensor contains non-finite values")
    data = np.ascontiguousarray(t, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(_pack_header(_TENSOR_MAGIC, t.shape))
        fh.write(data.tobytes())


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
    if mask.ndim != 3:
        raise ValueError("mask must be 3-D, got ndim=%d" % mask.ndim)
    if mask.dtype != np.bool_:
        raise ValueError("mask must be boolean, got %s" % mask.dtype)
    data = np.ascontiguousarray(mask).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(_pack_header(_MASK_MAGIC, mask.shape))
        fh.write(data.tobytes())


def read_mask(path):
    """Read an MSK3 file; returns a C-contiguous boolean array."""
    m = _read_payload(path, _MASK_MAGIC, np.uint8)
    if (m > 1).any():
        raise ValueError("%s: mask byte out of {0, 1}" % path)
    return m.view(np.bool_)
