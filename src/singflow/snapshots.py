"""Binary snapshot files (magic "SGF1"): bit-exact field storage.

Layout, all little-endian:

    bytes 0-3   magic "SGF1"
    u32         format version (currently 1)
    u32 x 3     nodes per axis
    f64         domain length L
    f64         alpha
    f64         snapshot time t
    u32         field count
    per field:  u32 name length, then that many UTF-8 bytes
    payload:    field count arrays of n1*n2*n3 f64 values, row-major,
                in the order of the name table

Round-tripping a file reproduces it byte for byte.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"SGF1"
FORMAT_VERSION = 1


class SnapshotFormatError(RuntimeError):
    pass


@dataclass
class Snapshot:
    n: tuple[int, int, int]
    length: float
    alpha: float
    t: float
    fields: dict[str, np.ndarray]  # name -> (n1, n2, n3) float64 array


def write_snapshot(path: str, snap: Snapshot) -> None:
    n1, n2, n3 = snap.n
    names = list(snap.fields.keys())
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<III", n1, n2, n3))
        fh.write(struct.pack("<ddd", snap.length, snap.alpha, snap.t))
        fh.write(struct.pack("<I", len(names)))
        for name in names:
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
        for name in names:
            arr = np.ascontiguousarray(snap.fields[name], dtype="<f8")
            if arr.shape != (n1, n2, n3):
                raise SnapshotFormatError(
                    f"field {name!r} has shape {arr.shape}, expected {(n1, n2, n3)}"
                )
            fh.write(arr.tobytes(order="C"))


def read_snapshot(path: str) -> Snapshot:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != MAGIC:
        raise SnapshotFormatError(f"{path}: bad magic {data[:4]!r}")
    try:
        version, n1, n2, n3 = struct.unpack_from("<IIII", data, 4)
        if version != FORMAT_VERSION:
            raise SnapshotFormatError(f"{path}: unsupported format version {version}")
        length, alpha, t = struct.unpack_from("<ddd", data, 20)
        (count,) = struct.unpack_from("<I", data, 44)
        off = 48
        names = []
        for _ in range(count):
            (nlen,) = struct.unpack_from("<I", data, off)
            off += 4
            names.append(data[off : off + nlen].decode("utf-8"))
            off += nlen
    except (struct.error, UnicodeDecodeError) as exc:
        raise SnapshotFormatError(f"{path}: truncated or corrupt header ({exc})") from exc
    per_field = n1 * n2 * n3 * 8
    expected = off + count * per_field
    if len(data) != expected:
        raise SnapshotFormatError(
            f"{path}: payload length {len(data) - off} != field count * n^3 * 8 "
            f"= {count * per_field}"
        )
    fields = {}
    for name in names:
        arr = np.frombuffer(data, dtype="<f8", count=n1 * n2 * n3, offset=off)
        fields[name] = arr.reshape(n1, n2, n3).copy()
        off += per_field
    return Snapshot(n=(n1, n2, n3), length=length, alpha=alpha, t=t, fields=fields)
