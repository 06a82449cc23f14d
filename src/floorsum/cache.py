"""Binary on-disk cache for sieved tables.

File layout: five little-endian uint64 header words (kind code, order k,
lo, hi, format version) followed by hi - lo little-endian int64 entries.
The cache directory comes from the FLOORSUM_CACHE environment variable
unless one is passed explicitly; with neither, every call refuses.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .errors import FloorsumError
from .sieve import ArithmeticTable, Kind, sieve_table

FORMAT_VERSION = 1
_HEADER = struct.Struct("<5Q")
_KIND_CODES = {"lambda": 0, "mu": 1, "tau": 2}
_CODE_KINDS = {v: k for k, v in _KIND_CODES.items()}


def table_path(kind: Kind, lo: int, hi: int, directory: str | os.PathLike | None = None) -> Path:
    if directory is None:
        directory = os.environ.get("FLOORSUM_CACHE")
        if not directory:
            raise FloorsumError("no cache directory: set FLOORSUM_CACHE or pass one")
    return Path(directory) / f"{kind.label}_{lo}_{hi}.tbl"


def save_table(table: ArithmeticTable, directory=None) -> Path:
    path = table_path(table.kind, table.lo, table.hi, directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = _HEADER.pack(
        _KIND_CODES[table.kind.name],
        table.kind.k or 0,
        table.lo,
        table.hi,
        FORMAT_VERSION,
    )
    payload = np.ascontiguousarray(table.values, dtype="<i8").tobytes()
    tmp = path.with_suffix(".tmp")
    tmp.write_bytes(header + payload)
    tmp.replace(path)
    return path


def load_table(kind: Kind, lo: int, hi: int, directory=None) -> ArithmeticTable | None:
    """Read a cached table back, or None when the file does not exist."""
    path = table_path(kind, lo, hi, directory)
    if not path.exists():
        return None
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        raise FloorsumError(f"cache file {path} truncated")
    code, k, f_lo, f_hi, version = _HEADER.unpack_from(raw)
    if version != FORMAT_VERSION:
        raise FloorsumError(f"cache file {path} has format version {version}")
    if (_CODE_KINDS.get(code), k or None, f_lo, f_hi) != (kind.name, kind.k, lo, hi):
        raise FloorsumError(f"cache file {path} header does not match request")
    values = np.frombuffer(raw, dtype="<i8", offset=_HEADER.size)
    if len(values) != hi - lo:
        raise FloorsumError(f"cache file {path} has wrong entry count")
    return ArithmeticTable(kind, lo, hi, values.astype(np.int64))


def sieve_table_cached(kind: Kind, lo: int, hi: int, directory=None, **kwargs) -> ArithmeticTable:
    """Load from the cache when possible, otherwise sieve and store. With
    no cache directory, load_table raises before anything is sieved."""
    table = load_table(kind, lo, hi, directory)
    if table is not None:
        return table
    table = sieve_table(kind, lo, hi, **kwargs)
    save_table(table, directory)
    return table
