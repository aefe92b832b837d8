"""Enclave image container format.

An image is a small binary describing one enclave: how many private memory
pages it wants, how many shared channel pages, which command ids its entry
table exposes, and an opaque code blob.  The command table is stored as the
leading little-endian u32s of the blob itself; the header records only its
byte length.

Header layout (little-endian, 22 bytes):

    offset  size  field
    0       4     magic b"BEIM"
    4       2     version (currently 1)
    6       4     mem_size_pages
    10      4     channel_size_pages
    14      4     entry_cmd_table_len (bytes, multiple of 4)
    18      4     code_blob_len

The code blob follows immediately; total file size is 22 + code_blob_len.
"""
from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Tuple

from .errors import ImageFormatError
from .machine import PAGE_SIZE

MAGIC = b"BEIM"
VERSION = 1
HEADER = struct.Struct("<4sHIIII")
HEADER_LEN = HEADER.size  # 22
BLOB_MIN_LEN = PAGE_SIZE + 64  # so every built-in blob takes two code pages


@dataclass(frozen=True)
class EnclaveImage:
    mem_size_pages: int
    channel_size_pages: int
    cmd_ids: Tuple[int, ...]
    code_blob: bytes

    @property
    def code_pages(self) -> int:
        return (len(self.code_blob) + PAGE_SIZE - 1) // PAGE_SIZE

    def pack(self) -> bytes:
        table = struct.pack("<%dI" % len(self.cmd_ids), *self.cmd_ids)
        if not self.code_blob.startswith(table):
            raise ImageFormatError("code blob does not begin with command table")
        header = HEADER.pack(MAGIC, VERSION, self.mem_size_pages,
                             self.channel_size_pages, len(table),
                             len(self.code_blob))
        return header + self.code_blob

    @classmethod
    def parse(cls, data: bytes) -> "EnclaveImage":
        if len(data) < HEADER_LEN:
            raise ImageFormatError("truncated header: %d bytes" % len(data))
        magic, version, mem_pages, chan_pages, table_len, blob_len = \
            HEADER.unpack_from(data, 0)
        if magic != MAGIC:
            raise ImageFormatError("bad magic %r" % magic)
        if version != VERSION:
            raise ImageFormatError("unsupported version %d" % version)
        if len(data) != HEADER_LEN + blob_len:
            raise ImageFormatError(
                "length mismatch: file %d, header implies %d"
                % (len(data), HEADER_LEN + blob_len))
        if table_len % 4 != 0:
            raise ImageFormatError("command table length %d not a multiple of 4"
                                   % table_len)
        if table_len > blob_len:
            raise ImageFormatError("command table larger than code blob")
        if mem_pages < 1:
            raise ImageFormatError("mem_size_pages must be >= 1")
        if chan_pages < 1:
            raise ImageFormatError("channel_size_pages must be >= 1")
        blob = data[HEADER_LEN:]
        cmd_ids = struct.unpack("<%dI" % (table_len // 4), blob[:table_len])
        if len(set(cmd_ids)) != len(cmd_ids):
            raise ImageFormatError("duplicate command id in entry table")
        code_pages = (blob_len + PAGE_SIZE - 1) // PAGE_SIZE
        if code_pages > mem_pages:
            raise ImageFormatError(
                "code blob (%d pages) exceeds mem_size_pages (%d)"
                % (code_pages, mem_pages))
        return cls(mem_pages, chan_pages, cmd_ids, blob)


def make_blob(name: str, cmd_ids: Tuple[int, ...]) -> bytes:
    """Deterministic synthetic code blob: command table, a marker string,
    then name-derived filler padding out to at least BLOB_MIN_LEN bytes."""
    table = struct.pack("<%dI" % len(cmd_ids), *cmd_ids)
    marker = b"TA!" + name.encode("ascii") + b"\n"
    body = table + marker
    if len(body) < BLOB_MIN_LEN:
        pad = BLOB_MIN_LEN - len(body)
        seed = hashlib.sha256(b"blob:" + name.encode("ascii")).digest()
        filler = (seed * (pad // len(seed) + 1))[:pad]
        body += filler
    return body


def build_image(name: str, mem_size_pages: int, cmd_ids: Tuple[int, ...],
                channel_size_pages: int = 1) -> EnclaveImage:
    blob = make_blob(name, cmd_ids)
    img = EnclaveImage(mem_size_pages, channel_size_pages, tuple(cmd_ids), blob)
    # round-trip through the wire format so a built image is always valid
    return EnclaveImage.parse(img.pack())
