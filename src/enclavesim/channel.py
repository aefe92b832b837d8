"""Shared-memory command channel between the primary OS and an enclave.

The channel lives in pages mapped rw into both VMs.  Its layout is a fixed
20-byte header followed by a payload area:

    offset  size  field
    0       4     magic b"BECH"
    4       4     status (u32, ChannelStatus)
    8       4     cmd_id
    12      4     arg_len
    16      4     ret_len
    20      ...   payload (request args, later overwritten by the reply)

Both sides poll; there are no interrupt doorbells.  Memory ordering is
modeled by publishing last: a request or a reply writes its payload, then
header bytes 4-20 (status, cmd_id, arg_len, ret_len) in one write, so a
reader that observes REQUEST or DONE is guaranteed to see the matching
payload and lengths.  Preempting and re-arming rewrite the status word
alone.  Each step reads the header once and checks its transition before
it writes anything, so a refused step leaves the channel untouched.  Legal
status transitions:

    IDLE -> REQUEST
    REQUEST -> DONE | ERROR | PREEMPTED
    PREEMPTED -> REQUEST          (driver re-arms after resuming the enclave)
    DONE -> REQUEST
    ERROR -> REQUEST

All accesses go through a stage-2 table, so a side that lost its write
mapping faults here like anywhere else.
"""
from __future__ import annotations

import enum
import struct
from typing import Tuple

from .errors import ChannelBusy, ChannelError, ChannelNoRequest, ChannelTooLarge
from .machine import PAGE_SIZE, PhysicalMachine
from .stage2 import Access, AccessFault, Stage2Table, guest_access

CHANNEL_MAGIC = b"BECH"
CHANNEL_HEADER = struct.Struct("<4sIIII")
HEADER_LEN = CHANNEL_HEADER.size  # 20


class ChannelStatus(enum.IntEnum):
    IDLE = 0
    REQUEST = 1
    DONE = 2
    ERROR = 3
    PREEMPTED = 4


LEGAL_TRANSITIONS = {
    (ChannelStatus.IDLE, ChannelStatus.REQUEST),
    (ChannelStatus.REQUEST, ChannelStatus.DONE),
    (ChannelStatus.REQUEST, ChannelStatus.ERROR),
    (ChannelStatus.REQUEST, ChannelStatus.PREEMPTED),
    (ChannelStatus.PREEMPTED, ChannelStatus.REQUEST),
    (ChannelStatus.DONE, ChannelStatus.REQUEST),
    (ChannelStatus.ERROR, ChannelStatus.REQUEST),
}

_STATUS_WORD = struct.Struct("<I")
# header bytes 4-20: status, cmd_id, arg_len, ret_len
_TAIL = struct.Struct("<IIII")
# raw status word -> ChannelStatus; one dict lookup, where calling the enum
# goes through its metaclass and a try/except
_STATUS_OF = {int(st): st for st in ChannelStatus}


class ChannelView:
    """One side's handle on a channel region, mediated by that side's
    stage-2 table.  `side` is a label for tracing only."""

    def __init__(self, machine: PhysicalMachine, table: Stage2Table,
                 base_ipa: int, size_pages: int, side: str):
        self.machine = machine
        self.table = table
        self.base_ipa = base_ipa
        self.size_pages = size_pages
        self.side = side

    @property
    def capacity(self) -> int:
        return self.size_pages * PAGE_SIZE - HEADER_LEN

    # -- raw access helpers -------------------------------------------------

    def _read(self, offset: int, length: int) -> bytes:
        out, _ = guest_access(self.machine, self.table, self.base_ipa + offset,
                              Access.READ, length=length)
        if isinstance(out, AccessFault):
            raise ChannelError("channel read fault: %s" % (out.describe(),))
        return out

    def _write(self, offset: int, data: bytes) -> None:
        self.machine.channel_op_depth += 1
        try:
            out, _ = guest_access(self.machine, self.table,
                                  self.base_ipa + offset, Access.WRITE,
                                  data=data)
        finally:
            self.machine.channel_op_depth -= 1
        if isinstance(out, AccessFault):
            raise ChannelError("channel write fault: %s" % (out.describe(),))

    def read_header(self) -> Tuple[bytes, int, int, int, int]:
        return CHANNEL_HEADER.unpack(self._read(0, HEADER_LEN))

    def status(self) -> int:
        return _STATUS_WORD.unpack(self._read(4, 4))[0]

    def _transition(self, old_raw: int, new: ChannelStatus) -> ChannelStatus:
        """The status `old_raw` decodes to, if moving it to `new` is legal."""
        old = _STATUS_OF.get(old_raw)
        if old is None:
            raise ChannelError("corrupt channel status %d" % old_raw)
        if (old, new) not in LEGAL_TRANSITIONS:
            raise ChannelError("illegal channel transition %s -> %s"
                               % (old.name, new.name))
        return old

    def _publish(self, header: bytes, old: int, new: ChannelStatus,
                 tail: bytes, payload: bytes) -> None:
        """Write `tail` over the header from the status word on, and show
        the observers the header as it now reads, with the active payload.
        `header` is the header as it read before the write."""
        self._write(4, tail)
        header = header[:4] + tail + header[4 + len(tail):]
        for obs in self.machine.observers:
            obs.on_channel(self.side, int(old), int(new), header, payload)

    def _set_status(self, new: ChannelStatus) -> None:
        """Move the status word alone to `new`, reading the active payload
        for the observers before anything is written."""
        header = self._read(0, HEADER_LEN)
        _, old_raw, _, arg_len, ret_len = CHANNEL_HEADER.unpack(header)
        old = self._transition(old_raw, new)
        if new is ChannelStatus.REQUEST:
            active = min(arg_len, self.capacity)
        elif new in (ChannelStatus.DONE, ChannelStatus.ERROR):
            active = min(ret_len, self.capacity)
        else:
            active = 0
        payload = self._read(HEADER_LEN, active) if active else b""
        self._publish(header, old, new, _STATUS_WORD.pack(new), payload)

    # -- protocol steps -----------------------------------------------------

    def init(self) -> None:
        """Format the region: zero payload, magic header, status IDLE."""
        self._write(0, CHANNEL_HEADER.pack(CHANNEL_MAGIC, ChannelStatus.IDLE,
                                           0, 0, 0))

    def write_request(self, cmd_id: int, args: bytes) -> None:
        header = self._read(0, HEADER_LEN)
        st = _STATUS_WORD.unpack_from(header, 4)[0]
        if st not in (ChannelStatus.IDLE, ChannelStatus.DONE,
                      ChannelStatus.ERROR):
            raise ChannelBusy("channel status %d, cannot submit" % st)
        if len(args) > self.capacity:
            raise ChannelTooLarge("args %d > capacity %d"
                                  % (len(args), self.capacity))
        if args:
            self._write(HEADER_LEN, args)
        self._publish(header, st, ChannelStatus.REQUEST,
                      _TAIL.pack(ChannelStatus.REQUEST, cmd_id, len(args), 0),
                      args)

    def serve(self) -> Tuple[int, bytes]:
        """Enclave side: fetch the pending request."""
        magic, st, cmd_id, arg_len, _ = self.read_header()
        if magic != CHANNEL_MAGIC:
            raise ChannelError("bad channel magic %r" % magic)
        if st != ChannelStatus.REQUEST:
            raise ChannelNoRequest("channel status %d, nothing to serve" % st)
        if arg_len > self.capacity:
            raise ChannelError("arg_len %d exceeds capacity" % arg_len)
        args = self._read(HEADER_LEN, arg_len) if arg_len else b""
        return cmd_id, args

    def complete(self, ret: bytes) -> None:
        """Enclave side: publish a successful reply (payload before status)."""
        self._reply(ChannelStatus.DONE, ret)

    def complete_error(self) -> None:
        """Enclave side: publish a failed request's (empty) reply."""
        self._reply(ChannelStatus.ERROR, b"")

    def _reply(self, status: ChannelStatus, ret: bytes) -> None:
        if len(ret) > self.capacity:
            raise ChannelTooLarge("ret %d > capacity %d"
                                  % (len(ret), self.capacity))
        header = self._read(0, HEADER_LEN)
        _, old_raw, cmd_id, arg_len, _ = CHANNEL_HEADER.unpack(header)
        old = self._transition(old_raw, status)
        if ret:
            self._write(HEADER_LEN, ret)
        self._publish(header, old, status,
                      _TAIL.pack(status, cmd_id, arg_len, len(ret)), ret)

    def mark_preempted(self) -> None:
        """Driver side: record that the enclave was interrupted mid-request."""
        self._set_status(ChannelStatus.PREEMPTED)

    def rearm_request(self) -> None:
        """Driver side: flip PREEMPTED back to REQUEST before resuming."""
        self._set_status(ChannelStatus.REQUEST)

    def read_response(self) -> Tuple[ChannelStatus, bytes]:
        """Driver side: read the current (status, payload).  Pure read, never
        raises on state; the status itself tells the caller what happened.
        Payload bytes are returned only for DONE and ERROR."""
        magic, st_raw, _, _, ret_len = self.read_header()
        if magic != CHANNEL_MAGIC:
            raise ChannelError("bad channel magic %r" % magic)
        st = _STATUS_OF.get(st_raw)
        if st is None:
            raise ChannelError("corrupt channel status %d" % st_raw)
        if st not in (ChannelStatus.DONE, ChannelStatus.ERROR):
            return st, b""
        if ret_len > self.capacity:
            raise ChannelError("ret_len %d exceeds capacity" % ret_len)
        ret = self._read(HEADER_LEN, ret_len) if ret_len else b""
        return st, ret
