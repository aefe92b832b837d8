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
alone.

Every step reads the header once and checks it before writing anything:
a bad magic or corrupt status word is a ChannelError, and a status outside
the step's start set raises its refusal error.  A refused step writes nothing.

    step            side     start statuses      moves to   refusal error
    write_request   primary  IDLE, DONE, ERROR   REQUEST    ChannelBusy
    serve           enclave  REQUEST             -          ChannelNoRequest
    complete        enclave  REQUEST             DONE       ChannelError
    complete_error  enclave  REQUEST             ERROR      ChannelError
    mark_preempted  primary  REQUEST             PREEMPTED  ChannelError
    rearm_request   primary  PREEMPTED           REQUEST    ChannelError
    read_response   primary  any                 -          -

All accesses go through the stage-2 table of the vCPU a view belongs to,
so a side that lost its write mapping faults here like anywhere else, and
each status change is traced here as a ``channel`` event by that vCPU.
"""
from __future__ import annotations

import enum
import struct
import zlib
from typing import Tuple

from .errors import ChannelBusy, ChannelError, ChannelNoRequest, ChannelTooLarge
from .hypervisor import Vcpu
from .machine import PAGE_SIZE
from .stage2 import Access, AccessFault, guest_access

CHANNEL_MAGIC = b"BECH"
CHANNEL_HEADER = struct.Struct("<4sIIII")
HEADER_LEN = CHANNEL_HEADER.size  # 20


class ChannelStatus(enum.IntEnum):
    IDLE = 0
    REQUEST = 1
    DONE = 2
    ERROR = 3
    PREEMPTED = 4


_IDLE, _REQUEST, _DONE, _ERROR, _PREEMPTED = ChannelStatus
# step -> (statuses it may start from, error for any other), as tabled above
_STEPS = {
    "write_request": ((_IDLE, _DONE, _ERROR), ChannelBusy),
    "serve": ((_REQUEST,), ChannelNoRequest),
    "complete": ((_REQUEST,), ChannelError),
    "complete_error": ((_REQUEST,), ChannelError),
    "mark_preempted": ((_REQUEST,), ChannelError),
    "rearm_request": ((_PREEMPTED,), ChannelError),
    "read_response": (tuple(ChannelStatus), ChannelError),
}

_STATUS_WORD = struct.Struct("<I")
# header bytes 4-20: status, cmd_id, arg_len, ret_len
_TAIL = struct.Struct("<IIII")
# raw status word -> ChannelStatus; one dict lookup, where calling the enum
# goes through its metaclass and a try/except
_STATUS_OF = {int(st): st for st in ChannelStatus}


class ChannelView:
    """The handle `vcpu` uses on a channel region, mediated by its VM's
    stage-2 table.  `side` is the VM's kind, a label for tracing only."""

    def __init__(self, vcpu: Vcpu, base_ipa: int, size_pages: int):
        self.vcpu = vcpu
        self.table = vcpu.vm.table
        self.machine = self.table.machine
        self.base_ipa = base_ipa
        self.size_pages = size_pages
        self.side = vcpu.vm.kind.value
        # payload bytes the region holds; an attribute, read on every step
        self.capacity = size_pages * PAGE_SIZE - HEADER_LEN

    # -- raw access helpers -------------------------------------------------

    def _read(self, offset: int, length: int) -> bytes:
        out, _ = guest_access(self.machine, self.table, self.base_ipa + offset,
                              Access.READ, length=length, by=self.vcpu)
        if isinstance(out, AccessFault):
            raise ChannelError("channel read fault: %s" % (out.describe(),))
        return out

    def _write(self, offset: int, data: bytes) -> None:
        out, _ = guest_access(self.machine, self.table, self.base_ipa + offset,
                              Access.WRITE, data=data, by=self.vcpu,
                              channel=True)
        if isinstance(out, AccessFault):
            raise ChannelError("channel write fault: %s" % (out.describe(),))

    def read_header(self) -> Tuple[bytes, int, int, int, int]:
        return CHANNEL_HEADER.unpack(self._read(0, HEADER_LEN))

    def status(self) -> int:
        return _STATUS_WORD.unpack(self._read(4, 4))[0]

    def _header(self, step: str) -> Tuple[bytes, ChannelStatus, int, int, int]:
        """The header bytes, status, cmd_id, arg_len and ret_len, read once
        and checked for `step`: magic, a valid status, in its start set."""
        header = self._read(0, HEADER_LEN)
        magic, raw, cmd_id, arg_len, ret_len = CHANNEL_HEADER.unpack(header)
        if magic != CHANNEL_MAGIC:
            raise ChannelError("bad channel magic %r" % magic)
        st = _STATUS_OF.get(raw)
        if st is None:
            raise ChannelError("corrupt channel status %d" % raw)
        start, refusal = _STEPS[step]
        if st not in start:
            raise refusal("%s on channel status %s" % (step, st.name))
        return header, st, cmd_id, arg_len, ret_len

    def _payload(self, length: int, field: str) -> bytes:
        """The `length` payload bytes a header announces in `field`."""
        if length > self.capacity:
            raise ChannelError("%s %d exceeds capacity" % (field, length))
        return self._read(HEADER_LEN, length) if length else b""

    def _publish(self, header: bytes, old: int, new: ChannelStatus,
                 tail: bytes, payload: bytes) -> None:
        """Write `tail` over the header from the status word on, and trace
        the header as it now reads with the CRC of `payload`, the active
        payload.  `header` is the header as it read before the write."""
        self._write(4, tail)
        header = header[:4] + tail + header[4 + len(tail):]
        self.machine.trace.emit("channel", self.vcpu.pcpu, self.vcpu.name, {
            "side": self.side, "old": int(old), "new": int(new),
            "header": header.hex(), "payload_crc32": zlib.crc32(payload)})

    # -- protocol steps -----------------------------------------------------

    def init(self) -> None:
        """Format the region: zero payload, magic header, status IDLE."""
        self._write(0, CHANNEL_HEADER.pack(CHANNEL_MAGIC, ChannelStatus.IDLE,
                                           0, 0, 0))

    def write_request(self, cmd_id: int, args: bytes) -> None:
        if not 0 <= cmd_id <= 0xFFFFFFFF:
            raise ChannelError("cmd_id %d is not a u32" % cmd_id)
        if not isinstance(args, (bytes, bytearray, memoryview)):
            raise ChannelError("payload must be bytes-like, not %s"
                               % type(args).__name__)
        header, st, _, _, _ = self._header("write_request")
        if len(args) > self.capacity:
            raise ChannelTooLarge("args %d > capacity %d"
                                  % (len(args), self.capacity))
        if args:
            self._write(HEADER_LEN, args)
        self._publish(header, st, _REQUEST,
                      _TAIL.pack(_REQUEST, cmd_id, len(args), 0), args)

    def serve(self) -> Tuple[int, bytes]:
        """Enclave side: fetch the pending request."""
        _, _, cmd_id, arg_len, _ = self._header("serve")
        return cmd_id, self._payload(arg_len, "arg_len")

    def complete(self, ret: bytes) -> None:
        """Enclave side: publish a successful reply (payload before status)."""
        self._reply("complete", _DONE, ret)

    def complete_error(self) -> None:
        """Enclave side: publish a failed request's (empty) reply."""
        self._reply("complete_error", _ERROR, b"")

    def _reply(self, step: str, status: ChannelStatus, ret: bytes) -> None:
        if len(ret) > self.capacity:
            raise ChannelTooLarge("ret %d > capacity %d"
                                  % (len(ret), self.capacity))
        header, st, cmd_id, arg_len, _ = self._header(step)
        if ret:
            self._write(HEADER_LEN, ret)
        self._publish(header, st, status,
                      _TAIL.pack(status, cmd_id, arg_len, len(ret)), ret)

    def mark_preempted(self) -> None:
        """Driver side: record that the enclave was interrupted mid-request."""
        header, st, _, _, _ = self._header("mark_preempted")
        self._publish(header, st, _PREEMPTED, _STATUS_WORD.pack(_PREEMPTED),
                      b"")

    def rearm_request(self) -> None:
        """Driver side: flip PREEMPTED back to REQUEST before resuming."""
        header, st, _, arg_len, _ = self._header("rearm_request")
        args = self._payload(arg_len, "arg_len")
        self._publish(header, st, _REQUEST, _STATUS_WORD.pack(_REQUEST), args)

    def read_response(self) -> Tuple[ChannelStatus, bytes]:
        """Driver side: read the current (status, payload).  Any status is
        returned, not raised; the status itself tells the caller what
        happened.  Payload bytes are returned only for DONE and ERROR."""
        _, st, _, _, ret_len = self._header("read_response")
        if st is not _DONE and st is not _ERROR:
            return st, b""
        return st, self._payload(ret_len, "ret_len")
