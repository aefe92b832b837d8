"""Per-VM stage-2 translation tables.

A table is a single-level page-granular map from guest-physical (IPA) page
numbers to (physical frame, permissions).  Every guest memory access is
mediated here; a miss or a permission mismatch produces an ``AccessFault``
value rather than an exception, mirroring how real faults are reported to
the hypervisor instead of unwinding it.

A table stores only its exceptions to a default.  An enclave's table
starts empty and stores every entry.  An identity table (the primary's)
maps each page below the machine's frame count to the frame of the same
number, RWX, and stores only the pages that differ: ``None`` for a page
it no longer maps, or the entry that replaces the default.  An exception
equal to the default is dropped, so the stored state, ``snapshot()`` and
equality between snapshots all follow what the table maps.

Page-table maintenance (map / unmap / permission change) is done for a
vCPU, `by`, which the hooks name, and charges one ``pt_ops`` ledger unit
per entry update.  A lookup is free and pure.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from .errors import AlreadyMapped, BadFrame, InvalidPerms, NotMapped, OutOfRange
from .machine import OFFSET_MASK, PAGE_SHIFT, PAGE_SIZE, PhysicalMachine


class Access(enum.Enum):
    READ = "read"
    WRITE = "write"
    EXECUTE = "execute"


class FaultKind(enum.Enum):
    UNMAPPED = "unmapped"
    PERMISSION_DENIED = "permission_denied"


@dataclass(frozen=True)
class Perms:
    read: bool = False
    write: bool = False
    execute: bool = False

    def tag(self) -> str:
        """``rwx`` with ``-`` for each bit not granted: one shared string
        per permission set, not a new one per call."""
        return _TAGS[self.read, self.write, self.execute]


_TAGS = {(r, w, x): ("r" if r else "-") + ("w" if w else "-") + (
    "x" if x else "-") for r in (False, True) for w in (False, True)
    for x in (False, True)}


PERM_RWX = Perms(True, True, True)
PERM_RW = Perms(True, True, False)
PERM_RO = Perms(True, False, False)


@dataclass(frozen=True)
class AccessFault:
    vm: int
    ipa: int
    kind: FaultKind

    def describe(self) -> dict:
        return {"vm": self.vm, "ipa": self.ipa, "kind": self.kind.value}


def _fault(vm: int, ipa: int, entry: Optional[Tuple[int, Perms]]) -> AccessFault:
    """The fault at `ipa` whose page `entry` (None if unmapped) denies it."""
    return AccessFault(vm, ipa, FaultKind.UNMAPPED if entry is None
                       else FaultKind.PERMISSION_DENIED)


_MISS = object()   # no exception stored: the table's default applies


class Stage2Table:
    """Mapping state for one VM.  Owned and mutated only by the hypervisor."""

    def __init__(self, owner_vm: int, machine: PhysicalMachine,
                 identity: bool = False):
        self.owner_vm = owner_vm
        self.machine = machine
        # pages [0, identity_pages) map to their own frame, RWX, by default
        self.identity_pages = machine.n_frames if identity else 0
        # exceptions to the default: an entry, or None for an unmapped page
        self.entries: Dict[int, Optional[Tuple[int, Perms]]] = {}

    def __len__(self) -> int:
        """Mapped pages."""
        excepted = sum(1 for p in self.entries if 0 <= p < self.identity_pages)
        mapped = sum(1 for e in self.entries.values() if e is not None)
        return self.identity_pages - excepted + mapped

    def map(self, ipa_page: int, frame: int, perms: Perms, by) -> None:
        entries = self.entries
        entry = entries.get(ipa_page, _MISS)
        identity = 0 <= ipa_page < self.identity_pages
        if entry is not None and (entry is not _MISS or identity):
            raise AlreadyMapped(f"vm{self.owner_vm} ipa page {ipa_page:#x}")
        if not 0 <= frame < self.machine.n_frames:
            raise BadFrame(f"frame {frame} outside [0, {self.machine.n_frames})")
        if not (perms.read or perms.write or perms.execute):
            raise InvalidPerms("mapping needs at least one permission bit")
        if identity and frame == ipa_page and perms == PERM_RWX:
            del entries[ipa_page]       # back to the default
        else:
            entries[ipa_page] = frame, perms
        self.machine.ledger.pt_ops += 1
        for obs in self.machine.observers:
            obs.on_map(self.owner_vm, ipa_page, frame, perms, by)

    def unmap(self, ipa_page: int, by) -> int:
        entries = self.entries
        entry = entries.get(ipa_page, _MISS)
        identity = 0 <= ipa_page < self.identity_pages
        if entry is None or (entry is _MISS and not identity):
            raise NotMapped(f"vm{self.owner_vm} ipa page {ipa_page:#x}")
        frame = ipa_page if entry is _MISS else entry[0]
        if identity:
            entries[ipa_page] = None    # an exception to the default
        else:
            del entries[ipa_page]
        self.machine.ledger.pt_ops += 1
        for obs in self.machine.observers:
            obs.on_unmap(self.owner_vm, ipa_page, frame, by)
        return frame

    def protect(self, ipa_page: int, perms: Perms, by) -> Perms:
        """Update the permissions of an installed entry; returns the old ones."""
        entries = self.entries
        entry = entries.get(ipa_page, _MISS)
        identity = 0 <= ipa_page < self.identity_pages
        if entry is None or (entry is _MISS and not identity):
            raise NotMapped(f"vm{self.owner_vm} ipa page {ipa_page:#x}")
        if not (perms.read or perms.write or perms.execute):
            raise InvalidPerms("mapping needs at least one permission bit")
        frame, old = (ipa_page, PERM_RWX) if entry is _MISS else entry
        if identity and frame == ipa_page and perms == PERM_RWX:
            entries.pop(ipa_page, None)     # back to the default
        else:
            entries[ipa_page] = frame, perms
        self.machine.ledger.pt_ops += 1
        for obs in self.machine.observers:
            obs.on_protect(self.owner_vm, ipa_page, frame, old, perms, by)
        return old

    def lookup(self, ipa_page: int) -> Optional[Tuple[int, Perms]]:
        """The page's ``(frame, perms)``, or None if unmapped: its stored
        exception, else the default (identity, RWX, below identity_pages)."""
        entry = self.entries.get(ipa_page, _MISS)
        if entry is _MISS and 0 <= ipa_page < self.identity_pages:
            return ipa_page, PERM_RWX
        return None if entry is _MISS else entry

    def snapshot(self) -> Dict[int, Optional[Tuple[int, Perms]]]:
        """Copy of the exceptions, for before/after equality checks; the
        cost is that of the exceptions, not of the pages mapped."""
        return dict(self.entries)


def guest_access(
    machine: PhysicalMachine,
    table: Stage2Table,
    ipa: int,
    access: Access,
    data: Optional[bytes] = None,
    length: int = 0,
    *,
    by,
    channel: bool = False,
) -> Tuple[Union[bytes, AccessFault], List[Tuple[int, int]]]:
    """Perform a guest memory access by the vCPU `by` through a stage-2 table.

    Accesses crossing page boundaries are split and translated per page, in
    order.  A fault stops the access at the faulting page: chunks on earlier
    pages have already landed (writes) or are discarded (reads), nothing on
    the faulting page onward is touched, and the fault is traced by `by`.
    Frame writes pass `by` and `channel`, true for a channel protocol
    step's write, on to the write hooks.  A negative length, a write
    without data or a read with data raises OutOfRange.

    An access that fits in one page, as nearly all do, is picked out by
    its size, a test cheaper than the loop's set-up, and takes a short
    path: one probe of the table's exceptions, the identity default
    inline, one frame call.  Spanning accesses and faults take the page
    loop, so faults are traced in one place.

    Returns ``(result, touched)`` where result is the read bytes (``b""``
    for a successful write) or the fault, and touched lists the
    ``(ipa_page, frame)`` pairs actually accessed, on either path.
    """
    if access is Access.WRITE:
        if data is None:
            raise OutOfRange("write access requires data")
        length = len(data)
    elif data is not None:
        raise OutOfRange("data only valid for write access")
    elif length < 0:
        raise OutOfRange("negative length %d" % length)

    offset = ipa & OFFSET_MASK
    if length and length <= PAGE_SIZE - offset:     # one page (length >= 0)
        page = ipa >> PAGE_SHIFT
        entry = table.entries.get(page, _MISS)
        if entry is _MISS:
            entry = (page, PERM_RWX) if 0 <= page < table.identity_pages \
                else None
        if entry is not None:
            frame, perms = entry
            if data is not None:                        # a write
                if perms.write:
                    machine.write_frame(frame, offset, data, by, channel)
                    return b"", [(page, frame)]
            elif perms.read if access is Access.READ else perms.execute:
                return machine.read_frame(frame, offset, length), \
                    [(page, frame)]

    write = access is Access.WRITE
    read = access is Access.READ
    entries = table.entries
    touched: List[Tuple[int, int]] = []
    parts: List[bytes] = []
    pos = 0
    while pos < length:
        cur = ipa + pos
        offset = cur & OFFSET_MASK
        chunk = PAGE_SIZE - offset
        if chunk > length - pos:
            chunk = length - pos
        page = cur >> PAGE_SHIFT
        entry = entries.get(page)
        if entry is None:
            # no entry stored (the default applies) or a hole
            entry = table.lookup(page)
        # the Perms bit the access needs, with no call per page
        if entry is None or not (entry[1].write if write else (
                entry[1].read if read else entry[1].execute)):
            fault = _fault(table.owner_vm, cur, entry)
            machine.fault_count += 1
            machine.trace.emit("fault", by.pcpu, by.name,
                               {"vm": fault.vm, "ipa": fault.ipa,
                                "fault": fault.kind.value})
            return fault, touched
        frame = entry[0]
        touched.append((page, frame))
        if write:
            machine.write_frame(frame, offset, data[pos:pos + chunk], by,
                                channel)
        else:
            parts.append(machine.read_frame(frame, offset, chunk))
        pos += chunk
    return (b"" if write else b"".join(parts)), touched
