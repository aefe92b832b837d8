"""Per-VM stage-2 translation tables.

A table is a single-level page-granular map from guest-physical (IPA) page
numbers to (physical frame, permissions).  Every guest memory access is
mediated here; a miss or a permission mismatch produces an ``AccessFault``
value rather than an exception, mirroring how real faults are reported to
the hypervisor instead of unwinding it.

Page-table maintenance (map / unmap / permission change) charges one
``pt_ops`` ledger unit per entry update.  Translation itself is free and
pure.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from .errors import AlreadyMapped, BadFrame, InvalidPerms, NotMapped
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

    def allows(self, access: Access) -> bool:
        if access is Access.READ:
            return self.read
        if access is Access.WRITE:
            return self.write
        return self.execute

    def tag(self) -> str:
        return ("r" if self.read else "-") + ("w" if self.write else "-") + (
            "x" if self.execute else "-")


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


class Stage2Table:
    """Mapping state for one VM.  Owned and mutated only by the hypervisor."""

    def __init__(self, owner_vm: int, machine: PhysicalMachine):
        self.owner_vm = owner_vm
        self.machine = machine
        self.entries: Dict[int, Tuple[int, Perms]] = {}

    def __len__(self) -> int:
        return len(self.entries)

    def map(self, ipa_page: int, frame: int, perms: Perms) -> None:
        if ipa_page in self.entries:
            raise AlreadyMapped(f"vm{self.owner_vm} ipa page {ipa_page:#x}")
        if not 0 <= frame < self.machine.n_frames:
            raise BadFrame(f"frame {frame} outside [0, {self.machine.n_frames})")
        if not (perms.read or perms.write or perms.execute):
            raise InvalidPerms("mapping needs at least one permission bit")
        self.entries[ipa_page] = (frame, perms)
        self.machine.ledger.pt_ops += 1
        for obs in self.machine.observers:
            obs.on_map(self.owner_vm, ipa_page, frame, perms)

    def unmap(self, ipa_page: int) -> int:
        try:
            frame, _ = self.entries.pop(ipa_page)
        except KeyError:
            raise NotMapped(f"vm{self.owner_vm} ipa page {ipa_page:#x}") from None
        self.machine.ledger.pt_ops += 1
        for obs in self.machine.observers:
            obs.on_unmap(self.owner_vm, ipa_page, frame)
        return frame

    def protect(self, ipa_page: int, perms: Perms) -> Perms:
        """Update the permissions of an installed entry; returns the old ones."""
        if ipa_page not in self.entries:
            raise NotMapped(f"vm{self.owner_vm} ipa page {ipa_page:#x}")
        if not (perms.read or perms.write or perms.execute):
            raise InvalidPerms("mapping needs at least one permission bit")
        frame, old = self.entries[ipa_page]
        self.entries[ipa_page] = (frame, perms)
        self.machine.ledger.pt_ops += 1
        for obs in self.machine.observers:
            obs.on_protect(self.owner_vm, ipa_page, frame, old, perms)
        return old

    def lookup(self, ipa_page: int) -> Optional[Tuple[int, Perms]]:
        return self.entries.get(ipa_page)

    def translate(self, ipa: int, access: Access) -> Union[int, AccessFault]:
        entry = self.entries.get(ipa >> PAGE_SHIFT)
        if entry is None or not entry[1].allows(access):
            return _fault(self.owner_vm, ipa, entry)
        return (entry[0] << PAGE_SHIFT) | (ipa & OFFSET_MASK)

    def snapshot(self) -> Dict[int, Tuple[int, Perms]]:
        """Immutable-enough copy for before/after equality checks."""
        return dict(self.entries)


def guest_access(
    machine: PhysicalMachine,
    table: Stage2Table,
    ipa: int,
    access: Access,
    data: Optional[bytes] = None,
    length: int = 0,
) -> Tuple[Union[bytes, AccessFault], List[Tuple[int, int]]]:
    """Perform a guest memory access through a stage-2 table.

    Accesses crossing page boundaries are split and translated per page, in
    order.  A fault stops the access at the faulting page: chunks on earlier
    pages have already landed (writes) or are discarded (reads), and nothing
    on the faulting page onward is touched.

    Returns ``(result, touched)`` where result is the read bytes (``b""``
    for a successful write) or the fault, and touched lists the
    ``(ipa_page, frame)`` pairs actually accessed.
    """
    if access is Access.WRITE:
        if data is None:
            raise ValueError("write access requires data")
        length = len(data)
    elif data is not None:
        raise ValueError("data only valid for write access")
    if length < 0:
        raise ValueError("negative length")

    write = access is Access.WRITE
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
        entry = table.entries.get(page)
        if entry is None or not entry[1].allows(access):
            fault = _fault(table.owner_vm, cur, entry)
            machine.fault_count += 1
            for obs in machine.observers:
                obs.on_fault(fault)
            return fault, touched
        frame = entry[0]
        touched.append((page, frame))
        if write:
            machine.write_frame(frame, offset, data[pos:pos + chunk])
        else:
            parts.append(machine.read_frame(frame, offset, chunk))
        pos += chunk
    if write:
        return b"", touched
    if len(parts) == 1:
        return parts[0], touched
    return b"".join(parts), touched
