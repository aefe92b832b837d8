"""Shadow-state oracles.

Each oracle rebuilds some slice of simulator state from primary evidence
(observer callbacks, raw frame bytes, the event trace) and compares it
against what the simulator reports.  None of them read the hypervisor's
private sets or counters; if the hypervisor lies, the oracle should be in a
position to notice.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..hypervisor import Hypervisor, VmKind
from ..machine import PAGE_SIZE, Observer, PhysicalMachine
from ..stage2 import PERM_RWX, Perms, Stage2Table


# -- physical memory shadow ---------------------------------------------------

class MemoryOracle(Observer):
    """Mirror of frame contents built purely from write/zero callbacks.

    The mirror is sparse like the machine: a frame has a buffer from its
    first write event until its next zero event and reads as zeros
    otherwise.  If any code path mutates a frame without going through the
    machine's write or zero primitives, the mirror and the real memory drift
    apart and verify() reports the frame.
    """

    def __init__(self, machine: PhysicalMachine):
        self.machine = machine
        self._shadow: Dict[int, bytearray] = {}

    def _frame(self, frame: int) -> bytearray:
        buf = self._shadow.get(frame)
        if buf is None:
            buf = bytearray(PAGE_SIZE)
            self._shadow[frame] = buf
        return buf

    def on_write(self, frame: int, offset: int, data: bytes, by,
                 channel: bool) -> None:
        self._frame(frame)[offset:offset + len(data)] = data

    def on_zero(self, frame: int, by) -> None:
        self._shadow.pop(frame, None)

    def verify(self) -> List[str]:
        """Compare the mirror to physical memory over every frame that either
        holds a buffer for; any other frame reads as zeros on both sides."""
        problems = []
        for frame in sorted(self._shadow.keys() | self.machine.frames.keys()):
            real = self.machine.read_frame(frame, 0, PAGE_SIZE)
            mirrored = self._shadow.get(frame)
            if mirrored is None:
                if any(real):
                    problems.append("frame %d modified with no write event"
                                    % frame)
            elif mirrored != real:
                problems.append("frame %d diverges from write history" % frame)
        return problems


# -- mapping exclusivity ------------------------------------------------------

def _unmapped_frames(table: Stage2Table) -> Set[int]:
    """The frames an identity table over every frame maps no page to, read
    from its exceptions alone: each excepted page's own frame, unless some
    exception maps that frame back in."""
    exceptions = table.snapshot()
    return ({p for p in exceptions if 0 <= p < table.identity_pages}
            - {entry[0] for entry in exceptions.values() if entry is not None})


def _mappers(hv: Hypervisor) -> Dict[int, List[Tuple[int, VmKind, Perms]]]:
    """frame -> [(vmid, kind, perms)] for every frame that some table maps
    other than by the primary's identity default, that default included.
    A frame left out is mapped by the primary's identity page alone, or by
    nothing."""
    owners: Dict[int, List[Tuple[int, VmKind, Perms]]] = {}
    for vm in hv.vms.values():
        for entry in vm.table.snapshot().values():
            if entry is not None:
                frame, perms = entry
                owners.setdefault(frame, []).append((vm.vmid, vm.kind, perms))
    primary, excepted = hv.primary, hv.primary.table.snapshot()
    for frame, mappers in owners.items():
        if frame < primary.table.identity_pages and frame not in excepted:
            mappers.insert(0, (primary.vmid, primary.kind, PERM_RWX))
    return owners


def check_frame_exclusivity(hv: Hypervisor,
                            shared_expected: Set[int]) -> List[str]:
    """Every frame is reachable from at most one VM, except a channel frame
    in `shared_expected`, which must be reachable from exactly the primary
    and one enclave, data-only on both sides.

    `shared_expected` comes from OS-level bookkeeping (the driver's channel
    allocations), so the allowed sharing is cross-checked against a second
    source instead of trusted.
    """
    problems = []
    shared_seen: Set[int] = set()
    mappers = _mappers(hv)
    for frame in sorted(mappers):
        owners = mappers[frame]
        if len(owners) <= 1:
            continue
        shared_seen.add(frame)
        kinds = sorted(kind.value for _, kind, _ in owners)
        if len(owners) != 2 or kinds != ["enclave", "primary"]:
            problems.append("frame %d mapped by %s" % (
                frame, [(vmid, kind.value) for vmid, kind, _ in owners]))
            continue
        for vmid, _, perms in owners:
            if perms.execute or not (perms.read and perms.write):
                problems.append("shared frame %d has perms %s in vm%d"
                                % (frame, perms.tag(), vmid))
        if frame not in shared_expected:
            problems.append("frame %d shared but not a known channel" % frame)
    for frame in sorted(shared_expected - shared_seen):
        problems.append("channel frame %d not visible to both sides" % frame)
    return problems


# -- vCPU stack structure -----------------------------------------------------

def check_stack_integrity(hv: Hypervisor) -> List[str]:
    """Check each pCPU's vCPU stack: its own primary vCPU at the base, every
    vCPU pinned to it, on no stack twice and of a VM not retired.  Callers
    run between operations, so a live enclave's vCPU on a stack is flagged."""
    problems = []
    seen: Set[int] = set()
    enclave_vms = {rec.vm for rec in hv.enclaves.values()}
    for pcpu in hv.machine.pcpus:
        if pcpu.stack[:1] != [hv.primary.vcpus[pcpu.id]]:
            problems.append("pcpu %d stack base is not its primary vcpu"
                            % pcpu.id)
        for vcpu in pcpu.stack:
            if id(vcpu) in seen:
                problems.append("%s on a stack twice" % vcpu.name)
            seen.add(id(vcpu))
            if vcpu.pcpu != pcpu.id:
                problems.append("%s on pcpu %d stack but pinned to %d"
                                % (vcpu.name, pcpu.id, vcpu.pcpu))
            if vcpu.vm in enclave_vms:
                problems.append("%s left on pcpu %d stack" % (vcpu.name, pcpu.id))
            elif hv.vms.get(vcpu.vm.vmid) is not vcpu.vm:
                problems.append("%s of retired vm%d on pcpu %d stack"
                                % (vcpu.name, vcpu.vm.vmid, pcpu.id))
    return problems


class ReferenceStackModel:
    """Plain-list reimplementation of the LIFO scheduling contract.

    Stacks are lists of vCPU names, base first.  The model tracks the same
    observable outcomes the simulator commits to: stack contents, pending
    interrupt flags, interrupt outcome labels, and how many context switches
    each operation charges.  push/pop/interrupt here are written from the
    stated rules, not from the hypervisor code, so the two can disagree.
    """

    def __init__(self, n_pcpus: int, bases: Sequence[str]):
        assert len(bases) == n_pcpus
        self.stacks: List[List[str]] = [[b] for b in bases]
        self.pending: Set[str] = set()
        self.charges = 0

    def _switch_to(self, name: str) -> None:
        self.charges += 1
        self.pending.discard(name)

    def top(self, pcpu: int) -> str:
        return self.stacks[pcpu][-1]

    def stack(self, pcpu: int) -> List[str]:
        return list(self.stacks[pcpu])

    def scheduled(self, pcpu: int) -> Set[str]:
        return set(self.stacks[pcpu])

    def push(self, pcpu: int, name: str) -> None:
        assert name not in self.stacks[pcpu], "model: double schedule"
        self.stacks[pcpu].append(name)
        self._switch_to(name)

    def pop(self, pcpu: int) -> str:
        assert len(self.stacks[pcpu]) > 1, "model: popping the base"
        popped = self.stacks[pcpu].pop()
        self._switch_to(self.top(pcpu))
        return popped

    def interrupt(self, pcpu: int, name: str) -> str:
        stack = self.stacks[pcpu]
        if name in stack[:-1]:
            del stack[stack.index(name) + 1:]
            self._switch_to(name)
            return "unwound"
        self.pending.add(name)
        return "pending"


# -- secret scanning ----------------------------------------------------------

def _find_all(data: bytes, patterns: Sequence[bytes]) -> List[Tuple[int, int]]:
    """(offset, pattern_index) of every occurrence in `data`."""
    hits = []
    for pi, pat in enumerate(patterns):
        start = data.find(pat)
        while start >= 0:
            hits.append((start, pi))
            start = data.find(pat, start + 1)
    return hits


class SecretScanner:
    """Looks for known secret byte patterns in physical memory."""

    def __init__(self, machine: PhysicalMachine):
        self.machine = machine

    def scan_frames(self, patterns: Sequence[bytes],
                    frames: Optional[Sequence[int]] = None) -> List[Tuple[int, int, int]]:
        """(frame, offset, pattern_index) for every occurrence, over
        `frames` or else every frame.  A frame that reads as zeros has the
        zero page's hits, found once; so the default sweep visits only the
        frames holding a buffer, unless a pattern occurs in the zero page."""
        machine = self.machine
        zero_hits = _find_all(bytes(PAGE_SIZE), patterns)
        if frames is None:
            frames = range(machine.n_frames) if zero_hits \
                else sorted(machine.frames)
        hits = []
        for frame in frames:
            if machine.frame_is_zero(frame):
                found = zero_hits
            else:
                found = _find_all(machine.read_frame(frame, 0, PAGE_SIZE),
                                  patterns)
            hits += [(frame, offset, pi) for offset, pi in found]
        return hits

    def scan_vm_reachable(self, hv: Hypervisor, vmid: int,
                          patterns: Sequence[bytes]) -> List[Tuple[int, int, int]]:
        """Scan only frames the given VM can currently translate to."""
        table = hv.vms[vmid].table
        pages = set(table.snapshot()).union(range(table.identity_pages))
        frames = {entry[0] for entry in map(table.lookup, pages)
                  if entry is not None}
        return self.scan_frames(patterns, sorted(frames))


# -- zeroization watchdog -----------------------------------------------------

class ZeroizeWatch(Observer):
    """Catches enclave memory returning to the primary without being wiped.

    The watchdog follows frames through observer events: a frame unmapped
    from the primary has "left"; when it is mapped back, a zero event must
    have happened in between and the frame must physically read as zeros.
    Channel frames never leave the primary, so for them the check anchors on
    the enclave side: when an enclave unmaps a frame the primary still maps
    (i.e. sharing ends), the frame must have been wiped after sharing began.
    """

    def __init__(self, hv: Hypervisor):
        self.machine = hv.machine
        self._primary_vmid = hv.primary.vmid
        # the primary's identity default maps every frame, so what is kept
        # is the few frames it does not map
        self._out_of_primary = _unmapped_frames(hv.primary.table)
        self._op = 0
        self._away_at: Dict[int, int] = {}
        self._shared_at: Dict[int, int] = {}
        self._last_zero: Dict[int, int] = {}
        self.violations: List[str] = []

    def on_zero(self, frame: int, by) -> None:
        self._op += 1
        self._last_zero[frame] = self._op

    def on_unmap(self, vm: int, ipa_page: int, frame: int, by) -> None:
        self._op += 1
        if vm == self._primary_vmid:
            self._out_of_primary.add(frame)
            self._away_at[frame] = self._op
            return
        shared_since = self._shared_at.pop(frame, None)
        if shared_since is not None:
            if self._last_zero.get(frame, -1) < shared_since:
                self.violations.append(
                    "channel frame %d unshared without zeroize" % frame)
            elif not self.machine.frame_is_zero(frame):
                self.violations.append(
                    "channel frame %d unshared while dirty" % frame)

    def on_map(self, vm: int, ipa_page: int, frame: int, perms, by) -> None:
        self._op += 1
        if vm != self._primary_vmid:
            if frame not in self._out_of_primary:
                self._shared_at[frame] = self._op
            return
        left_at = self._away_at.pop(frame, None)
        self._out_of_primary.discard(frame)
        if left_at is None:
            return
        if self._last_zero.get(frame, -1) < left_at:
            self.violations.append(
                "frame %d remapped to primary without zeroize" % frame)
        elif not self.machine.frame_is_zero(frame):
            self.violations.append(
                "frame %d remapped to primary while dirty" % frame)


# -- write confinement --------------------------------------------------------

class WriteConfinementOracle(Observer):
    """Every physical write must be made by a vCPU running on its pCPU,
    into a frame that vCPU's VM may write, and a write into a shared
    (channel) frame must be a channel protocol step.

    Mapping state is mirrored from map/unmap/protect events into shadow
    tables plus per-frame counters, so the per-write check is O(1) and
    never consults the hypervisor's own tables after installation.  The
    primary's identity default (page p maps frame p, RWX) is mirrored the
    way its table stores it: the shadow keeps the primary's identity pages
    that no longer hold the default, and counts only the other entries.
    Arming therefore reads the tables' exceptions, not every frame.
    """

    def __init__(self, hv: Hypervisor):
        self._pcpus = hv.machine.pcpus
        self._primary = hv.primary.vmid
        self._tables: Dict[int, Dict[int, Tuple[int, Perms]]] = {}
        self._map_count: Dict[int, int] = {}
        self._writable: Dict[int, Dict[int, int]] = {}
        # identity pages of the primary that do not hold the default
        self._excepted: Set[int] = set()
        self.violations: List[str] = []
        identity_pages = hv.primary.table.identity_pages
        for vm in hv.vms.values():
            for ipa_page, entry in vm.table.snapshot().items():
                if vm is hv.primary and 0 <= ipa_page < identity_pages:
                    self._excepted.add(ipa_page)
                if entry is not None:
                    self._enter(vm.vmid, ipa_page, *entry)

    # shadow maintenance
    def _enter(self, vm: int, ipa_page: int, frame: int, perms: Perms) -> None:
        if vm == self._primary and ipa_page in self._excepted \
                and (frame, perms) == (ipa_page, PERM_RWX):
            self._excepted.discard(ipa_page)    # back to the default
            return
        self._tables.setdefault(vm, {})[ipa_page] = (frame, perms)
        self._map_count[frame] = self._map_count.get(frame, 0) + 1
        if perms.write:
            per = self._writable.setdefault(vm, {})
            per[frame] = per.get(frame, 0) + 1

    def _leave(self, vm: int, ipa_page: int) -> None:
        table = self._tables.get(vm, {})
        if vm == self._primary and ipa_page not in table:
            self._excepted.add(ipa_page)        # leaves the default
            return
        # a VM's entries go with its last mapping: retired VMs leave none
        frame, perms = table.pop(ipa_page)
        if not table:
            del self._tables[vm]
        self._map_count[frame] -= 1
        if perms.write:
            per = self._writable[vm]
            per[frame] -= 1
            if per[frame] == 0:
                del per[frame]
                if not per:
                    del self._writable[vm]

    def on_map(self, vm: int, ipa_page: int, frame: int, perms, by) -> None:
        self._enter(vm, ipa_page, frame, perms)

    def on_unmap(self, vm: int, ipa_page: int, frame: int, by) -> None:
        self._leave(vm, ipa_page)

    def on_protect(self, vm: int, ipa_page: int, frame: int, old, new,
                   by) -> None:
        self._leave(vm, ipa_page)
        self._enter(vm, ipa_page, frame, new)

    def on_write(self, frame: int, offset: int, data: bytes, by,
                 channel: bool) -> None:
        # frame n is page n's, so the primary's default maps it unless excepted
        identity = frame not in self._excepted
        vmid, running = by.vm.vmid, self._pcpus[by.pcpu].stack[-1] is by
        if not (running and (self._writable.get(vmid, {}).get(frame, 0) > 0
                             or (identity and vmid == self._primary))):
            self.violations.append("write to frame %d by %s, %s" % (
                frame, by.name,
                "which may not write it" if running else "not running"))
            return
        if not channel and self._map_count.get(frame, 0) + identity > 1:
            self.violations.append(
                "raw write into shared frame %d outside channel protocol"
                % frame)


# -- allocator conservation ---------------------------------------------------

def check_allocator_conservation(allocator) -> List[str]:
    """The free pages are the region minus the allocations, so pages are
    conserved when every allocation is keyed by its first page and lies
    inside the region, and no page is in two allocations.  O(allocated)."""
    problems = []
    first, end = allocator.region
    owner: Dict[int, int] = {}
    for aid, pages in sorted(allocator.allocations.items()):
        if pages[:1] != [aid]:
            problems.append("allocation %d not keyed by its first page" % aid)
        for p in pages:
            if not first <= p < end:
                problems.append("page %d of allocation %d outside region "
                                "[%d, %d)" % (p, aid, first, end))
            if p in owner:
                problems.append("page %d in allocations %d and %d"
                                % (p, owner[p], aid))
            owner.setdefault(p, aid)
    return problems


# -- trace completeness -------------------------------------------------------

def check_trace_completeness(sim) -> List[str]:
    """The trace is the one record of a run, so one pass over it must
    reproduce the cost ledger: steps are dense, each event's `t` is the
    running sum of event costs (one unit per charged event, per work unit
    and per zeroed page; a fault costs nothing), and the per-counter totals
    equal the ledger's (and the machine's fault count).  A trace without
    one detail per event cannot be folded, and is reported as that."""
    # event kind -> the ledger counter it charges
    charges = {"s2_map": "pt_ops", "s2_unmap": "pt_ops",
               "s2_protect": "pt_ops", "zero_frame": "zero_bytes",
               "ctx_switch": "ctx_switches", "hypercall": "hypercalls",
               "work": "work_units"}
    expected = dict(sim.machine.ledger.snapshot(),
                    faults=sim.machine.fault_count)
    folded = dict.fromkeys(expected, 0)
    events, details = sim.trace.events, sim.trace.details
    if len(details) != len(events):
        return ["%d details for %d events" % (len(details), len(events))]
    problems = []
    t = 0
    for index, ((step, kind, _, _, ev_t), detail) in enumerate(
            zip(events, details)):
        if kind in charges:
            n = detail["units"] if kind == "work" else 1
            folded[charges[kind]] += n
            t += n
        elif kind == "fault":
            folded["faults"] += 1
        # report the first break only; every later event inherits it
        if step != index and not problems:
            problems.append("trace steps not dense from zero (step %d at "
                            "index %d)" % (step, index))
        if ev_t != t and not problems:
            problems.append("step %d has t=%d, its events fold to %d"
                            % (step, ev_t, t))
    folded["zero_bytes"] *= PAGE_SIZE
    for counter, total in expected.items():
        if folded[counter] != total:
            problems.append("%s %d in the ledger vs %d folded from the trace"
                            % (counter, total, folded[counter]))
    return problems


def _fd_holdings(sim, driver) -> Tuple[Set[int], Set[int]]:
    """What the OS's open fds say it holds: the frames of their channel
    pages, translated through the primary's view, and their allocations."""
    shared, aids = set(), set()
    for fd in driver.open_fds():
        rec = driver.fd_info(fd)
        aids.update((rec.priv_aid, rec.chan_pages[0]))
        for page in rec.chan_pages:
            ent = sim.hv.primary.table.lookup(page)
            if ent is not None:
                shared.add(ent[0])
    return shared, aids


def standard_checks(sim, driver) -> List[str]:
    """The battery run at the end of a scenario, a fuzz campaign or a
    benchmark round.  The driver's fds are the second source the frame
    sharing and the allocator's allocations are checked against."""
    shared, aids = _fd_holdings(sim, driver)
    problems = []
    problems += check_stack_integrity(sim.hv)
    problems += check_frame_exclusivity(sim.hv, shared)
    problems += check_trace_completeness(sim)
    problems += check_allocator_conservation(driver.allocator)
    for aid in sorted(aids.symmetric_difference(driver.allocator.allocations)):
        problems.append("allocation %d %s" % (aid, "of an open fd not held"
                        if aid in aids else "held by no open fd"))
    return problems
