"""Minimal hypervisor: VM records, enclave lifecycle, and vCPU stacking.

The hypervisor owns all stage-2 tables and is the only code that mutates
them.  Enclave VMs are carved out of memory the primary VM donates; the
primary loses its mapping of donated private pages at create time and gets
the (zeroed) pages back at destroy time, so at every instant each frame is
reachable from at most one VM, except channel frames which are deliberately
shared.  The primary's table is identity-mapped RWX by default and stores
only the pages donated away and its channel pages, so boot costs nothing
per frame and the table stores nothing again once every enclave is gone.

Destroy runs one teardown, ``_teardown``: it zeroes every donated frame,
then unmaps the enclave and hands the pages back to the primary.  A
destroyed enclave is retired: its record and VM leave ``enclaves`` and
``vms``, which hold only live state.  Handles are never reused, so a later
call with a retired handle raises ``EnclaveDestroyed``, not ``BadHandle``.

Every hypercall goes through one table, ``Hypervisor._CALLS``, that maps
its type to the VM kind allowed to issue it and to its handler; each
handler is called as ``handler(caller, hc)``.  Management calls (create,
destroy, invoke) belong to the primary, exit belongs to enclaves.

Scheduling is a per-pCPU LIFO stack of vCPUs, the list ``Pcpu.stack``,
base first; the running vCPU is its last entry.  Invoking an enclave pushes
its vCPU.  Every pop goes through ``_unwind``, which pops down to the lowest
``keep`` vCPUs and charges one context switch: exit, a finished program and
a yield pop the running vCPU, and an interrupt aimed at a vCPU deeper in the
stack pops everything above it.  Each scheduling event (push, pop, context
switch, hypercall and its error, work, interrupt) is recorded right here
in the machine's trace, which charges its cost; no observer hook sees it.

Guest execution is cooperative.  An enclave vCPU's saved context is a Python
generator that yields ``Work(units)`` to burn simulated time and a
``Hypercall`` to trap into the hypervisor; hypercall results are sent back
in, hypercall errors are thrown in.  A program that raises or yields a step
the run loop refuses (negative work, an unknown hypercall, neither ``Work``
nor a ``Hypercall``) is popped like one that returns and is closed, so the
error reaches an invoker that runs again and a later invoke starts no
leftover step.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional, Sequence, Tuple, Union

from .errors import (
    BadHandle,
    EnclaveActive,
    EnclaveDestroyed,
    Exhausted,
    HypercallError,
    InvalidDonation,
    NoParent,
    NotRunning,
    PageNotMapped,
    PrivilegeViolation,
    SimulationError,
    TooSmall,
    WrongPcpu,
)
from .machine import PAGE_SHIFT, PAGE_SIZE, PhysicalMachine, Pcpu
from .stage2 import PERM_RW, PERM_RWX, Perms, Stage2Table


class VmKind(enum.Enum):
    PRIMARY = "primary"
    ENCLAVE = "enclave"


class VmState(enum.Enum):
    ACTIVE = "active"
    DESTROYED = "destroyed"


class Resumption(enum.Enum):
    """How a vCPU last left the pCPU."""

    COMPLETED = "completed"
    PREEMPTED = "preempted"


# -- guest-visible operation types -------------------------------------------

# Plain dataclasses, built per guest step: a frozen one's __init__ calls
# object.__setattr__ per field.  Nothing mutates or hashes them.
@dataclass
class Work:
    """Burn simulated time inside the guest."""

    units: int


@dataclass
class Hypercall:
    pass


@dataclass(frozen=True)
class ImageMeta:
    """What the image file demands of its donation: the declared private
    memory size and channel size, in pages."""

    mem_size_pages: int
    channel_size_pages: int


@dataclass
class CreateEnclave(Hypercall):
    pages: Tuple[int, ...]       # primary IPA page numbers, donation order
    meta: ImageMeta              # trailing meta.channel_size_pages are channel


@dataclass
class DestroyEnclave(Hypercall):
    handle: int


@dataclass
class InvokeEnclave(Hypercall):
    handle: int


@dataclass
class Exit(Hypercall):
    pass


GuestOp = Union[Work, Hypercall]
GuestProgram = Generator[GuestOp, object, None]


def _call_detail(hc: Hypercall) -> dict:
    """``dataclasses.asdict(hc)`` plus `call`, without its deep copy."""
    # one literal: a copy of vars(hc) grows its table when `call` is added
    d = {"call": type(hc).__name__, **vars(hc)}
    if "meta" in d:
        d["meta"] = dict(vars(d["meta"]))
    return d


# -- VM bookkeeping -----------------------------------------------------------

@dataclass(eq=False)
class Vcpu:
    vm: "Vm"
    index: int
    pcpu: int
    saved_context: Optional[GuestProgram] = None
    inbox: object = None            # last hypercall's result or error
    pending_irq: bool = False
    last_leave: Optional[Resumption] = None
    name: str = field(init=False)   # "<vm name>.v<index>", fixed at birth

    def __post_init__(self) -> None:
        self.name = "%s.v%d" % (self.vm.name, self.index)

    def __repr__(self) -> str:
        return "<Vcpu %s>" % self.name


@dataclass(eq=False)
class Vm:
    vmid: int
    kind: VmKind
    name: str
    table: Stage2Table
    state: VmState = VmState.ACTIVE
    vcpus: List[Vcpu] = field(default_factory=list)


@dataclass
class DonatedPage:
    primary_ipa_page: int
    frame: int
    orig_perms: Perms
    is_channel: bool


@dataclass(eq=False)
class EnclaveRecord:
    handle: int
    vm: Vm
    pages: List[DonatedPage]        # donation order; channel pages last
    channel_pages: int

    @property
    def private_pages(self) -> int:
        return len(self.pages) - self.channel_pages

    @property
    def channel_ipa(self) -> int:
        """Enclave-side byte address of the channel region."""
        return self.private_pages << PAGE_SHIFT

    def frames(self) -> List[int]:
        return [dp.frame for dp in self.pages]

    def primary_private_pages(self) -> List[int]:
        """Primary-view IPA pages of the private region (unmapped while the
        enclave lives)."""
        return [dp.primary_ipa_page for dp in self.pages if not dp.is_channel]

    def primary_channel_pages(self) -> List[int]:
        return [dp.primary_ipa_page for dp in self.pages if dp.is_channel]


# Resolves the code blob found in the first donated page to a program
# factory, or None if the image is not recognized.  The factory is called
# once, after the enclave's mappings exist, to instantiate the vCPU context.
ProgramLoader = Callable[[bytes], Optional[Callable[[EnclaveRecord], GuestProgram]]]


class Hypervisor:
    def __init__(self, machine: PhysicalMachine,
                 program_loader: ProgramLoader, tick: Callable[[], None],
                 timers: List[Tuple[int, int, int]]):
        self.machine = machine
        self.program_loader = program_loader
        self.tick = tick        # fires the due timers
        self.timers = timers    # the heap `tick` fires from, earliest first
        self.emit = machine.trace.emit  # records one scheduling event
        self.vms: Dict[int, Vm] = {}
        self.enclaves: Dict[int, EnclaveRecord] = {}
        self._next_vmid = 0
        self._next_handle = 1
        self._shared_frames: set = set()   # channel frames of live enclaves
        self.primary = self._boot_primary()

    # -- boot -----------------------------------------------------------------

    def _new_vm(self, kind: VmKind, name: str, pcpus: Sequence[int]) -> Vm:
        """A live VM with vCPU i pinned to pcpus[i].  The primary's table
        is identity by default, an enclave's starts empty."""
        vm = Vm(self._next_vmid, kind, name,
                Stage2Table(self._next_vmid, self.machine,
                            identity=kind is VmKind.PRIMARY))
        self._next_vmid += 1
        vm.vcpus = [Vcpu(vm=vm, index=i, pcpu=p) for i, p in enumerate(pcpus)]
        self.vms[vm.vmid] = vm
        return vm

    def _boot_primary(self) -> Vm:
        pcpus = self.machine.pcpus
        vm = self._new_vm(VmKind.PRIMARY, "primary", range(len(pcpus)))
        for pcpu, vcpu in zip(pcpus, vm.vcpus):
            pcpu.stack.append(vcpu)
        # the primary starts owning every frame through its table's identity
        # default, which stores, emits and charges nothing
        return vm

    # -- stack primitives -------------------------------------------------

    def _charge_switch(self, pcpu: Pcpu, frm: Vcpu, to: Vcpu, reason: str) -> None:
        self.emit("ctx_switch", pcpu.id, to.name,
                  {"frm": frm.name, "to": to.name, "reason": reason})
        if to.pending_irq:
            to.pending_irq = False
            self.emit("interrupt", pcpu.id, to.name,
                      {"target": to.name, "outcome": "taken_on_entry"})

    def _push(self, pcpu: Pcpu, child: Vcpu, reason: str) -> None:
        parent = pcpu.stack[-1]
        pcpu.stack.append(child)
        self.emit("push", pcpu.id, child.name, {})
        self._charge_switch(pcpu, parent, child, reason)

    def _unwind(self, pcpu: Pcpu, keep: int, resumption: Resumption,
                reason: str) -> Vcpu:
        """Pop the stack down to its lowest `keep` vCPUs, top first, each as
        `resumption`, and charge one context switch onto the new top; return
        the vCPU that was running.  Popping the base raises NoParent."""
        stack = pcpu.stack
        frm = stack[-1]
        if keep < 1:
            raise NoParent("vcpu %s has nothing underneath it" % frm.name)
        # the member's own attribute: `value` is an enum property, a slow call
        tag = resumption._value_
        while len(stack) > keep:
            cur = stack.pop()
            cur.last_leave = resumption
            self.emit("pop", pcpu.id, cur.name, {"resumption": tag})
        self._charge_switch(pcpu, frm, stack[-1], reason)
        return frm

    def _is_scheduled(self, vcpu: Vcpu) -> bool:
        """On its pCPU's stack: running, or stacked under another vCPU."""
        return vcpu in self.machine.pcpus[vcpu.pcpu].stack

    def stack_of(self, pcpu_id: int) -> List[Vcpu]:
        """The vCPU stack on a pCPU, base first, running vCPU last."""
        return list(self.machine.pcpus[pcpu_id].stack)

    # -- interrupts ---------------------------------------------------------

    def check_pcpu(self, pcpu_id: int) -> None:
        # an exact int: a float or a bool id would reach the trace
        if type(pcpu_id) is not int or not 0 <= pcpu_id < len(self.machine.pcpus):
            raise SimulationError("no pcpu %r" % (pcpu_id,))

    def deliver_interrupt(self, pcpu_id: int, target: Vcpu) -> str:
        """Route an interrupt to `target`.  If the target sits below the
        running vCPU, everything above it is popped as PREEMPTED and a single
        context switch lands on the target.  An interrupt for the running
        vCPU itself (or for one not on the stack) is recorded as pending with
        no switch.  Returns the outcome label."""
        self.check_pcpu(pcpu_id)
        if target.pcpu != pcpu_id:
            raise WrongPcpu("vcpu %s lives on pcpu %d, interrupt sent to %d"
                            % (target.name, target.pcpu, pcpu_id))
        pcpu = self.machine.pcpus[pcpu_id]
        below = pcpu.stack[:-1]
        if target in below:
            self._unwind(pcpu, below.index(target) + 1, Resumption.PREEMPTED,
                         "interrupt")
            outcome = "unwound"
        else:
            target.pending_irq = True
            outcome = "pending"
        self.emit("interrupt", pcpu_id, target.name,
                  {"target": target.name, "outcome": outcome})
        return outcome

    # -- hypercall dispatch ---------------------------------------------------

    def dispatch(self, caller: Vcpu, hc: Hypercall):
        self.emit("hypercall", caller.pcpu, caller.name, _call_detail(hc))
        entry = self._CALLS.get(type(hc))
        if entry is None:
            raise SimulationError("unknown hypercall %r" % (hc,))
        issuer, handler = entry
        try:
            if caller.vm.kind is not issuer:
                raise PrivilegeViolation(
                    "%s issued by enclave vcpu %s"
                    % (type(hc).__name__, caller.name)
                    if issuer is VmKind.PRIMARY
                    else "exit issued by %s" % caller.name)
            return handler(self, caller, hc)
        except HypercallError as err:
            self.emit("hypercall_error", caller.pcpu, caller.name,
                      {"call": type(hc).__name__,
                       "error": type(err).__name__, "message": str(err)})
            raise

    # convenience wrappers for driver-side code
    def create_enclave(self, caller: Vcpu, pages: Sequence[int],
                       meta: ImageMeta) -> int:
        return self.dispatch(caller, CreateEnclave(tuple(pages), meta))

    def destroy_enclave(self, caller: Vcpu, handle: int) -> None:
        self.dispatch(caller, DestroyEnclave(handle))

    def invoke_enclave(self, caller: Vcpu, handle: int) -> Resumption:
        return self.dispatch(caller, InvokeEnclave(handle))

    def _running_pcpu(self, caller: Vcpu, call: str) -> Pcpu:
        """The caller's pCPU; NotRunning unless the caller is on top of its
        stack, since only a running vCPU can issue a hypercall."""
        pcpu = self.machine.pcpus[caller.pcpu]
        if pcpu.stack[-1] is not caller:
            raise NotRunning("%s from %s, which is not running"
                             % (call, caller.name))
        return pcpu

    def _lookup(self, handle: int) -> EnclaveRecord:
        rec = self.enclaves.get(handle)
        if rec is None:
            # handles count up from 1 and only a successful create takes one
            if 0 < handle < self._next_handle:
                raise EnclaveDestroyed("enclave %d was destroyed" % handle)
            raise BadHandle("no enclave with handle %d" % handle)
        return rec

    # -- create -----------------------------------------------------------

    def _do_create(self, caller: Vcpu, hc: CreateEnclave) -> int:
        """Donate `hc.pages` of the caller's memory to a new enclave.

        The trailing meta.channel_size_pages pages become the shared channel;
        everything else (including any surplus beyond meta.mem_size_pages)
        becomes enclave-private.  Validation happens entirely before the
        first mutation, so any error leaves the primary's table, the enclave
        list and all frame contents exactly as they were.
        """
        self._running_pcpu(caller, "create")
        pages, meta = hc.pages, hc.meta
        channel_pages = meta.channel_size_pages
        if channel_pages < 1 or meta.mem_size_pages < 1:
            raise TooSmall("image needs at least one private and one channel "
                           "page")
        if len(pages) < meta.mem_size_pages + channel_pages:
            raise TooSmall("donated %d pages, image requires %d"
                           % (len(pages),
                              meta.mem_size_pages + channel_pages))
        if len(set(pages)) != len(pages):
            raise InvalidDonation("duplicate page in donation")
        if 1 + len(self.enclaves) + 1 > self.machine.config.max_vms:
            raise Exhausted("VM limit %d reached" % self.machine.config.max_vms)
        ptab = self.primary.table
        staged: List[Tuple[int, int, Perms]] = []
        for p in pages:
            if type(p) is not int:      # a float or a bool would be traced
                raise InvalidDonation("donated page %r is not an int" % (p,))
            ent = ptab.lookup(p)
            if ent is None:
                raise PageNotMapped("ipa page %#x not mapped in primary" % p)
            frame, perms = ent
            if not perms.write:
                raise InvalidDonation("ipa page %#x not writable; the caller "
                                      "does not own it outright" % p)
            if frame in self._shared_frames:
                raise InvalidDonation("ipa page %#x is another enclave's "
                                      "channel; cannot donate it" % p)
            staged.append((p, frame, perms))
        factory = self.program_loader(
            self.machine.read_frame(staged[0][1], 0, PAGE_SIZE))
        if factory is None:
            raise InvalidDonation("unrecognized enclave image")

        # mutation starts here; nothing below can fail
        handle = self._next_handle
        self._next_handle += 1
        vm = self._new_vm(VmKind.ENCLAVE, "enclave%d" % handle, (caller.pcpu,))
        n_priv = len(pages) - channel_pages
        donated: List[DonatedPage] = []
        for i, (p, frame, perms) in enumerate(staged):
            if i < n_priv:
                ptab.unmap(p, caller)
                vm.table.map(i, frame, PERM_RWX, caller)
            else:
                # channel stays mapped in the primary, data only, no exec
                ptab.protect(p, PERM_RW, caller)
                vm.table.map(i, frame, PERM_RW, caller)
                self._shared_frames.add(frame)
            donated.append(DonatedPage(p, frame, perms, i >= n_priv))
        rec = EnclaveRecord(handle, vm, donated, channel_pages)
        self.enclaves[handle] = rec
        vm.vcpus[0].saved_context = factory(rec)
        return handle

    # -- destroy ------------------------------------------------------------

    def _do_destroy(self, caller: Vcpu, hc: DestroyEnclave) -> None:
        """Tear down an enclave and retire it.  Every donated frame is zeroed
        before any mapping changes, so no frame ever re-enters the primary
        carrying enclave data."""
        rec = self._lookup(hc.handle)
        vm, vcpu = rec.vm, rec.vm.vcpus[0]
        if self._is_scheduled(vcpu):
            raise EnclaveActive("enclave %d is scheduled on pcpu %d"
                                % (rec.handle, vcpu.pcpu))
        self._running_pcpu(caller, "destroy")
        self._teardown(rec, caller)
        # last chance to see a leftover mapping: nothing holds the VM after
        if len(vm.table) != 0:
            raise SimulationError("destroyed vm%d still maps %d pages"
                                  % (vm.vmid, len(vm.table)))
        vm.state = VmState.DESTROYED
        del self.enclaves[rec.handle]
        del self.vms[vm.vmid]
        for dp in rec.pages:
            if dp.is_channel:
                self._shared_frames.discard(dp.frame)
        vcpu.saved_context.close()
        vcpu.saved_context = None

    def _teardown(self, rec: EnclaveRecord, by: Vcpu) -> None:
        """Zero every donated frame, then hand the pages back, for `by`."""
        for dp in rec.pages:
            self.machine.zero_frame(dp.frame, by)
        for i in range(len(rec.pages)):
            rec.vm.table.unmap(i, by)
        ptab = self.primary.table
        for dp in rec.pages:
            if dp.is_channel:
                ptab.protect(dp.primary_ipa_page, dp.orig_perms, by)
            else:
                ptab.map(dp.primary_ipa_page, dp.frame, dp.orig_perms, by)

    # -- invoke / exit ------------------------------------------------------

    def _do_invoke(self, caller: Vcpu, hc: InvokeEnclave) -> Resumption:
        rec = self._lookup(hc.handle)
        target = rec.vm.vcpus[0]
        if target.pcpu != caller.pcpu:
            raise WrongPcpu("enclave %d pinned to pcpu %d, invoked from %d"
                            % (rec.handle, target.pcpu, caller.pcpu))
        # a running primary vCPU is its stack's base and top, so the stack
        # is [caller] and the target, pinned to this pCPU, is not scheduled
        pcpu = self._running_pcpu(caller, "invoke")
        self._push(pcpu, target, "invoke")
        self._run_until(pcpu, caller)
        return target.last_leave

    def _do_exit(self, caller: Vcpu, hc: Exit) -> None:
        pcpu = self.machine.pcpus[caller.pcpu]
        if pcpu.stack[-1] is not caller:    # _running_pcpu's test, inline
            raise NotRunning("exit from %s, which is not running"
                             % caller.name)
        self._unwind(pcpu, len(pcpu.stack) - 1, Resumption.COMPLETED, "exit")

    # issuing VM kind and handler of each hypercall type
    _CALLS = {
        CreateEnclave: (VmKind.PRIMARY, _do_create),
        DestroyEnclave: (VmKind.PRIMARY, _do_destroy),
        InvokeEnclave: (VmKind.PRIMARY, _do_invoke),
        Exit: (VmKind.ENCLAVE, _do_exit),
    }

    # -- cooperative run loop -------------------------------------------------

    def _run_until(self, pcpu: Pcpu, stop: Vcpu) -> None:
        """Advance the running guest until `stop` is back on the pCPU."""
        stack, timers, trace = pcpu.stack, self.timers, self.machine.trace
        while stack[-1] is not stop:
            cur = stack[-1]
            gen = cur.saved_context
            value, cur.inbox = cur.inbox, None
            try:
                item = (gen.throw(value) if isinstance(value, HypercallError)
                        else gen.send(value))
                if isinstance(item, Work):
                    if type(item.units) is not int:    # a float, or a bool
                        raise SimulationError("work units %r are not an int"
                                              % (item.units,))
                    if item.units < 0:
                        raise SimulationError("negative work")
                    self.emit("work", cur.pcpu, cur.name, {"units": item.units})
                elif isinstance(item, Hypercall):
                    try:
                        cur.inbox = self.dispatch(cur, item)
                    except HypercallError as err:
                        cur.inbox = err
                else:
                    raise SimulationError("guest %s yielded %r"
                                          % (cur.name, item))
            except Exception as exc:
                # the program returned, raised or asked for a step the loop
                # refuses: an implicit exit, no hypercall charged, and the
                # program is over, so a later invoke cannot resume it
                self._unwind(pcpu, len(stack) - 1, Resumption.COMPLETED,
                             "finish")
                gen.close()
                if isinstance(exc, StopIteration):
                    continue
                raise
            if timers and timers[0][0] <= trace.t:    # a timer is due
                self.tick()

    # -- raw scheduling for tests and demos -----------------------------------

    def make_aux_vcpu(self, pcpu_id: int) -> Vcpu:
        """A schedulable vCPU with no memory and no program, for exercising
        the stacking machinery directly.  Its VM is named `aux<vmid>`:
        vmids are never reused, and no other VM's name starts with `aux`."""
        self.check_pcpu(pcpu_id)
        return self._new_vm(VmKind.ENCLAVE, "aux%d" % self._next_vmid,
                            (pcpu_id,)).vcpus[0]

    def schedule_vcpu(self, pcpu_id: int, vcpu: Vcpu) -> None:
        """Push `vcpu` onto a pCPU's stack without privilege checks."""
        self.check_pcpu(pcpu_id)
        if vcpu.pcpu != pcpu_id:
            raise WrongPcpu("vcpu %s pinned to pcpu %d" % (vcpu.name, vcpu.pcpu))
        if self._is_scheduled(vcpu):
            raise EnclaveActive("vcpu %s already scheduled" % vcpu.name)
        self._push(self.machine.pcpus[pcpu_id], vcpu, "schedule")

    def yield_vcpu(self, pcpu_id: int) -> Vcpu:
        """Pop the running vCPU as completed, without touching its program
        state."""
        self.check_pcpu(pcpu_id)
        pcpu = self.machine.pcpus[pcpu_id]
        return self._unwind(pcpu, len(pcpu.stack) - 1, Resumption.COMPLETED,
                            "yield")
