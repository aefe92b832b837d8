"""Primary-VM software model: a toy page allocator and the enclave driver.

The driver is the application-facing API: it allocates pages, copies an
image's code blob into them through the primary's own stage-2 mappings,
donates the pages via hypercall, and afterwards speaks the shared-memory
channel protocol.  It deliberately runs entirely at guest level: everything
it does goes through the same translation path an application would use, so
a driver bug cannot touch memory the primary does not own.

One driver is the simulation's guest OS: one allocator and one fd table
serve every pCPU.  `create` picks the pCPU the enclave is pinned to, and
later calls on its fd issue from the primary vCPU that created it.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterator, List, Tuple

from .channel import ChannelStatus, ChannelView
from .errors import BadFd, DriverError, Exhausted, HypercallError, NoMemory
from .hypervisor import EnclaveRecord, ImageMeta, Resumption, Vcpu
from .image import EnclaveImage
from .machine import PAGE_SHIFT, PAGE_SIZE
from .sim import Simulation
from .stage2 import Access, AccessFault, guest_access

FD_BASE = 3
FD_CAPACITY = 16


class OsAllocator:
    """Page allocator over the primary's donation-eligible region.

    Its one record is `allocations`, each held allocation's pages by id; the
    free pages are the region minus those, worked out per allocation, so the
    state is the size of what is held.  Pages go out lowest-numbered first.
    An allocation's id is its first page, which no other held allocation
    can have, so a freed allocation leaves no trace in later ids.
    """

    def __init__(self, first_page: int, end_page: int):
        self.region = (first_page, end_page)
        self.allocations: Dict[int, List[int]] = {}

    def _free_runs(self) -> Iterator[Tuple[int, int]]:
        """The free pages as [start, end) runs, lowest first."""
        start, end = self.region
        for page in sorted(chain.from_iterable(self.allocations.values())):
            if page > start:
                yield start, page
            start = page + 1
        if start < end:
            yield start, end

    def _take(self, pages: List[int]) -> Tuple[int, List[int]]:
        self.allocations[pages[0]] = pages
        return pages[0], list(pages)

    def allocate(self, n: int) -> Tuple[int, List[int]]:
        if n < 1:
            raise DriverError("allocation of %d pages" % n)
        pages: List[int] = []
        for start, end in self._free_runs():
            pages += range(start, min(end, start + n - len(pages)))
        if len(pages) < n:
            raise NoMemory("%d pages requested, %d free" % (n, len(pages)))
        return self._take(pages)

    def allocate_contiguous(self, n: int) -> Tuple[int, List[int]]:
        if n < 1:
            raise DriverError("allocation of %d pages" % n)
        for start, end in self._free_runs():
            if end - start >= n:
                return self._take(list(range(start, start + n)))
        raise NoMemory("no contiguous run of %d pages" % n)

    def free(self, aid: int) -> List[int]:
        pages = self.allocations.pop(aid, None)
        if pages is None:
            raise DriverError("free of unknown allocation %d" % aid)
        return pages


@dataclass
class EnclaveFd:
    handle: int
    caller: Vcpu            # the primary vCPU that created the enclave
    priv_aid: int
    chan_pages: List[int]   # contiguous; the first is the allocation's id
    channel: ChannelView    # `caller`'s view of the channel region


class EnclaveDriver:
    """Create / invoke / resume / destroy on every pCPU, with rollback."""

    def __init__(self, sim: Simulation):
        self.sim = sim
        self.hv = sim.hv
        cfg = sim.machine.config
        self.allocator = OsAllocator(cfg.os_reserved_pages, cfg.frames)
        self._fds: Dict[int, EnclaveFd] = {}

    # -- fd bookkeeping -------------------------------------------------------

    def _alloc_fd(self) -> int:
        for fd in range(FD_BASE, FD_BASE + FD_CAPACITY):
            if fd not in self._fds:
                return fd
        raise Exhausted("driver fd table full (%d live)" % FD_CAPACITY)

    def fd_info(self, fd: int) -> EnclaveFd:
        rec = self._fds.get(fd)
        if rec is None:
            raise BadFd("no enclave behind fd %d" % fd)
        return rec

    def open_fds(self) -> List[int]:
        return sorted(self._fds)

    # -- lifecycle ------------------------------------------------------------

    def _load_blob(self, image: EnclaveImage, pages: List[int],
                   caller: Vcpu) -> None:
        """Copy the code blob into the first pages and zero-fill the rest of
        the private region as `caller`, through the primary's mappings."""
        blob = image.code_blob
        machine, table = self.sim.machine, self.hv.primary.table
        for i, page in enumerate(pages):
            chunk = blob[i * PAGE_SIZE:(i + 1) * PAGE_SIZE]
            if len(chunk) < PAGE_SIZE:
                chunk = chunk + bytes(PAGE_SIZE - len(chunk))
            out, _ = guest_access(machine, table, page << PAGE_SHIFT,
                                  Access.WRITE, data=chunk, by=caller)
            if isinstance(out, AccessFault):
                raise DriverError("faulted writing own page %#x" % page)

    def create(self, image: EnclaveImage, pcpu: int = 0) -> int:
        """Load and donate `image` as an enclave pinned to `pcpu`."""
        caller = self.sim.primary_vcpu(pcpu)
        fd = self._alloc_fd()
        priv_aid, priv = self.allocator.allocate(image.mem_size_pages)
        taken = [priv_aid]      # every allocation a refusal gives back
        try:
            chan_aid, chan = self.allocator.allocate_contiguous(
                image.channel_size_pages)
            taken.append(chan_aid)
            self._load_blob(image, priv, caller)
            meta = ImageMeta(image.mem_size_pages, image.channel_size_pages)
            handle = self.hv.create_enclave(caller, priv + chan, meta)
        except (HypercallError, DriverError):
            for aid in taken:
                self.allocator.free(aid)
            raise
        rec = EnclaveFd(handle, caller, priv_aid, chan, ChannelView(
            caller, chan[0] << PAGE_SHIFT, image.channel_size_pages))
        rec.channel.init()
        self._fds[fd] = rec
        return fd

    def invoke(self, fd: int, cmd_id: int,
               args: bytes = b"") -> Tuple[ChannelStatus, bytes]:
        rec = self.fd_info(fd)
        rec.channel.write_request(cmd_id, args)
        return self._enter(rec)

    def resume(self, fd: int) -> Tuple[ChannelStatus, bytes]:
        """Re-enter an enclave that was interrupted mid-command.  A channel
        that is not PREEMPTED refuses the re-arm with ChannelError."""
        rec = self.fd_info(fd)
        rec.channel.rearm_request()
        return self._enter(rec)

    def _enter(self, rec: EnclaveFd) -> Tuple[ChannelStatus, bytes]:
        """Run the enclave on its armed request and collect the outcome."""
        outcome = self.hv.invoke_enclave(rec.caller, rec.handle)
        if outcome is Resumption.PREEMPTED:
            # the TA never saw the end of the request; record that for the
            # application, which may call resume() later
            rec.channel.mark_preempted()
            return ChannelStatus.PREEMPTED, b""
        return rec.channel.read_response()

    def destroy(self, fd: int) -> None:
        rec = self.fd_info(fd)
        self.hv.destroy_enclave(rec.caller, rec.handle)
        self.allocator.free(rec.chan_pages[0])
        self.allocator.free(rec.priv_aid)
        del self._fds[fd]

    def record_of(self, fd: int) -> EnclaveRecord:
        return self.hv.enclaves[self.fd_info(fd).handle]
