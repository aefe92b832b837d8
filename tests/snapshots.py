"""The state a refused create must leave exactly as it found it."""


def allocations(allocator):
    """The allocator's held allocations, as sorted (id, pages) pairs."""
    return tuple(sorted((aid, tuple(pages))
                        for aid, pages in allocator.allocations.items()))


def channel_frames(hv):
    """The frames of the primary's rw, no-exec entries: the channels of the
    live enclaves, the only pages the hypervisor maps that way."""
    return {entry[0] for entry in hv.primary.table.snapshot().values()
            if entry is not None and not entry[1].execute}


def full_state(sim, driver):
    """Every VM's stage-2 table, the live enclave handles and the next
    vmid and handle to be issued, the driver's allocator and its open fds."""
    hv = sim.hv
    return ({vmid: vm.table.snapshot() for vmid, vm in hv.vms.items()},
            sorted(hv.enclaves), hv._next_vmid, hv._next_handle,
            allocations(driver.allocator), tuple(driver.open_fds()))
