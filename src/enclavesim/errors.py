"""Exception taxonomy for the simulator.

Translation failures are *not* exceptions: guest memory access returns an
``AccessFault`` value (see ``stage2``).  Everything here is raised.
"""


class SimulationError(Exception):
    """Base class for all simulator errors."""


class ConfigError(SimulationError):
    """A machine configuration outside the bounds the simulator accepts."""


class OutOfRange(SimulationError):
    """Frame index or offset outside physical memory bounds, or a guest
    access with a negative length, a write without data or a read with
    data, or a ``Simulation.vm_write`` of data that is not bytes-like."""


# -- stage-2 table manipulation ----------------------------------------------

class MappingError(SimulationError):
    pass


class AlreadyMapped(MappingError):
    pass


class NotMapped(MappingError):
    pass


class BadFrame(MappingError):
    pass


class InvalidPerms(MappingError):
    """Mapping installed with no permission bit set."""


# -- hypercalls ---------------------------------------------------------------

class HypercallError(SimulationError):
    """Recoverable hypercall failure, reported to the calling vCPU."""


class PageNotMapped(HypercallError):
    pass


class InvalidDonation(HypercallError):
    """Donation list is malformed (duplicate or non-writable pages)."""


class TooSmall(HypercallError):
    pass


class Exhausted(HypercallError):
    pass


class BadHandle(HypercallError):
    pass


class EnclaveActive(HypercallError):
    pass


class EnclaveDestroyed(HypercallError):
    pass


class PrivilegeViolation(HypercallError):
    pass


class WrongPcpu(HypercallError):
    pass


class NotRunning(HypercallError):
    """A create, destroy, invoke or exit from a vCPU that is not running:
    another vCPU is on top of its pCPU's stack, or it is on no stack."""


class NoParent(SimulationError):
    """Exit from a vCPU with no parent: corrupt stack, deliberately fatal."""


# -- shared-memory channel ------------------------------------------------

class ChannelError(SimulationError):
    pass


class ChannelBusy(ChannelError):
    pass


class ChannelTooLarge(ChannelError):
    pass


class ChannelNoRequest(ChannelError):
    pass


# -- guest OS driver --------------------------------------------------------

class DriverError(SimulationError):
    pass


class NoMemory(DriverError):
    pass


class BadFd(DriverError):
    pass


# -- trusted application commands ------------------------------------------

class TaCommandError(SimulationError):
    """Raised by a TA command handler; reported as an Error status."""


class NoMasterKey(TaCommandError):
    pass


class BadKeyId(TaCommandError):
    pass


# -- harness ------------------------------------------------------------------

class ImageFormatError(SimulationError):
    pass


class ScenarioParseError(SimulationError):
    pass
