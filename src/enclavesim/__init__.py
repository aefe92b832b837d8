"""Deterministic simulator of hypervisor-backed enclaves.

A primary VM donates pages of its own memory to spawn enclave VMs isolated
by stage-2 translation, drives them over a polled shared-memory channel,
and gets zeroed pages back on destroy.  Scheduling is a per-pCPU LIFO vCPU
stack.  Everything is deterministic and cost-accounted so isolation and
cost-structure claims can be machine-checked.
"""
from .channel import CHANNEL_MAGIC, ChannelStatus, ChannelView
from .errors import SimulationError
from .guest_os import EnclaveDriver, OsAllocator
from .hypervisor import (
    CreateEnclave,
    DestroyEnclave,
    EnclaveRecord,
    Exit,
    Hypervisor,
    ImageMeta,
    InvokeEnclave,
    Resumption,
    Vcpu,
    Vm,
    VmKind,
    VmState,
    Work,
)
from .image import EnclaveImage, build_image
from .machine import (
    PAGE_SHIFT,
    PAGE_SIZE,
    CostLedger,
    MachineConfig,
    Observer,
    PhysicalMachine,
)
from .sim import Simulation
from .stage2 import (
    PERM_RO,
    PERM_RW,
    PERM_RWX,
    Access,
    AccessFault,
    FaultKind,
    Perms,
    Stage2Table,
)
from .trace import TraceRecorder

__version__ = "0.1.0"

__all__ = [
    "Access",
    "AccessFault",
    "CHANNEL_MAGIC",
    "ChannelStatus",
    "ChannelView",
    "CostLedger",
    "CreateEnclave",
    "DestroyEnclave",
    "EnclaveDriver",
    "EnclaveImage",
    "EnclaveRecord",
    "Exit",
    "FaultKind",
    "Hypervisor",
    "ImageMeta",
    "InvokeEnclave",
    "MachineConfig",
    "Observer",
    "OsAllocator",
    "PAGE_SHIFT",
    "PAGE_SIZE",
    "PERM_RO",
    "PERM_RW",
    "PERM_RWX",
    "Perms",
    "PhysicalMachine",
    "Resumption",
    "Simulation",
    "SimulationError",
    "Stage2Table",
    "TraceRecorder",
    "Vcpu",
    "Vm",
    "VmKind",
    "VmState",
    "Work",
    "build_image",
]
