"""Enclave-side runtime: the serve loop and the built-in demo programs.

A program is its handler table: ``register_ta(name, mem_pages,
{cmd_id: handler})`` registers it, the image's command table is the
handlers' keys, and ``standard_loop`` serves it.  A handler is a generator
over GuestOps.  It lives entirely behind the enclave's own stage-2 table:
channel traffic goes through a ChannelView on that table and private state
through TaContext.read_state/write_state from ``state_ipa`` (the first page
after the code blob).  State must fit in the private pages: an access that
would reach the channel fails the command with status ERROR.  Nothing here
can touch memory the enclave does not map.

The wallet program implements a six-command key manager over a toy
deterministic construction (iterated keyed digest).  It is not
cryptography; it exists so outputs are reproducible and so there is a real
32-byte secret for leak-hunting oracles to chase.

Blob markers: every built-in image embeds ``TA!<name>\\n`` in its first
page; ``load_program`` resolves that name against the registry when the
hypervisor accepts a donation.
"""
from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Optional, Tuple, Union

from .channel import ChannelView
from .errors import (
    BadKeyId,
    ChannelError,
    NoMasterKey,
    PrivilegeViolation,
    SimulationError,
    TaCommandError,
)
from .hypervisor import (
    CreateEnclave,
    EnclaveRecord,
    Exit,
    GuestProgram,
    ImageMeta,
    InvokeEnclave,
    Work,
)
from .image import EnclaveImage, build_image
from .machine import PAGE_SHIFT
from .stage2 import Access, AccessFault, guest_access

ROUNDS = 4


def digest_chain(label: bytes, data: bytes) -> bytes:
    """Iterated keyed digest: the toy primitive behind every wallet output."""
    h = hashlib.sha256(label + b":" + data).digest()
    for _ in range(ROUNDS - 1):
        h = hashlib.sha256(label + b":" + h).digest()
    return h


class TaContext:
    """What a program can see: its channel and its own address space."""

    def __init__(self, rec: EnclaveRecord, channel: ChannelView,
                 state_ipa: int):
        self.rec = rec
        self.channel = channel
        self.state_ipa = state_ipa
        self.state_end = rec.channel_ipa   # state stays in private pages
        self.machine = rec.vm.table.machine

    def read(self, ipa: int, length: int) -> Union[bytes, AccessFault]:
        out, _ = guest_access(self.machine, self.rec.vm.table, ipa,
                              Access.READ, length=length,
                              by=self.rec.vm.vcpus[0])
        return out

    def write(self, ipa: int, data: bytes) -> Union[bytes, AccessFault]:
        out, _ = guest_access(self.machine, self.rec.vm.table, ipa,
                              Access.WRITE, data=data, by=self.rec.vm.vcpus[0])
        return out

    def _state_at(self, offset: int, length: int) -> int:
        """The address of a state access, which must end before the
        channel: a program too small for its state fails the command."""
        ipa = self.state_ipa + offset
        if ipa + length > self.state_end:
            raise TaCommandError("state [%#x, %#x) reaches the channel at %#x"
                                 % (ipa, ipa + length, self.state_end))
        return ipa

    def read_state(self, offset: int, length: int) -> bytes:
        out = self.read(self._state_at(offset, length), length)
        if isinstance(out, AccessFault):
            raise SimulationError("TA state read fault: %s" % (out.describe(),))
        return out

    def write_state(self, offset: int, data: bytes) -> None:
        out = self.write(self._state_at(offset, len(data)), data)
        if isinstance(out, AccessFault):
            raise SimulationError("TA state write fault: %s" % (out.describe(),))


Handler = Callable[[TaContext, bytes], GuestProgram]


def standard_loop(ctx: TaContext,
                  handlers: Dict[int, Handler]) -> GuestProgram:
    """Serve forever: take a request, run its handler, publish the reply,
    give control back.  A ChannelError (only `serve` raises one) means
    nothing to serve: no reply.  An unknown command or a failed handler
    becomes status ERROR with an empty payload."""
    while True:
        try:
            cmd_id, args = ctx.channel.serve()
            handler = handlers.get(cmd_id)
            if handler is None:
                raise TaCommandError("unknown command %d" % cmd_id)
            ret = yield from handler(ctx, args)
        except ChannelError:
            pass
        except TaCommandError:
            ctx.channel.complete_error()
        else:
            ctx.channel.complete(ret if ret is not None else b"")
        yield Exit()


# -- registry -----------------------------------------------------------------

@dataclass(frozen=True)
class TaSpec:
    image: EnclaveImage
    handlers: Dict[int, Handler]


REGISTRY: Dict[str, TaSpec] = {}


def register_ta(name: str, mem_pages: int,
                handlers: Dict[int, Handler]) -> None:
    """Register a program: its handler table, served by `standard_loop`.
    The image's command table is the handlers' keys, in order."""
    image = build_image(name, mem_pages, tuple(handlers))
    REGISTRY[name] = TaSpec(image, handlers)


def image_for(name: str) -> EnclaveImage:
    return REGISTRY[name].image


@lru_cache(maxsize=256)
def image_for_pages(name: str, mem_pages: int,
                    channel_pages: int = 1) -> EnclaveImage:
    """The registered program with a custom memory footprint.  The blob (and
    therefore the code page count the runtime derives state_ipa from) stays
    identical to the registered image."""
    spec = REGISTRY[name]
    if mem_pages < spec.image.code_pages:
        raise ValueError("%s needs at least %d pages" % (name,
                                                         spec.image.code_pages))
    return build_image(name, mem_pages, spec.image.cmd_ids, channel_pages)


def load_program(page0: bytes) -> Optional[Callable[[EnclaveRecord], GuestProgram]]:
    """Resolve the marker in a donation's first page to a program factory.
    Returns None when the bytes don't name a registered program."""
    idx = page0.find(b"TA!")
    if idx < 0:
        return None
    end = page0.find(b"\n", idx + 3)
    if end < 0:
        return None
    try:
        name = page0[idx + 3:end].decode("ascii")
    except UnicodeDecodeError:
        return None
    spec = REGISTRY.get(name)
    if spec is None:
        return None

    def factory(rec: EnclaveRecord) -> GuestProgram:
        channel = ChannelView(rec.vm.vcpus[0], rec.channel_ipa,
                              rec.channel_pages)
        ctx = TaContext(rec, channel, spec.image.code_pages << PAGE_SHIFT)
        return standard_loop(ctx, spec.handlers)

    return factory


# -- built-in programs ----------------------------------------------------

def _echo(ctx: TaContext, args: bytes) -> GuestProgram:
    yield Work(1 + len(args) // 256)
    return args


register_ta("echo", 4, {0: _echo})


# counter: a persistent u32; cmd 1 increments, cmd 2 reads

def _counter_increment(ctx: TaContext, args: bytes) -> GuestProgram:
    yield Work(1)
    count = struct.unpack("<I", ctx.read_state(0, 4))[0] + 1
    ctx.write_state(0, struct.pack("<I", count))
    return struct.pack("<I", count)


def _counter_get(ctx: TaContext, args: bytes) -> GuestProgram:
    yield Work(1)
    return ctx.read_state(0, 4)


register_ta("counter", 4, {1: _counter_increment, 2: _counter_get})


def _spin(ctx: TaContext, args: bytes) -> GuestProgram:
    """Burns work in slices so a timer can land mid-command."""
    if len(args) >= 8:
        slices, per_slice = struct.unpack("<II", args[:8])
    else:
        slices, per_slice = 8, 4
    for _ in range(slices):
        yield Work(per_slice)
    return b"spun"


register_ta("spinner", 4, {1: _spin})


# wallet state layout, relative to state_ipa
WALLET_MAGIC = 0x31544C57        # "WLT1" little-endian
_WALLET_HDR = struct.Struct("<II")  # magic, key count
_KEY_LEN = 32
_MASTER_OFF = 8
_SLOTS_OFF = _MASTER_OFF + _KEY_LEN
MAX_KEYS = 64

CMD_CREATE_MASTER = 1
CMD_DERIVE = 2
CMD_ADDRESS = 3
CMD_PUBKEY = 4
CMD_SIGN = 5
CMD_VERIFY = 6

TAG_LEN = 64


def wallet_master_key(seed: bytes) -> bytes:
    return digest_chain(b"wallet/master", seed)


def wallet_derived_key(master: bytes, index: int) -> bytes:
    return digest_chain(b"wallet/key/" + struct.pack("<I", index), master)


def wallet_address(key: bytes) -> bytes:
    return digest_chain(b"wallet/address", key)[:20]


def wallet_pubkey(key: bytes) -> bytes:
    return digest_chain(b"wallet/pub", key)


def wallet_tag(key: bytes, msg: bytes) -> bytes:
    return (digest_chain(b"wallet/sign/a", key + msg)
            + digest_chain(b"wallet/sign/b", key + msg))


# The wallet is a key manager.  All secrets live in private state pages;
# the channel only ever carries declared outputs (ok, key id, address,
# pubkey, tag, verdict byte).  Request payloads: 1: seed bytes; 2: empty;
# 3,4: <I key_id; 5: <I key_id + msg; 6: <I key_id + msg + 64-byte tag
# (tag last).

def _require_master(ctx: TaContext) -> Tuple[bytes, int]:
    magic, count = _WALLET_HDR.unpack(ctx.read_state(0, 8))
    if magic != WALLET_MAGIC:
        raise NoMasterKey("no master key yet")
    return ctx.read_state(_MASTER_OFF, _KEY_LEN), count


def _arg_key(ctx: TaContext, args: bytes) -> bytes:
    """The derived key named by the <I key id that leads `args`."""
    if len(args) < 4:
        raise TaCommandError("missing key id")
    _, count = _require_master(ctx)
    key_id = struct.unpack("<I", args[:4])[0]
    if key_id >= count:
        raise BadKeyId("key %d of %d" % (key_id, count))
    return ctx.read_state(_SLOTS_OFF + key_id * _KEY_LEN, _KEY_LEN)


def _create_master(ctx: TaContext, args: bytes) -> GuestProgram:
    yield Work(16)
    master = wallet_master_key(args)
    ctx.write_state(0, _WALLET_HDR.pack(WALLET_MAGIC, 0))
    ctx.write_state(_MASTER_OFF, master)
    return b"ok"


def _derive(ctx: TaContext, args: bytes) -> GuestProgram:
    yield Work(8)
    master, count = _require_master(ctx)
    if count >= MAX_KEYS:
        raise TaCommandError("key table full")
    key = wallet_derived_key(master, count)
    ctx.write_state(_SLOTS_OFF + count * _KEY_LEN, key)
    ctx.write_state(0, _WALLET_HDR.pack(WALLET_MAGIC, count + 1))
    return struct.pack("<I", count)


def _address(ctx: TaContext, args: bytes) -> GuestProgram:
    yield Work(4)
    return wallet_address(_arg_key(ctx, args))


def _pubkey(ctx: TaContext, args: bytes) -> GuestProgram:
    yield Work(4)
    return wallet_pubkey(_arg_key(ctx, args))


def _sign(ctx: TaContext, args: bytes) -> GuestProgram:
    yield Work(8)
    return wallet_tag(_arg_key(ctx, args), args[4:])


def _verify(ctx: TaContext, args: bytes) -> GuestProgram:
    yield Work(8)
    if len(args) < 4 + TAG_LEN:
        raise TaCommandError("args too short for a tag")
    key = _arg_key(ctx, args)
    msg, tag = args[4:-TAG_LEN], args[-TAG_LEN:]
    return b"\x01" if wallet_tag(key, msg) == tag else b"\x00"


register_ta("wallet", 8, {
    CMD_CREATE_MASTER: _create_master,
    CMD_DERIVE: _derive,
    CMD_ADDRESS: _address,
    CMD_PUBKEY: _pubkey,
    CMD_SIGN: _sign,
    CMD_VERIFY: _verify,
})


# -- adversarial programs (used by the attack playbook) ---------------------

def _escalate(ctx: TaContext, args: bytes) -> GuestProgram:
    """Tries the two management hypercalls an enclave must never get."""
    outcomes = []
    try:
        yield CreateEnclave((0, 1), ImageMeta(1, 1))
        outcomes.append(b"create:allowed")
    except PrivilegeViolation:
        outcomes.append(b"create:denied")
    try:
        yield InvokeEnclave(1)
        outcomes.append(b"invoke:allowed")
    except PrivilegeViolation:
        outcomes.append(b"invoke:denied")
    return b",".join(outcomes)


register_ta("escalate", 4, {1: _escalate})


def _probe(ctx: TaContext, args: bytes) -> GuestProgram:
    """Reads an arbitrary IPA through the enclave's own table and reports
    what came back: data, or which fault."""
    yield Work(1)
    if len(args) < 8:
        raise TaCommandError("need a <Q address")
    (ipa,) = struct.unpack("<Q", args[:8])
    out = ctx.read(ipa, 4)
    if isinstance(out, AccessFault):
        return b"fault:" + out.kind.value.encode("ascii")
    return b"data:" + out.hex().encode("ascii")


register_ta("probe", 4, {1: _probe})
