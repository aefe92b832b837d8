"""Enclave-side runtime: the serve loop and the built-in demo programs.

A program is a generator over GuestOps.  It lives entirely behind the
enclave's own stage-2 table: channel traffic goes through a ChannelView on
that table and private state through TaContext.read/write at ``state_ipa``
(the first page after the code blob).  Nothing here can touch memory the
enclave does not map.

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
    ChannelNoRequest,
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
        self.machine = rec.vm.table.machine

    def read(self, ipa: int, length: int) -> Union[bytes, AccessFault]:
        out, _ = guest_access(self.machine, self.rec.vm.table, ipa,
                              Access.READ, length=length)
        return out

    def write(self, ipa: int, data: bytes) -> Union[bytes, AccessFault]:
        out, _ = guest_access(self.machine, self.rec.vm.table, ipa,
                              Access.WRITE, data=data)
        return out

    def read_state(self, offset: int, length: int) -> bytes:
        out = self.read(self.state_ipa + offset, length)
        if isinstance(out, AccessFault):
            raise SimulationError("TA state read fault: %s" % (out.describe(),))
        return out

    def write_state(self, offset: int, data: bytes) -> None:
        out = self.write(self.state_ipa + offset, data)
        if isinstance(out, AccessFault):
            raise SimulationError("TA state write fault: %s" % (out.describe(),))


Handler = Callable[[TaContext, bytes], GuestProgram]


def standard_loop(ctx: TaContext,
                  handlers: Dict[int, Handler]) -> GuestProgram:
    """Serve forever: take a request, run its handler, publish the reply,
    give control back.  Handler failures become status ERROR with an empty
    payload; nothing escapes the loop."""
    while True:
        try:
            cmd_id, args = ctx.channel.serve()
        except ChannelNoRequest:
            yield Exit()
            continue
        handler = handlers.get(cmd_id)
        if handler is None:
            ctx.channel.complete_error()
            yield Exit()
            continue
        try:
            ret = yield from handler(ctx, args)
        except TaCommandError:
            ctx.channel.complete_error()
            yield Exit()
            continue
        ctx.channel.complete(ret if ret is not None else b"")
        yield Exit()


# -- registry -----------------------------------------------------------------

@dataclass(frozen=True)
class TaSpec:
    name: str
    image: EnclaveImage
    program: Callable[[TaContext], GuestProgram]


REGISTRY: Dict[str, TaSpec] = {}


def register_ta(name: str, mem_pages: int, cmd_ids: Tuple[int, ...]):
    def deco(fn: Callable[[TaContext], GuestProgram]):
        image = build_image(name, mem_pages, tuple(cmd_ids))
        REGISTRY[name] = TaSpec(name, image, fn)
        return fn
    return deco


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
        machine = rec.vm.table.machine
        channel = ChannelView(machine, rec.vm.table, rec.channel_ipa,
                              rec.channel_pages, "enclave")
        ctx = TaContext(rec, channel, spec.image.code_pages << PAGE_SHIFT)
        return spec.program(ctx)

    return factory


# -- built-in programs ----------------------------------------------------

@register_ta("echo", mem_pages=4, cmd_ids=(0,))
def echo_program(ctx: TaContext) -> GuestProgram:
    def do_echo(ctx: TaContext, args: bytes) -> GuestProgram:
        yield Work(1 + len(args) // 256)
        return args

    return standard_loop(ctx, {0: do_echo})


@register_ta("counter", mem_pages=4, cmd_ids=(1, 2))
def counter_program(ctx: TaContext) -> GuestProgram:
    """Persistent u32 counter: cmd 1 increments, cmd 2 reads."""

    def increment(ctx: TaContext, args: bytes) -> GuestProgram:
        yield Work(1)
        count = struct.unpack("<I", ctx.read_state(0, 4))[0] + 1
        ctx.write_state(0, struct.pack("<I", count))
        return struct.pack("<I", count)

    def get(ctx: TaContext, args: bytes) -> GuestProgram:
        yield Work(1)
        return ctx.read_state(0, 4)

    return standard_loop(ctx, {1: increment, 2: get})


@register_ta("spinner", mem_pages=4, cmd_ids=(1,))
def spinner_program(ctx: TaContext) -> GuestProgram:
    """Burns work in slices so a timer can land mid-command."""

    def spin(ctx: TaContext, args: bytes) -> GuestProgram:
        if len(args) >= 8:
            slices, per_slice = struct.unpack("<II", args[:8])
        else:
            slices, per_slice = 8, 4
        for _ in range(slices):
            yield Work(per_slice)
        return b"spun"

    return standard_loop(ctx, {1: spin})


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


@register_ta("wallet", mem_pages=8, cmd_ids=(1, 2, 3, 4, 5, 6))
def wallet_program(ctx: TaContext) -> GuestProgram:
    """Key manager.  All secrets live in private state pages; the channel
    only ever carries declared outputs (ok, key id, address, pubkey, tag,
    verdict byte).

    Request payloads: 1: seed bytes; 2: empty; 3,4: <I key_id;
    5: <I key_id + msg; 6: <I key_id + msg + 64-byte tag (tag last).
    """

    def _require_master(ctx: TaContext) -> Tuple[bytes, int]:
        magic, count = _WALLET_HDR.unpack(ctx.read_state(0, 8))
        if magic != WALLET_MAGIC:
            raise NoMasterKey("no master key yet")
        return ctx.read_state(_MASTER_OFF, _KEY_LEN), count

    def _key(ctx: TaContext, key_id: int, count: int) -> bytes:
        if key_id >= count:
            raise BadKeyId("key %d of %d" % (key_id, count))
        return ctx.read_state(_SLOTS_OFF + key_id * _KEY_LEN, _KEY_LEN)

    def create_master(ctx: TaContext, args: bytes) -> GuestProgram:
        yield Work(16)
        master = wallet_master_key(args)
        ctx.write_state(0, _WALLET_HDR.pack(WALLET_MAGIC, 0))
        ctx.write_state(_MASTER_OFF, master)
        return b"ok"

    def derive(ctx: TaContext, args: bytes) -> GuestProgram:
        yield Work(8)
        master, count = _require_master(ctx)
        if count >= MAX_KEYS:
            raise TaCommandError("key table full")
        key = wallet_derived_key(master, count)
        ctx.write_state(_SLOTS_OFF + count * _KEY_LEN, key)
        ctx.write_state(0, _WALLET_HDR.pack(WALLET_MAGIC, count + 1))
        return struct.pack("<I", count)

    def address(ctx: TaContext, args: bytes) -> GuestProgram:
        yield Work(4)
        if len(args) < 4:
            raise TaCommandError("missing key id")
        _, count = _require_master(ctx)
        key = _key(ctx, struct.unpack("<I", args[:4])[0], count)
        return wallet_address(key)

    def pubkey(ctx: TaContext, args: bytes) -> GuestProgram:
        yield Work(4)
        if len(args) < 4:
            raise TaCommandError("missing key id")
        _, count = _require_master(ctx)
        key = _key(ctx, struct.unpack("<I", args[:4])[0], count)
        return wallet_pubkey(key)

    def sign(ctx: TaContext, args: bytes) -> GuestProgram:
        yield Work(8)
        if len(args) < 4:
            raise TaCommandError("missing key id")
        _, count = _require_master(ctx)
        key = _key(ctx, struct.unpack("<I", args[:4])[0], count)
        return wallet_tag(key, args[4:])

    def verify(ctx: TaContext, args: bytes) -> GuestProgram:
        yield Work(8)
        if len(args) < 4 + TAG_LEN:
            raise TaCommandError("args too short for a tag")
        _, count = _require_master(ctx)
        key = _key(ctx, struct.unpack("<I", args[:4])[0], count)
        msg, tag = args[4:-TAG_LEN], args[-TAG_LEN:]
        ok = wallet_tag(key, msg) == tag
        return b"\x01" if ok else b"\x00"

    return standard_loop(ctx, {
        CMD_CREATE_MASTER: create_master,
        CMD_DERIVE: derive,
        CMD_ADDRESS: address,
        CMD_PUBKEY: pubkey,
        CMD_SIGN: sign,
        CMD_VERIFY: verify,
    })


# -- adversarial programs (used by the attack suite) ------------------------

@register_ta("escalate", mem_pages=4, cmd_ids=(1,))
def escalate_program(ctx: TaContext) -> GuestProgram:
    """Tries the two management hypercalls an enclave must never get."""

    def attempt(ctx: TaContext, args: bytes) -> GuestProgram:
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

    return standard_loop(ctx, {1: attempt})


@register_ta("probe", mem_pages=4, cmd_ids=(1,))
def probe_program(ctx: TaContext) -> GuestProgram:
    """Reads an arbitrary IPA through the enclave's own table and reports
    what came back: data, or which fault."""

    def probe(ctx: TaContext, args: bytes) -> GuestProgram:
        yield Work(1)
        if len(args) < 8:
            raise TaCommandError("need a <Q address")
        (ipa,) = struct.unpack("<Q", args[:8])
        out = ctx.read(ipa, 4)
        if isinstance(out, AccessFault):
            return b"fault:" + out.kind.value.encode("ascii")
        return b"data:" + out.hex().encode("ascii")

    return standard_loop(ctx, {1: probe})
