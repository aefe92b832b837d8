"""Built-in enclave programs, checked against independent recomputation."""
import hashlib
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enclavesim.channel import ChannelStatus
from enclavesim.errors import SimulationError
from enclavesim.guest_os import EnclaveDriver
from enclavesim.harness.scenario import run_scenario_text
from enclavesim.machine import MachineConfig, PAGE_SHIFT
from enclavesim.sim import Simulation
from enclavesim.stage2 import PERM_RO
from enclavesim.ta_runtime import (
    CMD_ADDRESS,
    CMD_CREATE_MASTER,
    CMD_DERIVE,
    CMD_PUBKEY,
    CMD_SIGN,
    CMD_VERIFY,
    MAX_KEYS,
    REGISTRY,
    TAG_LEN,
    digest_chain,
    image_for,
    image_for_pages,
    load_program,
    wallet_address,
    wallet_derived_key,
    wallet_master_key,
    wallet_pubkey,
    wallet_tag,
)

import reference_wallet as ref


def make_driver(frames=256):
    sim = Simulation(MachineConfig(frames=frames))
    return sim, EnclaveDriver(sim)


# -- loader ---------------------------------------------------------------------


def test_load_program_resolves_registered_names():
    for name in REGISTRY:
        blob = image_for(name).code_blob
        page0 = blob[:4096] + bytes(max(0, 4096 - len(blob)))
        assert load_program(page0) is not None


def test_load_program_rejects_junk():
    assert load_program(bytes(4096)) is None
    assert load_program(b"TA!nosuchprogram\n" + bytes(4000)) is None
    assert load_program(b"TA!echo" + bytes(4000)) is None  # marker unterminated
    assert load_program(b"TA!\xff\xfe\n" + bytes(4000)) is None


# sha256 of each registered image's packed bytes, and of one custom size
IMAGE_PINS = {
    "counter": "52c5d44a4936b67988200271e293f2540941a978e9591622bca916149e6495b5",
    "echo": "f556535458581e6f2adff0cd051d4b3a4c086f95abc20cbb8d964658659be605",
    "escalate": "7972b2b947db601564de02dc0565f542b288dca8a643bad04c0ff8770458df11",
    "probe": "9c1c803a54b9f337881cfdc44067164d80cb84060ab69fe12617a7f8ce860bb7",
    "spinner": "31b49573ca83f135694b8d3f2e6fdd98f8f5bd536726f8de8e15fed10f3d99d6",
    "wallet": "4f556be1300d2389a470e6fa360efaa3e12c132d133dea96492eae75778fed80",
}
WALLET_12X2_PIN = \
    "c7f5dae4050f21a229a099e0c67cc2cb1e1416d7430be518f5dc5161d540a788"


def test_registered_images_are_pinned():
    got = {n: hashlib.sha256(spec.image.pack()).hexdigest()
           for n, spec in REGISTRY.items()}
    assert got == IMAGE_PINS
    custom = image_for_pages("wallet", 12, 2).pack()
    assert hashlib.sha256(custom).hexdigest() == WALLET_12X2_PIN


def test_image_for_pages_keeps_blob():
    small = image_for("echo")
    big = image_for_pages("echo", 32, 2)
    assert big.code_blob == small.code_blob
    assert big.mem_size_pages == 32 and big.channel_size_pages == 2
    with pytest.raises(ValueError):
        image_for_pages("echo", 0, 1)


# -- digest chain ----------------------------------------------------------------


def test_digest_chain_matches_reference():
    assert digest_chain(b"lbl", b"data") == ref._chain(b"lbl", b"data")
    assert digest_chain(b"", b"") == ref._chain(b"", b"")


def test_wallet_helpers_match_reference():
    seed = b"some seed"
    master = wallet_master_key(seed)
    assert master == ref.ref_master(seed)
    key = wallet_derived_key(master, 3)
    assert key == ref.ref_key(master, 3)
    assert wallet_address(key) == ref.ref_address(key)
    assert wallet_pubkey(key) == ref.ref_pubkey(key)
    assert wallet_tag(key, b"msg") == ref.ref_tag(key, b"msg")


# -- echo / counter / spinner ------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.binary(max_size=2000))
def test_echo_returns_exactly_what_went_in(payload):
    sim, driver = make_driver()
    fd = driver.create(image_for("echo"))
    status, ret = driver.invoke(fd, 0, payload)
    assert status is ChannelStatus.DONE
    assert ret == payload


def test_counter_persists_across_invokes():
    sim, driver = make_driver()
    fd = driver.create(image_for("counter"))
    for expect in (1, 2, 3):
        status, ret = driver.invoke(fd, 1)
        assert status is ChannelStatus.DONE
        assert struct.unpack("<I", ret)[0] == expect
    status, ret = driver.invoke(fd, 2)
    assert struct.unpack("<I", ret)[0] == 3


def test_spinner_work_is_proportional():
    sim, driver = make_driver()
    fd = driver.create(image_for("spinner"))
    ledger = sim.machine.ledger
    w0 = ledger.work_units
    driver.invoke(fd, 1, struct.pack("<II", 5, 7))
    assert ledger.work_units - w0 == 35
    w0 = ledger.work_units
    driver.invoke(fd, 1, b"")  # defaults: 8 slices of 4
    assert ledger.work_units - w0 == 32


def test_unknown_command_is_an_error_reply():
    sim, driver = make_driver()
    fd = driver.create(image_for("echo"))
    status, ret = driver.invoke(fd, 42, b"x")
    assert status is ChannelStatus.ERROR
    assert ret == b""
    # the loop survives: next command still works
    assert driver.invoke(fd, 0, b"ok") == (ChannelStatus.DONE, b"ok")


# -- wallet -------------------------------------------------------------------


def wallet_fixture(seed=b"unit seed"):
    sim, driver = make_driver()
    fd = driver.create(image_for("wallet"))
    status, ret = driver.invoke(fd, CMD_CREATE_MASTER, seed)
    assert (status, ret) == (ChannelStatus.DONE, b"ok")
    return sim, driver, fd


def test_wallet_end_to_end_against_reference():
    seed = b"unit seed"
    sim, driver, fd = wallet_fixture(seed)
    master = ref.ref_master(seed)
    for i in range(3):
        status, ret = driver.invoke(fd, CMD_DERIVE)
        assert status is ChannelStatus.DONE
        assert struct.unpack("<I", ret)[0] == i
    key1 = ref.ref_key(master, 1)
    status, addr = driver.invoke(fd, CMD_ADDRESS, struct.pack("<I", 1))
    assert (status, addr) == (ChannelStatus.DONE, ref.ref_address(key1))
    status, pub = driver.invoke(fd, CMD_PUBKEY, struct.pack("<I", 1))
    assert (status, pub) == (ChannelStatus.DONE, ref.ref_pubkey(key1))
    msg = b"transfer 12 units"
    status, tag = driver.invoke(fd, CMD_SIGN, struct.pack("<I", 1) + msg)
    assert (status, tag) == (ChannelStatus.DONE, ref.ref_tag(key1, msg))
    status, verdict = driver.invoke(fd, CMD_VERIFY,
                                    struct.pack("<I", 1) + msg + tag)
    assert (status, verdict) == (ChannelStatus.DONE, b"\x01")
    bad = bytes([tag[0] ^ 1]) + tag[1:]
    status, verdict = driver.invoke(fd, CMD_VERIFY,
                                    struct.pack("<I", 1) + msg + bad)
    assert (status, verdict) == (ChannelStatus.DONE, b"\x00")


def test_wallet_frozen_vectors():
    sim, driver, fd = wallet_fixture(ref.VECTOR_SEED)
    driver.invoke(fd, CMD_DERIVE)
    _, addr = driver.invoke(fd, CMD_ADDRESS, struct.pack("<I", 0))
    assert addr == ref.VECTOR_ADDRESS0
    _, pub = driver.invoke(fd, CMD_PUBKEY, struct.pack("<I", 0))
    assert pub == ref.VECTOR_PUBKEY0
    _, tag = driver.invoke(fd, CMD_SIGN,
                           struct.pack("<I", 0) + ref.VECTOR_MESSAGE)
    assert tag == ref.VECTOR_TAG


def test_wallet_refuses_use_before_master():
    sim, driver = make_driver()
    fd = driver.create(image_for("wallet"))
    for cmd, args in ((CMD_DERIVE, b""),
                      (CMD_ADDRESS, struct.pack("<I", 0)),
                      (CMD_SIGN, struct.pack("<I", 0) + b"m")):
        status, ret = driver.invoke(fd, cmd, args)
        assert status is ChannelStatus.ERROR


def test_wallet_rejects_bad_key_id():
    sim, driver, fd = wallet_fixture()
    driver.invoke(fd, CMD_DERIVE)
    status, _ = driver.invoke(fd, CMD_ADDRESS, struct.pack("<I", 5))
    assert status is ChannelStatus.ERROR
    status, _ = driver.invoke(fd, CMD_ADDRESS, b"\x01")  # short args
    assert status is ChannelStatus.ERROR
    # a verify one byte short of a key id and a tag
    status, _ = driver.invoke(fd, CMD_VERIFY, bytes(3 + TAG_LEN))
    assert status is ChannelStatus.ERROR


def test_wallet_key_table_holds_max_keys():
    sim, driver, fd = wallet_fixture()
    for i in range(MAX_KEYS):
        assert driver.invoke(fd, CMD_DERIVE) == (ChannelStatus.DONE,
                                                 struct.pack("<I", i))
    assert driver.invoke(fd, CMD_DERIVE) == (ChannelStatus.ERROR, b"")
    last = struct.pack("<I", MAX_KEYS - 1)
    assert driver.invoke(fd, CMD_ADDRESS, last)[0] is ChannelStatus.DONE
    status, _ = driver.invoke(fd, CMD_ADDRESS, struct.pack("<I", MAX_KEYS))
    assert status is ChannelStatus.ERROR


def test_wallet_secrets_stay_in_private_pages():
    seed = b"unit seed"
    sim, driver, fd = wallet_fixture(seed)
    driver.invoke(fd, CMD_DERIVE)
    master = ref.ref_master(seed)
    rec = driver.record_of(fd)
    frames = rec.frames()
    blob = b"".join(sim.machine.read_frame(f, 0, 4096)
                    for f in frames[:rec.private_pages])
    assert master in blob
    for f in frames[rec.private_pages:]:
        assert master not in sim.machine.read_frame(f, 0, 4096)


# -- state bounds -------------------------------------------------------------


@pytest.mark.parametrize("script", [
    "create c counter mem=2\ninvoke c 1\nexpect status error\ndestroy c\n",
    "create w wallet mem=2\ninvoke w 1 str:seed\nexpect status error\n"
    "destroy w\n",
], ids=["counter", "wallet"])
def test_state_past_the_private_pages_is_an_error_reply(script):
    """With no page after its code, a stateful program's state would be the
    channel: the command fails instead, and the enclave can be destroyed."""
    result = run_scenario_text(script)
    assert result.ok, result.violations


@pytest.mark.parametrize("perms, access", [(None, "read"), (PERM_RO, "write")],
                         ids=["unmapped", "read-only"])
def test_state_page_lost_from_the_enclaves_table_fails_the_invoke(perms,
                                                                  access):
    """State lives behind the enclave's own table: with its state page
    unmapped a command cannot read it, and with it read-only it cannot
    write it.  The program is over and the invoker is running again."""
    sim, driver = make_driver()
    fd = driver.create(image_for("counter"))
    rec = driver.record_of(fd)
    page, vcpu = image_for("counter").code_pages, rec.vm.vcpus[0]
    if perms is None:
        rec.vm.table.unmap(page, vcpu)
    else:
        rec.vm.table.protect(page, perms, vcpu)
    with pytest.raises(SimulationError,
                       match="^TA state %s fault: " % access):
        driver.invoke(fd, 1)
    assert sim.hv.stack_of(0) == [sim.primary_vcpu(0)]
    assert vcpu.saved_context.gi_frame is None


def test_wallet_without_a_state_page_keeps_its_key_out_of_the_channel():
    sim, driver = make_driver()
    fd = driver.create(image_for_pages("wallet", 2, 1))
    assert driver.invoke(fd, CMD_CREATE_MASTER, b"seed") == \
        (ChannelStatus.ERROR, b"")
    channel = sim.vm_read(sim.hv.primary, driver.fd_info(fd).channel.base_ipa,
                          4096)
    master = wallet_master_key(b"seed")
    assert not any(master[i:i + 4] in channel for i in range(29))
    driver.destroy(fd)


# -- adversarial programs -------------------------------------------------------


def test_escalate_is_denied_both_ways():
    sim, driver = make_driver()
    fd = driver.create(image_for("escalate"))
    status, ret = driver.invoke(fd, 1)
    assert status is ChannelStatus.DONE
    assert ret == b"create:denied,invoke:denied"


def test_probe_sees_only_its_own_pages():
    sim, driver = make_driver()
    fd = driver.create(image_for_pages("probe", 4, 1))
    rec = driver.record_of(fd)
    # inside: the first code byte of its own image
    status, ret = driver.invoke(fd, 1, struct.pack("<Q", 0))
    assert status is ChannelStatus.DONE
    assert ret.startswith(b"data:")
    # one page past the channel: nothing mapped there
    beyond = len(rec.pages) << PAGE_SHIFT
    status, ret = driver.invoke(fd, 1, struct.pack("<Q", beyond))
    assert ret == b"fault:unmapped"
    # a primary-side address has no meaning in the enclave's space
    status, ret = driver.invoke(fd, 1, struct.pack("<Q", 200 << PAGE_SHIFT))
    assert ret == b"fault:unmapped"
    # an address shorter than a <Q fails the command
    assert driver.invoke(fd, 1, bytes(7)) == (ChannelStatus.ERROR, b"")
