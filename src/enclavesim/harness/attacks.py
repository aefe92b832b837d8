"""Scripted attacks against the isolation claims.

Each attack builds a fresh simulation, sets up a victim, then tries to break
one specific guarantee from the outside.  An attempt is "contained" when the
system refused it the way the guarantee demands (a fault, zeros, a denial).
The suite passes only at 100% containment, and each attack carries a sanity
probe proving it attacked something real rather than an empty room.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List

from ..guest_os import EnclaveDriver
from ..machine import PAGE_SHIFT, PAGE_SIZE, MachineConfig
from ..sim import Simulation
from ..stage2 import AccessFault, FaultKind
from ..ta_runtime import (
    image_for,
    image_for_pages,
    wallet_derived_key,
    wallet_master_key,
)
from .oracles import SecretScanner


@dataclass
class AttackResult:
    name: str
    attempts: int = 0
    contained: int = 0
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.attempts > 0 and self.contained == self.attempts

    def attempt(self, contained: bool, note: str = "") -> None:
        self.attempts += 1
        if contained:
            self.contained += 1
        elif note:
            self.notes.append(note)

    def line(self) -> str:
        verdict = "contained" if self.ok else "BREACHED"
        return "%-22s %4d/%-4d %s" % (self.name, self.contained,
                                      self.attempts, verdict)


def _fresh(frames: int, seed: int) -> tuple:
    sim = Simulation(MachineConfig(frames=frames), seed=seed)
    return sim, EnclaveDriver(sim)


def attack_steal_runtime_memory(seed: int = 0) -> AttackResult:
    """Primary touches every donated private page of a live enclave; every
    single access must take a translation fault."""
    res = AttackResult("steal-private-memory")
    sim, driver = _fresh(512, seed)
    fd = driver.create(image_for_pages("echo", 256, 1))
    rec = driver.record_of(fd)
    primary = sim.hv.primary
    for page in rec.primary_private_pages():
        got = sim.vm_read(primary, page << PAGE_SHIFT, 16)
        res.attempt(isinstance(got, AccessFault)
                    and got.kind is FaultKind.UNMAPPED,
                    "read of page %#x leaked %r" % (page, got))
    for page in rec.primary_private_pages():
        got = sim.vm_write(primary, page << PAGE_SHIFT, b"\xa5" * 16)
        res.attempt(isinstance(got, AccessFault)
                    and got.kind is FaultKind.UNMAPPED,
                    "write to page %#x landed" % page)
    # sanity: the victim is alive and the hammering changed nothing
    status, ret = driver.invoke(fd, 0, b"still there?")
    if ret != b"still there?":
        res.notes.append("victim stopped echoing after the attack")
        res.contained = 0
    driver.destroy(fd)
    return res


def attack_scavenge_after_destroy(seed: int = 0) -> AttackResult:
    """Load secrets into a wallet, destroy it, then scavenge the reclaimed
    pages and all of RAM for residue."""
    res = AttackResult("scavenge-after-destroy")
    sim, driver = _fresh(128, seed)
    fd = driver.create(image_for("wallet"))
    seed_bytes = sim.rng.randbytes(32)
    driver.invoke(fd, 1, seed_bytes)
    driver.invoke(fd, 2)
    rec = driver.record_of(fd)
    reclaimed = rec.primary_private_pages() + rec.primary_channel_pages()
    driver.destroy(fd)
    primary = sim.hv.primary
    for page in reclaimed:
        got = sim.vm_read(primary, page << PAGE_SHIFT, PAGE_SIZE)
        res.attempt(got == bytes(PAGE_SIZE),
                    "page %#x came back dirty" % page)
    master = wallet_master_key(seed_bytes)
    hits = SecretScanner(sim.machine).scan_frames(
        [master, wallet_derived_key(master, 0)])
    res.attempt(not hits, "key material survives at %r" % hits[:3])
    return res


def attack_scan_for_live_secrets(seed: int = 0) -> AttackResult:
    """While the wallet is live, sweep everything the primary can map for
    the master and derived keys.  The keys must exist in RAM (otherwise the
    scan proves nothing) yet be invisible to the primary."""
    res = AttackResult("scan-live-secrets")
    sim, driver = _fresh(128, seed)
    fd = driver.create(image_for("wallet"))
    seed_bytes = sim.rng.randbytes(32)
    driver.invoke(fd, 1, seed_bytes)
    driver.invoke(fd, 2)
    master = wallet_master_key(seed_bytes)
    patterns = [master, wallet_derived_key(master, 0)]
    scanner = SecretScanner(sim.machine)
    somewhere = scanner.scan_frames(patterns)
    res.attempt(len(somewhere) >= 2,
                "planted secrets not found anywhere; scan is vacuous")
    reachable = scanner.scan_vm_reachable(sim.hv, sim.hv.primary.vmid,
                                          patterns)
    res.attempt(not reachable,
                "primary can reach secrets at %r" % reachable[:3])
    driver.destroy(fd)
    return res


def attack_privilege_escalation(seed: int = 0) -> AttackResult:
    """An enclave issues the management hypercalls (create, invoke) that
    only the primary may use."""
    res = AttackResult("privilege-escalation")
    sim, driver = _fresh(128, seed)
    fd = driver.create(image_for("escalate"))
    _, ret = driver.invoke(fd, 1)
    outcomes = ret.split(b",") if ret else []
    for call in (b"create", b"invoke"):
        verdict = [o for o in outcomes if o.startswith(call)]
        res.attempt(verdict == [call + b":denied"],
                    "%s hypercall was not denied: %r" % (call.decode(), ret))
    driver.destroy(fd)
    return res


def attack_address_space_probe(seed: int = 0) -> AttackResult:
    """An enclave reads beyond its donated region.  Its address space must
    end exactly at the donation; inside stays readable."""
    res = AttackResult("address-space-probe")
    sim, driver = _fresh(128, seed)
    fd = driver.create(image_for("probe"))
    rec = driver.record_of(fd)
    end = rec.total_pages << PAGE_SHIFT
    for ipa in (end, end + PAGE_SIZE, 1 << 20, 1 << 30):
        _, ret = driver.invoke(fd, 1, struct.pack("<Q", ipa))
        res.attempt(ret == b"fault:unmapped",
                    "probe of %#x returned %r" % (ipa, ret))
    # sanity: the same probe inside the donation does yield data
    _, ret = driver.invoke(fd, 1, struct.pack("<Q", 0))
    if not ret.startswith(b"data:"):
        res.notes.append("in-bounds probe failed; prober is broken")
        res.contained = 0
    driver.destroy(fd)
    return res


PLAYBOOK = (
    attack_steal_runtime_memory,
    attack_scavenge_after_destroy,
    attack_scan_for_live_secrets,
    attack_privilege_escalation,
    attack_address_space_probe,
)


def run_attacks(seed: int = 0) -> List[AttackResult]:
    return [attack(seed) for attack in PLAYBOOK]


def format_attack_report(results: List[AttackResult]) -> str:
    lines = [r.line() for r in results]
    for r in results:
        for note in r.notes:
            lines.append("    ! " + note)
    total = sum(r.attempts for r in results)
    contained = sum(r.contained for r in results)
    lines.append("containment: %d/%d (%.1f%%)"
                 % (contained, total, 100.0 * contained / total if total else 0.0))
    return "\n".join(lines)
