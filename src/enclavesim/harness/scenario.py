"""Line-oriented scenario scripts.

A scenario drives one simulation end to end: it sizes the machine, creates
enclaves through its one driver, invokes commands, injects timer
interrupts, plays adversary (guest-level reads and writes from the primary
into memory it should not reach), scans memory for secrets and asserts on
outcomes.  The same script always produces the same trace.

Format, one statement per line, `#` starts a comment:

    machine frames=512 pcpus=2 max_vms=8 reserved=64
    seed 7

    create w wallet                 # fd bound to variable `w`
    create e echo mem=16 chan=2 pcpu=1  # image geometry, pinned to pcpu 1
    create s spinner
    invoke w 1 str:master seed      # payload: str:, hex:, rand:N, zero:N
    expect status done
    expect payload str:ok
    secret k wallet str:master seed # the wallet's master and key 0, host-side
    scan primary k                  # or `all`: count hits in physical memory
    expect hits 0
    timer 10                        # arm a timer `delay` cost units out
    invoke s 1 hex:0600000004000000 # six slices of four work units
    expect status preempted
    expect payload len:0
    resume s                        # re-enter after a preemption
    tick                            # poll timers outside guest execution
    destroy w
    destroy w
    expect error BadFd              # previous statement must have failed so

    adversary read e private 0      # primary reads 16 bytes of donated page 0
    expect fault unmapped
    adversary write e private 3     # primary writes 16 bytes of 0xa5
    adversary read e private all    # every whole page in order, one outcome
    expect fault unmapped           # held: one attempt per page judged
    aux a1                          # new bare vcpu on pcpu 0 in VM aux<vmid>
    schedule a1
    interrupt primary               # unwinds everything above the base
    expect outcome unwound
    schedule a1
    yield                           # pop the running vcpu
    aux b pcpu=1                    # a vcpu pinned to pcpu 1 ...
    schedule b
    interrupt primary pcpu=1        # ... unwound by pcpu 1's primary
    expect outcome unwound

`expect` always refers to the immediately preceding action.  Every
action's outcome is recorded, never raised, so containment is scriptable:
an adversary access's fault, an exchange's status and payload, and any
simulator error the action raises; an error that the next statement does
not `expect error` fails the run.  A successful adversary read leaves its
bytes as the `payload`.  An adversary statement names the pages the
variable's enclave was created with, so after `destroy` it probes the
former pages: a reclaimed page reads as zeros, and one that was donated
again faults.  With `all` it touches every page in order: if each faulted
with the same kind, that is the `fault`; otherwise a read's `payload` is
the whole pages that did not fault, concatenated.  `secret`
computes patterns on the host; `scan` counts their occurrences in every
frame (`all`) or in the frames the primary can map (`primary`).  `aux
<var>` binds a variable, as `create` does, to a new vCPU whose VM the
hypervisor names `aux<vmid>`; binding it again makes another vCPU.
`primary` names the primary's vCPU, so it is no aux variable.  A `timer`
delay is 0 to 2**32 - 1 cost units.  `create`, `timer`, `aux` and `yield`
act on pCPU 0 unless given `pcpu=N`.  `interrupt <var> pcpu=N` delivers on
pCPU N, and there `primary` names pCPU N's primary vCPU; without `pcpu=`
the interrupt goes to the pCPU the vCPU is pinned to.

Each action has a usage line in `_USAGE`.  A statement with too few or too
many words, or a keyword its usage does not offer, raises ScenarioParseError
before any statement runs; a bad value raises it when its statement runs.

The interpreter is the one way the harness acts on a simulation: the
stack, lifecycle and mixed fuzz profiles feed it their statements one at a
time, and the statements they ran replay with `enclavesim run`.  The attack
playbook is five scripts in `playbook/`, run by `run_attacks`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from os.path import commonprefix
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..channel import ChannelStatus
from ..errors import ConfigError, ScenarioParseError, SimulationError
from ..guest_os import EnclaveDriver
from ..machine import PAGE_SHIFT, PAGE_SIZE, MachineConfig
from ..sim import Simulation
from ..stage2 import AccessFault
from ..ta_runtime import (REGISTRY, image_for, image_for_pages,
                          wallet_derived_key, wallet_master_key)
from .oracles import (SecretScanner, WriteConfinementOracle, ZeroizeWatch,
                      standard_checks)


class ExpectationFailed(SimulationError):
    """A scripted `expect` did not hold."""


class Step(NamedTuple):
    lineno: int
    op: str
    args: Tuple[str, ...]

    def fail(self, msg: str) -> ScenarioParseError:
        return ScenarioParseError("line %d: %s" % (self.lineno, msg))

    def number(self, text: str, valid: Optional[range] = None,
               what: str = "value") -> int:
        """`text` as an integer, which must lie in `valid` if given."""
        try:
            value = int(text, 0)
        except ValueError:
            raise self.fail("bad integer %r" % text) from None
        if valid is not None and value not in valid:
            raise self.fail("%s %d not in %r" % (what, value, valid))
        return value

    def options(self, parts: Tuple[str, ...], allowed: Dict[str, str],
                valid: Optional[Dict[str, range]] = None) -> Dict[str, int]:
        """key=value integers; `allowed` maps each key to its field name."""
        out = {}
        for part in parts:
            key, eq, val = part.partition("=")
            if not eq:
                raise self.fail("expected key=value, got %r" % part)
            if key not in allowed:
                raise self.fail("unknown key %r" % key)
            out[allowed[key]] = self.number(val, (valid or {}).get(key), key)
        return out


@dataclass
class Scenario:
    config: MachineConfig
    seed: int
    steps: List[Step]


@dataclass
class ScenarioResult:
    sim: Simulation
    driver: EnclaveDriver
    outputs: List[str] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


_U32 = 1 << 32   # command ids, payload lengths and image sizes are u32
# each action's fewest and most words after its name, and its usage line,
# in which a bare word is a keyword the statement has there and `a|b` a
# choice of keywords; a payload or value may hold spaces, so any number
_ANY = float("inf")
_USAGE = {
    "create": (2, 5, "create <var> <program> [mem=N] [chan=N] [pcpu=N]"),
    "invoke": (2, _ANY, "invoke <var> <cmd> [payload]"),
    "resume": (1, 1, "resume <var>"),
    "destroy": (1, 1, "destroy <var>"),
    "timer": (1, 2, "timer <delay> [pcpu=N]"),
    "tick": (0, 0, "tick"),
    "adversary": (4, 4, "adversary read|write <var> private|channel <idx>|all"),
    "expect": (2, _ANY,
               "expect status|payload|fault|error|outcome|hits <value>"),
    "aux": (1, 2, "aux <var> [pcpu=N]"),
    "schedule": (1, 1, "schedule <var>"),
    "yield": (0, 1, "yield [pcpu=N]"),
    "interrupt": (1, 2, "interrupt <var> [pcpu=N]"),
    "secret": (3, _ANY, "secret <var> wallet <payload>"),
    "scan": (2, 2, "scan all|primary <var>"),
}


def parse_scenario(text: str) -> Scenario:
    config_kw: Dict[str, int] = {}
    seed = 0
    steps: List[Step] = []
    saw_action = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        step = Step(lineno, parts[0], tuple(parts[1:]))
        if step.op in ("machine", "seed") and saw_action:
            raise step.fail("%s directive after first action" % step.op)
        if step.op == "machine":
            config_kw.update(step.options(
                step.args,
                {"frames": "frames", "pcpus": "pcpus", "max_vms": "max_vms",
                 "reserved": "os_reserved_pages"}))
            # checked here, so parsing builds no machine past its bounds
            try:
                MachineConfig(**config_kw).check()
            except ConfigError as err:
                raise step.fail(str(err)) from None
        elif step.op == "seed":
            if len(step.args) != 1:
                raise step.fail("seed takes one integer")
            seed = step.number(step.args[0])
        elif step.op in _USAGE:
            fewest, most, usage = _USAGE[step.op]
            if not fewest <= len(step.args) <= most or any(
                    "<" not in want and "[" not in want
                    and word not in want.split("|")
                    for want, word in zip(usage.split()[1:], step.args)):
                raise step.fail("usage: " + usage)
            saw_action = True
            steps.append(step)
        else:
            raise step.fail("unknown statement %r" % step.op)
    return Scenario(MachineConfig(**config_kw), seed, steps)


class _Runner:
    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.sim = Simulation(scenario.config, seed=scenario.seed)
        self.driver = EnclaveDriver(self.sim)
        self.zerowatch = ZeroizeWatch(self.sim.hv)
        self.confinement = WriteConfinementOracle(self.sim.hv)
        self.sim.machine.observers += [self.zerowatch, self.confinement]
        self.fds: Dict[str, int] = {}
        # primary-view (private, channel) pages of each variable's enclave,
        # kept after destroy for the adversary
        self.pages: Dict[str, Tuple[List[int], List[int]]] = {}
        # vCPU variables: `primary`, and one per `aux`
        self.vcpus: Dict[str, object] = {"primary": self.sim.primary_vcpu(0)}
        # patterns bound by `secret`, for `scan`
        self.secrets: Dict[str, List[bytes]] = {}
        self.pcpus = range(scenario.config.pcpus)
        self.outputs: List[str] = []
        # outcome of the most recent action, consulted by `expect`
        self.last: Dict[str, object] = {}
        self.held = 0   # attempts judged by `expect`s that held
        # report of an error no `expect error` has consumed yet
        self.unexpected: Optional[str] = None

    def _say(self, step: Step, msg: str) -> None:
        self.outputs.append("line %d: %s" % (step.lineno, msg))

    def _pcpu(self, step: Step, options: Tuple[str, ...]) -> int:
        """The `pcpu=` option, a pCPU of this machine; 0 if absent."""
        return step.options(options, {"pcpu": "pcpu"},
                            {"pcpu": self.pcpus}).get("pcpu", 0)

    def _payload(self, step: Step, spec: str) -> bytes:
        """A payload spec; `rand:N` draws from the run's RNG and `zero:N`
        is N zero bytes, each at most the machine's memory in bytes."""
        if spec.startswith("str:"):
            return spec[4:].encode()
        if spec.startswith("hex:"):
            try:
                return bytes.fromhex(spec[4:])
            except ValueError:
                raise step.fail("bad hex payload %r" % spec) from None
        if spec.startswith(("rand:", "zero:")):
            memory = self.scenario.config.frames * PAGE_SIZE
            n = step.number(spec[5:], range(memory + 1), "length")
            return bytes(n) if spec[0] == "z" else self.sim.rng.randbytes(n)
        raise step.fail("payload must be str:, hex:, rand:N or zero:N, got %r"
                        % spec)

    def _fd(self, step: Step, var: str) -> int:
        if var not in self.fds:
            raise step.fail("unknown enclave variable %r" % var)
        return self.fds[var]

    def run(self) -> ScenarioResult:
        for step in self.scenario.steps:
            self.execute(step)
        return self.finish()

    def execute(self, step: Step) -> None:
        """Run one statement.  An error that the statement before it left
        for an `expect error` raises ExpectationFailed unless this statement
        is that `expect`.  Any other statement's outcome replaces `last`,
        a simulator error it raises included."""
        if self.unexpected is not None and not (
                step.op == "expect" and step.args[:1] == ("error",)):
            raise ExpectationFailed(self.unexpected)
        if step.op == "expect":
            return self._op_expect(step)
        self.last = {}
        try:
            getattr(self, "_op_" + step.op)(step)
        except ScenarioParseError:
            raise
        except SimulationError as err:
            name = type(err).__name__
            self.last["error"] = name
            self._say(step, "%s: %s" % (name, err))
            self.unexpected = ("line %d: unexpected %s: %s"
                               % (step.lineno, name, err))

    def finish(self) -> ScenarioResult:
        """The end battery: the standard checks and both watchdogs."""
        if self.unexpected is not None:
            raise ExpectationFailed(self.unexpected)
        violations = standard_checks(self.sim, self.driver)
        violations += self.zerowatch.violations
        violations += self.confinement.violations
        return ScenarioResult(self.sim, self.driver, self.outputs, violations)

    # -- actions ----------------------------------------------------------

    def _op_create(self, step: Step) -> None:
        var, ta_name = step.args[0], step.args[1]
        if ta_name not in REGISTRY:
            raise step.fail("no registered program %r" % ta_name)
        image = image_for(ta_name)
        # a custom mem must still hold the program's code
        geom = step.options(step.args[2:],
                            {"mem": "mem", "chan": "chan", "pcpu": "pcpu"},
                            {"mem": range(image.code_pages, _U32),
                             "chan": range(1, _U32), "pcpu": self.pcpus})
        pcpu = geom.pop("pcpu", 0)
        if geom:
            image = image_for_pages(ta_name,
                                    geom.get("mem", image.mem_size_pages),
                                    geom.get("chan", 1))
        fd = self.driver.create(image, pcpu)
        rec = self.driver.record_of(fd)
        self.fds[var] = fd
        self.pages[var] = (rec.primary_private_pages(),
                           rec.primary_channel_pages())
        self._say(step, "create %s -> fd %d (%d+%d pages)" % (
            var, fd, image.mem_size_pages, image.channel_size_pages))

    def _exchange(self, step: Step, what: str,
                  out: Tuple[ChannelStatus, bytes]) -> None:
        """An invoke or a resume: its status and payload are the outcome."""
        self.last["status"], self.last["payload"] = out
        self._say(step, "%s -> %s %s" % (what, out[0].name.lower(),
                                         out[1].hex()))

    def _op_invoke(self, step: Step) -> None:
        fd = self._fd(step, step.args[0])
        cmd = step.number(step.args[1], range(_U32), "command")
        payload = b""
        if len(step.args) > 2:
            payload = self._payload(step, " ".join(step.args[2:]))
        self._exchange(step, "invoke %s cmd %d" % (step.args[0], cmd),
                       self.driver.invoke(fd, cmd, payload))

    def _op_resume(self, step: Step) -> None:
        fd = self._fd(step, step.args[0])
        self._exchange(step, "resume " + step.args[0],
                       self.driver.resume(fd))

    def _op_destroy(self, step: Step) -> None:
        fd = self._fd(step, step.args[0])
        # the variable stays bound so a scripted second destroy can observe
        # the driver's BadFd instead of a parse error
        self.driver.destroy(fd)
        self._say(step, "destroy " + step.args[0])

    def _op_timer(self, step: Step) -> None:
        delay = step.number(step.args[0], range(_U32), "delay")
        deadline = self.sim.arm_timer(delay, self._pcpu(step, step.args[1:]))
        self._say(step, "timer armed for t=%d" % deadline)

    def _op_tick(self, step: Step) -> None:
        self.sim.check_timers()

    def _op_adversary(self, step: Step) -> None:
        mode, var, region, which = step.args
        if var not in self.pages:
            raise step.fail("unknown enclave variable %r" % var)
        pages = self.pages[var][region == "channel"]
        size = PAGE_SIZE   # `all` reads whole pages, one page 16 bytes
        if which != "all":
            idx = step.number(which, range(len(pages)), "page index")
            pages, which, size = pages[idx:idx + 1], str(idx), 16
        access = self.sim.vm_read if mode == "read" else self.sim.vm_write
        arg = size if mode == "read" else b"\xa5" * 16
        outs = [access(self.sim.hv.primary, page << PAGE_SHIFT, arg)
                for page in pages]
        self.last["pages"] = len(pages)   # what one `expect` judges
        faults = {out.kind.value for out in outs
                  if isinstance(out, AccessFault)}
        passed = [out for out in outs if not isinstance(out, AccessFault)]
        if len(faults) == 1 and not passed:
            self.last["fault"] = faults.pop()
            done = "fault " + self.last["fault"]
        else:
            if mode == "read":
                self.last["payload"] = b"".join(passed)
            done = "succeeded" if len(pages) == 1 else \
                "%d of %d succeeded" % (len(passed), len(pages))
        self._say(step, "adversary %s %s[%s] -> %s"
                  % (mode, region, which, done))

    def _op_secret(self, step: Step) -> None:
        seed = self._payload(step, " ".join(step.args[2:]))
        master = wallet_master_key(seed)
        self.secrets[step.args[0]] = [master, wallet_derived_key(master, 0)]

    def _op_scan(self, step: Step) -> None:
        where, var = step.args
        if var not in self.secrets:
            raise step.fail("unknown secret variable %r" % var)
        scanner, patterns = SecretScanner(self.sim.machine), self.secrets[var]
        hits = scanner.scan_frames(patterns) if where == "all" else \
            scanner.scan_vm_reachable(self.sim.hv, self.sim.hv.primary.vmid,
                                      patterns)
        self.last["hits"] = len(hits)
        self._say(step, "scan %s %s -> %d hits" % (where, var, len(hits)))

    # raw stacking, for demos of the scheduling machinery
    def _op_aux(self, step: Step) -> None:
        var = step.args[0]
        if var == "primary":
            raise step.fail("aux variable 'primary' names the primary vcpu")
        self.vcpus[var] = self.sim.hv.make_aux_vcpu(
            self._pcpu(step, step.args[1:]))

    def _resolve_vcpu(self, step: Step, name: str):
        if name not in self.vcpus:
            raise step.fail("unknown vcpu %r" % name)
        return self.vcpus[name]

    def _op_schedule(self, step: Step) -> None:
        vcpu = self._resolve_vcpu(step, step.args[0])
        self.sim.hv.schedule_vcpu(vcpu.pcpu, vcpu)

    def _op_yield(self, step: Step) -> None:
        self.sim.hv.yield_vcpu(self._pcpu(step, step.args))

    def _op_interrupt(self, step: Step) -> None:
        """Deliver on pCPU N for `pcpu=N`, where `primary` is that pCPU's
        primary vCPU; otherwise on the pCPU the vCPU is pinned to."""
        vcpu = self._resolve_vcpu(step, step.args[0])
        pcpu = vcpu.pcpu
        if len(step.args) > 1:
            pcpu = self._pcpu(step, step.args[1:])
            if step.args[0] == "primary":
                vcpu = self.sim.primary_vcpu(pcpu)
        outcome = self.sim.hv.deliver_interrupt(pcpu, vcpu)
        self.last["outcome"] = outcome
        self._say(step, "interrupt %s -> %s" % (step.args[0], outcome))

    # -- expectations -------------------------------------------------------

    def _op_expect(self, step: Step) -> None:
        what, value = step.args[0], " ".join(step.args[1:])
        if what == "status":
            got = self.last.get("status")
            want = ChannelStatus.__members__.get(value.upper())
            if want is None:
                raise step.fail("unknown status %r" % value)
            if got is not want:
                raise ExpectationFailed(
                    "line %d: expected status %s, got %s"
                    % (step.lineno, want.name,
                       got.name if got is not None else self.last.get("error")))
        elif what == "payload":
            got = self.last.get("payload")
            if value.startswith("len:"):
                want_len = step.number(value[4:])
                if got is None or len(got) != want_len:
                    raise ExpectationFailed(
                        "line %d: expected %d payload bytes, got %.60r"
                        % (step.lineno, want_len, got))
            else:
                want = self._payload(step, value)
                if got != want:   # an `all` read is long: say where
                    got = got or b""
                    at = len(commonprefix([got, want]))
                    raise ExpectationFailed(
                        "line %d: %d payload bytes != expected %d, from byte "
                        "%d: %r != %r" % (step.lineno, len(got), len(want), at,
                                          got[at:at + 8], want[at:at + 8]))
        else:   # fault, error, outcome or hits
            value = step.number(value) if what == "hits" else value
            got = self.last.get(what)
            if got != value:
                raise ExpectationFailed("line %d: expected %s %r, got %r"
                                        % (step.lineno, what, value, got))
            if what == "error":
                self.unexpected = None
        self.held += self.last.get("pages", 1)


def run_scenario(scenario: Scenario) -> ScenarioResult:
    return _Runner(scenario).run()


def run_scenario_text(text: str) -> ScenarioResult:
    return run_scenario(parse_scenario(text))


# -- the attack playbook ------------------------------------------------------

PLAYBOOK = ("steal-private-memory", "scavenge-after-destroy",
            "scan-live-secrets", "privilege-escalation", "address-space-probe")


class AttackResult(NamedTuple):
    """One playbook script's verdict.  Each `expect` that held is one
    contained attempt, one after an `all` statement once per page it judged;
    a failed `expect` or an oracle violation is a note, and a breach."""
    name: str
    attempts: int
    contained: int
    notes: List[str]

    @property
    def ok(self) -> bool:
        return self.attempts > 0 and not self.notes


def run_attack(name: str) -> AttackResult:
    """Run the playbook script `playbook/<name>.txt` with its end battery."""
    path = resources.files(__package__) / "playbook" / (name + ".txt")
    runner = _Runner(parse_scenario(path.read_text(encoding="utf-8")))
    try:
        notes, attempts = runner.run().violations, runner.held
    except ExpectationFailed as err:
        notes, attempts = [str(err)], runner.held + runner.last.get("pages", 1)
    return AttackResult(name, attempts, runner.held, notes)


def run_attacks() -> List[AttackResult]:
    return [run_attack(name) for name in PLAYBOOK]
