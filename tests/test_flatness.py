"""Work per operation stays flat: the Python bytecodes an echo lifecycle
or invoke executes, and the Python calls an invoke makes, do not grow with
run history, machine size, the number of other enclaves held or the
payload size, and do not depend on the pCPU it runs on.  Each test
compares two counts taken in one run, so host speed cannot move the
verdict."""
from enclavesim.guest_os import EnclaveDriver
from enclavesim.harness import WriteConfinementOracle
from enclavesim.hypervisor import Hypercall, Work
from enclavesim.machine import MachineConfig
from enclavesim.sim import Simulation
from enclavesim.ta_runtime import image_for_pages

from bytecodes import count_bytecodes, count_calls

ECHO = image_for_pages("echo", 3, 1)


def _driver(frames=256):
    return EnclaveDriver(Simulation(MachineConfig(frames=frames)))


def _lifecycle(driver):
    fd = driver.create(ECHO)
    driver.invoke(fd, 0, bytes(64))
    driver.destroy(fd)


def _counts(fn, *args):
    """The bytecodes and the Python calls of one call of `fn(*args)`."""
    return count_bytecodes(fn, *args), count_calls(fn, *args)


def _warm_enclave(driver, pcpu=0):
    """A live echo enclave on `pcpu` past its first invoke, which alone
    sets up the program's state."""
    fd = driver.create(ECHO, pcpu)
    driver.invoke(fd, 0, b"")
    return fd


def test_lifecycle_count_does_not_grow_with_history():
    driver = _driver()
    first = count_bytecodes(_lifecycle, driver)
    for _ in range(2000):
        _lifecycle(driver)
    assert count_bytecodes(_lifecycle, driver) == first


def test_lifecycle_count_does_not_grow_with_frames():
    small = count_bytecodes(_lifecycle, _driver(256))
    assert count_bytecodes(_lifecycle, _driver(65536)) == small


def test_invoke_count_does_not_grow_with_held_enclaves():
    driver = _driver()
    fd = _warm_enclave(driver)
    alone = _counts(driver.invoke, fd, 0, bytes(64))
    for _ in range(12):
        driver.create(ECHO)
    assert _counts(driver.invoke, fd, 0, bytes(64)) == alone


def test_invoke_count_does_not_grow_with_payload():
    driver = _driver()
    fd = _warm_enclave(driver)
    one = _counts(driver.invoke, fd, 0, bytes(1))
    assert _counts(driver.invoke, fd, 0, bytes(4000)) == one


def test_invoke_count_does_not_depend_on_the_pcpu():
    """A warm echo invoke on pCPU 1 runs what the same invoke runs on
    pCPU 0, with the write-confinement oracle armed and the other pCPU
    busy with an aux vCPU: each write is judged for its own vCPU alone."""
    counts = []
    for pcpu in (0, 1):
        sim = Simulation(MachineConfig(frames=256, pcpus=2))
        sim.machine.observers.append(WriteConfinementOracle(sim.hv))
        driver = EnclaveDriver(sim)
        fd = _warm_enclave(driver, pcpu)
        sim.hv.schedule_vcpu(1 - pcpu, sim.hv.make_aux_vcpu(1 - pcpu))
        counts.append(_counts(driver.invoke, fd, 0, bytes(64)))
    assert counts[1] == counts[0]


def test_invoke_makes_no_more_python_calls_than_it_needs():
    """A warm 64 B echo invoke makes 79 Python calls.  It made 98 before
    the calls it did not need went: a ledger sum to stamp each of its 9
    events, a property for each of 4 capacity checks, an enum property for
    each of 2 pops, a new Exit, a scheduled-target check that a running
    primary caller rules out, and a timer poll after each of its 2 guest
    steps with no timer due.  A call that creeps back onto the round trip
    fails here.  A frozen
    dataclass's __init__ sets each field through object.__setattr__, a C
    call no Python count sees, so the step types are checked directly."""
    driver = _driver()
    fd = _warm_enclave(driver)
    calls = count_calls(driver.invoke, fd, 0, bytes(64))
    assert sum(calls.values()) <= 79, calls
    assert not [cls for cls in (Work, *Hypercall.__subclasses__())
                if cls.__dataclass_params__.frozen]
