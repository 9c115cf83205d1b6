"""Crash/reboot semantics for the NFSv2 world: the statelessness payoff.

§1: "The major advantage of this statelessness is that NFS crash recovery
is very easy.  Neither client nor server must detect the other's crashes."
A v2 client simply keeps retransmitting; every write the old incarnation
*answered* is on stable storage (that was the promise), every unanswered
write is re-executed by the new incarnation, and the file converges.
"""

import pytest

from repro.experiments import Testbed, TestbedConfig
from repro.fs import fsck
from repro.net import FDDI
from repro.workload import patterned_chunk, write_file

KB = 1024


@pytest.mark.parametrize("presto", [False, True], ids=["plain", "presto"])
@pytest.mark.parametrize("write_path", ["standard", "gather", "siva"])
def test_v2_client_survives_server_crash(write_path, presto):
    config = TestbedConfig(
        netspec=FDDI,
        write_path=write_path,
        nbiods=7,
        verify_stable=True,
        presto_bytes=(1 << 20) if presto else None,
    )
    testbed = Testbed(config)
    client = testbed.add_client()
    env = testbed.env
    proc = env.process(write_file(env, client, "f", 512 * KB))
    # Mid-transfer; the accelerated copy finishes much sooner, so crash it
    # correspondingly earlier.
    crash_at = 0.06 if presto else 0.25

    def saboteur(env):
        yield env.timeout(crash_at)
        testbed.server.simulate_crash()

    env.process(saboteur(env))
    env.run(until=proc)
    # Recovery costs retransmission timeouts but must converge.
    assert client.rpc.retransmissions.value > 0
    assert testbed.server.stable_violations == []
    ufs = testbed.server.ufs
    ino = ufs.root.entries["f"]
    expected = b"".join(patterned_chunk(i, 8 * KB) for i in range(64))
    assert ufs.durable_read(ino, 0, 512 * KB) == expected
    report = fsck(ufs, strict=False)
    assert report.clean, report.errors


def test_crash_during_gather_leaves_no_orphans():
    config = TestbedConfig(netspec=FDDI, write_path="gather", nbiods=15)
    testbed = Testbed(config)
    client = testbed.add_client()
    env = testbed.env
    proc = env.process(write_file(env, client, "f", 256 * KB))

    def saboteur(env):
        yield env.timeout(0.1)
        testbed.server.simulate_crash()

    env.process(saboteur(env))
    env.run(until=proc)
    env.run()  # drain everything
    assert testbed.server.write_path.queues.pending_total() == 0
    assert testbed.server.svc.handles.in_use == 0


def test_presto_crash_preserves_nvram_accepted_writes():
    """NVRAM is stable storage: a crash loses RAM, not the Presto board.

    With the accelerator on, gathered writes are durable the moment the
    board accepts them — the crash must not orphan or lose any extent the
    client was told about, and the board's dirty extents destage cleanly
    under the new incarnation."""
    config = TestbedConfig(
        netspec=FDDI,
        write_path="gather",
        nbiods=7,
        verify_stable=True,
        presto_bytes=1 << 20,
    )
    testbed = Testbed(config)
    client = testbed.add_client()
    env = testbed.env
    proc = env.process(write_file(env, client, "f", 256 * KB))

    def saboteur(env):
        yield env.timeout(0.03)  # mid-transfer (accelerated copies are quick)
        testbed.server.simulate_crash()

    env.process(saboteur(env))
    env.run(until=proc)
    env.run()  # let the board finish destaging to the spindle
    assert client.rpc.retransmissions.value > 0
    assert testbed.server.stable_violations == []
    ufs = testbed.server.ufs
    ino = ufs.root.entries["f"]
    expected = b"".join(patterned_chunk(i, 8 * KB) for i in range(32))
    assert ufs.durable_read(ino, 0, 256 * KB) == expected
    assert testbed.storage.dirty_extents == []  # fully destaged after drain
    report = fsck(ufs, strict=False)
    assert report.clean, report.errors


def test_double_crash_still_converges():
    config = TestbedConfig(netspec=FDDI, write_path="gather", nbiods=7, verify_stable=True)
    testbed = Testbed(config)
    client = testbed.add_client()
    env = testbed.env
    proc = env.process(write_file(env, client, "f", 256 * KB))

    def saboteur(env):
        yield env.timeout(0.1)
        testbed.server.simulate_crash()
        yield env.timeout(1.5)
        testbed.server.simulate_crash()

    env.process(saboteur(env))
    env.run(until=proc)
    assert testbed.server.stable_violations == []
    ufs = testbed.server.ufs
    ino = ufs.root.entries["f"]
    expected = b"".join(patterned_chunk(i, 8 * KB) for i in range(32))
    assert ufs.durable_read(ino, 0, 256 * KB) == expected
