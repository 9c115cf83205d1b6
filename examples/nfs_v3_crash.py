#!/usr/bin/env python
"""NFSv3 reliable asynchronous writes, and what a server crash does (§8).

The paper closes by noting that NFS version 3 adds reliable asynchronous
writes, and wonders how gathering fits "in a mixed environment of V2
clients ... and V3 clients using reliable asynchronous writes".  This
example runs that future: a v3 client writes with stable=false, COMMITs at
close, survives a simulated server crash via write-verifier replay — and a
v2 client shares the same gathering server throughout.

Run:  python examples/nfs_v3_crash.py
"""

from repro.experiments import Testbed, TestbedConfig
from repro.net import FDDI
from repro.nfs import NfsClient
from repro.rpc import RpcClient
from repro.workload import patterned_chunk, write_file

KB = 1024


def main() -> None:
    config = TestbedConfig(netspec=FDDI, write_path="gather", nbiods=7, verify_stable=True)
    testbed = Testbed(config)
    v2 = testbed.add_client()
    endpoint = testbed.segment.attach("v3-host")
    rpc = RpcClient(testbed.env, endpoint, testbed.server.host)
    v3 = NfsClient(testbed.env, rpc, nbiods=7, nfs_version=3)
    env = testbed.env

    def scenario(env):
        # Both protocol generations write concurrently.
        v2_proc = env.process(write_file(env, v2, "v2file", 512 * KB))
        started = env.now
        open_file = yield from v3.create("v3file")
        for index in range(16):
            yield from v3.write_stream(open_file, patterned_chunk(index))
        unstable_done = env.now - started
        print(f"v3: 128K written unstably in {unstable_done * 1000:6.1f} ms "
              f"({len(v3.tracker.ranges(open_file.fhandle))} ranges held client-side)")

        # Disaster strikes before COMMIT.
        yield env.timeout(0.05)
        testbed.server.simulate_crash()
        print("server crashed and rebooted: write verifier changed, "
              "cached data gone")

        yield from v3.close(open_file)  # COMMIT -> mismatch -> replay -> COMMIT
        print(f"v3: close completed at {(env.now - started) * 1000:6.1f} ms "
              f"(replayed and committed)")
        yield v2_proc

    env.run(until=env.process(scenario(env)))

    ufs = testbed.server.ufs
    for name, blocks in (("v3file", 16), ("v2file", 64)):
        ino = ufs.root.entries[name]
        expected = b"".join(patterned_chunk(i) for i in range(blocks))
        durable = ufs.durable_read(ino, 0, blocks * 8 * KB)
        status = "INTACT" if durable == expected else "CORRUPT"
        print(f"{name}: durable content {status}")
    print(f"stable-storage violations: {len(testbed.server.stable_violations)}")


if __name__ == "__main__":
    main()
