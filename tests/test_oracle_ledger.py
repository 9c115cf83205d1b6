"""The crash oracle's acked-range ledger.

The oracle stores each inode's acked bytes as sorted, disjoint runs
``(start, end, content-or-flyweight)``.  :class:`MaskReference` below
keeps the simpler per-byte algorithm (a dense content image plus a flag
mask: 0 = never acked, 1 = content, 2 = flyweight) as an executable
specification; seeded random op sequences must leave the ledger and the
reference agreeing after every step, with inodes moving between holders
(the shards a fleet's oracle files promises under).  The second half plants each kind
of violation on a tiny testbed and pins its exact message text.
"""

import random
from types import SimpleNamespace

import pytest

from repro.cluster.oracle import ClusterOracle
from repro.experiments import Testbed, TestbedConfig
from repro.faults.oracle import Oracle
from repro.net import FDDI
from repro.payload import Extent
from repro.workload import patterned_chunk, write_file

KB = 1024


class MaskReference:
    """Per-byte reference model of one oracle's ledger and pending set."""

    def __init__(self):
        self.images = {}
        self.masks = {}
        self.pending = {}

    def record_ack(self, ino, offset, data):
        end = offset + len(data)
        image = self.images.setdefault(ino, bytearray())
        mask = self.masks.setdefault(ino, bytearray())
        if len(image) < end:
            image.extend(b"\x00" * (end - len(image)))
            mask.extend(b"\x00" * (end - len(mask)))
        if isinstance(data, (bytes, bytearray)):
            image[offset:end] = data
            mask[offset:end] = b"\x01" * len(data)
        else:
            mask[offset:end] = b"\x02" * len(data)

    def record_unstable(self, ino, offset, length):
        self.pending.setdefault(ino, set()).add((offset, length))

    def record_commit(self, ino, offset, data):
        pending = self.pending.get(ino)
        if pending is not None:
            pending.discard((offset, len(data)))
            if not pending:
                del self.pending[ino]
        self.record_ack(ino, offset, data)

    def acked_runs(self, ino):
        mask = self.masks.get(ino, b"")
        runs, start = [], None
        for position, flag in enumerate(mask):
            if flag and start is None:
                start = position
            elif not flag and start is not None:
                runs.append((start, position))
                start = None
        if start is not None:
            runs.append((start, len(mask)))
        return runs

    def content_runs(self, ino, start=0, end=None):
        mask = self.masks.get(ino, b"")
        end = len(mask) if end is None else min(end, len(mask))
        runs, run_start = [], None
        for position in range(start, end):
            if mask[position] == 1:
                if run_start is None:
                    run_start = position
            elif run_start is not None:
                runs.append((run_start, position))
                run_start = None
        if run_start is not None:
            runs.append((run_start, end))
        return runs

    def acked_byte_total(self):
        return sum(sum(1 for flag in mask if flag) for mask in self.masks.values())

    def acked_inos(self):
        return sorted(self.images)

    def tracks(self, ino):
        return any(self.masks.get(ino, b"")) or bool(self.pending.get(ino))

    def pending_byte_total(self):
        return sum(length for ranges in self.pending.values() for _o, length in ranges)

    def transfer(self, ino, dst):
        image = self.images.pop(ino, None)
        mask = self.masks.pop(ino, None)
        pending = self.pending.pop(ino, None)
        if image is not None:
            dst.images[ino] = image
            dst.masks[ino] = mask
        if pending:
            dst.pending.setdefault(ino, set()).update(pending)


def _bare_oracle():
    return Oracle(SimpleNamespace(env=SimpleNamespace(now=0.0), server=SimpleNamespace()))


def _routed_oracle(route):
    """A fleet oracle whose router pins every handle to ``route[0]``."""
    router = SimpleNamespace(server_for_fhandle=lambda _fhandle: route[0])
    return ClusterOracle(SimpleNamespace(env=SimpleNamespace(now=0.0), router=router))


def _read_message(holder, ino, start, end):
    return (
        f"{holder}: [read t=0.000000] ino {ino} bytes [{start},{end}): acked READ "
        "returned bytes differing from the acked write image (silent corruption) "
        f"[shard={holder}, role=primary]"
    )


INOS = (1, 2, 3)
HOLDERS = ("server-0", "server-1")


def _assert_agree(oracle, route, references, rng):
    assert oracle.acked_byte_total() == sum(ref.acked_byte_total() for ref in references)
    assert oracle.pending_byte_total() == sum(ref.pending_byte_total() for ref in references)
    for ino in INOS:
        assert oracle.holders_of(ino) == [
            holder for holder, ref in zip(HOLDERS, references) if ref.tracks(ino)
        ]
    for holder, reference in zip(HOLDERS, references):
        assert oracle.acked_inos(holder) == reference.acked_inos()
        for ino in INOS:
            assert oracle.acked_runs(ino, holder) == reference.acked_runs(ino)
            assert oracle.content_runs(ino, holder) == reference.content_runs(ino)
            assert oracle.tracks(ino, holder) == reference.tracks(ino)
        # Content: a read of the reference image raises nothing; the same
        # window with every byte flipped flags exactly the content runs.
        route[0] = holder
        for ino in reference.acked_inos():
            image = reference.images[ino]
            low = rng.randrange(0, len(image) + 1)
            high = rng.randrange(low, len(image) + 20)
            window = bytes(image[low:high]).ljust(high - low, b"\x00")
            before = len(oracle.violations)
            oracle.record_read((ino,), low, window)
            assert oracle.violations[before:] == []
            oracle.record_read((ino,), low, bytes(b ^ 0xFF for b in window))
            assert oracle.violations[before:] == [
                _read_message(holder, ino, start, end)
                for start, end in reference.content_runs(ino, low, high)
            ]
            del oracle.violations[before:]
            del oracle.read_violations[:]


def _random_payload(rng, length):
    if rng.random() < 0.35:
        return Extent(length, seed=rng.randrange(8))
    return rng.randbytes(length)


@pytest.mark.parametrize("seed", range(40))
def test_ledger_matches_per_byte_reference(seed):
    rng = random.Random(seed)
    route = [None]
    oracle = _routed_oracle(route)
    references = (MaskReference(), MaskReference())
    for _step in range(120):
        side = rng.randrange(2)
        route[0], reference = HOLDERS[side], references[side]
        ino = rng.choice(INOS)
        op = rng.random()
        # Offsets cluster so writes overlap, touch and leave gaps alike;
        # a quarter land past the current end.
        offset = rng.choice((0, 8, 16, 24, 32)) + rng.randrange(0, 12)
        if rng.random() < 0.25:
            offset += rng.randrange(40, 120)
        length = rng.choice((0, 1, 4, 8, 8, 16, 24))
        if op < 0.55:
            data = _random_payload(rng, length)
            oracle.record_ack((ino,), offset, data)
            reference.record_ack(ino, offset, data)
        elif op < 0.7:
            oracle.record_unstable((ino,), offset, b"\x00" * length)
            reference.record_unstable(ino, offset, length)
        elif op < 0.85:
            held = sorted(reference.pending.get(ino, ()))
            if held and rng.random() < 0.8:
                offset, length = rng.choice(held)
            data = _random_payload(rng, length)
            oracle.record_commit((ino,), offset, data)
            reference.record_commit(ino, offset, data)
        else:
            dst = 1 - side
            oracle.transfer_ino(ino, HOLDERS[side], HOLDERS[dst])
            reference.transfer(ino, references[dst])
        _assert_agree(oracle, route, references, rng)


class TestLedgerEdges:
    def test_zero_length_ack_lists_the_ino_but_holds_nothing(self):
        oracle = _bare_oracle()
        oracle.record_ack((5,), 100, b"")
        assert oracle.acked_inos() == [5]
        assert oracle.acked_runs(5) == []
        assert not oracle.tracks(5)

    def test_transfer_replaces_the_destination_ledger(self):
        route = ["dst"]
        oracle = _routed_oracle(route)
        oracle.record_ack((5,), 0, b"old bytes")
        route[0] = "src"
        oracle.record_ack((5,), 100, b"new")
        oracle.transfer_ino(5, "src", "dst")
        assert oracle.acked_runs(5, "dst") == [(100, 103)]
        assert oracle.acked_inos("src") == [] and not oracle.tracks(5, "src")
        assert oracle.holders_of(5) == ["dst"]

    def test_flyweight_between_content_runs_forms_one_acked_run(self):
        oracle = _bare_oracle()
        oracle.record_ack((5,), 0, b"a" * 10)
        oracle.record_ack((5,), 10, Extent(10))
        oracle.record_ack((5,), 20, b"b" * 10)
        assert oracle.acked_runs(5) == [(0, 30)]
        assert oracle.content_runs(5) == [(0, 10), (20, 30)]

    def test_sequential_appends_coalesce_into_one_run(self):
        oracle = _bare_oracle()
        for index in range(64):
            oracle.record_ack((5,), index * 8 * KB, patterned_chunk(index))
        assert oracle.acked_runs(5) == [(0, 512 * KB)]
        assert oracle.content_runs(5) == [(0, 512 * KB)]
        assert oracle.acked_byte_total() == 512 * KB


# -- pinned violation text -------------------------------------------------------


@pytest.fixture(scope="module")
def written():
    """A gather testbed with one cleanly written, durable 16 KB file."""
    testbed = Testbed(TestbedConfig(netspec=FDDI, write_path="gather", seed=0))
    client = testbed.add_client()
    env = testbed.env
    env.run(until=env.process(write_file(env, client, "pinned", 16 * KB)))
    env.run()
    ufs = testbed.server.ufs
    ino = ufs.root.entries["pinned"]
    expected = patterned_chunk(0) + patterned_chunk(1)
    assert ufs.durable_read(ino, 0, 16 * KB) == expected
    return testbed, ino, expected


class TestViolationText:
    def test_content_run_not_durably_readable(self, written):
        testbed, ino, _expected = written
        oracle = Oracle(testbed)
        oracle.record_ack((ino,), 16 * KB, b"x" * 100)
        now = f"{testbed.env.now:.6f}"
        assert oracle.check("crash") == [
            f"[crash t={now}] ino {ino} bytes [16384,16484): "
            "acked but not durably readable"
        ]

    def test_flyweight_only_run_not_durably_readable(self, written):
        testbed, ino, _expected = written
        oracle = Oracle(testbed)
        oracle.record_ack((ino,), 20000, Extent(50))
        now = f"{testbed.env.now:.6f}"
        assert oracle.check() == [
            f"[final t={now}] ino {ino} bytes [20000,20050): "
            "acked but not durably readable"
        ]

    def test_mixed_run_reports_its_whole_extent(self, written):
        testbed, ino, _expected = written
        oracle = Oracle(testbed)
        oracle.record_ack((ino,), 16 * KB, b"x" * 100)
        oracle.record_ack((ino,), 16 * KB + 100, Extent(50))
        now = f"{testbed.env.now:.6f}"
        assert oracle.check() == [
            f"[final t={now}] ino {ino} bytes [16384,16534): "
            "acked but not durably readable"
        ]

    def test_durable_content_differs(self, written):
        testbed, ino, expected = written
        oracle = Oracle(testbed)
        acked = bytearray(expected[1000:1100])
        acked[37] ^= 0xFF
        oracle.record_ack((ino,), 1000, bytes(acked))
        now = f"{testbed.env.now:.6f}"
        assert oracle.check() == [
            f"[final t={now}] ino {ino} bytes [1000,1100): durable content "
            "differs from acked content (first mismatch at byte 1037)"
        ]

    def test_durable_content_matches(self, written):
        testbed, ino, expected = written
        oracle = Oracle(testbed)
        oracle.record_ack((ino,), 0, expected)
        assert oracle.check() == []

    def test_missing_from_every_surviving_replica(self, written):
        testbed, ino, _expected = written
        oracle = Oracle(testbed)
        oracle.set_context(shard="server-0", role="primary")
        oracle.record_ack((ino,), 16 * KB, b"x" * 100)
        now = f"{testbed.env.now:.6f}"
        assert oracle.check_group([("b0", testbed.server.ufs)], "promote") == [
            f"[promote t={now}] ino {ino} bytes [16384,16484): "
            "acked but missing from every surviving replica "
            "[shard=server-0, role=primary]"
        ]

    def test_read_path_silent_corruption(self, written):
        testbed, ino, expected = written
        oracle = Oracle(testbed)
        oracle.record_ack((ino,), 0, expected[:8 * KB])
        oracle.record_ack((ino,), 8 * KB, Extent(8 * KB, seed=1))
        corrupted = bytearray(expected)
        corrupted[4000] ^= 0xFF
        corrupted[12000] ^= 0xFF  # flyweight-acked: no content promise
        oracle.record_read((ino,), 2 * KB, bytes(corrupted[2 * KB :]))
        now = f"{testbed.env.now:.6f}"
        message = (
            f"[read t={now}] ino {ino} bytes [2048,8192): acked READ returned "
            "bytes differing from the acked write image (silent corruption)"
        )
        assert oracle.read_violations == [message]
        assert oracle.violations == [message]
