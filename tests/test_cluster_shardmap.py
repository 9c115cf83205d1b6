"""Property tests for the consistent-hash shard map (repro.cluster.shardmap)."""

import pytest

from repro.cluster.shardmap import ShardMap, _point

SERVERS = ["server-0", "server-1", "server-2", "server-3"]
KEYS = [f"client-{c}-f{i}" for c in range(8) for i in range(25)]


class TestDeterminism:
    def test_same_seed_same_placement(self):
        a = ShardMap(SERVERS, vnodes=64, seed=7)
        b = ShardMap(SERVERS, vnodes=64, seed=7)
        assert [a.server_for(k) for k in KEYS] == [b.server_for(k) for k in KEYS]

    def test_placement_independent_of_server_order(self):
        a = ShardMap(SERVERS, vnodes=64, seed=7)
        b = ShardMap(list(reversed(SERVERS)), vnodes=64, seed=7)
        assert [a.server_for(k) for k in KEYS] == [b.server_for(k) for k in KEYS]

    def test_different_seed_moves_keys(self):
        a = ShardMap(SERVERS, vnodes=64, seed=0)
        b = ShardMap(SERVERS, vnodes=64, seed=1)
        moved = sum(a.server_for(k) != b.server_for(k) for k in KEYS)
        assert moved > 0

    def test_placement_is_stable_across_processes(self):
        # blake2b positions, not Python hash(): pin a few absolute
        # placements so hash-randomization regressions are caught.
        shard_map = ShardMap(SERVERS, vnodes=64, seed=0)
        snapshot = {key: shard_map.server_for(key) for key in KEYS[:6]}
        assert snapshot == {
            "client-0-f0": "server-3",
            "client-0-f1": "server-1",
            "client-0-f2": "server-2",
            "client-0-f3": "server-3",
            "client-0-f4": "server-2",
            "client-0-f5": "server-2",
        }


class TestBalance:
    def test_vnodes_spread_load(self):
        shard_map = ShardMap(SERVERS, vnodes=64, seed=0)
        load = shard_map.load(KEYS)
        expected = len(KEYS) / len(SERVERS)
        for server in SERVERS:
            assert load[server] == pytest.approx(expected, rel=0.5)

    def test_more_vnodes_balance_better(self):
        def spread(vnodes):
            load = ShardMap(SERVERS, vnodes=vnodes, seed=0).load(KEYS)
            return max(load.values()) - min(load.values())

        assert spread(128) <= spread(4)

    def test_every_server_serves_some_keys(self):
        shard_map = ShardMap(SERVERS, vnodes=32, seed=3)
        assert all(count > 0 for count in shard_map.load(KEYS).values())
        assert shard_map.describe()["ring_points"] == 32 * len(SERVERS)


class TestMinimalMovement:
    def test_add_server_only_moves_keys_to_it(self):
        shard_map = ShardMap(SERVERS, vnodes=64, seed=0)
        before = {k: shard_map.server_for(k) for k in KEYS}
        shard_map.add_server("server-4")
        for key in KEYS:
            after = shard_map.server_for(key)
            if after != before[key]:
                assert after == "server-4"

    def test_remove_server_only_moves_its_keys(self):
        shard_map = ShardMap(SERVERS, vnodes=64, seed=0)
        before = {k: shard_map.server_for(k) for k in KEYS}
        shard_map.remove_server("server-2")
        for key in KEYS:
            if before[key] != "server-2":
                assert shard_map.server_for(key) == before[key]

    def test_remove_then_add_restores_placement(self):
        shard_map = ShardMap(SERVERS, vnodes=64, seed=0)
        before = {k: shard_map.server_for(k) for k in KEYS}
        shard_map.remove_server("server-1")
        shard_map.add_server("server-1")
        assert {k: shard_map.server_for(k) for k in KEYS} == before

    def test_add_moves_roughly_one_over_n(self):
        shard_map = ShardMap(SERVERS, vnodes=64, seed=0)
        before = {k: shard_map.server_for(k) for k in KEYS}
        shard_map.add_server("server-4")
        moved = sum(shard_map.server_for(k) != before[k] for k in KEYS)
        # Ideal is len(KEYS)/5 = 40; allow generous slack but far less
        # than a full reshuffle (which would move ~4/5 of the keys).
        assert 0 < moved < len(KEYS) / 2

    @pytest.mark.parametrize(
        "weights", [{}, {"server-0": 2.0, "server-2": 0.5}], ids=["plain", "weighted"]
    )
    def test_growing_from_one_server_matches_a_full_map(self, weights):
        # A one-server map builds no ring; the ring it builds when the
        # second server joins must place keys as a ring holding every
        # server's points from the start does.
        grown = ShardMap(SERVERS[:1], vnodes=64, seed=0, weights=weights)
        assert {grown.server_for(k) for k in KEYS} == {"server-0"}
        for server in SERVERS[1:]:
            grown.add_server(server, weight=weights.get(server, 1.0))
        ring = sorted(
            (_point(0, f"{server}#{vnode}"), server)
            for server in SERVERS
            for vnode in range(max(1, round(64 * weights.get(server, 1.0))))
        )
        for key in KEYS:
            position = _point(0, f"key:{key}")
            owner = next((s for p, s in ring if p > position), ring[0][1])
            assert grown.server_for(key) == owner, key
        full = ShardMap(SERVERS, vnodes=64, seed=0, weights=weights)
        assert grown.describe() == full.describe()

    def test_cannot_remove_last_server(self):
        shard_map = ShardMap(["only"], vnodes=8, seed=0)
        with pytest.raises(ValueError):
            shard_map.remove_server("only")

    def test_duplicate_add_rejected(self):
        shard_map = ShardMap(SERVERS, vnodes=8, seed=0)
        with pytest.raises(ValueError):
            shard_map.add_server("server-0")


class TestCapacityWeights:
    """Capacity-weighted vnodes (repro.tiering, satellite of the mixed
    hot/cold fleet): ring-point counts scale with weight, and a reweight
    moves only keys into or out of the reweighted server's own arcs."""

    def test_vnode_count_scales_with_weight(self):
        shard_map = ShardMap(
            SERVERS, vnodes=64, seed=0, weights={"server-0": 2.0, "server-1": 0.5}
        )
        assert shard_map.vnode_count("server-0") == 128
        assert shard_map.vnode_count("server-1") == 32
        assert shard_map.vnode_count("server-2") == 64

    def test_heavier_server_takes_proportional_load(self):
        shard_map = ShardMap(SERVERS, vnodes=128, seed=0, weights={"server-0": 3.0})
        load = shard_map.load(KEYS)
        # server-0 has weight 3 of a total 6: expect ~half the keys.
        assert load["server-0"] == pytest.approx(len(KEYS) / 2, rel=0.4)
        assert load["server-0"] > max(load[s] for s in SERVERS[1:])

    def test_weights_are_deterministic(self):
        weights = {"server-0": 2.0, "server-3": 0.5}
        a = ShardMap(SERVERS, vnodes=64, seed=5, weights=weights)
        b = ShardMap(SERVERS, vnodes=64, seed=5, weights=weights)
        assert [a.server_for(k) for k in KEYS] == [b.server_for(k) for k in KEYS]

    def test_grow_weight_only_moves_keys_to_that_server(self):
        # Ring points carry stable "{server}#{k}" labels, so a heavier
        # server only adds points: keys move only to it.
        plain = ShardMap(SERVERS, vnodes=64, seed=0)
        heavier = ShardMap(SERVERS, vnodes=64, seed=0, weights={"server-2": 2.0})
        for key in KEYS:
            after = heavier.server_for(key)
            if after != plain.server_for(key):
                assert after == "server-2"

    def test_shrink_weight_only_moves_keys_from_that_server(self):
        plain = ShardMap(SERVERS, vnodes=64, seed=0)
        lighter = ShardMap(SERVERS, vnodes=64, seed=0, weights={"server-2": 0.25})
        for key in KEYS:
            if plain.server_for(key) != "server-2":
                assert lighter.server_for(key) == plain.server_for(key)

    def test_weight_floor_keeps_at_least_one_point(self):
        shard_map = ShardMap(SERVERS, vnodes=4, seed=0, weights={"server-0": 0.01})
        assert shard_map.vnode_count("server-0") == 1
        assert "server-0" in shard_map

    def test_invalid_weight_rejected(self):
        shard_map = ShardMap(SERVERS, vnodes=8, seed=0)
        with pytest.raises(ValueError):
            ShardMap(SERVERS, vnodes=8, seed=0, weights={"server-0": 0.0})
        with pytest.raises(ValueError):
            shard_map.add_server("server-9", weight=-1.0)

    def test_describe_includes_weights_only_when_set(self):
        plain = ShardMap(SERVERS, vnodes=8, seed=0)
        assert "weights" not in plain.describe()
        weighted = ShardMap(SERVERS, vnodes=8, seed=0, weights={"server-0": 2.0})
        assert weighted.describe()["weights"]["server-0"] == 2.0
