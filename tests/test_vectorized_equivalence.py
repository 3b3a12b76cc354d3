"""Scalar vs. vectorized controller equivalence (the formal contract).

The vectorized tick path promises: identical *decisions* (migrations,
drops, unmatched deficits, control messages, sleep states) and floats
within ``rtol=1e-12`` of the scalar controller.  Power sums are
bit-identical until the first migration re-orders a per-host demand
sum; after that residual ulp differences remain, hence the relative
tolerance.  docs/performance.md documents the contract; this file
enforces it, together with unit tests for the individual vectorized
kernels (batched demand sampling, grouped budget allocation) and the
topology/bin caches the hot path relies on.
"""

import numpy as np
import pytest

from repro.binpack.items import Bin, Item
from repro.core.config import WillowConfig
from repro.core.controller import run_willow
from repro.core.vectorized import VectorizedWillowController
from repro.experiments.common import hot_zone_overrides
from repro.power.budget import LevelIndex, allocate_level, allocate_proportional
from repro.sim import RandomStreams
from repro.topology.tree import NodeKind, Tree
from repro.workload import DemandGenerator, SIMULATION_APPS, random_placement

RTOL = 1e-12


def _run_pair(**kwargs):
    _, scalar = run_willow(**kwargs)
    _, vector = run_willow(vectorized=True, **kwargs)
    return scalar, vector


def _server_series(collector, attr):
    return np.array([getattr(s, attr) for s in collector.server_samples])


class TestFullRunEquivalence:
    """One stressed paper-scale run compared sample by sample.

    Hot zone + utilization 0.95 exercises every branch: thermal caps,
    budget deficits, demand migrations, drops, unmatched deficits,
    consolidation sleeps and wakes.
    """

    KW = dict(
        target_utilization=0.95,
        n_ticks=150,
        seed=7,
        ambient_overrides=hot_zone_overrides(),
    )

    @pytest.fixture(scope="class")
    def pair(self):
        return _run_pair(**self.KW)

    @pytest.mark.parametrize(
        "attr", ["power", "temperature", "utilization", "demand", "budget"]
    )
    def test_server_series_match(self, pair, attr):
        scalar, vector = pair
        a, b = _server_series(scalar, attr), _server_series(vector, attr)
        assert a.shape == b.shape
        np.testing.assert_allclose(a, b, rtol=RTOL, atol=0)

    def test_sleep_states_identical(self, pair):
        scalar, vector = pair
        assert [s.asleep for s in scalar.server_samples] == [
            s.asleep for s in vector.server_samples
        ]

    def test_migrations_identical(self, pair):
        scalar, vector = pair
        key = lambda m: (m.time, m.vm_id, m.src_id, m.dst_id, m.cause)
        assert [key(m) for m in scalar.migrations] == [
            key(m) for m in vector.migrations
        ]
        assert len(scalar.migrations) > 0  # the run must exercise the path

    def test_drops_identical(self, pair):
        scalar, vector = pair
        key = lambda d: (d.time, d.node_id, d.vm_id)
        assert [key(d) for d in scalar.drops] == [key(d) for d in vector.drops]
        assert len(scalar.drops) > 0
        np.testing.assert_allclose(
            [d.power for d in scalar.drops],
            [d.power for d in vector.drops],
            rtol=RTOL,
            atol=0,
        )

    def test_unmatched_deficits_identical(self, pair):
        scalar, vector = pair
        key = lambda d: (d.time, d.node_id, d.vm_id)
        assert [key(d) for d in scalar.unmatched_deficits] == [
            key(d) for d in vector.unmatched_deficits
        ]
        np.testing.assert_allclose(
            [d.power for d in scalar.unmatched_deficits],
            [d.power for d in vector.unmatched_deficits],
            rtol=RTOL,
            atol=0,
        )

    def test_control_messages_identical(self, pair):
        scalar, vector = pair
        key = lambda m: (m.time, m.link, m.upward)
        assert [key(m) for m in scalar.messages] == [
            key(m) for m in vector.messages
        ]

    def test_switch_samples_match(self, pair):
        scalar, vector = pair
        for attr in ("base_traffic", "migration_traffic", "power"):
            np.testing.assert_allclose(
                [getattr(s, attr) for s in scalar.switch_samples],
                [getattr(s, attr) for s in vector.switch_samples],
                rtol=RTOL,
                atol=0,
            )


class TestCalmRunBitExact:
    """Without migrations nothing re-orders a sum: bit-for-bit equality."""

    def test_no_migration_run_is_bit_identical(self):
        scalar, vector = _run_pair(
            config=WillowConfig(consolidation_enabled=False),
            target_utilization=0.3,
            n_ticks=80,
            seed=3,
        )
        assert not scalar.migrations and not vector.migrations
        for attr in ("power", "temperature", "utilization", "demand", "budget"):
            a, b = _server_series(scalar, attr), _server_series(vector, attr)
            assert np.array_equal(a, b), f"{attr} differs bit-wise"


class TestVectorizedControllerGuards:
    def test_device_classes_rejected(self):
        from repro.devices import STANDARD_DEVICES

        with pytest.raises(ValueError, match="device_classes"):
            run_willow(
                config=WillowConfig(device_classes=STANDARD_DEVICES),
                n_ticks=1,
                vectorized=True,
            )

    def test_run_willow_vectorized_flag_selects_subclass(self):
        controller, _ = run_willow(n_ticks=1, vectorized=True)
        assert isinstance(controller, VectorizedWillowController)

    def test_tick_leaves_no_deferred_work(self):
        """Rows are built inside the tick, and a finished controller is
        freed by reference counting (no controller/segment cycle)."""
        import gc
        import weakref

        controller, collector = run_willow(n_ticks=3, vectorized=True)
        for rows in (
            collector.server_samples,
            collector.switch_samples,
            collector.messages,
        ):
            assert type(rows) is list
        ref = weakref.ref(controller)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del controller, collector
            assert ref() is None
        finally:
            if enabled:
                gc.enable()


class TestBatchedDemandSampling:
    """Block-prefetched Poisson draws are bit-identical to unbatched."""

    def _generator(self, seed, block_size):
        streams = RandomStreams(seed)
        plan = random_placement(
            [1, 2, 3], SIMULATION_APPS, streams["placement"], vms_per_server=4
        )
        plan.scale = 1.7
        return DemandGenerator(plan, streams, block_size=block_size), plan

    def test_block_size_does_not_change_draws(self):
        g1, _ = self._generator(seed=5, block_size=1)
        g2, _ = self._generator(seed=5, block_size=64)
        for _ in range(150):  # crosses several small-block refills
            np.testing.assert_array_equal(
                g1.sample_tick_array(), g2.sample_tick_array()
            )

    def test_array_and_dict_sampling_agree(self):
        g1, plan1 = self._generator(seed=8, block_size=16)
        g2, plan2 = self._generator(seed=8, block_size=16)
        for _ in range(40):
            demands = g1.sample_tick_array()
            per_host = g2.sample_tick()
            assert demands.tolist() == [vm.current_demand for vm in plan1.vms]
            expected = {}
            for vm, demand in zip(plan2.vms, demands.tolist()):
                expected[vm.host_id] = expected.get(vm.host_id, 0.0) + demand
            assert per_host == expected


class TestGroupedBudgetAllocation:
    """allocate_level == allocate_proportional per group, bit for bit."""

    def test_fuzz_matches_scalar_allocator(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            sizes = rng.integers(1, 8, size=rng.integers(1, 6))
            offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
            n = int(sizes.sum())
            weights = np.round(rng.uniform(0, 300, n), 3)
            weights[rng.random(n) < 0.15] = 0.0  # idle children
            caps = np.round(rng.uniform(0, 420, n), 3)
            totals = np.round(rng.uniform(0, 900, len(sizes)), 3)

            alloc, unalloc = allocate_level(totals, weights, caps, offsets)

            for g, start in enumerate(offsets):
                end = start + sizes[g]
                ref_alloc, ref_unalloc = allocate_proportional(
                    float(totals[g]), weights[start:end], caps[start:end]
                )
                np.testing.assert_array_equal(
                    alloc[start:end],
                    ref_alloc,
                    err_msg=f"group {g} allocations differ",
                )
                assert unalloc[g] == ref_unalloc

    def test_level_index_reuse_matches_fresh(self):
        offsets = np.array([0, 3, 5])
        weights = np.array([10.0, 0.0, 5.0, 7.0, 7.0, 1.0, 2.0])
        caps = np.full(7, 6.0)
        totals = np.array([12.0, 20.0, 1.0])
        index = LevelIndex(offsets, 7)
        a1, u1 = allocate_level(totals, weights, caps, offsets)
        a2, u2 = allocate_level(totals, weights, caps, index=index)
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(u1, u2)

    def test_level_index_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            LevelIndex(np.array([], dtype=np.intp), 0)
        with pytest.raises(ValueError, match="start at 0"):
            LevelIndex(np.array([1, 3]), 5)
        with pytest.raises(ValueError, match="at least one child"):
            LevelIndex(np.array([0, 2, 2]), 4)
        with pytest.raises(ValueError, match="offsets or index"):
            allocate_level(np.ones(1), np.ones(2), np.ones(2))
        with pytest.raises(ValueError, match="does not match"):
            allocate_level(
                np.ones(2), np.ones(3), np.ones(3), index=LevelIndex([0], 3)
            )

    def test_segment_sums_fold_matches_python_sum(self):
        index = LevelIndex(np.array([0, 2, 6]), 7)
        values = np.array([0.1, 0.2, 1.5, 2.5, 3.5, 4.5, 9.0])
        expected = [
            sum([0.1, 0.2]),
            sum([1.5, 2.5, 3.5, 4.5]),
            sum([9.0]),
        ]
        np.testing.assert_array_equal(index.segment_sums(values), expected)


class TestTopologyCaches:
    def test_tree_caches_invalidate_on_add_child(self):
        tree = Tree(root_level=2)
        rack = tree.add_child(tree.root, "rack", NodeKind.RACK)
        tree.add_child(rack, "s1", NodeKind.SERVER)
        assert [n.name for n in tree.servers()] == ["s1"]
        assert [n.name for n in tree.nodes_at_level(0)] == ["s1"]
        assert [n.name for n in tree.subtree_leaves(rack)] == ["s1"]
        tree.add_child(rack, "s2", NodeKind.SERVER)
        assert [n.name for n in tree.servers()] == ["s1", "s2"]
        assert [n.name for n in tree.nodes_at_level(0)] == ["s1", "s2"]
        assert [n.name for n in tree.subtree_leaves(rack)] == ["s1", "s2"]

    def test_tree_cache_returns_copies(self):
        tree = Tree(root_level=1)
        tree.add_child(tree.root, "s1", NodeKind.SERVER)
        servers = tree.servers()
        servers.clear()  # caller mutation must not poison the cache
        assert [n.name for n in tree.servers()] == ["s1"]

    def test_fabric_path_memoized(self):
        from repro.topology.builders import build_testbed
        from repro.topology.switches import SwitchFabric

        tree = build_testbed()
        fabric = SwitchFabric(tree)
        servers = tree.servers()
        src, dst = servers[0], servers[-1]
        first = fabric.path(src, dst)
        assert (src.node_id, dst.node_id) in fabric._path_cache
        second = fabric.path(src, dst)
        assert first == second
        assert len(first) > 0
        # Returned lists are copies; caller mutation must not poison it.
        second.clear()
        assert fabric.path(src, dst) == first


class TestBinLoadCache:
    def test_load_tracks_contents(self):
        b = Bin(key=1, capacity=10.0)
        assert b.load == 0.0
        b.add(Item(key="a", size=2.5))
        b.add(Item(key="b", size=1.5))
        assert b.load == pytest.approx(4.0)

    def test_load_recomputes_after_direct_mutation(self):
        # Planners mutate .contents directly; the cache keys on length.
        b = Bin(key=1, capacity=10.0)
        b.add(Item(key="a", size=2.5))
        assert b.load == pytest.approx(2.5)
        b.contents.append(Item(key="b", size=3.0))
        assert b.load == pytest.approx(5.5)
        b.contents.clear()
        assert b.load == 0.0
