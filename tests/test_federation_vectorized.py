"""Batched vs. scalar federation equivalence (the formal contract).

``build_federation(vectorized=True)`` promises: identical *decisions*
(cross-site transfers and migrations, per-site migrations, drops,
unmatched deficits, control messages, sleep states) and floats within
``rtol=1e-12`` of the scalar :class:`FederationCoordinator`, for N >= 2
sites under every policy, with batteries and a plant-fault site in the
mix.  A single-site neutral federation is additionally bit-exact with
the per-site vectorized controller (nothing reorders a sum across
sites).  Also covered here: the :mod:`repro.binpack.prescreen` kernels
against their scalar reference loops, and the
:class:`~repro.core.fleet.FederationFleet` view-aliasing invariants the
fused tick relies on.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.binpack.prescreen import (
    deficient_order,
    destination_order,
    shed_takes,
    shed_vm_order,
)
from repro.core.controller import run_willow
from repro.core.fleet import FederationFleet
from repro.core.vectorized import VectorizedWillowController
from repro.federation import (
    BatchedFederationCoordinator,
    FederationCoordinator,
    POLICIES,
    SiteSpec,
    build_federation,
    run_federation,
)
from repro.federation.vectorized import _Segment
from repro.plant_faults import random_plant_schedule
from repro.plant_faults.controller import FaultTolerantWillowController
from repro.power import Battery, renewable_supply
from repro.topology import build_paper_simulation

RTOL = 1e-12
TICKS = 96
UTIL = 0.55


def make_specs(n_sites=3, fault_site=True, battery_site=True):
    """Fresh specs per call: batteries, supply buffers and fault
    schedules are stateful, so scalar and batched runs must not share
    them."""
    specs = []
    for i in range(n_sites):
        kwargs = dict(
            name=f"site{i}",
            seed=i + 1,
            target_utilization=UTIL,
            supply=renewable_supply(
                5200.0,
                base_fraction=0.3,
                cloud_noise=0.0,
                phase=i / n_sites,
            ),
        )
        if battery_site and i == 0:
            kwargs["battery"] = Battery(1500.0, 1500.0 / 8.0, charge=0.0)
        if fault_site and i == 1 and n_sites > 2:
            tree = build_paper_simulation()
            kwargs["tree"] = tree
            kwargs["plant_faults"] = random_plant_schedule(
                tree,
                seed=11,
                horizon_ticks=TICKS,
                n_crashes=1,
                n_sensor_faults=1,
                n_circuit_trips=1,
            )
        specs.append(SiteSpec(**kwargs))
    return specs


def federation_pair(policy, **spec_kw):
    scalar = run_federation(
        make_specs(**spec_kw), n_ticks=TICKS, policy=policy
    )
    batched = run_federation(
        make_specs(**spec_kw), n_ticks=TICKS, policy=policy, vectorized=True
    )
    assert type(scalar) is FederationCoordinator
    assert isinstance(batched, BatchedFederationCoordinator)
    return scalar, batched


def site_major_vectorized(policy, **spec_kw):
    """The site-major coordinator over ``SiteSpec(vectorized=True)``
    controllers: each site ticks through its own one-site segment."""
    specs = [replace(spec, vectorized=True) for spec in make_specs(**spec_kw)]
    coordinator = run_federation(specs, n_ticks=TICKS, policy=policy)
    assert type(coordinator) is FederationCoordinator
    assert any(
        isinstance(site.controller, VectorizedWillowController)
        for site in coordinator.sites
    )
    return coordinator


def _server_series(collector, attr):
    return np.array([getattr(s, attr) for s in collector.server_samples])


def assert_federations_equal(scalar, batched):
    # Grid-level decisions.
    mig_key = lambda m: (
        m.time, m.vm_id, m.src_site, m.dst_site, m.src_node, m.dst_node,
    )
    assert [mig_key(m) for m in scalar.cross_migrations] == [
        mig_key(m) for m in batched.cross_migrations
    ]
    for attr in ("demand", "src_deficit", "dst_surplus", "wan_cost_power"):
        np.testing.assert_allclose(
            [getattr(m, attr) for m in scalar.cross_migrations],
            [getattr(m, attr) for m in batched.cross_migrations],
            rtol=RTOL,
            atol=0,
        )
    assert [
        (t, [(x.src, x.dst) for x in transfers])
        for t, transfers in scalar.transfer_log
    ] == [
        (t, [(x.src, x.dst) for x in transfers])
        for t, transfers in batched.transfer_log
    ]
    np.testing.assert_allclose(
        [x.watts for _t, tr in scalar.transfer_log for x in tr],
        [x.watts for _t, tr in batched.transfer_log for x in tr],
        rtol=RTOL,
        atol=0,
    )

    # Per-site trajectories and decisions.
    for s_site, b_site in zip(scalar.sites, batched.sites):
        assert s_site.name == b_site.name
        assert s_site.vms_sent == b_site.vms_sent
        assert s_site.vms_received == b_site.vms_received
        sc, bc = s_site.collector, b_site.collector
        for attr in ("power", "temperature", "utilization", "demand", "budget"):
            a, b = _server_series(sc, attr), _server_series(bc, attr)
            assert a.shape == b.shape, (s_site.name, attr)
            np.testing.assert_allclose(
                a, b, rtol=RTOL, atol=0, err_msg=f"{s_site.name}:{attr}"
            )
        assert [s.asleep for s in sc.server_samples] == [
            s.asleep for s in bc.server_samples
        ], s_site.name
        key = lambda m: (m.time, m.vm_id, m.src_id, m.dst_id, m.cause)
        assert [key(m) for m in sc.migrations] == [
            key(m) for m in bc.migrations
        ], s_site.name
        dkey = lambda d: (d.time, d.node_id, d.vm_id)
        for series in ("drops", "unmatched_deficits"):
            assert [dkey(d) for d in getattr(sc, series)] == [
                dkey(d) for d in getattr(bc, series)
            ], (s_site.name, series)
            # A drop is ``demand - grant``: near-zero drops amplify the
            # contract's ulp-level sum reorderings into relative error,
            # so the float check gets a nanowatt absolute floor.
            np.testing.assert_allclose(
                [d.power for d in getattr(sc, series)],
                [d.power for d in getattr(bc, series)],
                rtol=RTOL,
                atol=1e-9,
            )
        mkey = lambda m: (m.time, m.link, m.upward)
        assert [mkey(m) for m in sc.messages] == [
            mkey(m) for m in bc.messages
        ], s_site.name
        for attr in ("base_traffic", "migration_traffic", "power"):
            np.testing.assert_allclose(
                [getattr(s, attr) for s in sc.switch_samples],
                [getattr(s, attr) for s in bc.switch_samples],
                rtol=RTOL,
                atol=0,
            )


# --------------------------------------------------------------- contract
class TestBatchedFederationEquivalence:
    """N=3 sites (battery site, plant-fault site, plain site) under
    every shipped policy: same decisions, same floats."""

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_policy_equivalent(self, policy):
        scalar, batched = federation_pair(policy)
        assert_federations_equal(scalar, batched)
        # The same array tick driven site-major, one site at a time,
        # with WAN costs charged outside the tick.
        assert_federations_equal(site_major_vectorized(policy), batched)

    def test_shifting_actually_happens(self):
        """The contract must be exercised with real cross-site moves."""
        scalar, batched = federation_pair("proportional")
        assert scalar.cross_migrations
        assert batched.cross_migrations
        assert_federations_equal(scalar, batched)

    def test_two_site_fused_segment(self):
        """All-array federation: one segment spans every site."""
        scalar, batched = federation_pair(
            "proportional", n_sites=2, fault_site=False
        )
        assert len(batched.segments) == 1
        assert len(batched.segments[0].controllers) == 2
        assert_federations_equal(scalar, batched)


class TestSingleSiteBitExact:
    def test_matches_vectorized_controller_bit_for_bit(self):
        """A 1-site neutral federation runs the same array expressions
        as the per-site vectorized controller: bit-identical floats."""
        _, vector = run_willow(
            n_ticks=60, seed=3, target_utilization=0.5, vectorized=True
        )
        coordinator = run_federation(
            [SiteSpec(name="solo", seed=3, target_utilization=0.5)],
            n_ticks=60,
            policy="neutral",
            vectorized=True,
        )
        federated = coordinator.sites[0].collector
        for attr in ("power", "temperature", "utilization", "demand", "budget"):
            a = _server_series(vector, attr)
            b = _server_series(federated, attr)
            assert np.array_equal(a, b), f"{attr} differs bit-wise"
        key = lambda m: (m.time, m.vm_id, m.src_id, m.dst_id, m.cause)
        assert [key(m) for m in vector.migrations] == [
            key(m) for m in federated.migrations
        ]


class TestCoordinatorHooks:
    @pytest.mark.parametrize("vectorized", [False, True])
    def test_on_tick_fires_once_per_tick(self, vectorized):
        coordinator = build_federation(
            make_specs(n_sites=2, fault_site=False),
            n_ticks=12,
            vectorized=vectorized,
        )
        calls = []
        coordinator.on_tick.append(
            lambda coord, ticks: calls.append(
                (ticks, coord.sites[0].controller.env.now)
            )
        )
        coordinator.run(12)
        delta_d = coordinator.delta_d
        assert calls == [(k, k * delta_d) for k in range(1, 13)]


# ------------------------------------------------------------- structure
class TestSegmentPartitioning:
    def test_fault_site_splits_segments(self):
        coordinator = build_federation(
            make_specs(n_sites=3), n_ticks=TICKS, vectorized=True
        )
        # site1 carries the fault schedule: scalar island between two
        # single-site segments.
        assert isinstance(
            coordinator.sites[1].controller, FaultTolerantWillowController
        )
        assert len(coordinator.segments) == 2
        assert [
            seg.global_idx for seg in coordinator.segments
        ] == [[0], [2]]
        plan_kinds = [
            "segment" if isinstance(part, _Segment) else "site"
            for part in coordinator._plan
        ]
        assert plan_kinds == ["segment", "site", "segment"]

    def test_all_array_sites_one_segment(self):
        coordinator = build_federation(
            make_specs(n_sites=3, fault_site=False),
            n_ticks=TICKS,
            vectorized=True,
        )
        assert len(coordinator.segments) == 1
        assert coordinator.segments[0].global_idx == [0, 1, 2]
        assert coordinator.fed_fleet.n == sum(
            s.controller.fleet.n for s in coordinator.sites
        )


class TestFederationFleetAliasing:
    """The fused tick writes block arrays; per-site code must see the
    same memory through the site views (and vice versa)."""

    @pytest.fixture()
    def fed(self):
        coordinator = build_federation(
            make_specs(n_sites=2, fault_site=False),
            n_ticks=8,
            vectorized=True,
        )
        return coordinator.fed_fleet, [
            s.controller.fleet for s in coordinator.sites
        ]

    def test_views_share_memory(self, fed):
        block, fleets = fed
        for name in ("raw", "served", "budget", "temperature", "awake"):
            for fleet in fleets:
                assert np.shares_memory(
                    getattr(block, name), getattr(fleet, name)
                ), name

    def test_smoother_lanes_share_memory(self, fed):
        block, fleets = fed
        for fleet in fleets:
            assert np.shares_memory(block.smoother_values, fleet.smoother.values)
            assert np.shares_memory(block.smoother_primed, fleet.smoother.primed)

    def test_site_update_lands_in_block(self, fed):
        block, fleets = fed
        obs = np.full(fleets[0].n, 123.0)
        fleets[0].smoother.update(obs, mask=np.ones(fleets[0].n, dtype=bool))
        assert np.all(block.smoother_values[: fleets[0].n] == 123.0)

    def test_site_sums_fold_left_to_right(self, fed):
        block, fleets = fed
        values = np.arange(block.n, dtype=float) * 0.1
        sums = block.site_sums(values)
        assert len(sums) == 2
        for k, sl in enumerate(block.site_slices):
            assert sums[k] == sum(values[sl].tolist())


# ------------------------------------------------------- prescreen kernels
def _ref_shed_takes(demands, raw, goal, directive, eps):
    remaining = raw
    left = directive
    out = []
    for k, d in enumerate(demands):
        if remaining <= goal + eps or left <= eps:
            break
        if d <= 0.0:
            continue
        if d > left + eps:
            continue
        out.append(k)
        remaining -= d
        left -= d
    return out, left


class TestPrescreenKernels:
    EPS = 1e-9

    def test_shed_vm_order_matches_sorted_with_ties(self):
        demands = np.array([5.0, 2.0, 5.0, 0.0, 7.0, 2.0])
        vm_ids = np.array([11, 3, 2, 9, 40, 1])
        order = shed_vm_order(demands, vm_ids)
        ref = sorted(
            range(len(demands)),
            key=lambda i: (-demands[i], vm_ids[i]),
        )
        assert order.tolist() == ref

    def test_shed_takes_matches_reference(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            n = int(rng.integers(0, 9))
            demands = np.round(rng.uniform(-1.0, 6.0, n), 3)
            demands[::-1].sort()
            raw = float(rng.uniform(0.0, 20.0))
            goal = float(rng.uniform(0.0, raw))
            directive = float(rng.uniform(0.0, 12.0))
            got = shed_takes(demands, raw, goal, directive, self.EPS)
            want = _ref_shed_takes(demands, raw, goal, directive, self.EPS)
            assert got[0] == want[0], (demands, raw, goal, directive)
            assert got[1] == want[1]

    def test_shed_takes_oversize_skip_falls_back(self):
        # First VM overshoots the directive; the scalar loop skips it
        # and takes the next one -- the prefix rule alone would not.
        demands = np.array([10.0, 3.0, 2.0])
        takes, left = shed_takes(demands, 20.0, 1.0, 6.0, self.EPS)
        assert takes == [1, 2]
        assert left == 6.0 - 3.0 - 2.0

    def test_deficient_order_matches_sorted(self):
        rng = np.random.default_rng(5)
        n = 40
        raw = rng.uniform(50.0, 150.0, n)
        budget = rng.uniform(50.0, 150.0, n)
        awake = rng.random(n) > 0.2
        node_ids = rng.permutation(n) + 100
        rows = deficient_order(awake, raw, budget, node_ids, self.EPS)
        ref = sorted(
            (
                i
                for i in range(n)
                if awake[i] and raw[i] > budget[i] + self.EPS
            ),
            key=lambda i: (budget[i] - raw[i], node_ids[i]),
        )
        assert rows.tolist() == ref

    def test_destination_order_matches_scalar_screen(self):
        rng = np.random.default_rng(6)
        n = 40
        raw = rng.uniform(50.0, 150.0, n)
        budget = rng.uniform(50.0, 150.0, n)
        awake = rng.random(n) > 0.2
        squeezed = rng.random(n) > 0.7
        node_ids = rng.permutation(n) + 7
        capacity = budget - raw - 5.0 - 2.0
        order, caps = destination_order(
            awake, raw, budget, squeezed, capacity, node_ids, self.EPS
        )
        ref = sorted(
            (
                i
                for i in range(n)
                if awake[i]
                and not raw[i] > budget[i] + self.EPS
                and not squeezed[i]
                and capacity[i] > self.EPS
            ),
            key=lambda i: node_ids[i],
        )
        assert order.tolist() == ref
        assert caps.tolist() == [capacity[i] for i in ref]
