"""Tests for the bin-packing data model, FFDLR and baselines."""

import numpy as np
import pytest

from repro.binpack import (
    Bin,
    Item,
    best_fit_decreasing,
    feasible_exact,
    ffd_bin_count,
    ffdlr_assign,
    ffdlr_pack,
    first_fit,
    first_fit_decreasing,
    optimal_bin_count,
    worst_fit,
)


class TestItemsAndBins:
    def test_bin_load_and_residual(self):
        bin_ = Bin("b", 10.0)
        bin_.add(Item("i", 4.0))
        assert bin_.load == 4.0
        assert bin_.residual == 6.0

    def test_bin_rejects_overflow(self):
        bin_ = Bin("b", 5.0)
        with pytest.raises(ValueError):
            bin_.add(Item("i", 6.0))

    def test_fits(self):
        bin_ = Bin("b", 5.0)
        assert bin_.fits(Item("i", 5.0))
        assert not bin_.fits(Item("j", 5.1))

    def test_negative_sizes_rejected(self):
        with pytest.raises(ValueError):
            Item("i", -1.0)
        with pytest.raises(ValueError):
            Bin("b", -1.0)


class TestFFDLR:
    def test_everything_fits_when_it_can(self):
        items = [Item(i, s) for i, s in enumerate([5, 4, 3, 3, 2])]
        bins = [Bin("a", 8.0), Bin("b", 6.0), Bin("c", 5.0)]
        result = ffdlr_pack(items, bins)
        assert not result.unpacked
        assert result.packed_size == 17.0
        result.validate()

    def test_oversized_items_unpacked(self):
        result = ffdlr_pack([Item(0, 100.0)], [Bin("a", 10.0)])
        assert len(result.unpacked) == 1
        assert result.unpacked[0].key == 0

    def test_overflow_unpacked_when_bins_full(self):
        items = [Item(i, 6.0) for i in range(3)]
        bins = [Bin("a", 6.0), Bin("b", 6.0)]
        result = ffdlr_pack(items, bins)
        assert len(result.unpacked) == 1
        assert result.packed_size == 12.0

    def test_zero_size_items_ignored(self):
        result = ffdlr_pack([Item(0, 0.0)], [Bin("a", 5.0)])
        assert not result.unpacked
        assert result.assignment == {}

    def test_empty_inputs(self):
        assert ffdlr_pack([], []).assignment == {}
        result = ffdlr_pack([Item(0, 1.0)], [])
        assert len(result.unpacked) == 1

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError):
            ffdlr_pack([Item(0, 1.0), Item(0, 2.0)], [Bin("a", 5.0)])

    def test_payload_carried_through(self):
        marker = object()
        result = ffdlr_pack([Item(0, 1.0, payload=marker)], [Bin("a", 5.0)])
        assert result.bins[0].contents[0].payload is marker

    def test_repack_prefers_smallest_feasible_bin(self):
        # One 5-unit group should land in the capacity-5 bin, not the 50.
        result = ffdlr_pack([Item(0, 5.0)], [Bin("big", 50.0), Bin("small", 5.0)])
        assert result.assignment[0] == "small"

    def test_consolidation_effect_fewer_bins_than_first_fit(self):
        # FFDLR's repack should never use more bins than plain FF here.
        sizes = [4, 4, 3, 3, 2, 2, 1, 1]
        bins_template = [("a", 10.0), ("b", 10.0), ("c", 10.0), ("d", 10.0)]
        ffdlr_result = ffdlr_pack(
            [Item(i, s) for i, s in enumerate(sizes)],
            [Bin(k, c) for k, c in bins_template],
        )
        ff_result = first_fit(
            [Item(i, s) for i, s in enumerate(sizes)],
            [Bin(k, c) for k, c in bins_template],
        )
        assert ffdlr_result.bins_used <= ff_result.bins_used

    def test_deterministic(self):
        sizes = [7, 3, 9, 2, 5, 5, 1]

        def pack_once():
            result = ffdlr_pack(
                [Item(i, s) for i, s in enumerate(sizes)],
                [Bin(k, 12.0) for k in "abc"],
            )
            return sorted(result.assignment.items())

        assert pack_once() == pack_once()


class TestFFDLRArrayCore:
    """``ffdlr_assign``: the array decision behind ``ffdlr_pack``."""

    def test_oversized_item_unpacked_rest_placed(self):
        placed, unpacked = ffdlr_assign([20.0, 3.0], np.array([10.0, 5.0]))
        assert placed == [(1, 1)]  # smallest bin that holds the 3
        assert unpacked == [0]

    def test_failed_group_splits_into_best_fit_leftovers(self):
        # FFD into the largest bin (10) makes groups {5, 5} and {6, 3}.
        # {5, 5} takes the 10; no unused bin holds 9, so 6 and 3 are
        # best-fitted one by one into the two 6s.
        placed, unpacked = ffdlr_assign(
            [6.0, 5.0, 5.0, 3.0], np.array([10.0, 6.0, 6.0])
        )
        assert placed == [(1, 0), (2, 0), (0, 1), (3, 2)]
        assert unpacked == []

    def test_equal_capacities_go_to_lowest_position(self):
        placed, _ = ffdlr_assign([4.0], np.array([7.0, 5.0, 5.0]))
        assert placed == [(0, 1)]
        placed, _ = ffdlr_assign([4.0, 4.0], np.array([5.0, 5.0, 5.0]))
        assert placed == [(0, 0), (1, 1)]

    def test_unpacked_when_nothing_fits(self):
        assert ffdlr_assign([1.0, 2.0], np.array([])) == ([], [0, 1])
        assert ffdlr_assign([1.0], np.array([0.0, 0.0])) == ([], [0])
        placed, unpacked = ffdlr_assign([6.0, 6.0, 6.0], np.array([6.0, 6.0]))
        assert placed == [(0, 0), (1, 1)]
        assert unpacked == [2]

    def test_existing_loads_limit_leftovers_and_inputs_untouched(self):
        caps = np.array([10.0, 6.0, 6.0])
        loads = np.array([0.0, 0.0, 3.5])
        # As above, but the last bin already holds 3.5: the leftover 3
        # finds residual 2.5 there and stays unpacked.
        placed, unpacked = ffdlr_assign([6.0, 5.0, 5.0, 3.0], caps, loads)
        assert placed == [(1, 0), (2, 0), (0, 1)]
        assert unpacked == [3]
        assert caps.tolist() == [10.0, 6.0, 6.0]
        assert loads.tolist() == [0.0, 0.0, 3.5]

    def test_pack_wrapper_agrees_with_core(self):
        sizes = [6.0, 5.0, 5.0, 3.0]
        result = ffdlr_pack(
            [Item(i, s) for i, s in enumerate(sizes)],
            [Bin(k, c) for k, c in (("a", 10.0), ("b", 6.0), ("c", 6.0))],
        )
        assert list(result.assignment.items()) == [
            (1, "a"), (2, "a"), (0, "b"), (3, "c")
        ]


class TestFFDBinCount:
    def test_known_instance(self):
        # Classic: sizes packed FFD into capacity-10 bins.
        assert ffd_bin_count([6, 5, 4, 3, 2], 10) == 2

    def test_oversize_rejected(self):
        with pytest.raises(ValueError):
            ffd_bin_count([11], 10)

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            ffd_bin_count([1], 0)


class TestBaselines:
    def _items(self, sizes):
        return [Item(i, s) for i, s in enumerate(sizes)]

    def _bins(self):
        return [Bin("a", 8.0), Bin("b", 6.0), Bin("c", 5.0)]

    @pytest.mark.parametrize(
        "packer", [first_fit, first_fit_decreasing, best_fit_decreasing, worst_fit]
    )
    def test_all_baselines_valid_and_complete(self, packer):
        result = packer(self._items([5, 4, 3, 3, 2]), self._bins())
        result.validate()
        assert not result.unpacked

    def test_first_fit_respects_arrival_order(self):
        result = first_fit(self._items([2, 7]), self._bins())
        assert result.assignment[0] == "a"  # first item -> first bin
        assert result.assignment[1] == "a" if result.bins[0].capacity >= 9 else True

    def test_bfd_prefers_tight_bin(self):
        result = best_fit_decreasing([Item(0, 5.0)], self._bins())
        assert result.assignment[0] == "c"

    def test_worst_fit_prefers_loose_bin(self):
        result = worst_fit([Item(0, 5.0)], self._bins())
        assert result.assignment[0] == "a"


class TestExactSolvers:
    def test_optimal_known_instances(self):
        assert optimal_bin_count([5, 4, 3, 3, 2], 8) == 3
        assert optimal_bin_count([4, 4, 4], 4) == 3
        assert optimal_bin_count([2, 2, 2, 2], 4) == 2
        assert optimal_bin_count([], 5) == 0

    def test_optimal_oversize_rejected(self):
        with pytest.raises(ValueError):
            optimal_bin_count([10], 5)

    def test_optimal_size_limited(self):
        with pytest.raises(ValueError):
            optimal_bin_count([1.0] * 20, 5)

    def test_feasibility_positive(self):
        assert feasible_exact([5, 4, 3], [8, 6]) is True

    def test_feasibility_negative_volume(self):
        assert feasible_exact([10, 10], [9, 9]) is False

    def test_feasibility_negative_fragmentation(self):
        # Volume fits (12 <= 12) but 7+5 cannot split across 6+6.
        assert feasible_exact([7, 5], [6, 6]) is False

    def test_feasibility_empty(self):
        assert feasible_exact([], []) is True
        assert feasible_exact([1], []) is False
