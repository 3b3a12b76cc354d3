"""FFDLR: First Fit Decreasing (using Largest bins), then Repack.

Friesen & Langston's variable-size bin packing scheme as described in
Sec. IV-F:

1. Normalise bin and demand sizes so the largest bin has size 1.
2. First-fit-decreasing all demands into (virtual) bins of size 1.
3. Repack the contents of each virtual bin into the smallest actual bin
   that can hold them.

Guarantee: at most (3/2) OPT + 1 bins, in O(n log n) time.  The repack
step is what makes FFDLR attractive for Willow: "repacking into smaller
bins means we try to run every server at full utilization.  The bins
(servers) that are empty can then be deactivated during the
consolidation phase."

Willow has a *finite* set of real bins (node surpluses), so after the
virtual FFD phase each virtual-bin group is matched to the smallest
unused real bin that fits; groups with no feasible bin are split and
their items re-offered individually (best-fit) before being declared
unpackable.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.binpack.items import Bin, Item, PackResult

__all__ = ["ffdlr_assign", "ffdlr_pack", "ffd_bin_count"]

_SLACK = 1e-9


def ffd_bin_count(sizes: Sequence[float], capacity: float) -> int:
    """Classical FFD into unlimited bins of equal ``capacity``.

    Returns the number of bins used.  Items larger than the capacity
    raise (the caller must filter such demands first).
    """
    if capacity <= 0:
        raise ValueError(f"capacity must be positive, got {capacity}")
    loads: List[float] = []
    for size in sorted(sizes, reverse=True):
        if size > capacity + _SLACK:
            raise ValueError(f"item of size {size} exceeds capacity {capacity}")
        for i, load in enumerate(loads):
            if load + size <= capacity + _SLACK:
                loads[i] = load + size
                break
        else:
            loads.append(size)
    return len(loads)


def ffdlr_assign(
    sizes: Sequence[float], caps: np.ndarray, loads: Optional[np.ndarray] = None
) -> Tuple[List[Tuple[int, int]], List[int]]:
    """The FFDLR decision over flat arrays; nothing is mutated.

    ``sizes`` are the item sizes, ``caps`` the float64 bin capacities
    and ``loads`` what each bin already holds (zeros when omitted).
    Returns ``(placed, unpacked)``: ``(item index, bin position)`` pairs
    in placement order, and the indices of items no bin can take.
    """
    n = len(sizes)
    largest = float(caps.max()) if len(caps) else 0.0
    if largest <= 0:
        return [], list(range(n))
    loads = np.zeros(len(caps)) if loads is None else loads.copy()
    limit = largest + _SLACK

    # Phase 1: FFD into virtual bins of the largest real capacity.
    # Oversized items can never fit; set them aside immediately.
    leftovers = [i for i in range(n) if sizes[i] > limit]
    packable = [i for i in range(n) if sizes[i] <= limit]
    groups: List[List[int]] = []
    group_loads: List[float] = []
    for i in sorted(packable, key=sizes.__getitem__, reverse=True):
        for g, load in enumerate(group_loads):
            if load + sizes[i] <= limit:
                groups[g].append(i)
                group_loads[g] = load + sizes[i]
                break
        else:
            groups.append([i])
            group_loads.append(sizes[i])

    # Phase 2 (the "LR" repack): match each group, heaviest first, to
    # the smallest unused real bin that holds it (ties: lowest position).
    # A used bin's room drops to -inf so no later group fits it.
    placed: List[Tuple[int, int]] = []
    room = caps + _SLACK
    for group in sorted(groups, key=lambda g: sum(sizes[i] for i in g), reverse=True):
        total = sum(sizes[i] for i in group)
        fit = (total <= room).nonzero()[0]
        if not fit.size:
            leftovers.extend(group)
            continue
        b = int(fit[caps[fit].argmin()])
        room[b] = -np.inf
        load = loads[b]
        for i in group:
            placed.append((i, b))
            load = load + sizes[i]
        loads[b] = load

    # Split infeasible groups: best-fit each leftover item individually
    # into whatever residual capacity remains (used bins included).
    unpacked: List[int] = []
    for i in sorted(leftovers, key=sizes.__getitem__, reverse=True):
        residual = caps - loads
        fit = (sizes[i] <= residual + _SLACK).nonzero()[0]
        if fit.size:
            b = int(fit[residual[fit].argmin()])
            placed.append((i, b))
            loads[b] = loads[b] + sizes[i]
        else:
            unpacked.append(i)
    return placed, unpacked


def ffdlr_pack(items: Sequence[Item], bins: Sequence[Bin]) -> PackResult:
    """Pack ``items`` into the finite set of variable-size ``bins``.

    Items larger than every bin, and overflow once all bins are at
    capacity, come back in ``result.unpacked``.  Input ``bins`` objects
    are mutated (contents appended) and also returned in the result.
    """
    bins = list(bins)
    result = PackResult(assignment={}, bins=bins, unpacked=[])
    keys = [item.key for item in items]
    if len(set(keys)) != len(keys):
        raise ValueError("duplicate item keys")
    # Zero-size items trivially "fit" anywhere; drop them from packing
    # but keep them out of unpacked (they demand nothing).
    pending = [item for item in items if item.size > 0]
    if not pending:
        return result
    if not bins or max(b.capacity for b in bins) <= 0:
        result.unpacked = list(pending)
        return result
    placed, unpacked = ffdlr_assign(
        [item.size for item in pending],
        np.array([b.capacity for b in bins], dtype=float),
        np.array([b.load for b in bins], dtype=float),
    )
    for i, b in placed:
        bins[b].add(pending[i])
        result.assignment[pending[i].key] = bins[b].key
    result.unpacked = [pending[i] for i in unpacked]
    result.validate()
    return result
