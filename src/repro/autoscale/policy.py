"""Shared size-threshold predicates.

Both the heap-change-driven
:class:`~repro.core.splitmerge.ShardSizeController` and the
:class:`~repro.autoscale.ShardAutoscaler` control loop decide through
these functions, so the two paths provably agree on what counts
as oversized/undersized (pinned by the fig2 decision-parity test).
Import-free within the package: callable from anywhere without cycles.
"""

from __future__ import annotations

#: Historical merge hysteresis factor (see AutoscaleConfig.merge_fraction).
DEFAULT_MERGE_FRACTION = 0.7


def oversized(heap_bytes: float, max_shard_bytes: float) -> bool:
    """Should this shard split on byte size?"""
    return heap_bytes > max_shard_bytes


def undersized(heap_bytes: float, min_shard_bytes: float) -> bool:
    """Is this shard small enough to consider merging away?"""
    return heap_bytes < min_shard_bytes


def in_band(heap_bytes: float, min_shard_bytes: float,
            max_shard_bytes: float) -> bool:
    """Neither oversized nor undersized: no byte-driven action."""
    return min_shard_bytes <= heap_bytes <= max_shard_bytes


def merge_fits(combined_bytes: float, max_shard_bytes: float,
               fraction: float = DEFAULT_MERGE_FRACTION) -> bool:
    """May two partners merge?  True only when their combined size sits
    safely below the split threshold (hysteresis: a merged survivor must
    not immediately re-split)."""
    return combined_bytes < fraction * max_shard_bytes
