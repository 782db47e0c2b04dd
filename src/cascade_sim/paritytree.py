"""Four-colored binary parity trees over frame intervals.

A tree covers one contiguous interval and splits recursively at the fixed
midpoint ``ceil((lo + hi) / 2)``, so an odd interval puts the larger part
on the left.  Binary error search uses the same split function, which keeps
tree nodes and search intervals on one shared lattice.

Nodes carry a small set of independent color flags:

* ``SYNDROME_KNOWN`` ("red") - the remote parity of the interval has been
  disclosed; the value and the round it was learned in are stored.
* ``ERROR_LEAF`` ("blue") - a corrected bit lives at this unit interval.
* ``COMPROMISED`` ("yellow") - the bit value at this unit interval became
  known to an eavesdropper (a search narrowed it to a singleton).

A node with no flags is neutral.  Colors only ever accumulate; no
operation removes a flag.  Trees are persistent values: every operation
returns a new tree, sharing untouched subtrees, and never mutates its
inputs.  Children are materialized lazily, in sibling pairs, only along
the paths that operations actually touch; several queries are defined in
terms of that materialized structure.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import SyndromeConflictError, TreeStructureError

Interval = tuple[int, int]


class NodeColor(enum.Flag):
    NEUTRAL = 0
    SYNDROME_KNOWN = enum.auto()
    ERROR_LEAF = enum.auto()
    COMPROMISED = enum.auto()


# _UNION[a._value_][b._value_] is a | b: an enum.Flag union runs Python code.
_UNION = tuple(tuple(NodeColor(a | b) for b in range(8)) for a in range(8))


def split_point(lo: int, hi: int) -> int:
    """Shared midpoint rule: ``ceil((lo + hi) / 2)``, larger half left."""
    return (lo + hi + 1) // 2


@dataclass(frozen=True)
class ParityNode:
    lo: int
    hi: int
    color: NodeColor = NodeColor.NEUTRAL
    syndrome: Optional[int] = None
    syndrome_round: Optional[int] = None
    left: Optional["ParityNode"] = None
    right: Optional["ParityNode"] = None

    @property
    def interval(self) -> Interval:
        return (self.lo, self.hi)

    @property
    def size(self) -> int:
        return self.hi - self.lo


@dataclass(frozen=True)
class ColoredTree:
    """Persistent colored parity tree rooted at one interval."""

    root: ParityNode
    round_index: int


def build_tree(lo: int, hi: int, round_index: int = 0) -> ColoredTree:
    """Fresh tree over ``[lo, hi)`` with a single neutral, unexpanded root."""
    if hi <= lo:
        raise TreeStructureError(f"empty interval [{lo}, {hi})")
    return ColoredTree(ParityNode(lo, hi), round_index)


def _materialized_children(node: ParityNode) -> tuple[ParityNode, ParityNode]:
    if node.left is not None and node.right is not None:
        return node.left, node.right
    mid = split_point(node.lo, node.hi)
    return ParityNode(node.lo, mid), ParityNode(mid, node.hi)


def _rewrite(node: ParityNode, lo: int, hi: int, update) -> ParityNode:
    """Rebuild the path from ``node`` down to ``[lo, hi)``, applying ``update``."""
    if (node.lo, node.hi) == (lo, hi):
        return update(node)
    if node.size < 2:
        raise TreeStructureError(
            f"interval [{lo}, {hi}) is below the unit leaf [{node.lo}, {node.hi})"
        )
    mid = split_point(node.lo, node.hi)
    left, right = _materialized_children(node)
    if node.lo <= lo and hi <= mid:
        left = _rewrite(left, lo, hi, update)
    elif mid <= lo and hi <= node.hi:
        right = _rewrite(right, lo, hi, update)
    else:
        raise TreeStructureError(
            f"interval [{lo}, {hi}) is not on the split lattice of "
            f"[{node.lo}, {node.hi}) (midpoint {mid})"
        )
    return ParityNode(node.lo, node.hi, node.color, node.syndrome, node.syndrome_round, left, right)


def _check_contained(tree: ColoredTree, lo: int, hi: int) -> None:
    if hi <= lo:
        raise TreeStructureError(f"empty interval [{lo}, {hi})")
    if lo < tree.root.lo or hi > tree.root.hi:
        raise TreeStructureError(
            f"interval [{lo}, {hi}) lies outside the tree root "
            f"[{tree.root.lo}, {tree.root.hi})"
        )


def set_syndrome(tree: ColoredTree, interval: Interval, value: int, round_index: int) -> ColoredTree:
    """Record a disclosed parity for ``interval``.

    A later round stamp overrides an earlier one; setting the same node
    twice in the same round must agree on the value.  An interval that
    straddles a midpoint is off the lattice and rejected.
    """
    lo, hi = interval
    _check_contained(tree, lo, hi)
    if value not in (0, 1):
        raise TreeStructureError(f"syndrome value must be a bit, got {value!r}")

    def update(node: ParityNode) -> ParityNode:
        color = _UNION[node.color._value_][NodeColor.SYNDROME_KNOWN._value_]
        syndrome, stamp = value, round_index
        if node.syndrome_round is not None:
            if round_index == node.syndrome_round and node.syndrome != value:
                raise SyndromeConflictError(
                    f"conflicting syndromes for [{lo}, {hi}) in round {round_index}"
                )
            if round_index <= node.syndrome_round:
                syndrome, stamp = node.syndrome, node.syndrome_round
        return ParityNode(lo, hi, color, syndrome, stamp, node.left, node.right)

    return ColoredTree(_rewrite(tree.root, lo, hi, update), tree.round_index)


def _mark_leaf(tree: ColoredTree, position: int, flag: NodeColor) -> ColoredTree:
    _check_contained(tree, position, position + 1)

    def update(node: ParityNode) -> ParityNode:
        color = _UNION[node.color._value_][flag._value_]
        return ParityNode(
            node.lo, node.hi, color, node.syndrome, node.syndrome_round, node.left, node.right
        )

    return ColoredTree(_rewrite(tree.root, position, position + 1, update), tree.round_index)


def mark_error_leaf(tree: ColoredTree, position: int) -> ColoredTree:
    """Mark the unit leaf at ``position`` as a corrected error ("blue")."""
    return _mark_leaf(tree, position, NodeColor.ERROR_LEAF)


def mark_compromised(tree: ColoredTree, position: int) -> ColoredTree:
    """Mark the unit leaf at ``position`` as known to an observer ("yellow")."""
    return _mark_leaf(tree, position, NodeColor.COMPROMISED)


def _merge_nodes(a: ParityNode, b: ParityNode) -> ParityNode:
    if (a.lo, a.hi) != (b.lo, b.hi):
        raise TreeStructureError(
            f"cannot merge nodes over [{a.lo}, {a.hi}) and [{b.lo}, {b.hi})"
        )
    if a.syndrome_round is None:
        syndrome, stamp = b.syndrome, b.syndrome_round
    elif b.syndrome_round is None or a.syndrome_round > b.syndrome_round:
        syndrome, stamp = a.syndrome, a.syndrome_round
    elif b.syndrome_round > a.syndrome_round:
        syndrome, stamp = b.syndrome, b.syndrome_round
    else:
        if a.syndrome != b.syndrome:
            raise TreeStructureError(
                f"conflicting syndromes for [{a.lo}, {a.hi}) "
                f"with equal round stamps {a.syndrome_round}"
            )
        syndrome, stamp = a.syndrome, a.syndrome_round
    if a.left is None and b.left is None:
        left, right = None, None
    elif a.left is None:
        left, right = b.left, b.right
    elif b.left is None:
        left, right = a.left, a.right
    else:
        left = _merge_nodes(a.left, b.left)
        right = _merge_nodes(a.right, b.right)
    color = _UNION[a.color._value_][b.color._value_]
    return ParityNode(a.lo, a.hi, color, syndrome, stamp, left, right)


def merge_trees(a: ColoredTree, b: ColoredTree) -> ColoredTree:
    """Node-wise union of two trees over the same root interval.

    Colors are OR-ed so no flag is ever lost; syndromes are resolved in
    favor of the larger round stamp, and equal stamps must agree.
    """
    return ColoredTree(_merge_nodes(a.root, b.root), max(a.round_index, b.round_index))


def _materialized_path(tree: ColoredTree, position: int) -> list[ParityNode]:
    """Existing nodes from the root down to the deepest one holding ``position``."""
    _check_contained(tree, position, position + 1)
    path = [tree.root]
    node = tree.root
    while node.left is not None:
        mid = split_point(node.lo, node.hi)
        node = node.left if position < mid else node.right
        path.append(node)
    return path


def _sibling_on_path(parent: ParityNode, child: ParityNode) -> ParityNode:
    return parent.right if child is parent.left else parent.left


def find_unvisited_sibling(tree: ColoredTree, position: int) -> Optional[Interval]:
    """Where a follow-up search should start after correcting ``position``.

    Walks the materialized path from the corrected bit toward the root and
    returns the interval of the first sibling subtree whose syndrome is
    still unknown; ``None`` when every sibling on the path already has one
    (nothing in this tree narrows the next search).
    """
    path = _materialized_path(tree, position)
    for depth in range(len(path) - 1, 0, -1):
        sibling = _sibling_on_path(path[depth - 1], path[depth])
        if NodeColor.SYNDROME_KNOWN not in sibling.color:
            return sibling.interval
    return None


def multi_error_frontier(tree: ColoredTree, positions: Iterable[int]) -> tuple[Interval, ...]:
    """Minimal disjoint set of follow-up search intervals for many errors.

    Takes ``find_unvisited_sibling`` of every corrected position, then
    drops duplicates and any interval that contains another, so the result
    is pairwise disjoint with no ancestor pairs.  A single position gives
    exactly the ``find_unvisited_sibling`` answer; an empty set gives an
    empty tuple.
    """
    regions: list[Interval] = []
    for position in sorted(set(positions)):
        region = find_unvisited_sibling(tree, position)
        if region is not None and region not in regions:
            regions.append(region)
    # Intervals on one split lattice are nested or disjoint; keep the deep ones.
    minimal = [
        r
        for r in regions
        if not any(o != r and r[0] <= o[0] and o[1] <= r[1] for o in regions)
    ]
    return tuple(sorted(minimal))


def iter_nodes(tree: ColoredTree):
    """Depth-first preorder iteration of (depth, node) over existing nodes."""
    stack = [(0, tree.root)]
    while stack:
        depth, node = stack.pop()
        yield depth, node
        if node.left is not None:
            stack.append((depth + 1, node.right))
            stack.append((depth + 1, node.left))


def color_map(tree: ColoredTree) -> dict[Interval, tuple[NodeColor, Optional[int], Optional[int]]]:
    """Flat view of the materialized nodes, for comparisons and tests."""
    return {
        node.interval: (node.color, node.syndrome, node.syndrome_round)
        for _, node in iter_nodes(tree)
    }

