"""Tests for the colored parity tree."""

import random

import pytest

from cascade_sim.errors import SyndromeConflictError, TreeStructureError
from cascade_sim.paritytree import (
    ColoredTree,
    NodeColor,
    build_tree,
    color_map,
    find_unvisited_sibling,
    iter_nodes,
    mark_compromised,
    mark_error_leaf,
    merge_trees,
    multi_error_frontier,
    set_syndrome,
    split_point,
)

# ---------------------------------------------------------------- helpers


def lattice_intervals(lo, hi):
    """Every interval the split rule can produce inside [lo, hi)."""
    out = [(lo, hi)]
    if hi - lo >= 2:
        mid = split_point(lo, hi)
        out += lattice_intervals(lo, mid) + lattice_intervals(mid, hi)
    return out


def random_colored_tree(span, rng, rounds=3):
    """Randomly materialize and color a tree over [0, span)."""
    tree = build_tree(0, span)
    nodes = lattice_intervals(0, span)
    for interval in rng.sample(nodes, k=rng.randint(0, len(nodes))):
        tree = set_syndrome(tree, interval, rng.randint(0, 1), rng.randrange(rounds))
    for _ in range(rng.randint(0, 3)):
        pos = rng.randrange(span)
        tree = mark_error_leaf(tree, pos)
        if rng.random() < 0.5:
            tree = mark_compromised(tree, pos)
    return tree


# ------------------------------------------------------------ fundamentals


def test_split_point_prefers_larger_left_half():
    assert split_point(0, 8) == 4
    assert split_point(0, 5) == 3
    assert split_point(2, 4) == 3
    assert split_point(0, 2) == 1
    assert split_point(6, 7) == 7  # degenerate: unit interval


def test_build_tree_rejects_empty_interval():
    with pytest.raises(TreeStructureError):
        build_tree(3, 3)
    with pytest.raises(TreeStructureError):
        build_tree(5, 2)


def test_fresh_tree_is_one_neutral_node():
    tree = build_tree(0, 8)
    assert color_map(tree) == {(0, 8): (NodeColor.NEUTRAL, None, None)}


def test_set_syndrome_materializes_the_path_in_pairs():
    tree = set_syndrome(build_tree(0, 8), (0, 2), 1, 0)
    # path 0-8 -> 0-4 -> 0-2, with each sibling materialized alongside
    assert set(color_map(tree)) == {(0, 8), (0, 4), (4, 8), (0, 2), (2, 4)}
    colors = color_map(tree)
    assert colors[(0, 2)] == (NodeColor.SYNDROME_KNOWN, 1, 0)
    assert colors[(2, 4)] == (NodeColor.NEUTRAL, None, None)
    assert colors[(4, 8)] == (NodeColor.NEUTRAL, None, None)


def test_set_syndrome_is_persistent():
    base = build_tree(0, 4)
    colored = set_syndrome(base, (0, 4), 0, 0)
    assert color_map(base) == {(0, 4): (NodeColor.NEUTRAL, None, None)}
    assert NodeColor.SYNDROME_KNOWN in colored.root.color


def test_set_syndrome_rejects_off_lattice_intervals():
    tree = build_tree(0, 8)
    for bad in [(1, 3), (3, 5), (2, 6), (0, 3)]:
        with pytest.raises(TreeStructureError):
            set_syndrome(tree, bad, 0, 0)
    with pytest.raises(TreeStructureError):
        set_syndrome(tree, (0, 9), 0, 0)  # outside the root
    with pytest.raises(TreeStructureError):
        set_syndrome(tree, (4, 4), 0, 0)  # empty
    with pytest.raises(TreeStructureError):
        set_syndrome(tree, (0, 8), 2, 0)  # not a bit


def test_odd_interval_lattice_follows_larger_left_rule():
    # [0, 5) splits 0-3 / 3-5, then 0-2 / 2-3 and 3-4 / 4-5.
    tree = set_syndrome(build_tree(0, 5), (2, 3), 1, 0)
    assert (0, 3) in color_map(tree) and (3, 5) in color_map(tree)
    with pytest.raises(TreeStructureError):
        set_syndrome(build_tree(0, 5), (1, 3), 0, 0)


def test_later_round_overrides_earlier_syndrome():
    tree = set_syndrome(build_tree(0, 4), (0, 4), 0, 1)
    tree = set_syndrome(tree, (0, 4), 1, 3)
    assert color_map(tree)[(0, 4)] == (NodeColor.SYNDROME_KNOWN, 1, 3)
    # an older stamp keeps the newer value
    tree = set_syndrome(tree, (0, 4), 0, 2)
    assert color_map(tree)[(0, 4)] == (NodeColor.SYNDROME_KNOWN, 1, 3)


def test_same_round_same_value_tolerated_conflict_raises():
    tree = set_syndrome(build_tree(0, 4), (0, 4), 1, 2)
    set_syndrome(tree, (0, 4), 1, 2)  # idempotent re-set is fine
    with pytest.raises(SyndromeConflictError):
        set_syndrome(tree, (0, 4), 0, 2)


def test_leaf_marks_accumulate_and_never_clear():
    tree = mark_error_leaf(build_tree(0, 4), 2)
    assert color_map(tree)[(2, 3)][0] == NodeColor.ERROR_LEAF
    tree = mark_compromised(tree, 2)
    combined = NodeColor.ERROR_LEAF | NodeColor.COMPROMISED
    assert color_map(tree)[(2, 3)][0] == combined
    tree = set_syndrome(tree, (2, 3), 1, 0)
    assert color_map(tree)[(2, 3)][0] == combined | NodeColor.SYNDROME_KNOWN
    with pytest.raises(TreeStructureError):
        mark_error_leaf(tree, 4)


# --------------------------------------------------------- follow-up rules


def case_a_tree():
    """Root, left half and its left child disclosed; the rest untouched."""
    tree = build_tree(0, 8)
    tree = set_syndrome(tree, (0, 8), 0, 0)
    tree = set_syndrome(tree, (0, 4), 1, 0)
    tree = set_syndrome(tree, (0, 2), 1, 0)
    return tree


def test_find_unvisited_sibling_walks_up_to_first_unknown():
    tree = case_a_tree()
    assert find_unvisited_sibling(tree, 1) == (2, 4)
    # disclosing (2, 4) pushes the answer up to (4, 8)
    tree = set_syndrome(tree, (2, 4), 0, 0)
    assert find_unvisited_sibling(tree, 1) == (4, 8)
    tree = set_syndrome(tree, (4, 8), 1, 0)
    assert find_unvisited_sibling(tree, 1) is None


def test_find_unvisited_sibling_on_fresh_tree_is_none():
    # No materialized children: the path is just the root, no siblings.
    assert find_unvisited_sibling(build_tree(0, 8), 3) is None


def test_frontier_two_disjoint_regions():
    tree = build_tree(0, 8)
    for interval in [(0, 8), (0, 4), (4, 8), (0, 2), (6, 8)]:
        tree = set_syndrome(tree, interval, 0, 0)
    assert multi_error_frontier(tree, {1, 6}) == ((2, 4), (4, 6))


def test_frontier_drops_containing_intervals():
    tree = set_syndrome(build_tree(0, 8), (0, 8), 0, 0)
    tree = set_syndrome(tree, (0, 2), 1, 0)
    # position 1 stops at sibling (2, 4); position 5's sibling (0, 4)
    # contains it and is dropped.
    assert multi_error_frontier(tree, {1, 5}) == ((2, 4),)


def test_frontier_empty_and_singleton():
    tree = case_a_tree()
    assert multi_error_frontier(tree, set()) == ()
    assert multi_error_frontier(tree, {1}) == (find_unvisited_sibling(tree, 1),)


def test_frontier_matches_single_position_sibling_randomized():
    rng = random.Random(404)
    for trial in range(150):
        span = rng.randint(2, 16)
        tree = random_colored_tree(span, rng)
        pos = rng.randrange(span)
        single = find_unvisited_sibling(tree, pos)
        frontier = multi_error_frontier(tree, {pos})
        assert frontier == (() if single is None else (single,))


# ------------------------------------------------------------------ merge


def test_merge_unions_colors_and_structure():
    a = set_syndrome(build_tree(0, 8), (0, 4), 1, 0)
    b = mark_error_leaf(build_tree(0, 8), 6)
    merged = merge_trees(a, b)
    colors = color_map(merged)
    assert colors[(0, 4)][0] == NodeColor.SYNDROME_KNOWN
    assert colors[(6, 7)][0] == NodeColor.ERROR_LEAF
    assert set(colors) >= set(color_map(a)) | set(color_map(b))


def test_merge_takes_larger_round_stamp():
    a = set_syndrome(build_tree(0, 4), (0, 4), 0, 1)
    b = set_syndrome(build_tree(0, 4), (0, 4), 1, 2)
    for merged in (merge_trees(a, b), merge_trees(b, a)):
        assert color_map(merged)[(0, 4)] == (NodeColor.SYNDROME_KNOWN, 1, 2)


def test_merge_equal_stamps_must_agree():
    a = set_syndrome(build_tree(0, 4), (0, 4), 0, 1)
    b = set_syndrome(build_tree(0, 4), (0, 4), 1, 1)
    with pytest.raises(TreeStructureError):
        merge_trees(a, b)
    same = set_syndrome(build_tree(0, 4), (0, 4), 0, 1)
    assert color_map(merge_trees(a, same))[(0, 4)] == (NodeColor.SYNDROME_KNOWN, 0, 1)


def test_merge_rejects_mismatched_roots():
    with pytest.raises(TreeStructureError):
        merge_trees(build_tree(0, 4), build_tree(0, 8))


def test_merge_never_grows_the_distinct_frontier_count():
    # Merging pools syndrome knowledge, so the number of distinct
    # unknown-syndrome frontier intervals can only shrink or stay put.
    rng = random.Random(77)
    checked = 0
    for trial in range(400):
        span = rng.randint(2, 12)
        a = random_colored_tree(span, rng)
        b = random_colored_tree(span, rng)
        try:
            merged = merge_trees(a, b)
        except TreeStructureError:
            continue  # equal-stamp conflict; nothing to check
        checked += 1
        frontier_m = set(multi_error_frontier(merged, range(span)))
        frontier_a = set(multi_error_frontier(a, range(span)))
        frontier_b = set(multi_error_frontier(b, range(span)))
        assert len(frontier_m) <= len(frontier_a | frontier_b)
    assert checked > 200


def test_materialized_children_partition_their_parent():
    rng = random.Random(909)
    for trial in range(100):
        tree = random_colored_tree(rng.randint(2, 20), rng)
        for _, node in iter_nodes(tree):
            if node.left is not None:
                assert node.left.lo == node.lo
                assert node.left.hi == node.right.lo == split_point(node.lo, node.hi)
                assert node.right.hi == node.hi


# ------------------------------------------------------------- inspection


def test_iter_nodes_is_depth_first_preorder():
    tree = set_syndrome(case_a_tree(), (6, 8), 1, 1)
    order = [node.interval for _, node in iter_nodes(tree)]
    assert order == [(0, 8), (0, 4), (0, 2), (2, 4), (4, 8), (4, 6), (6, 8)]
    depths = [depth for depth, _ in iter_nodes(tree)]
    assert depths == [0, 1, 2, 2, 1, 2, 2]
