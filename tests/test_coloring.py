"""Unit + property tests for conflict extraction, coloring, permutations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coloring import (
    block_permute,
    color_blocks,
    color_elements,
    conflict_targets,
    full_permute,
    greedy_color,
    is_valid_block_coloring,
    is_valid_coloring,
    jp_color,
    make_blocks,
    racing_slots,
)
from repro.core import INC, READ, Dat, Map, Set, arg_dat
from repro.core.access import IDX_ALL


def ring_args(n_edges: int, inc: bool = True):
    """Edges of a ring graph; consecutive edges share a node."""
    nodes = Set(n_edges, "nodes")
    edges = Set(n_edges, "edges")
    conn = np.stack(
        [np.arange(n_edges), (np.arange(n_edges) + 1) % n_edges], axis=1
    )
    m = Map(edges, nodes, 2, conn, "e2n")
    d = Dat(nodes, 1)
    acc = INC if inc else READ
    return edges, [arg_dat(d, 0, m, acc), arg_dat(d, 1, m, acc)]


class TestConflictTargets:
    def test_no_race_gives_none(self):
        _, args = ring_args(6, inc=False)
        targets, extent = conflict_targets(args, 6)
        assert targets is None and extent == 0

    def test_targets_shape(self):
        _, args = ring_args(6)
        targets, extent = conflict_targets(args, 6)
        assert targets.shape == (6, 2)
        assert extent == 6

    def test_racing_slots_dedup(self):
        edges, args = ring_args(4)
        # Duplicate INC arg on the same slot adds no new constraint.
        args = args + [args[0]]
        assert len(racing_slots(args)) == 2

    def test_vector_arg_covers_all_slots(self):
        nodes, edges = Set(5), Set(4)
        m = Map(edges, nodes, 3, np.zeros((4, 3), int), "m3")
        d = Dat(nodes, 1)
        slots = racing_slots([arg_dat(d, IDX_ALL, m, INC)])
        assert len(slots) == 3

    def test_two_target_sets_offset(self):
        a_set, b_set = Set(3, "a"), Set(3, "b")
        it = Set(3, "it")
        ma = Map(it, a_set, 1, np.array([0, 1, 2]), "ma")
        mb = Map(it, b_set, 1, np.array([0, 1, 2]), "mb")
        da, db = Dat(a_set, 1), Dat(b_set, 1)
        targets, extent = conflict_targets(
            [arg_dat(da, 0, ma, INC), arg_dat(db, 0, mb, INC)], 3
        )
        assert extent == 6
        # Same local index in different sets must NOT collide.
        assert targets[0, 0] != targets[0, 1]

    def test_validity_checker_catches_conflict(self):
        _, args = ring_args(4)
        targets, _ = conflict_targets(args, 4)
        bad = np.zeros(4, dtype=np.int32)  # all same color: edges share nodes
        assert not is_valid_coloring(bad, targets)

    def test_validity_checker_allows_self_duplicate(self):
        # A degenerate element hitting one target through two slots is not
        # a cross-element conflict.
        nodes, edges = Set(2, "n"), Set(1, "e")
        m = Map(edges, nodes, 2, np.array([[1, 1]]), "deg")
        d = Dat(nodes, 1)
        targets, _ = conflict_targets(
            [arg_dat(d, 0, m, INC), arg_dat(d, 1, m, INC)], 1
        )
        assert is_valid_coloring(np.zeros(1, dtype=np.int32), targets)


class TestGreedyAndJP:
    @pytest.mark.parametrize("fn", [greedy_color, jp_color])
    def test_ring_coloring_valid(self, fn):
        _, args = ring_args(10)
        targets, extent = conflict_targets(args, 10)
        colors, ncolors = fn(targets, 10, extent)
        assert is_valid_coloring(colors, targets)
        assert ncolors == colors.max() + 1
        assert 2 <= ncolors <= 4

    @pytest.mark.parametrize("fn", [greedy_color, jp_color])
    def test_no_targets_single_color(self, fn):
        colors, ncolors = fn(None, 5)
        assert ncolors == 1 and (colors == 0).all()

    def test_empty_set(self):
        colors, ncolors = greedy_color(None, 0)
        assert colors.size == 0 and ncolors == 0

    def test_method_dispatch(self):
        _, args = ring_args(8)
        targets, extent = conflict_targets(args, 8)
        for method in ("greedy", "jp", "auto"):
            colors, _ = color_elements(targets, 8, extent, method=method)
            assert is_valid_coloring(colors, targets)
        with pytest.raises(ValueError):
            color_elements(targets, 8, extent, method="nope")

    def test_jp_deterministic_per_seed(self):
        _, args = ring_args(20)
        targets, extent = conflict_targets(args, 20)
        c1, _ = jp_color(targets, 20, extent, seed=7)
        c2, _ = jp_color(targets, 20, extent, seed=7)
        np.testing.assert_array_equal(c1, c2)


class TestBlocks:
    def test_make_blocks_even(self):
        layout = make_blocks(10, 5)
        assert layout.nblocks == 2
        assert layout.block_range(1) == (5, 10)

    def test_make_blocks_remainder_absorbed(self):
        layout = make_blocks(11, 5)
        assert layout.nblocks == 2
        assert layout.block_range(1) == (5, 11)
        np.testing.assert_array_equal(layout.sizes(), [5, 6])

    def test_block_smaller_than_size(self):
        layout = make_blocks(3, 100)
        assert layout.nblocks == 1

    def test_empty(self):
        assert make_blocks(0, 4).nblocks == 0

    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            make_blocks(5, 0)

    def test_block_coloring_valid(self):
        _, args = ring_args(24)
        targets, extent = conflict_targets(args, 24)
        layout = make_blocks(24, 4)
        colors, ncolors = color_blocks(layout, targets, extent)
        assert is_valid_block_coloring(layout, colors, targets)
        assert ncolors >= 2  # adjacent blocks share a node

    def test_block_coloring_direct(self):
        layout = make_blocks(8, 4)
        colors, ncolors = color_blocks(layout, None, 0)
        assert ncolors == 1 and (colors == 0).all()


class TestPermutations:
    def test_full_permute_is_bijection(self):
        _, args = ring_args(17)
        targets, extent = conflict_targets(args, 17)
        perm = full_permute(targets, 17, extent)
        assert sorted(perm.order.tolist()) == list(range(17))
        assert perm.color_offsets[-1] == 17

    def test_full_permute_colors_independent(self):
        _, args = ring_args(17)
        targets, extent = conflict_targets(args, 17)
        perm = full_permute(targets, 17, extent)
        for c in range(perm.ncolors):
            elems = perm.color_slice(c)
            seen = set()
            for e in elems:
                tg = set(targets[e].tolist())
                assert not (seen & tg)
                seen |= tg

    def test_block_permute_is_bijection(self):
        _, args = ring_args(23)
        targets, extent = conflict_targets(args, 23)
        layout = make_blocks(23, 5)
        bp = block_permute(layout, targets, extent)
        assert sorted(bp.order.tolist()) == list(range(23))

    def test_block_permute_blocks_contiguous(self):
        _, args = ring_args(20)
        targets, extent = conflict_targets(args, 20)
        layout = make_blocks(20, 5)
        bp = block_permute(layout, targets, extent)
        for b in range(layout.nblocks):
            lo, hi = layout.block_range(b)
            assert sorted(bp.order[lo:hi].tolist()) == list(range(lo, hi))

    def test_block_permute_color_groups_independent(self):
        _, args = ring_args(20)
        targets, extent = conflict_targets(args, 20)
        layout = make_blocks(20, 5)
        bp = block_permute(layout, targets, extent)
        for b in range(layout.nblocks):
            for c in range(bp.block_ncolors(b)):
                elems = bp.block_color_slice(b, c)
                seen = set()
                for e in elems:
                    tg = set(targets[e].tolist())
                    assert not (seen & tg)
                    seen |= tg


# ----------------------------------------------------------------------
# Property-based tests on random bipartite structures.
# ----------------------------------------------------------------------
@st.composite
def random_loop(draw):
    n_targets = draw(st.integers(2, 30))
    n_elems = draw(st.integers(1, 60))
    arity = draw(st.integers(1, 3))
    conn = draw(
        st.lists(
            st.lists(st.integers(0, n_targets - 1), min_size=arity,
                     max_size=arity),
            min_size=n_elems,
            max_size=n_elems,
        )
    )
    return n_targets, np.asarray(conn, dtype=np.int64)


@given(random_loop())
@settings(max_examples=60, deadline=None)
def test_property_colorings_always_valid(loop):
    n_targets, conn = loop
    n = conn.shape[0]
    targets = conn
    for fn in (greedy_color, jp_color):
        colors, ncolors = fn(targets, n, n_targets)
        assert is_valid_coloring(colors, targets)
        assert (colors >= 0).all()
        assert ncolors == colors.max() + 1


@given(random_loop(), st.integers(1, 16))
@settings(max_examples=40, deadline=None)
def test_property_block_permute_bijection(loop, block_size):
    n_targets, conn = loop
    n = conn.shape[0]
    layout = make_blocks(n, block_size)
    bp = block_permute(layout, conn, n_targets)
    assert sorted(bp.order.tolist()) == list(range(n))


@given(random_loop())
@settings(max_examples=40, deadline=None)
def test_property_full_permute_color_groups(loop):
    n_targets, conn = loop
    n = conn.shape[0]
    perm = full_permute(conn, n, n_targets)
    covered = np.zeros(n, dtype=bool)
    for c in range(perm.ncolors):
        for e in perm.color_slice(c):
            covered[e] = True
    assert covered.all()
