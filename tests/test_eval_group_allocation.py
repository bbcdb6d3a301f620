"""Group-level allocation tests."""

import pytest

from conftest import TEST_THRESHOLD
from repro.analysis.groups import Grouping, group_by_bias
from repro.eval.group_allocation import (
    allocate_groups,
    format_group_ablation,
    run_group_ablation,
)
from repro.profiling.profile import BranchStats, InterleaveProfile, pair_key


def _profile():
    return InterleaveProfile(
        branches={
            0x10: BranchStats(500, 500),   # taken-biased
            0x20: BranchStats(500, 499),   # taken-biased
            0x30: BranchStats(500, 250),   # mixed
            0x40: BranchStats(500, 200),   # mixed
        },
        pairs={
            pair_key(0x10, 0x20): 400,
            pair_key(0x10, 0x30): 350,
            pair_key(0x30, 0x40): 300,
        },
        name="grp-alloc",
    )


def test_allocate_groups_members_share_an_entry():
    profile = _profile()
    grouping = group_by_bias(profile)
    result = allocate_groups(profile, grouping, bht_size=8, threshold=100)
    assert result.assignment[0x10] == result.assignment[0x20]
    assert result.cost == 0
    assert result.group_count == 3  # taken group + two mixed singletons


def test_allocate_groups_separates_conflicting_groups():
    profile = _profile()
    grouping = group_by_bias(profile)
    result = allocate_groups(profile, grouping, bht_size=8, threshold=100)
    # the taken group conflicts with mixed 0x30 (350 > threshold)
    assert result.assignment[0x10] != result.assignment[0x30]
    assert result.assignment[0x30] != result.assignment[0x40]


def test_allocate_groups_index_map_falls_back():
    profile = _profile()
    result = allocate_groups(
        profile, group_by_bias(profile), bht_size=8, threshold=100
    )
    index_map = result.index_map()
    assert index_map.index(0x10) == result.assignment[0x10]
    assert 0 <= index_map.index(0x9999) < 8  # unmapped -> fallback


def test_allocate_groups_with_trivial_grouping_matches_branch_level():
    profile = _profile()
    identity = Grouping(
        assignment={pc: i for i, pc in enumerate(sorted(profile.branches))},
        labels={},
    )
    result = allocate_groups(profile, identity, bht_size=8, threshold=100)
    # identity grouping: every branch keeps its own entry, no conflicts
    assert result.cost == 0
    entries = {result.assignment[pc] for pc in profile.branches}
    assert len(entries) == 4


def test_run_group_ablation_rows(engine):
    rows = run_group_ablation(
        engine, ["compress"], bht_size=64, threshold=TEST_THRESHOLD
    )
    (row,) = rows
    assert row.benchmark == "compress"
    assert row.bias_groups >= 1
    assert row.pattern_groups >= 1
    for rate in (
        row.branch_mispredict,
        row.bias_mispredict,
        row.pattern_mispredict,
        row.conventional,
    ):
        assert 0.0 <= rate <= 1.0
    text = format_group_ablation(rows)
    assert "group-level allocation" in text
    assert format_group_ablation([]) == "(no results)"
