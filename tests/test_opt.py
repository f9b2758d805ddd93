import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from cachelab import (
    annotate_next_use,
    belady_run,
    exhaustive_opt,
    gen_cycle,
    gen_fuzz,
    gen_scan_mix,
    gen_zipf,
    make_policy,
)
from cachelab.core import canonical_key

INF = math.inf


class TestAnnotate:
    def test_basic(self):
        assert annotate_next_use([1, 2, 1]) == [2, INF, INF]

    def test_empty(self):
        assert annotate_next_use([]) == []

    def test_repeated_page(self):
        assert annotate_next_use([5, 5, 5]) == [1, 2, INF]


class TestBelady:
    def test_furthest_next_use_evicted(self):
        schedule = belady_run([1, 2, 3, 1, 2], 2)
        assert schedule.miss_count == 4
        assert schedule.miss_flags() == [True, True, True, False, True]
        # at position 2, page 2 (next use 4) goes instead of page 1 (next use 3)
        assert list(schedule.steps)[2].evicted == 2

    def test_compulsory_misses_only_when_everything_fits(self):
        trace = gen_fuzz(5, 300, seed=3)
        schedule = belady_run(trace, 8)
        assert schedule.miss_count == len(set(trace))
        assert all(s.evicted is None for s in schedule.steps)

    def test_cycle_cross_checked_against_exhaustive(self):
        trace = [p + 1 for p in gen_cycle(4, 20)]
        exact = exhaustive_opt(trace, 3, max_length=20, max_distinct=5, max_capacity=3)
        assert belady_run(trace, 3).miss_count == exact == 9

    def test_requested_page_always_cached_after(self):
        trace = gen_fuzz(7, 400, seed=13)
        schedule = belady_run(trace, 3)
        for page, step in zip(trace, schedule.steps):
            assert page in step.cache_after
            assert len(step.cache_after) <= 3

    def test_demand_paging_changes_cache_only_on_miss(self):
        trace = gen_fuzz(7, 400, seed=19)
        schedule = belady_run(trace, 3)
        previous = frozenset()
        for step in schedule.steps:
            if step.was_hit:
                assert step.cache_after == previous
                assert step.evicted is None
            else:
                added = step.cache_after - previous
                gone = previous - step.cache_after
                assert len(added) == 1
                assert len(gone) in (0, 1)
                assert (step.evicted is not None) == (len(gone) == 1)
            previous = step.cache_after

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            belady_run([1, 2], 0)


class TestExhaustive:
    def test_known_small_instances(self):
        assert exhaustive_opt([1, 2, 3, 1, 2], 2) == 4
        assert exhaustive_opt([1, 2, 1, 2], 1) == 4
        assert exhaustive_opt([1, 2, 1, 2], 2) == 2

    def test_rejects_out_of_bounds_instances(self):
        with pytest.raises(ValueError):
            exhaustive_opt(list(range(13)), 2)
        with pytest.raises(ValueError):
            exhaustive_opt([1, 2, 3, 4, 5, 6], 2)
        with pytest.raises(ValueError):
            exhaustive_opt([1, 2, 3], 4)

    def test_matches_belady_on_three_letter_traces_up_to_length_six(self):
        for length in range(7):
            for trace in itertools.product(range(3), repeat=length):
                trace = list(trace)
                assert belady_run(trace, 2).miss_count == exhaustive_opt(trace, 2)


def test_optimality_dominates_online_policies():
    for seed in range(6):
        trace = gen_fuzz(10, 500, seed=800 + seed)
        opt_misses = belady_run(trace, 4).miss_count
        for name in ("lru", "clock", "arc", "car"):
            policy = make_policy(name, 4)
            misses = sum(0 if policy.request(p).was_hit else 1 for p in trace)
            assert opt_misses <= misses


# ---------------------------------------------------------------------------
# differential tests against the linear-scan oracle that belady_run replaced


def reference_belady_steps(trace, capacity):
    """The former belady_run: scan every cached page on each miss (ties
    by canonical key, then by dict order, i.e. earliest admission) and
    snapshot the cache after every request."""
    next_use = annotate_next_use(trace)
    cache = {}
    steps = []
    for i, page in enumerate(trace):
        if page in cache:
            cache[page] = next_use[i]
            steps.append((True, None, frozenset(cache)))
            continue
        evicted = None
        if len(cache) == capacity:
            victim = None
            victim_use = -1
            for cached, use in cache.items():
                if use > victim_use or (
                    use == victim_use and canonical_key(cached) < canonical_key(victim)
                ):
                    victim, victim_use = cached, use
            del cache[victim]
            evicted = victim
        cache[page] = next_use[i]
        steps.append((False, evicted, frozenset(cache)))
    return steps


def heap_steps(trace, capacity):
    return [(s.was_hit, s.evicted, s.cache_after) for s in belady_run(trace, capacity).steps]


DIFFERENTIAL_CONFIGS = [
    (kind, n, seed)
    for kind in ("fuzz", "zipf", "scan_mix")
    for n in (1, 2, 3, 8)
    for seed in range(40)
]


def _differential_trace(kind, seed):
    if kind == "fuzz":
        return gen_fuzz(12, 240, seed=seed)
    if kind == "zipf":
        return gen_zipf(40, 0.8, 240, seed=seed)
    return gen_scan_mix(6, 5, 240, seed=seed)


class TestHeapOracleAgainstLinearScan:
    def test_same_steps_on_seeded_configs(self):
        assert len(DIFFERENTIAL_CONFIGS) >= 480
        for kind, n, seed in DIFFERENTIAL_CONFIGS:
            trace = _differential_trace(kind, seed)
            assert heap_steps(trace, n) == reference_belady_steps(trace, n), (kind, n, seed)

    def test_long_hit_heavy_trace(self):
        trace = gen_zipf(300, 1.1, 6000, seed=5)
        assert heap_steps(trace, 16) == reference_belady_steps(trace, 16)

    def test_mixed_types_tie_break_by_admission(self):
        # 1 and "1" are distinct pages with the same canonical key; among
        # pages never used again, the earlier admitted one goes first
        evicted = list(belady_run([1, "1", 2], 2).steps)[2].evicted
        assert evicted == 1 and type(evicted) is int
        assert list(belady_run(["1", 1, 2], 2).steps)[2].evicted == "1"

    def test_mixed_types_match_reference_without_type_error(self):
        base = gen_fuzz(6, 400, seed=21)
        trace = [p if i % 3 else str(p) for i, p in enumerate(base)]
        trace += [None, (1,), 2.5, "None", "(1,)"]
        for n in (1, 2, 3, 5):
            assert heap_steps(trace, n) == reference_belady_steps(trace, n)

    def test_schedule_stores_no_snapshots(self):
        schedule = belady_run(gen_fuzz(7, 500, seed=8), 3)
        assert len(schedule.hits) == 500
        assert len(schedule.admitted) == len(schedule.evicted) == schedule.miss_count
        assert schedule.miss_flags() == [not h for h in schedule.hits]


@settings(max_examples=200, deadline=None)
@given(
    trace=st.lists(st.integers(min_value=0, max_value=4), max_size=12),
    capacity=st.integers(min_value=1, max_value=3),
)
def test_miss_count_matches_exhaustive(trace, capacity):
    assert belady_run(trace, capacity).miss_count == exhaustive_opt(trace, capacity)
