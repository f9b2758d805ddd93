from hypothesis import given, settings, strategies as st

from cachelab import ClockCache, LruCache, gen_cycle, gen_fuzz


def run_misses(policy, trace):
    return sum(0 if policy.request(p).was_hit else 1 for p in trace)


class TestLru:
    def test_basic_hit_and_order(self):
        lru = LruCache(2)
        outcomes = [lru.request(p).was_hit for p in [1, 2, 1]]
        assert outcomes == [False, False, True]
        assert lru.state() == ((1, 2),)

    def test_cycle_thrashes(self):
        # capacity 3 against a 4-page cycle: every page is evicted before reuse
        assert run_misses(LruCache(3), gen_cycle(4, 20)) == 20

    def test_short_mixed_trace(self):
        assert run_misses(LruCache(2), [1, 2, 3, 1, 2]) == 5

    def test_eviction_is_lru_end(self):
        lru = LruCache(2)
        lru.request(1)
        lru.request(2)
        out = lru.request(3)
        assert out.evicted_cache_page == 1

    def test_reuse_distance_characterization(self):
        # independent oracle: an LRU hit happens exactly when fewer than N
        # distinct pages intervened since the previous use
        n = 4
        lru = LruCache(n)
        history = []
        for page in gen_fuzz(9, 600, seed=5):
            if page in history:
                since = history[history.index(page) + 1:]
                expected = len(set(since)) < n
            else:
                expected = False
            assert lru.request(page).was_hit == expected
            if page in history:
                history.remove(page)
            history.append(page)


class TestClock:
    def test_marked_head_skipped(self):
        clock = ClockCache(2)
        outcomes = [clock.request(p) for p in [1, 2, 1, 3]]
        assert [o.was_hit for o in outcomes] == [False, False, True, False]
        # the final miss unmarks page 1 and evicts page 2 instead
        assert outcomes[3].evicted_cache_page == 2
        assert list(clock.ring) == [1, 3]
        assert clock.marks == {1: False, 3: False}

    def test_sweep_reports_the_pages_given_a_second_chance(self):
        clock = ClockCache(3)
        outcomes = [clock.request(p) for p in ["a", "b", "c", "b", "d", "a"]]
        assert [o.swept for o in outcomes[:5]] == [()] * 5
        assert outcomes[4].evicted_cache_page == "a"
        assert outcomes[5].swept == ("b",)
        assert outcomes[5].evicted_cache_page == "c"

    def test_sweep_over_a_fully_marked_ring_evicts_the_original_head(self):
        clock = ClockCache(3)
        outcomes = [clock.request(p) for p in ["a", "b", "c", "a", "b", "c", "d"]]
        assert outcomes[-1].swept == ("a", "b", "c")
        assert outcomes[-1].evicted_cache_page == "a"
        assert list(clock.ring) == ["b", "c", "d"]
        assert not any(clock.marks.values())

    def test_fifo_when_unmarked(self):
        clock = ClockCache(2)
        outs = [clock.request(p) for p in [1, 2, 3]]
        assert outs[2].evicted_cache_page == 1

    def test_hit_on_marked_page_is_idempotent(self):
        clock = ClockCache(2)
        for page in [1, 2, 1]:
            clock.request(page)
        digest = clock.digest()
        out = clock.request(1)
        assert out.was_hit
        assert clock.digest() == digest

    def test_hit_never_moves_the_hand(self):
        clock = ClockCache(3)
        for page in [1, 2, 3]:
            clock.request(page)
        clock.request(2)
        assert list(clock.ring) == [1, 2, 3]

    def test_behaves_as_fifo_without_hits(self):
        # all-distinct trace: eviction order equals insertion order
        clock = ClockCache(3)
        evicted = []
        for page in range(10):
            out = clock.request(page)
            if out.evicted_cache_page is not None:
                evicted.append(out.evicted_cache_page)
        assert evicted == list(range(7))

    @settings(max_examples=60, deadline=None)
    @given(trace=st.lists(st.integers(min_value=0, max_value=11), max_size=80),
           capacity=st.integers(min_value=1, max_value=5))
    def test_ring_size_is_min_distinct_capacity(self, trace, capacity):
        clock = ClockCache(capacity)
        seen = set()
        for page in trace:
            clock.request(page)
            seen.add(page)
            assert len(clock.ring) == min(len(seen), capacity)
