from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from cachelab import ADAPT_RATIO, ArcCache, check_arc_structure, gen_fuzz


def drive(arc, trace):
    return [arc.request(p) for p in trace]


class TestRequest:
    def test_short_trace_full_state(self):
        arc = ArcCache(2)
        outcomes = drive(arc, [1, 2, 1, 3])
        assert [o.was_hit for o in outcomes] == [False, False, True, False]
        # the final miss demotes LRU(T1)=2 into B1 before 3 enters
        assert outcomes[3].evicted_cache_page == 2
        assert outcomes[3].replace_dest == "B1"
        p, t1, t2, b1, b2 = arc.state()
        assert t1 == (3,)
        assert t2 == (1,)
        assert b1 == (2,)
        assert b2 == ()
        assert p == arc.p == 0

    def test_hit_on_mru_t2_changes_nothing(self):
        arc = ArcCache(2)
        drive(arc, [1, 2, 1])
        digest = arc.digest()
        out = arc.request(1)
        assert out.was_hit
        assert arc.digest() == digest

    def test_t1_hit_promotes_into_t2(self):
        arc = ArcCache(2)
        drive(arc, [1, 2])
        assert arc.state()[1] == (2, 1)
        out = arc.request(1)
        assert out.was_hit
        assert arc.state()[1:3] == ((2,), (1,))

    def test_directory_miss_inserts_at_mru_t1(self):
        arc = ArcCache(4)
        drive(arc, [1, 2, 3])
        assert arc.state()[1] == (3, 2, 1)

    def test_history_hit_reenters_at_mru_t2(self):
        arc = ArcCache(2)
        drive(arc, [1, 2, 1, 3])   # leaves B1=[2]
        out = arc.request(2)
        assert not out.was_hit
        assert out.history_hit == "B1"
        assert arc.state()[2][0] == 2


class TestReplace:
    def test_t1_above_target(self):
        arc = ArcCache(2)
        drive(arc, [1, 2, 1, 3])  # T1=[3], T2=[1], p=0
        moved, dest = arc.replace(requested_in_b2=False)
        assert (moved, dest) == (3, "B1")

    def test_empty_t1_forces_t2(self):
        arc = ArcCache(2)
        arc.t2 = OrderedDict([("b", True), ("a", True)])  # MRU->LRU is [a, b]
        moved, dest = arc.replace(requested_in_b2=False)
        assert (moved, dest) == ("b", "B2")

    def test_b2_hit_at_exact_target(self):
        arc = ArcCache(2)
        arc.t1 = OrderedDict([("x", True)])
        arc.t2 = OrderedDict([("y", True)])
        arc.p = 1
        moved, dest = arc.replace(requested_in_b2=True)
        assert (moved, dest) == ("x", "B1")

    def test_rejects_non_full_cache(self):
        arc = ArcCache(3)
        arc.request(1)
        with pytest.raises(RuntimeError):
            arc.replace(requested_in_b2=False)


class TestAdapt:
    def test_unit_clamps_at_zero(self):
        arc = ArcCache(4)
        arc.b2 = OrderedDict([("z", True)])
        assert arc.adapt("B2") == 0

    def test_unit_clamps_at_capacity(self):
        arc = ArcCache(4)
        arc.b1 = OrderedDict([("z", True)])
        arc.p = 4
        assert arc.adapt("B1") == 4

    def test_ratio_uses_history_sizes(self):
        arc = ArcCache(3, adaptation=ADAPT_RATIO)
        arc.b1 = OrderedDict([("h", True)])
        arc.b2 = OrderedDict([("i", True), ("j", True), ("k", True)])
        assert arc.adapt("B1") == 3

    def test_rejects_unknown_list(self):
        with pytest.raises(ValueError):
            ArcCache(2).adapt("B3")

    def test_rejects_unknown_adaptation(self):
        with pytest.raises(ValueError):
            ArcCache(2, adaptation="nope")


class TestInvariants:
    def test_structure_holds_on_long_fuzz(self):
        # 100k requests spread over capacities 1..16
        for n in range(1, 17):
            arc = ArcCache(n)
            was_full = False
            for page in gen_fuzz(3 * n, 6250, seed=300 + n):
                arc.request(page)
                report = check_arc_structure(arc, was_full)
                assert report.ok, report.violations
                was_full = was_full or arc.is_full

    def test_fullness_is_permanent(self):
        arc = ArcCache(3)
        became_full_at = None
        for i, page in enumerate(gen_fuzz(9, 500, seed=9)):
            arc.request(page)
            if became_full_at is None and arc.is_full:
                became_full_at = i
            if became_full_at is not None:
                assert arc.is_full

    def test_replace_called_once_per_miss_after_full(self):
        arc = ArcCache(3)
        for page in gen_fuzz(9, 800, seed=31):
            was_full = arc.is_full
            calls_before = arc.replace_invocations
            out = arc.request(page)
            delta = arc.replace_invocations - calls_before
            if out.was_hit:
                assert delta == 0
            elif was_full:
                # either REPLACE ran, or LRU(T1) was dropped with B1 empty
                dropped = out.evicted_cache_page is not None and out.replace_dest is None
                assert delta == (0 if dropped else 1)
            else:
                assert delta == 0

    @settings(max_examples=60, deadline=None)
    @given(trace=st.lists(st.integers(min_value=0, max_value=9), max_size=80),
           capacity=st.integers(min_value=1, max_value=5))
    def test_structure_on_arbitrary_traces(self, trace, capacity):
        arc = ArcCache(capacity)
        was_full = False
        for page in trace:
            arc.request(page)
            assert check_arc_structure(arc, was_full).ok
            was_full = was_full or arc.is_full
