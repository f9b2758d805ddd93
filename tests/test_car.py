from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from cachelab import ADAPT_RATIO, ArcCache, CarCache, check_car_invariants, gen_fuzz


def drive(car, trace):
    return [car.request(p) for p in trace]


class TestRequest:
    def test_short_trace_full_state(self):
        car = CarCache(2)
        outcomes = drive(car, [1, 2, 1, 3])
        assert [o.was_hit for o in outcomes] == [False, False, True, False]
        # the last miss recycles marked head 1 into T2 and demotes 2 into B1
        assert outcomes[3].evicted_cache_page == 2
        assert outcomes[3].replace_dest == "B1"
        p, t1, t2, b1, b2, marked = car.state()
        assert t1 == (3,)
        assert t2 == (1,)
        assert b1 == (2,)
        assert b2 == ()
        assert car.marks == {3: False, 1: False}
        assert marked == frozenset()
        assert p == car.p == 0

    def test_hit_only_sets_the_bit(self):
        car = CarCache(3)
        drive(car, [1, 2, 3])
        out = car.request(2)
        assert out.was_hit
        assert car.state()[1] == (1, 2, 3)
        assert car.marks[2] is True

    def test_history_hit_adapts_and_enters_t2_tail(self):
        car = CarCache(2)
        drive(car, [1, 2, 1, 3])  # B1=[2]
        out = car.request(2)
        assert not out.was_hit
        assert out.history_hit == "B1"
        assert out.adaptation_delta == 1  # min(p + max(1, 0//1), N)
        assert car.state()[2][-1] == 2
        assert car.marks[2] is False

    def test_new_page_enters_t1_tail_unmarked(self):
        car = CarCache(3)
        drive(car, [1, 2])
        car.request(3)
        assert car.state()[1] == (1, 2, 3)
        assert car.marks[3] is False


class TestReplace:
    def test_unmarked_t1_head_demoted(self):
        car = CarCache(2)
        car.t1.append("a")
        car.t2.append("b")
        car.marks.update({"a": False, "b": False})
        assert car.replace() == ("a", "B1")
        assert car.state()[3] == ("a",)

    def test_marked_t1_head_recycles_then_demotes_from_t2(self):
        car = CarCache(1)
        car.t1.append("a")
        car.marks["a"] = True
        assert car.replace() == ("a", "B2")
        assert car.last_replace_iterations == 2
        assert car.state()[4] == ("a",)

    def test_second_chance_within_t2(self):
        car = CarCache(2)
        car.t2.extend(["b", "c"])
        car.marks.update({"b": True, "c": False})
        assert car.replace() == ("c", "B2")
        assert car.state()[2] == ("b",)
        assert car.marks["b"] is False

    def test_rejects_non_full_cache(self):
        car = CarCache(3)
        car.request(1)
        with pytest.raises(RuntimeError):
            car.replace()

    def test_iterations_count_the_swept_pages(self):
        car = CarCache(4)
        swept = 0
        for page in gen_fuzz(12, 800, seed=78):
            out = car.request(page)
            if out.replace_dest is not None:
                assert car.last_replace_iterations == len(out.swept) + 1
                assert car.last_swept == out.swept
                swept += len(out.swept)
            else:
                assert out.swept == ()
        assert swept > 0

    def test_termination_bound(self):
        car = CarCache(4)
        for page in gen_fuzz(12, 800, seed=77):
            cached = len(car.t1) + len(car.t2)
            out = car.request(page)
            if out.evicted_cache_page is not None:
                assert car.last_replace_iterations <= 2 * cached


class TestAdapt:
    def test_b2_hit_ratio(self):
        car = CarCache(8)
        car.b1 = OrderedDict([(p, True) for p in "abcde"])
        car.b2 = OrderedDict([("z", True), ("y", True)])
        car.p = 4
        assert car.adapt("B2") == 2  # max(4 - max(1, 5//2), 0)

    def test_rejects_unknown_list(self):
        with pytest.raises(ValueError):
            CarCache(2).adapt("T1")

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_ratio_arc(self, data):
        # CAR moves p by ARC's ratio rule, sizes taken with the requested
        # page still in the hit list
        n = data.draw(st.integers(1, 16))
        p = data.draw(st.integers(0, n))
        hit_list = data.draw(st.sampled_from(["B1", "B2"]))
        b1 = data.draw(st.integers(1 if hit_list == "B1" else 0, 2 * n))
        b2 = data.draw(st.integers(1 if hit_list == "B2" else 0, 2 * n))
        if hit_list == "B1":
            expected = min(p + max(1, b2 // b1), n)
        else:
            expected = max(p - max(1, b1 // b2), 0)
        for policy in (CarCache(n), ArcCache(n, adaptation=ADAPT_RATIO)):
            policy.p = p
            policy.b1 = OrderedDict.fromkeys(range(b1), True)
            policy.b2 = OrderedDict.fromkeys(range(-b2, 0), True)
            assert policy.adapt(hit_list) == policy.p == expected


class TestInvariants:
    def test_seven_invariants_on_long_fuzz(self):
        for n in range(1, 17):
            car = CarCache(n)
            was_full = False
            for page in gen_fuzz(3 * n, 6250, seed=400 + n):
                car.request(page)
                report = check_car_invariants(car, was_full)
                assert report.ok, report.violations
                was_full = was_full or car.is_full

    def test_history_lists_are_strict_fifos(self):
        # the discard sees the list as REPLACE left it: a demotion may have
        # prepended a page at the MRU end just before
        car = CarCache(3)
        for page in gen_fuzz(9, 1000, seed=91):
            _, _, _, b1, b2, _ = car.state()
            before = {"B1": list(b1), "B2": list(b2)}
            out = car.request(page)
            source = out.history_evicted_from
            if source is not None:
                at_discard = before[source]
                if out.replace_dest == source:
                    at_discard = [out.evicted_cache_page] + at_discard
                assert out.evicted_history_page == at_discard[-1]

    @settings(max_examples=60, deadline=None)
    @given(trace=st.lists(st.integers(min_value=0, max_value=9), max_size=80),
           capacity=st.integers(min_value=1, max_value=5))
    def test_invariants_on_arbitrary_traces(self, trace, capacity):
        car = CarCache(capacity)
        was_full = False
        for page in trace:
            car.request(page)
            assert check_car_invariants(car, was_full).ok
            was_full = was_full or car.is_full
