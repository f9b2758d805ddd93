from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from cachelab import CarCache, check_car_invariants, gen_fuzz


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
        assert car.t1_list() == [3]
        assert car.t2_list() == [1]
        assert car.b1_list() == [2]
        assert car.b2_list() == []
        assert car.ref == {3: 0, 1: 0}
        assert car.p == 0

    def test_hit_only_sets_the_bit(self):
        car = CarCache(3)
        drive(car, [1, 2, 3])
        out = car.request(2)
        assert out.was_hit
        assert car.t1_list() == [1, 2, 3]
        assert car.ref[2] == 1

    def test_history_hit_adapts_and_enters_t2_tail(self):
        car = CarCache(2)
        drive(car, [1, 2, 1, 3])  # B1=[2]
        out = car.request(2)
        assert not out.was_hit
        assert out.history_hit == "B1"
        assert out.adaptation_delta == 1  # min(p + max(1, 0//1), N)
        assert car.t2_list()[-1] == 2
        assert car.ref[2] == 0

    def test_new_page_enters_t1_tail_unmarked(self):
        car = CarCache(3)
        drive(car, [1, 2])
        car.request(3)
        assert car.t1_list() == [1, 2, 3]
        assert car.ref[3] == 0


class TestReplace:
    def test_unmarked_t1_head_demoted(self):
        car = CarCache(2)
        car.t1.append("a")
        car.t2.append("b")
        car.ref.update({"a": 0, "b": 0})
        assert car.replace() == ("a", "B1")
        assert car.b1_list() == ["a"]

    def test_marked_t1_head_recycles_then_demotes_from_t2(self):
        car = CarCache(1)
        car.t1.append("a")
        car.ref["a"] = 1
        assert car.replace() == ("a", "B2")
        assert car.last_replace_iterations == 2
        assert car.b2_list() == ["a"]

    def test_second_chance_within_t2(self):
        car = CarCache(2)
        car.t2.extend(["b", "c"])
        car.ref.update({"b": 1, "c": 0})
        assert car.replace() == ("c", "B2")
        assert car.t2_list() == ["b"]
        assert car.ref["b"] == 0

    def test_rejects_non_full_cache(self):
        car = CarCache(3)
        car.request(1)
        with pytest.raises(RuntimeError):
            car.replace()

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
            before = {"B1": car.b1_list(), "B2": car.b2_list()}
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
