import itertools
from collections import OrderedDict, deque
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cachelab import (
    ArcCache,
    CarCache,
    ClockCache,
    LruCache,
    RunReport,
    arc_potential,
    belady_run,
    car_potential,
    car_step_report,
    check_aggregate_bound,
    check_arc_eviction_audit,
    check_arc_structure,
    check_car_invariants,
    check_step_inequalities,
    clock_potential,
    gen_fuzz,
    gen_zipf,
    make_policy,
    mru_prefix_sizes,
    parse_workload,
    partition_phases,
    run_lockstep,
    run_simulation,
    verify_trace,
)
from cachelab import analysis
from cachelab.analysis import (
    LockstepEntry,
    LockstepLog,
    PotentialBreakdown,
    PrefixSizes,
)
from cachelab.core import AccessOutcome


class TestPhases:
    def test_two_full_phases(self):
        phases = partition_phases([1, 1, 0, 1, 1], 2)
        assert [(p.start, p.end, p.complete) for p in phases] == [(0, 1, True), (2, 4, True)]

    def test_no_faults_is_one_incomplete_phase(self):
        phases = partition_phases([0, 0, 0], 2)
        assert [(p.start, p.end, p.complete, p.faults) for p in phases] == [(0, 2, False, 0)]

    def test_trailing_partial_phase(self):
        phases = partition_phases([1] * 7, 3)
        assert [(p.start, p.end, p.complete) for p in phases] == [
            (0, 2, True), (3, 5, True), (6, 6, False)]

    def test_phases_tile_the_trace(self):
        flags = [bool(p % 3 == 0) for p in gen_fuzz(7, 200, seed=2)]
        phases = partition_phases(flags, 4)
        assert phases[0].start == 0
        assert phases[-1].end == len(flags) - 1
        for left, right in zip(phases, phases[1:]):
            assert right.start == left.end + 1
        for phase in phases:
            count = sum(flags[phase.start:phase.end + 1])
            assert count == (4 if phase.complete else count)
            assert phase.complete or count < 4

    @pytest.mark.parametrize("capacity", [2.5, 0])
    def test_capacity_must_be_a_positive_int(self, capacity):
        with pytest.raises(ValueError, match="cache capacity must be a positive integer"):
            partition_phases([1, 1, 0, 1, 1], capacity)


class TestPrefixSizes:
    def test_prefix_stops_at_first_uncovered_page(self):
        arc = ArcCache(2)
        arc.t1 = OrderedDict([(3, True)])
        arc.b1 = OrderedDict([(2, True)])
        pre = mru_prefix_sizes(arc, {1, 3})
        assert (pre.t1, pre.b1, pre.l1) == (1, 0, 1)

    def test_all_empty(self):
        pre = mru_prefix_sizes(ArcCache(2), {1, 2})
        assert pre == PrefixSizes(0, 0, 0, 0, 0, 0)

    def test_prefix_reaches_into_history(self):
        arc = ArcCache(3)
        arc.t2 = OrderedDict([("b", True), ("a", True)])
        arc.b2 = OrderedDict([("c", True)])
        pre = mru_prefix_sizes(arc, {"a", "b", "c"})
        assert (pre.t2, pre.b2, pre.l2) == (2, 1, 3)


class TestArcPotential:
    def test_empty_state_is_zero(self):
        assert arc_potential(ArcCache(2), frozenset()).phi == 0

    def test_direct_substitution(self):
        arc = ArcCache(2)
        for page in [1, 2, 1, 3]:
            arc.request(page)
        breakdown = arc_potential(arc, {1, 3})
        assert breakdown.phi == 14
        assert sum(v for _, v in breakdown.terms) == 14

    def test_hit_moving_audited_page_from_t1_to_t2_drops_two(self):
        arc = ArcCache(2)
        for page in ["a", "b", "b"]:
            arc.request(page)
        assert arc.state()[1:3] == (("a",), ("b",))
        before = arc_potential(arc, {"a", "b"}).phi
        arc.request("a")
        after = arc_potential(arc, {"a", "b"}).phi
        assert after - before == -2


class TestClockPotential:
    def test_empty_outside_set_is_zero(self):
        clock = ClockCache(2)
        for page in [1, 2]:
            clock.request(page)
        assert clock_potential(clock, {1, 2}).phi == 0

    def test_single_unmarked_page(self):
        clock = ClockCache(4)
        clock.request("q")
        assert clock_potential(clock, set()).phi == 1

    def test_marked_page_two_ahead_of_the_hand(self):
        clock = ClockCache(4)
        for page in ["a", "b", "c", "d"]:
            clock.request(page)
        clock.request("b")
        assert clock_potential(clock, {"a", "c", "d"}).phi == 6


class TestCarPotential:
    def test_empty_state_is_zero(self):
        assert car_potential(CarCache(2), set()).phi == 0

    def test_single_ghost_page(self):
        car = CarCache(2)
        car.b1 = OrderedDict([("q", True)])
        breakdown = car_potential(car, set())
        assert breakdown.phi == 5
        assert dict(breakdown.terms)["sum_r"] == 3

    def test_marked_ring_page(self):
        car = CarCache(2)
        car.t1.append("q")
        car.marks["q"] = True
        breakdown = car_potential(car, set())
        assert dict(breakdown.terms)["sum_r"] == 24  # R = 3*2 + 2*1 + 0 = 8
        assert breakdown.phi == 26


class TestLockstep:
    def test_empty_trace(self):
        log = run_lockstep([], 2, "arc")
        assert log.entries == []

    def test_arc_short_trace_costs(self):
        log = run_lockstep([1, 2, 1, 3], 2, "arc")
        assert [e.c_opt for e in log.entries] == [1, 1, 0, 1]
        assert [e.c_alg for e in log.entries] == [1, 1, 0, 1]
        assert check_step_inequalities(log).ok

    def test_potential_is_continuous_across_entries(self):
        log = run_lockstep(gen_fuzz(8, 300, seed=41), 3, "arc")
        for left, right in zip(log.entries, log.entries[1:]):
            assert right.phi_before == left.phi_after_alg

    @pytest.mark.parametrize("name", ["clock", "arc", "car"])
    def test_opt_hit_half_step_never_moves_potential(self, name):
        log = run_lockstep(gen_fuzz(8, 300, seed=43), 3, name)
        for entry in log.entries:
            if entry.c_opt == 0:
                assert entry.phi_after_opt == entry.phi_before

    def test_clock_hit_half_step_never_moves_potential(self):
        log = run_lockstep(gen_fuzz(6, 300, seed=47), 3, "clock")
        for entry in log.entries:
            if entry.c_alg == 0:
                assert entry.phi_after_alg == entry.phi_after_opt


class TestStepChecks:
    def test_arc_and_clock_clean_on_seeded_suite(self):
        for seed in range(12):
            n = [2, 3, 4][seed % 3]
            trace = gen_zipf(3 * n, 0.7, 400, seed=900 + seed)
            assert check_step_inequalities(run_lockstep(trace, n, "arc")).ok
            assert check_step_inequalities(run_lockstep(trace, n, "clock")).ok

    def test_rejects_lru_and_ratio_logs(self):
        with pytest.raises(ValueError):
            check_step_inequalities(run_lockstep([1, 2], 2, "lru"))
        with pytest.raises(ValueError):
            check_step_inequalities(run_lockstep([1, 2], 2, "arc", adaptation="ratio"))

    def test_planted_step_violation_fires(self):
        log = LockstepLog(policy_kind="CLOCK", adaptation=None, capacity=2)
        log.entries.append(LockstepEntry(
            index=0, page="x", c_opt=0, c_alg=1,
            phi_before=0, phi_after_opt=5, phi_after_alg=3,
            digest="CLOCK RING=[x]", opt_cache=frozenset(),
            cache_full_before=True, outcome=AccessOutcome(was_hit=False),
        ))
        report = check_step_inequalities(log)
        checks = {v.check for v in report.violations}
        assert checks == {"request_bound", "opt_step_bound"}
        entry = report.violations[0].to_dict()
        assert entry["index"] == 0 and entry["digest"] == "CLOCK RING=[x]"

    def test_aggregate_bound(self):
        assert check_aggregate_bound(100, 20, 2, 4)       # 100 <= 4*2*20 + 8
        assert check_aggregate_bound(8, 0, 2, 4)          # covered by the additive term
        assert not check_aggregate_bound(200, 20, 2, 1)   # 200 > 1*2*20 + 2

    def test_aggregate_near_equality_for_lru_on_cycle(self):
        from cachelab import LruCache, belady_run, gen_cycle
        trace = gen_cycle(3, 300)
        lru = LruCache(2)
        lru_misses = sum(0 if lru.request(p).was_hit else 1 for p in trace)
        opt_misses = belady_run(trace, 2).miss_count
        rhs = 1 * 2 * opt_misses + 1 * 2
        assert check_aggregate_bound(lru_misses, opt_misses, 2, 1)
        assert rhs - lru_misses <= 4  # the c=1 bound is nearly tight here


def _arc_entry(**overrides):
    base = dict(
        index=0, page="x", c_opt=0, c_alg=1,
        phi_before=0, phi_after_opt=0, phi_after_alg=0,
        digest="ARC p=0 T1=[] T2=[] B1=[] B2=[]",
        opt_cache=frozenset(), cache_full_before=True,
        outcome=AccessOutcome(was_hit=False),
        audit_opt=(PrefixSizes(0, 0, 0, 0, 0, 0), (0, 0, 0, 0)),
        audit_alg=(PrefixSizes(0, 0, 0, 0, 0, 0), (0, 0, 0, 0)),
    )
    base.update(overrides)
    return LockstepEntry(**base)


class TestArcEvictionAudit:
    def _log_with(self, entry, capacity=2):
        log = LockstepLog(policy_kind="ARC", adaptation="unit", capacity=capacity)
        log.entries.append(entry)
        return log

    def test_clean_on_seeded_suite(self):
        for seed in range(8):
            trace = gen_fuzz(9, 400, seed=700 + seed)
            assert check_arc_eviction_audit(run_lockstep(trace, 3, "arc")).ok

    def test_planted_directory_miss_prefix_violation(self):
        entry = _arc_entry(audit_opt=(PrefixSizes(1, 1, 0, 0, 1, 1), (1, 1, 0, 0)))
        report = check_arc_eviction_audit(self._log_with(entry))
        assert {v.check for v in report.violations} == {"directory_miss_prefix_bound"}

    def test_planted_demotion_prefix_violation(self):
        entry = _arc_entry(
            outcome=AccessOutcome(was_hit=False, evicted_cache_page="v",
                                  replace_dest="B1", history_hit="B1"),
            audit_opt=(PrefixSizes(1, 0, 0, 0, 1, 0), (2, 0, 1, 0)),
            audit_alg=(PrefixSizes(1, 0, 1, 0, 2, 0), (0, 0, 0, 0)),
        )
        report = check_arc_eviction_audit(self._log_with(entry))
        assert {v.check for v in report.violations} == {"demotion_prefix_consistency"}

    def test_planted_eviction_inside_prefix_violation(self):
        entry = _arc_entry(
            outcome=AccessOutcome(was_hit=False, evicted_history_page="g",
                                  history_evicted_from="B1"),
            audit_opt=(PrefixSizes(1, 0, 1, 0, 2, 0), (1, 2, 1, 0)),
        )
        report = check_arc_eviction_audit(self._log_with(entry, capacity=3))
        assert {v.check for v in report.violations} == {"eviction_outside_prefix"}

    def test_planted_protected_demotion_violation(self):
        entry = _arc_entry(
            outcome=AccessOutcome(was_hit=False, evicted_cache_page="v",
                                  replace_dest="B2", history_hit="B2"),
            audit_opt=(PrefixSizes(1, 1, 0, 0, 1, 1), (1, 1, 0, 0)),
            audit_alg=(PrefixSizes(1, 0, 0, 1, 1, 1), (0, 0, 0, 0)),
        )
        report = check_arc_eviction_audit(self._log_with(entry))
        assert "protected_list_demotion" in {v.check for v in report.violations}

    def test_hits_and_warmup_are_skipped(self):
        hit = _arc_entry(c_alg=0, outcome=AccessOutcome(was_hit=True),
                         audit_opt=(PrefixSizes(1, 1, 0, 0, 1, 1), (0, 0, 0, 0)))
        warm = _arc_entry(cache_full_before=False,
                          audit_opt=(PrefixSizes(1, 1, 0, 0, 1, 1), (0, 0, 0, 0)))
        for entry in (hit, warm):
            assert check_arc_eviction_audit(self._log_with(entry)).ok

    def test_rejects_non_arc_logs(self):
        with pytest.raises(ValueError):
            check_arc_eviction_audit(run_lockstep([1], 2, "clock"))


def plant_directory(cls, n, p=0, t1=(), t2=(), b1=(), b2=()):
    """An ArcCache or CarCache of capacity n with target p and the given
    lists, each LRU -> MRU (head -> tail for CAR's rings), marks unset."""
    policy = cls(n)
    policy.p = p
    if cls is CarCache:
        policy.t1, policy.t2 = deque(t1), deque(t2)
        policy.marks = dict.fromkeys([*t1, *t2], False)
    else:
        policy.t1, policy.t2 = OrderedDict.fromkeys(t1, True), OrderedDict.fromkeys(t2, True)
    policy.b1, policy.b2 = OrderedDict.fromkeys(b1, True), OrderedDict.fromkeys(b2, True)
    return policy


def found_checks(report):
    return [(v.check, v.lhs, v.rhs) for v in report.violations]


class TestCarInvariantChecker:
    def test_valid_full_state_passes(self):
        car = plant_directory(CarCache, 2, t1=["a"], t2=["b"], b1=["c"])
        assert check_car_invariants(car).ok

    def test_oversized_cache_fires(self):
        car = plant_directory(CarCache, 2, t1=["a", "b"], t2=["c"])
        checks = {v.check for v in check_car_invariants(car).violations}
        assert "size_bound_cache" in checks

    def test_history_before_full_fires(self):
        car = plant_directory(CarCache, 2, t1=["a"], b1=["g"])
        checks = {v.check for v in check_car_invariants(car).violations}
        assert "history_empty_until_full" in checks

    def test_fullness_monotone_fires(self):
        car = plant_directory(CarCache, 2, t1=["a"])
        checks = {v.check for v in check_car_invariants(car, was_full=True).violations}
        assert "fullness_monotone" in checks


def plant_arc_defect(monkeypatch, defect):
    """Make ARC call defect(arc) after each request for page 4."""
    request = ArcCache.request

    def broken(self, page):
        outcome = request(self, page)
        if page == 4:
            defect(self)
        return outcome

    monkeypatch.setattr(ArcCache, "request", broken)


class TestArcStructure:
    def test_planted_duplicate_fires_wherever_the_four_set_union_did(self, monkeypatch):
        # page 4 also lands in B2 whenever ARC serves it
        plant_arc_defect(monkeypatch, lambda arc: arc.b2.__setitem__(4, True))
        arc = ArcCache(3)
        fired = 0
        for i, page in enumerate(gen_fuzz(6, 300, seed=7)):
            arc.request(page)
            sizes = len(arc.t1) + len(arc.t2) + len(arc.b1) + len(arc.b2)
            union = set(arc.t1) | set(arc.t2) | set(arc.b1) | set(arc.b2)
            found = [(v.lhs, v.rhs) for v in check_arc_structure(arc).violations
                     if v.check == "lists_disjoint"]
            assert found == ([(sizes, len(union))] if len(union) != sizes else []), i
            fired += len(found)
        assert fired >= 10


class TestDirectoryRules:
    def test_arc_ghost_before_the_cache_is_full_fires(self):
        arc = plant_directory(ArcCache, 3, t1="a", b1="g")
        assert found_checks(check_arc_structure(arc)) == [("history_empty_until_full", 1, 0)]

    def test_arc_large_directory_with_a_short_cache_fires(self):
        arc = plant_directory(ArcCache, 3, t1="a", b1="gh")
        assert ("full_once_directory_large", 1, 3) in found_checks(check_arc_structure(arc))

    def test_car_target_out_of_range_fires(self):
        car = plant_directory(CarCache, 3, p=4, t1="abc")
        assert found_checks(check_car_invariants(car)) == [("target_range", 4, 3)]

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(min_value=1, max_value=4), p=st.integers(min_value=-1, max_value=6),
           lists=st.lists(st.lists(st.integers(min_value=0, max_value=7), unique=True,
                                   max_size=9), min_size=4, max_size=4),
           was_full=st.sampled_from([None, False, True]))
    def test_arc_adds_only_disjointness_to_cars_rules(self, n, p, lists, was_full):
        arc = found_checks(check_arc_structure(plant_directory(ArcCache, n, p, *lists), was_full))
        car = found_checks(check_car_invariants(plant_directory(CarCache, n, p, *lists), was_full))
        assert [f for f in arc if f[0] != "lists_disjoint"] == car


class TestCarStepReport:
    def test_report_is_machine_readable(self):
        trace = gen_fuzz(16, 600, seed=1007)
        log = run_lockstep(trace, 8, "car")
        report = car_step_report(log)
        for entry in report.to_dicts():
            assert set(entry) == {"index", "step", "check", "lhs", "rhs",
                                  "page", "digest", "opt_cache"}
            assert entry["check"] in {"request_bound", "opt_step_bound",
                                      "opt_step_fine_bound", "sweep_rank_nonincrease"}

    def test_aggregate_still_holds_when_steps_flag(self):
        trace = gen_fuzz(16, 600, seed=1007)
        log = run_lockstep(trace, 8, "car")
        assert check_aggregate_bound(log.c_alg_total, log.c_opt_total, 8, 21)


# ---------------------------------------------------------------------------
# the potential trackers against the from-scratch potentials

POLICIES = (("lru", "unit"), ("clock", "unit"), ("arc", "unit"), ("arc", "ratio"),
            ("car", "unit"))
CORPUS = [
    "fuzz:universe=7,length=300,seed=31",
    "fuzz:universe=16,length=300,seed=32",
    "zipf:universe=12,alpha=0.8,length=300,seed=33",
    "zipf:universe=40,alpha=1.1,length=300,seed=34",
    "scan_mix:hot=3,scan=6,length=300,seed=35",
    "scan_mix:hot=6,scan=12,length=300,seed=36",
]


def reference_potential(policy, opt_cache):
    """The from-scratch potential; a policy without one has phi = 0."""
    potential = analysis.potential_for(policy)
    if potential is None:
        return PotentialBreakdown(phi=0, terms=())
    return potential(policy, opt_cache)


def reference_value(policy, opt_cache):
    """(phi, audit) from the from-scratch potential."""
    breakdown = reference_potential(policy, opt_cache)
    return breakdown.phi, breakdown.audit


def tracked_replay(trace, capacity, name, adaptation="unit"):
    """Serve a trace in lockstep with the oracle, asserting after both
    half-steps of every request that the tracker agrees with the
    from-scratch potential; yields (page, outcome, oracle cache, the live
    policy) after each request."""
    policy = make_policy(name, capacity, adaptation)
    tracker = analysis.potential_tracker(policy)
    assert tracker.value() == reference_value(policy, frozenset())
    for i, (page, step) in enumerate(zip(trace, belady_run(trace, capacity).steps)):
        before = policy.digest()
        if not step.was_hit:
            tracker.opt_step(page, step.evicted, step.cache_after)
        assert tracker.value() == reference_value(policy, step.cache_after), (i, "OPT", before)
        outcome = policy.request(page)
        tracker.alg_step(page, outcome)
        assert tracker.value() == reference_value(policy, step.cache_after), (i, "ALG", before)
        yield page, outcome, step.cache_after, policy


def reference_lockstep(trace, capacity, name, adaptation="unit"):
    """run_lockstep's entries as the from-scratch potentials give them."""
    policy = make_policy(name, capacity, adaptation)
    entries = []
    phi_before = reference_potential(policy, frozenset()).phi
    for i, (page, step) in enumerate(zip(trace, belady_run(trace, capacity).steps)):
        full_before = policy.is_full
        after_opt = reference_potential(policy, step.cache_after)
        outcome = policy.request(page)
        after_alg = reference_potential(policy, step.cache_after)
        entries.append(LockstepEntry(
            index=i, page=page, c_opt=0 if step.was_hit else 1,
            c_alg=0 if outcome.was_hit else 1, phi_before=phi_before,
            phi_after_opt=after_opt.phi, phi_after_alg=after_alg.phi, digest=policy.digest(),
            opt_cache=step.cache_after, cache_full_before=full_before, outcome=outcome,
            audit_opt=after_opt.audit, audit_alg=after_alg.audit,
        ))
        phi_before = after_alg.phi
    return entries


def replay(trace, capacity, name, adaptation="unit"):
    return list(tracked_replay(trace, capacity, name, adaptation))


class TestPotentialTrackers:
    @pytest.mark.parametrize("spec", CORPUS)
    @pytest.mark.parametrize("capacity", [1, 2, 3, 4, 8])
    def test_agrees_with_reference_potentials_on_seeded_traces(self, spec, capacity):
        trace = parse_workload(spec).generate()
        for name, adaptation in POLICIES:
            replay(trace, capacity, name, adaptation)
            assert (run_lockstep(trace, capacity, name, adaptation).entries
                    == reference_lockstep(trace, capacity, name, adaptation))

    def test_seeded_traces_cover_every_move_a_car_sweep_combines_with(self):
        # the seeded differential above guards the order in which one
        # alg_step replays a CAR request's moves only where a sweep meets
        # each other move; a smaller corpus could lose one of them
        seen = dict.fromkeys(("hit B1", "hit B2", "drop B1", "drop B2", "T2 head to B2"), 0)
        for spec in CORPUS:
            trace = parse_workload(spec).generate()
            for capacity in (1, 2, 3, 4, 8):
                car = make_policy("car", capacity)
                for page in trace:
                    t2 = set(car.t2)
                    outcome = car.request(page)
                    if not outcome.swept:
                        continue
                    moves = ["hit %s" % outcome.history_hit,
                             "drop %s" % outcome.history_evicted_from]
                    if outcome.replace_dest == "B2" and t2.intersection(outcome.swept):
                        moves.append("T2 head to B2")  # a recycled T2 head, then a B2 demotion
                    for move in moves:
                        if move in seen:
                            seen[move] += 1
        assert all(seen.values()), seen

    @pytest.mark.parametrize("spec,capacity", [
        ("zipf:universe=1000,alpha=0.9,length=4000,seed=1", 64),
        ("scan_mix:hot=24,scan=32,length=4000,seed=1", 8),
    ])
    def test_agrees_with_reference_potentials_on_benchmark_shapes(self, spec, capacity):
        # the benchmark's shapes: rings and ghost lists far deeper than the
        # corpus's, so every rank walk runs long
        self.test_agrees_with_reference_potentials_on_seeded_traces(spec, capacity)

    @settings(max_examples=60, deadline=None)
    @given(trace=st.lists(st.integers(min_value=0, max_value=9), max_size=80),
           capacity=st.integers(min_value=1, max_value=5),
           policy=st.sampled_from(POLICIES))
    def test_agrees_with_reference_potentials_on_random_traces(self, trace, capacity, policy):
        name, adaptation = policy
        replay(trace, capacity, name, adaptation)
        assert (run_lockstep(trace, capacity, name, adaptation).entries
                == reference_lockstep(trace, capacity, name, adaptation))

    @pytest.mark.parametrize("name", ["clock", "arc", "car"])
    def test_capacity_one(self, name):
        trace = gen_fuzz(4, 200, seed=51)
        steps = replay(trace, 1, name)
        assert sum(not outcome.was_hit for _, outcome, _, _ in steps) > 100

    def test_clock_sweep_over_a_fully_marked_ring(self):
        # every page is marked when d arrives: the hand clears all three
        # marks and evicts the original head a after one full rotation
        trace = ["a", "b", "c", "a", "b", "c", "d", "b", "e", "a", "c", "d"]
        steps = replay(trace, 3, "clock")
        _, outcome, opt_cache, _ = steps[6]
        assert outcome.swept == ("a", "b", "c") and outcome.evicted_cache_page == "a"
        assert set(outcome.swept) - opt_cache  # a swept page outside the oracle cache

    def test_car_recycles_a_marked_t1_head_into_t2(self):
        trace = [1, 2, 1, 3, 4, 3, 1, 5, 2, 6, 1]
        recycled = 0
        for i, (_, outcome, _, car) in enumerate(tracked_replay(trace, 2, "car")):
            if i == 3:
                assert outcome.swept == (1,) and outcome.replace_dest == "B1"
                assert car.state()[1:3] == ((3,), (1,))
            recycled += len(outcome.swept)
        assert recycled >= 2

    def test_car_ghost_hits_in_the_middle_of_b1_and_b2(self):
        # a ghost hit below the MRU end of its list, with a newer ghost of
        # that list outside the oracle cache, shifts that ghost's position
        found = {"B1": 0, "B2": 0}
        for seed in range(6):
            ghosts = {"B1": [], "B2": []}
            trace = gen_fuzz(10, 300, seed=60 + seed)
            for page, outcome, opt_cache, car in tracked_replay(trace, 4, "car"):
                hit = outcome.history_hit
                if hit is not None:
                    pages = ghosts[hit]
                    newer = pages[pages.index(page) + 1:]
                    if any(other not in opt_cache for other in newer):
                        found[hit] += 1
                ghosts = {"B1": list(car.b1), "B2": list(car.b2)}
        assert found["B1"] and found["B2"]

    def test_arc_ratio_adaptation_through_run_lockstep(self):
        trace = gen_zipf(30, 0.6, 800, seed=71)
        log = run_lockstep(trace, 6, "arc", adaptation="ratio")
        assert any(abs(e.outcome.adaptation_delta) > 1 for e in log.entries)
        assert log.entries == reference_lockstep(trace, 6, "arc", adaptation="ratio")


class TestCheckedPathUsesTrackers:
    @pytest.mark.parametrize("name", ["clock", "arc", "car"])
    def test_checked_runs_never_call_the_reference_potentials(self, monkeypatch, name):
        def unexpected(*args):
            raise AssertionError("a from-scratch potential was called")

        for reference in ("clock_potential", "car_potential", "arc_potential",
                        "mru_prefix_sizes", "car_sweep_ranks", "potential_for"):
            monkeypatch.setattr(analysis, reference, unexpected)
        # the table rows hold the potentials themselves
        monkeypatch.setattr(analysis, "POLICY_TABLE", tuple(
            spec._replace(potential=unexpected) for spec in analysis.POLICY_TABLE))
        trace = gen_zipf(20, 0.8, 600, seed=21)
        result, _ = verify_trace(name, 4, trace)
        assert result["opt_misses"] > 0
        report = run_simulation(name, 4, trace, checks=("invariants", "potential", "lemmas"))
        assert report.opt_misses == result["opt_misses"]
        assert len(run_lockstep(trace, 4, name).entries) == len(trace)


# ---------------------------------------------------------------------------
# the streaming pass against the log-based reference
#
# reference_verify and reference_simulation rebuild verify_trace and
# run_simulation from a full run_lockstep log, the log-based checkers and a
# second replay for the structural invariants.

CHECK_SETS = [set(c) for r in range(1, 4)
              for c in itertools.combinations(("invariants", "potential", "lemmas"), r)]


def reference_state_violations(name, capacity, adaptation, trace):
    if name not in ("arc", "car"):
        return None
    policy = make_policy(name, capacity, adaptation)
    check = check_car_invariants if name == "car" else check_arc_structure
    found = []
    was_full = False
    for i, page in enumerate(trace):
        policy.request(page)
        for v in check(policy, was_full).violations:
            found.append(dict(v.to_dict(), index=i))
        was_full = was_full or policy.is_full
    return found


# the papers' whole-run bound multipliers, kept apart from the table under test
BOUND = {"LRU": 1, "CLOCK": 2, "ARC": 4, "CAR": 21}


def reference_verify(name, capacity, trace, adaptation="unit", fail_on_car_step=False):
    log = run_lockstep(trace, capacity, name, adaptation)
    kind = log.policy_kind
    ratio = kind == "ARC" and log.adaptation != "unit"
    checks = {}
    hard = False
    if kind != "LRU" and not ratio:
        step = car_step_report(log) if kind == "CAR" else check_step_inequalities(log)
        asserted = kind != "CAR" or fail_on_car_step
        hard = asserted and not step.ok
        checks["step"] = {"mode": "asserted" if asserted else "report-only",
                          "bound_multiplier": BOUND[kind],
                          "violation_count": len(step.violations),
                          "violations": step.to_dicts()}
        if kind == "ARC":
            audit = check_arc_eviction_audit(log)
            checks["eviction_audit"] = {"violation_count": len(audit.violations),
                                        "violations": audit.to_dicts()}
            hard = hard or not audit.ok
    if not ratio:
        c = BOUND[kind]
        holds = check_aggregate_bound(log.c_alg_total, log.c_opt_total, capacity, c)
        checks["aggregate"] = {
            "bound_multiplier": c, "lhs": log.c_alg_total,
            "rhs": c * capacity * log.c_opt_total + c * capacity,
            "additive_constant": c * capacity,
            "final_potential": log.entries[-1].phi_after_alg if log.entries else 0,
            "holds": holds}
        hard = hard or not holds
    state = reference_state_violations(name, capacity, adaptation, trace)
    if state is not None:
        checks["state_invariants"] = {"violation_count": len(state), "violations": state}
        hard = hard or bool(state)
    result = {"policy": name, "adaptation": log.adaptation, "cache_size": capacity,
              "trace": "inline:%d" % len(trace), "requests": len(trace),
              "policy_misses": log.c_alg_total, "opt_misses": log.c_opt_total,
              "checks": checks, "hard_failure": hard}
    return result, hard


def reference_simulation(name, capacity, trace, adaptation, checks, fail_on_car_step=False):
    log = run_lockstep(trace, capacity, name, adaptation)
    kind = log.policy_kind
    ratio = kind == "ARC" and adaptation != "unit"
    violations = {}
    hard = False
    found = []
    if "potential" in checks and kind != "LRU" and not ratio:
        step = car_step_report(log) if kind == "CAR" else check_step_inequalities(log)
        found.append(step)
        hard = not step.ok and (kind != "CAR" or fail_on_car_step)
    if "lemmas" in checks and kind == "ARC" and not ratio:
        found.append(check_arc_eviction_audit(log))
        hard = hard or not found[-1].ok
    for report in found:
        for check, count in report.counts().items():
            violations[check] = violations.get(check, 0) + count
    if "potential" in checks and not ratio and not check_aggregate_bound(
            log.c_alg_total, log.c_opt_total, capacity, BOUND[kind]):
        violations["aggregate_bound"] = 1
        hard = True
    state = reference_state_violations(name, capacity, adaptation, trace)
    if "invariants" in checks and state:
        violations["state_invariants"] = len(state)
        hard = True
    lockstep = bool(checks & {"potential", "lemmas"})
    misses = log.c_alg_total
    flags = [bool(e.c_alg) for e in log.entries]
    return RunReport(
        policy=name, adaptation=adaptation if name == "arc" else None, cache_size=capacity,
        trace="inline:%d" % len(trace), requests=len(trace), hits=len(trace) - misses,
        misses=misses,
        hit_ratio=Fraction(len(trace) - misses, len(trace)) if trace else None,
        opt_misses=log.c_opt_total if lockstep else None,
        miss_to_opt_ratio=(Fraction(misses, log.c_opt_total)
                           if lockstep and log.c_opt_total else None),
        complete_phases=len([p for p in partition_phases(flags, capacity) if p.complete]),
        violations=violations, hard_failure=hard,
    )


def inflate_car_potential(monkeypatch):
    """Plant a CAR potential that the oracle's cache and B1 inflate, so
    that every CAR step check fires."""
    original = analysis._CarTracker.value

    def inflated(tracker):
        phi, sum_r = original(tracker)
        extra = 100 * len(tracker.opt_cache) + 50 * len(tracker.policy.b1)
        return phi + extra, sum_r + extra

    monkeypatch.setattr(analysis._CarTracker, "value", inflated)


def assert_pass_matches_reference(trace, capacity, checks_sets=CHECK_SETS):
    for (name, adaptation), fail in itertools.product(POLICIES, (False, True)):
        assert (verify_trace(name, capacity, trace, adaptation, fail_on_car_step=fail)
                == reference_verify(name, capacity, trace, adaptation, fail))
        for checks in checks_sets:
            got = run_simulation(name, capacity, trace, adaptation, checks,
                                 fail_on_car_step=fail)
            want = reference_simulation(name, capacity, trace, adaptation, checks, fail)
            assert got.to_dict() == want.to_dict()


class TestStreamingPass:
    @pytest.mark.parametrize("spec", [
        "fuzz:universe=7,length=200,seed=11",
        "zipf:universe=12,alpha=0.8,length=200,seed=12",
        "scan_mix:hot=3,scan=5,length=200,seed=13",
    ])
    @pytest.mark.parametrize("capacity", [1, 2, 3, 4])
    def test_matches_reference_on_seeded_traces(self, spec, capacity):
        assert_pass_matches_reference(parse_workload(spec).generate(), capacity)

    def test_matches_reference_with_car_findings(self):
        trace = parse_workload("fuzz:universe=10,length=2000,seed=5").generate()
        result, hard = verify_trace("car", 3, trace)
        assert result["checks"]["step"]["violation_count"] >= 1 and not hard
        assert (result["checks"]["step"]["violations"][0]["digest"]
                == "CAR p=0 T1=[1] T2=[9,5] B1=[0,6] B2=[]")
        assert_pass_matches_reference(trace, 3, checks_sets=[{"potential"}])

    def test_matches_reference_with_state_violations(self, monkeypatch):
        # a planted defect: ARC pushes its target out of range on page 4
        request = ArcCache.request

        def broken(self, page):
            outcome = request(self, page)
            if page == 4:
                self.p = self.capacity + 1
            return outcome

        monkeypatch.setattr(ArcCache, "request", broken)
        trace = gen_fuzz(6, 200, seed=3)
        result, hard = verify_trace("arc", 3, trace)
        state = result["checks"]["state_invariants"]
        assert hard and state["violation_count"] >= 1
        assert {v["check"] for v in state["violations"]} == {"target_range"}
        assert state["violations"][0]["index"] == trace.index(4)
        assert_pass_matches_reference(trace, 3)

    @pytest.mark.parametrize("name", ["lru", "arc", "car"])
    def test_invariants_alone_skip_the_oracle_and_potentials(self, monkeypatch, name):
        def unexpected(*args):
            raise AssertionError("called without potential or lemmas checks")

        monkeypatch.setattr(analysis, "belady_run", unexpected)
        monkeypatch.setattr(analysis, "potential_for", unexpected)
        monkeypatch.setattr(analysis, "potential_tracker", unexpected)
        report = run_simulation(name, 3, gen_fuzz(9, 300, seed=5), checks=("invariants",))
        assert report.opt_misses is None and report.violations == {}

    def test_matches_reference_with_every_car_finding(self, monkeypatch):
        # all three CAR checks fire, and their findings come in one block
        # per check
        inflate_car_potential(monkeypatch)
        trace = gen_fuzz(6, 150, seed=8)
        result, _ = verify_trace("car", 3, trace)
        found = [v["check"] for v in result["checks"]["step"]["violations"]]
        assert {"opt_step_fine_bound", "sweep_rank_nonincrease"} <= set(found)
        assert found.index("sweep_rank_nonincrease") > max(
            i for i, check in enumerate(found) if check == "opt_step_fine_bound")
        assert_pass_matches_reference(trace, 3, checks_sets=[{"potential"}])

    @settings(max_examples=40, deadline=None)
    @given(trace=st.lists(st.integers(min_value=0, max_value=7), max_size=60),
           capacity=st.integers(min_value=1, max_value=4),
           policy=st.sampled_from(POLICIES),
           checks=st.sampled_from(CHECK_SETS),
           fail=st.booleans())
    def test_matches_reference_on_random_traces(self, trace, capacity, policy, checks, fail):
        name, adaptation = policy
        assert (verify_trace(name, capacity, trace, adaptation, fail_on_car_step=fail)
                == reference_verify(name, capacity, trace, adaptation, fail))
        got = run_simulation(name, capacity, trace, adaptation, checks, fail_on_car_step=fail)
        want = reference_simulation(name, capacity, trace, adaptation, checks, fail)
        assert got.to_dict() == want.to_dict()


def count_digests(monkeypatch):
    calls = []
    for cls in (LruCache, ClockCache, ArcCache, CarCache):
        def counted(self, digest=cls.digest):
            calls.append(type(self).__name__)
            return digest(self)
        monkeypatch.setattr(cls, "digest", counted)
    return calls


class TestDigestRendering:
    @pytest.mark.parametrize("name", ["lru", "clock", "arc", "car"])
    def test_clean_verify_renders_no_digest(self, monkeypatch, name):
        calls = count_digests(monkeypatch)
        result, hard = verify_trace(name, 4, gen_zipf(20, 0.8, 600, seed=21))
        assert not hard
        assert all(not c.get("violation_count") for c in result["checks"].values())
        assert calls == []

    def test_digest_rendered_once_per_request_with_findings(self, monkeypatch):
        trace = parse_workload("fuzz:universe=10,length=2000,seed=5").generate()
        calls = count_digests(monkeypatch)
        result, _ = verify_trace("car", 3, trace)
        indices = {v["index"] for v in result["checks"]["step"]["violations"]}
        assert len(calls) == len(indices) >= 1

    def test_lockstep_log_keeps_a_digest_per_entry(self):
        log = run_lockstep(gen_fuzz(6, 50, seed=2), 2, "car")
        replay = CarCache(2)
        for entry in log.entries:
            replay.request(entry.page)
            assert entry.digest == replay.digest()


class TestAmbiguousPages:
    @pytest.mark.parametrize("page", ["5*", "a,b", "[x", "y]", "two words", "tab\there", ""])
    def test_checked_runs_reject_pages_with_ambiguous_digests(self, page):
        trace = [page, "x", page]
        with pytest.raises(ValueError, match="digest"):
            verify_trace("clock", 2, trace)
        with pytest.raises(ValueError, match="digest"):
            run_simulation("car", 2, trace, checks=("invariants",))
        with pytest.raises(ValueError, match="digest"):
            run_lockstep(trace, 2, "arc")

    def test_digest_collision_is_rejected(self):
        # '5*','x' and '5','5','x' would both render CLOCK RING=[5*,x]
        with pytest.raises(ValueError, match="'5\\*'"):
            verify_trace("clock", 2, ["5*", "x"])
        assert verify_trace("clock", 2, ["5", "5", "x"])[0]["policy_misses"] == 2

    def test_unchecked_runs_accept_any_page(self):
        assert run_simulation("clock", 2, ["5*", "x", "5*"]).hits == 1
        assert run_simulation("clock", 2, [1, "1", 1]).hits == 1

    def test_pages_with_equal_str_forms_are_rejected(self):
        # 1,'1' and '1',1 would both render CLOCK RING=[1,1]
        with pytest.raises(ValueError, match="pages 1 and '1' .*digest"):
            verify_trace("clock", 2, [1, "1", 1])
        with pytest.raises(ValueError, match="pages '1' and 1 .*digest"):
            run_simulation("car", 2, ["1", 1], checks=("invariants",))
        with pytest.raises(ValueError, match="pages 1 and '1'"):
            run_lockstep([1, 2, "1"], 2, "arc")
        assert verify_trace("clock", 2, [1, 1.0, True])[0]["policy_misses"] == 1

    def test_checked_runs_reject_a_none_page(self):
        # the records read None as "nothing evicted", so a tracker cannot
        # follow a None page (CAR's raised KeyError, CLOCK's went negative)
        trace = [None, 1, 2, None, 3, 1, None, 4, 2, 3, None, 1] * 5
        for name in ("car", "clock"):
            with pytest.raises(ValueError, match="page None cannot be checked"):
                verify_trace(name, 2, trace)
            with pytest.raises(ValueError, match="page None"):
                run_simulation(name, 2, trace, checks=("invariants",))
        with pytest.raises(ValueError, match="page None"):
            run_lockstep(trace, 2, "arc")
        # unchecked runs take None as one more page
        renamed = ["none" if page is None else page for page in trace]
        for name in ("lru", "clock", "arc", "car", "opt"):
            assert (run_simulation(name, 2, trace).to_dict()
                    == run_simulation(name, 2, renamed).to_dict())


# ---------------------------------------------------------------------------
# one replay path: unchecked runs go through run_checks too


class TestOneReplayPath:
    @pytest.mark.parametrize("spec", [
        "fuzz:universe=9,length=400,seed=41",
        "zipf:universe=30,alpha=0.9,length=400,seed=42",
        "scan_mix:hot=4,scan=12,length=400,seed=43",
    ])
    @pytest.mark.parametrize("capacity", [1, 2, 3, 8])
    def test_unchecked_runs_equal_a_bare_replay(self, spec, capacity):
        trace = parse_workload(spec).generate()
        for row in analysis.POLICY_TABLE:
            adaptation = row.adaptation or "unit"
            policy = make_policy(row.name, capacity, adaptation)
            flags = [not policy.request(page).was_hit for page in trace]
            run = analysis.run_checks(trace, capacity, row.name, adaptation, checks=())
            assert [bool(flag) for flag in run.miss_flags] == flags
            assert (run.opt_misses, run.step, run.eviction_audit, run.state) == (None,) * 4
            misses = sum(flags)
            want = RunReport(
                policy=row.name, adaptation=row.adaptation, cache_size=capacity,
                trace="inline:%d" % len(trace), requests=len(trace),
                hits=len(trace) - misses, misses=misses,
                hit_ratio=Fraction(len(trace) - misses, len(trace)),
                complete_phases=misses // capacity,
            )
            got = run_simulation(row.name, capacity, trace, adaptation)
            assert got.to_dict() == want.to_dict()

    def test_invariants_match_the_reference_on_a_planted_defect(self, monkeypatch):
        # ARC pushes its target out of range on page 4
        plant_arc_defect(monkeypatch, lambda arc: setattr(arc, "p", arc.capacity + 1))
        trace = gen_fuzz(6, 200, seed=3)
        run = analysis.run_checks(trace, 3, "arc", checks=("invariants",))
        got = [(v.index, v.check, v.digest) for v in run.state.violations]
        want = [(v["index"], v["check"], v["digest"])
                for v in reference_state_violations("arc", 3, "unit", trace)]
        assert got == want and len(got) >= 1
        report = run_simulation("arc", 3, trace, checks=("invariants",))
        assert report.violations == {"state_invariants": len(want)} and report.hard_failure

    def test_only_checked_runs_reject_pages_with_equal_str_forms(self):
        trace = [1, "1", 1]
        for row in analysis.POLICY_TABLE:
            run = analysis.run_checks(trace, 2, row.name, row.adaptation or "unit", checks=())
            assert list(run.miss_flags) == [1, 1, 0]
            for checks in CHECK_SETS:
                with pytest.raises(ValueError, match="pages 1 and '1' .*digest"):
                    analysis.run_checks(trace, 2, row.name, row.adaptation or "unit", checks)

    def test_unknown_check_names_raise(self):
        with pytest.raises(ValueError, match="^unknown checks: potental$"):
            analysis.run_checks([1, 2, 1], 3, "arc", checks=("potental",))
        with pytest.raises(ValueError, match="^unknown checks: bogus, x$"):
            analysis.run_checks([1, 2, 1], 3, "lru", checks=("x", "invariants", "bogus"))


# ---------------------------------------------------------------------------
# the policy table


class TestPolicyTable:
    def test_rows_carry_the_papers_bounds_in_order(self):
        rows = [(spec.name, spec.adaptation, spec.bound) for spec in analysis.POLICY_TABLE]
        assert rows == [("lru", None, 1), ("clock", None, 2), ("arc", "unit", 4),
                        ("arc", "ratio", None), ("car", None, 21)]
        assert [spec.name for spec in analysis.POLICY_TABLE
                if not spec.step_asserted] == ["car"]

    def test_make_policy_reads_the_table(self):
        assert type(make_policy("LRU", 2, "ratio")) is LruCache
        assert make_policy("arc", 2, "ratio").adaptation == "ratio"
        assert make_policy("car", 2).adaptation is None
        with pytest.raises(ValueError, match="unknown policy 'fifo' \\(expected lru, clock, "
                                             "arc or car\\)"):
            make_policy("fifo", 2)
        with pytest.raises(ValueError, match="unknown adaptation 'x'"):
            make_policy("arc", 2, "x")

    def test_check_step_inequalities_keeps_to_the_step_bound_on_car(self, monkeypatch):
        inflate_car_potential(monkeypatch)
        log = run_lockstep(gen_fuzz(6, 150, seed=8), 3, "car")
        step = check_step_inequalities(log)
        assert step.violations
        assert {v.check for v in step.violations} <= {"request_bound", "opt_step_bound"}
        full = car_step_report(log)
        assert full.violations[:len(step.violations)] == step.violations
        assert {v.check for v in full.violations[len(step.violations):]} == {
            "opt_step_fine_bound", "sweep_rank_nonincrease"}

    def test_an_added_row_needs_no_other_edit(self, monkeypatch):
        lru = analysis.POLICY_TABLE[0]
        monkeypatch.setattr(analysis, "POLICY_TABLE",
                            analysis.POLICY_TABLE + (lru._replace(name="lru2"),))
        trace = gen_zipf(20, 0.8, 400, seed=3)
        for checks in [()] + CHECK_SETS:
            got = run_simulation("lru2", 4, trace, checks=checks).to_dict()
            want = run_simulation("lru", 4, trace, checks=checks).to_dict()
            assert got == dict(want, policy="lru2")
        result, hard = verify_trace("lru2", 4, trace)
        assert (result, hard) == (dict(verify_trace("lru", 4, trace)[0], policy="lru2"), False)
        assert result["checks"]["aggregate"]["bound_multiplier"] == 1

    def test_an_added_rows_audit_reaches_its_lemma_check(self, monkeypatch):
        class CountedLru(LruCache):
            kind = "COUNTED"

        class MissCounter(analysis._Tracker):
            """Zero potential; the audit is the policy's misses so far."""

            def __init__(self, policy):
                super().__init__(policy)
                self.misses = 0

            def alg_step(self, page, outcome):
                self.misses += not outcome.was_hit

            def value(self):
                return 0, self.misses

        def counted_miss(entry, spec, n):
            if entry.audit_alg > entry.audit_opt:
                return (("ALG", "counted_miss", entry.audit_alg, entry.audit_opt),)
            return ()

        row = analysis.POLICY_TABLE[0]._replace(name="counted", cls=CountedLru,
                                                tracker=MissCounter, lemma_checks=(counted_miss,))
        monkeypatch.setattr(analysis, "POLICY_TABLE", analysis.POLICY_TABLE + (row,))
        trace = gen_zipf(20, 0.8, 400, seed=3)
        miss_at = [i for i, miss in enumerate(analysis.run_checks(trace, 4, "lru").miss_flags)
                   if miss]
        want = [(i, k + 1, k) for k, i in enumerate(miss_at)]

        run = analysis.run_checks(trace, 4, "counted", checks=("lemmas",))
        assert [(v.index, v.lhs, v.rhs) for v in run.eviction_audit.violations] == want
        assert run.hard_failure
        result, hard = verify_trace("counted", 4, trace)
        listing = result["checks"]["eviction_audit"]
        assert hard and listing["violation_count"] == len(want)
        assert ([(v["index"], v["lhs"], v["rhs"]) for v in listing["violations"]]
                == [(i, str(lhs), str(rhs)) for i, lhs, rhs in want])
        log = run_lockstep(trace, 4, "counted")
        assert [(e.index, *f[2:]) for e in log.entries for f in counted_miss(e, row, 4)] == want
        assert [(e.audit_opt, e.audit_alg) for e in log.entries if e.c_alg] == [
            (k, k + 1) for k in range(len(miss_at))]
