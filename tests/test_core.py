import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from cachelab import (
    ADAPT_RATIO,
    ArcCache,
    CarCache,
    ClockCache,
    LruCache,
    analysis,
    canonical_key,
    gen_fuzz,
    make_policy,
)
from cachelab.core import render_state

DATA = pathlib.Path(__file__).parent / "data"

small_traces = st.lists(st.integers(min_value=0, max_value=9), max_size=60)
capacities = st.integers(min_value=1, max_value=5)


def test_canonical_key_is_total_and_stable():
    assert canonical_key(3) == canonical_key("3")
    assert sorted([10, 2, 1], key=canonical_key) == [1, 10, 2]


def test_empty_arc_digest():
    assert ArcCache(2).digest() == "ARC p=0 T1=[] T2=[] B1=[] B2=[]"


def test_arc_digest_after_short_run():
    arc = ArcCache(2)
    for page in [1, 2, 1, 3]:
        arc.request(page)
    assert arc.digest() == "ARC p=0 T1=[3] T2=[1] B1=[2] B2=[]"


def test_a_new_layout_renders_under_its_own_labels():
    class SplitLru(LruCache):
        """LRU whose state splits the queue into its MRU page and the rest."""

        kind = "SPLIT"
        labels = ("HEAD", "REST")

        def state(self):
            queue = tuple(reversed(self.queue))
            return queue[:1], queue[1:]

    split = SplitLru(3)
    for page in [1, 2, 3, 2]:
        split.request(page)
    assert split.digest() == "SPLIT HEAD=[2] REST=[3,1]"


def test_single_mark_bit_changes_digest():
    a, b = ClockCache(2), ClockCache(2)
    for page in [1, 2]:
        a.request(page)
        b.request(page)
    b.marks[1] = True
    assert a.digest() != b.digest()

    c, d = CarCache(2), CarCache(2)
    for page in [1, 2]:
        c.request(page)
        d.request(page)
    d.marks[1] = True
    assert c.digest() != d.digest()


@pytest.mark.parametrize("name", ["lru", "clock", "arc", "car"])
def test_capacity_must_be_positive(name):
    with pytest.raises(ValueError):
        make_policy(name, 0)


@pytest.mark.parametrize("name", ["lru", "clock", "arc", "car"])
def test_hit_iff_cached_before(name):
    # the cached set as the AccessOutcome stream reports it: a miss adds
    # the page and evicted_cache_page leaves
    policy = make_policy(name, 3)
    cached = set()
    for page in gen_fuzz(8, 400, seed=17):
        outcome = policy.request(page)
        assert outcome.was_hit == (page in cached)
        if outcome.was_hit:
            assert outcome.evicted_cache_page is None
            assert outcome.evicted_history_page is None
        else:
            cached.add(page)
            cached.discard(outcome.evicted_cache_page)
        assert len(cached) <= 3


@pytest.mark.parametrize("name", ["lru", "clock", "arc", "car"])
def test_cache_eviction_only_when_full(name):
    policy = make_policy(name, 4)
    for page in gen_fuzz(10, 400, seed=23):
        full_before = policy.is_full
        outcome = policy.request(page)
        if outcome.evicted_cache_page is not None:
            assert full_before


@settings(max_examples=60, deadline=None)
@given(trace=small_traces, capacity=capacities, name=st.sampled_from(["lru", "clock", "arc", "car"]))
def test_digest_replay_determinism(trace, capacity, name):
    first = make_policy(name, capacity)
    second = make_policy(name, capacity)
    for page in trace:
        first.request(page)
        second.request(page)
        assert first.digest() == second.digest()


@settings(max_examples=80, deadline=None)
@given(spec=st.sampled_from(analysis.POLICY_TABLE), capacity=capacities,
       traces=st.lists(st.lists(st.integers(min_value=0, max_value=5), max_size=30),
                       min_size=2, max_size=2))
def test_state_identity(spec, capacity, traces):
    # every state two policies of one row pass through, from the empty one
    # on, with its hash and the digest rendered when it was taken
    taken = []

    def take(policy):
        state = policy.state()
        taken.append((state, hash(state), policy.digest()))

    for trace in traces:
        policy = spec.make(capacity)
        take(policy)
        for page in trace:
            policy.request(page)
            take(policy)
    for state, hashed, digest in taken:
        # a state taken earlier is unchanged by the requests served since
        assert hash(state) == hashed
        assert render_state(spec.cls.kind, spec.cls.labels, state) == digest
    for a, _, a_digest in taken:
        for b, _, b_digest in taken:
            assert (a == b) == (a_digest == b_digest)


def test_digest_golden_file():
    expected = (DATA / "digests_golden.txt").read_text().splitlines()
    lines = []
    arc = ArcCache(3)
    for page in gen_fuzz(6, 40, seed=11):
        arc.request(page)
        lines.append(arc.digest())
    car = CarCache(3)
    for page in gen_fuzz(6, 40, seed=11):
        car.request(page)
        lines.append(car.digest())
    assert lines == expected


# string pages with repeats enough for marks, sweeps and ghost hits at N=3
WORD_TRACE = ("alpha beta gamma alpha beta delta beta epsilon alpha gamma zeta beta "
              "delta alpha epsilon gamma beta zeta alpha alpha").split()


def golden_kinds_lines():
    """Per-request digests of LRU, CLOCK and ratio ARC on the fuzz trace of
    digests_golden.txt, then of all four kinds on WORD_TRACE, at N=3."""
    runs = [
        (LruCache(3), gen_fuzz(6, 40, seed=11)),
        (ClockCache(3), gen_fuzz(6, 40, seed=11)),
        (ArcCache(3, adaptation=ADAPT_RATIO), gen_fuzz(6, 40, seed=11)),
    ] + [(cls(3), WORD_TRACE) for cls in (LruCache, ClockCache, ArcCache, CarCache)]
    lines = []
    for policy, trace in runs:
        for page in trace:
            policy.request(page)
            lines.append(policy.digest())
    return lines


def test_digest_golden_file_for_every_kind():
    expected = (DATA / "digests_golden_kinds.txt").read_text().splitlines()
    assert golden_kinds_lines() == expected
