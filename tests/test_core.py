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
from cachelab.core import check_page_tokens, render_state
from cachelab.traces import RESERVED_TOKEN_CHARS, TraceParseError, parse_trace

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


# ---------------------------------------------------------------------------
# ingestion: the one-pass paths against the per-line and per-page loops
# they replaced, kept here as references


def reference_parse_trace(text):
    """The line walk over decoded text, as parse_trace once ran it."""
    text = text.removeprefix("\ufeff")
    check_reserved = any(c in text for c in RESERVED_TOKEN_CHARS)
    tokens = []
    for number, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        words = stripped.split()
        if check_reserved:
            for word in words:
                if any(c in word for c in RESERVED_TOKEN_CHARS):
                    raise TraceParseError(
                        "trace token %r on line %d contains one of the reserved characters %s"
                        % (word, number, RESERVED_TOKEN_CHARS)
                    )
        tokens.extend(words)
    return tokens


def reference_check_page_tokens(pages):
    """The page-by-page check, as check_page_tokens once ran it."""
    seen = {}
    for page in dict.fromkeys(pages):
        if page is None:
            raise ValueError("page None cannot be checked: the records use None for "
                             "\"nothing evicted\"")
        text = str(page)
        if text.split() != [text] or any(c in text for c in RESERVED_TOKEN_CHARS):
            raise ValueError(
                "page %r does not render unambiguously in a digest: its str() form must be "
                "nonempty and hold no whitespace and none of %s" % (page, RESERVED_TOKEN_CHARS)
            )
        if text in seen:
            raise ValueError(
                "pages %r and %r do not render unambiguously in a digest: both have the "
                "str() form %r" % (seen[text], page, text)
            )
        seen[text] = page


def outcome(function, argument, error):
    """function(argument), or the message of the error it raised."""
    try:
        return function(argument)
    except error as exc:
        return ("raised", type(exc), str(exc))


# every line boundary str.splitlines knows, and whitespace that is not one
SEPARATORS = [" ", "\t", "\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x1f",
              "\x85", "\u2028", "\u2029", "\xa0", "\u3000"]
TRACE_PIECES = ["1", "22", "a", "#", "# note", "\ufeff"] + list(RESERVED_TOKEN_CHARS) + SEPARATORS


@settings(max_examples=400, deadline=None)
@given(pieces=st.lists(st.sampled_from(TRACE_PIECES), max_size=40))
def test_parse_trace_matches_the_line_walk(pieces):
    text = "".join(pieces)
    want = outcome(reference_parse_trace, text, TraceParseError)
    assert outcome(parse_trace, text, TraceParseError) == want
    assert outcome(parse_trace, text.encode(), TraceParseError) == want


@pytest.mark.parametrize("separator", SEPARATORS)
def test_every_unicode_whitespace_separates_tokens(separator):
    text = "1%s2%s%s3" % (separator, separator, separator)
    assert parse_trace(text) == reference_parse_trace(text) == ["1", "2", "3"]


PAGE_TEXTS = ["1", "2", "a", "", "a b", "c\u3000d", "\x85", "5*", "x,y", "[", "]", "None", "\ufeff"]


@settings(max_examples=400, deadline=None)
@given(pages=st.lists(st.one_of(st.integers(min_value=-2, max_value=3),
                                st.sampled_from(PAGE_TEXTS), st.none()), max_size=12))
def test_check_page_tokens_matches_the_page_walk(pages):
    want = outcome(reference_check_page_tokens, pages, ValueError)
    assert outcome(check_page_tokens, pages, ValueError) == want


@pytest.mark.parametrize("pages", [[1, "1"], ["1", 2, 1], [None], ["a", "a b"], ["", 1],
                                   [1, 2, "5*"], [True, 1, "True"], ["a b", ""], []])
def test_check_page_tokens_names_the_first_offender(pages):
    want = outcome(reference_check_page_tokens, pages, ValueError)
    assert outcome(check_page_tokens, pages, ValueError) == want
