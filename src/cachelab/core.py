"""Shared domain types, the page-token rules and the contract every
replacement policy implements. Trace text I/O lives in traces.

Pages are opaque tokens: any hashable value whose str() form is nonempty
and contains no whitespace and none of the characters ``*,[]`` that
digests use as syntax (traces.parse_trace and the verification pass
reject such tokens); a verified run also needs distinct pages to have
distinct str() forms, and no page may be None. Integer block numbers and
string keys both work; two requests name the same page exactly when
their tokens compare equal.

Unlike a production cache, every policy here exposes its complete internal
state (ordered lists, mark bits, the adaptive target) as one canonical
tuple, Policy.state(), so that the verification layer can audit each
request; the class's labels name the tuple's items, and render_state
turns the two into the policy's digest line.
"""

from __future__ import annotations

from collections import namedtuple

from .traces import RESERVED_TOKEN_CHARS


def check_page_tokens(pages):
    """Raise ValueError naming the first page whose str() form is empty or
    holds whitespace or a reserved character, or the first two distinct
    pages with the same str() form (1 and "1"): their digests would be
    ambiguous. None is rejected too: records read it as "nothing
    evicted". Each distinct page is checked once."""
    distinct = dict.fromkeys(pages)
    texts = list(map(str, distinct))
    # one batch for the usual clean trace: joined by single spaces, the
    # forms split back into themselves exactly when each is nonempty and
    # free of whitespace
    joined = " ".join(texts)
    if (None not in distinct and joined.split() == texts
            and not any(c in joined for c in RESERVED_TOKEN_CHARS)
            and len(set(texts)) == len(texts)):
        return
    seen = {}
    for page, text in zip(distinct, texts):
        if page is None:
            raise ValueError("page None cannot be checked: the records use None for "
                             "\"nothing evicted\"")
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


def check_capacity(capacity):
    """Raise ValueError unless capacity is a positive int and not a bool:
    every cache, the oracle's included, holds a whole number of pages."""
    if isinstance(capacity, bool) or not isinstance(capacity, int) or capacity < 1:
        raise ValueError("cache capacity must be a positive integer, got %r" % (capacity,))


def canonical_key(page):
    """Total order on page tokens, used wherever a deterministic tie-break
    or a stable rendering order is needed."""
    return str(page)


def render_state(kind, labels, state):
    """The digest line of a Policy.state(): the kind, then each item under
    its label, an int as ``p=3``, pages as ``T1=[a,b*]`` (b marked)."""
    marks = state[-1] if isinstance(state[-1], frozenset) else ()
    line = kind
    for label, item in zip(labels, state):
        if isinstance(item, int):
            line += " %s=%d" % (label, item)
        elif marks:
            line += " %s=[%s]" % (label, ",".join(
                [str(page) + "*" if page in marks else str(page) for page in item]))
        else:
            line += " %s=[%s]" % (label, ",".join(map(str, item)))
    return line


class AccessOutcome(namedtuple(
        "AccessOutcome",
        "was_hit evicted_cache_page evicted_history_page adaptation_delta replace_dest "
        "history_evicted_from history_hit swept",
        defaults=(None, None, 0, None, None, None, ()))):
    """What a single request did to a policy's state.

    evicted_cache_page lost its cache slot this request: it moved to the
    history list named by replace_dest, or left the directory entirely
    when replace_dest is None. evicted_history_page was discarded from
    the history list named by history_evicted_from. history_hit names
    the history list the requested page itself was found in, for
    policies that keep one. adaptation_delta is the change to the
    adaptive target (0 for non-adaptive policies). swept lists, in sweep
    order, the pages a clock sweep gave a second chance: each had its
    mark cleared and moved from the head of its ring to a tail.
    """

    __slots__ = ()


# every hit of every policy: a hit only reorders or marks, so it has no
# other field to report
HIT = AccessOutcome(was_hit=True)


class Policy:
    """Base class for replacement policies fed one request at a time.

    Each instance is owned by a single simulation run; nothing here is
    safe for shared mutation, and nothing needs to be.
    """

    kind = "?"
    labels = ()  # the digest label of each state() item; the marks set has none
    adaptation = None  # the adaptive target's update rule, for policies that have one

    def __init__(self, capacity):
        check_capacity(capacity)
        self.capacity = capacity

    def request(self, page) -> AccessOutcome:
        raise NotImplementedError

    @property
    def is_full(self):
        raise NotImplementedError

    def digest(self):
        """Canonical one-line rendering of state(), the complete observable
        state, which each subclass returns as a hashable tuple and names
        item by item in labels. Equal states produce identical digests; any
        observable difference (ordering, a mark bit, the adaptive target)
        changes the line. The format is stable and used by golden-file tests.
        """
        return render_state(self.kind, self.labels, self.state())
