"""Shared domain types and the contract every replacement policy implements.

Pages are opaque tokens: any hashable value whose str() form contains no
whitespace and none of the characters ``*,[]`` that digests use as syntax
(parse_trace rejects such tokens). Integer block numbers and string keys both work; two requests
name the same page exactly when their tokens compare equal.

Unlike a production cache, every policy here exposes its complete internal
state (ordered lists, mark bits, the adaptive target) so that the
verification layer can audit each request.
"""

from __future__ import annotations

from dataclasses import dataclass


def canonical_key(page):
    """Total order on page tokens, used wherever a deterministic tie-break
    or a stable rendering order is needed."""
    return str(page)


def render_pages(pages):
    """Render an ordered sequence of pages as ``[a,b,c]``."""
    return "[%s]" % ",".join(str(p) for p in pages)


@dataclass
class AccessOutcome:
    """What a single request did to a policy's state.

    evicted_cache_page lost its cache slot this request: it moved to the
    history list named by replace_dest, or left the directory entirely
    when replace_dest is None. evicted_history_page was discarded from
    the history list named by history_evicted_from. history_hit names
    the history list the requested page itself was found in, for
    policies that keep one. adaptation_delta is the change to the
    adaptive target (0 for non-adaptive policies).
    """

    was_hit: bool
    evicted_cache_page: object = None
    evicted_history_page: object = None
    adaptation_delta: int = 0
    replace_dest: str | None = None
    history_evicted_from: str | None = None
    history_hit: str | None = None


class Policy:
    """Base class for replacement policies fed one request at a time.

    Each instance is owned by a single simulation run; nothing here is
    safe for shared mutation, and nothing needs to be.
    """

    kind = "?"

    def __init__(self, capacity):
        if not isinstance(capacity, int) or capacity < 1:
            raise ValueError("cache capacity must be a positive integer, got %r" % (capacity,))
        self.capacity = capacity

    def request(self, page) -> AccessOutcome:
        raise NotImplementedError

    def cached_pages(self):
        """Set of pages currently occupying a cache slot."""
        raise NotImplementedError

    @property
    def is_full(self):
        raise NotImplementedError

    def digest(self):
        """Canonical one-line rendering of the complete observable state.

        Equal states produce identical digests; any observable difference
        (ordering, a mark bit, the adaptive target) changes the line.
        The format is stable and used by golden-file tests.
        """
        raise NotImplementedError


def state_digest(policy):
    """Digest line for any policy; see Policy.digest."""
    return policy.digest()
