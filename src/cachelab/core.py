"""Shared domain types and the contract every replacement policy implements.

Pages are opaque tokens: any hashable value whose str() form is nonempty
and contains no whitespace and none of the characters ``*,[]`` that
digests use as syntax (parse_trace and the verification pass reject such
tokens); a verified run also needs distinct pages to have distinct str()
forms. Integer block numbers and string keys both work; two requests
name the same page exactly when their tokens compare equal.

Unlike a production cache, every policy here exposes its complete internal
state (ordered lists, mark bits, the adaptive target) so that the
verification layer can audit each request.
"""

from __future__ import annotations

from dataclasses import dataclass


# characters that policy digests use as syntax; a token holding one would
# render ambiguously (the token "5*" looks like a marked page 5)
RESERVED_TOKEN_CHARS = "*,[]"


def check_page_tokens(pages):
    """Raise ValueError naming the first page whose str() form is empty or
    holds whitespace or a reserved character, or the first two distinct
    pages with the same str() form (1 and "1"): their digests would be
    ambiguous. Each distinct page is checked once."""
    seen = {}
    for page in dict.fromkeys(pages):
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
    adaptive target (0 for non-adaptive policies). swept lists, in sweep
    order, the pages a clock sweep gave a second chance: each had its
    mark cleared and moved from the head of its ring to a tail.
    """

    was_hit: bool
    evicted_cache_page: object = None
    evicted_history_page: object = None
    adaptation_delta: int = 0
    replace_dest: str | None = None
    history_evicted_from: str | None = None
    history_hit: str | None = None
    swept: tuple = ()


class Policy:
    """Base class for replacement policies fed one request at a time.

    Each instance is owned by a single simulation run; nothing here is
    safe for shared mutation, and nothing needs to be.
    """

    kind = "?"
    adaptation = None  # the adaptive target's update rule, for policies that have one

    def __init__(self, capacity):
        if not isinstance(capacity, int) or capacity < 1:
            raise ValueError("cache capacity must be a positive integer, got %r" % (capacity,))
        self.capacity = capacity

    def request(self, page) -> AccessOutcome:
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
