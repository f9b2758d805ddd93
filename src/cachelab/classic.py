"""Reference implementations of the two classic policies: LRU and CLOCK."""

from __future__ import annotations

from collections import OrderedDict, deque
from itertools import compress

from .core import HIT, AccessOutcome, Policy


class LruCache(Policy):
    """Least-recently-used eviction over a single recency queue."""

    kind = "LRU"
    labels = ("Q",)

    def __init__(self, capacity):
        super().__init__(capacity)
        # queue keys run LRU -> MRU left to right
        self.queue = OrderedDict()

    def request(self, page):
        if page in self.queue:
            self.queue.move_to_end(page)
            return HIT
        evicted = None
        if len(self.queue) == self.capacity:
            evicted, _ = self.queue.popitem(last=False)
        self.queue[page] = True
        return AccessOutcome(was_hit=False, evicted_cache_page=evicted)

    @property
    def is_full(self):
        return len(self.queue) == self.capacity

    def state(self):
        """(Q,): the queue MRU -> LRU."""
        return (tuple(reversed(self.queue)),)


class ClockCache(Policy):
    """Second-chance ring: one mark bit per page, a hand at the oldest page.

    The ring runs head (next eviction candidate) to tail (latest
    insertion point). A hit only sets the page's mark; the hand never
    moves on a hit. A miss with a full ring sweeps the hand forward,
    clearing marks, until it finds an unmarked page to evict; the
    requested page then enters unmarked at the tail.
    """

    kind = "CLOCK"
    labels = ("RING",)

    def __init__(self, capacity):
        super().__init__(capacity)
        self.ring = deque()  # index 0 = head, right end = tail
        self.marks = {}  # each ring page's mark bit

    def request(self, page):
        if page in self.marks:
            self.marks[page] = True
            return HIT
        evicted = None
        swept = ()
        if len(self.ring) == self.capacity:
            while self.marks[self.ring[0]]:
                head = self.ring.popleft()
                self.marks[head] = False
                self.ring.append(head)
                swept += (head,)
            evicted = self.ring.popleft()
            del self.marks[evicted]
        self.ring.append(page)
        self.marks[page] = False
        return AccessOutcome(was_hit=False, evicted_cache_page=evicted, swept=swept)

    @property
    def is_full(self):
        return len(self.ring) == self.capacity

    def state(self):
        """(RING, marks): the ring head -> tail and its marked pages."""
        return tuple(self.ring), frozenset(compress(self.marks, self.marks.values()))
