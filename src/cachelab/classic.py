"""Reference implementations of the two classic policies: LRU and CLOCK."""

from __future__ import annotations

from collections import OrderedDict, deque

from .core import HIT, AccessOutcome, Policy, render_pages


class LruCache(Policy):
    """Least-recently-used eviction over a single recency queue."""

    kind = "LRU"

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

    def mru_to_lru(self):
        return list(reversed(self.queue))

    @property
    def is_full(self):
        return len(self.queue) == self.capacity

    def digest(self):
        return "LRU Q=%s" % render_pages(self.mru_to_lru())


class ClockCache(Policy):
    """Second-chance ring: one mark bit per page, a hand at the oldest page.

    The ring runs head (next eviction candidate) to tail (latest
    insertion point). A hit only sets the page's mark; the hand never
    moves on a hit. A miss with a full ring sweeps the hand forward,
    clearing marks, until it finds an unmarked page to evict; the
    requested page then enters unmarked at the tail.
    """

    kind = "CLOCK"

    def __init__(self, capacity):
        super().__init__(capacity)
        self.ring = deque()  # index 0 = head, right end = tail
        self.marked = {}

    def request(self, page):
        if page in self.marked:
            self.marked[page] = True
            return HIT
        evicted = None
        swept = ()
        if len(self.ring) == self.capacity:
            while self.marked[self.ring[0]]:
                head = self.ring.popleft()
                self.marked[head] = False
                self.ring.append(head)
                swept += (head,)
            evicted = self.ring.popleft()
            del self.marked[evicted]
        self.ring.append(page)
        self.marked[page] = False
        return AccessOutcome(was_hit=False, evicted_cache_page=evicted, swept=swept)

    @property
    def is_full(self):
        return len(self.ring) == self.capacity

    def digest(self):
        return "CLOCK RING=%s" % render_pages(self.ring, self.marked)
