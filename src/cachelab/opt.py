"""Offline-optimal demand paging.

belady_run evicts the cached page whose next use lies furthest in the
future, which is optimal among all demand-paging strategies.
exhaustive_opt independently brute-forces the minimum miss count over
every possible eviction choice on small instances, so the two can be
cross-checked against each other.
"""

from __future__ import annotations

import heapq
import math
from collections import namedtuple

from .core import canonical_key, check_capacity


OptStep = namedtuple("OptStep", "was_hit evicted cache_after")


class OptSchedule(namedtuple("OptSchedule", "capacity hits admitted evicted")):
    """The optimal run, stored compactly: one hit flag per request, and
    for each miss, in order, the page it admitted and the page it evicted
    (None while the cache was still filling). `steps` rebuilds the
    per-request OptStep records from these on demand."""

    __slots__ = ()

    @property
    def miss_count(self):
        return len(self.admitted)

    def miss_flags(self):
        return [not hit for hit in self.hits]

    @property
    def steps(self):
        """A fresh iterator over the OptStep records, one per request.

        Records are rebuilt by replaying the schedule forward from the
        first request. Demand paging changes the cache only on a miss, so
        one frozenset is built per miss and shared by the hits that
        follow it.
        """
        cache = set()
        hit_step = OptStep(True, None, frozenset())
        misses = 0
        for hit in self.hits:
            if hit:
                yield hit_step
                continue
            evicted = self.evicted[misses]
            if len(cache) == self.capacity:
                cache.remove(evicted)
            cache.add(self.admitted[misses])
            misses += 1
            snapshot = frozenset(cache)
            hit_step = OptStep(True, None, snapshot)
            yield OptStep(False, evicted, snapshot)


def annotate_next_use(trace):
    """For each position i, the smallest j > i with trace[j] == trace[i],
    or math.inf when the page never recurs."""
    nxt = [math.inf] * len(trace)
    last_seen = {}
    for i in range(len(trace) - 1, -1, -1):
        page = trace[i]
        nxt[i] = last_seen.get(page, math.inf)
        last_seen[page] = i
    return nxt


def belady_run(trace, capacity):
    """Optimal schedule for the trace under demand paging.

    On a miss with a full cache the victim is the page with the furthest
    next use; among pages never used again the one with the smallest
    canonical token order goes, and among those the one admitted
    earliest, which keeps runs deterministic (any such choice is
    optimal).

    The victim comes from a lazy max-heap of (-next use, canonical key,
    admission number, page) entries. The admission number is unique, so
    entries never compare pages. A hit pushes a fresh entry for its page
    and leaves the old one stale. A stale entry's next use has already
    passed, so every live entry outranks it, and one that is popped all
    the same is skipped. The heap is rebuilt from the live entries
    whenever it outgrows 4N, so each request costs O(log N).
    """
    check_capacity(capacity)
    next_use = annotate_next_use(trace)
    live = {}  # cached page -> its current heap entry
    heap = []
    hits = bytearray()
    admitted = []
    evicted = []
    for i, page in enumerate(trace):
        entry = live.get(page)
        if entry is not None:
            entry = (-next_use[i], entry[1], entry[2], page)
            hits.append(1)
        else:
            victim = None
            if len(live) == capacity:
                while True:
                    top = heapq.heappop(heap)
                    if live.get(top[3]) is top:
                        break
                victim = top[3]
                del live[victim]
            entry = (-next_use[i], canonical_key(page), len(admitted), page)
            hits.append(0)
            admitted.append(page)
            evicted.append(victim)
        live[page] = entry
        if len(heap) >= 4 * capacity:
            heap = list(live.values())
            heapq.heapify(heap)
        else:
            heapq.heappush(heap, entry)
    return OptSchedule(capacity, bytes(hits), tuple(admitted), tuple(evicted))


def exhaustive_opt(trace, capacity, max_length=12, max_distinct=5, max_capacity=3):
    """Exact minimum miss count over all demand-paging eviction strategies.

    Memoized search over (position, cache contents); instances beyond the
    configured bounds are rejected because the state space explodes.
    """
    check_capacity(capacity)
    distinct = len(set(trace))
    if len(trace) > max_length:
        raise ValueError("trace length %d exceeds search bound %d" % (len(trace), max_length))
    if distinct > max_distinct:
        raise ValueError("%d distinct pages exceed search bound %d" % (distinct, max_distinct))
    if capacity > max_capacity:
        raise ValueError("capacity %d exceeds search bound %d" % (capacity, max_capacity))

    memo = {}

    def best(i, cache):
        if i == len(trace):
            return 0
        key = (i, cache)
        found = memo.get(key)
        if found is not None:
            return found
        page = trace[i]
        if page in cache:
            result = best(i + 1, cache)
        elif len(cache) < capacity:
            result = 1 + best(i + 1, cache | {page})
        else:
            result = 1 + min(
                best(i + 1, (cache - {victim}) | {page}) for victim in cache
            )
        memo[key] = result
        return result

    return best(0, frozenset())
