"""Reference computations the benchmark checks cachelab's outputs against.

They share no code with cachelab: the optimal miss count uses a lazy
max-heap over next uses, the LRU miss count uses stack distances kept in
a Fenwick tree, and the scan_mix layout is checked from its definition.
self_check() tests each against hand-worked tiny traces and brute force.
"""

from __future__ import annotations

import heapq
from itertools import product


def opt_misses(trace, capacity):
    """Misses of furthest-next-use eviction (Belady 1966).

    The optimal miss count does not depend on how ties between pages
    never used again are broken, so any victim among them will do.
    """
    never = len(trace)
    next_use = [never] * len(trace)
    seen = {}
    for i in range(len(trace) - 1, -1, -1):
        next_use[i] = seen.get(trace[i], never)
        seen[trace[i]] = i
    cache = {}  # page -> position of its next use
    heap = []  # (-next use, page position) entries, stale ones skipped lazily
    misses = 0
    for i, page in enumerate(trace):
        if page not in cache:
            misses += 1
            if len(cache) == capacity:
                while True:
                    neg_use, where = heapq.heappop(heap)
                    victim = trace[where]
                    if cache.get(victim) == -neg_use:
                        del cache[victim]
                        break
        cache[page] = next_use[i]
        heapq.heappush(heap, (-next_use[i], i))
    return misses


def lru_misses(trace, capacity):
    """LRU misses from stack distances (Mattson et al. 1970).

    A request hits exactly when fewer than `capacity` distinct pages were
    requested since the previous request for the same page. A Fenwick
    tree over positions marks the latest request of every page, so the
    count of distinct pages in between is a range sum.
    """
    size = len(trace)
    tree = [0] * (size + 1)

    def add(pos, delta):
        pos += 1
        while pos <= size:
            tree[pos] += delta
            pos += pos & -pos

    def prefix(pos):  # marks at positions < pos
        total = 0
        while pos > 0:
            total += tree[pos]
            pos -= pos & -pos
        return total

    last = {}
    misses = 0
    for i, page in enumerate(trace):
        j = last.get(page)
        if j is None:
            misses += 1
        else:
            if prefix(i) - prefix(j + 1) >= capacity:
                misses += 1
            add(j, -1)
        add(i, 1)
        last[page] = i
    return misses


def scan_mix_errors(trace, hot, scan, length):
    """Ways in which `trace` breaks the scan_mix layout, as strings.

    The layout: bursts of 2*scan requests for hot pages in [0, hot)
    alternate with scans of `scan` requests for pages at or above `hot`
    that never repeat anywhere in the trace; the last part may be cut
    short at `length`.
    """
    errors = []
    if len(trace) != length:
        errors.append("length %d, expected %d" % (len(trace), length))
    period = 3 * scan
    scanned = set()
    for i, page in enumerate(trace):
        if i % period < 2 * scan:
            if not 0 <= page < hot:
                errors.append("request %d: burst page %r outside [0, %d)" % (i, page, hot))
        elif page < hot:
            errors.append("request %d: scan page %r is a hot page" % (i, page))
        elif page in scanned:
            errors.append("request %d: scan page %r repeats" % (i, page))
        else:
            scanned.add(page)
        if len(errors) >= 5:
            break
    return errors


def _brute_force_opt(trace, capacity):
    """Minimum misses over every eviction choice; tiny inputs only."""
    best = {frozenset(): 0}
    for page in trace:
        step = {}
        for cache, misses in best.items():
            if page in cache:
                options = [cache]
            elif len(cache) < capacity:
                options = [cache | {page}]
            else:
                options = [(cache - {victim}) | {page} for victim in cache]
            for option in options:
                cost = misses + (page not in cache)
                if cost < step.get(option, cost + 1):
                    step[option] = cost
        best = step
    return min(best.values())


def _simulated_lru_misses(trace, capacity):
    stack = []  # most recent first
    misses = 0
    for page in trace:
        if page in stack:
            stack.remove(page)
        else:
            misses += 1
            if len(stack) == capacity:
                stack.pop()
        stack.insert(0, page)
    return misses


def self_check():
    """Check the references on hand-worked traces; returns failures."""
    failures = []

    def expect(what, got, want):
        if got != want:
            failures.append("%s: got %r, expected %r" % (what, got, want))

    # 1 2 3 1 2 3 with two slots: OPT misses on 1, 2, 3 (evicting 2,
    # whose next use is furthest), hits 1, misses 2 (evicting 1), hits 3.
    expect("opt 123123/2", opt_misses([1, 2, 3, 1, 2, 3], 2), 4)
    expect("lru 123123/2", lru_misses([1, 2, 3, 1, 2, 3], 2), 6)
    # A cycle over N+1 pages misses on every LRU request; OPT misses on
    # the first N+1, then once every N requests: 0 1 2 0(h) 1 2(h) 0.
    cycle = [i % 3 for i in range(7)]
    expect("lru cycle k=3/2", lru_misses(cycle, 2), 7)
    expect("opt cycle k=3/2", opt_misses(cycle, 2), 5)
    expect("lru cycle k=9/8", lru_misses([i % 9 for i in range(900)], 8), 900)
    # a repeated page always hits after its first request
    expect("opt 1111/1", opt_misses([1, 1, 1, 1], 1), 1)
    expect("lru 1111/1", lru_misses([1, 1, 1, 1], 1), 1)
    # 1 2 1 3 1 2 with two slots: LRU keeps 1 hot, misses 1 2 3 2
    expect("lru 121312/2", lru_misses([1, 2, 1, 3, 1, 2], 2), 4)
    expect("opt 121312/2", opt_misses([1, 2, 1, 3, 1, 2], 2), 4)
    expect("empty", (opt_misses([], 3), lru_misses([], 3)), (0, 0))
    # every trace over 3 pages up to length 6, against brute force and a
    # direct LRU simulation
    for length in range(7):
        for trace in product(range(3), repeat=length):
            for capacity in (1, 2):
                expect("opt %r/%d" % (trace, capacity),
                       opt_misses(list(trace), capacity), _brute_force_opt(trace, capacity))
                expect("lru %r/%d" % (trace, capacity),
                       lru_misses(list(trace), capacity), _simulated_lru_misses(trace, capacity))

    # hot=2, scan=1: burst burst scan, repeated, cut at length 7
    expect("scan_mix valid", scan_mix_errors([0, 1, 2, 1, 1, 3, 0], 2, 1, 7), [])
    expect("scan_mix repeat", len(scan_mix_errors([0, 1, 2, 1, 1, 2, 0], 2, 1, 7)), 1)
    expect("scan_mix hot in scan", len(scan_mix_errors([0, 1, 1, 1, 1, 3, 0], 2, 1, 7)), 1)
    expect("scan_mix scan in burst", len(scan_mix_errors([0, 2, 3, 1, 1, 4, 0], 2, 1, 7)), 1)
    expect("scan_mix short", len(scan_mix_errors([0, 1, 2], 2, 1, 7)), 1)
    return failures
