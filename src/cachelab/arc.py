"""Adaptive dual-list replacement with ghost history (ARC).

The cache is split into a recency list T1 and a frequency list T2, backed
by ghost lists B1 and B2 that remember recently demoted pages without
holding their data. A self-tuned target p in [0, N] steers how many slots
the recency side may keep: REPLACE demotes from T1 while T1 runs above
target, from T2 otherwise.

Two adaptation rules are selectable. ADAPT_UNIT bumps p by exactly one
per ghost hit; ADAPT_RATIO moves it by the ratio of the opposite ghost
list's size (integer division, floored at 1), evaluated while the
requested page still sits in its ghost list. ADAPT_UNIT is the variant
the step-by-step bound checker covers.

Directory holds the four lists, p and its adaptation; CAR (car.py)
subclasses it, with T1 and T2 made clock rings. ArcCache.state() is
(p, T1, T2, B1, B2), every list MRU -> LRU: ``ARC p=0 T1=[3] T2=[1] B1=[2] B2=[]``.
"""

from __future__ import annotations

from collections import OrderedDict

from .core import HIT, AccessOutcome, Policy

ADAPT_UNIT = "unit"
ADAPT_RATIO = "ratio"


class Directory(Policy):
    """Cache lists T1 and T2, ghost lists B1 and B2 (OrderedDicts, LRU ->
    MRU) and the target p for T1, moved on each ghost hit by one under
    ADAPT_UNIT and by the ratio rule otherwise. Each subclass passes its
    own t1/t2 structures and states their order in its state().
    """

    labels = ("p", "T1", "T2", "B1", "B2")

    def __init__(self, capacity, t1, t2):
        super().__init__(capacity)
        self.p = 0
        self.t1 = t1
        self.t2 = t2
        self.b1 = OrderedDict()
        self.b2 = OrderedDict()

    @property
    def is_full(self):
        return len(self.t1) + len(self.t2) == self.capacity

    # -- the shared steps --------------------------------------------

    def adapt(self, hit_list):
        """Move the target p for a ghost hit in B1 (grow) or B2 (shrink).

        Under the ratio rule the hit list must still contain the requested
        page, so its size is at least 1 and the division is safe.
        """
        if hit_list not in ("B1", "B2"):
            raise ValueError("hit_list must be 'B1' or 'B2', got %r" % (hit_list,))
        hit, other = (self.b1, self.b2) if hit_list == "B1" else (self.b2, self.b1)
        step = 1 if self.adaptation == ADAPT_UNIT else max(1, len(other) // len(hit))
        self.p = min(self.p + step, self.capacity) if hit_list == "B1" else max(self.p - step, 0)
        return self.p

    def _check_replace(self):
        """Raise unless the cache is full: REPLACE elsewhere is a harness bug."""
        if not self.is_full:
            raise RuntimeError("REPLACE requires a full cache (|T1|+|T2| = capacity)")


class ArcCache(Directory):
    """ARC policy state: four ordered lists plus the adaptive target p.

    All four OrderedDicts run LRU -> MRU left to right; t1/t2 hold cached
    pages, b1/b2 the ghost entries. After every request the four lists
    are pairwise disjoint and keep the directory invariants CAR shares
    (size caps, no ghost before the cache is full, 0 <= p <= N); see
    analysis.check_arc_structure.
    """

    kind = "ARC"

    def __init__(self, capacity, adaptation=ADAPT_UNIT):
        super().__init__(capacity, OrderedDict(), OrderedDict())
        if adaptation not in (ADAPT_UNIT, ADAPT_RATIO):
            raise ValueError("unknown adaptation %r" % (adaptation,))
        self.adaptation = adaptation
        self.replace_invocations = 0

    def state(self):
        """(p, T1, T2, B1, B2), every list MRU -> LRU."""
        return (self.p, tuple(reversed(self.t1)), tuple(reversed(self.t2)),
                tuple(reversed(self.b1)), tuple(reversed(self.b2)))

    # -- the algorithm -----------------------------------------------

    def replace(self, requested_in_b2):
        """Demote one page from the cache into its ghost list.

        Takes LRU(T1) into B1 when T1 is nonempty and either runs above
        target or sits exactly at target while the request came from B2;
        otherwise takes LRU(T2) into B2. Only legal while the cache is
        full.
        """
        self._check_replace()
        self.replace_invocations += 1
        t1_len = len(self.t1)
        if t1_len >= 1 and ((requested_in_b2 and t1_len == self.p) or t1_len > self.p):
            victim, _ = self.t1.popitem(last=False)
            self.b1[victim] = True
            return victim, "B1"
        victim, _ = self.t2.popitem(last=False)
        self.b2[victim] = True
        return victim, "B2"

    def request(self, page):
        if page in self.t1 or page in self.t2:
            # cache hit: promote to MRU of the frequency list
            if page in self.t1:
                del self.t1[page]
            else:
                del self.t2[page]
            self.t2[page] = True
            return HIT

        hit_list = "B1" if page in self.b1 else "B2" if page in self.b2 else None
        if hit_list is not None:
            # ghost hit: adapt, free a slot, and admit the page to T2
            old_p = self.p
            self.adapt(hit_list)
            moved, dest = self.replace(requested_in_b2=hit_list == "B2")
            del (self.b1 if hit_list == "B1" else self.b2)[page]
            self.t2[page] = True
            return AccessOutcome(
                was_hit=False,
                evicted_cache_page=moved,
                replace_dest=dest,
                adaptation_delta=self.p - old_p,
                history_hit=hit_list,
            )

        # full directory miss
        moved = dest = None
        hist_evicted = hist_from = None
        l1 = len(self.t1) + len(self.b1)
        total = l1 + len(self.t2) + len(self.b2)
        if l1 == self.capacity:
            if len(self.t1) < self.capacity:
                hist_evicted, _ = self.b1.popitem(last=False)
                hist_from = "B1"
                moved, dest = self.replace(requested_in_b2=False)
            else:
                # B1 is empty and T1 fills the cache: drop LRU(T1) outright
                moved, _ = self.t1.popitem(last=False)
        elif total >= self.capacity:
            if total == 2 * self.capacity:
                hist_evicted, _ = self.b2.popitem(last=False)
                hist_from = "B2"
            moved, dest = self.replace(requested_in_b2=False)
        # while the directory is smaller than the cache nothing is evicted
        self.t1[page] = True
        return AccessOutcome(
            was_hit=False,
            evicted_cache_page=moved,
            evicted_history_page=hist_evicted,
            history_evicted_from=hist_from,
            replace_dest=dest,
        )
