"""Clock-based adaptive replacement (CAR).

Combines the dual-list layout of ARC with second-chance rings: the cached
pages live in two circular lists T1 and T2 with one reference bit each,
while the ghost lists B1 and B2 stay plain FIFOs. A hit only sets the
reference bit; all reordering happens on misses, which keeps hits as
cheap as CLOCK's.
"""

from __future__ import annotations

from collections import OrderedDict, deque

from .core import AccessOutcome, Policy, render_pages


class CarCache(Policy):
    """CAR policy state: two rings, two FIFO ghost lists, target p.

    t1/t2 run head (next candidate) to tail (insertion point); ref maps
    every cached page to its reference bit. b1/b2 run LRU -> MRU like
    ARC's ghost lists. The seven structural invariants on the list sizes
    are audited by analysis.check_car_invariants.
    """

    kind = "CAR"

    def __init__(self, capacity):
        super().__init__(capacity)
        self.p = 0
        self.t1 = deque()
        self.t2 = deque()
        self.ref = {}
        self.b1 = OrderedDict()
        self.b2 = OrderedDict()
        self.last_replace_iterations = 0
        self.last_swept = ()

    # -- state views -------------------------------------------------

    def t1_list(self):
        return list(self.t1)

    def t2_list(self):
        return list(self.t2)

    def b1_list(self):
        return list(reversed(self.b1))

    def b2_list(self):
        return list(reversed(self.b2))

    @property
    def is_full(self):
        return len(self.t1) + len(self.t2) == self.capacity

    def digest(self):
        def ring(pages):
            return "[%s]" % ",".join("%s*" % p if self.ref[p] else str(p) for p in pages)

        return "CAR p=%d T1=%s T2=%s B1=%s B2=%s" % (
            self.p,
            ring(self.t1),
            ring(self.t2),
            render_pages(self.b1_list()),
            render_pages(self.b2_list()),
        )

    # -- the algorithm -----------------------------------------------

    def adapt(self, hit_list):
        """Ratio adaptation of the T1 target, sizes taken with the
        requested page still in its ghost list."""
        if hit_list == "B1":
            self.p = min(self.p + max(1, len(self.b2) // len(self.b1)), self.capacity)
        elif hit_list == "B2":
            self.p = max(self.p - max(1, len(self.b1) // len(self.b2)), 0)
        else:
            raise ValueError("hit_list must be 'B1' or 'B2', got %r" % (hit_list,))
        return self.p

    def replace(self):
        """Free one cache slot, giving marked heads a second chance.

        While T1 holds at least max(1, p) pages the T1 head is the
        candidate: demoted to MRU(B1) if unmarked, else recycled
        bit-cleared to the tail of T2. Otherwise the T2 head is the
        candidate: demoted to MRU(B2) if unmarked, else recycled
        bit-cleared to T2's own tail. Each pass either demotes a page or
        clears a set bit / shrinks T1, so the loop terminates within
        2*(|T1|+|T2|) iterations. The recycled pages are kept, in sweep
        order, in last_swept.
        """
        if len(self.t1) + len(self.t2) != self.capacity:
            raise RuntimeError("REPLACE requires a full cache (|T1|+|T2| = capacity)")
        self.last_replace_iterations = 0
        self.last_swept = ()
        while True:
            self.last_replace_iterations += 1
            if len(self.t1) >= max(1, self.p):
                head = self.t1.popleft()
                if not self.ref[head]:
                    del self.ref[head]
                    self.b1[head] = True
                    return head, "B1"
            else:
                head = self.t2.popleft()
                if not self.ref[head]:
                    del self.ref[head]
                    self.b2[head] = True
                    return head, "B2"
            self.ref[head] = 0
            self.t2.append(head)
            self.last_swept += (head,)

    def request(self, page):
        if page in self.ref:
            self.ref[page] = 1
            return AccessOutcome(was_hit=True)

        old_p = self.p
        in_b1 = page in self.b1
        in_b2 = page in self.b2
        moved = dest = None
        hist_evicted = hist_from = None
        swept = ()
        if len(self.t1) + len(self.t2) == self.capacity:
            moved, dest = self.replace()
            swept = self.last_swept
            if not (in_b1 or in_b2):
                if len(self.t1) + len(self.b1) == self.capacity:
                    hist_evicted, _ = self.b1.popitem(last=False)
                    hist_from = "B1"
                elif (len(self.t1) + len(self.t2) + len(self.b1) + len(self.b2)
                      == 2 * self.capacity):
                    hist_evicted, _ = self.b2.popitem(last=False)
                    hist_from = "B2"
        if not (in_b1 or in_b2):
            self.t1.append(page)
            self.ref[page] = 0
            history_hit = None
        elif in_b1:
            self.adapt("B1")
            del self.b1[page]
            self.t2.append(page)
            self.ref[page] = 0
            history_hit = "B1"
        else:
            self.adapt("B2")
            del self.b2[page]
            self.t2.append(page)
            self.ref[page] = 0
            history_hit = "B2"
        return AccessOutcome(
            was_hit=False,
            evicted_cache_page=moved,
            replace_dest=dest,
            evicted_history_page=hist_evicted,
            history_evicted_from=hist_from,
            adaptation_delta=self.p - old_p,
            history_hit=history_hit,
            swept=swept,
        )
