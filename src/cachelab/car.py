"""Clock-based adaptive replacement (CAR).

ARC's directory (arc.Directory: lists T1, T2, B1, B2 and the target p,
moved by ARC's ratio rule) with the cache lists T1 and T2 made
second-chance rings with one reference bit per page, while the ghost
lists B1 and B2 stay plain FIFOs. A hit only sets the reference bit; all
reordering happens on misses, which keeps hits as cheap as CLOCK's.
CarCache.state() is (p, T1, T2, B1, B2, marks); its digest puts a ``*``
after each page whose bit is set: ``CAR p=0 T1=[3*] T2=[1] B1=[2] B2=[]``.
"""

from __future__ import annotations

from collections import deque
from itertools import compress

from .arc import Directory
from .core import HIT, AccessOutcome


class CarCache(Directory):
    """CAR policy state: two rings, two FIFO ghost lists, target p.

    t1/t2 run head (next candidate) to tail (insertion point); marks maps
    every cached page to its reference bit. b1/b2 run LRU -> MRU like
    ARC's ghost lists. The directory invariants it shares with ARC are
    audited by analysis.check_car_invariants.
    """

    kind = "CAR"

    def __init__(self, capacity):
        super().__init__(capacity, deque(), deque())
        self.marks = {}
        self.last_replace_iterations = 0
        self.last_swept = ()

    def state(self):
        """(p, T1, T2, B1, B2, marks): the rings head -> tail, the ghost
        lists MRU -> LRU, and the marked cached pages."""
        return (self.p, tuple(self.t1), tuple(self.t2), tuple(reversed(self.b1)),
                tuple(reversed(self.b2)), frozenset(compress(self.marks, self.marks.values())))

    # -- the algorithm -----------------------------------------------

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
        self._check_replace()
        self.last_replace_iterations = 0
        self.last_swept = ()
        while True:
            self.last_replace_iterations += 1
            if len(self.t1) >= max(1, self.p):
                head = self.t1.popleft()
                if not self.marks[head]:
                    del self.marks[head]
                    self.b1[head] = True
                    return head, "B1"
            else:
                head = self.t2.popleft()
                if not self.marks[head]:
                    del self.marks[head]
                    self.b2[head] = True
                    return head, "B2"
            self.marks[head] = False
            self.t2.append(head)
            self.last_swept += (head,)

    def request(self, page):
        if page in self.marks:
            self.marks[page] = True
            return HIT

        old_p = self.p
        history_hit = "B1" if page in self.b1 else "B2" if page in self.b2 else None
        moved = dest = None
        hist_evicted = hist_from = None
        swept = ()
        if self.is_full:
            moved, dest = self.replace()
            swept = self.last_swept
            if history_hit is None:
                if len(self.t1) + len(self.b1) == self.capacity:
                    hist_evicted, _ = self.b1.popitem(last=False)
                    hist_from = "B1"
                elif (len(self.t1) + len(self.t2) + len(self.b1) + len(self.b2)
                      == 2 * self.capacity):
                    hist_evicted, _ = self.b2.popitem(last=False)
                    hist_from = "B2"
        if history_hit is None:
            self.t1.append(page)
        else:
            # ghost hit: adapt while the page is still in its ghost list,
            # then admit it to T2
            self.adapt(history_hit)
            del (self.b1 if history_hit == "B1" else self.b2)[page]
            self.t2.append(page)
        self.marks[page] = False
        # positional, in field order: keywords cost a quarter microsecond more
        return AccessOutcome(False, moved, hist_evicted, self.p - old_p, dest, hist_from,
                             history_hit, swept)
