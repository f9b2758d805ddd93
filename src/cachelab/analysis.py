"""Verification layer: potential functions and the trackers that update
them request by request, lockstep replay against the offline optimum,
per-step bound/invariant checkers, and run_checks, the one streaming
pass that drives them all.

Every request is processed in two half-steps: the optimal schedule moves
first, then the online policy. A potential function maps (policy state,
optimal cache contents) to an exact integer, and the checkers confirm,
request by request, that the policy's cost plus the change in potential
stays within the bound multiplier times the optimal cost. All arithmetic
is integer; there are no tolerances.

Position conventions used by the ring potentials: a ring page's position
is its sweep distance, i.e. how many pages the hand must pass to reach it
(head = 1, tail = ring size). A history page's position counts from the
discard end (LRU = 1, MRU = list size). With these anchors, every page a
miss touches moves toward lower values, which is what makes the per-step
accounting close.
"""

from __future__ import annotations

from collections import namedtuple

from .arc import ADAPT_RATIO, ADAPT_UNIT, ArcCache
from .car import CarCache
from .classic import ClockCache, LruCache
from .core import canonical_key, check_capacity, check_page_tokens
from .opt import belady_run


# ---------------------------------------------------------------------------
# phases


class Phase(namedtuple("Phase", "start end faults complete")):
    """Contiguous request range [start, end] holding `faults` misses."""

    __slots__ = ()


def partition_phases(miss_flags, capacity):
    """Split a run into consecutive phases of exactly `capacity` faults.

    A phase closes on the request carrying its capacity-th fault; whatever
    follows the last closed phase becomes a trailing incomplete phase.
    """
    check_capacity(capacity)
    phases = []
    start = 0
    faults = 0
    for i, flag in enumerate(miss_flags):
        if flag:
            faults += 1
            if faults == capacity:
                phases.append(Phase(start, i, faults, True))
                start = i + 1
                faults = 0
    if start < len(miss_flags):
        phases.append(Phase(start, len(miss_flags) - 1, faults, False))
    return phases


# ---------------------------------------------------------------------------
# potentials


class PrefixSizes(namedtuple("PrefixSizes", "t1 t2 b1 b2 l1 l2")):
    """Sizes of the longest MRU prefixes wholly inside the oracle cache.

    t1/t2 are the prefixes of the cache lists, l1/l2 of the concatenated
    cache+ghost lists, and b1/b2 the parts of l1/l2 that reach into the
    ghost lists (nonzero only when the whole cache list is covered).
    """

    __slots__ = ()


def _prefix_len(pages, opt_cache):
    n = 0
    for page in pages:
        if page not in opt_cache:
            break
        n += 1
    return n


def mru_prefix_sizes(arc, opt_cache):
    """Audit an ARC state against the oracle cache (see PrefixSizes)."""
    _, t1, t2, b1, b2 = arc.state()
    l1 = _prefix_len(t1 + b1, opt_cache)
    l2 = _prefix_len(t2 + b2, opt_cache)
    t1p = min(l1, len(t1))
    t2p = min(l2, len(t2))
    return PrefixSizes(t1=t1p, t2=t2p, b1=l1 - t1p, b2=l2 - t2p, l1=l1, l2=l2)


class PotentialBreakdown(namedtuple("PotentialBreakdown", "phi terms audit", defaults=(None,))):
    """A potential value, its named additive terms ((name, value) pairs,
    phi == sum) and its audit."""

    __slots__ = ()


def arc_potential(arc, opt_cache):
    """Weighted audit of how much of ARC's directory the oracle shares.

    phi = p - [(b1' - t) + 2(t1' - t) + 3(b2' - t) + 4(t2' - t)] with
    t = |T1|+|T2| and primed sizes from mru_prefix_sizes. Deeper overlap
    (larger primed sizes) lowers the potential.
    """
    pre = mru_prefix_sizes(arc, opt_cache)
    t = len(arc.t1) + len(arc.t2)
    terms = (
        ("p", arc.p),
        ("b1_prime", -(pre.b1 - t)),
        ("t1_prime", -2 * (pre.t1 - t)),
        ("b2_prime", -3 * (pre.b2 - t)),
        ("t2_prime", -4 * (pre.t2 - t)),
    )
    sizes = (len(arc.t1), len(arc.t2), len(arc.b1), len(arc.b2))
    return PotentialBreakdown(phi=sum(v for _, v in terms), terms=terms, audit=(pre, sizes))


def clock_potential(clock, opt_cache):
    """Sum of sweep ranks of ring pages the oracle does not hold.

    An unmarked page contributes its position (head = 1); a marked page
    contributes capacity + position since the hand must sweep past it
    once more. Pages in the oracle cache contribute 0.
    """
    ring = clock.ring
    phi = 0
    pos = 0
    for page in ring:
        pos += 1
        if page in opt_cache:
            continue
        phi += pos + (clock.capacity if clock.marks[page] else 0)
    return PotentialBreakdown(phi=phi, terms=(("sum_r", phi),))


def car_sweep_ranks(car, opt_cache):
    """Sum of R-values over directory pages outside the oracle cache.

    Ghost pages score their discard distance (LRU = 1). Ring pages score
    twice their sweep rank plus the ghost-list size on their side, plus
    3*capacity when marked.
    """
    n = car.capacity
    b1_len = len(car.b1)
    b2_len = len(car.b2)
    total = 0
    pos = 0
    for page in car.t1:
        pos += 1
        if page in opt_cache:
            continue
        total += 2 * pos + b1_len + (3 * n if car.marks[page] else 0)
    pos = 0
    for page in car.t2:
        pos += 1
        if page in opt_cache:
            continue
        total += 2 * pos + b2_len + (3 * n if car.marks[page] else 0)
    for ghosts in (car.b1, car.b2):
        pos = 0
        for page in ghosts:  # OrderedDict iterates LRU -> MRU
            pos += 1
            if page not in opt_cache:
                total += pos
    return total


def car_potential(car, opt_cache):
    """phi = p + 2(|B1|+|T1|) - 3|U| + 3 * sum of sweep ranks, where U is
    the set of cached pages the oracle also holds."""
    shared = sum(1 for page in car.marks if page in opt_cache)
    sum_r = car_sweep_ranks(car, opt_cache)
    terms = (
        ("p", car.p),
        ("l1_resident", 2 * (len(car.b1) + len(car.t1))),
        ("shared", -3 * shared),
        ("sum_r", 3 * sum_r),
    )
    return PotentialBreakdown(phi=sum(v for _, v in terms), terms=terms, audit=3 * sum_r)


def potential_for(policy):
    """The from-scratch potential of a policy's row, None for a policy
    whose potential is 0 (LRU)."""
    return _spec_for(policy.kind, policy.adaptation).potential


# ---------------------------------------------------------------------------
# incremental potentials
#
# The lockstep pass evaluates the potentials above through trackers that
# follow the two things that move them: the oracle's (admitted, evicted)
# pair on each of its misses, and the policy's AccessOutcome. A policy
# half-step then costs O(pages the request touched) and an oracle
# half-step a walk to the two pages it moved, instead of a rescan of the
# directory. Both half-steps rely on one fact: once the oracle has served
# a request, the requested page is in its cache, so whatever the policy
# does to that page leaves the potential alone. CLOCK and CAR share one
# ring tracker, which replays their moves in the order they make them.


class _RankedList:
    """Rank sums over one of a policy's ordered lists, ranked from its
    oldest end: a clock ring (head = 1) or a history list (LRU = 1).

    The list, the policy's own deque or OrderedDict, gains pages at its
    newest end, loses them at its oldest end and, on a ghost hit, from
    the middle. Over the pages outside the oracle cache it keeps their
    rank sum, their count and how many are marked. Appends are numbered
    so that the pages newer than a removed one can be found; a rank is
    counted by walking from the newest end.
    """

    __slots__ = ("pages", "stamps", "appended", "position_sum", "outside", "outside_marked")

    def __init__(self, pages):
        self.pages = pages
        self.stamps = {}
        self.appended = self.position_sum = self.outside = self.outside_marked = 0

    def append(self, page, outside):
        self.appended += 1
        self.stamps[page] = self.appended
        if outside:
            self.position_sum += len(self.stamps)
            self.outside += 1

    def popleft(self, page, outside, marked):
        del self.stamps[page]
        if outside:
            self.position_sum -= 1
            self.outside -= 1
            self.outside_marked -= marked
        self.position_sum -= self.outside  # every other page moves one closer

    def remove(self, page, opt_cache):
        """page, which the oracle holds, left from the middle: the pages
        appended after it move one closer to the oldest end."""
        stamp = self.stamps.pop(page)
        for other in reversed(self.pages):
            if self.stamps[other] < stamp:
                break
            if other not in opt_cache:
                self.position_sum -= 1

    def cross(self, page, sign, marked):
        """page joins (sign 1) or leaves (sign -1) the pages outside the
        oracle cache."""
        newer = 0
        for other in reversed(self.pages):
            if other == page:
                break
            newer += 1
        self.position_sum += sign * (len(self.pages) - newer)
        self.outside += sign
        self.outside_marked += sign * marked


class _Tracker:
    """A potential tracker: opt_step follows an oracle miss, alg_step the
    policy's request, and value() gives (phi, audit). The audit is
    whatever the row's per-entry checks read besides phi, None where they
    read nothing; the lockstep entry stores it after each half-step
    without looking inside. This base class is LRU's zero potential."""

    def __init__(self, policy):
        self.policy = policy
        self.opt_cache = frozenset()

    def opt_step(self, admitted, evicted, opt_cache):
        self.opt_cache = opt_cache

    def alg_step(self, page, outcome):
        pass

    def value(self):
        return 0, None


class _RingTracker(_Tracker):
    """Follows a clock policy's rings (first to last) and ghost lists (B1,
    B2), a ranked list each, reading marks from policy.marks. alg_step
    replays the moves in the policy's order: sweeps to the last ring, the
    demotion, the history drop, the ghost-hit removal, then the admission
    (to the last ring on a ghost hit). Subclasses set value()."""

    def __init__(self, policy, rings, ghosts):
        super().__init__(policy)
        self.rings = tuple(_RankedList(pages) for pages in rings)
        self.ghosts = dict(zip(("B1", "B2"), map(_RankedList, ghosts)))
        self.lists = self.rings + tuple(self.ghosts.values())

    def _holder(self, page):
        for ranked in self.lists:
            if page in ranked.stamps:
                return ranked

    def opt_step(self, admitted, evicted, opt_cache):
        self.opt_cache = opt_cache
        for page, sign in ((admitted, -1), (evicted, 1)):
            ranked = self._holder(page)
            if ranked is not None:
                ranked.cross(page, sign, self.policy.marks.get(page, False))

    def alg_step(self, page, outcome):
        if outcome.was_hit:
            return
        opt_cache, ghosts, last = self.opt_cache, self.ghosts, self.rings[-1]
        for swept in outcome.swept:
            outside = swept not in opt_cache
            self._holder(swept).popleft(swept, outside, 1)
            last.append(swept, outside)
        victim = outcome.evicted_cache_page
        if victim is not None:
            outside = victim not in opt_cache
            self._holder(victim).popleft(victim, outside, 0)
            if outcome.replace_dest is not None:
                ghosts[outcome.replace_dest].append(victim, outside)
        dropped = outcome.evicted_history_page
        if outcome.history_evicted_from is not None:
            ghosts[outcome.history_evicted_from].popleft(dropped, dropped not in opt_cache, 0)
        if outcome.history_hit is not None:
            ghosts[outcome.history_hit].remove(page, opt_cache)
        (self.rings[0] if outcome.history_hit is None else last).append(page, False)


class _ClockTracker(_RingTracker):
    """clock_potential: the ring's position sum plus capacity per marked
    page, over pages outside the oracle cache."""

    def __init__(self, clock):
        super().__init__(clock, (clock.ring,), ())

    def value(self):
        ring = self.rings[0]
        return ring.position_sum + self.policy.capacity * ring.outside_marked, None


class _CarTracker(_RingTracker):
    """car_potential from the ranked lists of T1, T2, B1 and B2; the audit
    is the term 3 * sum_r."""

    def __init__(self, car):
        super().__init__(car, (car.t1, car.t2), (car.b1, car.b2))

    def value(self):
        car = self.policy
        t1, t2, b1, b2 = self.lists
        b1_len, b2_len = len(car.b1), len(car.b2)
        sum_r = (2 * t1.position_sum + t1.outside * b1_len
                 + 2 * t2.position_sum + t2.outside * b2_len
                 + 3 * car.capacity * (t1.outside_marked + t2.outside_marked)
                 + b1.position_sum + b2.position_sum)
        shared = len(car.marks) - t1.outside - t2.outside
        phi = car.p + 2 * (b1_len + len(car.t1)) - 3 * shared + 3 * sum_r
        return phi, 3 * sum_r


class _ArcTracker(_Tracker):
    """arc_potential, walking each MRU prefix from its MRU end only as far
    as the first page outside the oracle cache. The audit is the
    PrefixSizes and the list sizes (|T1|, |T2|, |B1|, |B2|) the eviction
    audit reads."""

    def value(self):
        arc, opt_cache = self.policy, self.opt_cache
        t1_len, t2_len = len(arc.t1), len(arc.t2)
        l1 = _mru_prefix(arc.t1, arc.b1, opt_cache)
        l2 = _mru_prefix(arc.t2, arc.b2, opt_cache)
        t1p, t2p = min(l1, t1_len), min(l2, t2_len)
        t = t1_len + t2_len
        phi = arc.p - ((l1 - t1p - t) + 2 * (t1p - t) + 3 * (l2 - t2p - t) + 4 * (t2p - t))
        sizes = (t1_len, t2_len, len(arc.b1), len(arc.b2))
        return phi, (PrefixSizes(t1p, t2p, l1 - t1p, l2 - t2p, l1, l2), sizes)


def _mru_prefix(cached, ghosts, opt_cache):
    n = 0
    for pages in (cached, ghosts):
        for page in reversed(pages):
            if page not in opt_cache:
                return n
            n += 1
    return n


def potential_tracker(policy):
    """A fresh tracker for potential_for(policy), for a policy that has
    served no request yet."""
    return _spec_for(policy.kind, policy.adaptation).tracker(policy)


# ---------------------------------------------------------------------------
# lockstep replay


# One request of a lockstep replay. digest is the policy digest after the
# request, where one was rendered; audit_opt is the tracker's audit after
# the OPT half-step and audit_alg after the policy half-step.
LockstepEntry = namedtuple(
    "LockstepEntry",
    "index page c_opt c_alg phi_before phi_after_opt phi_after_alg digest opt_cache "
    "cache_full_before outcome audit_opt audit_alg",
    defaults=(None, None),
)


class LockstepLog(namedtuple("LockstepLog", "policy_kind adaptation capacity entries")):
    """Every entry of one lockstep replay; entries is a fresh list unless
    one is given."""

    __slots__ = ()

    def __new__(cls, policy_kind, adaptation, capacity, entries=None):
        return super().__new__(cls, policy_kind, adaptation, capacity,
                               [] if entries is None else entries)

    @property
    def c_alg_total(self):
        return sum(e.c_alg for e in self.entries)

    @property
    def c_opt_total(self):
        return sum(e.c_opt for e in self.entries)


def make_policy(name, capacity, adaptation=ADAPT_UNIT):
    """Factory for the CLI / harness policy names."""
    return _spec_named(name, adaptation).make(capacity)


def _lockstep_entries(trace, policy, digests=False):
    """Serve a trace with the oracle moving first on every request.

    Yields one LockstepEntry per request as soon as the policy has served
    it, so the live policy is in the state the entry describes. An entry
    records the costs, the potential before the request / after the
    oracle half-step / after the policy half-step, and the tracker's
    audit after each half-step; its digest is the policy digest after the
    request when digests is set, else None. The potentials come from
    potential_tracker and equal those of potential_for.
    """
    tracker = potential_tracker(policy)
    after_alg = tracker.value()
    for i, (page, step) in enumerate(zip(trace, belady_run(trace, policy.capacity).steps)):
        full_before = policy.is_full
        if step.was_hit:
            after_opt = after_alg  # neither the policy nor the oracle cache moved
        else:
            tracker.opt_step(page, step.evicted, step.cache_after)
            after_opt = tracker.value()
        outcome = policy.request(page)
        tracker.alg_step(page, outcome)
        phi_before = after_alg[0]
        after_alg = tracker.value()
        # positional, in field order: thirteen keywords cost about a
        # microsecond more per request. after_opt's audit describes the
        # policy before its step: the oracle half-step leaves it alone.
        yield LockstepEntry(
            i, page, 0 if step.was_hit else 1, 0 if outcome.was_hit else 1,
            phi_before, after_opt[0], after_alg[0], policy.digest() if digests else None,
            step.cache_after, full_before, outcome, after_opt[1], after_alg[1],
        )


def run_lockstep(trace, capacity, policy_name, adaptation=ADAPT_UNIT):
    """Replay a trace with the oracle moving first on every request and
    keep every entry, each with the policy digest after its request: the
    log the log-based checkers below read."""
    check_page_tokens(trace)
    policy = make_policy(policy_name, capacity, adaptation)
    return LockstepLog(policy.kind, policy.adaptation, capacity,
                       list(_lockstep_entries(trace, policy, digests=True)))


# ---------------------------------------------------------------------------
# violation reporting


class Violation(namedtuple("Violation", "index step check lhs rhs page digest opt_cache")):
    """One finding; step is "OPT", "ALG" or "STATE"."""

    __slots__ = ()

    def to_dict(self):
        return dict(self._asdict(), lhs=str(self.lhs), rhs=str(self.rhs), page=str(self.page),
                    opt_cache=list(self.opt_cache))


class ViolationReport(namedtuple("ViolationReport", "violations")):
    """The findings of one check; violations is a fresh list unless one is
    given."""

    __slots__ = ()

    def __new__(cls, violations=None):
        return super().__new__(cls, [] if violations is None else violations)

    @property
    def ok(self):
        return not self.violations

    def counts(self):
        tally = {}
        for v in self.violations:
            tally[v.check] = tally.get(v.check, 0) + 1
        return tally

    def to_dicts(self):
        return [v.to_dict() for v in self.violations]


def _violation(entry, step, check, lhs, rhs, digest):
    return Violation(
        index=entry.index,
        step=step,
        check=check,
        lhs=lhs,
        rhs=rhs,
        page=entry.page,
        digest=digest,
        opt_cache=tuple(sorted(entry.opt_cache, key=canonical_key)),
    )


def _log_report(log, *finds):
    """Run per-entry checks over every entry of a log (see PolicySpec),
    one check after another: the report lists the first check's findings,
    then the next check's."""
    spec = _spec_for(log.policy_kind, log.adaptation)
    report = ViolationReport()
    for find in finds:
        for entry in log.entries:
            for step, check, lhs, rhs in find(entry, spec, log.capacity):
                report.violations.append(_violation(entry, step, check, lhs, rhs, entry.digest))
    return report


# ---------------------------------------------------------------------------
# step and aggregate bound checks


def _step_findings(entry, spec, n):
    """check_step_inequalities on one entry, for c = spec.bound."""
    if spec.step_gated and not entry.cache_full_before:
        return ()
    found = []
    rhs = spec.bound * n * entry.c_opt
    lhs = entry.c_alg + (entry.phi_after_alg - entry.phi_before)
    if lhs > rhs:
        found.append(("ALG", "request_bound", lhs, rhs))
    opt_delta = entry.phi_after_opt - entry.phi_before
    if opt_delta > rhs:
        found.append(("OPT", "opt_step_bound", opt_delta, rhs))
    return found


def check_step_inequalities(log):
    """Per-request bound check over a lockstep log.

    For each audited request: c_alg + (phi after the policy step - phi
    before the request) <= c*N*c_opt, and separately the oracle half-step
    may raise the potential by at most c*N*c_opt. Where the policy's row
    is step_gated (ARC, CAR), requests are audited only once the cache
    has filled (their accounting presumes a full cache); CLOCK is audited
    from the first request. Policies whose row runs no step checks (LRU,
    ratio ARC) raise ValueError.
    """
    if not _spec_for(log.policy_kind, log.adaptation).step_checks:
        raise ValueError("no per-step potential bound is defined for %s with adaptation %r"
                         % (log.policy_kind, log.adaptation))
    return _log_report(log, _step_findings)


def check_aggregate_bound(c_alg_total, c_opt_total, capacity, c):
    """Whole-run bound: c_alg_total <= c*N*c_opt_total + c*N."""
    return c_alg_total <= c * capacity * c_opt_total + c * capacity


# ---------------------------------------------------------------------------
# ARC eviction audit


def _eviction_findings(entry, spec, n):
    """check_arc_eviction_audit on one entry, for capacity n."""
    if not entry.cache_full_before or entry.c_alg == 0:
        return ()
    found = []
    pre, (t1_len, t2_len, b1_len, b2_len) = entry.audit_opt
    post, _ = entry.audit_alg
    out = entry.outcome
    if out.history_hit is None:  # a miss outside the directory
        covered = pre.t1 + pre.t2 + pre.b1 + pre.b2
        if covered >= n:
            found.append(("ALG", "directory_miss_prefix_bound", covered, n - 1))
    if out.replace_dest == "B1" and post.b1 >= 1 and pre.t1 != t1_len:
        found.append(("ALG", "demotion_prefix_consistency", pre.t1, t1_len))
    if out.replace_dest == "B2" and post.b2 >= 1 and pre.t2 != t2_len:
        found.append(("ALG", "demotion_prefix_consistency", pre.t2, t2_len))
    # directory discards: from L1 (LRU(B1), or LRU(T1) dropped outright
    # while B1 is empty; never both on one request), or from B2
    dropped = out.evicted_cache_page is not None and out.replace_dest is None
    if (out.history_evicted_from == "B1" or dropped) and pre.l1 >= t1_len + b1_len:
        found.append(("ALG", "eviction_outside_prefix", pre.l1, t1_len + b1_len - 1))
    if out.history_evicted_from == "B2" and pre.l2 >= t2_len + b2_len:
        found.append(("ALG", "eviction_outside_prefix", pre.l2, t2_len + b2_len - 1))
    if out.replace_dest == "B2" and pre.t1 == t1_len and pre.t2 == t2_len:
        found.append(("ALG", "protected_list_demotion", pre.t2, t2_len - 1))
    if out.replace_dest == "B1" and pre.t2 == t2_len and pre.t1 == t1_len:
        found.append(("ALG", "protected_list_demotion", pre.t1, t1_len - 1))
    return found


def check_arc_eviction_audit(log):
    """Audit the demotion/eviction discipline of an ARC lockstep log.

    Once the cache is full, every miss must respect four rules, each
    checkable from the per-step prefix audit:

    - directory_miss_prefix_bound: on a miss outside the directory, the
      audited prefixes cover fewer than N pages in total.
    - demotion_prefix_consistency: a demoted page lands inside the
      audited ghost prefix only if its source cache list was wholly
      audited before the demotion.
    - eviction_outside_prefix: a page discarded from the directory is
      never part of an audited prefix.
    - protected_list_demotion: while one cache list is wholly audited,
      no wholly-audited page of the other list is demoted.
    """
    if log.policy_kind != "ARC":
        raise ValueError("eviction audit applies to ARC logs, got %r" % (log.policy_kind,))
    return _log_report(log, _eviction_findings)


# ---------------------------------------------------------------------------
# ARC / CAR structural invariants


# a clean structural check's report, shared: its empty tuple of violations
# cannot be appended to
_NO_VIOLATIONS = ViolationReport(())


def _state_report(policy, findings):
    """The STATE report of a structural check. findings holds a (check,
    lhs, rhs) triple per check that fired and a false value per check that
    held; the policy digest is rendered once, and only if one fired."""
    if not any(findings):
        return _NO_VIOLATIONS
    digest = policy.digest()
    return ViolationReport([Violation(-1, "STATE", check, lhs, rhs, None, digest, ())
                            for check, lhs, rhs in filter(None, findings)])


def _directory_rules(policy, was_full):
    """The findings of the directory invariants ARC and CAR share, for
    _state_report: seven on the list sizes, then the range of p. One of
    the seven (a full cache stays full) needs the previous request's
    fullness, passed as was_full; None skips it."""
    n = policy.capacity
    t1, t2, b1, b2 = len(policy.t1), len(policy.t2), len(policy.b1), len(policy.b2)
    return (
        not 0 <= t1 + t2 <= n and ("size_bound_cache", t1 + t2, n),
        not 0 <= t1 + b1 <= n and ("size_bound_l1", t1 + b1, n),
        not 0 <= t2 + b2 <= 2 * n and ("size_bound_l2", t2 + b2, 2 * n),
        not 0 <= t1 + t2 + b1 + b2 <= 2 * n
        and ("size_bound_directory", t1 + t2 + b1 + b2, 2 * n),
        t1 + t2 < n and b1 + b2 != 0 and ("history_empty_until_full", b1 + b2, 0),
        t1 + t2 + b1 + b2 >= n and t1 + t2 != n and ("full_once_directory_large", t1 + t2, n),
        not 0 <= policy.p <= n and ("target_range", policy.p, n),
        was_full and t1 + t2 < n and ("fullness_monotone", t1 + t2, n),
    )


def check_arc_structure(arc, was_full=None):
    """Structural audit of an ARC state: its four lists pairwise disjoint,
    then the directory invariants it shares with CAR."""
    sizes = len(arc.t1) + len(arc.t2) + len(arc.b1) + len(arc.b2)
    distinct = len(set().union(arc.t1, arc.t2, arc.b1, arc.b2))
    return _state_report(arc, (distinct != sizes and ("lists_disjoint", sizes, distinct),
                               *_directory_rules(arc, was_full)))


def check_car_invariants(car, was_full=None):
    """Structural audit of a CAR state: the directory invariants it shares
    with ARC. ARC's disjointness check is left out: its set union of the
    four lists would cost several times the size checks on every request."""
    return _state_report(car, _directory_rules(car, was_full))


# ---------------------------------------------------------------------------
# CAR step report (observational)


def _opt_fine_findings(entry, spec, n):
    """The finer oracle half-step bound on one CAR entry: 18N+3."""
    delta = entry.phi_after_opt - entry.phi_before
    rhs = 18 * n + 3 if entry.c_opt else 0
    return (("OPT", "opt_step_fine_bound", delta, rhs),) if delta > rhs else ()


def _sweep_rank_findings(entry, spec, n):
    """The sweep-rank monotonicity check on one CAR entry (audit 3 * sum_r)."""
    if entry.cache_full_before and entry.c_alg and entry.audit_alg > entry.audit_opt:
        return (("ALG", "sweep_rank_nonincrease", entry.audit_alg, entry.audit_opt),)
    return ()


def car_step_report(log):
    """Full observational CAR report, in one list: CAR's step_checks, i.e.
    the 21N per-step bound; the finer oracle half-step bound, at most
    18N + 3 per oracle fault and 0 otherwise; and, on every miss once the
    cache is full, the sweep-rank sum term not rising across the policy
    half-step. The harness reports these findings rather than asserting
    them."""
    if log.policy_kind != "CAR":
        raise ValueError("the CAR step report applies to CAR logs, got %r" % (log.policy_kind,))
    return _log_report(log, *_spec_for(log.policy_kind, log.adaptation).step_checks)


# ---------------------------------------------------------------------------
# the policy table


class PolicySpec(namedtuple(
        "PolicySpec",
        "name adaptation cls bound potential tracker structural step_checks lemma_checks "
        "step_gated step_asserted")):
    """One policy variant and every fact its checks need.

    name and adaptation select the row; a row whose adaptation is None
    serves every requested adaptation. bound is the c of the whole-run
    bound c*N*OPT + c*N and of the per-step bound, None where neither is
    checked. potential is the from-scratch potential, None where phi is
    0, and tracker the class that follows it request by request, with the
    audit the checks read. structural is the checker run on the live
    policy after each request. step_checks run under the potential check
    and lemma_checks under lemmas, in this order; each is find(entry,
    spec, capacity) -> (step, check, lhs, rhs) findings, reading the
    entry's audit_opt and audit_alg where they need more than phi.
    step_gated audits a request's step bound only once the cache has
    filled; step_asserted makes step findings hard failures rather than
    reports.
    """

    __slots__ = ()

    def make(self, capacity):
        if self.adaptation is None:
            return self.cls(capacity)
        return self.cls(capacity, adaptation=self.adaptation)


# Adding a policy: its class (core.Policy) and one row here; the CLI,
# compare and every check read this table.
POLICY_TABLE = (
    PolicySpec("lru", None, LruCache, 1, None, _Tracker, None, (), (), False, True),
    PolicySpec("clock", None, ClockCache, 2, clock_potential, _ClockTracker, None,
               (_step_findings,), (), False, True),
    PolicySpec("arc", ADAPT_UNIT, ArcCache, 4, arc_potential, _ArcTracker, check_arc_structure,
               (_step_findings,), (_eviction_findings,), True, True),
    PolicySpec("arc", ADAPT_RATIO, ArcCache, None, arc_potential, _ArcTracker,
               check_arc_structure, (), (), True, True),
    PolicySpec("car", None, CarCache, 21, car_potential, _CarTracker, check_car_invariants,
               (_step_findings, _opt_fine_findings, _sweep_rank_findings), (), True, False),
)


def _spec_named(name, adaptation):
    """The row of a CLI policy name (any case) and adaptation."""
    name = name.lower()
    names = list(dict.fromkeys(spec.name for spec in POLICY_TABLE))
    if name not in names:
        raise ValueError("unknown policy %r (expected %s or %s)"
                         % (name, ", ".join(names[:-1]), names[-1]))
    for spec in POLICY_TABLE:
        if spec.name == name and spec.adaptation in (None, adaptation):
            return spec
    raise ValueError("unknown adaptation %r" % (adaptation,))


def _spec_for(kind, adaptation):
    """The row of a policy class's kind and an instance's adaptation."""
    for spec in POLICY_TABLE:
        if spec.cls.kind == kind and spec.adaptation == adaptation:
            return spec
    raise ValueError("no policy row for kind %r with adaptation %r" % (kind, adaptation))


# ---------------------------------------------------------------------------
# the streaming verification pass

ALL_CHECKS = ("invariants", "potential", "lemmas")


class Verification(namedtuple(
        "Verification",
        "spec miss_flags opt_misses final_potential step step_asserted eviction_audit "
        "aggregate_holds state")):
    """What one run found, for the policy row spec. A report is None, and
    so is aggregate_holds, when its check was not requested or does not
    apply to the policy; opt_misses is None when no check needed the
    oracle. step_asserted is False for CAR's report-only step findings."""

    __slots__ = ()

    @property
    def hard_failure(self):
        return bool(
            (self.step is not None and self.step_asserted and not self.step.ok)
            or (self.eviction_audit is not None and not self.eviction_audit.ok)
            or self.aggregate_holds is False
            or (self.state is not None and not self.state.ok)
        )

    def violation_counts(self):
        """Violations per check name; structural ones are summed under
        state_invariants and a failed aggregate bound counts once."""
        tally = {}
        for report in filter(None, (self.step, self.eviction_audit)):
            for check, count in report.counts().items():
                tally[check] = tally.get(check, 0) + count
        if self.aggregate_holds is False:
            tally["aggregate_bound"] = 1
        if self.state is not None and not self.state.ok:
            tally["state_invariants"] = len(self.state.violations)
        return tally


def _audit_state(structural, policy, index, was_full, state):
    """Add the structural checker's findings on the live policy after
    request index to state; returns the fullness flag for the next one."""
    for v in structural(policy, was_full).violations:
        state.violations.append(v._replace(index=index))
    return was_full or policy.is_full


def run_checks(trace, capacity, policy_name, adaptation=ADAPT_UNIT, checks=ALL_CHECKS,
               fail_on_car_step=False):
    """Run a policy over a trace with the requested checks, in one
    streaming pass; with no checks it is the plain replay.

    checks is a subset of ALL_CHECKS (another name raises ValueError),
    and the policy's POLICY_TABLE row says what each runs. potential (the
    row's step_checks, asserted for CAR only under fail_on_car_step, and
    the aggregate bound) and lemmas (its lemma_checks: the ARC eviction
    audit) replay in lockstep with the oracle; without them no oracle or
    potential is computed. invariants runs the row's structural checker
    (ARC, CAR) on the live policy after every request. Each per-step
    check reads one entry at a time and no entry is kept; the policy
    digest is rendered only after a request on which a check fires, so it
    shows the state that request left. A checked run raises ValueError on
    pages whose digest would be ambiguous; an unchecked one accepts any
    hashable page.
    """
    checks = set(checks)
    unknown = checks.difference(ALL_CHECKS)
    if unknown:
        raise ValueError("unknown checks: %s" % ", ".join(sorted(map(str, unknown))))
    if checks:
        check_page_tokens(trace)
    spec = _spec_named(policy_name, adaptation)
    policy = spec.make(capacity)
    # (report, per-entry check, findings); a report joins the findings of
    # its checks in this order, as the log-based checkers do
    plan = []
    if "potential" in checks:
        plan += [("step", find, []) for find in spec.step_checks]
    if "lemmas" in checks:
        plan += [("eviction_audit", find, []) for find in spec.lemma_checks]
    structural = spec.structural if "invariants" in checks else None
    state = ViolationReport() if structural is not None else None
    lockstep = "potential" in checks or "lemmas" in checks

    miss_flags = bytearray()
    opt_misses = 0
    entry = None
    was_full = False
    if lockstep:
        for entry in _lockstep_entries(trace, policy):
            miss_flags.append(entry.c_alg)
            opt_misses += entry.c_opt
            digest = None
            for _, find, found in plan:
                for step, check, lhs, rhs in find(entry, spec, capacity):
                    if digest is None:
                        digest = policy.digest()
                    found.append(_violation(entry, step, check, lhs, rhs, digest))
            if structural is not None:
                was_full = _audit_state(structural, policy, entry.index, was_full, state)
    else:
        request, append = policy.request, miss_flags.append
        for page in trace:
            append(not request(page).was_hit)
            if structural is not None:
                was_full = _audit_state(structural, policy, len(miss_flags) - 1, was_full, state)

    reports = {}
    for name, _, found in plan:
        reports.setdefault(name, ViolationReport()).violations.extend(found)
    return Verification(
        spec=spec,
        miss_flags=miss_flags,
        opt_misses=opt_misses if lockstep else None,
        final_potential=entry.phi_after_alg if entry is not None else 0,
        step=reports.get("step"),
        step_asserted=spec.step_asserted or fail_on_car_step,
        eviction_audit=reports.get("eviction_audit"),
        aggregate_holds=(
            check_aggregate_bound(sum(miss_flags), opt_misses, capacity, spec.bound)
            if "potential" in checks and spec.bound is not None else None
        ),
        state=state,
    )
