"""Verification layer: potential functions, lockstep replay against the
offline optimum, per-step bound/invariant checkers, and run_checks, the
one streaming pass that drives them all.

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

from dataclasses import dataclass, field, replace

from .arc import ADAPT_UNIT, ArcCache
from .car import CarCache
from .classic import ClockCache, LruCache
from .core import canonical_key, check_page_tokens
from .opt import belady_run

DEFAULT_BOUND_MULTIPLIER = {"LRU": 1, "CLOCK": 2, "ARC": 4, "CAR": 21}


# ---------------------------------------------------------------------------
# phases


@dataclass(frozen=True)
class Phase:
    """Contiguous request range [start, end] holding `faults` misses."""

    start: int
    end: int
    faults: int
    complete: bool


def partition_phases(miss_flags, capacity):
    """Split a run into consecutive phases of exactly `capacity` faults.

    A phase closes on the request carrying its capacity-th fault; whatever
    follows the last closed phase becomes a trailing incomplete phase.
    """
    if capacity < 1:
        raise ValueError("capacity must be at least 1, got %r" % (capacity,))
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


@dataclass(frozen=True)
class PrefixSizes:
    """Sizes of the longest MRU prefixes wholly inside the oracle cache.

    t1/t2 are the prefixes of the cache lists, l1/l2 of the concatenated
    cache+ghost lists, and b1/b2 the parts of l1/l2 that reach into the
    ghost lists (nonzero only when the whole cache list is covered).
    """

    t1: int
    t2: int
    b1: int
    b2: int
    l1: int
    l2: int


def _prefix_len(pages, opt_cache):
    n = 0
    for page in pages:
        if page not in opt_cache:
            break
        n += 1
    return n


def mru_prefix_sizes(arc, opt_cache):
    """Audit an ARC state against the oracle cache (see PrefixSizes)."""
    t1_len = len(arc.t1)
    t2_len = len(arc.t2)
    l1 = _prefix_len(arc.t1_list() + arc.b1_list(), opt_cache)
    l2 = _prefix_len(arc.t2_list() + arc.b2_list(), opt_cache)
    t1p = min(l1, t1_len)
    t2p = min(l2, t2_len)
    return PrefixSizes(t1=t1p, t2=t2p, b1=l1 - t1p, b2=l2 - t2p, l1=l1, l2=l2)


@dataclass(frozen=True)
class PotentialBreakdown:
    """A potential value with its named additive terms (phi == sum)."""

    phi: int
    terms: tuple  # (name, value) pairs
    prefixes: PrefixSizes | None = None

    def term(self, name):
        for key, value in self.terms:
            if key == name:
                return value
        raise KeyError(name)


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
    return PotentialBreakdown(phi=sum(v for _, v in terms), terms=terms, prefixes=pre)


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
        phi += pos + (clock.capacity if clock.marked[page] else 0)
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
        total += 2 * pos + b1_len + (3 * n if car.ref[page] else 0)
    pos = 0
    for page in car.t2:
        pos += 1
        if page in opt_cache:
            continue
        total += 2 * pos + b2_len + (3 * n if car.ref[page] else 0)
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
    shared = sum(1 for page in car.ref if page in opt_cache)
    sum_r = car_sweep_ranks(car, opt_cache)
    terms = (
        ("p", car.p),
        ("l1_resident", 2 * (len(car.b1) + len(car.t1))),
        ("shared", -3 * shared),
        ("sum_r", 3 * sum_r),
    )
    return PotentialBreakdown(phi=sum(v for _, v in terms), terms=terms)


def zero_potential(policy, opt_cache):
    """Placeholder for policies without a defined potential (LRU); keeps
    lockstep logs uniform for cost accounting."""
    return PotentialBreakdown(phi=0, terms=(("zero", 0),))


def potential_for(policy):
    if isinstance(policy, ArcCache):
        return arc_potential
    if isinstance(policy, ClockCache):
        return clock_potential
    if isinstance(policy, CarCache):
        return car_potential
    if isinstance(policy, LruCache):
        return zero_potential
    raise TypeError("no potential defined for %r" % (type(policy).__name__,))


# ---------------------------------------------------------------------------
# lockstep replay


@dataclass
class LockstepEntry:
    index: int
    page: object
    c_opt: int
    c_alg: int
    phi_before: int
    phi_after_opt: int
    phi_after_alg: int
    digest: str | None  # the policy digest after the request, where one was rendered
    opt_cache: frozenset
    cache_full_before: bool
    outcome: object
    prefixes_start: PrefixSizes | None = None
    prefixes_end: PrefixSizes | None = None
    sizes_start: tuple | None = None  # (|T1|, |T2|, |B1|, |B2|) before the policy step
    car_sum_r_opt: int | None = None  # CAR sweep-rank sum after the OPT half-step
    car_sum_r_alg: int | None = None  # ... and after the policy half-step


@dataclass
class LockstepLog:
    policy_kind: str
    adaptation: str | None
    capacity: int
    entries: list = field(default_factory=list)

    @property
    def c_alg_total(self):
        return sum(e.c_alg for e in self.entries)

    @property
    def c_opt_total(self):
        return sum(e.c_opt for e in self.entries)


def make_policy(name, capacity, adaptation=ADAPT_UNIT):
    """Factory for the CLI / harness policy names."""
    name = name.lower()
    if name == "lru":
        return LruCache(capacity)
    if name == "clock":
        return ClockCache(capacity)
    if name == "arc":
        return ArcCache(capacity, adaptation=adaptation)
    if name == "car":
        return CarCache(capacity)
    raise ValueError("unknown policy %r (expected lru, clock, arc or car)" % (name,))


def _lockstep_entries(trace, policy):
    """Serve a trace with the oracle moving first on every request.

    Yields one LockstepEntry per request as soon as the policy has served
    it, so the live policy is in the state the entry describes. An entry
    records the costs, the potential before the request / after the
    oracle half-step / after the policy half-step, and the per-step audit
    data the checkers need; its digest is left None.
    """
    potential = potential_for(policy)
    is_arc = isinstance(policy, ArcCache)
    is_car = isinstance(policy, CarCache)
    phi_before = potential(policy, frozenset()).phi
    for i, (page, step) in enumerate(zip(trace, belady_run(trace, policy.capacity).steps)):
        full_before = policy.is_full
        after_opt = potential(policy, step.cache_after)
        sizes_start = None
        if is_arc:
            sizes_start = (len(policy.t1), len(policy.t2), len(policy.b1), len(policy.b2))
        outcome = policy.request(page)
        after_alg = potential(policy, step.cache_after)
        yield LockstepEntry(
            index=i,
            page=page,
            c_opt=0 if step.was_hit else 1,
            c_alg=0 if outcome.was_hit else 1,
            phi_before=phi_before,
            phi_after_opt=after_opt.phi,
            phi_after_alg=after_alg.phi,
            digest=None,
            opt_cache=step.cache_after,
            cache_full_before=full_before,
            outcome=outcome,
            prefixes_start=after_opt.prefixes,
            prefixes_end=after_alg.prefixes,
            sizes_start=sizes_start,
            car_sum_r_opt=after_opt.term("sum_r") if is_car else None,
            car_sum_r_alg=after_alg.term("sum_r") if is_car else None,
        )
        phi_before = after_alg.phi


def _plain_entries(trace, policy):
    """Serve a trace without the oracle, yielding entries as
    _lockstep_entries does; their oracle and potential fields are None."""
    for i, page in enumerate(trace):
        full_before = policy.is_full
        outcome = policy.request(page)
        yield LockstepEntry(
            index=i, page=page, c_opt=None, c_alg=0 if outcome.was_hit else 1,
            phi_before=None, phi_after_opt=None, phi_after_alg=None, digest=None,
            opt_cache=None, cache_full_before=full_before, outcome=outcome,
        )


def run_lockstep(trace, capacity, policy_name, adaptation=ADAPT_UNIT):
    """Replay a trace with the oracle moving first on every request and
    keep every entry, each with the policy digest after its request: the
    log the log-based checkers below read."""
    check_page_tokens(trace)
    policy = make_policy(policy_name, capacity, adaptation)
    log = LockstepLog(
        policy_kind=policy.kind,
        adaptation=policy.adaptation if isinstance(policy, ArcCache) else None,
        capacity=capacity,
    )
    for entry in _lockstep_entries(trace, policy):
        entry.digest = policy.digest()
        log.entries.append(entry)
    return log


# ---------------------------------------------------------------------------
# violation reporting


@dataclass(frozen=True)
class Violation:
    index: int
    step: str  # "OPT" or "ALG"
    check: str
    lhs: object
    rhs: object
    page: object
    digest: str
    opt_cache: tuple

    def to_dict(self):
        return {
            "index": self.index,
            "step": self.step,
            "check": self.check,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "page": str(self.page),
            "digest": self.digest,
            "opt_cache": list(self.opt_cache),
        }


@dataclass
class ViolationReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations

    def counts(self):
        tally = {}
        for v in self.violations:
            tally[v.check] = tally.get(v.check, 0) + 1
        return tally

    def extend(self, other):
        self.violations.extend(other.violations)
        return self

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


def _log_report(log, find, *args):
    """Run a per-entry check, find(entry, *args) -> (step, check, lhs,
    rhs) findings, over every entry of a log."""
    report = ViolationReport()
    for entry in log.entries:
        for step, check, lhs, rhs in find(entry, *args):
            report.violations.append(_violation(entry, step, check, lhs, rhs, entry.digest))
    return report


# ---------------------------------------------------------------------------
# step and aggregate bound checks


def _step_findings(entry, bound, gate_on_full):
    """check_step_inequalities on one entry, for bound = c*N."""
    if gate_on_full and not entry.cache_full_before:
        return ()
    found = []
    rhs = bound * entry.c_opt
    lhs = entry.c_alg + (entry.phi_after_alg - entry.phi_before)
    if lhs > rhs:
        found.append(("ALG", "request_bound", lhs, rhs))
    opt_delta = entry.phi_after_opt - entry.phi_before
    if opt_delta > rhs:
        found.append(("OPT", "opt_step_bound", opt_delta, rhs))
    return found


def check_step_inequalities(log, c=None):
    """Per-request bound check over a lockstep log.

    For each audited request: c_alg + (phi after the policy step - phi
    before the request) <= c*N*c_opt, and separately the oracle half-step
    may raise the potential by at most c*N*c_opt. ARC and CAR requests
    are audited only once the policy's cache has filled (their accounting
    presumes a full cache); CLOCK is audited from the first request.
    """
    if log.policy_kind == "LRU":
        raise ValueError("no per-step potential bound is defined for LRU")
    if log.policy_kind == "ARC" and log.adaptation != ADAPT_UNIT:
        raise ValueError("per-step checks cover only the unit-step ARC adaptation")
    if c is None:
        c = DEFAULT_BOUND_MULTIPLIER[log.policy_kind]
    gate_on_full = log.policy_kind in ("ARC", "CAR")
    return _log_report(log, _step_findings, c * log.capacity, gate_on_full)


def check_aggregate_bound(c_alg_total, c_opt_total, capacity, c):
    """Whole-run bound: c_alg_total <= c*N*c_opt_total + c*N."""
    return c_alg_total <= c * capacity * c_opt_total + c * capacity


# ---------------------------------------------------------------------------
# ARC eviction audit


def _eviction_findings(entry, n):
    """check_arc_eviction_audit on one entry, for capacity n."""
    if not entry.cache_full_before or entry.c_alg == 0:
        return ()
    found = []
    pre = entry.prefixes_start
    post = entry.prefixes_end
    out = entry.outcome
    t1_len, t2_len, b1_len, b2_len = entry.sizes_start
    if out.history_hit is None:  # a miss outside the directory
        covered = pre.t1 + pre.t2 + pre.b1 + pre.b2
        if covered >= n:
            found.append(("ALG", "directory_miss_prefix_bound", covered, n - 1))
    if out.replace_dest == "B1" and post.b1 >= 1 and pre.t1 != t1_len:
        found.append(("ALG", "demotion_prefix_consistency", pre.t1, t1_len))
    if out.replace_dest == "B2" and post.b2 >= 1 and pre.t2 != t2_len:
        found.append(("ALG", "demotion_prefix_consistency", pre.t2, t2_len))
    # directory discards: from B1, from B2, or the raw LRU(T1) drop
    if out.history_evicted_from == "B1" and pre.l1 >= t1_len + b1_len:
        found.append(("ALG", "eviction_outside_prefix", pre.l1, t1_len + b1_len - 1))
    if out.history_evicted_from == "B2" and pre.l2 >= t2_len + b2_len:
        found.append(("ALG", "eviction_outside_prefix", pre.l2, t2_len + b2_len - 1))
    if out.evicted_cache_page is not None and out.replace_dest is None:
        # dropped LRU(T1) with B1 empty: the page leaves the directory
        if pre.l1 >= t1_len + b1_len:
            found.append(("ALG", "eviction_outside_prefix", pre.l1, t1_len + b1_len - 1))
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
    return _log_report(log, _eviction_findings, log.capacity)


# ---------------------------------------------------------------------------
# ARC / CAR structural invariants


def _state_violations(policy):
    """An empty report and a function that adds a STATE violation to it,
    carrying the policy digest (rendered only when a check fires)."""
    report = ViolationReport()

    def bad(check, lhs, rhs):
        report.violations.append(Violation(index=-1, step="STATE", check=check, lhs=lhs,
                                           rhs=rhs, page=None, digest=policy.digest(),
                                           opt_cache=()))

    return report, bad


def check_arc_structure(arc, was_full=None):
    """Structural audit of an ARC state: disjoint lists, size caps, and
    (given the previous fullness flag) monotone fullness."""
    report, bad = _state_violations(arc)
    n = arc.capacity
    t1, t2, b1, b2 = len(arc.t1), len(arc.t2), len(arc.b1), len(arc.b2)
    union = set(arc.t1) | set(arc.t2) | set(arc.b1) | set(arc.b2)
    if len(union) != t1 + t2 + b1 + b2:
        bad("lists_disjoint", t1 + t2 + b1 + b2, len(union))
    if not 0 <= t1 + t2 <= n:
        bad("size_bound_cache", t1 + t2, n)
    if not 0 <= t1 + b1 <= n:
        bad("size_bound_l1", t1 + b1, n)
    if not 0 <= t1 + t2 + b1 + b2 <= 2 * n:
        bad("size_bound_directory", t1 + t2 + b1 + b2, 2 * n)
    if not 0 <= arc.p <= n:
        bad("target_range", arc.p, n)
    if was_full and t1 + t2 < n:
        bad("fullness_monotone", t1 + t2, n)
    return report


def check_car_invariants(car, was_full=None):
    """The seven structural invariants of a CAR state.

    Six are direct size conditions on one state; the seventh (a full
    cache stays full) needs the previous request's fullness, passed as
    was_full. Pass None to skip it.
    """
    report, bad = _state_violations(car)
    n = car.capacity
    t1, t2, b1, b2 = len(car.t1), len(car.t2), len(car.b1), len(car.b2)
    if not 0 <= t1 + t2 <= n:
        bad("size_bound_cache", t1 + t2, n)
    if not 0 <= t1 + b1 <= n:
        bad("size_bound_l1", t1 + b1, n)
    if not 0 <= t2 + b2 <= 2 * n:
        bad("size_bound_l2", t2 + b2, 2 * n)
    if not 0 <= t1 + t2 + b1 + b2 <= 2 * n:
        bad("size_bound_directory", t1 + t2 + b1 + b2, 2 * n)
    if t1 + t2 < n and b1 + b2 != 0:
        bad("history_empty_until_full", b1 + b2, 0)
    if t1 + t2 + b1 + b2 >= n and t1 + t2 != n:
        bad("full_once_directory_large", t1 + t2, n)
    if was_full and t1 + t2 < n:
        bad("fullness_monotone", t1 + t2, n)
    return report


# ---------------------------------------------------------------------------
# CAR step report (observational)


def _opt_fine_findings(entry, cap):
    """The finer oracle half-step bound on one CAR entry, for cap = 18N+3."""
    delta = entry.phi_after_opt - entry.phi_before
    rhs = cap if entry.c_opt else 0
    return (("OPT", "opt_step_fine_bound", delta, rhs),) if delta > rhs else ()


def _sweep_rank_findings(entry):
    """The sweep-rank monotonicity check on one CAR entry."""
    if entry.cache_full_before and entry.c_alg and entry.car_sum_r_alg > entry.car_sum_r_opt:
        return (("ALG", "sweep_rank_nonincrease", entry.car_sum_r_alg, entry.car_sum_r_opt),)
    return ()


def car_step_report(log, c=21):
    """Full observational CAR report, in one list: the c*N per-step
    bound; the finer oracle half-step bound, at most 18N + 3 per oracle
    fault and 0 otherwise; and, on every miss once the cache is full,
    the sweep-rank sum term not rising across the policy half-step. The
    harness reports these findings rather than asserting them."""
    if log.policy_kind != "CAR":
        raise ValueError("the CAR step report applies to CAR logs, got %r" % (log.policy_kind,))
    report = check_step_inequalities(log, c=c)
    report.extend(_log_report(log, _opt_fine_findings, 18 * log.capacity + 3))
    report.extend(_log_report(log, _sweep_rank_findings))
    return report


# ---------------------------------------------------------------------------
# the streaming verification pass

ALL_CHECKS = ("invariants", "potential", "lemmas")
STRUCTURAL_CHECKERS = {"ARC": check_arc_structure, "CAR": check_car_invariants}


@dataclass
class Verification:
    """What one checked run found. A report is None, and so is
    aggregate_holds, when its check was not requested or does not apply
    to the policy; opt_misses is None when no check needed the oracle."""

    policy_kind: str
    adaptation: str | None
    miss_flags: bytearray
    opt_misses: int | None
    final_potential: int
    step: ViolationReport | None
    step_asserted: bool  # False for CAR's report-only step findings
    eviction_audit: ViolationReport | None
    aggregate_holds: bool | None
    state: ViolationReport | None

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


def run_checks(trace, capacity, policy_name, adaptation=ADAPT_UNIT, checks=ALL_CHECKS,
               fail_on_car_step=False):
    """Run the requested checks over a trace in one streaming pass.

    checks is a subset of ALL_CHECKS. potential (the per-step bound, with
    CAR's finer checks, asserted for CAR only under fail_on_car_step, and
    the aggregate bound) and lemmas (the ARC eviction audit) replay in
    lockstep with the oracle; without them no oracle or potential is
    computed. invariants runs the ARC or CAR structural checker on the
    live policy after every request. Each per-step check reads one entry
    at a time and no entry is kept; the policy digest is rendered only
    after a request on which a check fires, so it shows the state that
    request left. Pages whose digest would be ambiguous raise ValueError.
    """
    check_page_tokens(trace)
    policy = make_policy(policy_name, capacity, adaptation)
    kind = policy.kind
    adaptation = policy.adaptation if kind == "ARC" else None
    ratio_arc = adaptation not in (None, ADAPT_UNIT)
    checkable = kind != "LRU" and not ratio_arc
    # (report, per-entry check, its arguments, findings); a report joins
    # the findings of its checks in this order, as the log-based checkers do
    plan = []
    if "potential" in checks and checkable:
        bound = DEFAULT_BOUND_MULTIPLIER[kind] * capacity
        plan.append(("step", _step_findings, (bound, kind in ("ARC", "CAR")), []))
        if kind == "CAR":
            plan.append(("step", _opt_fine_findings, (18 * capacity + 3,), []))
            plan.append(("step", _sweep_rank_findings, (), []))
    if "lemmas" in checks and kind == "ARC" and checkable:
        plan.append(("eviction_audit", _eviction_findings, (capacity,), []))
    structural = STRUCTURAL_CHECKERS.get(kind) if "invariants" in checks else None
    state = ViolationReport() if structural is not None else None
    lockstep = "potential" in checks or "lemmas" in checks

    miss_flags = bytearray()
    opt_misses = 0
    entry = None
    was_full = False
    for entry in (_lockstep_entries if lockstep else _plain_entries)(trace, policy):
        miss_flags.append(entry.c_alg)
        if lockstep:
            opt_misses += entry.c_opt
        digest = None
        for _, find, args, found in plan:
            for step, check, lhs, rhs in find(entry, *args):
                if digest is None:
                    digest = policy.digest()
                found.append(_violation(entry, step, check, lhs, rhs, digest))
        if structural is not None:
            for v in structural(policy, was_full).violations:
                state.violations.append(replace(v, index=entry.index))
            was_full = was_full or policy.is_full

    reports = {}
    for name, _, _, found in plan:
        reports.setdefault(name, ViolationReport()).violations.extend(found)
    return Verification(
        policy_kind=kind,
        adaptation=adaptation,
        miss_flags=miss_flags,
        opt_misses=opt_misses if lockstep else None,
        final_potential=entry.phi_after_alg if lockstep and entry is not None else 0,
        step=reports.get("step"),
        step_asserted=kind != "CAR" or fail_on_car_step,
        eviction_audit=reports.get("eviction_audit"),
        aggregate_holds=(
            check_aggregate_bound(sum(miss_flags), opt_misses, capacity,
                                  DEFAULT_BOUND_MULTIPLIER[kind])
            if "potential" in checks and not ratio_arc else None
        ),
        state=state,
    )
