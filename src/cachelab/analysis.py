"""Verification layer: potential functions, lockstep replay against the
offline optimum, and per-step bound/invariant checkers.

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

from dataclasses import dataclass, field

from .arc import ADAPT_UNIT, ArcCache
from .car import CarCache
from .classic import ClockCache, LruCache
from .core import canonical_key
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
    digest: str
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

    def miss_flags(self):
        return [bool(e.c_alg) for e in self.entries]


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


def run_lockstep(trace, capacity, policy_name, adaptation=ADAPT_UNIT):
    """Replay a trace with the oracle moving first on every request.

    Records costs, the potential before the request / after the oracle
    half-step / after the policy half-step, the policy digest, and the
    per-step audit data the checkers need.
    """
    policy = make_policy(policy_name, capacity, adaptation)
    potential = potential_for(policy)
    is_arc = isinstance(policy, ArcCache)
    is_car = isinstance(policy, CarCache)
    schedule = belady_run(trace, capacity)
    log = LockstepLog(
        policy_kind=policy.kind,
        adaptation=policy.adaptation if is_arc else None,
        capacity=capacity,
    )
    opt_cache = frozenset()
    breakdown_before = potential(policy, opt_cache)
    for i, (page, step) in enumerate(zip(trace, schedule.steps)):
        full_before = policy.is_full
        after_opt = potential(policy, step.cache_after)
        sizes_start = None
        if is_arc:
            sizes_start = (len(policy.t1), len(policy.t2), len(policy.b1), len(policy.b2))
        outcome = policy.request(page)
        after_alg = potential(policy, step.cache_after)
        log.entries.append(
            LockstepEntry(
                index=i,
                page=page,
                c_opt=0 if step.was_hit else 1,
                c_alg=0 if outcome.was_hit else 1,
                phi_before=breakdown_before.phi,
                phi_after_opt=after_opt.phi,
                phi_after_alg=after_alg.phi,
                digest=policy.digest(),
                opt_cache=step.cache_after,
                cache_full_before=full_before,
                outcome=outcome,
                prefixes_start=after_opt.prefixes,
                prefixes_end=after_alg.prefixes,
                sizes_start=sizes_start,
                car_sum_r_opt=after_opt.term("sum_r") if is_car else None,
                car_sum_r_alg=after_alg.term("sum_r") if is_car else None,
            )
        )
        opt_cache = step.cache_after
        breakdown_before = after_alg
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


def _violation(entry, step, check, lhs, rhs):
    return Violation(
        index=entry.index,
        step=step,
        check=check,
        lhs=lhs,
        rhs=rhs,
        page=entry.page,
        digest=entry.digest,
        opt_cache=tuple(sorted(entry.opt_cache, key=canonical_key)),
    )


# ---------------------------------------------------------------------------
# step and aggregate bound checks


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
    bound = c * log.capacity
    report = ViolationReport()
    for entry in log.entries:
        if gate_on_full and not entry.cache_full_before:
            continue
        rhs = bound * entry.c_opt
        lhs = entry.c_alg + (entry.phi_after_alg - entry.phi_before)
        if lhs > rhs:
            report.violations.append(_violation(entry, "ALG", "request_bound", lhs, rhs))
        opt_delta = entry.phi_after_opt - entry.phi_before
        if opt_delta > rhs:
            report.violations.append(_violation(entry, "OPT", "opt_step_bound", opt_delta, rhs))
    return report


def check_aggregate_bound(c_alg_total, c_opt_total, capacity, c):
    """Whole-run bound: c_alg_total <= c*N*c_opt_total + c*N."""
    return c_alg_total <= c * capacity * c_opt_total + c * capacity


# ---------------------------------------------------------------------------
# ARC eviction audit


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
    n = log.capacity
    report = ViolationReport()
    for entry in log.entries:
        if not entry.cache_full_before or entry.c_alg == 0:
            continue
        pre = entry.prefixes_start
        post = entry.prefixes_end
        out = entry.outcome
        t1_len, t2_len, b1_len, b2_len = entry.sizes_start
        directory_miss = out.history_hit is None
        if directory_miss:
            covered = pre.t1 + pre.t2 + pre.b1 + pre.b2
            if covered >= n:
                report.violations.append(
                    _violation(entry, "ALG", "directory_miss_prefix_bound", covered, n - 1)
                )
        if out.replace_dest == "B1" and post.b1 >= 1 and pre.t1 != t1_len:
            report.violations.append(
                _violation(entry, "ALG", "demotion_prefix_consistency", pre.t1, t1_len)
            )
        if out.replace_dest == "B2" and post.b2 >= 1 and pre.t2 != t2_len:
            report.violations.append(
                _violation(entry, "ALG", "demotion_prefix_consistency", pre.t2, t2_len)
            )
        # directory discards: from B1, from B2, or the raw LRU(T1) drop
        if out.history_evicted_from == "B1" and pre.l1 >= t1_len + b1_len:
            report.violations.append(
                _violation(entry, "ALG", "eviction_outside_prefix", pre.l1, t1_len + b1_len - 1)
            )
        if out.history_evicted_from == "B2" and pre.l2 >= t2_len + b2_len:
            report.violations.append(
                _violation(entry, "ALG", "eviction_outside_prefix", pre.l2, t2_len + b2_len - 1)
            )
        if out.evicted_cache_page is not None and out.replace_dest is None:
            # dropped LRU(T1) with B1 empty: the page leaves the directory
            if pre.l1 >= t1_len + b1_len:
                report.violations.append(
                    _violation(entry, "ALG", "eviction_outside_prefix", pre.l1, t1_len + b1_len - 1)
                )
        if out.replace_dest == "B2" and pre.t1 == t1_len and pre.t2 == t2_len:
            report.violations.append(
                _violation(entry, "ALG", "protected_list_demotion", pre.t2, t2_len - 1)
            )
        if out.replace_dest == "B1" and pre.t2 == t2_len and pre.t1 == t1_len:
            report.violations.append(
                _violation(entry, "ALG", "protected_list_demotion", pre.t1, t1_len - 1)
            )
    return report


# ---------------------------------------------------------------------------
# ARC / CAR structural invariants


def _arc_sizes_violation(check, lhs, rhs, arc):
    return Violation(
        index=-1,
        step="STATE",
        check=check,
        lhs=lhs,
        rhs=rhs,
        page=None,
        digest=arc.digest(),
        opt_cache=(),
    )


def check_arc_structure(arc, was_full=None):
    """Structural audit of an ARC state: disjoint lists, size caps, and
    (given the previous fullness flag) monotone fullness."""
    report = ViolationReport()
    t1, t2, b1, b2 = len(arc.t1), len(arc.t2), len(arc.b1), len(arc.b2)
    union = set(arc.t1) | set(arc.t2) | set(arc.b1) | set(arc.b2)
    if len(union) != t1 + t2 + b1 + b2:
        report.violations.append(
            _arc_sizes_violation("lists_disjoint", t1 + t2 + b1 + b2, len(union), arc)
        )
    n = arc.capacity
    if not 0 <= t1 + t2 <= n:
        report.violations.append(_arc_sizes_violation("size_bound_cache", t1 + t2, n, arc))
    if not 0 <= t1 + b1 <= n:
        report.violations.append(_arc_sizes_violation("size_bound_l1", t1 + b1, n, arc))
    if not 0 <= t1 + t2 + b1 + b2 <= 2 * n:
        report.violations.append(
            _arc_sizes_violation("size_bound_directory", t1 + t2 + b1 + b2, 2 * n, arc)
        )
    if not 0 <= arc.p <= n:
        report.violations.append(_arc_sizes_violation("target_range", arc.p, n, arc))
    if was_full and t1 + t2 < n:
        report.violations.append(_arc_sizes_violation("fullness_monotone", t1 + t2, n, arc))
    return report


def check_car_invariants(car, was_full=None):
    """The seven structural invariants of a CAR state.

    Six are direct size conditions on one state; the seventh (a full
    cache stays full) needs the previous request's fullness, passed as
    was_full. Pass None to skip it.
    """
    report = ViolationReport()
    n = car.capacity
    t1, t2, b1, b2 = len(car.t1), len(car.t2), len(car.b1), len(car.b2)

    def bad(check, lhs, rhs):
        report.violations.append(
            Violation(
                index=-1,
                step="STATE",
                check=check,
                lhs=lhs,
                rhs=rhs,
                page=None,
                digest=car.digest(),
                opt_cache=(),
            )
        )

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


def check_car_sweep_rank_monotone(log):
    """On every CAR miss (once full), the sweep-rank sum term should not
    rise across the policy half-step. Observational: failures are
    reported, not asserted, by the harness."""
    if log.policy_kind != "CAR":
        raise ValueError("sweep-rank check applies to CAR logs, got %r" % (log.policy_kind,))
    report = ViolationReport()
    for entry in log.entries:
        if not entry.cache_full_before or entry.c_alg == 0:
            continue
        if entry.car_sum_r_alg > entry.car_sum_r_opt:
            report.violations.append(
                _violation(entry, "ALG", "sweep_rank_nonincrease",
                           entry.car_sum_r_alg, entry.car_sum_r_opt)
            )
    return report


def check_car_opt_step_bound(log):
    """Observational fine-grained bound on the oracle half-step for CAR:
    at most 18N + 3 per oracle fault, 0 otherwise."""
    if log.policy_kind != "CAR":
        raise ValueError("bound applies to CAR logs, got %r" % (log.policy_kind,))
    report = ViolationReport()
    cap = 18 * log.capacity + 3
    for entry in log.entries:
        delta = entry.phi_after_opt - entry.phi_before
        rhs = cap if entry.c_opt else 0
        if delta > rhs:
            report.violations.append(
                _violation(entry, "OPT", "opt_step_fine_bound", delta, rhs)
            )
    return report


def car_step_report(log, c=21):
    """Full observational CAR report: the c*N per-step bound, the finer
    oracle half-step bound, and the sweep-rank monotonicity check, in one list."""
    report = check_step_inequalities(log, c=c)
    report.extend(check_car_opt_step_bound(log))
    report.extend(check_car_sweep_rank_monotone(log))
    return report
