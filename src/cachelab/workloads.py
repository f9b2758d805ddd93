"""Deterministic, seeded trace generators.

All randomness comes from SplitMix64 with the standard constants
(increment 0x9E3779B97F4A7C15, mixers 0xBF58476D1CE4E5B9 and
0x94D049BB133111EB), so a (kind, parameters, seed) triple yields a
bit-identical trace on every platform. Uniform draws take the raw 64-bit
output modulo the range; unit-interval draws use the top 53 bits.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

_MASK64 = (1 << 64) - 1
# largest length, universe, k, hot or scan a workload spec may ask for;
# every generator builds its whole trace, and zipf a table over its universe
MAX_WORKLOAD_SIZE = 10 ** 7


class SplitMix64:
    """Minimal 64-bit PRNG; fixed constants, no global state."""

    def __init__(self, seed):
        self._state = seed & _MASK64

    def next_u64(self):
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_below(self, bound):
        return self.next_u64() % bound

    def next_unit(self):
        return (self.next_u64() >> 11) / float(1 << 53)


def gen_cycle(k, length):
    """Pure cyclic sweep over k pages: trace[i] = i mod k."""
    if k < 1:
        raise ValueError("cycle needs at least one page, got %r" % (k,))
    return [i % k for i in range(length)]


def gen_fuzz(universe, length, seed):
    """Uniform i.i.d. draws from [0, universe)."""
    if universe < 1:
        raise ValueError("universe must be at least 1, got %r" % (universe,))
    rng = SplitMix64(seed)
    return [rng.next_below(universe) for _ in range(length)]


def gen_zipf(universe, alpha, length, seed):
    """I.i.d. draws with P(page r) proportional to (r+1)**-alpha.

    Sampling is inverse-CDF over the precomputed cumulative weights;
    alpha = 0 degenerates to the uniform distribution.
    """
    if universe < 1:
        raise ValueError("universe must be at least 1, got %r" % (universe,))
    if alpha < 0:
        raise ValueError("alpha must be non-negative, got %r" % (alpha,))
    cumulative = []
    total = 0.0
    for rank in range(universe):
        total += (rank + 1) ** -alpha
        cumulative.append(total)
    rng = SplitMix64(seed)
    trace = []
    for _ in range(length):
        u = rng.next_unit() * total
        page = bisect_right(cumulative, u)
        if page >= universe:  # guard the u == total edge
            page = universe - 1
        trace.append(page)
    return trace


def gen_scan_mix(hot_set, scan_len, length, seed):
    """Alternate hot-set bursts with one-time sequential scans.

    Hot pages are 0..hot_set-1, drawn uniformly in bursts of 2*scan_len
    requests; each burst is followed by a scan over scan_len fresh pages
    (numbered upward from hot_set) that never repeat anywhere in the
    trace.
    """
    if hot_set < 1:
        raise ValueError("hot_set must be at least 1, got %r" % (hot_set,))
    if scan_len < 1:
        raise ValueError("scan_len must be at least 1, got %r" % (scan_len,))
    rng = SplitMix64(seed)
    burst_len = 2 * scan_len
    trace = []
    next_scan_page = hot_set
    while len(trace) < length:
        for _ in range(min(burst_len, length - len(trace))):
            trace.append(rng.next_below(hot_set))
        for _ in range(min(scan_len, length - len(trace))):
            trace.append(next_scan_page)
            next_scan_page += 1
    return trace


@dataclass(frozen=True)
class WorkloadSpec:
    """Parsed generator spec; a pure function of its fields."""

    kind: str
    params: tuple  # sorted (name, value) pairs

    def descriptor(self):
        return "%s:%s" % (self.kind, ",".join("%s=%s" % kv for kv in self.params))

    def generate(self):
        if self.kind not in _WORKLOAD_KINDS:
            raise ValueError("unknown workload kind %r" % (self.kind,))
        generator, fields = _WORKLOAD_KINDS[self.kind]
        params = dict(self.params)
        return generator(*(params[name] for name in fields))


# kind -> (generator, its fields in the generator's argument order, each
# with the type its value parses to)
_WORKLOAD_KINDS = {
    "cycle": (gen_cycle, {"k": int, "length": int}),
    "fuzz": (gen_fuzz, {"universe": int, "length": int, "seed": int}),
    "zipf": (gen_zipf, {"universe": int, "alpha": float, "length": int, "seed": int}),
    "scan_mix": (gen_scan_mix, {"hot": int, "scan": int, "length": int, "seed": int}),
}


def parse_workload(text, default_seed=0):
    """Parse "kind:key=value,..." into a WorkloadSpec.

    Example: "zipf:universe=100,alpha=0.8,length=1000,seed=42". A missing
    seed falls back to default_seed; other fields are required. A
    negative length, a size field (length, universe, k, hot, scan) above
    MAX_WORKLOAD_SIZE or a non-finite alpha raises ValueError.
    """
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    if kind not in _WORKLOAD_KINDS:
        raise ValueError(
            "unknown workload kind %r (expected one of %s)"
            % (kind, ", ".join(sorted(_WORKLOAD_KINDS)))
        )
    fields = _WORKLOAD_KINDS[kind][1]
    params = {}
    if rest.strip():
        for part in rest.split(","):
            key, eq, value = part.partition("=")
            key = key.strip()
            if not eq or key not in fields:
                raise ValueError("bad workload parameter %r for kind %r" % (part, kind))
            params[key] = fields[key](value.strip())
    if "seed" in fields and "seed" not in params:
        params["seed"] = default_seed
    missing = sorted(set(fields) - set(params))
    if missing:
        raise ValueError("workload %r is missing parameters: %s" % (kind, ", ".join(missing)))
    if params["length"] < 0:
        raise ValueError("workload length must be non-negative, got %d" % params["length"])
    for name in ("length", "universe", "k", "hot", "scan"):
        if params.get(name, 0) > MAX_WORKLOAD_SIZE:
            raise ValueError("workload %s must be at most %d, got %d"
                             % (name, MAX_WORKLOAD_SIZE, params[name]))
    if "alpha" in params and not math.isfinite(params["alpha"]):
        raise ValueError("workload alpha must be finite, got %r" % params["alpha"])
    return WorkloadSpec(kind=kind, params=tuple(sorted(params.items())))
