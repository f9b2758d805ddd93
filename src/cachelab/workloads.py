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

    def param(self, name, default=None):
        for key, value in self.params:
            if key == name:
                return value
        return default

    def descriptor(self):
        return "%s:%s" % (self.kind, ",".join("%s=%s" % kv for kv in self.params))

    def generate(self):
        p = dict(self.params)
        if self.kind == "cycle":
            return gen_cycle(p["k"], p["length"])
        if self.kind == "fuzz":
            return gen_fuzz(p["universe"], p["length"], p["seed"])
        if self.kind == "zipf":
            return gen_zipf(p["universe"], p["alpha"], p["length"], p["seed"])
        if self.kind == "scan_mix":
            return gen_scan_mix(p["hot"], p["scan"], p["length"], p["seed"])
        raise ValueError("unknown workload kind %r" % (self.kind,))


_WORKLOAD_FIELDS = {
    "cycle": {"k": int, "length": int},
    "fuzz": {"universe": int, "length": int, "seed": int},
    "zipf": {"universe": int, "alpha": float, "length": int, "seed": int},
    "scan_mix": {"hot": int, "scan": int, "length": int, "seed": int},
}


def parse_workload(text, default_seed=0):
    """Parse "kind:key=value,..." into a WorkloadSpec.

    Example: "zipf:universe=100,alpha=0.8,length=1000,seed=42". A missing
    seed falls back to default_seed; other fields are required. A
    negative length or a non-finite alpha raises ValueError.
    """
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    if kind not in _WORKLOAD_FIELDS:
        raise ValueError(
            "unknown workload kind %r (expected one of %s)"
            % (kind, ", ".join(sorted(_WORKLOAD_FIELDS)))
        )
    fields = _WORKLOAD_FIELDS[kind]
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
    if "alpha" in params and not math.isfinite(params["alpha"]):
        raise ValueError("workload alpha must be finite, got %r" % params["alpha"])
    return WorkloadSpec(kind=kind, params=tuple(sorted(params.items())))
