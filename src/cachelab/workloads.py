"""Deterministic, seeded trace generators.

All randomness comes from SplitMix64 with the standard constants
(increment 0x9E3779B97F4A7C15, mixers 0xBF58476D1CE4E5B9 and
0x94D049BB133111EB), so a (kind, parameters, seed) triple yields a
bit-identical trace on every platform. Draws are computed a block at a
time, one per 128-bit lane of an int. Uniform draws take the raw 64-bit
output modulo the range; unit-interval draws use the top 53 bits.
"""

import math
import sys
from bisect import bisect_right
from collections import namedtuple
from itertools import accumulate, repeat
from operator import mod, mul

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_UNIT = float(1 << 53)  # a unit-interval draw is the top 53 bits over this
# largest length, universe, k, hot or scan a workload spec may ask for;
# every generator builds its whole trace, and zipf a table over its universe
MAX_WORKLOAD_SIZE = 10 ** 7

# A block packs up to _BLOCK draws into one int, draw i in the 128-bit lane
# from bit 128 * i; a lane holds a 64 x 64-bit product, so each masked shift,
# xor or multiply acts on all lanes with no carry between them. _STEPS holds
# (i + 1) * _GAMMA in lane i: with x = 2**128, the sum over the lanes of
# (i + 1) * x**i is (_BLOCK * x**_BLOCK - _LANES) / (x - 1).
_BLOCK = 2048
_LANES = int.from_bytes(b"\1".ljust(16, b"\0") * _BLOCK, "little")
_STEPS = _GAMMA * (((_BLOCK << 128 * _BLOCK) - _LANES) // ((1 << 128) - 1))


def _low_words(packed, count):
    """The low 64 bits of each of the first count lanes of packed."""
    # bytes in the host's order read back as words in it: a lane's low word is
    # its first on a little-endian host, and its last, lanes reversed, on a big one
    words = memoryview(packed.to_bytes(16 * count, sys.byteorder)).cast("Q")
    return words[::2] if sys.byteorder == "little" else words[::-2]


class SplitMix64:
    """Minimal 64-bit PRNG; fixed constants, no global state."""

    def __init__(self, seed):
        self._state = seed & _MASK64

    def next_u64(self):
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def _blocks(self, count):
        """The one draw loop: yield the next count outputs of next_u64 as (n,
        packed) blocks, output i in lane i, storing the state after each."""
        for start in range(0, count, _BLOCK):
            n = min(_BLOCK, count - start)
            lanes = _LANES & ((1 << 128 * n) - 1)
            mask = _MASK64 * lanes
            z = (self._state * lanes + (_STEPS & mask)) & mask
            self._state = (self._state + n * _GAMMA) & _MASK64
            z = ((z ^ ((z >> 30) & mask)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ ((z >> 27) & mask)) * 0x94D049BB133111EB) & mask
            yield n, z ^ ((z >> 31) & mask)

    def draws(self, count):
        """The next count outputs of next_u64 as a list, advancing as they would."""
        out = []
        for n, block in self._blocks(count):
            out += _low_words(block, n)
        return out


def gen_cycle(k, length):
    """Pure cyclic sweep over k pages: trace[i] = i mod k."""
    if k < 1:
        raise ValueError("cycle needs at least one page, got %r" % (k,))
    return [i % k for i in range(length)]


def gen_fuzz(universe, length, seed):
    """Uniform i.i.d. draws from [0, universe)."""
    if universe < 1:
        raise ValueError("universe must be at least 1, got %r" % (universe,))
    return list(map(mod, SplitMix64(seed).draws(length), repeat(universe)))


def gen_zipf(universe, alpha, length, seed):
    """I.i.d. draws with P(page r) proportional to (r+1)**-alpha.

    Sampling is inverse-CDF over the precomputed cumulative weights, each
    search narrowed by a guide table; alpha = 0 degenerates to the uniform
    distribution.
    """
    if universe < 1:
        raise ValueError("universe must be at least 1, got %r" % (universe,))
    if alpha < 0:
        raise ValueError("alpha must be non-negative, got %r" % (alpha,))
    cumulative = list(accumulate((rank + 1) ** -alpha for rank in range(universe)))
    # unit * scale is unit / 2**53 * total rounded once, as dividing by 2**53 is
    # exact, and below 2**53 * scale = total, so bisect never passes the last bound
    scale = cumulative[-1] / _UNIT
    # guide table (Chen & Asau 1974): guide[b] is the page of the smallest unit
    # with top 10 bits b, so a unit in bucket b maps into [guide[b], guide[b + 1]]
    guide = list(map(bisect_right, repeat(cumulative),
                     map(mul, range(0, (1 << 53) + 1, 1 << 43), repeat(scale))))
    upper = guide[1:]
    trace = []
    for n, block in SplitMix64(seed)._blocks(length):
        # a lane's low word holds its 53-bit unit after >> 11, its top 10 bits after >> 54
        buckets = _low_words(block >> 54, n)
        trace += map(bisect_right, repeat(cumulative),
                     map(mul, _low_words(block >> 11, n), repeat(scale)),
                     map(guide.__getitem__, buckets), map(upper.__getitem__, buckets))
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
    burst_len = 2 * scan_len
    periods, rest = divmod(length, burst_len + scan_len)
    hot = list(map(mod, SplitMix64(seed).draws(periods * burst_len + min(rest, burst_len)),
                   repeat(hot_set)))
    trace = []
    for period in range(periods + (rest > 0)):
        trace += hot[period * burst_len:(period + 1) * burst_len]
        first = hot_set + period * scan_len  # the last scan may be cut short
        trace += range(first, first + min(scan_len, length - len(trace)))
    return trace


class WorkloadSpec(namedtuple("WorkloadSpec", "kind params")):
    """Parsed generator spec; a pure function of its fields. params holds
    sorted (name, value) pairs."""

    __slots__ = ()

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
    seed falls back to default_seed; other fields are required. A value
    that does not parse as its field's type, a repeated key, a negative
    length, a universe, k, hot or scan below 1, a size field (length,
    universe, k, hot, scan) above MAX_WORKLOAD_SIZE or a non-finite or
    negative alpha raises ValueError naming the key.
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
            if key in params:
                raise ValueError("workload parameter %r is given more than once" % key)
            try:
                params[key] = fields[key](value.strip())
            except ValueError:
                raise ValueError("workload %s parameter %r must parse as %s, got %r"
                                 % (kind, key, fields[key].__name__, value.strip())) from None
    if "seed" in fields and "seed" not in params:
        params["seed"] = default_seed
    missing = sorted(set(fields) - set(params))
    if missing:
        raise ValueError("workload %r is missing parameters: %s" % (kind, ", ".join(missing)))
    if params["length"] < 0:
        raise ValueError("workload length must be non-negative, got %d" % params["length"])
    for name in ("universe", "k", "hot", "scan"):
        if params.get(name, 1) < 1:
            raise ValueError("workload %s must be at least 1, got %d" % (name, params[name]))
    for name in ("length", "universe", "k", "hot", "scan"):
        if params.get(name, 0) > MAX_WORKLOAD_SIZE:
            raise ValueError("workload %s must be at most %d, got %d"
                             % (name, MAX_WORKLOAD_SIZE, params[name]))
    if "alpha" in params and not math.isfinite(params["alpha"]):
        raise ValueError("workload alpha must be finite, got %r" % params["alpha"])
    if params.get("alpha", 0) < 0:
        raise ValueError("workload alpha must be non-negative, got %r" % params["alpha"])
    return WorkloadSpec(kind=kind, params=tuple(sorted(params.items())))
