import hashlib
import math
from bisect import bisect_right
from collections import Counter
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from cachelab import (
    SplitMix64,
    format_trace,
    gen_cycle,
    gen_fuzz,
    gen_scan_mix,
    gen_zipf,
    parse_workload,
)
from cachelab.workloads import _BLOCK, MAX_WORKLOAD_SIZE

# draw counts around the block boundaries of the draw engine
BLOCK_LENGTHS = [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3]


class TestSplitMix64:
    def test_reference_vectors(self):
        # standard constants: first outputs for seed 0 and seed 1234567
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        rng = SplitMix64(1234567)
        assert rng.next_u64() == 6457827717110365317

    def test_draws_interleave_with_next_u64(self):
        reference = SplitMix64(9)
        want = [reference.next_u64() for _ in range(503)]
        rng = SplitMix64(9)
        got = [rng.next_u64(), *rng.draws(2), *rng.draws(499), rng.next_u64()]
        assert got == want
        assert SplitMix64(9).draws(0) == []

    @pytest.mark.parametrize("seed", [9, 2 ** 64 - 1, 2 ** 64 + 5, -3])
    @pytest.mark.parametrize("count", BLOCK_LENGTHS)
    def test_draws_are_next_u64_outputs_and_advance_the_state(self, seed, count):
        reference = SplitMix64(seed)
        want = [reference.next_u64() for _ in range(count)]
        state = reference._state
        want.append(reference.next_u64())
        rng = SplitMix64(seed)
        got = rng.draws(count)
        assert rng._state == state
        assert [*got, rng.next_u64()] == want


class TestCycle:
    def test_examples(self):
        assert gen_cycle(3, 7) == [0, 1, 2, 0, 1, 2, 0]
        assert gen_cycle(1, 3) == [0, 0, 0]
        assert gen_cycle(4, 0) == []

    def test_rejects_empty_universe(self):
        with pytest.raises(ValueError):
            gen_cycle(0, 5)


class TestFuzz:
    def test_empty(self):
        assert gen_fuzz(4, 0, seed=1) == []

    def test_alphabet_and_length(self):
        trace = gen_fuzz(7, 2000, seed=2)
        assert len(trace) == 2000
        assert all(0 <= p < 7 for p in trace)

    def test_seeded_determinism(self):
        assert gen_fuzz(7, 500, seed=3) == gen_fuzz(7, 500, seed=3)
        assert gen_fuzz(7, 500, seed=3) != gen_fuzz(7, 500, seed=4)


class TestZipf:
    def test_empty(self):
        assert gen_zipf(5, 1.0, 0, seed=1) == []

    def test_alpha_zero_is_uniform_within_three_sigma(self):
        n, k = 100_000, 10
        counts = Counter(gen_zipf(k, 0.0, n, seed=3))
        sigma = math.sqrt(n * (1 / k) * (1 - 1 / k))
        for page in range(k):
            assert abs(counts[page] - n / k) <= 3 * sigma

    def test_skew_prefers_low_ranks(self):
        counts = Counter(gen_zipf(50, 1.2, 50_000, seed=6))
        assert counts[0] > counts[10] > counts[49]

    def test_seeded_determinism(self):
        assert gen_zipf(9, 0.8, 400, seed=5) == gen_zipf(9, 0.8, 400, seed=5)

    @given(total=st.floats(min_value=1.0, max_value=1e300))
    def test_the_largest_unit_draw_stays_below_the_total(self, total):
        # so inverse-CDF sampling never runs past the last cumulative bound
        assert (((1 << 64) - 1) >> 11) / float(1 << 53) * total < total

    # universe 1; uniform; all mass on page 0; a long heavy tail; the bench shape
    @pytest.mark.parametrize("universe, alpha", [
        (1, 0.9), (50, 0), (10, 1e6), (10 ** 5, 1.3), (1000, 0.9)])
    @pytest.mark.parametrize("length", BLOCK_LENGTHS)
    def test_matches_the_scalar_reference(self, universe, alpha, length):
        for seed in (1, -3, 2 ** 64 + 5):
            assert gen_zipf(universe, alpha, length, seed) == \
                reference_zipf(universe, alpha, length, seed)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(-2 ** 70, 2 ** 70), length=st.integers(0, 5000),
           universe=st.integers(1, 2000), alpha=st.floats(0, 3))
    def test_matches_the_scalar_reference_everywhere(self, seed, length, universe, alpha):
        assert gen_zipf(universe, alpha, length, seed) == \
            reference_zipf(universe, alpha, length, seed)


def reference_zipf(universe, alpha, length, seed):
    """gen_zipf one draw at a time: a full bisect of each next_u64's top 53
    bits over 2**53, times the total weight."""
    cumulative = list(accumulate((rank + 1) ** -alpha for rank in range(universe)))
    total = cumulative[-1]
    rng = SplitMix64(seed)
    return [bisect_right(cumulative, (rng.next_u64() >> 11) / float(1 << 53) * total)
            for _ in range(length)]


class TestScanMix:
    def test_empty(self):
        assert gen_scan_mix(4, 8, 0, seed=1) == []

    def test_scan_pages_appear_exactly_once(self):
        trace = gen_scan_mix(4, 8, 3000, seed=2)
        counts = Counter(p for p in trace if p >= 4)
        assert counts and all(c == 1 for c in counts.values())

    def test_hot_pages_recur(self):
        trace = gen_scan_mix(4, 8, 3000, seed=2)
        counts = Counter(p for p in trace if p < 4)
        assert all(counts[p] >= 2 for p in range(4))

    def test_length_and_determinism(self):
        trace = gen_scan_mix(5, 7, 501, seed=9)
        assert len(trace) == 501
        assert trace == gen_scan_mix(5, 7, 501, seed=9)


class TestParseWorkload:
    def test_round_trip_descriptor(self):
        spec = parse_workload("zipf:universe=100,alpha=0.8,length=1000,seed=42")
        assert spec.descriptor() == "zipf:alpha=0.8,length=1000,seed=42,universe=100"
        assert len(spec.generate()) == 1000

    def test_default_seed_applies(self):
        spec = parse_workload("fuzz:universe=8,length=10", default_seed=7)
        assert dict(spec.params)["seed"] == 7

    def test_cycle_has_no_seed(self):
        spec = parse_workload("cycle:k=3,length=7")
        assert spec.generate() == [0, 1, 2, 0, 1, 2, 0]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            parse_workload("randomwalk:length=5")

    def test_missing_parameter_rejected(self):
        with pytest.raises(ValueError):
            parse_workload("zipf:universe=10,length=5")

    def test_bad_parameter_rejected(self):
        with pytest.raises(ValueError):
            parse_workload("fuzz:universe=8,length=10,bogus=1")

    @pytest.mark.parametrize("text,key", [("cycle:k=3,length=5,k=4", "k"),
                                          ("fuzz:universe=8,length=5,seed=1,seed=1", "seed")])
    def test_repeated_key_rejected(self, text, key):
        with pytest.raises(ValueError, match="parameter '%s' is given more than once" % key):
            parse_workload(text)

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite"):
            parse_workload("zipf:universe=10,alpha=%s,length=20,seed=1" % alpha)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError, match="^workload alpha must be non-negative, got -1.0$"):
            parse_workload("zipf:universe=10,alpha=-1,length=5,seed=1")

    @pytest.mark.parametrize("kind", [
        "cycle:k=3", "fuzz:universe=8,seed=1", "zipf:universe=10,alpha=0.9,seed=1",
        "scan_mix:hot=4,scan=2,seed=1",
    ])
    def test_negative_length_rejected(self, kind):
        with pytest.raises(ValueError, match="length must be non-negative"):
            parse_workload(kind + ",length=-5")

    @pytest.mark.parametrize("text,message", [
        ("cycle:k=3,length=", "workload cycle parameter 'length' must parse as int, got ''"),
        ("fuzz:universe=8,length=5,seed=1.5",
         "workload fuzz parameter 'seed' must parse as int, got '1.5'"),
        ("zipf:universe=10,alpha=x,length=5,seed=1",
         "workload zipf parameter 'alpha' must parse as float, got 'x'"),
    ])
    def test_unparsable_value_names_its_key_and_type(self, text, message):
        with pytest.raises(ValueError) as exc:
            parse_workload(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("field,spec", [
        ("hot", "scan_mix:hot=0,scan=2,length=5,seed=1"),
        ("scan", "scan_mix:hot=4,scan=0,length=5,seed=1"),
        ("hot", "scan_mix:hot=0,scan=0,length=5,seed=1"),
        ("k", "cycle:k=0,length=5"),
        ("universe", "fuzz:universe=-1,length=5,seed=1"),
        ("universe", "zipf:universe=0,alpha=0.9,length=5,seed=1"),
    ])
    def test_sizes_below_one_rejected_under_their_spec_key(self, field, spec):
        with pytest.raises(ValueError) as exc:
            parse_workload(spec)
        assert str(exc.value).startswith("workload %s must be at least 1, got " % field)

    def test_zero_length_still_allowed(self):
        assert parse_workload("fuzz:universe=8,length=0,seed=1").generate() == []

    @pytest.mark.parametrize("field,spec", [
        ("length", "cycle:k=3,length=%d"), ("k", "cycle:k=%d,length=5"),
        ("universe", "fuzz:universe=%d,length=5,seed=1"),
        ("universe", "zipf:universe=%d,alpha=0.9,length=5,seed=1"),
        ("hot", "scan_mix:hot=%d,scan=2,length=5,seed=1"),
        ("scan", "scan_mix:hot=4,scan=%d,length=5,seed=1"),
    ])
    def test_sizes_above_the_limit_rejected(self, field, spec):
        # parsing only: none of these traces is generated
        assert MAX_WORKLOAD_SIZE == 10 ** 7
        assert dict(parse_workload(spec % MAX_WORKLOAD_SIZE).params)[field] == MAX_WORKLOAD_SIZE
        with pytest.raises(ValueError, match="workload %s must be at most 10000000, got 10000001"
                                             % field):
            parse_workload(spec % (MAX_WORKLOAD_SIZE + 1))
        with pytest.raises(ValueError, match="workload %s must be at most" % field):
            parse_workload(spec % 99999999999999999999)

    def test_seed_has_no_limit(self):
        spec = parse_workload("fuzz:universe=8,length=3,seed=99999999999999999999")
        assert len(spec.generate()) == 3

    def test_every_kind_generates_through_the_one_table(self):
        specs = {"cycle:k=3,length=5": [0, 1, 2, 0, 1],
                 "fuzz:universe=8,length=5,seed=1": gen_fuzz(8, 5, 1),
                 "zipf:universe=10,alpha=0.9,length=5,seed=1": gen_zipf(10, 0.9, 5, 1),
                 "scan_mix:hot=4,scan=2,length=9,seed=1": gen_scan_mix(4, 2, 9, 1)}
        for text, trace in specs.items():
            assert parse_workload(text).generate() == trace


# SHA-256 of format_trace(parse_workload(spec).generate()): the bench's
# three specs at seeds 1 and 2 (bench/bench.py builds its expected facts
# with the cachelab it measures, so only this pin catches a changed
# draw), a trace that ends inside a scan, uniform zipf, a negative seed,
# and seeds of 2**64 and above, which the generator masks to 64 bits
PINNED_TRACES = {
    "zipf:universe=1000,alpha=0.9,length=20000,seed=1":
        "182c3e64f417848f54bd4e201173d1c460b36111d7cdf32c44d08f47eef8a1f9",
    "zipf:universe=1000,alpha=0.9,length=20000,seed=2":
        "5e97d94df2e75baa43046f17caae16c9eb8d18f520d544cca9a008a3318ab4f9",
    "zipf:universe=1000,alpha=0.9,length=4000,seed=1":
        "ff07c24fc53505ea3405d734013eda4b078448084914122e7ce015b8b9667363",
    "zipf:universe=1000,alpha=0.9,length=4000,seed=2":
        "328a3a62e3aa22b0bd9d91a6bf1fe80e46543231f2f8555d15275604a8dc7df6",
    "scan_mix:hot=24,scan=32,length=7500,seed=1":
        "90f0ebf048c79f36b3ad03cb04d7c3b75ae2d2ab99eb24de4dd14b7d5ce97f91",
    "scan_mix:hot=24,scan=32,length=7500,seed=2":
        "685181aed2e21a9a6c08ae48b679275e27ca1e4f922d18e437327be4b34cb6da",
    "fuzz:universe=10,length=2000,seed=5":
        "a436cd79fadbfd93fe05cc422ca5dd5d7398ec6bee4b9970d0bee95d463f210f",
    "zipf:universe=50,alpha=0,length=3000,seed=7":
        "a87731ea79cac87cbbe3ae1487a429ec213542c5de41130252618065dcddaea5",
    "scan_mix:hot=5,scan=7,length=100,seed=18446744073709551621":
        "c10a828b05b911e53f2b04b7b6bb394a9f87b44688fe9e638d70f5b248bc1f6a",
    "fuzz:universe=1000,length=500,seed=-3":
        "87a24510c01675200f7c429ffb367007ee66cae47240e75288289106f9d33288",
    "zipf:universe=3,alpha=40,length=2000,seed=18446744073709551616":
        "f5d77a3523b6c0d3e7c0ff5745c4e58e99a69d61bdf17ff4ff61795da7c93934",
}


@pytest.mark.parametrize("spec", sorted(PINNED_TRACES))
def test_generated_traces_are_pinned(spec):
    text = format_trace(parse_workload(spec).generate())
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_TRACES[spec]
