import math
from collections import Counter

import pytest

from cachelab import (
    SplitMix64,
    gen_cycle,
    gen_fuzz,
    gen_scan_mix,
    gen_zipf,
    parse_workload,
)
from cachelab.workloads import MAX_WORKLOAD_SIZE


class TestSplitMix64:
    def test_reference_vectors(self):
        # standard constants: first outputs for seed 0 and seed 1234567
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        rng = SplitMix64(1234567)
        assert rng.next_u64() == 6457827717110365317

    def test_unit_draws_are_in_range(self):
        rng = SplitMix64(9)
        for _ in range(1000):
            assert 0.0 <= rng.next_unit() < 1.0


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

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite"):
            parse_workload("zipf:universe=10,alpha=%s,length=20,seed=1" % alpha)

    @pytest.mark.parametrize("kind", [
        "cycle:k=3", "fuzz:universe=8,seed=1", "zipf:universe=10,alpha=0.9,seed=1",
        "scan_mix:hot=4,scan=2,seed=1",
    ])
    def test_negative_length_rejected(self, kind):
        with pytest.raises(ValueError, match="length must be non-negative"):
            parse_workload(kind + ",length=-5")

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
