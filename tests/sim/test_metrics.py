"""Metrics bookkeeping tests."""

import pytest

from repro.sim.metrics import Metrics, TierTimes


class TestTierTimes:
    def test_add(self):
        a = TierTimes(mem_us=10.0, io_us=5.0)
        a.add(TierTimes(mem_us=1.0, io_us=2.0))
        assert a.mem_us == 11.0 and a.io_us == 7.0

    def test_serial_vs_overlapped(self):
        t = TierTimes(mem_us=30.0, io_us=100.0)
        assert t.serial_us == 130.0
        assert t.overlapped_us == 100.0


class TestDerived:
    def test_io_accesses_and_latency(self):
        m = Metrics(io_reads=8, io_writes=2, io_time_us=1000.0)
        assert m.io_accesses == 10
        assert m.avg_io_latency_us == pytest.approx(100.0)

    def test_latency_safe_when_no_io(self):
        assert Metrics().avg_io_latency_us == 0.0

    def test_access_time_excludes_shuffle(self):
        m = Metrics(total_time_us=1000.0, shuffle_time_us=400.0)
        assert m.access_time_us == pytest.approx(600.0)

    def test_dummy_ratios(self):
        m = Metrics(scheduled_hits=10, dummy_hits=4, scheduled_misses=5, dummy_misses=1)
        assert m.dummy_hit_ratio == pytest.approx(0.4)
        assert m.dummy_miss_ratio == pytest.approx(0.2)
        assert Metrics().dummy_hit_ratio == 0.0


class TestCombinators:
    def test_merge_sums_and_maxes(self):
        a = Metrics(io_reads=1, stash_peak=5)
        b = Metrics(io_reads=2, stash_peak=3)
        merged = a.merge(b)
        assert merged.io_reads == 3
        assert merged.stash_peak == 5

    def test_merge_unions_extra(self):
        a = Metrics(extra={"x": 1})
        b = Metrics(extra={"y": 2})
        assert a.merge(b).extra == {"x": 1, "y": 2}

    def test_merge_sums_numeric_extra(self):
        a = Metrics(extra={"blocks_appended": 2})
        b = Metrics(extra={"blocks_appended": 3})
        assert a.merge(b).extra == {"blocks_appended": 5}

    def test_merge_keeps_bool_extras_as_flags(self):
        # bool subclasses int: without the explicit exclusion a True flag
        # merged across two shards would come back as 2 (and lose boolness).
        a = Metrics(extra={"hardware_limited": True, "n": 1})
        b = Metrics(extra={"hardware_limited": True, "n": 2})
        merged = a.merge(b).extra
        assert merged["hardware_limited"] is True
        assert merged["n"] == 3

    def test_merge_bool_last_wins_even_against_numbers(self):
        # Mixed flag/number never sums: the later value wins outright.
        a = Metrics(extra={"flag": 1})
        b = Metrics(extra={"flag": False})
        assert a.merge(b).extra["flag"] is False
        c = Metrics(extra={"flag": True})
        d = Metrics(extra={"flag": 1})
        assert c.merge(d).extra["flag"] == 1

    def test_diff(self):
        before = Metrics(io_reads=10, cycles=3, stash_peak=4)
        after = Metrics(io_reads=25, cycles=9, stash_peak=6)
        delta = after.diff(before)
        assert delta.io_reads == 15
        assert delta.cycles == 6
        assert delta.stash_peak == 6  # peaks keep the current value

    def test_copy_is_independent(self):
        m = Metrics(io_reads=1, extra={"k": 1})
        c = m.copy()
        c.io_reads = 99
        c.extra["k"] = 99
        assert m.io_reads == 1 and m.extra["k"] == 1

    def test_record_stash(self):
        m = Metrics()
        m.record_stash(4)
        m.record_stash(2)
        assert m.stash_peak == 4


class TestSerialization:
    def test_to_dict_includes_derived(self):
        m = Metrics(io_reads=4, io_time_us=200.0)
        d = m.to_dict()
        assert d["io_accesses"] == 4
        assert d["avg_io_latency_us"] == pytest.approx(50.0)

    def test_summary_lines_mention_key_numbers(self):
        m = Metrics(requests_served=42, io_reads=7)
        text = "\n".join(m.summary_lines())
        assert "42" in text and "7" in text


class TestFaultStatsAbsorption:
    def test_none_is_a_noop(self):
        m = Metrics()
        m.absorb_fault_stats(None)
        assert m.extra == {}

    def test_surfaces_retry_and_backoff_counters(self):
        from repro.storage.faults import FaultStats

        m = Metrics()
        m.absorb_fault_stats(
            FaultStats(retries=3, escalations=1, injected_delay_us=250.0)
        )
        assert m.extra["fault_retries"] == 3
        assert m.extra["fault_escalations"] == 1
        assert m.extra["fault_injected_delay_us"] == 250.0
        assert "fault_crashes" in m.extra and "fault_hangs" in m.extra

    def test_absorb_overwrites_instead_of_summing(self):
        from repro.storage.faults import FaultStats

        m = Metrics()
        m.absorb_fault_stats(FaultStats(retries=3))
        m.absorb_fault_stats(FaultStats(retries=5))  # cumulative snapshot
        assert m.extra["fault_retries"] == 5
