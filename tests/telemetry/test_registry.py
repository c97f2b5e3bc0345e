"""Metrics registry: instruments, snapshots, and both renderer round-trips."""

import math
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.telemetry import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    MetricsSnapshot,
    parse_prometheus,
)
from repro.telemetry.registry import latency_quantile_gauges


class TestInstruments:
    def test_counter_accumulates_and_rejects_negative(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_frames_total", help="frames")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5.0
        with pytest.raises(ValueError, match=">= 0"):
            counter.inc(-1)

    def test_counter_set_total_is_the_collector_path(self):
        counter = MetricsRegistry().counter("repro_bytes_total")
        counter.set_total(10)
        counter.set_total(7)  # collectors re-derive; overwrite is legal
        assert counter.value == 7.0
        with pytest.raises(ValueError, match=">= 0"):
            counter.set_total(-1)

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("repro_streams_active")
        gauge.set(3)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value == 2.0

    def test_get_or_create_returns_the_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("repro_x_total", labels={"stream": 1})
        b = registry.counter("repro_x_total", labels={"stream": "1"})
        assert a is b
        # Different labels are a different family member.
        c = registry.counter("repro_x_total", labels={"stream": 2})
        assert c is not a

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total")
        with pytest.raises(ValueError, match="already registered as counter"):
            registry.gauge("repro_x_total")

    def test_histogram_bounds_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.histogram("repro_lat_seconds", bounds=(0.1, 1.0))
        with pytest.raises(ValueError, match="already registered with bounds"):
            registry.histogram("repro_lat_seconds", bounds=(0.2, 1.0))

    def test_window_is_shared_by_name_and_bounded(self):
        registry = MetricsRegistry()
        window = registry.window("repro_lat_seconds", maxlen=3)
        assert registry.window("repro_lat_seconds", maxlen=3) is window
        for value in (4.0, 1.0, 3.0, 1.0, 2.0):
            window.append(value)
        assert list(window.values) == [3.0, 1.0, 2.0]
        assert window.sorted == [1.0, 2.0, 3.0]
        # Windows are not instruments: nothing of them is exported.
        assert registry.collect().samples == ()

    @given(
        values=st.lists(st.floats(0.0, 10.0), max_size=40),
        maxlen=st.integers(1, 8),
    )
    def test_window_keeps_the_last_values_sorted(self, values, maxlen):
        window = MetricsRegistry().window("repro_w_seconds", maxlen=maxlen)
        for value in values:
            window.append(value)
        kept = values[-maxlen:] if values else []
        assert list(window.values) == kept
        assert window.sorted == sorted(kept)

    def test_invalid_names_and_labels_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.counter("0bad")
        with pytest.raises(ValueError, match="invalid label name"):
            registry.counter("repro_ok_total", labels={"0bad": 1})


class TestHistogram:
    def test_bucket_edges_must_be_increasing_and_finite(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="strictly increasing"):
            registry.histogram("repro_a_seconds", bounds=(1.0, 1.0))
        with pytest.raises(ValueError, match="finite"):
            registry.histogram("repro_b_seconds", bounds=(1.0, math.inf))
        with pytest.raises(ValueError, match="at least one"):
            registry.histogram("repro_c_seconds", bounds=())

    def test_observations_land_in_the_right_buckets(self):
        histogram = MetricsRegistry().histogram("repro_d_seconds", bounds=(1.0, 2.0))
        for value in (0.5, 1.0, 1.5, 2.0, 99.0):
            histogram.observe(value)
        # bisect_left: an observation equal to an edge lands in that bucket.
        assert histogram.bucket_counts == (2, 2, 1)
        assert histogram.count == 5
        assert histogram.sum == pytest.approx(104.0)

    def test_quantile_guards(self):
        histogram = MetricsRegistry().histogram("repro_f_seconds", bounds=(1.0,))
        with pytest.raises(ValueError, match="empty histogram"):
            histogram.quantile(50.0)
        histogram.observe(0.5)
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            histogram.quantile(101.0)

    def test_inf_bucket_clamps_to_last_edge(self):
        histogram = MetricsRegistry().histogram("repro_g_seconds", bounds=(1.0, 2.0))
        histogram.observe(50.0)
        assert histogram.quantile(99.0) == 2.0

    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=9.99, allow_nan=False),
            min_size=1,
            max_size=200,
        ),
        q=st.floats(min_value=0.0, max_value=100.0),
    )
    def test_quantile_within_one_bucket_width_of_numpy(self, values, q):
        """The estimate is exact to within the width of the holding bucket.

        The histogram's rank rule (``rank = q/100 * count`` over cumulative
        bucket counts) selects the bucket containing the inverted-CDF order
        statistic, so the sound guarantee is against
        ``numpy.percentile(..., method="inverted_cdf")``: both values lie in
        the same bucket, hence differ by at most its width.
        """
        histogram = MetricsRegistry().histogram(
            "repro_h_seconds", bounds=DEFAULT_LATENCY_BUCKETS
        )
        for value in values:
            histogram.observe(value)
        estimate = histogram.quantile(q)
        exact = float(np.percentile(np.asarray(values), q, method="inverted_cdf"))
        edges = (0.0, *DEFAULT_LATENCY_BUCKETS)
        index = int(np.searchsorted(DEFAULT_LATENCY_BUCKETS, exact, side="left"))
        width = edges[index + 1] - edges[index]
        assert abs(estimate - exact) <= width + 1e-12

    def test_concurrent_observes_lose_nothing(self):
        histogram = MetricsRegistry().histogram("repro_i_seconds", bounds=(0.5,))
        n_threads, per_thread = 8, 500

        def work():
            for _ in range(per_thread):
                histogram.observe(0.1)

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert histogram.count == n_threads * per_thread


class TestSnapshotsAndRenderers:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter(
            "repro_frames_total", labels={"stream": 1}, help="frames seen"
        ).inc(12)
        registry.gauge("repro_streams_active", help="live sessions").set(3)
        histogram = registry.histogram(
            "repro_lat_seconds", bounds=(0.001, 0.01, 0.1), help="latency"
        )
        for value in (0.0005, 0.004, 0.02, 0.5):
            histogram.observe(value)
        return registry

    def test_snapshot_lookup(self):
        snapshot = self._registry().collect()
        assert snapshot.value("repro_frames_total", {"stream": 1}) == 12.0
        assert snapshot.value("repro_streams_active") == 3.0
        sample = snapshot.get("repro_lat_seconds")
        assert sample.kind == "histogram"
        assert sample.bucket_counts == (1, 1, 1, 1)
        with pytest.raises(KeyError, match="no metric"):
            snapshot.value("repro_missing_total")
        with pytest.raises(KeyError, match="no scalar value"):
            snapshot.value("repro_lat_seconds")

    def test_collector_runs_at_collect_time(self):
        registry = MetricsRegistry()
        live = {"frames": 0}
        counter = registry.counter("repro_live_total")
        registry.register_collector(lambda: counter.set_total(live["frames"]))
        live["frames"] = 41
        assert registry.collect().value("repro_live_total") == 41.0
        live["frames"] = 42
        assert registry.collect().value("repro_live_total") == 42.0

    def test_prometheus_text_round_trips(self):
        snapshot = self._registry().collect()
        text = snapshot.render_prometheus()
        parsed = parse_prometheus(text)
        assert parsed[("repro_frames_total", (("stream", "1"),))] == 12.0
        assert parsed[("repro_streams_active", ())] == 3.0
        # Histogram exposition is cumulative, with +Inf as the last bucket.
        assert parsed[("repro_lat_seconds_bucket", (("le", "0.001"),))] == 1.0
        assert parsed[("repro_lat_seconds_bucket", (("le", "+Inf"),))] == 4.0
        assert parsed[("repro_lat_seconds_count", ())] == 4.0
        # Re-rendering the parsed-and-rebuilt snapshot is stable.
        assert parse_prometheus(text) == parsed

    def test_json_round_trips_losslessly(self):
        snapshot = self._registry().collect()
        assert MetricsSnapshot.from_json(snapshot.to_json()) == snapshot

    def test_help_text_and_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter(
            "repro_tricky_total", labels={"name": 'a"b\\c\nd'}, help="line\nbreak"
        ).inc()
        text = registry.collect().render_prometheus()
        parsed = parse_prometheus(text)
        assert parsed[("repro_tricky_total", (("name", 'a"b\\c\nd'),))] == 1.0
        assert "line\\nbreak" in text


class TestLatencyQuantileGauges:
    def test_exports_p50_p90_p99(self):
        registry = MetricsRegistry()
        values = [float(i) for i in range(1, 101)]
        latency_quantile_gauges(registry, "repro_lat_quantile_seconds", values)
        snapshot = registry.collect()
        assert snapshot.value(
            "repro_lat_quantile_seconds", {"quantile": "0.5"}
        ) == pytest.approx(float(np.percentile(values, 50)))
        assert snapshot.value(
            "repro_lat_quantile_seconds", {"quantile": "0.99"}
        ) == pytest.approx(float(np.percentile(values, 99)))

    def test_empty_series_is_a_noop(self):
        registry = MetricsRegistry()
        latency_quantile_gauges(registry, "repro_lat_quantile_seconds", [])
        assert registry.collect().samples == ()
