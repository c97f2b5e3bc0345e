"""Runnable demo: scraping a live, fully instrumented ingest fleet.

A small fleet of camera nodes streams into one :class:`ReceiverHub` with a
shared :class:`~repro.telemetry.Telemetry` facade wired through every layer,
so each frame carries a six-stage lifecycle trace (capture → encode →
transport → decode → queue_wait → solve) and every hub/session counter
lands on the metrics registry.  While the fleet runs, the demo:

* scrapes ``GET /metrics`` from the hub's HTTP endpoint — the exact text a
  Prometheus server would ingest — and parses a few headline series back;
* prints the per-stage latency summary from the ``repro_stage_seconds``
  histogram;
* ranks the top-N slowest frames from the tracer and prints their traces,
  the first thing an operator looks at when one camera lags the fleet.

See docs/OPERATIONS.md ("Observability") for the full metric catalog and
how to read a frame trace.

Run:  python examples/observability.py
"""

import asyncio

from repro import (
    CameraNode,
    CompressiveImager,
    LoopbackTransport,
    ReceiverHub,
    SensorConfig,
    make_scene,
)
from repro.sensor.video import VideoSequencer
from repro.telemetry import STAGES, Telemetry, parse_prometheus

N_NODES = 6
N_FRAMES = 2
TOP_N = 3
CONFIG = SensorConfig(rows=16, cols=16)
SCENES = [make_scene("blobs", (16, 16), seed=index) for index in range(N_FRAMES)]


async def scrape(port, path="/metrics"):
    """One HTTP GET against the hub's scrape endpoint; returns the body."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET {path} HTTP/1.0\r\nHost: localhost\r\n\r\n".encode("ascii"))
    await writer.drain()
    raw = await reader.read()
    writer.close()
    return raw.partition(b"\r\n\r\n")[2].decode("utf-8")


async def instrumented_fleet(telemetry):
    """N instrumented nodes over loopback, metrics endpoint open throughout."""
    hub = ReceiverHub(max_iterations=5, telemetry=telemetry)
    await hub.serve_metrics()

    async def one_node(stream_id):
        transport = LoopbackTransport(max_buffered=4)
        sequencer = VideoSequencer(
            CompressiveImager(CONFIG, seed=stream_id),
            samples_per_frame=40,
            seed=stream_id,
        )
        node = CameraNode(
            transport, stream_id=stream_id, gop_size=N_FRAMES, telemetry=telemetry
        )
        send = asyncio.create_task(node.stream_video(sequencer, SCENES))
        await hub.attach(transport)
        await send

    await asyncio.gather(*(one_node(n) for n in range(1, N_NODES + 1)))
    exposition = await scrape(hub.metrics_port)
    await hub.close()
    return hub, exposition


def main() -> None:
    print(f"Streaming {N_NODES} instrumented nodes x {N_FRAMES} frames "
          "into one hub, scraping it live\n")
    telemetry = Telemetry()
    hub, exposition = asyncio.run(instrumented_fleet(telemetry))

    # What Prometheus would have ingested from GET /metrics.
    series = parse_prometheus(exposition)
    frames = series[("repro_hub_frames_total", ())]
    streams = series[("repro_hub_streams_completed_total", ())]
    p99 = series[("repro_hub_frame_latency_quantile_seconds", (("quantile", "0.99"),))]
    print(f"scraped :{hub.metrics_port}/metrics — {len(series)} series")
    print(f"  streams completed   {streams:.0f}")
    print(f"  frames decoded      {frames:.0f}")
    print(f"  p99 frame latency   {p99 * 1e3:.2f} ms")

    # Per-stage latency from the shared stage histogram.
    snapshot = telemetry.metrics()
    print("\nmean seconds per pipeline stage:")
    for stage in STAGES:
        sample = snapshot.get("repro_stage_seconds", {"stage": stage})
        if sample is not None and sample.count:
            print(f"  {stage:<10} {sample.sum / sample.count * 1e3:8.3f} ms "
                  f"(n={sample.count})")

    # The operator's first question: which frames were slowest, and where?
    print(f"\ntop {TOP_N} slowest frames (by whole-pipeline envelope):")
    for trace in telemetry.tracer.slowest(TOP_N):
        print(f"  {trace.describe()}")

    all_traced = len(telemetry.tracer) == N_NODES * N_FRAMES
    print(f"\nevery frame of every stream carries a full trace: {all_traced}")


if __name__ == "__main__":
    main()
