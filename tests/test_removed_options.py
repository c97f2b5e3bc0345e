"""Options that nothing exercised are gone, and stay gone.

Slice 0 of a loss channel is always exempt, the burst channel always runs
its fixed two-state model, the reconnect supervisor always retries
``OSError``, a TCP read is always one 64 KiB segment, a telemetry facade
always owns its registry and an imager always draws its CA seed from its
base seed.  A governor always backs off by half, and the retransmission
buffer only evicts on ACK and capacity.  A streamed or tiled solve always
runs the DCT dictionary, FISTA and the automatic λ, and a stream's
in-flight solves always have a bound.  Each removed keyword must be
refused, not silently accepted.  A CA seed becomes Φ only through the two
shared builders of ``repro.ca.selection``, and a frame's loss report is
the ``ControlAck`` it is sent as, so the wrappers around them stay gone.
The proximal-gradient solvers are the one solver family: OMP, its
sparsity target and its column extraction are gone.  Every tile ships as a
segment group closed by a barrier, so the governor has no unsegmented
charge to select.  A reconstruction keeps its pixels once: its
``solver_result`` holds the solve's diagnostics, not the coefficients (nor
the ``sparsity`` and ``image`` read off them).
"""

import importlib.util

import pytest

import repro.cs
import repro.cs.solvers
import repro.pixel.selection
import repro.recon
import repro.recon.operator
import repro.recon.pipeline
import repro.stream
import repro.stream.node
import repro.stream.session
from repro.ca.selection import CASelectionGenerator
from repro.cs.block import BlockCompressiveSampler
from repro.cs.operators import BaseSensingOperator
from repro.cs.solvers import SolverDiagnostics, batched_proximal_gradient
from repro.recon.batch import solve_tiles_batched
from repro.recon.pipeline import _solve, reconstruct_frame, reconstruct_samples, reconstruct_tiled
from repro.optics.scenes import make_scene
from repro.sensor.config import SensorConfig
from repro.sensor.imager import CompressiveImager
from repro.stream.fault import GilbertElliottTransport, LossyTransport
from repro.stream.hub import FairSolveScheduler, ReceiverHub
from repro.stream.node import (
    BitrateGovernor,
    CameraNode,
    ReconnectSupervisor,
    RetransmitBuffer,
)
from repro.stream.receiver import StreamReceiver
from repro.stream.session import StreamSession
from repro.stream.transport import LoopbackTransport, TcpTransport
from repro.telemetry import Telemetry


async def _connect():
    return LoopbackTransport()


def _lossy(**option):
    return LossyTransport(LoopbackTransport(), seed=0, **option)


def _burst(**option):
    return GilbertElliottTransport(LoopbackTransport(), seed=0, **option)


def _supervisor(**option):
    return ReconnectSupervisor(_connect, **option)


def _tcp_recv(**option):
    return TcpTransport(None, None).recv(**option)


def _node(**option):
    return CameraNode(LoopbackTransport(), **option)


def _retransmit_buffer(**option):
    return RetransmitBuffer(4, **option)


def _session(**option):
    return StreamSession(1, None, **option)


def _tiled(**option):
    return reconstruct_tiled(None, **option)


def _batched_tiles(**option):
    return solve_tiles_batched([], **option)


def _batched_solve(**option):
    return batched_proximal_gradient([], None, regularization=0.0, **option)


def _frame_solve(**option):
    return reconstruct_frame(None, **option)


def _samples_solve(**option):
    return reconstruct_samples(None, None, None, **option)


def _inner_solve(**option):
    return _solve(None, None, solver="fista", regularization=0.0, max_iterations=None, **option)


def _block_solve(**option):
    return BlockCompressiveSampler((16, 16), block_size=8).reconstruct(None, **option)


def _governor_budget(**option):
    return BitrateGovernor().samples_for_frame(None, **option)


SOLVE_OPTIONS = ("dictionary", "solver", "regularization")
SOLVE_SIGNATURES = (ReceiverHub, StreamReceiver, _session, _tiled, _batched_tiles)


@pytest.mark.parametrize(
    "factory, option",
    [
        (_lossy, "protect_first"),
        (_burst, "protect_first"),
        (_burst, "p_good_to_bad"),
        (_burst, "p_bad_to_good"),
        (_burst, "loss_good"),
        (_burst, "loss_bad"),
        (_supervisor, "retryable"),
        (_tcp_recv, "max_bytes"),
        (Telemetry, "registry"),
        (CompressiveImager, "ca_seed_state"),
        (BitrateGovernor, "aimd_decrease"),
        (_node, "retransmit_max_age"),
        (_retransmit_buffer, "max_age"),
        (_batched_solve, "accelerated"),
        (_frame_solve, "sparsity"),
        (_samples_solve, "sparsity"),
        (_inner_solve, "sparsity"),
        (_block_solve, "sparsity"),
        (_block_solve, "solver"),
        (_governor_budget, "barrier"),
        *[(factory, option) for factory in SOLVE_SIGNATURES for option in SOLVE_OPTIONS],
    ],
)
def test_removed_keyword_is_not_an_option(factory, option):
    with pytest.raises(TypeError, match=option):
        factory(**{option: None})


def test_stalling_transport_is_not_an_option():
    assert "StallingTransport" not in repro.stream.__all__
    assert not hasattr(repro.stream, "StallingTransport")


@pytest.mark.parametrize("factory", [FairSolveScheduler, ReceiverHub])
def test_unbounded_per_stream_pending_is_refused(factory):
    with pytest.raises(TypeError, match="per_stream_pending"):
        factory(per_stream_pending=None)


def test_removed_solve_constants_are_gone():
    assert not hasattr(repro.recon.pipeline, "PROXIMAL_SOLVERS")
    assert not hasattr(StreamSession, "MAX_INFLIGHT_TILED_SOLVES")


@pytest.mark.parametrize(
    "owner, name",
    [
        (repro.recon.operator, "measurement_matrix_from_seed"),
        (repro.recon.operator, "measurement_factors_from_seed"),
        (repro.recon, "measurement_matrix_from_seed"),
        (repro.recon, "measurement_factors_from_seed"),
        (CASelectionGenerator, "measurement_matrix"),
        (CompressiveImager, "ideal_samples"),
        (repro.stream.session, "FrameLossReport"),
        (repro.stream, "FrameLossReport"),
        (repro.pixel.selection, "selection_density"),
    ],
)
def test_removed_phi_and_loss_wrappers_are_gone(owner, name):
    assert not hasattr(owner, name)
    assert name not in getattr(owner, "__all__", ())


@pytest.mark.parametrize(
    "owner, name",
    [
        (repro.cs, "omp"),
        (repro.cs.solvers, "omp"),
        (repro.recon.pipeline, "omp"),
        (BaseSensingOperator, "column"),
        (repro.stream.node, "CHUNK_OVERHEAD_BITS"),
    ],
)
def test_removed_solver_and_framing_names_are_gone(owner, name):
    assert not hasattr(owner, name)
    assert name not in getattr(owner, "__all__", ())


def test_omp_module_is_gone():
    assert importlib.util.find_spec("repro.cs.solvers.greedy") is None
    assert "omp" not in repro.recon.pipeline._SOLVERS


@pytest.mark.parametrize("name", ["coefficients", "sparsity", "image"])
def test_reconstructions_keep_no_solver_coefficients(name):
    frame = CompressiveImager(SensorConfig(rows=8, cols=8), seed=1).capture_scene(
        make_scene("blobs", (8, 8), seed=1), n_samples=24
    )
    kept = reconstruct_frame(frame, max_iterations=2).solver_result
    assert type(kept) is SolverDiagnostics
    assert not hasattr(kept, name)
