"""Multi-frame (video) operation of the compressive imager.

The paper's sensor runs continuously at 30 fps: the CA keeps evolving from
frame to frame, so consecutive frames use different measurement matrices while
the receiver stays synchronised for free (it knows the seed and how many
samples have been consumed).  :class:`VideoSequencer` models that operation:
it captures a sequence of scenes, advances the selection CA across frames
exactly as the hardware would, and produces one :class:`CompressedFrame` per
input scene, each carrying the CA state needed to rebuild its own Φ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Iterable, Iterator

import numpy as np

from repro.optics.photo import PhotoConversion
from repro.sensor.config import SensorConfig
from repro.sensor.imager import CompressedFrame, CompressiveImager
from repro.utils.rng import derive_seed
from repro.utils.validation import check_positive


@dataclass
class VideoCaptureResult:
    """The output of a multi-frame capture.

    Attributes
    ----------
    frames:
        One :class:`CompressedFrame` per input scene, in order.
    samples_per_frame:
        Compressed samples delivered for each frame.
    total_bits:
        Total payload bits over the sequence (samples only, excluding headers).
    """

    frames: list[CompressedFrame] = field(default_factory=list)
    samples_per_frame: int = 0

    @property
    def n_frames(self) -> int:
        """Number of captured frames."""
        return len(self.frames)

    @property
    def total_bits(self) -> int:
        """Total compressed payload of the sequence in bits."""
        return sum(frame.compressed_bits for frame in self.frames)

    @property
    def average_compression_ratio(self) -> float:
        """Mean delivered-samples-per-pixel over the sequence."""
        if not self.frames:
            return 0.0
        return float(np.mean([frame.compression_ratio for frame in self.frames]))


class VideoSequencer:
    """Captures a sequence of scenes with a continuously-running selection CA.

    Parameters
    ----------
    imager:
        The sensor model.  Its selection generator is advanced across frames;
        the sequencer snapshots the CA state at the start of every frame so
        each produced :class:`CompressedFrame` is independently decodable.
    conversion:
        Scene-to-photocurrent conversion shared by all frames (fixed-pattern
        noise stays fixed across the sequence, as it does on a real die).
    samples_per_frame:
        Compressed samples per frame; defaults to the configuration's
        ``R * M * N``.
    """

    def __init__(
        self,
        imager: CompressiveImager | None = None,
        *,
        conversion: PhotoConversion | None = None,
        samples_per_frame: int | None = None,
        seed: int = 2018,
    ) -> None:
        self.imager = imager or CompressiveImager(SensorConfig(), seed=seed)
        self.conversion = conversion or PhotoConversion(
            seed=derive_seed(seed, "video-photo")
        )
        if samples_per_frame is None:
            samples_per_frame = self.imager.config.samples_per_frame
        check_positive("samples_per_frame", samples_per_frame)
        self.samples_per_frame = int(samples_per_frame)

    def capture_sequence(
        self,
        scenes: Iterable[np.ndarray],
        *,
        fidelity: str = "behavioural",
        auto_expose: bool = True,
        lsb_error: bool = True,
    ) -> VideoCaptureResult:
        """Capture every scene in order, advancing the CA between frames.

        The hardware never re-seeds its CA between frames; the whole sequence
        is delegated to :meth:`~repro.sensor.imager.CompressiveImager.capture_batch`,
        which evolves one shared CA state stack for all frames, so frame
        ``k``'s measurement matrix picks up exactly where frame ``k-1``
        stopped and the full sequence is captured through the batched capture
        machinery in one pass — the rank-structured Φ @ x engine for
        ``fidelity="behavioural"``, the column-parallel arbitration engine
        (token protocol, queueing, deadline losses) for ``fidelity="event"``.

        Parameters
        ----------
        scenes : iterable of numpy.ndarray
            Normalised scenes, each of shape ``(rows, cols)``; the shared
            :class:`~repro.optics.photo.PhotoConversion` turns them into
            photocurrents (fixed-pattern noise stays fixed across frames).
        fidelity : {"behavioural", "event"}
            Per-frame capture engine.
        auto_expose, lsb_error : bool
            As in :meth:`~repro.sensor.imager.CompressiveImager.capture`.

        Returns
        -------
        VideoCaptureResult
            One independently decodable :class:`CompressedFrame` per scene.
        """
        result = VideoCaptureResult(samples_per_frame=self.samples_per_frame)
        photocurrents = [
            self.conversion.convert(np.asarray(scene, dtype=float)) for scene in scenes
        ]
        result.frames = self.imager.capture_batch(
            photocurrents,
            n_samples=self.samples_per_frame,
            fidelity=fidelity,
            auto_expose=auto_expose,
            lsb_error=lsb_error,
        )
        return result

    def stream_frames(
        self,
        scenes: Iterable[np.ndarray],
        *,
        fidelity: str = "behavioural",
        auto_expose: bool = True,
        lsb_error: bool = True,
        keep_digital_image: bool = True,
        samples_for_frame: Callable[[int], int] | None = None,
    ) -> Iterator[CompressedFrame]:
        """Yield frames one at a time while the selection CA keeps running.

        The lazy, streaming form of :meth:`capture_sequence`: each scene is
        captured through a single-frame
        :meth:`~repro.sensor.imager.CompressiveImager.capture_batch` call,
        which leaves the imager's CA positioned one pattern past the frame —
        so the produced frames are bit-identical to one batched
        :meth:`capture_sequence` over the same scenes, but each is available
        (and can go on the wire) before the next scene is even rendered.
        ``scenes`` may be an unbounded iterator; nothing is buffered.

        Parameters
        ----------
        scenes : iterable of numpy.ndarray
            Normalised scenes, consumed lazily.
        fidelity, auto_expose, lsb_error, keep_digital_image:
            As in :meth:`capture_sequence`, applied per frame.
        samples_for_frame : callable, optional
            ``frame_index -> n_samples`` override of the fixed per-frame
            sample budget — the hook the streaming bit-rate governor uses to
            degrade frames on a congested channel.  The receiver stays
            synchronised because every frame's header carries its own sample
            count.

        Yields
        ------
        CompressedFrame
            One independently decodable frame per scene, in order.
        """
        for index, scene in enumerate(scenes):
            n_samples = (
                self.samples_per_frame
                if samples_for_frame is None
                else int(samples_for_frame(index))
            )
            photocurrent = self.conversion.convert(np.asarray(scene, dtype=float))
            yield self.imager.capture_batch(
                [photocurrent],
                n_samples=n_samples,
                fidelity=fidelity,
                auto_expose=auto_expose,
                lsb_error=lsb_error,
                keep_digital_image=keep_digital_image,
            )[0]


def temporal_difference_energy(frames: list[CompressedFrame]) -> np.ndarray:
    """Relative sample-domain change between consecutive frames.

    Because consecutive frames use different selection patterns, this is not a
    motion detector by itself, but it is a cheap indicator of scene change the
    camera node can compute without reconstructing anything.
    """
    if len(frames) < 2:
        return np.zeros(0)
    energies = []
    for previous, current in zip(frames[:-1], frames[1:]):
        n = min(previous.n_samples, current.n_samples)
        a = previous.samples[:n].astype(float)
        b = current.samples[:n].astype(float)
        denominator = float(np.linalg.norm(a)) or 1.0
        energies.append(float(np.linalg.norm(b - a) / denominator))
    return np.array(energies)
