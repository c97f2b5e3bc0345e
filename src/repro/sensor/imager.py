"""Top-level compressive imager: scene in, compressed samples out.

:class:`CompressiveImager` wires together every block described in the paper:
the time-encoding pixel array (Section II-A), the Rule 30 selection CA
(II-B / III-A), the column bus token protocol (II-E), the global-counter TDC
and the sample-and-add chain (III-B).  Two fidelity levels are offered:

* ``"behavioural"`` — batched: pixel codes are quantised firing times and a
  whole frame is captured as one CA-matrix build plus one matmul,
  ``samples = Φ @ codes``, with the ±1 LSB late-detection error injected by
  one binomial draw per sample over its selected, unsaturated events.  This
  mirrors the paper's architecture directly — Φ is generated concurrently
  with sampling and each sample is a plain masked sum (Section II) — and it
  is exact whenever no two events of a column collide.  The batched engine
  is bit-identical to the per-pattern loop it replaced (the capture
  equivalence regression tests pin this) while being an order of magnitude
  faster, and :meth:`CompressiveImager.capture_batch` extends it to stacks
  of frames that share one CA evolution, as the 30 fps hardware does.
* ``"event"`` — event-accurate and *also* batched: the paper's column-bus
  arbitration (token protocol, collision queueing, deadline losses) is
  resolved column-parallel.  The firing times of every column are sorted
  once per frame, the bus-emission instants of a block of sample x column
  instances are produced by one vectorised single-server recurrence
  (:func:`~repro.sensor.column_bus.arbitrate_columns`), the TDC samples the
  counter at those instants in one pass and the per-column code sums are
  folded through the batched Sample & Add
  (:func:`~repro.sensor.sample_add.fold_column_sums`) with the same Eq. (1)
  bit-width discipline.  Rare collision pools of three or more events —
  where the topmost-first release rule can reorder pixels — are re-run
  through the scalar :class:`~repro.sensor.column_bus.ColumnBusArbiter`,
  which stays in place as the executable specification: the batched engine
  is event-for-event identical to the per-column loop it replaced
  (samples, lost/queued counts and LSB errors are pinned by
  ``tests/sensor/test_event_equivalence.py``), and ``engine="reference"``
  still runs that loop for verification.  This is the mode the
  token-protocol and timing-error benchmarks use.

Both fidelity levels batch across frames too: :meth:`CompressiveImager.capture_batch`
captures whole sequences through one shared CA evolution, as the 30 fps
hardware does.  The output :class:`CompressedFrame` carries the CA seed — the
only side information a receiver needs to rebuild Φ and reconstruct the
image, which is the central selling point of the paper's architecture.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ca.selection import CASelectionGenerator, selection_masks_from_states
from repro.pixel.event import PixelEvent
from repro.pixel.time_encoder import TimeEncoder, column_event_order
from repro.sensor.column_bus import ColumnBusArbiter, arbitrate_columns
from repro.sensor.config import SensorConfig
from repro.sensor.sample_add import SampleAndAdd, fold_column_sums
from repro.sensor.tdc import GlobalCounterTDC
from repro.utils.rng import SeedLike, derive_seed, new_rng
from repro.utils.validation import check_choice, check_positive

#: Pixel instances (samples x rows x cols) the event-accurate engine expands
#: per block: a 64x64 frame is arbitrated 16 samples at a time, which keeps
#: the engine's transients to a few MB whatever the sample count.
EVENT_BLOCK_SLOTS = 1 << 16

@dataclass
class CompressedFrame:
    """The output of one compressive capture.

    Attributes
    ----------
    samples:
        The compressed samples, one integer per selection pattern.
    seed_state:
        The CA seed — the side information shared with the receiver.
    rule_number, steps_per_sample, warmup_steps:
        CA parameters needed (together with the seed) to rebuild Φ.
    config:
        The sensor configuration the frame was captured with.
    digital_image:
        The ideal per-pixel TDC codes (the image the compressed samples are
        linear combinations of); kept for ground-truth comparisons.
    metadata:
        Capture statistics (lost events, queueing, LSB errors, fidelity).
    """

    samples: np.ndarray
    seed_state: np.ndarray
    rule_number: int
    steps_per_sample: int
    warmup_steps: int
    config: SensorConfig
    digital_image: np.ndarray | None = None
    metadata: dict[str, object] = field(default_factory=dict)

    @property
    def n_samples(self) -> int:
        """Number of compressed samples in the frame."""
        return int(self.samples.size)

    @property
    def compression_ratio(self) -> float:
        """Delivered samples divided by the number of pixels."""
        return self.n_samples / self.config.n_pixels

    @property
    def compressed_bits(self) -> int:
        """Bits needed to transmit the compressed samples."""
        return self.n_samples * self.config.compressed_sample_bits

    @property
    def raw_bits(self) -> int:
        """Bits needed to transmit the uncompressed digital image."""
        return self.config.n_pixels * self.config.pixel_bits

    @property
    def bit_savings(self) -> float:
        """Fraction of the raw read-out bits saved by compressive delivery."""
        return 1.0 - self.compressed_bits / self.raw_bits

    def measurement_matrix(self) -> np.ndarray:
        """Rebuild Φ from the seed — what the receiver does before reconstruction."""
        generator = CASelectionGenerator(
            self.config.rows,
            self.config.cols,
            seed_state=self.seed_state,
            rule=self.rule_number,
            steps_per_sample=self.steps_per_sample,
            warmup_steps=self.warmup_steps,
        )
        return generator.measurement_matrix(self.n_samples)


class CompressiveImager:
    """Behavioural model of the full sensor chip.

    Parameters
    ----------
    config:
        Architectural parameters (defaults to the Table II prototype).
    encoder:
        The light-to-time conversion chain; a default encoder is built when
        omitted.
    ca_seed_state:
        Explicit CA seed bits (``rows + cols`` of them).  Random when omitted.
    rule:
        CA rule number (30 in the paper).
    steps_per_sample, warmup_steps:
        CA sequencing parameters.
    seed:
        Base seed for every stochastic element (CA seed draw, noise, LSB
        error injection), making captures reproducible end to end.
    """

    def __init__(
        self,
        config: SensorConfig | None = None,
        *,
        encoder: TimeEncoder | None = None,
        ca_seed_state: np.ndarray | None = None,
        rule: int = 30,
        steps_per_sample: int = 1,
        warmup_steps: int = 8,
        seed: int = 2018,
    ) -> None:
        self.config = config or SensorConfig()
        self.encoder = encoder or TimeEncoder()
        self.seed = int(seed)
        self.rule_number = int(rule)
        self.steps_per_sample = int(steps_per_sample)
        self.warmup_steps = int(warmup_steps)
        self.selection = CASelectionGenerator(
            self.config.rows,
            self.config.cols,
            seed_state=ca_seed_state,
            rule=rule,
            steps_per_sample=steps_per_sample,
            warmup_steps=warmup_steps,
            seed=derive_seed(self.seed, "ca-seed"),
        )
        self.tdc = GlobalCounterTDC(
            clock_frequency=self.config.clock_frequency,
            n_bits=self.config.pixel_bits,
        )
        self.arbiter = ColumnBusArbiter(event_duration=self.config.event_duration)
        if self.config.conversion_time > self.config.compressed_sample_period:
            raise ValueError(
                "the TDC conversion window does not fit in the compressed-sample "
                f"period ({self.config.conversion_time:.3e} s > "
                f"{self.config.compressed_sample_period:.3e} s); lower the frame "
                "rate, the compression ratio or the counter depth"
            )

    # ------------------------------------------------------------- exposure
    def auto_expose(self, photocurrent: np.ndarray, *, margin: float = 0.9) -> None:
        """Adapt ``V_ref`` so the dimmest pixel fires inside the conversion window.

        This is the on-line ``V_rst``/``V_ref`` adaptation the paper
        mentions; without it a scene with very dim pixels would saturate at
        the maximum code (the pulses never arrive).
        """
        photocurrent = np.asarray(photocurrent, dtype=float)
        positive = photocurrent[photocurrent > 0.0]
        if positive.size == 0:
            raise ValueError("photocurrent must contain at least one positive entry")
        self.encoder.adapt_to_range(
            float(positive.min()), self.config.conversion_time, margin=margin
        )

    def firing_times(self, photocurrent: np.ndarray, *, rng: SeedLike = None) -> np.ndarray:
        """Per-pixel firing times for the given photocurrent map."""
        photocurrent = np.asarray(photocurrent, dtype=float)
        if photocurrent.shape != (self.config.rows, self.config.cols):
            raise ValueError(
                f"photocurrent must have shape {(self.config.rows, self.config.cols)}, "
                f"got {photocurrent.shape}"
            )
        return self.encoder.firing_times(photocurrent, rng=rng)

    def digital_image(self, photocurrent: np.ndarray, *, rng: SeedLike = None) -> np.ndarray:
        """The ideal TDC code of every pixel — the digital image Φ acts on."""
        return self.tdc.ideal_codes(self.firing_times(photocurrent, rng=rng))

    # -------------------------------------------------------------- capture
    def capture(
        self,
        photocurrent: np.ndarray,
        *,
        n_samples: int | None = None,
        fidelity: str = "behavioural",
        auto_expose: bool = True,
        lsb_error: bool = True,
        keep_digital_image: bool = True,
        engine: str = "batched",
    ) -> CompressedFrame:
        """Capture one compressive frame from a photocurrent map.

        The frame is the one :meth:`capture_batch` would give for a
        single-frame batch: the same per-frame core (:meth:`_capture_frame`)
        runs from the reset CA.  Unlike :meth:`capture_batch`, the imager's
        CA seed and warm-up are left as they were, so every capture of the
        same scene starts from the same selection pattern.

        Parameters
        ----------
        photocurrent : numpy.ndarray
            Per-pixel photocurrent (A), shape ``(rows, cols)``, any real
            dtype (converted to ``float64``).
        n_samples : int, optional
            Number of compressed samples; defaults to ``R * M * N`` from the
            configuration.
        fidelity : {"behavioural", "event"}
            ``"behavioural"`` (vectorised Φ @ x) or ``"event"`` (full token
            protocol and sample-and-add registers, column-parallel).
        auto_expose : bool
            Adapt ``V_ref`` to the scene before capturing.
        lsb_error : bool
            Model the late-detection +1 LSB error (stochastically in
            behavioural mode, exactly in event mode).
        keep_digital_image : bool
            Store the ideal code image in the returned frame.
        engine : {"batched", "reference"}
            The reference engine runs the event-accurate capture through the
            original per-column Python loop — the executable specification
            the batched engine is pinned against; behavioural captures are
            batched either way.

        Returns
        -------
        CompressedFrame
            Samples (``int64``, shape ``(n_samples,)``), the CA seed, the
            configuration and the capture statistics ``metadata``.
        """
        check_choice("engine", engine, ("batched", "reference"))
        n_samples = self._check_capture(fidelity, n_samples)
        self.selection.reset()
        return self._capture_frame(
            np.asarray(photocurrent, dtype=float),
            self.selection.next_states(n_samples),
            fidelity=fidelity,
            engine=engine,
            auto_expose=auto_expose,
            lsb_error=lsb_error,
            keep_digital_image=keep_digital_image,
            seed_state=self.selection.seed_state,
            warmup_steps=self.warmup_steps,
        )

    def _check_capture(self, fidelity: str, n_samples: int | None) -> int:
        """Validate the fidelity and resolve the per-frame sample budget."""
        check_choice("fidelity", fidelity, ("behavioural", "event"))
        if n_samples is None:
            n_samples = self.config.samples_per_frame
        check_positive("n_samples", n_samples)
        return int(n_samples)

    def _capture_frame(
        self,
        photocurrent: np.ndarray,
        states: np.ndarray,
        *,
        fidelity: str,
        engine: str,
        auto_expose: bool,
        lsb_error: bool,
        keep_digital_image: bool,
        seed_state: np.ndarray,
        warmup_steps: int,
    ) -> CompressedFrame:
        """The per-frame capture core shared by :meth:`capture` and
        :meth:`capture_batch`: expose, encode, sample one frame's CA state
        stack and box the result.

        The noise draws (comparator offsets, LSB-error injection) are
        re-derived from the imager seed for every frame, so the same scene
        captured at both fidelity levels sees the same analog front end and
        the two paths can be compared exactly.
        """
        if auto_expose:
            self.auto_expose(photocurrent)
        rng = new_rng(derive_seed(self.seed, "capture"))
        times = self.firing_times(photocurrent, rng=rng)
        codes = self.tdc.ideal_codes(times)
        if fidelity == "behavioural":
            lsb_probability = self._behavioural_lsb_probability(lsb_error)
            samples, n_bumped = self._behavioural_samples(
                states, codes, lsb_probability=lsb_probability, rng=rng
            )
            metadata = self._behavioural_metadata(
                states, times, lsb_probability, n_bumped
            )
        elif engine == "reference":
            samples, metadata = self._capture_event_reference(
                times, states, lsb_error=lsb_error
            )
        else:
            samples, metadata = self._capture_event(times, states, lsb_error=lsb_error)
        metadata["fidelity"] = fidelity
        metadata["n_saturated_pixels"] = int(np.count_nonzero(codes >= self.tdc.max_code))
        return CompressedFrame(
            samples=samples,
            seed_state=seed_state,
            rule_number=self.rule_number,
            steps_per_sample=self.steps_per_sample,
            warmup_steps=warmup_steps,
            config=self.config,
            digital_image=codes if keep_digital_image else None,
            metadata=metadata,
        )

    def capture_scene(
        self,
        scene: np.ndarray,
        *,
        conversion=None,
        n_samples: int | None = None,
        fidelity: str = "behavioural",
        **kwargs,
    ) -> CompressedFrame:
        """Convenience wrapper: convert a normalised scene to photocurrents and capture."""
        from repro.optics.photo import PhotoConversion

        conversion = conversion or PhotoConversion(seed=derive_seed(self.seed, "photo"))
        photocurrent = conversion.convert(np.asarray(scene, dtype=float))
        return self.capture(
            photocurrent, n_samples=n_samples, fidelity=fidelity, **kwargs
        )

    def capture_batch(
        self,
        photocurrents,
        *,
        n_samples: int | None = None,
        fidelity: str = "behavioural",
        auto_expose: bool = True,
        lsb_error: bool = True,
        keep_digital_image: bool = True,
    ) -> list[CompressedFrame]:
        """Capture a stack of frames with a continuously-running selection CA.

        This is the batched multi-frame fast path: the CA states for the
        *whole sequence* are evolved in one pass and each frame consumes its
        own slice — through the rank-structured Φ @ x engine in behavioural
        fidelity, or through the column-parallel arbitration engine in event
        fidelity.  Consecutive frames overlap by one selection pattern,
        exactly as the hardware's free-running CA does (frame ``k+1``'s first
        pattern is the state frame ``k`` stopped on), so every produced frame
        remains independently decodable from its own ``seed_state``.

        The result is bit-identical to capturing the frames one by one and
        re-seeding the generator from the CA's end state between frames —
        the loop :class:`~repro.sensor.video.VideoSequencer` used to run —
        and the imager's selection generator is left positioned after the
        last frame, so further captures continue the same CA evolution.

        Parameters
        ----------
        photocurrents : iterable of numpy.ndarray
            Per-frame photocurrent maps, each of shape ``(rows, cols)``.
        n_samples : int, optional
            Compressed samples per frame; defaults to ``R * M * N``.
        fidelity : {"behavioural", "event"}
            Capture engine, as in :meth:`capture`.
        auto_expose, lsb_error, keep_digital_image : bool
            As in :meth:`capture`, applied to every frame.

        Returns
        -------
        list of CompressedFrame
            One frame per input scene, in order, each independently
            decodable from its own ``seed_state``.
        """
        n_samples = self._check_capture(fidelity, n_samples)
        photocurrents = [np.asarray(current, dtype=float) for current in photocurrents]
        if not photocurrents:
            return []

        # One batched CA evolution covers the whole sequence: frame f uses
        # global states [f*(n_samples-1), f*(n_samples-1) + n_samples).
        first_seed_state = self.selection.seed_state
        first_warmup = self.warmup_steps
        states = self._sequence_states(len(photocurrents) * (n_samples - 1) + 1)
        frames: list[CompressedFrame] = []
        for frame_index, photocurrent in enumerate(photocurrents):
            start = frame_index * (n_samples - 1)
            frames.append(
                self._capture_frame(
                    photocurrent,
                    states[start : start + n_samples],
                    fidelity=fidelity,
                    engine="batched",
                    auto_expose=auto_expose,
                    lsb_error=lsb_error,
                    keep_digital_image=keep_digital_image,
                    seed_state=first_seed_state if frame_index == 0 else states[start].copy(),
                    warmup_steps=first_warmup if frame_index == 0 else 0,
                )
            )
        # Leave the imager's CA where the sequence ended: the last state
        # becomes the seed of whatever is captured next, with no warm-up
        # (the register is already well mixed).
        self.selection = CASelectionGenerator(
            self.config.rows,
            self.config.cols,
            seed_state=states[-1],
            rule=self.rule_number,
            steps_per_sample=self.steps_per_sample,
            warmup_steps=0,
        )
        self.warmup_steps = 0
        return frames

    def _sequence_states(self, n_states: int) -> np.ndarray:
        """Evolve the CA states of a whole capture sequence in one pass.

        Starts from the generator's post-warm-up seed position (what
        ``selection.reset()`` rewinds to) without disturbing the generator
        itself, mirroring how each standalone capture begins.
        """
        generator = CASelectionGenerator(
            self.config.rows,
            self.config.cols,
            seed_state=self.selection.seed_state,
            rule=self.rule_number,
            steps_per_sample=self.steps_per_sample,
            warmup_steps=self.warmup_steps,
        )
        return generator.next_states(int(n_states))

    # ----------------------------------------------------- behavioural path
    def _behavioural_lsb_probability(self, lsb_error: bool) -> float:
        if not lsb_error:
            return 0.0
        # A pulse slips into the next clock period when queueing pushes it
        # across a tick boundary; the per-event probability is bounded by
        # the chance of colliding with another event of the same column.
        return self.config.event_overlap_probability(self.config.rows // 2)

    @staticmethod
    def _rank_structured_project(
        row_signals: np.ndarray, col_signals: np.ndarray, image: np.ndarray
    ) -> np.ndarray:
        """``Φ @ image.ravel()`` without materialising Φ.

        The XOR construction makes ``Φ[i] = R_i ⊕ C_i = R_i + C_i − 2 R_i C_i``
        a rank-structured mask, so one frame's projection reduces to three
        small matmuls over the raw row/column CA signals.  The arithmetic
        runs in whatever float dtype the three operands carry.
        """
        return (
            row_signals @ image.sum(axis=1)
            + col_signals @ image.sum(axis=0)
            - 2.0 * ((row_signals @ image) * col_signals).sum(axis=1)
        )

    def _eligible_events(
        self,
        states: np.ndarray,
        row_signals: np.ndarray,
        col_signals: np.ndarray,
        codes: np.ndarray,
    ) -> np.ndarray:
        """Selected, unsaturated events per sample: where an LSB bump can land.

        A bump on a saturated code clips back to ``max_code``, so only the
        selected pixels below it count.  With none saturated that is the
        factor-sum count ``nR·(cols − nC) + (rows − nR)·nC``; otherwise it is
        the rank-structured projection of the 0/1 live image (exact: every
        count is an integer far below 2**53).
        """
        rows, cols = self.config.rows, self.config.cols
        live = codes < self.tdc.max_code
        if live.all():
            n_row_high = states[:, :rows].sum(axis=1, dtype=np.int64)
            n_col_high = states[:, rows:].sum(axis=1, dtype=np.int64)
            return n_row_high * (cols - n_col_high) + (rows - n_row_high) * n_col_high
        live_image = live.reshape(rows, cols).astype(row_signals.dtype)
        return self._rank_structured_project(row_signals, col_signals, live_image).astype(np.int64)

    def _behavioural_samples(
        self,
        states: np.ndarray,
        codes: np.ndarray,
        *,
        lsb_probability: float,
        rng: np.random.Generator,
    ):
        """One frame's compressed samples from its CA state stack, fully batched.

        ``samples = Φ @ codes`` without materialising Φ: the XOR construction
        makes ``Φ[i] = R_i ⊕ C_i = R_i + C_i - 2 R_i C_i`` a rank-structured
        mask, so the whole frame reduces to three small matmuls over the raw
        row/column CA signals.  All intermediates are integers well below
        2**53, so the float64 BLAS path is exact and the result equals the
        integer matmul bit for bit.

        The +1 LSB late-detection error hits each selected, unsaturated
        event independently with probability ``p``, so sample ``i`` gains a
        Binomial(eligible_i, p) number of bumps
        (:meth:`_eligible_events`).  They are drawn as one vector
        ``rng.binomial`` call over the frame's samples, which consumes the
        generator stream exactly as one scalar draw per pattern in sample
        order does — the per-pattern loop the capture-equivalence tests pin
        this engine against, bit for bit.
        """
        rows, cols = self.config.rows, self.config.cols
        row_signals = states[:, :rows].astype(np.float64)
        col_signals = states[:, rows:].astype(np.float64)
        image = codes.reshape(rows, cols).astype(np.float64)
        samples = self._rank_structured_project(
            row_signals, col_signals, image
        ).astype(np.int64)
        if lsb_probability <= 0.0:
            return samples, 0
        eligible = self._eligible_events(states, row_signals, col_signals, codes)
        bumps = rng.binomial(eligible, lsb_probability)
        return samples + bumps, int(bumps.sum())

    def _behavioural_metadata(
        self,
        states: np.ndarray,
        times: np.ndarray,
        lsb_probability: float,
        n_bumped: int,
    ) -> dict[str, object]:
        """Behavioural capture statistics, with *modelled* event counts.

        The behavioural engine never arbitrates a bus, so it cannot count
        lost or queued events exactly; instead of hard-coding zeros it
        reports what the paper's overlap-probability model predicts:

        * ``n_lost_events`` — the exact number of selected events whose pulse
          falls outside the conversion window (the event engine's pre-filter
          losses).  Note the semantic difference: the event engine drops
          these pulses entirely, while the behavioural sum still counts their
          saturated ``max_code`` value.
        * ``n_queued_events`` — the *expected* number of queued events, a
          float: (delivered events) x (per-event overlap probability).

        ``event_statistics`` is ``"modelled"`` here and ``"exact"`` for event
        fidelity, so downstream consumers can tell the two apart.  ``dtype``
        records the arithmetic width of the capture: always ``"float64"``,
        a key the v2 frame statistics block carries on the wire.
        """
        rows, cols = self.config.rows, self.config.cols
        n_row_high = states[:, :rows].sum(axis=1, dtype=np.int64)
        n_col_high = states[:, rows:].sum(axis=1, dtype=np.int64)
        n_selected = int(
            (n_row_high * (cols - n_col_high) + (rows - n_row_high) * n_col_high).sum()
        )
        outside_window = ~(np.isfinite(times) & (times < self.tdc.conversion_window))
        n_lost = 0
        if outside_window.any():
            # The selected lost events are Φ applied to the 0/1 lost image;
            # every partial sum is an integer below 2**53, so float64 is exact.
            n_lost = int(
                self._rank_structured_project(
                    states[:, :rows].astype(np.float64),
                    states[:, rows:].astype(np.float64),
                    outside_window.reshape(rows, cols).astype(np.float64),
                ).sum()
            )
        overlap = self.config.event_overlap_probability(self.config.rows // 2)
        return {
            "lsb_error_probability": float(lsb_probability),
            "n_lsb_errors": int(n_bumped),
            "n_lost_events": n_lost,
            "n_queued_events": float((n_selected - n_lost) * overlap),
            "event_statistics": "modelled",
            "dtype": "float64",
        }

    # ------------------------------------------------------------ event path
    def _capture_event(self, times: np.ndarray, states: np.ndarray, *, lsb_error: bool):
        """Event-accurate capture of one frame, column-parallel.

        The per-event Python loop this replaces walked every pattern, column
        and pixel object; here each block of samples is four numpy passes:

        1. sort each column's firing times once (they are shared by every
           selection pattern) and expand the block's CA states into
           per-(sample, column) activity flags over that sorted order;
        2. run the vectorised single-server recurrence of
           :func:`~repro.sensor.column_bus.arbitrate_columns` over the
           block's sample x column bus instances at once — collision pools
           of three or more events fall back to the scalar arbiter, which
           remains the executable specification;
        3. sample the global counter at every delivered emission instant in
           one :meth:`~repro.sensor.tdc.GlobalCounterTDC.late_detection_codes`
           call;
        4. fold the per-column code sums through the batched Sample & Add.

        Arbitration is independent per sample, so the samples are taken
        :data:`EVENT_BLOCK_SLOTS` pixel instances at a time and only the
        per-column code sums and event counts are kept across blocks:
        memory stays bounded whatever the sample count.  The result —
        samples, lost/queued counts, LSB errors, maximum queue delay — is
        event-for-event identical to the reference loop
        (``tests/sensor/test_event_equivalence.py`` pins this).
        """
        rows, cols = self.config.rows, self.config.cols
        n_samples = states.shape[0]
        column_order = column_event_order(times, self.tdc.conversion_window)
        block = max(1, EVENT_BLOCK_SLOTS // (rows * cols))
        column_sums = np.empty((n_samples, cols), dtype=np.int64)
        n_lost = n_queued = n_lsb_errors = 0
        max_queue_delay = 0.0
        for start in range(0, n_samples, block):
            stop = min(start + block, n_samples)
            sums, lost, queued, lsb_errors, delay = self._arbitrate_event_block(
                states[start:stop], column_order, lsb_error=lsb_error
            )
            column_sums[start:stop] = sums
            n_lost += lost
            n_queued += queued
            n_lsb_errors += lsb_errors
            max_queue_delay = max(max_queue_delay, delay)
        samples = fold_column_sums(
            column_sums,
            column_bits=self.config.column_sum_bits,
            sample_bits=self.config.compressed_sample_bits,
        )
        metadata = {
            "n_lost_events": n_lost,
            "n_queued_events": n_queued,
            "n_lsb_errors": n_lsb_errors,
            "max_queue_delay": max_queue_delay,
            "event_statistics": "exact",
        }
        return samples, metadata

    def _arbitrate_event_block(
        self,
        states: np.ndarray,
        column_order: tuple[np.ndarray, np.ndarray, np.ndarray],
        *,
        lsb_error: bool,
    ) -> tuple[np.ndarray, int, int, int, float]:
        """One sample block of :meth:`_capture_event`.

        Returns the block's ``(n_block, cols)`` per-column code sums, then
        its lost, queued and LSB-error event counts and maximum queue delay.
        """
        rows, cols = self.config.rows, self.config.cols
        n_samples = states.shape[0]
        deadline = self.tdc.conversion_window
        order, sorted_times, valid = column_order

        row_signals = states[:, :rows].astype(bool)
        col_signals = states[:, rows:].astype(bool)
        selected = row_signals[:, :, None] != col_signals[:, None, :]
        n_lost_outside = int(np.count_nonzero(selected & ~valid[None, :, :]))
        eligible = selected & valid[None, :, :]

        # Re-order the row axis of every column into firing order and fold
        # (sample, column) into one group axis: each group is one bus.
        active = np.take_along_axis(eligible, order[None, :, :], axis=1)
        n_groups = n_samples * cols
        active = active.transpose(0, 2, 1).reshape(n_groups, rows)
        fire_times = np.broadcast_to(
            sorted_times.T[None], (n_samples, cols, rows)
        ).reshape(n_groups, rows)
        slot_rows = np.broadcast_to(order.T[None], (n_samples, cols, rows)).reshape(
            n_groups, rows
        )
        batch = arbitrate_columns(
            fire_times,
            active,
            slot_rows,
            event_duration=self.config.event_duration,
            deadline=deadline,
        )

        delivered = batch.delivered
        emit_times = batch.emit_times[delivered]
        paired_fires = batch.fire_times[delivered]
        sample_times = emit_times if lsb_error else paired_fires
        codes, ideal = self.tdc.late_detection_codes(sample_times, paired_fires)
        delays = emit_times - paired_fires

        code_matrix = np.zeros(delivered.shape, dtype=np.int64)
        code_matrix[delivered] = codes
        return (
            code_matrix.sum(axis=1).reshape(n_samples, cols),
            n_lost_outside + batch.n_dropped,
            int(np.count_nonzero(delays > 0.0)),
            int(np.count_nonzero(codes != ideal)),
            float(delays.max()) if delays.size else 0.0,
        )

    def _capture_event_reference(
        self,
        times: np.ndarray,
        states: np.ndarray,
        *,
        lsb_error: bool,
    ):
        """The original per-column event loop — the executable specification.

        Every selection pattern (one CA state's ``S_i XOR S_j`` mask) walks
        every column through the scalar
        :class:`~repro.sensor.column_bus.ColumnBusArbiter` and the register
        level :class:`~repro.sensor.sample_add.SampleAndAdd`.  Kept (and
        reachable via ``capture(engine="reference")``) so the equivalence
        suite and the event-fidelity benchmarks can pin the batched engine
        against it event for event.
        """
        adder = SampleAndAdd(
            n_columns=self.config.cols,
            column_bits=self.config.column_sum_bits,
            sample_bits=self.config.compressed_sample_bits,
        )
        rows, cols = self.config.rows, self.config.cols
        masks = selection_masks_from_states(states, rows, cols).reshape(-1, rows, cols)
        samples = np.empty(states.shape[0], dtype=np.int64)
        n_lost = 0
        n_queued = 0
        n_lsb_errors = 0
        max_queue_delay = 0.0
        deadline = self.tdc.conversion_window
        for index, mask in enumerate(masks):
            adder.reset()
            for col in range(self.config.cols):
                selected_rows = np.nonzero(mask[:, col])[0]
                events: list[PixelEvent] = []
                for row in selected_rows:
                    fire_time = times[row, col]
                    if not np.isfinite(fire_time) or fire_time >= deadline:
                        n_lost += 1
                        continue
                    events.append(
                        PixelEvent(row=int(row), col=int(col), fire_time=float(fire_time))
                    )
                if not events:
                    continue
                result = self.arbiter.arbitrate(events, deadline=deadline)
                n_lost += len(events) - result.n_events
                n_queued += result.n_queued
                max_queue_delay = max(max_queue_delay, result.max_queue_delay)
                for event in result.events:
                    sample_time = event.emit_time if lsb_error else event.fire_time
                    code = int(self.tdc.sample(np.array([sample_time]))[0])
                    ideal = int(self.tdc.sample(np.array([event.fire_time]))[0])
                    if code != ideal:
                        n_lsb_errors += 1
                    adder.add_code(event.col, code)
            samples[index] = adder.compressed_sample()
        metadata = {
            "n_lost_events": int(n_lost),
            "n_queued_events": int(n_queued),
            "n_lsb_errors": int(n_lsb_errors),
            "max_queue_delay": float(max_queue_delay),
            "event_statistics": "exact",
        }
        return samples, metadata

    # ------------------------------------------------------------ reporting
    def ideal_samples(self, codes: np.ndarray, n_samples: int) -> np.ndarray:
        """Compressed samples with a perfect read-out (no LSB error, no losses).

        Used as the reference when quantifying the influence of the
        late-detection error (benchmark E8).
        """
        check_positive("n_samples", n_samples)
        matrix = self.selection.measurement_matrix(int(n_samples))
        return matrix.astype(np.int64) @ codes.reshape(-1).astype(np.int64)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompressiveImager(rows={self.config.rows}, cols={self.config.cols}, "
            f"rule={self.rule_number}, R={self.config.compression_ratio})"
        )
