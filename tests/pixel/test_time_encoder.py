"""Tests for the light-to-time conversion chain."""

import numpy as np
import pytest

from repro.pixel.comparator import Comparator
from repro.pixel.photodiode import Photodiode
from repro.pixel.time_encoder import TimeEncoder
from repro.sensor.tdc import GlobalCounterTDC


def ideal_encoder() -> TimeEncoder:
    return TimeEncoder(
        photodiode=Photodiode(capacitance=10e-15, reset_voltage=3.3),
        comparator=Comparator(offset_sigma=0.0, delay=0.0),
        reference_voltage=1.0,
    )


class TestConstruction:
    def test_reference_must_be_below_reset(self):
        with pytest.raises(ValueError):
            TimeEncoder(reference_voltage=3.3)

    def test_voltage_swing(self):
        assert ideal_encoder().voltage_swing == pytest.approx(2.3)

    def test_set_reference_validates(self):
        encoder = ideal_encoder()
        with pytest.raises(ValueError):
            encoder.set_reference(5.0)
        encoder.set_reference(2.0)
        assert encoder.voltage_swing == pytest.approx(1.3)

    def test_set_reset_voltage_validates(self):
        encoder = ideal_encoder()
        with pytest.raises(ValueError):
            encoder.set_reset_voltage(0.5)
        encoder.set_reset_voltage(2.5)
        assert encoder.photodiode.reset_voltage == pytest.approx(2.5)


class TestTransferCurve:
    def test_time_inversely_proportional_to_current(self):
        encoder = ideal_encoder()
        currents = np.array([[1e-9, 2e-9, 4e-9]])
        times = encoder.ideal_firing_times(currents)
        assert times[0, 0] == pytest.approx(2 * times[0, 1], rel=1e-9)
        assert times[0, 1] == pytest.approx(2 * times[0, 2], rel=1e-9)

    def test_known_firing_time(self):
        encoder = ideal_encoder()
        # t = swing * C / I = 2.3 * 10 fF / 1 nA = 23 us.
        times = encoder.ideal_firing_times(np.array([[1e-9]]))
        assert times[0, 0] == pytest.approx(23e-6, rel=1e-6)

    def test_zero_current_never_fires(self):
        encoder = ideal_encoder()
        assert np.isinf(encoder.ideal_firing_times(np.array([[0.0]]))[0, 0])

    def test_delay_adds_to_firing_time(self):
        no_delay = ideal_encoder()
        with_delay = TimeEncoder(
            photodiode=Photodiode(),
            comparator=Comparator(offset_sigma=0.0, delay=50e-9),
            reference_voltage=1.0,
        )
        current = np.array([[1e-9]])
        assert with_delay.firing_times(current)[0, 0] == pytest.approx(
            no_delay.firing_times(current)[0, 0] + 50e-9
        )

    def test_offset_changes_firing_times_but_not_on_average(self):
        noisy = TimeEncoder(
            photodiode=Photodiode(),
            comparator=Comparator(offset_sigma=20e-3, autozero=False, delay=0.0, seed=1),
            reference_voltage=1.0,
        )
        clean = ideal_encoder()
        currents = np.full((32, 32), 2e-9)
        noisy_times = noisy.firing_times(currents)
        clean_times = clean.firing_times(currents)
        assert not np.allclose(noisy_times, clean_times)
        assert np.isclose(noisy_times.mean(), clean_times.mean(), rtol=0.02)

    def test_inverse_transfer_recovers_current(self):
        encoder = ideal_encoder()
        currents = np.array([[0.5e-9, 1e-9], [2e-9, 8e-9]])
        times = encoder.ideal_firing_times(currents)
        assert np.allclose(encoder.photocurrent_from_time(times), currents)

    def test_inverse_rejects_non_positive_times(self):
        with pytest.raises(ValueError):
            ideal_encoder().photocurrent_from_time(np.array([0.0]))


class TestAdaptation:
    def test_adapt_places_dim_pixel_near_end_of_window(self):
        encoder = ideal_encoder()
        window = 10e-6
        dim_current = 1e-9
        encoder.adapt_to_range(dim_current, window, margin=0.9)
        time = encoder.ideal_firing_times(np.array([[dim_current]]))[0, 0]
        assert time == pytest.approx(0.9 * window, rel=1e-6)

    def test_adapt_keeps_swing_physical(self):
        encoder = ideal_encoder()
        encoder.adapt_to_range(1e-3, 1.0)  # absurdly bright and slow
        assert encoder.voltage_swing <= encoder.photodiode.reset_voltage * 0.9 + 1e-12
        encoder2 = ideal_encoder()
        encoder2.adapt_to_range(1e-15, 1e-9)  # absurdly dim and fast
        assert encoder2.voltage_swing >= 1e-3 - 1e-12

    def test_adapt_margin_validated(self):
        with pytest.raises(ValueError):
            ideal_encoder().adapt_to_range(1e-9, 1e-5, margin=1.5)

    def test_full_scale_time(self):
        encoder = ideal_encoder()
        assert encoder.full_scale_time(1e-9) == pytest.approx(23e-6, rel=1e-6)


class TestCodeChain:
    """Photocurrent -> firing time -> counter code, and back through the ideal curve."""

    @staticmethod
    def chain() -> tuple[TimeEncoder, GlobalCounterTDC]:
        encoder = TimeEncoder(
            photodiode=Photodiode(capacitance=10e-15, reset_voltage=3.3),
            comparator=Comparator(offset_sigma=0.0, delay=0.0),
            reference_voltage=3.2,  # small swing so currents of ~1 nA land mid-range
        )
        return encoder, GlobalCounterTDC()

    def test_brighter_pixels_get_smaller_codes(self):
        encoder, tdc = self.chain()
        codes = tdc.ideal_codes(encoder.ideal_firing_times(np.array([[0.5e-9, 2e-9]])))
        assert codes[0, 1] < codes[0, 0]

    def test_zero_current_saturates(self):
        encoder, tdc = self.chain()
        codes = tdc.ideal_codes(encoder.ideal_firing_times(np.array([[0.0]])))
        assert codes[0, 0] == tdc.max_code

    def test_code_brackets_the_current(self):
        """Code c means the pixel fired in [c, c+1) periods, so its current lies
        between the inverse transfer at the bin's two edges."""
        encoder, tdc = self.chain()
        currents = np.linspace(0.3e-9, 3e-9, 32).reshape(4, 8)
        codes = tdc.ideal_codes(encoder.ideal_firing_times(currents))
        assert codes.min() >= 1 and codes.max() < tdc.max_code
        upper = encoder.photocurrent_from_time(codes * tdc.clock_period)
        lower = encoder.photocurrent_from_time((codes + 1) * tdc.clock_period)
        assert np.all(lower < currents * (1 + 1e-12))
        assert np.all(currents <= upper * (1 + 1e-12))
        recovered = encoder.photocurrent_from_time(tdc.code_to_time(codes))
        assert np.median(np.abs(recovered - currents) / currents) < 0.1

    def test_inverse_is_monotone_in_code(self):
        encoder, tdc = self.chain()
        currents = encoder.photocurrent_from_time(tdc.code_to_time(np.arange(tdc.n_codes)))
        assert np.all(np.diff(currents) < 0)
