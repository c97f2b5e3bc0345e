"""Tests for the sparsifying dictionaries."""

import numpy as np
import pytest
from scipy.fft import dctn, idctn

from repro.cs.dictionaries import (
    DCT2Dictionary,
    Haar2Dictionary,
    IdentityDictionary,
    dct_matrix,
    make_dictionary,
)


ALL_DICTS = [
    IdentityDictionary((16, 16)),
    DCT2Dictionary((16, 16)),
    Haar2Dictionary((16, 16)),
]


class TestFactory:
    def test_factory_names(self):
        assert isinstance(make_dictionary("dct", (8, 8)), DCT2Dictionary)
        assert isinstance(make_dictionary("haar", (8, 8)), Haar2Dictionary)
        assert isinstance(make_dictionary("identity", (8, 8)), IdentityDictionary)

    def test_factory_is_case_insensitive(self):
        assert isinstance(make_dictionary("DCT", (8, 8)), DCT2Dictionary)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_dictionary("curvelet", (8, 8))

    def test_haar_requires_power_of_two(self):
        with pytest.raises(ValueError):
            Haar2Dictionary((12, 12))


class TestOrthonormality:
    @pytest.mark.parametrize("dictionary", ALL_DICTS, ids=lambda d: type(d).__name__)
    def test_analyze_synthesize_round_trip(self, dictionary):
        rng = np.random.default_rng(0)
        image = rng.standard_normal(dictionary.n_pixels)
        recovered = dictionary.synthesize(dictionary.analyze(image))
        assert np.allclose(recovered, image, atol=1e-10)

    @pytest.mark.parametrize("dictionary", ALL_DICTS, ids=lambda d: type(d).__name__)
    def test_energy_preserved(self, dictionary):
        rng = np.random.default_rng(1)
        image = rng.standard_normal(dictionary.n_pixels)
        coefficients = dictionary.analyze(image)
        assert np.linalg.norm(coefficients) == pytest.approx(np.linalg.norm(image))

    @pytest.mark.parametrize("dictionary", ALL_DICTS, ids=lambda d: type(d).__name__)
    def test_atoms_are_unit_norm(self, dictionary):
        for index in (0, 7, dictionary.n_pixels - 1):
            assert np.linalg.norm(dictionary.atom(index)) == pytest.approx(1.0)

    def test_dense_matrix_is_orthogonal(self):
        dictionary = DCT2Dictionary((8, 8))
        psi = dictionary.dense()
        assert np.allclose(psi.T @ psi, np.eye(64), atol=1e-10)

    def test_haar_dense_matrix_is_orthogonal(self):
        dictionary = Haar2Dictionary((8, 8))
        psi = dictionary.dense()
        assert np.allclose(psi.T @ psi, np.eye(64), atol=1e-10)


class TestSparsification:
    def test_dct_dc_atom_is_constant(self):
        dictionary = DCT2Dictionary((8, 8))
        atom = dictionary.atom(0).reshape(8, 8)
        assert np.allclose(atom, atom[0, 0])

    def test_smooth_image_is_compressible_in_dct(self):
        from repro.optics.scenes import make_scene

        dictionary = DCT2Dictionary((32, 32))
        scene = make_scene("blobs", (32, 32), seed=1)
        profile = dictionary.sparsity_profile(scene)
        assert profile[0.05] > 0.95  # 5 % of coefficients hold >95 % of the energy

    def test_piecewise_constant_image_is_compressible_in_haar(self):
        from repro.optics.scenes import make_scene

        dictionary = Haar2Dictionary((32, 32))
        scene = make_scene("text", (32, 32), seed=1)
        profile = dictionary.sparsity_profile(scene)
        assert profile[0.2] > 0.95

    def test_white_noise_is_not_compressible(self):
        rng = np.random.default_rng(2)
        dictionary = DCT2Dictionary((32, 32))
        noise = rng.standard_normal((32, 32))
        profile = dictionary.sparsity_profile(noise)
        assert profile[0.05] < 0.3

    def test_identity_dictionary_keeps_pixel_sparsity(self):
        dictionary = IdentityDictionary((16, 16))
        image = np.zeros(256)
        image[[3, 77, 200]] = 1.0
        assert np.count_nonzero(dictionary.analyze(image)) == 3


class TestShapes:
    def test_wrong_vector_length_rejected(self):
        dictionary = DCT2Dictionary((8, 8))
        with pytest.raises(ValueError):
            dictionary.analyze(np.zeros(63))

    def test_atom_index_out_of_range(self):
        with pytest.raises(ValueError):
            DCT2Dictionary((8, 8)).atom(64)

    def test_to_image_reshapes(self):
        dictionary = DCT2Dictionary((4, 8))
        assert dictionary.to_image(np.zeros(32)).shape == (4, 8)

    def test_non_square_dct_round_trip(self):
        dictionary = DCT2Dictionary((4, 8))
        rng = np.random.default_rng(3)
        image = rng.standard_normal(32)
        assert np.allclose(dictionary.synthesize(dictionary.analyze(image)), image)


MATRIX_DCT_SHAPES = [(1, 1), (8, 8), (16, 32), (64, 64), (256, 256)]


def relative_error(got, reference):
    return np.abs(got - reference).max() / max(np.abs(reference).max(), 1e-300)


class TestMatrixDCT:
    """The cached DCT-II matrices reproduce scipy's orthonormal transform."""

    @pytest.mark.parametrize("shape", MATRIX_DCT_SHAPES)
    def test_solo_maps_match_scipy(self, shape):
        dictionary = DCT2Dictionary(shape)
        image = np.random.default_rng(0).standard_normal(shape)
        analyzed = dictionary.analyze(image.reshape(-1))
        synthesized = dictionary.synthesize(image.reshape(-1))
        assert relative_error(analyzed, dctn(image, norm="ortho").reshape(-1)) <= 1e-12
        assert relative_error(synthesized, idctn(image, norm="ortho").reshape(-1)) <= 1e-12

    @pytest.mark.parametrize("shape", MATRIX_DCT_SHAPES)
    def test_batch_maps_match_scipy_and_solo(self, shape):
        dictionary = DCT2Dictionary(shape)
        stack = np.random.default_rng(1).standard_normal((3, *shape))
        flat = stack.reshape(3, -1)
        analyzed = dictionary.analyze_batch(flat)
        synthesized = dictionary.synthesize_batch(flat)
        reference = dctn(stack, axes=(1, 2), norm="ortho").reshape(3, -1)
        assert relative_error(analyzed, reference) <= 1e-12
        reference = idctn(stack, axes=(1, 2), norm="ortho").reshape(3, -1)
        assert relative_error(synthesized, reference) <= 1e-12
        # One matmul path: a stacked row is the solo transform, byte for byte.
        for row, coefficients, image in zip(flat, analyzed, synthesized):
            assert dictionary.analyze(row).tobytes() == coefficients.tobytes()
            assert dictionary.synthesize(row).tobytes() == image.tobytes()

    @pytest.mark.parametrize("size", [1, 8, 32, 64, 256])
    def test_matrix_is_orthonormal(self, size):
        matrix = dct_matrix(size)
        assert np.abs(matrix @ matrix.T - np.eye(size)).max() <= 1e-12
        assert not matrix.flags.writeable

    @pytest.mark.parametrize("shape", [(8, 8), (16, 32)])
    def test_psi_psi_star_is_identity(self, shape):
        psi = DCT2Dictionary(shape).dense()
        identity = np.eye(psi.shape[0])
        assert np.abs(psi @ psi.T - identity).max() <= 1e-12
        assert np.abs(psi.T @ psi - identity).max() <= 1e-12

    def test_empty_batch(self):
        dictionary = DCT2Dictionary((8, 8))
        assert dictionary.synthesize_batch(np.zeros((0, 64))).shape == (0, 64)
        assert dictionary.analyze_batch(np.zeros((0, 64))).shape == (0, 64)


class TestHaarAndIdentityUntouched:
    """Only the DCT changed transform: Haar and identity keep their maps."""

    def test_haar_2x2_is_the_explicit_butterfly(self):
        a, b, c, d = 1.0, 2.0, 3.0, 5.0
        coefficients = Haar2Dictionary((2, 2)).analyze(np.array([a, b, c, d]))
        expected = 0.5 * np.array([a + b + c + d, a - b + c - d, a + b - c - d, a - b - c + d])
        np.testing.assert_allclose(coefficients, expected, rtol=0, atol=1e-15)

    def test_haar_batch_matches_solo_bytes(self):
        dictionary = Haar2Dictionary((16, 16))
        stack = np.random.default_rng(2).standard_normal((3, 256))
        for row, coefficients in zip(stack, dictionary.analyze_batch(stack)):
            assert dictionary.analyze(row).tobytes() == coefficients.tobytes()

    def test_identity_is_a_copy(self):
        dictionary = IdentityDictionary((4, 4))
        image = np.arange(16.0)
        for mapped in (dictionary.analyze(image), dictionary.synthesize(image)):
            assert mapped.tobytes() == image.tobytes()
            assert mapped is not image
