import numpy as np
import pytest

from sbadmm.grids import (ConvolutionKernel, ImageGrid, read_matrix_text,
                          read_pgm, write_matrix_text, write_pgm)


def test_image_grid_shape_and_props():
    g = ImageGrid(np.arange(6.0).reshape(2, 3))
    assert g.height == 2 and g.width == 3 and g.shape == (2, 3)


def test_image_grid_promotes_1d_row():
    g = ImageGrid(np.array([1.0, 2.0, 3.0]))
    assert g.shape == (1, 3)


def test_image_grid_rejects_nonfinite():
    with pytest.raises(ValueError):
        ImageGrid(np.array([[1.0, np.nan]]))


def test_image_grid_rejects_empty_and_3d():
    with pytest.raises(ValueError):
        ImageGrid(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        ImageGrid(np.zeros((2, 2, 2)))


def test_kernel_validation():
    with pytest.raises(ValueError):
        ConvolutionKernel(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        ConvolutionKernel(np.ones((3, 3)), (3, 0))
    with pytest.raises(ValueError):
        ConvolutionKernel(np.ones((3, 3)), (1, 1), "reflect")
    k = ConvolutionKernel.identity()
    assert k.taps.shape == (1, 1) and k.anchor == (0, 0)


def test_kernel_promotes_1d_taps():
    k = ConvolutionKernel(np.array([0.5, 0.5]), (0, 0))
    assert k.taps.shape == (1, 2)


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    img = ImageGrid(np.round(rng.uniform(0, 255, (5, 7))))
    path = str(tmp_path / "img.pgm")
    write_pgm(img, path)
    back = read_pgm(path)
    assert back.shape == img.shape
    # write_pgm rescales to the full 0..255 range
    lo, hi = img.values.min(), img.values.max()
    expected = np.round((img.values - lo) / (hi - lo) * 255.0)
    assert np.array_equal(back.values, expected)


def test_pgm_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n1 1\n255\n0\n")
    with pytest.raises(ValueError):
        read_pgm(str(path))


def test_matrix_text_exact_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    img = ImageGrid(rng.standard_normal((4, 6)))
    path = str(tmp_path / "m.txt")
    write_matrix_text(img, path)
    back = read_matrix_text(path)
    assert np.array_equal(back.values, img.values)
