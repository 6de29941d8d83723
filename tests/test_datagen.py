"""Ensemble generators and CSV round trips."""

import json

import numpy as np
import pytest

from insense import (
    EnsembleSpec,
    MatrixParseError,
    block_layout,
    generate,
    load_matrix,
    manifest,
    save_matrix,
)


def test_generation_is_deterministic():
    spec = EnsembleSpec("gaussian", d=20, n=10, seed=3)
    np.testing.assert_array_equal(generate(spec), generate(spec))
    other = generate(EnsembleSpec("gaussian", d=20, n=10, seed=4))
    assert not np.array_equal(generate(spec), other)


def test_gaussian_moments():
    phi = generate(EnsembleSpec("gaussian", d=100, n=100, seed=0))
    assert phi.shape == (100, 100)
    assert abs(phi.mean()) < 0.05
    assert abs(phi.std() - 1.0) < 0.05


def test_uniform_range():
    phi = generate(EnsembleSpec("uniform01", d=50, n=40, seed=1))
    assert phi.min() >= 0.0 and phi.max() < 1.0
    assert abs(phi.mean() - 0.5) < 0.02


def test_bernoulli_values_and_mean():
    spec = EnsembleSpec("bernoulli01", d=50, n=50, seed=2)
    phi = generate(spec)
    assert set(np.unique(phi)) <= {0.0, 1.0}
    assert abs(phi.mean() - 0.5) < 0.02
    signed = generate(EnsembleSpec("bernoulli01", d=50, n=50, seed=2, signed=True))
    assert set(np.unique(signed)) <= {-1.0, 1.0}
    np.testing.assert_array_equal(signed, 2.0 * phi - 1.0)


def test_identity_gaussian_blocks():
    spec = EnsembleSpec("identity-gaussian", d=40, n=20, seed=5)
    phi = generate(spec)
    assert phi.shape == (40, 20)
    np.testing.assert_array_equal(phi[:20], np.eye(20))
    assert abs(phi[20:].std() - 1.0) < 0.1
    assert block_layout(spec) == {"identity": (0, 20), "gaussian": (20, 40)}


def test_uniform_gaussian_blocks():
    spec = EnsembleSpec("uniform-gaussian", d=30, n=15, seed=6, gaussian_rows=4)
    phi = generate(spec)
    gaussian, uniform = phi[:4], phi[4:]
    assert uniform.min() >= 0.0 and uniform.max() < 1.0
    assert gaussian.min() < 0.0  # standard normal block, not rescaled
    assert block_layout(spec) == {"gaussian": (0, 4), "uniform": (4, 30)}


def test_single_block_layout():
    spec = EnsembleSpec("gaussian", d=7, n=5)
    assert block_layout(spec) == {"gaussian": (0, 7)}


def test_spec_validation():
    with pytest.raises(ValueError):
        EnsembleSpec("poisson", d=4, n=4)
    with pytest.raises(ValueError):
        EnsembleSpec("identity-gaussian", d=10, n=6)
    with pytest.raises(ValueError):
        EnsembleSpec("uniform-gaussian", d=10, n=5, gaussian_rows=10)
    with pytest.raises(ValueError):
        EnsembleSpec("gaussian", d=0, n=5)
    with pytest.raises(ValueError):
        EnsembleSpec("gaussian", d=5, n=1)


@pytest.mark.parametrize("field, value", [
    ("seed", 1.5),  # was the seed-1 matrix
    ("seed", True),
    ("d", 4.0),  # was a raw TypeError
    ("n", "3"),
    ("gaussian_rows", 2.0),
    ("signed", "yes"),  # was read as true
    ("signed", 1),
])
def test_spec_fields_must_be_integers_and_signed_a_bool(field, value):
    fields = {"d": 4, "n": 3, field: value}
    with pytest.raises(ValueError, match=field):
        EnsembleSpec("bernoulli01", **fields)


@pytest.mark.parametrize("kind", ["gaussian", "uniform01", "identity-gaussian",
                                  "uniform-gaussian"])
def test_signed_applies_only_to_bernoulli01(kind):
    # was ignored: an unsigned matrix, with "signed": true in its manifest
    with pytest.raises(ValueError, match="signed applies only to bernoulli01"):
        EnsembleSpec(kind, d=8, n=4, gaussian_rows=2, signed=True)


def test_spec_takes_numpy_integers_as_ints():
    spec = EnsembleSpec("gaussian", d=np.int64(4), n=np.int32(3), seed=np.uint64(7))
    assert (spec.d, spec.n, spec.seed) == (4, 3, 7)
    assert all(type(v) is int for v in (spec.d, spec.n, spec.seed, spec.gaussian_rows))
    json.dumps(manifest(spec))


def test_manifest_structure():
    spec = EnsembleSpec("identity-gaussian", d=8, n=4, seed=11)
    info = manifest(spec)
    assert info["spec"]["kind"] == "identity-gaussian"
    assert info["spec"]["seed"] == 11
    assert info["blocks"] == {"identity": [0, 4], "gaussian": [4, 8]}
    json.dumps(info)  # must already be JSON-clean


def test_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(7)
    phi = rng.standard_normal((9, 5))
    path = tmp_path / "m.csv"
    save_matrix(path, phi)
    np.testing.assert_array_equal(load_matrix(path), phi)


def test_csv_header_and_blank_lines(tmp_path):
    phi = np.array([[1.0, 2.0], [3.0, 4.0]])
    path = tmp_path / "m.csv"
    save_matrix(path, phi, header="meta goes here")
    text = path.read_text()
    assert text.startswith("# meta goes here\n")
    np.testing.assert_array_equal(load_matrix(path), phi)
    path.write_text("# c\n\n1.0,2.0\n\n3.0,4.0\n")
    np.testing.assert_array_equal(load_matrix(path), phi)


def test_header_with_a_line_break_is_refused(tmp_path):
    # load_matrix skips one '#' line; a second header line would be read as data
    phi = np.array([[1.0, 2.0], [3.0, 4.0]])
    path = tmp_path / "m.csv"
    for header in ("a\nb", "a\r\nb", "a\rb", "a\n", "a\u2028b"):
        with pytest.raises(ValueError, match="single line"):
            save_matrix(path, phi, header=header)
        assert not path.exists()


def test_load_reports_ragged_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(MatrixParseError) as err:
        load_matrix(path)
    assert err.value.row == 1


def test_load_reports_non_numeric_cells(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0,oops\n")
    with pytest.raises(MatrixParseError) as err:
        load_matrix(path)
    assert (err.value.row, err.value.col) == (1, 1)


@pytest.mark.parametrize("token", ["nan", "inf", "1e400"])
def test_load_reports_non_finite_cells(tmp_path, token):
    path = tmp_path / "bad.csv"
    path.write_text(f"1.0,2.0\n3.0,{token}\n")
    with pytest.raises(MatrixParseError, match=f"non-finite value '{token}'") as err:
        load_matrix(path)
    assert (err.value.row, err.value.col) == (1, 1)


def test_load_rejects_empty_files(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(MatrixParseError):
        load_matrix(path)
    path.write_text("# only a comment\n")
    with pytest.raises(MatrixParseError):
        load_matrix(path)
