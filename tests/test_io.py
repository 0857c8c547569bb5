import json

import numpy as np
import pytest

from bsmx import io
from bsmx.model import BlockSparseEstimate, densify


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    for shape in [(5, 7), (1, 4), (6, 1), (1, 1)]:
        a = rng.standard_normal(shape)
        path = tmp_path / "m.csv"
        io.write_matrix_csv(path, a)
        back = io.read_matrix(path)
        assert back.shape == shape
        assert np.array_equal(back, a)


def test_binary_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    a = rng.standard_normal((13, 3))
    path = tmp_path / "m.bsmx"
    io.write_matrix_binary(path, a)
    with open(path, "rb") as fh:
        assert fh.read(4) == b"BSMX"
    back = io.read_matrix(path)
    assert np.array_equal(back, a)


def test_binary_truncation_detected(tmp_path):
    a = np.ones((4, 4))
    path = tmp_path / "m.bsmx"
    io.write_matrix_binary(path, a)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ValueError, match="payload is 120 bytes, expected 128"):
        io.read_matrix(path)


def test_binary_oversized_payload_detected(tmp_path):
    path = tmp_path / "m.bsmx"
    io.write_matrix_binary(path, np.ones((4, 4)))
    path.write_bytes(path.read_bytes() + bytes(8))
    with pytest.raises(ValueError, match="payload is 136 bytes, expected 128"):
        io.read_matrix(path)


def test_binary_read_returns_one_owned_array(tmp_path):
    a = np.random.default_rng(3).standard_normal((5, 3))
    path = tmp_path / "m.bsmx"
    io.write_matrix_binary(path, a)
    back = io.read_matrix(path)
    assert back.flags.owndata and back.flags.c_contiguous
    assert back.dtype == np.float64
    assert back.tobytes() == a.tobytes()


def test_csv_parse_error_names_file(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\nthree,4\n")
    with pytest.raises(ValueError, match="bad.csv"):
        io.read_matrix(path)


def test_estimate_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    blocks = [(1, rng.standard_normal((3, 5))), (4, rng.standard_normal((3, 5)))]
    est = BlockSparseEstimate.from_blocks(blocks, 9, 3, 5)
    path = tmp_path / "est.json"
    io.write_estimate(path, est)
    back = io.read_estimate(path)
    assert back.active_set == est.active_set
    assert back.n_locations == 9
    assert np.array_equal(densify(back), densify(est))


def test_estimate_empty_round_trip(tmp_path):
    est = BlockSparseEstimate.empty(6, 1, 2)
    path = tmp_path / "est.json"
    io.write_estimate(path, est)
    back = io.read_estimate(path)
    assert back.active_set == ()
    assert back.n_locations == 6


def test_estimate_without_location_count(tmp_path):
    # files from minimal writers may omit n_locations; the support extent
    # is used as a fallback
    payload = {
        "active_set": [2],
        "n_orient": 1,
        "n_times": 2,
        "blocks": {"2": [[1.0, 2.0]]},
    }
    path = tmp_path / "est.json"
    path.write_text(json.dumps(payload))
    back = io.read_estimate(path)
    assert back.n_locations == 3
    assert back.active_set == (2,)


def test_estimate_bad_json(tmp_path):
    path = tmp_path / "est.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="est.json"):
        io.read_estimate(path)
    path.write_text(json.dumps({"active_set": [0]}))
    with pytest.raises(ValueError, match="missing"):
        io.read_estimate(path)
