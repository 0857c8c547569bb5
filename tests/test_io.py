import csv
import json

import numpy as np
import pytest

from bsmx import io
from bsmx.model import BlockSparseEstimate, densify

from helpers import fed_fifo


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


def test_binary_header_checked_before_allocating(tmp_path):
    # a header claiming 8 TiB over a 64-byte payload fails on its size
    path = tmp_path / "m.bsmx"
    path.write_bytes(io._HEADER.pack(io.MAGIC, 1 << 20, 1 << 20) + bytes(64))
    with pytest.raises(ValueError, match="payload is 64 bytes"):
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


def _matrix_file(tmp_path, kind):
    """A matrix file of each kind the FIFO tests read, with its matrix."""
    rng = np.random.default_rng(4)
    if kind == "binary":
        # larger than a pipe's buffer, so the payload arrives in pieces
        a, path = rng.standard_normal((300, 50)), tmp_path / "m.bsmx"
        io.write_matrix_binary(path, a)
    elif kind == "csv":
        a, path = rng.standard_normal((40, 30)), tmp_path / "m.csv"
        io.write_matrix_csv(path, a)
    else:
        # shorter than the sniff: the whole file is in the sniffed bytes
        a, path = np.array([[1.0], [2.0], [3.0]]), tmp_path / "m.csv"
        path.write_text("1\n2\n3\n")
    return a, path


@pytest.mark.parametrize("kind", ["binary", "csv", "one-column csv"])
def test_fifo_reads_bitwise_equal_to_the_file(tmp_path, kind):
    a, path = _matrix_file(tmp_path, kind)
    from_file = io.read_matrix(path)
    with fed_fifo(tmp_path / "pipe", path.read_bytes()) as pipe:
        from_pipe = io.read_matrix(pipe)
    assert from_pipe.shape == from_file.shape == a.shape
    assert from_pipe.dtype == np.float64
    assert from_pipe.tobytes() == from_file.tobytes()
    # the in-place design transforms write to the matrix read
    assert from_pipe.flags.writeable and from_pipe.flags.c_contiguous


@pytest.mark.parametrize("rows, cols, size, message", [
    (4, 4, 120, "payload is 120 bytes, expected 128"),
    (4, 4, 136, "payload is over 128 bytes, expected 128"),
    # a header claiming 8 TiB: the read stops at the 64 bytes sent
    (1 << 20, 1 << 20, 64, "payload is 64 bytes"),
], ids=["short", "long", "huge-claim"])
def test_fifo_binary_payload_size_checked(tmp_path, rows, cols, size, message):
    data = io._HEADER.pack(io.MAGIC, rows, cols) + bytes(size)
    with fed_fifo(tmp_path / "pipe", data) as pipe:
        with pytest.raises(ValueError, match=message):
            io.read_matrix(pipe)


def test_fifo_csv_parse_error_names_file(tmp_path):
    with fed_fifo(tmp_path / "bad.csv", b"1,2\nthree,4\n") as pipe:
        with pytest.raises(ValueError, match="bad.csv"):
            io.read_matrix(pipe)


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


WRITER_PAYLOAD = {
    "floats": [0.1, 1 / 3, 2.2250738585072014e-308, 12345678.901234567,
               float("nan"), float("inf"), -float("inf"), -0.0, 1e-300,
               np.float64(0.7)],
    "nested": [[1, [2.5, []]], {"inner": [True, False, None]}],
    "10": {"key with space": "text é \"quoted\"", "": 0},
    "bools": [True, False],
    "none": None,
}


@pytest.mark.parametrize("indent", [None, 2])
def test_write_json_matches_json_dump(tmp_path, indent):
    ref = tmp_path / "ref.json"
    with open(ref, "w") as fh:
        json.dump(WRITER_PAYLOAD, fh, indent=indent)
        fh.write("\n")
    out = tmp_path / "out.json"
    io._write_json(out, WRITER_PAYLOAD, indent=indent)
    assert out.read_bytes() == ref.read_bytes()


def test_write_csv_matches_csv_writer(tmp_path):
    header = ["iter", "gap", "method"]
    rows = [[0, f"{1 / 3:.17g}", "mxne"], [1, 2.5e-300, "a,b"],
            [2, float("nan"), 'say "hi"'], [3, -0.0, "line\nbreak"]]
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    out = tmp_path / "out.csv"
    io._write_csv(out, header, iter(rows))
    assert out.read_bytes() == ref.read_bytes()
    assert out.read_bytes().startswith(b"iter,gap,method\r\n0,")
