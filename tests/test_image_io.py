import csv
import dataclasses
import json
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splic import image_io
from splic.image_io import (
    ConfigError,
    PnmParseError,
    PnmTruncatedError,
    TRACE_CSV_HEADER,
    config_from_dict,
    config_to_dict,
    decode_image,
    encode_image,
    read_config_json,
    read_header,
    read_image,
    read_mask,
    write_image,
    write_trace_csv,
)
from splic.sampling import generate_mask
from splic.solver import ConvergenceTrace, SplicConfig, splic_alternated, splic_complete
from splic.testimages import make_test_image


def test_parse_ascii_example():
    m = decode_image(b"P2\n2 2\n255\n0 255 128 64\n")
    assert np.allclose(m, [[0.0, 1.0], [128 / 255, 64 / 255]])
    assert m[1, 0] == pytest.approx(0.501961, abs=1e-6)
    assert m[1, 1] == pytest.approx(0.250980, abs=1e-6)


def test_parse_binary_matches_ascii():
    ascii_img = decode_image(b"P2\n2 2\n255\n0 255 128 64\n")
    binary_img = decode_image(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
    assert np.array_equal(ascii_img, binary_img)


def test_unsupported_magic_rejected():
    with pytest.raises(PnmParseError) as err:
        decode_image(b"P7\n2 2\n255\n\x00\x00\x00\x00")
    assert err.value.offset == 0


def test_truncated_payload_distinct_error():
    with pytest.raises(PnmTruncatedError):
        decode_image(b"P5\n2 2\n255\n\x00\xff")


def test_header_comments_tolerated():
    m = decode_image(b"P2\n# made by hand\n2 2\n# and again\n255\n0 255 128 64\n")
    assert np.allclose(m, [[0.0, 1.0], [128 / 255, 64 / 255]])


@pytest.mark.parametrize("comment", ["hello\nworld", "hello\rworld", "end\n"])
def test_encode_rejects_a_comment_with_a_line_break(comment):
    # the decoder ends a comment at a line break, so the rest of it once
    # became the width token: "width is not an integer: b'world'"
    with pytest.raises(ValueError, match="holds a line break") as err:
        encode_image(np.zeros((2, 2)), comments=[comment])
    assert repr(comment) in str(err.value)


@pytest.mark.parametrize("comment", ["café", "ok\u2028", "\U0001f600"])
def test_encode_rejects_a_non_ascii_comment_by_name(comment):
    # the header is ASCII; such a comment once failed in str.encode, whose
    # error named a character and a position but not the comment
    with pytest.raises(ValueError, match="holds a non-ASCII character") as err:
        encode_image(np.zeros((2, 2)), comments=[comment])
    assert repr(comment) in str(err.value)


_ONE_LINE = st.characters(codec="ascii", exclude_characters="\n\r")


@given(
    st.lists(st.text(_ONE_LINE, max_size=12), max_size=3),
    st.sampled_from(["P2", "P5", "P3", "P6"]),
)
@settings(deadline=None, max_examples=60)
def test_comments_without_line_breaks_round_trip(comments, fmt):
    shape = (3, 2, 3) if fmt in ("P3", "P6") else (2, 3)
    img = np.arange(np.prod(shape)).reshape(shape) / 17.0
    plain = decode_image(encode_image(img, fmt))
    assert np.array_equal(decode_image(encode_image(img, fmt, comments=comments)), plain)


def test_bad_maxval_rejected():
    with pytest.raises(PnmParseError):
        decode_image(b"P2\n2 2\n70000\n0 0 0 0\n")
    with pytest.raises(PnmParseError):
        decode_image(b"P2\n2 2\n0\n0 0 0 0\n")


def test_sample_above_maxval_rejected():
    with pytest.raises(PnmParseError):
        decode_image(b"P2\n2 2\n10\n0 11 0 0\n")


def test_non_integer_dimension_names_offset():
    with pytest.raises(PnmParseError) as err:
        decode_image(b"P2\nxx 2\n255\n0 0 0 0\n")
    assert err.value.offset == 3


def test_ppm_yields_three_planes():
    data = b"P6\n2 1\n255\n" + bytes([255, 0, 0, 0, 255, 0])
    img = decode_image(data)
    assert img.shape == (3, 1, 2)
    assert img[0, 0, 0] == 1.0 and img[1, 0, 1] == 1.0


def test_sixteen_bit_payload():
    data = b"P5\n2 2\n65535\n" + np.array(
        [0, 65535, 32768, 16384], dtype=">u2"
    ).tobytes()
    img = decode_image(data)
    assert np.allclose(img, [[0.0, 1.0], [32768 / 65535, 16384 / 65535]])


def test_quantization_round_half_up():
    data = encode_image(np.array([[0.0, 1.0], [0.5, 0.25]]), fmt="P2")
    body = data.decode().splitlines()[-1]
    assert body.split() == ["0", "255", "128", "64"]


def test_ascii_body_has_sixteen_samples_per_line():
    # 3 x 7 colour: 63 interleaved samples, on lines of 16, 16, 16 and 15
    x = np.arange(63).reshape(3, 3, 7) / 255.0
    data = encode_image(x, fmt="P3")
    lines = data.decode("ascii").split("\n")
    assert lines[:3] == ["P3", "7 3", "255"] and lines[-1] == ""
    body = [line.split() for line in lines[3:-1]]
    assert [len(line) for line in body] == [16, 16, 16, 15]
    samples = np.arange(63).reshape(3, 21).T.reshape(-1)
    assert [int(v) for line in body for v in line] == samples.tolist()


def test_all_zeros_payload():
    data = encode_image(np.zeros((2, 3)), fmt="P5")
    assert data.endswith(bytes(6))


def test_out_of_range_rejected_without_clamp():
    with pytest.raises(ValueError, match="clamp"):
        encode_image(np.array([[0.0, 1.2], [0.5, 0.25]]))
    clamped = decode_image(encode_image(np.array([[0.0, 1.2], [0.5, 0.25]]), clamp=True))
    assert clamped[0, 1] == 1.0


@pytest.mark.parametrize("fmt", ["P5", "P2"])
def test_clamp_rejects_nan_but_clips_infinities(fmt):
    # clamping let NaN through: P5 wrote it as 0, P2 as -9223372036854775808
    with pytest.raises(ValueError, match="NaN"):
        encode_image(np.array([[0.5, np.nan], [0.0, 1.0]]), fmt=fmt, clamp=True)
    clipped = encode_image(np.array([[0.5, np.inf], [-np.inf, 1.0]]), fmt=fmt, clamp=True)
    assert np.array_equal(decode_image(clipped), [[128 / 255, 1.0], [0.0, 1.0]])


def test_roundtrip_files(tmp_path, rng):
    x = rng.uniform(size=(9, 6))
    path = tmp_path / "img.pgm"
    write_image(x, path)
    back = read_image(path)
    assert np.abs(back - x).max() <= 1 / 510


@given(
    st.integers(2, 6).flatmap(
        lambda m: st.integers(2, 6).flatmap(
            lambda n: st.lists(
                st.floats(0, 1, allow_nan=False), min_size=m * n, max_size=m * n
            ).map(lambda v: np.array(v).reshape(m, n))
        )
    )
)
@settings(deadline=None, max_examples=60)
def test_roundtrip_property(x):
    assert np.abs(decode_image(encode_image(x)) - x).max() <= 1 / 510


@given(st.binary(max_size=200))
@settings(deadline=None, max_examples=200)
def test_parser_is_total(data):
    try:
        decode_image(data)
    except PnmParseError:
        pass


@given(st.binary(max_size=40))
@settings(deadline=None, max_examples=100)
def test_parser_total_with_valid_prefix(suffix):
    try:
        decode_image(b"P5\n2 2\n255\n" + suffix)
    except PnmParseError:
        pass


_ASCII_TOKENS = st.sampled_from(
    [b"0", b"7", b"255", b"256", b"65535", b"65536", b"+5", b"-3", b"1_0", b"_1",
     b"0x1f", b"x", b"12#c", b"#note", b"99999999999999999999999", b"\xff", b"007"]
)
_SEPARATORS = st.sampled_from([b" ", b"\n", b"\t", b"\r", b"\x0b", b"\x0c", b"  \n", b"#c \n"])
_ASCII_PAYLOADS = st.lists(
    st.tuples(_ASCII_TOKENS | st.binary(min_size=1, max_size=3), _SEPARATORS), max_size=14
).map(lambda parts: b"".join(tok + sep for tok, sep in parts))


def _read_samples(read, payload, count, maxval):
    try:
        return read(payload, 0, count, maxval).tolist()
    except PnmParseError as exc:
        return type(exc), str(exc), exc.offset


@given(_ASCII_PAYLOADS, st.integers(1, 12), st.sampled_from([1, 7, 255, 65535]))
@settings(deadline=None, max_examples=400)
def test_ascii_samples_match_token_loop(payload, count, maxval):
    # same values, or the same error message and byte offset
    assert _read_samples(image_io._ascii_samples, payload, count, maxval) == (
        _read_samples(image_io._ascii_samples_scalar, payload, count, maxval)
    )


def test_ascii_samples_fall_back_for_error_offsets():
    with pytest.raises(PnmParseError, match="sample 2 is not an integer") as err:
        decode_image(b"P2\n2 2\n255\n0 1 # x\nz 3\n")
    assert err.value.offset == 19
    with pytest.raises(PnmParseError, match="sample 1 256 out of range") as err:
        decode_image(b"P2\n2 2\n255\n0 256 1 2\n")
    assert err.value.offset == 13
    with pytest.raises(PnmParseError, match="missing sample 3"):
        decode_image(b"P2\n2 2\n255\n0 1 2")
    # headers promising more samples than memory holds raised MemoryError
    # and numpy's "array is too big"; only the tokens present are kept
    for data in (b"P2\n70000 70000\n255\n0 1 2\n", b"P3\n1073741824 1073741824\n255\n0 1 2\n"):
        with pytest.raises(PnmParseError, match="missing sample 3") as err:
            decode_image(data)
        assert err.value.offset == len(data)


def test_ascii_comments_stay_on_the_split_path(monkeypatch):
    def token_loop(*args):
        raise AssertionError("token loop used for a valid payload")

    monkeypatch.setattr(image_io, "_ascii_samples_scalar", token_loop)
    img = decode_image(b"P3\n1 1\n255\n1#a 2\n2 # b 9\r+3 7\n")
    assert np.array_equal(img.reshape(-1) * 255, [1.0, 2.0, 3.0])


@pytest.mark.parametrize("prefix", [b"P2\n2 2\n255\n", b"P3\n2 1\n7\n"])
@given(suffix=st.binary(max_size=40) | _ASCII_PAYLOADS)
@settings(deadline=None, max_examples=150)
def test_parser_total_with_valid_ascii_prefix(prefix, suffix):
    try:
        img = decode_image(prefix + suffix)
    except PnmParseError:
        return
    assert img.shape in ((2, 2), (3, 1, 2))
    assert np.all((img >= 0.0) & (img <= 1.0))


_DIMENSIONS = st.integers(1, 1 << 30) | st.sampled_from([1, 70000, 1 << 30])


@given(
    st.sampled_from(sorted(image_io._MAGIC_CHANNELS)),
    _DIMENSIONS,
    _DIMENSIONS,
    st.integers(1, 65535),
    st.lists(_SEPARATORS, min_size=4, max_size=4),
)
@settings(deadline=None, max_examples=200)
def test_built_headers_parse_and_decode_totally(tmp_path_factory, magic, width, height, maxval, seps):
    # a large header and a short payload raised MemoryError or ValueError
    fields = [magic] + [str(v).encode() for v in (width, height, maxval)]
    header = b"".join(field + sep for field, sep in zip(fields, seps))
    path = tmp_path_factory.mktemp("hdr") / "img.pnm"
    path.write_bytes(header)
    *shape, fits = read_header(path)
    assert shape == [image_io._MAGIC_CHANNELS[magic], height, width]
    try:
        decode_image(header + b"0 1 2\n")
    except PnmParseError:
        pass
    if not fits:
        # a file too short for its payload cannot decode
        with pytest.raises(PnmParseError):
            decode_image(header)


@pytest.mark.parametrize(
    "header, expected",
    [
        (b"P2\n# grey, ascii\n5 3\n255\n", (1, 3, 5)),
        (b"P3 4#width\n2 # height\n65535\n", (3, 2, 4)),
        (b"P5\n#a\n#b\n7 2\n# maxval next\n255\n", (1, 2, 7)),
        (b"P6\t3\r\n4\x0b255\n", (3, 4, 3)),
        (b"P5\n#" + b"x" * 1500 + b"\n9 4\n255\n", (1, 4, 9)),
        (b"P5\n" + b" " * 1020 + b"1234 2\n255\n", (1, 2, 1234)),
    ],
)
def test_read_header_agrees_with_decode_image(tmp_path, header, expected):
    channels, m, n = expected
    binary = header[1:2] in b"56"
    payload = bytes(channels * m * n) if binary else b"0 " * (channels * m * n)
    path = tmp_path / "img.pnm"
    path.write_bytes(header + payload)
    assert read_header(path) == (*expected, True)
    assert decode_image(path.read_bytes()).shape == ((m, n) if channels == 1 else (3, m, n))


@pytest.mark.parametrize(
    "data",
    [
        b"",
        b"P7\n2 2\n255\n",
        b"P2\n# only a comment",
        b"P5\n2 x\n255\n\x00",
        b"P6\n2 2\n0\n",
        b"P3\n0 2\n255\n",
        b"P5\n" + b" " * 1020 + b"12x4 2\n255\n",
        b"P5 4 2" + b" " * 1015 + b"65536\n",
        b"P5\n2 2 " + b"#" * 3000,
    ],
)
def test_read_header_errors_match_decode_image(tmp_path, data):
    path = tmp_path / "bad.pgm"
    path.write_bytes(data)
    with pytest.raises(PnmParseError) as decoded:
        decode_image(data)
    with pytest.raises(PnmParseError) as read:
        read_header(path)
    assert (str(read.value), read.value.offset) == (str(decoded.value), decoded.value.offset)


def test_mask_roundtrip(tmp_path):
    mask = generate_mask(6, 7, 0.5, 3)
    path = tmp_path / "mask.pgm"
    write_image(mask, path)
    assert np.array_equal(read_mask(path), mask)
    raw = path.read_bytes()
    assert set(raw[raw.index(b"255\n") + 4 :]) <= {0, 255}


def test_read_mask_rejects_gray(tmp_path):
    path = tmp_path / "gray.pgm"
    write_image(np.full((3, 3), 0.5), path)
    with pytest.raises(ValueError):
        read_mask(path)


def test_trace_csv_header_and_rows(tmp_path):
    # numpy columns print as Python numbers: repr(np.float64(x)) is
    # "np.float64(x)" under numpy >= 2
    trace = ConvergenceTrace(
        plane=np.array([0, 1]),
        t=np.array([1, 2]),
        delta=np.array([2.0, 2.0]),
        rel_change=np.array([0.5, 0.25]),
        srf=np.array([1.25, 1.0]),
        tv=np.array([3.5, 0.1 + 0.2]),
    )
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    assert TRACE_CSV_HEADER == "plane,t,delta,rel_change,srf,tv"
    assert path.read_bytes() == (
        b"plane,t,delta,rel_change,srf,tv\n"
        b"0,1,2.0,0.5,1.25,3.5\n1,2,2.0,0.25,1.0,0.30000000000000004\n"
    )


def test_empty_trace_is_header_only(tmp_path):
    empty = ConvergenceTrace(*(np.array([]) for _ in range(6)))
    assert len(empty) == 0
    write_trace_csv(empty, tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_text() == TRACE_CSV_HEADER + "\n"


def test_trace_csv_roundtrip_from_solver(tmp_path):
    x = make_test_image(0, 24)
    res = splic_complete(x, generate_mask(24, 24, 0.5, 1), SplicConfig())
    path = tmp_path / "t.csv"
    write_trace_csv(res.trace, path)
    rows = path.read_text().splitlines()
    assert len(rows) == len(res.trace) + 1
    first = rows[1].split(",")
    assert first[0] == "0"  # an (m, n) image is plane 0
    assert int(first[1]) == SplicConfig().inner_steps  # the first block's end
    assert float(first[2]) == res.trace.delta[0]


def test_stack_trace_writes_one_csv_per_plane(tmp_path):
    # a stack's trace once went to one file per plane, t.c0.csv, t.c1.csv;
    # now the one t.csv holds, for each plane, the rows a solo CSV would
    planes = np.stack([make_test_image(i, 24) for i in range(2)])
    mask = generate_mask(24, 24, 0.5, 1)
    write_trace_csv(splic_complete(planes, mask, SplicConfig()).trace, tmp_path / "t.csv")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]
    header, *rows = (tmp_path / "t.csv").read_text().splitlines()
    solo_rows = 0
    for i, plane in enumerate(planes):
        solo_csv = tmp_path / "solo" / f"s{i}.csv"
        write_trace_csv(splic_complete(plane, mask, SplicConfig()).trace, solo_csv)
        solo_header, *solo = solo_csv.read_text().splitlines()
        assert solo_header == header
        # plane i's rows are the solo solve's rows with `plane` set to i
        mine = [row for row in rows if row.split(",")[0] == str(i)]
        assert mine == [f"{i}," + row.split(",", 1)[1] for row in solo]
        solo_rows += len(solo)
    assert len(rows) == solo_rows


def test_one_plane_of_a_stack_trace_writes_its_path(tmp_path):
    planes = np.stack([make_test_image(i, 24) for i in range(2)])
    mask = generate_mask(24, 24, 0.5, 1)
    trace = splic_complete(planes, mask, SplicConfig()).trace
    write_trace_csv(trace.for_plane(1), tmp_path / "p1.csv")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p1.csv"]
    solo = tmp_path / "solo" / "s.csv"
    write_trace_csv(splic_complete(planes[1], mask, SplicConfig()).trace, solo)
    header, *rows = (tmp_path / "p1.csv").read_text().splitlines()
    solo_header, *solo_rows = solo.read_text().splitlines()
    assert header == solo_header
    # the solo solve's rows with `plane` set to 1
    assert rows == ["1," + row.split(",", 1)[1] for row in solo_rows]
    assert len(rows) > 0


@pytest.mark.parametrize("solve", ["stack-with-zero-plane", "alternated"])
def test_trace_csv_reads_back_column_for_column(tmp_path, solve):
    if solve == "alternated":
        trace = splic_alternated(make_test_image(1, 24), SplicConfig(seed=4)).trace
    else:
        planes = np.stack([make_test_image(i, 24) for i in range(3)])
        planes[1] = 0.0
        trace = splic_complete(planes, generate_mask(24, 24, 0.5, 1), SplicConfig()).trace
    path = tmp_path / "t.csv"
    write_trace_csv(trace, path)
    with path.open(newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == [f.name for f in dataclasses.fields(ConvergenceTrace)]
    assert len(rows) == len(trace) > 0
    for j, (name, column) in enumerate(zip(header, trace.columns())):
        kind = int if name in ("plane", "t") else float
        assert [kind(row[j]) for row in rows] == column.tolist()
    planes_written = {int(row[0]) for row in rows}
    assert planes_written == ({0, 2} if solve == "stack-with-zero-plane" else {0})


def test_trace_write_is_atomic(tmp_path, monkeypatch):
    path = tmp_path / "t.csv"
    path.write_bytes(b"old")
    trace = ConvergenceTrace(*(np.array([]) for _ in range(6)))

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        write_trace_csv(trace, path)
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


def test_config_defaults_from_empty_object(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{}")
    cfg = read_config_json(path)
    assert cfg == SplicConfig()
    assert (cfg.lam, cfg.rho, cfg.mu) == (0.02, 0.45, 0.5)


def test_config_rejects_bad_rho(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"rho": 1.5}')
    with pytest.raises(ConfigError, match="rho"):
        read_config_json(path)


def test_config_lambda_key_maps_to_weight(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"lambda": 0.05, "tv_mode": "paper"}')
    cfg = read_config_json(path)
    assert cfg.lam == 0.05
    assert cfg.tv_mode == "paper"


def test_config_unknown_key_warns_not_fails():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cfg = config_from_dict({"bogus": 1, "mu": 0.7})
    assert cfg.mu == 0.7
    assert len(caught) == 1
    assert "bogus" in str(caught[0].message)


# every JSON key configs have always used, with a non-default value
_KEY_VALUES = {
    "lambda": 0.05,
    "rho": 0.3,
    "mu": 0.25,
    "r": 5,
    "epsilon": 1e-3,
    "maxiter": 14,
    "inner_steps": 3,
    "anchor_fraction": 0.3,
    "seed": 9,
    "tv_mode": "paper",
    "clamp_output": False,
}


def test_config_keys_are_the_documented_ones():
    assert list(config_to_dict(SplicConfig())) == list(_KEY_VALUES)


@pytest.mark.parametrize("key", list(_KEY_VALUES))
def test_config_key_round_trips(tmp_path, key):
    value = _KEY_VALUES[key]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({key: value}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cfg = read_config_json(path)
        assert cfg != SplicConfig()
        raw = config_to_dict(cfg)
        assert raw[key] == value and type(raw[key]) is type(value)
        assert config_from_dict(json.loads(json.dumps(raw))) == cfg


def test_config_field_name_lam_is_not_a_key():
    with pytest.warns(UserWarning, match="unknown config key 'lam'"):
        cfg = config_from_dict({"lam": 0.05})
    assert cfg == SplicConfig()


def test_config_value_of_the_wrong_type_is_a_config_error():
    with pytest.raises(ConfigError, match="lambda must be float"):
        config_from_dict({"lambda": "0.05"})


def test_config_rejects_negative_seed(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"seed": -1}')
    with pytest.raises(ConfigError, match="seed must be non-negative"):
        read_config_json(path)


def test_config_malformed_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="line"):
        read_config_json(path)
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="object"):
        read_config_json(path)
