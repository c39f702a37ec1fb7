"""Bit-exact file interchange: PGM/PPM images, CSV tables, JSON configs.

Only the uncompressed netpbm formats are supported (P2/P5 greyscale,
P3/P6 colour, maxval up to 65535) so that test fixtures can be written
inline as bytes and round-trips are exactly reproducible.  Pixel values
are normalized to [0, 1] on read and quantized with round-half-up on
write.  The parser is total: any byte sequence either decodes or raises
a structured `PnmParseError` carrying the offending byte offset.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np

from .solver import ConvergenceTrace, SplicConfig, config_key

TRACE_CSV_HEADER = ",".join(f.name for f in dataclasses.fields(ConvergenceTrace))

_MAGIC_CHANNELS = {b"P2": 1, b"P3": 3, b"P5": 1, b"P6": 3}
_BINARY_MAGICS = (b"P5", b"P6")
# a '#' ends the token it touches and comments out the rest of its line
_COMMENT = re.compile(rb"#[^\n\r]*")
# separators (whitespace and comments), then a token: empty only at the end
_TOKEN = re.compile(rb"(?:\s+|" + _COMMENT.pattern + rb")*([^\s#]*)")


class PnmParseError(ValueError):
    """Malformed image file; `offset` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class PnmTruncatedError(PnmParseError):
    """The header promised more payload than the file contains."""


class ConfigError(ValueError):
    """Bad solver config file."""


def _token(data: bytes, pos: int, what: str) -> tuple[bytes, int, int]:
    """`(token, start, end)` of the first token at or after `pos`."""
    match = _TOKEN.match(data, pos)
    start, end = match.span(1)
    if start == end:
        raise PnmParseError(f"missing {what}", start)
    return match.group(1), start, end


def _int_token(data: bytes, pos: int, what: str, low: int, high: int) -> tuple[int, int]:
    """`(value, end)` of the first token at or after `pos`, an integer in
    [low, high]."""
    tok, start, end = _token(data, pos, what)
    try:
        value = int(tok)
    except ValueError:
        raise PnmParseError(f"{what} is not an integer: {tok!r}", start) from None
    if not low <= value <= high:
        raise PnmParseError(f"{what} {value} out of range [{low}, {high}]", start)
    return value, end


def _ascii_samples_scalar(data: bytes, pos: int, count: int, maxval: int) -> np.ndarray:
    """Read `count` ASCII samples in [0, maxval] from `pos`, one token at a
    time; only the tokens present are held, whatever `count` is."""
    values = []
    for i in range(count):
        value, pos = _int_token(data, pos, f"sample {i}", 0, maxval)
        values.append(value)
    return np.array(values, dtype=np.int64)


def _ascii_samples(data: bytes, pos: int, count: int, maxval: int) -> np.ndarray:
    """Read `count` ASCII samples in [0, maxval] from `pos`.

    Splits the payload in one call (comments blanked first) and converts
    with `int`, exactly as the token loop does.  If any token fails to
    convert, too few are present or a value is out of range, the token
    loop reruns and raises its error with the offending byte offset.
    """
    payload = data[pos:]
    if b"#" in payload:
        payload = _COMMENT.sub(b" ", payload)
    tokens = payload.split(None, count)
    if len(tokens) >= count:
        try:
            samples = np.fromiter(map(int, tokens[:count]), dtype=np.int64, count=count)
        except (ValueError, OverflowError):
            pass
        else:
            if samples.min() >= 0 and samples.max() <= maxval:
                return samples
    return _ascii_samples_scalar(data, pos, count, maxval)


def _parse_header(data: bytes) -> tuple[bytes, int, int, int, int]:
    """`(magic, width, height, maxval, end)`, where `end` is the offset
    right after the maxval token."""
    magic, magic_at, pos = _token(data, 0, "magic number")
    if magic not in _MAGIC_CHANNELS:
        raise PnmParseError(f"unsupported magic {magic!r}", magic_at)
    width, pos = _int_token(data, pos, "width", 1, 1 << 30)
    height, pos = _int_token(data, pos, "height", 1, 1 << 30)
    maxval, pos = _int_token(data, pos, "maxval", 1, 65535)
    return magic, width, height, maxval, pos


def _sample_dtype(maxval: int) -> np.dtype:
    """A binary payload's sample type: 1 byte, or 2 big-endian when maxval > 255."""
    return np.dtype(">u2" if maxval > 255 else np.uint8)


def _payload_span(magic: bytes, width: int, height: int, maxval: int, end: int):
    """`(start, need)`: where the payload after a header ending at `end`
    starts, and its fewest bytes: c * m * n samples of `_sample_dtype`
    after the one whitespace byte if binary, else a separator and a digit
    per sample."""
    count = _MAGIC_CHANNELS[magic] * width * height
    if magic in _BINARY_MAGICS:
        return end + 1, count * _sample_dtype(maxval).itemsize
    return end, 2 * count


def read_header(path) -> tuple[int, int, int, bool]:
    """`(channels, m, n, fits)` of a PGM/PPM file, from its header parsed
    as `decode_image` parses it, so any `PnmParseError` (message and
    offset) is the one `decode_image` gives; the payload is not decoded.
    A file without room for the smallest payload its header needs
    (`_payload_span`) cannot decode, and gets `fits` False."""
    data = Path(path).read_bytes()
    magic, width, height, maxval, end = _parse_header(data)
    start, need = _payload_span(magic, width, height, maxval, end)
    return _MAGIC_CHANNELS[magic], height, width, len(data) >= start + need


def decode_image(data: bytes) -> np.ndarray:
    """Decode PGM/PPM bytes to a (m, n) plane or (3, m, n) channel stack."""
    magic, width, height, maxval, pos = _parse_header(data)
    channels = _MAGIC_CHANNELS[magic]
    count = width * height * channels

    if magic in _BINARY_MAGICS:
        # exactly one whitespace byte separates the header from the payload
        if not data[pos : pos + 1].isspace():
            raise PnmParseError("missing whitespace before binary payload", pos)
        payload_at, need = _payload_span(magic, width, height, maxval, pos)
        payload = data[payload_at : payload_at + need]
        if len(payload) < need:
            raise PnmTruncatedError(
                f"payload needs {need} bytes, found {len(payload)}",
                payload_at + len(payload),
            )
        dtype = _sample_dtype(maxval)
        samples = np.frombuffer(payload, dtype=dtype, count=count).astype(np.int64)
        if np.any(samples > maxval):
            bad = int(np.argmax(samples > maxval))
            raise PnmParseError(
                f"sample {samples[bad]} exceeds maxval {maxval}",
                payload_at + bad * dtype.itemsize,
            )
    else:
        samples = _ascii_samples(data, pos, count, maxval)

    flat = samples.astype(np.float64) / float(maxval)
    if channels == 1:
        return flat.reshape(height, width)
    return flat.reshape(height, width, 3).transpose(2, 0, 1)


def read_image(path) -> np.ndarray:
    """Read a PGM/PPM file; greyscale gives (m, n), colour gives (3, m, n)."""
    return decode_image(Path(path).read_bytes())


def encode_image(
    x, fmt: str | None = None, maxval: int = 255, comments=(), clamp: bool = False
) -> bytes:
    """Quantize to integers (round-half-up) and encode as PGM/PPM bytes.

    Values must lie in [0, 1] unless clamp is set; NaN is rejected either
    way.  fmt defaults to the binary format matching the array's shape (P5
    for a plane, P6 for a 3-channel stack).  Comment lines go right after
    the magic number; a comment must be ASCII, as the header is, and must
    not hold a line break (`\\n` or `\\r`), since the decoder ends a
    comment there.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 2:
        planes = arr[None, :, :]
    elif arr.ndim == 3 and arr.shape[0] == 3:
        planes = arr
    else:
        raise ValueError(f"expected (m, n) or (3, m, n), got shape {arr.shape}")
    if not 1 <= maxval <= 65535:
        raise ValueError(f"maxval must be in [1, 65535], got {maxval}")
    for comment in comments:
        if "\n" in comment or "\r" in comment:
            raise ValueError(f"comment {comment!r} holds a line break")
        if not comment.isascii():
            raise ValueError(f"comment {comment!r} holds a non-ASCII character")
    # clipping would keep a NaN, which has no pixel value
    if np.isnan(planes).any():
        raise ValueError("pixel values contain NaN")
    if clamp:
        planes = np.clip(planes, 0.0, 1.0)
    elif np.any(planes < 0.0) or np.any(planes > 1.0):
        raise ValueError("pixel values outside [0, 1]; pass clamp=True to clip")

    if fmt is None:
        fmt = "P5" if planes.shape[0] == 1 else "P6"
    magic = fmt.encode("ascii") if isinstance(fmt, str) else fmt
    if magic not in _MAGIC_CHANNELS:
        raise ValueError(f"unsupported format {fmt!r}")
    if _MAGIC_CHANNELS[magic] != planes.shape[0]:
        raise ValueError(
            f"format {fmt} takes {_MAGIC_CHANNELS[magic]} channel(s), "
            f"got {planes.shape[0]}"
        )

    quant = np.floor(planes * maxval + 0.5).astype(np.int64)
    _, m, n = quant.shape
    header = [magic.decode("ascii")]
    header += [f"# {c}" for c in comments]
    header.append(f"{n} {m}")
    header.append(str(maxval))
    head = ("\n".join(header) + "\n").encode("ascii")

    interleaved = quant.transpose(1, 2, 0).reshape(-1)
    if magic in _BINARY_MAGICS:
        return head + interleaved.astype(_sample_dtype(maxval)).tobytes()
    # 16 samples per line; Python ints print faster than numpy scalars
    samples = list(map(str, interleaved.tolist()))
    body = "\n".join(" ".join(samples[i : i + 16]) for i in range(0, len(samples), 16))
    return head + (body + "\n").encode("ascii")


def atomic_write(path, data: bytes):
    """Write `data` to `path` by a temp file in its directory and a rename,
    so `path` keeps its old bytes or gets all of `data`; makes parent dirs."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_image(x, path, fmt=None, maxval=255, comments=(), clamp=False):
    atomic_write(path, encode_image(x, fmt, maxval, comments, clamp))


def read_mask(path) -> np.ndarray:
    """Read a mask PGM; every pixel must be exactly 0 or maxval."""
    arr = read_image(path)
    if arr.ndim != 2:
        raise ValueError(f"{path}: mask must be single-channel")
    if not np.all((arr == 0.0) | (arr == 1.0)):
        raise ValueError(f"{path}: mask pixels must be 0 or maxval")
    return arr


def write_csv(path, header: str, rows):
    """Write a CSV table atomically: the `header` line as given, then each
    row by `csv.writer`, which prints a float as `repr` does (so infinity
    is the literal `inf`) and quotes only a field that holds a comma, a
    quote or a line break; every line ends in `\\n`."""
    text = io.StringIO()
    text.write(header + "\n")
    csv.writer(text, lineterminator="\n").writerows(rows)
    atomic_write(path, text.getvalue().encode())


def write_trace_csv(trace: ConvergenceTrace, path):
    """Write the trace as one CSV table, atomically: a row per trace row,
    with every column in `ConvergenceTrace` order, `plane` first; a plane
    that took no step has no rows."""
    # .tolist() gives Python numbers, not numpy scalars
    write_csv(path, TRACE_CSV_HEADER, zip(*(c.tolist() for c in trace.columns())))


def config_to_dict(cfg: SplicConfig) -> dict:
    return {config_key(f): getattr(cfg, f.name) for f in dataclasses.fields(cfg)}


def config_from_dict(raw: dict, source: str = "config") -> SplicConfig:
    """Build a SplicConfig from a dict keyed as `config_to_dict` writes it;
    absent keys keep their defaults, unknown keys warn rather than fail."""
    fields = {config_key(f): f.name for f in dataclasses.fields(SplicConfig)}
    for key in (key for key in raw if key not in fields):
        warnings.warn(f"{source}: ignoring unknown config key {key!r}")
    try:
        return SplicConfig(**{fields[k]: v for k, v in raw.items() if k in fields})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def read_config_json(path) -> SplicConfig:
    text = Path(path).read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return config_from_dict(raw, source=str(path))
