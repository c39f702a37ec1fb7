"""Bit-exact file interchange: PGM/PPM images, trace CSVs, JSON configs.

Only the uncompressed netpbm formats are supported (P2/P5 greyscale,
P3/P6 colour, maxval up to 65535) so that test fixtures can be written
inline as bytes and round-trips are exactly reproducible.  Pixel values
are normalized to [0, 1] on read and quantized with round-half-up on
write.  The parser is total: any byte sequence either decodes or raises
a structured `PnmParseError` carrying the offending byte offset.
"""

from __future__ import annotations

import dataclasses
import json
import re
import warnings
from pathlib import Path

import numpy as np

from .solver import ConvergenceTrace, SplicConfig, config_key

TRACE_CSV_HEADER = "t,delta,rel_change,srf,tv"

_MAGIC_CHANNELS = {b"P2": 1, b"P3": 3, b"P5": 1, b"P6": 3}
_BINARY_MAGICS = (b"P5", b"P6")
# a '#' ends the token it touches and comments out the rest of its line
_COMMENT = re.compile(rb"#[^\n\r]*")


class PnmParseError(ValueError):
    """Malformed image file; `offset` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class PnmTruncatedError(PnmParseError):
    """The header promised more payload than the file contains."""


class ConfigError(ValueError):
    """Bad solver config file."""


class _Scanner:
    """Tokenizer over header bytes: whitespace-separated fields, with
    '#' comments running to end of line."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def skip_separators(self):
        while self.pos < len(self.data):
            c = self.data[self.pos : self.pos + 1]
            if c in (b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"):
                self.pos += 1
            elif c == b"#":
                while self.pos < len(self.data) and self.data[
                    self.pos : self.pos + 1
                ] not in (b"\n", b"\r"):
                    self.pos += 1
            else:
                return

    def token(self, what: str) -> tuple[bytes, int]:
        self.skip_separators()
        if self.pos >= len(self.data):
            raise PnmParseError(f"missing {what}", self.pos)
        start = self.pos
        while self.pos < len(self.data) and not self.data[
            self.pos : self.pos + 1
        ].isspace() and self.data[self.pos : self.pos + 1] != b"#":
            self.pos += 1
        return self.data[start : self.pos], start

    def int_token(self, what: str, low: int, high: int) -> int:
        tok, start = self.token(what)
        try:
            value = int(tok)
        except ValueError:
            raise PnmParseError(f"{what} is not an integer: {tok!r}", start) from None
        if not low <= value <= high:
            raise PnmParseError(
                f"{what} {value} out of range [{low}, {high}]", start
            )
        return value


def _ascii_samples_scalar(scanner: _Scanner, count: int, maxval: int) -> np.ndarray:
    """Read `count` ASCII samples in [0, maxval] one token at a time."""
    values = np.empty(count, dtype=np.int64)
    for i in range(count):
        values[i] = scanner.int_token(f"sample {i}", 0, maxval)
    return values


def _ascii_samples(scanner: _Scanner, count: int, maxval: int) -> np.ndarray:
    """Read `count` ASCII samples in [0, maxval] from the scanner's position.

    Splits the payload in one call (comments blanked first) and converts
    with `int`, exactly as the token loop does.  If any token fails to
    convert, too few are present or a value is out of range, the token
    loop reruns and raises its error with the offending byte offset.
    """
    payload = scanner.data[scanner.pos :]
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
    return _ascii_samples_scalar(scanner, count, maxval)


def _parse_header(scanner: _Scanner) -> tuple[bytes, int, int, int]:
    """Read `(magic, width, height, maxval)`; the scanner stops right after
    the maxval token."""
    magic, magic_at = scanner.token("magic number")
    if magic not in _MAGIC_CHANNELS:
        raise PnmParseError(f"unsupported magic {magic!r}", magic_at)
    width = scanner.int_token("width", 1, 1 << 30)
    height = scanner.int_token("height", 1, 1 << 30)
    maxval = scanner.int_token("maxval", 1, 65535)
    return magic, width, height, maxval


def read_header(path) -> tuple[int, int, int]:
    """`(channels, m, n)` of a PGM/PPM file, from its header parsed as
    `decode_image` parses it, so any `PnmParseError` (message and offset)
    is the one `decode_image` gives; the payload is not decoded."""
    magic, width, height, _ = _parse_header(_Scanner(Path(path).read_bytes()))
    return _MAGIC_CHANNELS[magic], height, width


def decode_image(data: bytes) -> np.ndarray:
    """Decode PGM/PPM bytes to a (m, n) plane or (3, m, n) channel stack."""
    scanner = _Scanner(data)
    magic, width, height, maxval = _parse_header(scanner)
    channels = _MAGIC_CHANNELS[magic]
    count = width * height * channels

    if magic in _BINARY_MAGICS:
        # exactly one whitespace byte separates the header from the payload
        if scanner.pos >= len(data) or not data[
            scanner.pos : scanner.pos + 1
        ].isspace():
            raise PnmParseError("missing whitespace before binary payload", scanner.pos)
        payload_at = scanner.pos + 1
        bytes_per = 2 if maxval > 255 else 1
        need = count * bytes_per
        payload = data[payload_at : payload_at + need]
        if len(payload) < need:
            raise PnmTruncatedError(
                f"payload needs {need} bytes, found {len(payload)}",
                payload_at + len(payload),
            )
        dtype = ">u2" if bytes_per == 2 else np.uint8
        samples = np.frombuffer(payload, dtype=dtype, count=count).astype(np.int64)
        if np.any(samples > maxval):
            bad = int(np.argmax(samples > maxval))
            raise PnmParseError(
                f"sample {samples[bad]} exceeds maxval {maxval}",
                payload_at + bad * bytes_per,
            )
    else:
        samples = _ascii_samples(scanner, count, maxval)

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
    the magic number.
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
        dtype = ">u2" if maxval > 255 else np.uint8
        return head + interleaved.astype(dtype).tobytes()
    body_lines = []
    per_line = 16
    for i in range(0, interleaved.size, per_line):
        body_lines.append(" ".join(str(v) for v in interleaved[i : i + per_line]))
    return head + ("\n".join(body_lines) + "\n").encode("ascii")


def write_image(x, path, fmt=None, maxval=255, comments=(), clamp=False):
    Path(path).write_bytes(encode_image(x, fmt, maxval, comments, clamp))


def read_mask(path) -> np.ndarray:
    """Read a mask PGM; every pixel must be exactly 0 or maxval."""
    arr = read_image(path)
    if arr.ndim != 2:
        raise ValueError(f"{path}: mask must be single-channel")
    if not np.all((arr == 0.0) | (arr == 1.0)):
        raise ValueError(f"{path}: mask pixels must be 0 or maxval")
    return arr


def trace_csv_lines(trace: ConvergenceTrace) -> list[str]:
    lines = [TRACE_CSV_HEADER]
    for rec in trace:
        lines.append(
            f"{rec.t},{rec.delta!r},{rec.rel_change!r},{rec.srf!r},{rec.tv!r}"
        )
    return lines


def write_trace_csv(trace: ConvergenceTrace, path):
    Path(path).write_text("\n".join(trace_csv_lines(trace)) + "\n", encoding="ascii")


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
