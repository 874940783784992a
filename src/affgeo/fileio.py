"""Bit-exact file formats for ACs, 3x3 models, poses, intrinsics and reports.

All reals in data files are serialized with 17 significant digits, which
round-trips doubles exactly: write -> read -> write is byte-identical. Lines
starting with '#' are comments; the AC/match/point tables carry a header line
naming their columns.

The table readers (read_acs, read_matches, read_points) stream the file. They
first count its line breaks, an upper bound on its rows, and allocate the
float64 array for that many rows, so a file too large for memory fails before
any parsing. The lines through the first row then take the per-line rule
(_parse_lines: header, comments, blank lines, one float() per field). The
rest are read in blocks of _BLOCK_LINES lines. A block holding only digits,
'+-.eE', commas, spaces and '\\n' (or '\\r\\n') is parsed by one np.loadtxt
call, and kept when that gives one row of finite values per line. Any other
block goes through the per-line rule, so each error keeps its message and
line, and the first fault in file order is reported. Memory is the array
plus one block (a pipe, which cannot be read twice, is held whole).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from itertools import islice
from typing import Sequence

import numpy as np

from .core import AffineCorrespondence, CameraIntrinsics, Mat3, ac_array, match_array
from .errors import FileFormatError, InvalidValue
from .solvers import RelativePose

AC_HEADER = "x1,y1,x2,y2,a11,a12,a21,a22"
MATCH_HEADER = "x1,y1,x2,y2"
POINT_HEADER = "x,y"


def fmt(v: float) -> str:
    """17-significant-digit representation (exact at double precision)."""
    return f"{float(v):.17g}"


# --- tabular formats -----------------------------------------------------------

# Lines per block of the fast path, and bytes per read while counting lines.
_BLOCK_LINES, _COUNT_BYTES = 1 << 16, 1 << 20
# The bytes a block may hold to take the fast path.
_FAST_BYTES = b"0123456789+-.eE, \n"


def _line_bound(fh) -> int:
    """One more than the line breaks of a binary file (\\n, \\r, \\v, \\f and
    \\x1c-\\x1e, where str.splitlines breaks ASCII text; \\r\\n is one break,
    or two if split across reads): at least its number of lines."""
    bound = 1
    while chunk := fh.read(_COUNT_BYTES):
        b = np.frombuffer(chunk, np.uint8)
        bound += int(np.count_nonzero(b - 10 < 4) + np.count_nonzero(b - 28 < 3))
        bound -= chunk.count(b"\r\n") if b"\r" in chunk else 0  # `in` is a memchr, ~70x faster
    return bound


def _parse_lines(data: bytes, table: np.ndarray, n_rows: int, line_no: int,
                 what: str) -> tuple[int, int]:
    """The per-line rule. The rows of data's lines, numbered on from line_no,
    go into table from row n_rows; returns the row count and the last line
    number. A line holding only letters before the first row is a header;
    any other line that is not blank or a comment must hold one finite real
    per column of table, or FileFormatError names it."""
    for line_no, raw in enumerate(
        data.decode("ascii", "surrogateescape").splitlines(), start=line_no + 1
    ):
        if not raw.isascii():
            raise FileFormatError(f"non-ASCII byte in {what} file", line=line_no)
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.replace(",", " ").split()
        try:
            values = list(map(float, fields))
        except ValueError:
            if not n_rows and all(any(c.isalpha() for c in f) for f in fields):
                continue  # tolerate a header naming the columns
            raise FileFormatError(f"unparseable {what} row: {raw!r}", line=line_no) from None
        if len(values) != table.shape[1]:
            raise FileFormatError(
                f"expected {table.shape[1]} fields per {what} row, got {len(values)}",
                line=line_no,
            )
        if not all(map(math.isfinite, values)):
            raise FileFormatError(f"non-finite value in {what} row", line=line_no)
        table[n_rows] = values
        n_rows += 1
    return n_rows, line_no


def _fast_rows(block: bytes, n_lines: int, n_fields: int) -> np.ndarray | None:
    """A block's rows from one C-level parse, or None unless that parse
    provably equals the per-line rule's: the block holds only _FAST_BYTES,
    and parses to one row of n_fields finite reals per line, once each \\r\\n
    is \\n. loadtxt reads a token of those bytes with the parser float() uses."""
    block = block.replace(b"\r\n", b"\n") if b"\r" in block else block  # memchr, as above
    text = block.replace(b",", b" ")
    if block.translate(None, _FAST_BYTES) or text.isspace():  # loadtxt warns on no data
        return None
    try:
        rows = np.loadtxt(io.BytesIO(text), comments=None, ndmin=2)
    except ValueError:
        return None
    if rows.shape != (n_lines, n_fields) or not np.isfinite(rows).all():
        return None
    return rows


def _read_table(path, n_fields: int, what: str) -> np.ndarray:
    """Comma/whitespace-separated numeric rows as an (N, n_fields) float64
    array, read in blocks as the module docstring describes. A file with
    several faults reports the first one in file order."""
    with open(path, "rb") as raw:
        fh = raw if raw.seekable() else io.BytesIO(raw.read())  # a pipe is read whole
        table = np.empty((_line_bound(fh), n_fields))
        fh.seek(0)
        n_rows = line_no = 0
        while not n_rows and (line := fh.readline()):
            n_rows, line_no = _parse_lines(line, table, n_rows, line_no, what)
        while lines := list(islice(fh, _BLOCK_LINES)):
            block = b"".join(lines)
            rows = _fast_rows(block, len(lines), n_fields)
            if rows is None:
                n_rows, line_no = _parse_lines(block, table, n_rows, line_no, what)
            else:
                table[n_rows:n_rows + len(rows)] = rows
                n_rows, line_no = n_rows + len(rows), line_no + len(rows)
    return table[:n_rows]


def read_acs(path) -> np.ndarray:
    """(N, 8) float64 array in ac_array's layout: x1, y1, x2, y2, a11, a12, a21, a22."""
    return _read_table(path, 8, "AC")


def write_acs(path, acs: Sequence[AffineCorrespondence] | np.ndarray) -> None:
    """AC file from a list of AffineCorrespondence or an ac_array."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(AC_HEADER + "\n")
        for row in ac_array(acs).tolist():
            fh.write(",".join(fmt(v) for v in row) + "\n")


def read_matches(path) -> np.ndarray:
    """(N, 4) array of x1, y1, x2, y2 rows."""
    return _read_table(path, 4, "match")


def write_matches(path, matches) -> None:
    rows = match_array(matches)  # before the file is opened: a refusal leaves it as it was
    with open(path, "w", encoding="ascii") as fh:
        fh.write(MATCH_HEADER + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def read_points(path) -> np.ndarray:
    """(N, 2) array of x, y rows."""
    return _read_table(path, 2, "point")


def write_points(path, points) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(POINT_HEADER + "\n")
        for row in np.asarray(points, dtype=float).reshape(-1, 2):
            fh.write(",".join(fmt(v) for v in row) + "\n")


# --- fixed-size formats ----------------------------------------------------------

def _numeric_tokens(path, what: str) -> list[float]:
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    values = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        for tok in line.replace(",", " ").split():
            try:
                values.append(float(tok))
            except ValueError:
                raise FileFormatError(f"unparseable {what} value {tok!r}", line=line_no)
    return values


def read_mat3(path) -> Mat3:
    """9 whitespace-separated reals, row-major; 1- or 3-line layouts both parse."""
    values = _numeric_tokens(path, "matrix")
    if len(values) != 9:
        raise InvalidValue(f"matrix file {path} holds {len(values)} values, expected 9")
    return np.array(values, dtype=float).reshape(3, 3)


def write_mat3(path, M) -> None:
    M = np.asarray(M, dtype=float).reshape(3, 3)
    with open(path, "w", encoding="ascii") as fh:
        for row in M:
            fh.write(" ".join(fmt(v) for v in row) + "\n")


def read_pose(path) -> RelativePose:
    """Line 1: rotation as 9 row-major reals; line 2: unit translation, 3 reals."""
    values = _numeric_tokens(path, "pose")
    if len(values) != 12:
        raise InvalidValue(f"pose file {path} holds {len(values)} values, expected 12")
    return RelativePose(R=np.array(values[:9]).reshape(3, 3), t=np.array(values[9:]))


def write_pose(path, pose: RelativePose) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(" ".join(fmt(v) for v in pose.R.ravel()) + "\n")
        fh.write(" ".join(fmt(v) for v in pose.t) + "\n")


def read_intrinsics(path) -> CameraIntrinsics:
    """One line: fx fy cx cy [skew]."""
    values = _numeric_tokens(path, "intrinsics")
    if len(values) not in (4, 5):
        raise InvalidValue(
            f"intrinsics file {path} holds {len(values)} values, expected 4 or 5"
        )
    skew = values[4] if len(values) == 5 else 0.0
    return CameraIntrinsics(fx=values[0], fy=values[1], cx=values[2], cy=values[3], skew=skew)


def write_intrinsics(path, K: CameraIntrinsics) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fields = [K.fx, K.fy, K.cx, K.cy] + ([K.skew] if K.skew != 0.0 else [])
        fh.write(" ".join(fmt(v) for v in fields) + "\n")


def read_labels(path) -> np.ndarray:
    values = _numeric_tokens(path, "label")
    if any(v not in (0.0, 1.0) for v in values):
        raise FileFormatError(f"labels in {path} must be 0 or 1")
    return np.array(values, dtype=float).astype(bool)


def write_labels(path, labels) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for v in np.asarray(labels).astype(bool):
            fh.write(("1" if v else "0") + "\n")


# --- run reports ---------------------------------------------------------------

def _render_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _parse_value(s: str):
    """The bool, int or float that _render_value renders as s; any other
    token (1e1, 007) stays a string, so a report parses back losslessly."""
    if s in ("true", "false"):
        return s == "true"
    for parse in (int, float):
        try:
            value = parse(s)
        except ValueError:
            continue
        return value if _render_value(value) == s else s
    return s


@dataclass
class RunReport:
    """Structured key-value record of one command invocation. It holds no
    wall time (the CLI writes that to stderr), so rendered reports stay
    byte-deterministic for a fixed seed."""

    command: str
    config: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    seed: int | None = None


def render_report(report: RunReport) -> str:
    out = io.StringIO()
    out.write(f"command = {report.command}\n")
    if report.seed is not None:
        out.write(f"seed = {int(report.seed)}\n")
    for key, value in report.config.items():
        out.write(f"config.{key} = {_render_value(value)}\n")
    for key, value in report.metrics.items():
        out.write(f"metric.{key} = {_render_value(value)}\n")
    return out.getvalue()


def parse_report(text: str) -> RunReport:
    report = RunReport(command="")
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.lstrip()  # not rstrip: a value may be empty or end in spaces
        if not line or line.startswith("#"):
            continue
        if " = " not in line:
            raise FileFormatError(f"malformed report line {raw!r}", line=line_no)
        key, value = line.split(" = ", 1)
        if key == "command":
            report.command = value
        elif key == "seed":
            report.seed = int(value)
        elif key.startswith("config."):
            report.config[key[len("config."):]] = _parse_value(value)
        elif key.startswith("metric."):
            report.metrics[key[len("metric."):]] = _parse_value(value)
        else:
            raise FileFormatError(f"unknown report key {key!r}", line=line_no)
    return report
