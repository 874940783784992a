"""Bit-exact file formats for ACs, 3x3 models, poses, intrinsics and reports.

All reals in data files are serialized with 17 significant digits, which
round-trips doubles exactly: write -> read -> write is byte-identical. Lines
starting with '#' are comments; the AC/match/point tables carry a header line
naming their columns.

Every reader takes the file in blocks of _BLOCK_LINES lines from one
iterator (_blocks) and names the line of a non-ASCII byte (_lines). The table
readers (read_acs, read_matches, read_points, and read_labels: one 0/1
column) first count the line breaks, an upper bound on the rows, and allocate
the float64 array for that many rows, so a file too large for memory fails
before any parsing. The lines through the first row then take the per-line
rule (_parse_lines: header, comments, blank lines, one float() per field). A
later block holding only digits, '+-.eE', commas, spaces and '\\n' (or
'\\r\\n') is parsed by one np.loadtxt call, and kept when that gives one row
of finite values per line. Any other block goes through the per-line rule, so
each error keeps its message and line, and the first fault in file order is
reported. Memory is the array plus one block (a pipe, which cannot be read
twice, is held whole). The fixed-size readers parse every token in file
order, keeping as many values as a valid file holds and counting the rest.

Every table the package writes, to a file or stdout, goes through one
routine, _write_table: an optional header, then each row as the text of one
%-format ("%.17g" per real, the text fmt gives), _BLOCK_LINES rows to a
.tolist() and a write call, so memory is the array plus one block of text.
Each writer checks its input before it opens the file, so input it refuses
leaves an existing file as it was.
"""

from __future__ import annotations

import io
import math
import re
from dataclasses import dataclass, field
from itertools import islice
from typing import Sequence

import numpy as np

from .core import AffineCorrespondence, CameraIntrinsics, Mat3, ac_array, match_array
from .errors import FileFormatError, InvalidArgument, InvalidValue
from .solvers import RelativePose

AC_HEADER = "x1,y1,x2,y2,a11,a12,a21,a22"
MATCH_HEADER = "x1,y1,x2,y2"
POINT_HEADER = "x,y"
RESIDUAL_COLUMNS = "index,e_pc,sd_p,m0,n0,sd_a1,sd_a2"


def fmt(v: float) -> str:
    """17-significant-digit representation (exact at double precision)."""
    return f"{float(v):.17g}"


def _reals(n: int, sep: str = ",") -> str:
    """The row format of n reals, each cell the text fmt gives."""
    return sep.join(["%.17g"] * n) + "\n"


# The CLI's tables: (row format, header).
_RESIDUAL_TABLE = ("%d," + _reals(6), RESIDUAL_COLUMNS)
_MMA_TABLE = ("%d,%.17g\n", "threshold,mma")
_POSE_ERROR_TABLE = ("%s," + _reals(2), "pair,rotation_error_deg,translation_error_deg")


def _write_table(dest, rows: np.ndarray, row_format: str, header: str | None = None) -> None:
    """The one table writer: to dest, an open text stream or a path it opens,
    the header line if any, then row_format % row for each row of the 2-D
    array rows, converting and writing _BLOCK_LINES rows at a time."""
    if not hasattr(dest, "write"):
        with open(dest, "w", encoding="ascii") as fh:
            return _write_table(fh, rows, row_format, header)
    if header is not None:
        dest.write(header + "\n")
    for start in range(0, len(rows), _BLOCK_LINES):
        block = rows[start:start + _BLOCK_LINES]
        dest.write((row_format * len(block)) % tuple(block.ravel().tolist()))


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


def _blocks(fh):
    """(line count, bytes) of each next _BLOCK_LINES lines of binary file fh."""
    while lines := list(islice(fh, _BLOCK_LINES)):
        yield len(lines), b"".join(lines)


def _lines(data: bytes, what: str, line_no: int = 0):
    """(line number, line, line without its comment and outer spaces) for
    each line of data, numbered on from line_no; a non-ASCII byte raises
    FileFormatError naming its line."""
    for line_no, raw in enumerate(
        data.decode("ascii", "surrogateescape").splitlines(), start=line_no + 1
    ):
        if not raw.isascii():
            raise FileFormatError(f"non-ASCII byte in {what} file", line=line_no)
        yield line_no, raw, raw.split("#", 1)[0].strip()


def _parse_lines(data: bytes, table: np.ndarray, n_rows: int, line_no: int,
                 what: str) -> tuple[int, int]:
    """The per-line rule. The rows of data's lines, numbered on from line_no,
    go into table from row n_rows; returns the row count and the last line
    number. A line holding only letters before the first row is a header;
    any other line that is not blank or a comment must hold one finite real
    per column of table, or FileFormatError names it."""
    for line_no, raw, line in _lines(data, what, line_no):
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
        for n_lines, block in _blocks(fh):
            rows = _fast_rows(block, n_lines, n_fields)
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
    """AC file (or table on an open text stream) from a list of
    AffineCorrespondence or an ac_array."""
    _write_table(path, ac_array(acs), _reals(8), AC_HEADER)


def read_matches(path) -> np.ndarray:
    """(N, 4) array of x1, y1, x2, y2 rows."""
    return _read_table(path, 4, "match")


def write_matches(path, matches) -> None:
    _write_table(path, match_array(matches), _reals(4), MATCH_HEADER)


def read_points(path) -> np.ndarray:
    """(N, 2) array of x, y rows."""
    return _read_table(path, 2, "point")


def write_points(path, points) -> None:
    """Point file from an (n, 2) array or n pairs (x, y) (an empty list is no
    points); any other shape raises InvalidArgument before the file is opened."""
    try:
        P = np.asarray(points, dtype=np.float64)
    except (TypeError, ValueError) as exc:  # ragged or not numbers
        raise InvalidArgument(f"points must be (n, 2) rows: {exc}") from exc
    if P.shape[1:] != (2,) and P.shape != (0,):
        raise InvalidArgument(f"points must be (n, 2), got {P.shape}")
    _write_table(path, P.reshape(-1, 2), _reals(2), POINT_HEADER)


# --- fixed-size formats ----------------------------------------------------------

_TOKEN = re.compile(r"[^\s,]+")  # a token of line.replace(",", " ").split()


def _numeric_tokens(path, what: str, *counts: int) -> list[float]:
    """The reals of a fixed-size file, as many as one of counts."""
    values, n_values, line_no = [], 0, 0
    with open(path, "rb") as fh:
        for _, block in _blocks(fh):
            for line_no, _, line in _lines(block, what, line_no):
                for tok in map(re.Match.group, _TOKEN.finditer(line)):
                    try:
                        values.append(float(tok))
                    except ValueError:
                        raise FileFormatError(f"unparseable {what} value {tok!r}", line=line_no)
                    n_values += 1
                    del values[max(counts):]  # past that, only count
    if n_values not in counts:
        expected = " or ".join(map(str, counts))
        raise InvalidValue(f"{what} file {path} holds {n_values} values, expected {expected}")
    return values


def read_mat3(path) -> Mat3:
    """9 whitespace-separated reals, row-major; 1- or 3-line layouts both parse."""
    return np.array(_numeric_tokens(path, "matrix", 9), dtype=float).reshape(3, 3)


def write_mat3(path, M) -> None:
    _write_table(path, np.asarray(M, dtype=float).reshape(3, 3), _reals(3, " "))


def read_pose(path) -> RelativePose:
    """Line 1: rotation as 9 row-major reals; line 2: unit translation, 3 reals."""
    values = _numeric_tokens(path, "pose", 12)
    return RelativePose(R=np.array(values[:9]).reshape(3, 3), t=np.array(values[9:]))


def write_pose(path, pose: RelativePose) -> None:
    # one row of 12 reals: R row-major on line 1, t on line 2
    row = np.concatenate([pose.R.ravel(), pose.t])[None]
    _write_table(path, row, _reals(9, " ") + _reals(3, " "))


def read_intrinsics(path) -> CameraIntrinsics:
    """One line: fx fy cx cy [skew]."""
    values = _numeric_tokens(path, "intrinsics", 4, 5)
    skew = values[4] if len(values) == 5 else 0.0
    return CameraIntrinsics(fx=values[0], fy=values[1], cx=values[2], cy=values[3], skew=skew)


def write_intrinsics(path, K: CameraIntrinsics) -> None:
    fields = [K.fx, K.fy, K.cx, K.cy] + ([K.skew] if K.skew != 0.0 else [])
    _write_table(path, np.array([fields], dtype=float), _reals(len(fields), " "))


def read_labels(path) -> np.ndarray:
    """(N,) bool array of a one-column table of 0s and 1s."""
    values = _read_table(path, 1, "label")[:, 0]
    if not ((values == 0.0) | (values == 1.0)).all():
        raise FileFormatError(f"labels in {path} must be 0 or 1")
    return values == 1.0


def write_labels(path, labels) -> None:
    """Label file from n bool or numeric values read as bools, (n,) or (n, 1);
    any other dtype or shape raises InvalidArgument before the file is opened."""
    values = np.asarray(labels)
    if values.dtype.kind not in "biuf":  # a string would be read by its truthiness
        raise InvalidArgument(f"labels must be bool or numeric, got dtype {values.dtype}")
    if np.isnan(values).any():  # astype(bool) would read NaN as an inlier
        raise InvalidArgument("labels must not be NaN")
    mask = values.astype(bool)
    if mask.ndim == 0 or mask.size != len(mask):
        raise InvalidArgument(f"labels must be (n,), got {mask.shape}")
    _write_table(path, mask.reshape(-1, 1).view(np.uint8), "%d\n")


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
    lines = [f"command = {report.command}"]
    if report.seed is not None:
        lines.append(f"seed = {int(report.seed)}")
    lines += [f"config.{key} = {_render_value(value)}" for key, value in report.config.items()]
    lines += [f"metric.{key} = {_render_value(value)}" for key, value in report.metrics.items()]
    return "\n".join(lines) + "\n"


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
