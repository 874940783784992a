"""Bit-exact file formats for ACs, 3x3 models, poses, intrinsics and reports.

All reals in data files are serialized with 17 significant digits, which
round-trips doubles exactly: write -> read -> write is byte-identical. Lines
starting with '#' are comments; the AC/match/point tables carry a header line
naming their columns.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import AffineCorrespondence, CameraIntrinsics, Mat3, ac_array
from .errors import FileFormatError, InvalidValue
from .solvers import RelativePose

AC_HEADER = "x1,y1,x2,y2,a11,a12,a21,a22"
MATCH_HEADER = "x1,y1,x2,y2"
POINT_HEADER = "x,y"


def fmt(v: float) -> str:
    """17-significant-digit representation (exact at double precision)."""
    return f"{float(v):.17g}"


# --- tabular formats -----------------------------------------------------------

def _parse_table(text: str, n_fields: int, what: str) -> np.ndarray:
    """Comma/whitespace-separated numeric rows as an (N, n_fields) float64
    array. A file with several faults reports the first one in file order."""
    rows, line_nos, fault = [], [], None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.replace(",", " ").split()
        try:
            values = list(map(float, fields))
        except ValueError:
            if not rows and all(any(c.isalpha() for c in f) for f in fields):
                continue  # tolerate a header naming the columns
            fault = FileFormatError(f"unparseable {what} row: {raw!r}", line=line_no)
            break
        if len(values) != n_fields:
            fault = FileFormatError(
                f"expected {n_fields} fields per {what} row, got {len(values)}", line=line_no
            )
            break
        rows.append(values)
        line_nos.append(line_no)
    table = np.array(rows, dtype=np.float64).reshape(-1, n_fields)
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        line_no = line_nos[int(np.argmin(finite))]
        raise FileFormatError(f"non-finite value in {what} row", line=line_no)
    if fault is not None:
        raise fault
    return table


def read_acs(path) -> np.ndarray:
    """(N, 8) float64 array in ac_array's layout: x1, y1, x2, y2, a11, a12, a21, a22."""
    with open(path, "r", encoding="ascii") as fh:
        return _parse_table(fh.read(), 8, "AC")


def write_acs(path, acs: Sequence[AffineCorrespondence] | np.ndarray) -> None:
    """AC file from a list of AffineCorrespondence or an ac_array."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(AC_HEADER + "\n")
        for row in ac_array(acs).tolist():
            fh.write(",".join(fmt(v) for v in row) + "\n")


def read_matches(path) -> np.ndarray:
    """(N, 4) array of x1, y1, x2, y2 rows."""
    with open(path, "r", encoding="ascii") as fh:
        return _parse_table(fh.read(), 4, "match")


def write_matches(path, matches) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(MATCH_HEADER + "\n")
        for row in np.asarray(matches, dtype=float).reshape(-1, 4):
            fh.write(",".join(fmt(v) for v in row) + "\n")


def read_points(path) -> np.ndarray:
    """(N, 2) array of x, y rows."""
    with open(path, "r", encoding="ascii") as fh:
        return _parse_table(fh.read(), 2, "point")


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
