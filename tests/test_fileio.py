"""Tests for the bit-exact file formats and run reports."""

import contextlib
import io
import os
import re
import shutil
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from affgeo import AffineCorrespondence, CameraIntrinsics, NoiseSpec, RelativePose
from affgeo import ac_array, generate_scene, sample_acs
from affgeo import fileio
from affgeo.cli import main
from affgeo.core import match_array
from affgeo.errors import (
    DegenerateConfiguration,
    FileFormatError,
    InvalidArgument,
    InvalidValue,
    PointAtInfinity,
)
from affgeo.fileio import (
    AC_HEADER,
    MATCH_HEADER,
    POINT_HEADER,
    RunReport,
    fmt,
    parse_report,
    read_acs,
    read_intrinsics,
    read_labels,
    read_mat3,
    read_matches,
    read_points,
    read_pose,
    render_report,
    write_acs,
    write_intrinsics,
    write_labels,
    write_mat3,
    write_matches,
    write_points,
    write_pose,
)
from affgeo.metrics import MMA_THRESHOLDS, evaluate_matches, pose_error
from affgeo.residuals import (
    FundamentalMatrix,
    affine_terms,
    epipolar_terms,
    sampson_affine_batch,
    sampson_point_batch,
)
from affgeo.solvers import (
    Homography,
    apply_homography,
    axis_angle_rotation,
    gt_affine_from_homography,
)

from conftest import cli_env

TRICKY = [0.1, -1.0 / 3.0, 1e-300, 2.5e17, -7.125, np.pi, 1.0000000000000002]


def _tricky_acs():
    rng = np.random.default_rng(55)
    acs = []
    for _ in range(20):
        vals = rng.choice(TRICKY, size=8) * rng.uniform(0.5, 2.0, size=8)
        acs.append(
            AffineCorrespondence(p1=vals[:2], p2=vals[2:4], A=vals[4:].reshape(2, 2))
        )
    return acs


class TestAcFile:
    def test_value_round_trip(self, tmp_path):
        path = tmp_path / "acs.csv"
        acs = _tricky_acs()
        write_acs(path, acs)
        back = read_acs(path)
        assert back.shape == (len(acs), 8)
        for a, row in zip(acs, back):
            assert np.array_equal(a.p1, row[0:2])
            assert np.array_equal(a.p2, row[2:4])
            assert np.array_equal(a.A, row[4:8].reshape(2, 2))

    def test_byte_round_trip(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_acs(p1, _tricky_acs())
        write_acs(p2, read_acs(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_comments_and_header_tolerated(self, tmp_path):
        path = tmp_path / "acs.csv"
        path.write_text(
            "# a comment\nx1,y1,x2,y2,a11,a12,a21,a22\n1,2,3,4,5,6,7,8  # trailing\n"
        )
        acs = read_acs(path)
        assert acs.shape == (1, 8) and acs[0, 7] == 8.0

    def test_wrong_field_count_names_line(self, tmp_path):
        path = tmp_path / "acs.csv"
        path.write_text("x1,y1,x2,y2,a11,a12,a21,a22\n1,2,3,4,5,6,7\n")
        with pytest.raises(FileFormatError) as exc:
            read_acs(path)
        assert exc.value.line == 2
        assert "line 2" in str(exc.value)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "acs.csv"
        path.write_text("1,2,3,4,5,6,7,abc\n")
        with pytest.raises(FileFormatError):
            read_acs(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "acs.csv"
        path.write_text("1,2,3,4,5,6,7,nan\n")
        with pytest.raises(FileFormatError):
            read_acs(path)
        # several faults: the first in file order (nan on line 3) is reported,
        # not the 7-field row on line 5
        row = "1,2,3,4,5,6,7,8\n"
        path.write_text(AC_HEADER + "\n" + row + "1,2,3,4,5,6,7,nan\n" + row + "1,2,3,4,5,6,7\n")
        with pytest.raises(FileFormatError, match="non-finite") as exc:
            read_acs(path)
        assert exc.value.line == 3


class TestTables:
    def test_matches_round_trip(self, tmp_path):
        path = tmp_path / "m.csv"
        m = np.random.default_rng(1).uniform(-50, 50, size=(12, 4))
        write_matches(path, m)
        assert np.array_equal(read_matches(path), m)

    def test_points_round_trip(self, tmp_path):
        path = tmp_path / "p.csv"
        pts = np.random.default_rng(2).uniform(-50, 50, size=(9, 2))
        write_points(path, pts)
        assert np.array_equal(read_points(path), pts)

    def test_whitespace_separation_accepted(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("1 2\n3\t4\n")
        assert np.array_equal(read_points(path), [[1.0, 2.0], [3.0, 4.0]])


    @pytest.mark.parametrize("shape", [(50, 8), (2, 2)])
    def test_matches_of_other_shapes_refused(self, tmp_path, shape):
        path = tmp_path / "m.csv"
        write_matches(path, np.ones((3, 4)))
        kept = path.read_bytes()
        with pytest.raises(InvalidArgument, match=re.escape(f"got {shape}")):
            write_matches(path, np.zeros(shape))
        assert path.read_bytes() == kept

    @pytest.mark.parametrize("points, message", [
        (np.zeros((3, 4)), "got (3, 4)"),
        (np.zeros(3), "got (3,)"),
        (np.zeros((2, 2, 2)), "got (2, 2, 2)"),
        (np.zeros(()), "got ()"),
        ([[1.0, 2.0], [3.0]], "must be (n, 2) rows"),
    ])
    def test_points_of_other_shapes_refused(self, tmp_path, points, message):
        path = tmp_path / "p.csv"
        write_points(path, [[3.0, 4.0], [5.0, 6.0]])
        kept = path.read_bytes()
        with pytest.raises(InvalidArgument, match=re.escape(message)):
            write_points(path, points)
        assert path.read_bytes() == kept

    def test_refused_acs_leave_the_file_as_it_was(self, tmp_path):
        path = tmp_path / "a.csv"
        write_acs(path, np.ones((2, 8)))
        kept = path.read_bytes()
        with pytest.raises(InvalidValue, match=re.escape("got (2, 7)")):
            write_acs(path, np.zeros((2, 7)))
        with pytest.raises(InvalidValue, match="non-finite"):
            write_acs(path, np.full((2, 8), np.nan))
        assert path.read_bytes() == kept


class TestFixedFormats:
    def test_mat3_three_line_and_one_line(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_text("1 2 3\n4 5 6\n7 8 9\n")
        b.write_text("1 2 3 4 5 6 7 8 9\n")
        assert np.array_equal(read_mat3(a), read_mat3(b))

    def test_mat3_round_trip(self, tmp_path):
        path = tmp_path / "m.txt"
        M = np.random.default_rng(3).normal(size=(3, 3))
        write_mat3(path, M)
        assert np.array_equal(read_mat3(path), M)
        second = tmp_path / "m2.txt"
        write_mat3(second, read_mat3(path))
        assert path.read_bytes() == second.read_bytes()

    def test_mat3_wrong_count(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 2 3 4 5 6 7 8\n")
        with pytest.raises(InvalidValue, match=r"holds 8 values, expected 9"):
            read_mat3(path)

    def test_pose_round_trip(self, tmp_path):
        path = tmp_path / "pose.txt"
        pose = RelativePose(R=axis_angle_rotation([1.0, 2.0, 0.5], 0.3), t=[0.1, -0.2, 0.4])
        write_pose(path, pose)
        back = read_pose(path)
        assert np.array_equal(back.R, pose.R)
        assert np.array_equal(back.t, pose.t)

    def test_intrinsics_round_trip(self, tmp_path):
        path = tmp_path / "k.txt"
        for K in (
            CameraIntrinsics(fx=600.0, fy=610.0, cx=320.0, cy=240.0),
            CameraIntrinsics(fx=600.0, fy=610.0, cx=320.0, cy=240.0, skew=0.25),
        ):
            write_intrinsics(path, K)
            assert read_intrinsics(path) == K

    def test_labels_round_trip(self, tmp_path):
        path = tmp_path / "labels.txt"
        labels = np.array([True, False, True, True, False])
        write_labels(path, labels)
        assert np.array_equal(read_labels(path), labels)

    def test_labels_reject_other_values(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("0\n2\n")
        with pytest.raises(FileFormatError):
            read_labels(path)


class TestRunReport:
    def test_render_parse_render_byte_identical(self):
        report = RunReport(
            command="estimate",
            seed=42,
            config={"model": "fundamental", "threshold": 0.5, "lo_enabled": True, "n": 3},
            metrics={"inliers": 17, "score": 1.25, "ratio": 1.0 / 3.0, "status": "ok"},
        )
        text = render_report(report)
        assert "timing" not in text  # timing never enters the deterministic output
        again = render_report(parse_report(text))
        assert text == again

    def test_parse_types(self):
        rep = parse_report("command = x\nseed = 7\nconfig.flag = false\nmetric.v = 2.5\n")
        assert rep.seed == 7
        assert rep.config["flag"] is False
        assert rep.metrics["v"] == 2.5

    def test_malformed_line(self):
        with pytest.raises(FileFormatError):
            parse_report("command = x\ngarbage line\n")


# --- write -> read -> write under arbitrary values ---------------------------------

# Finite doubles, with the edge cases spelled out: -0.0, subnormals, +-1e308.
DOUBLES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-308, 1e308, -1e308, 0.1]),
    st.floats(allow_nan=False, allow_infinity=False),
)
POSITIVE = st.one_of(
    st.sampled_from([5e-324, 1e308, 600.0]),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)


def _tables(n_fields, n_rows=st.integers(0, 4), reals=DOUBLES):
    return n_rows.flatmap(
        lambda n: st.lists(reals, min_size=n * n_fields, max_size=n * n_fields).map(
            lambda v: np.reshape(np.array(v, dtype=np.float64), (-1, n_fields))
        )
    )


@st.composite
def _poses(draw):
    """R from axis_angle_rotation; t scaled so that its largest entry is +-1,
    which keeps |t| finite and nonzero whatever the drawn doubles."""
    axis = draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
    assume(np.linalg.norm(axis) > 0.0)
    R = axis_angle_rotation(axis, draw(st.floats(-10.0, 10.0)))
    t = np.array(draw(st.lists(DOUBLES, min_size=3, max_size=3)))
    assume(np.any(t))
    return RelativePose(R=R, t=t / np.max(np.abs(t)))


def _intrinsics(skew):
    return st.builds(CameraIntrinsics, fx=POSITIVE, fy=POSITIVE, cx=DOUBLES, cy=DOUBLES,
                     skew=skew)


ROUND_TRIPS = {
    "acs": (write_acs, read_acs, _tables(8)),
    "matches": (write_matches, read_matches, _tables(4)),
    "points": (write_points, read_points, _tables(2)),
    "mat3": (write_mat3, read_mat3, _tables(3, st.just(3))),
    "pose": (write_pose, read_pose, _poses()),
    "intrinsics4": (write_intrinsics, read_intrinsics, _intrinsics(st.just(0.0))),
    "intrinsics5": (write_intrinsics, read_intrinsics, _intrinsics(DOUBLES.filter(bool))),
    "labels": (write_labels, read_labels, st.lists(st.booleans(), max_size=6)),
}


@pytest.fixture(scope="module")
def round_trip_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("round_trip")


@pytest.mark.parametrize("name", ROUND_TRIPS)
@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_write_read_write_byte_identical(name, data, round_trip_dir):
    write, read, values = ROUND_TRIPS[name]
    first, second = round_trip_dir / f"{name}.1", round_trip_dir / f"{name}.2"
    write(first, data.draw(values))
    write(second, read(first))
    assert second.read_bytes() == first.read_bytes()


# Tokens that look numeric but do not render back as themselves.
NUMERIC_LOOKING = ["1e1", "007", "-0", "+5", "1_000", "1.50", "Infinity", "0x10", "True"]
KEYS = st.text(alphabet="abcxyz019_.@", min_size=1, max_size=8)
TEXT = st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=8)
VALUES = st.one_of(
    st.booleans(), st.integers(), st.floats(), DOUBLES, st.sampled_from(NUMERIC_LOOKING), TEXT
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(report=st.builds(
    RunReport, command=TEXT, config=st.dictionaries(KEYS, VALUES, max_size=5),
    metrics=st.dictionaries(KEYS, VALUES, max_size=5),
    seed=st.none() | st.integers(min_value=0),
))
def test_any_report_renders_back_byte_identical(report):
    text = render_report(report)
    assert render_report(parse_report(text)) == text


# --- block parsing against the per-line reader it replaced ---------------------------

def _reference_parse_table(text: str, n_fields: int, what: str) -> np.ndarray:
    """Reference: the table reader as first written, one float() per field
    over the whole decoded text."""
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


TABLE_READERS = {8: (read_acs, "AC"), 4: (read_matches, "match"), 2: (read_points, "point")}
# Tokens: exact doubles in the formats files carry and integers, and odd
# ones: non-finite values and strings of the bytes the fast path admits or the
# per-line rule treats specially.
NUMBERS = st.one_of(
    DOUBLES.map(lambda v: f"{v:.17g}"),
    DOUBLES.map(repr),
    DOUBLES.map(lambda v: f"{v:.6g}"),
    st.integers(-10**6, 10**6).map(str),
)
ODD_TOKENS = st.one_of(
    st.sampled_from(["nan", "inf", "1e5000", "-1e5000", "1e-5000", "1_0", "1e", "-", "+.e1"]),
    st.text(alphabet="0123456789,. +-e_#\r\x0b\x0c\x1c", min_size=1, max_size=5),
)
# Separators: those of a row, then those that break it (a line break within
# the row, an underscore that float() reads as a digit group, a comment).
SEPARATORS, ODD_SEPARATORS = [",", " ", ", ", ",,"], ["\r", "\x0b", "\x0c", "\x1c", "_", " #"]
HEADERS = st.sampled_from([AC_HEADER, "x y", "a,b,c,d", "x1 y1 # columns", "x1,2"])


@st.composite
def _table_texts(draw, n_fields):
    """A table file: mostly rows of n_fields numbers on \\n-ended lines, with
    rows holding a wrong field count, an odd token or an odd separator, and
    headers, comments, blank lines and the other line breaks mixed in."""
    lines = []
    for _ in range(draw(st.integers(0, 16))):
        kind = draw(st.sampled_from(["row"] * 7 + ["odd row"] * 2 + ["header", "comment", "blank"]))
        if kind.endswith("row"):
            n = n_fields + (draw(st.sampled_from([0, 0, -1, 1])) if kind == "odd row" else 0)
            tokens = draw(st.lists(NUMBERS, min_size=n, max_size=n))
            seps = draw(st.lists(st.sampled_from(SEPARATORS), min_size=n, max_size=n))
            seps[-1] = draw(st.sampled_from(["", "", " # note", " "]))
            if kind == "odd row" and draw(st.booleans()):
                tokens[draw(st.integers(0, n - 1))] = draw(ODD_TOKENS)
            elif kind == "odd row" and n > 1:
                seps[draw(st.integers(0, n - 2))] = draw(st.sampled_from(ODD_SEPARATORS))
            line = "".join(t + sep for t, sep in zip(tokens, seps))
        elif kind == "header":
            line = draw(HEADERS)
        elif kind == "comment":
            line = "# " + draw(st.text(alphabet="ab12,#", max_size=6))
        else:
            line = draw(st.sampled_from(["", "  ", " , "]))
        lines.append(line + draw(st.sampled_from(["\n"] * 12 + ["\r", "\r\n", "\x0b", "\x0c", "\x1c"])))
    text = "".join(lines)
    return text[:-1] if text and draw(st.booleans()) else text  # maybe no final line break


def _outcome(parse):
    try:
        table = parse()
    except FileFormatError as exc:
        return type(exc), str(exc), exc.line
    return table.shape, table.tobytes()


@pytest.mark.filterwarnings("error")  # e.g. loadtxt's on a block with no data
@pytest.mark.parametrize("n_fields", TABLE_READERS)
@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_block_parse_matches_per_line_reference(n_fields, data, round_trip_dir):
    """Every 1-3 lines start a block, so block edges land on every kind of
    line: the reader returns the reference's bytes or raises its error."""
    read, what = TABLE_READERS[n_fields]
    text = data.draw(_table_texts(n_fields))
    path = round_trip_dir / f"table{n_fields}.txt"
    path.write_bytes(text.encode("ascii"))
    with open(path, encoding="ascii") as fh:  # universal newlines, as the reference read
        expected = _outcome(lambda: _reference_parse_table(fh.read(), n_fields, what))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fileio, "_BLOCK_LINES", data.draw(st.integers(1, 3)))
        assert _outcome(lambda: read(path)) == expected


# Point files whose faults or values sit past the first row, where the fast
# path declines a block: the per-line rule must see it with the right line.
BLOCK_CASES = {
    "overflow to inf": "x,y\n1,2\n3,4\n5,1e5000\n",
    "nan": "1,2\n3,nan\n",
    "digit group that float() reads": "x,y\n1,2\n3,1_0\n",
    "blank line, then a fault": "x,y\n1,2\n\n3,4\n5\n",
    "spaces line, then a fault": "1,2\n \n3,4\n5 6 7\n",
    "vertical tab within a row": "x,y\n1,2\n3\x0b4\n",
    "comment within the rows": "1,2\n3,4 # c\n5,6\n7\n",
    "header after a row": "1,2\nx,y\n",
    "tabs": "1\t2\n3\t4\n",
    "CRLF line ends": "x,y\r\n1,2\r\n3,4\r\n",
    "no final line break": "1,2\n3,4",
    "header only": "x,y\n",
    "empty": "",
}


@pytest.mark.parametrize("block_lines", [1, 2, 1 << 16])
@pytest.mark.parametrize("text", BLOCK_CASES.values(), ids=BLOCK_CASES)
def test_fast_path_declines_what_it_cannot_prove(text, block_lines, tmp_path, monkeypatch):
    path = tmp_path / "points.txt"
    path.write_bytes(text.encode("ascii"))
    expected = _outcome(lambda: _reference_parse_table(path.read_text(), 2, "point"))
    monkeypatch.setattr(fileio, "_BLOCK_LINES", block_lines)
    assert _outcome(lambda: read_points(path)) == expected


def test_non_ascii_byte_names_its_line(tmp_path):
    path = tmp_path / "acs.csv"
    write_acs(path, _tricky_acs())
    lines = path.read_bytes().splitlines(keepends=True)
    lines[5] = lines[5].replace(b",", b"\xff,", 1)
    path.write_bytes(b"".join(lines))
    with pytest.raises(FileFormatError, match="non-ASCII byte in AC file") as exc:
        read_acs(path)
    assert exc.value.line == 6


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_pipe_reads_like_a_file(tmp_path):
    path = tmp_path / "acs.csv"
    write_acs(path, _tricky_acs())
    r, w = os.pipe()
    os.write(w, path.read_bytes())  # 20 rows fit in the pipe's buffer
    os.close(w)
    try:
        assert read_acs(f"/dev/fd/{r}").tobytes() == read_acs(path).tobytes()
    finally:
        os.close(r)


def test_crlf_file_takes_the_fast_path(tmp_path, monkeypatch):
    noise = NoiseSpec(point_sigma=0.5, affine_rel_sigma=0.05, outlier_fraction=0.4)
    lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    write_acs(lf, sample_acs(generate_scene(seed=7, n_planes=2), 600, noise, seed=7)[0])
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    parse_lines, parsed = fileio._parse_lines, []

    def spy(data, *args):
        parsed.append(data)
        return parse_lines(data, *args)

    monkeypatch.setattr(fileio, "_parse_lines", spy)
    X = read_acs(crlf)
    assert X.shape == (600, 8) and X.tobytes() == read_acs(lf).tobytes()
    # only the lines through the first row take the per-line rule, as for the LF copy
    assert parsed[:2] == crlf.read_bytes().splitlines(keepends=True)[:2]
    assert parsed[2:] == lf.read_bytes().splitlines(keepends=True)[:2]
    with open(crlf, "rb") as fh:
        assert fileio._line_bound(fh) <= len(X) + 2


# --- the one table writer against the per-value writers it replaced ---------------

def _reference_write_acs(path, acs):
    rows = ac_array(acs).tolist()
    with open(path, "w", encoding="ascii") as fh:
        fh.write(AC_HEADER + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def _reference_write_matches(path, matches):
    rows = match_array(matches)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(MATCH_HEADER + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def _reference_write_points(path, points):
    P = np.asarray(points, dtype=np.float64)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(POINT_HEADER + "\n")
        for row in P.reshape(-1, 2):
            fh.write(",".join(fmt(v) for v in row) + "\n")


def _reference_write_mat3(path, M):
    M = np.asarray(M, dtype=float).reshape(3, 3)
    with open(path, "w", encoding="ascii") as fh:
        for row in M:
            fh.write(" ".join(fmt(v) for v in row) + "\n")


def _reference_write_pose(path, pose):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(" ".join(fmt(v) for v in pose.R.ravel()) + "\n")
        fh.write(" ".join(fmt(v) for v in pose.t) + "\n")


def _reference_write_intrinsics(path, K):
    with open(path, "w", encoding="ascii") as fh:
        fields = [K.fx, K.fy, K.cx, K.cy] + ([K.skew] if K.skew != 0.0 else [])
        fh.write(" ".join(fmt(v) for v in fields) + "\n")


def _reference_write_labels(path, labels):
    with open(path, "w", encoding="ascii") as fh:
        for v in np.asarray(labels).astype(bool):
            fh.write(("1" if v else "0") + "\n")


# DOUBLES' edge cases, the largest double and integral floats; ANY_REALS
# adds the non-finite values that a matrix file may hold.
EDGE_REALS = st.one_of(
    DOUBLES,
    st.sampled_from([1.7976931348623157e308, -1.7976931348623157e308, 1.0, -3.0, 2.0**53, 1e16]),
    st.integers(-10**6, 10**6).map(float),
)
ANY_REALS = st.one_of(EDGE_REALS, st.sampled_from([np.inf, -np.inf, np.nan, -np.nan]))


def _arrays(n_fields, reals=EDGE_REALS, n_rows=st.integers(0, 7)):
    return _tables(n_fields, n_rows, reals)


_LABELS = st.one_of(
    st.lists(st.booleans(), max_size=9),
    st.lists(st.sampled_from([0, 1, 2, -1]), max_size=9).map(np.array),
    st.lists(EDGE_REALS, max_size=9).map(lambda v: np.array(v).reshape(-1, 1)),
)


def _ac_list(X):
    return [AffineCorrespondence(r[0:2], r[2:4], r[4:8].reshape(2, 2)) for r in X]


# name: (writer, reference writer, its inputs in every form the writer takes)
WRITERS = {
    "acs": (write_acs, _reference_write_acs, st.one_of(_arrays(8), _arrays(8).map(_ac_list))),
    "matches": (write_matches, _reference_write_matches, st.one_of(
        _arrays(4), _arrays(4).map(lambda X: X.reshape(-1, 2, 2)))),
    "points": (write_points, _reference_write_points, st.one_of(
        _arrays(2), _arrays(2).map(lambda X: X.tolist()))),
    "mat3": (write_mat3, _reference_write_mat3, _arrays(3, ANY_REALS, st.just(3))),
    "pose": (write_pose, _reference_write_pose, _poses()),
    "intrinsics": (write_intrinsics, _reference_write_intrinsics, st.one_of(
        _intrinsics(st.just(0.0)), _intrinsics(DOUBLES.filter(bool)))),
    "labels": (write_labels, _reference_write_labels, _LABELS),
}
# Rows per block: a few, so that block edges land on every row, or the default.
BLOCK_SIZES = st.sampled_from([1, 2, 3, fileio._BLOCK_LINES])


@pytest.mark.parametrize("name", WRITERS)
@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_writer_gives_the_per_value_writers_bytes(name, data, round_trip_dir):
    write, reference, values = WRITERS[name]
    value = data.draw(values)
    want, got = round_trip_dir / f"{name}.want", round_trip_dir / f"{name}.got"
    reference(want, value)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fileio, "_BLOCK_LINES", data.draw(BLOCK_SIZES))
        write(got, value)
    assert got.read_bytes() == want.read_bytes()


def test_refused_labels_leave_the_file_as_it_was(tmp_path):
    path = tmp_path / "labels.txt"
    write_labels(path, [True, False, True])
    kept = path.read_bytes()
    for labels, message in [(np.zeros((2, 2)), "got (2, 2)"), (np.zeros(()), "got ()"),
                            (np.zeros((3, 1, 2)), "got (3, 1, 2)")]:
        with pytest.raises(InvalidArgument, match=re.escape(message)):
            write_labels(path, labels)
    with pytest.raises(ValueError):  # numpy refuses ragged input before the file is opened
        write_labels(path, [[1], [0, 1]])
    assert path.read_bytes() == kept


def _run_main(args):
    """(exit code, stdout) of an in-process CLI call; stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([str(a) for a in args])
    return code, out.getvalue()


def _reference_residual_table(acs, F):
    x1, y1, x2, y2, a11, a12, a21, a22 = acs.T
    e_pc = epipolar_terms(x1, y1, x2, y2, F)[0]
    sd_p = sampson_point_batch(x1, y1, x2, y2, F)
    (m_terms, n_terms) = affine_terms(x1, y1, x2, y2, a11, a12, a21, a22, F)
    sd_a1, sd_a2 = sampson_affine_batch(x1, y1, x2, y2, a11, a12, a21, a22, F)
    lines = ["index,e_pc,sd_p,m0,n0,sd_a1,sd_a2"]
    for i in range(len(acs)):
        values = (e_pc[i], sd_p[i], m_terms[0][i], n_terms[0][i], sd_a1[i], sd_a2[i])
        lines.append(",".join([str(i)] + [fmt(v) for v in values]))
    return "\n".join(lines) + "\n"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflowing residuals print as inf/nan
@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(acs=_arrays(8, n_rows=st.integers(1, 7)), F=_arrays(3, n_rows=st.just(3)),
       block=BLOCK_SIZES)
def test_residuals_tables_give_the_per_value_bytes(acs, F, block, round_trip_dir):
    assume(np.any(F))
    ac_file, f_file, csv = (round_trip_dir / n for n in ("res.csv", "res_F.txt", "res_out.csv"))
    write_acs(ac_file, acs)
    write_mat3(f_file, F)
    table = _reference_residual_table(read_acs(ac_file), FundamentalMatrix(read_mat3(f_file)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fileio, "_BLOCK_LINES", block)
        code, out = _run_main(["residuals", ac_file, f_file, "--csv", csv])
    assert code == 0
    assert out[:len(table)] == table and out[len(table):].startswith("command = residuals\n")
    assert csv.read_text(encoding="ascii") == table


SMALL_REALS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1.0, -2.0]), st.floats(-1e3, 1e3))


def _is_homography(M):
    try:
        with np.errstate(all="ignore"):  # det of subnormal entries
            Homography(M)
    except (InvalidValue, DegenerateConfiguration):
        return False
    return True


HOMOGRAPHIES = _arrays(3, SMALL_REALS, st.just(3)).filter(_is_homography)


def _reference_gt_affine_table(H, points):
    lines, skipped = [AC_HEADER], 0
    for p in points:
        try:
            A = gt_affine_from_homography(H, p)
            q = apply_homography(H, p)
        except PointAtInfinity:
            skipped += 1
            continue
        ac = AffineCorrespondence(p1=p, p2=q, A=A)
        lines.append(",".join(fmt(v) for v in ac_array([ac])[0]))
    return "\n".join(lines) + "\n", skipped


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(H=HOMOGRAPHIES, points=_arrays(2, SMALL_REALS), block=BLOCK_SIZES)
@example(H=np.array([[1.0, 0, 0], [0, 1, 0], [1, 0, 1]]), points=np.array([[-1.0, 0], [2, 3]]),
         block=1)  # (-1, 0) maps to infinity: skipped, exit 3
def test_gt_affine_table_gives_the_per_value_bytes(H, points, block, round_trip_dir):
    h_file, p_file = round_trip_dir / "gt_H.txt", round_trip_dir / "gt_points.csv"
    write_mat3(h_file, H)
    write_points(p_file, points)
    H = Homography(read_mat3(h_file))
    table, skipped = _reference_gt_affine_table(H, read_points(p_file))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fileio, "_BLOCK_LINES", block)
        assert _run_main(["gt-affine", h_file, p_file]) == (3 if skipped else 0, table)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(matches=st.lists(_arrays(4, SMALL_REALS), min_size=1, max_size=3),
       H=HOMOGRAPHIES, block=BLOCK_SIZES)
def test_mma_curve_csv_gives_the_per_value_bytes(matches, H, block, round_trip_dir):
    matches_dir, gt_dir = round_trip_dir / "mma_matches", round_trip_dir / "mma_gt"
    for d in (matches_dir, gt_dir):
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir()
    for i, m in enumerate(matches):
        write_matches(matches_dir / f"p{i}.csv", m)
        write_mat3(gt_dir / f"p{i}.txt", H)
    pairs = [(read_matches(matches_dir / f"p{i}.csv"), Homography(read_mat3(gt_dir / f"p{i}.txt")))
             for i in range(len(matches))]
    rows = ["threshold,mma"] + [f"{thr},{fmt(v)}" for thr, v in
                                zip(MMA_THRESHOLDS, evaluate_matches(pairs).curve.values)]
    csv = round_trip_dir / "mma.csv"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fileio, "_BLOCK_LINES", block)
        assert _run_main(["eval-mma", matches_dir, gt_dir, "--csv", csv])[0] == 0
    assert csv.read_text(encoding="ascii") == "\n".join(rows) + "\n"


# Stems holding the characters of a %-format, which must reach the file as text.
STEMS = st.text(alphabet="ab%sd0-_", min_size=1, max_size=5)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(poses=st.dictionaries(STEMS, st.tuples(_poses(), _poses()), min_size=1, max_size=4),
       block=BLOCK_SIZES)
def test_pose_error_csv_gives_the_per_value_bytes(poses, block, round_trip_dir):
    est_dir, gt_dir = round_trip_dir / "pose_est", round_trip_dir / "pose_gt"
    for d in (est_dir, gt_dir):
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir()
    for stem, (est, gt) in poses.items():
        write_pose(est_dir / f"{stem}.txt", est)
        write_pose(gt_dir / f"{stem}.txt", gt)
    rows = ["pair,rotation_error_deg,translation_error_deg"]
    for stem in sorted(poses):
        err = pose_error(read_pose(est_dir / f"{stem}.txt"), read_pose(gt_dir / f"{stem}.txt"))
        rows.append(f"{stem},{fmt(err.rotation_error)},{fmt(err.translation_error)}")
    csv = round_trip_dir / "pose.csv"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fileio, "_BLOCK_LINES", block)
        assert _run_main(["eval-pose", est_dir, gt_dir, "--csv", csv])[0] == 0
    assert csv.read_text(encoding="ascii") == "\n".join(rows) + "\n"


@pytest.mark.parametrize("read, what, text", [
    (read_mat3, "matrix", "1 2 3\n4 5 6\n7 8 9\n"),
    (read_pose, "pose", "1 0 0 0 1 0 0 0 1\n1 0 0\n"),
    (read_intrinsics, "intrinsics", "# fx fy cx cy\n600 600 320 240\n"),
    (read_labels, "label", "1\n0\n1\n"),
])
def test_fixed_format_readers_name_the_line_of_a_non_ascii_byte(read, what, text, tmp_path):
    path = tmp_path / "f.txt"
    path.write_text(text)
    read(path)  # the clean file reads
    lines = text.splitlines(keepends=True)
    lines[1] = lines[1].replace("0", "\xe90", 1) if "0" in lines[1] else "\xe9" + lines[1]
    path.write_bytes("".join(lines).encode("latin-1"))
    with pytest.raises(FileFormatError, match=f"non-ASCII byte in {what} file") as exc:
        read(path)
    assert exc.value.line == 2
    # in a comment, and past a CRLF line end, the line is still named
    path.write_bytes(text.replace("\n", "\r\n", 1).encode() + b"# caf\xc3\xa9\n")
    with pytest.raises(FileFormatError, match="non-ASCII") as exc:
        read(path)
    assert exc.value.line == len(lines) + 1


def test_write_acs_holds_one_block_not_the_table(tmp_path):
    # 400 000 rows, 25.6 MB as an array and about 62 MB as text. The child
    # caps its address space 96 MB above what it holds with the array built.
    # Written 64 K rows at a time (one block's floats, their text and its
    # encoded copy), the file is written under caps down to 52 MB; the
    # per-value writer, whose tolist() of the whole table alone holds about
    # 125 MB, needed 152 MB (calibrated in 4 MB steps, numpy 2.4, CPython 3.11).
    script = textwrap.dedent(
        """
        import resource, sys
        import numpy as np
        from affgeo.fileio import write_acs
        acs = np.random.default_rng(3).uniform(-640.0, 640.0, size=(400_000, 8))
        held = int(open("/proc/self/statm").read().split()[0]) * resource.getpagesize()
        resource.setrlimit(resource.RLIMIT_AS, (held + (96 << 20), held + (96 << 20)))
        write_acs(sys.argv[1], acs)
        """
    )
    out = tmp_path / "big.csv"
    proc = subprocess.run(
        [sys.executable, "-c", script, str(out)],
        env=cli_env(OPENBLAS_NUM_THREADS=1, OMP_NUM_THREADS=1, MKL_NUM_THREADS=1),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    with open(out, "rb") as fh:
        assert fileio._line_bound(fh) == 400_002  # the header, the rows, the final break
