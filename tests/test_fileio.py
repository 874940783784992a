"""Tests for the bit-exact file formats and run reports."""

import os
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from affgeo import AffineCorrespondence, CameraIntrinsics, NoiseSpec, RelativePose
from affgeo import generate_scene, sample_acs
from affgeo import fileio
from affgeo.errors import FileFormatError, InvalidArgument, InvalidValue
from affgeo.fileio import (
    AC_HEADER,
    RunReport,
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
from affgeo.solvers import axis_angle_rotation

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


def _tables(n_fields, n_rows=st.integers(0, 4)):
    return n_rows.flatmap(
        lambda n: st.lists(DOUBLES, min_size=n * n_fields, max_size=n * n_fields).map(
            lambda v: np.reshape(v, (-1, n_fields))
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
