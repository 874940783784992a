"""Tests for the bit-exact file formats and run reports."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from affgeo import AffineCorrespondence, CameraIntrinsics, RelativePose
from affgeo.errors import FileFormatError, InvalidValue
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
            timing_ms=123.4,
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
