"""The error contract: the package raises only AffgeoError subclasses, and the
CLI turns whatever input bytes it reads into a documented exit code with one
`error:` line, never a traceback."""

import ast
import contextlib
import io
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from affgeo import NoiseSpec, ac_array, generate_scene, sample_acs
from affgeo.cli import main
from affgeo.fileio import AC_HEADER, fmt

SRC = Path(__file__).resolve().parents[1] / "src" / "affgeo"
BUILTIN_ERRORS = {"ValueError", "RuntimeError", "TypeError", "KeyError"}

# Hypothesis writes a cache of source constants at collection even without a
# database; keep it out of the working directory.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "affgeo-hypothesis")


def _builtin_raises(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in BUILTIN_ERRORS:
                yield f"{path.name}:{node.lineno}: raise {exc.id}"


def test_no_builtin_error_is_raised():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    offenders = [hit for path in sources for hit in _builtin_raises(path)]
    assert offenders == []


# --- exit codes under arbitrary file contents ------------------------------------

_SCENE = generate_scene(seed=1, n_planes=3)
_ACS = ac_array(sample_acs(_SCENE, 30, NoiseSpec(), seed=2)[0])
AC_ROWS = [[fmt(v) for v in row] for row in _ACS]
F_TOKENS = [fmt(v) for v in _SCENE.F_gt.matrix.ravel()]
K_TOKENS = ["600", "600", "320", "240"]
H_TOKENS = [fmt(v) for v in _SCENE.homographies[0].matrix.ravel()]
POSE_TOKENS = [fmt(v) for v in np.concatenate([_SCENE.pose.R.ravel(), _SCENE.pose.t])]
EXTREMES = ["1e308", "-1e308", "1e200", "-1e200", "1e-320", "0", "-0", "nan", "inf", "-inf"]


@st.composite
def _mutated(draw, rows, max_edits):
    """rows (lists of tokens) with up to max_edits entries replaced by extreme
    tokens and, one time in eight, one row given a wrong field count."""
    rows = [list(r) for r in rows]
    for _ in range(draw(st.integers(0, max_edits))):
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows[i]) - 1))
        rows[i][j] = draw(st.sampled_from(EXTREMES))
    if draw(st.integers(0, 7)) == 0:
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["1"]
    return rows


@st.composite
def cli_case(draw):
    command = draw(st.sampled_from(["residuals", "fundamental", "homography", "essential"]))
    n_rows = draw(st.sampled_from([0, 1, 2, 3, 4, 8, 30]))
    ac_rows = draw(_mutated(AC_ROWS[:n_rows], 6)) if n_rows else []
    f_tokens = draw(_mutated([F_TOKENS], 3))[0]
    k_tokens = draw(_mutated([K_TOKENS + draw(st.sampled_from([[], ["0"], ["1e308"]]))], 3))[0]
    return command, ac_rows, f_tokens, k_tokens


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


def _run_main(argv) -> tuple[int, str]:
    """cli.main in-process; asserts the contract and returns (code, stdout).
    gt-affine's documented exit 3 for skipped points at infinity carries a
    `warning:` line in place of the `error:` line."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([str(a) for a in argv])
    assert code in {0, 2, 3, 4, 5}
    prefixes = ("error:", "warning: skipped") if argv[0] == "gt-affine" else ("error:",)
    diagnostics = [line for line in stderr.getvalue().splitlines() if line.startswith(prefixes)]
    assert len(diagnostics) == (1 if code else 0), stderr.getvalue()
    return code, stdout.getvalue()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow in extreme inputs
@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(case=cli_case())
def test_cli_exits_only_with_documented_codes(case, workdir):
    command, ac_rows, f_tokens, k_tokens = case
    ac_file, f_file, k_file = workdir / "acs.csv", workdir / "F.txt", workdir / "K.txt"
    ac_file.write_text("".join(",".join(r) + "\n" for r in [[AC_HEADER]] + ac_rows))
    f_file.write_text(" ".join(f_tokens) + "\n")
    k_file.write_text(" ".join(k_tokens) + "\n")
    if command == "residuals":
        argv = ["residuals", ac_file, f_file]
    else:
        argv = ["estimate", ac_file, "--model", command, "--max-iterations", "30",
                "--intrinsics", k_file, "--out", workdir / "run"]
    _run_main(argv)


# --- the evaluation and generation commands ----------------------------------------

THRESHOLDS = ["5,10,20", "nan", "5,nan", "inf", "-inf", "0", "-0", "1e308", "1e-320",
              "abc", "", ","]
# Integer options keep small values: a valid huge --n is a legitimately long run.
SYNTH_OPTIONS = {
    "--n": ["0", "1", "3", "30", "-1"],
    "--planes": ["0", "1", "3", "-1"],
    "--seed": ["0", "1", "-1"],
    "--point-sigma": EXTREMES + ["0.5"],
    "--affine-sigma": EXTREMES + ["0.05"],
    "--outliers": EXTREMES + ["0.3", "0.999", "1"],
}


def _table(rows) -> str:
    return "".join(",".join(r) + "\n" for r in rows)


@st.composite
def other_case(draw):
    """A command and the contents of the files and options it reads."""
    command = draw(st.sampled_from(["eval-pose", "eval-mma", "synth", "gt-affine"]))
    if command == "synth":  # up to three options set, the others at their defaults
        keys = draw(st.lists(st.sampled_from(sorted(SYNTH_OPTIONS)), max_size=3, unique=True))
        return command, {k: draw(st.sampled_from(SYNTH_OPTIONS[k])) for k in keys}
    if command == "eval-pose":
        n_pairs = draw(st.integers(1, 2))
        est = [draw(_mutated([POSE_TOKENS], 1))[0] for _ in range(n_pairs)]
        gt = [draw(_mutated([POSE_TOKENS], 1))[0] for _ in range(n_pairs)]
        return command, {"est": est, "gt": gt, "thresholds": draw(st.sampled_from(THRESHOLDS))}
    n_rows = draw(st.sampled_from([0, 1, 3, 8]))
    width = 4 if command == "eval-mma" else 2
    rows = draw(_mutated([r[:width] for r in AC_ROWS[:n_rows]], 4)) if n_rows else []
    return command, {"rows": rows, "h": draw(_mutated([H_TOKENS], 3))[0],
                     "out": draw(st.booleans())}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow in extreme inputs
@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(case=other_case())
def test_other_commands_exit_only_with_documented_codes(case, workdir):
    """eval-pose, eval-mma, synth and gt-affine under extreme file contents
    and option values. A run that exits 0 prints no nan: a threshold or an
    input that makes a metric undefined is an error, not a result."""
    command, spec = case
    run = workdir / "other"
    shutil.rmtree(run, ignore_errors=True)
    run.mkdir()
    if command == "synth":
        # key=value, so that argparse takes "-1e308" as a value, not an option
        argv = ["synth", "--out-dir", run / "d", *[f"{k}={v}" for k, v in spec.items()]]
    elif command == "eval-pose":
        for name in ("est", "gt"):
            (run / name).mkdir()
            for i, tokens in enumerate(spec[name]):
                (run / name / f"p{i}.txt").write_text(" ".join(tokens) + "\n")
        argv = ["eval-pose", run / "est", run / "gt", f"--thresholds={spec['thresholds']}",
                "--csv", run / "pose.csv"]
    else:
        header = "x1,y1,x2,y2" if command == "eval-mma" else "x,y"
        h_text = " ".join(spec["h"]) + "\n"
        if command == "eval-mma":
            for name in ("matches", "gt"):
                (run / name).mkdir()
            (run / "matches" / "p.csv").write_text(_table([[header]] + spec["rows"]))
            (run / "gt" / "p.txt").write_text(h_text)
            argv = ["eval-mma", run / "matches", run / "gt", "--csv", run / "mma.csv"]
        else:
            (run / "points.csv").write_text(_table([[header]] + spec["rows"]))
            (run / "H.txt").write_text(h_text)
            argv = ["gt-affine", run / "H.txt", run / "points.csv"]
            argv += ["--out", run / "acs.csv"] if spec["out"] else []
    code, stdout = _run_main(argv)
    if code == 0:
        assert "nan" not in re.split(r"[\s,=]+", stdout), stdout
