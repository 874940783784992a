"""Tests for the command-line surface: behaviour, exit codes, determinism."""

import math
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from affgeo import AffineCorrespondence, Homography, cli, fileio, generate_scene, metrics, sample_acs
from affgeo.cli import main
from affgeo.fileio import (
    AC_HEADER,
    RunReport,
    fmt,
    parse_report,
    read_acs,
    read_labels,
    read_mat3,
    read_matches,
    read_pose,
    render_report,
    write_acs,
    write_mat3,
    write_matches,
    write_points,
    write_pose,
)
from affgeo.solvers import RelativePose, axis_angle_rotation

from conftest import cli_env


def run_cli(args, **env):
    """Run the CLI in a subprocess; returns (exit code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "affgeo.cli", *map(str, args)],
        capture_output=True,
        text=True,
        env=cli_env(**env),
    )
    return proc.returncode, proc.stdout, proc.stderr


def _report_metrics(stdout: str) -> dict:
    report_lines = [l for l in stdout.splitlines() if " = " in l]
    return parse_report("\n".join(report_lines)).metrics


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    code = main(["synth", "--seed", "5", "--n", "40", "--planes", "2", "--out-dir", str(out)])
    assert code == 0
    return out


class TestSynth:
    def test_outputs_exist(self, synth_dir):
        for name in ("acs.csv", "labels.txt", "F.txt", "pose.txt", "K1.txt", "K2.txt",
                     "H_plane0.txt", "H_plane1.txt"):
            assert (synth_dir / name).exists()

    def test_outlier_labels_exact(self, tmp_path):
        out = tmp_path / "d"
        assert main(["synth", "--seed", "2", "--n", "100", "--outliers", "0.4",
                     "--out-dir", str(out)]) == 0
        labels = read_labels(out / "labels.txt")
        assert int(np.sum(~labels)) == 40

    def test_byte_identical_per_seed_and_threads(self, tmp_path):
        out = tmp_path / "d"
        args = ["synth", "--seed", "9", "--n", "50", "--planes", "2",
                "--point-sigma", "0.5", "--outliers", "0.2", "--out-dir", out]
        runs = []
        for threads in (1, 1, 4):
            code, stdout, _ = run_cli(args, AFFGEO_THREADS=threads)
            assert code == 0
            runs.append((stdout, {f.name: f.read_bytes() for f in sorted(out.iterdir())}))
        assert runs[0][1] == runs[1][1] == runs[2][1]  # files
        assert runs[0][0] == runs[1][0] == runs[2][0]  # stdout

    def test_unwritable_dir_exit_2(self):
        code, _, err = run_cli(["synth", "--out-dir", "/proc/nope/deeper"])
        assert code == 2


class TestResiduals:
    def test_zero_noise_closure(self, synth_dir, capsys):
        code = main(["residuals", str(synth_dir / "acs.csv"), str(synth_dir / "F.txt")])
        assert code == 0
        out = capsys.readouterr().out
        rows = [l.split(",") for l in out.splitlines()[1:41]]
        for row in rows:
            _, e_pc, sd_p, m0, n0, sd_a1, sd_a2 = row
            assert float(sd_p) <= 1e-12
            assert float(sd_a1) <= 1e-12 and float(sd_a2) <= 1e-12

    def test_hand_example_in_table(self, tmp_path, capsys):
        ac_file = tmp_path / "one.csv"
        write_acs(ac_file, [AffineCorrespondence(p1=(0, 0), p2=(0, 0), A=[[1, 0], [0.1, 1]])])
        f_file = tmp_path / "F.txt"
        write_mat3(f_file, [[0, 0, 0], [0, 0, -1], [0, 1, 0]])
        assert main(["residuals", str(ac_file), str(f_file)]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert float(row[3]) == pytest.approx(-0.1, abs=1e-15)  # m0
        assert float(row[5]) == pytest.approx(0.01, rel=1e-12)  # sd_a1

    def test_parse_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,y1,x2,y2,a11,a12,a21,a22\n1,2,3,4,5,6,7\n")
        f_file = tmp_path / "F.txt"
        write_mat3(f_file, np.eye(3))
        code, _, err = run_cli(["residuals", bad, f_file])
        assert code == 2
        assert "line 2" in err
        header_only = tmp_path / "header_only.csv"
        write_acs(header_only, [])
        code, _, err = run_cli(["residuals", header_only, f_file])
        assert code == 2
        assert "no AC rows" in err

    def test_dimension_mismatch_exit_3(self, tmp_path, synth_dir):
        short = tmp_path / "F8.txt"
        short.write_text("1 2 3 4 5 6 7 8\n")
        code, _, _ = run_cli(["residuals", synth_dir / "acs.csv", short])
        assert code == 3

    def test_csv_written(self, synth_dir, tmp_path, capsys):
        csv = tmp_path / "table.csv"
        assert main(["residuals", str(synth_dir / "acs.csv"), str(synth_dir / "F.txt"),
                     "--csv", str(csv)]) == 0
        assert csv.read_text().startswith("index,e_pc,sd_p,m0,n0,sd_a1,sd_a2")


def _error_lines(stderr: str) -> list[str]:
    return [line for line in stderr.splitlines() if line.startswith("error:")]


@pytest.mark.parametrize(
    "args",
    [
        ["estimate", "--threshold", "-1"],
        ["estimate", "--confidence", "1"],
        ["estimate", "--max-iterations", "0"],
        ["estimate", "--affine-weight", "-1"],
        ["estimate", "--affine-weight", "nan"],
        ["estimate", "--seed", "-1"],
        ["synth", "--n", "0"],
        ["synth", "--seed", "-1"],
        ["synth", "--outliers", "1"],
        ["synth", "--planes", "0"],
        ["synth", "--point-sigma", "nan"],
        ["synth", "--point-sigma", "-0.0"],
        ["synth", "--affine-sigma", "1e308"],
        ["eval-pose", "--thresholds", "0"],
        ["eval-pose", "--thresholds", "-5"],
        ["eval-pose", "--thresholds", "abc"],
        ["eval-pose", "--thresholds", "nan"],
        ["eval-pose", "--thresholds", "5,inf"],
        ["eval-pose", "--thresholds", "1e308"],
        ["eval-pose", "--thresholds=,"],
        ["eval-pose", "--thresholds="],
    ],
    ids=" ".join,
)
def test_invalid_option_value_exit_2(args, synth_dir, tmp_path, capsys):
    if args[0] == "estimate":
        args = args + [str(synth_dir / "acs.csv"), "--model", "fundamental",
                       "--out", str(tmp_path / "x")]
    elif args[0] == "eval-pose":
        for name in ("est", "gt"):
            (tmp_path / name).mkdir()
            (tmp_path / name / "a.txt").write_bytes((synth_dir / "pose.txt").read_bytes())
        args = args + [str(tmp_path / "est"), str(tmp_path / "gt")]
    else:
        args = args + ["--out-dir", str(tmp_path / "d")]
    assert main(args) == 2
    assert len(_error_lines(capsys.readouterr().err)) == 1
    assert not (tmp_path / "x_model.txt").exists() and not (tmp_path / "d" / "acs.csv").exists()


@pytest.mark.parametrize(
    "command, bad",
    [("estimate", "ac"), ("estimate", "intrinsics"), ("residuals", "ac"), ("residuals", "f")],
)
def test_non_ascii_input_exit_2(command, bad, synth_dir, tmp_path, capsys):
    files = {"ac": synth_dir / "acs.csv", "f": synth_dir / "F.txt",
             "intrinsics": synth_dir / "K1.txt"}
    corrupt = tmp_path / f"bad_{bad}.txt"
    corrupt.write_bytes(files[bad].read_bytes().replace(b"\n", b"\xff\n", 2))
    files[bad] = corrupt
    if command == "estimate":
        args = ["estimate", files["ac"], "--model", "essential", "--intrinsics",
                files["intrinsics"], "--out", tmp_path / "x"]
    else:
        args = ["residuals", files["ac"], files["f"]]
    assert main([str(a) for a in args]) == 2
    assert len(_error_lines(capsys.readouterr().err)) == 1


POSES = {
    "R not a rotation": "2 0 0 0 1 0 0 0 1\n1 0 0\n",
    "nan in R": "1 0 0 0 nan 0 0 0 1\n1 0 0\n",
    "nan in t": "1 0 0 0 1 0 0 0 1\n0 0 nan\n",
    "|t| overflows": "1 0 0 0 1 0 0 0 1\n1e308 1e308 0\n",
}


@pytest.mark.parametrize("bad", ["zero F", "fx = 0", "cx = nan", *POSES])
def test_invalid_value_exit_3(bad, synth_dir, tmp_path, capsys):
    intrinsics = {"fx = 0": "0 500 320 240\n", "cx = nan": "600 600 nan 240\n"}
    if bad == "zero F":
        write_mat3(tmp_path / "F.txt", np.zeros((3, 3)))
        args = ["residuals", synth_dir / "acs.csv", tmp_path / "F.txt"]
    elif bad in intrinsics:
        (tmp_path / "K.txt").write_text(intrinsics[bad])
        args = ["estimate", synth_dir / "acs.csv", "--model", "essential",
                "--intrinsics", tmp_path / "K.txt", "--out", tmp_path / "x"]
    else:
        (tmp_path / "est").mkdir()
        (tmp_path / "gt").mkdir()
        (tmp_path / "est" / "a.txt").write_text(POSES[bad])
        write_pose(tmp_path / "gt" / "a.txt", RelativePose(R=np.eye(3), t=[1.0, 0.0, 0.0]))
        args = ["eval-pose", tmp_path / "est", tmp_path / "gt"]
    assert main([str(a) for a in args]) == 3
    assert len(_error_lines(capsys.readouterr().err)) == 1


class TestEstimate:
    def test_fundamental_recovers_gt(self, synth_dir, tmp_path, capsys):
        prefix = tmp_path / "est"
        code = main(["estimate", str(synth_dir / "acs.csv"), "--model", "fundamental",
                     "--seed", "3", "--out", str(prefix)])
        assert code == 0
        F = read_mat3(f"{prefix}_model.txt")
        F_gt = read_mat3(synth_dir / "F.txt")
        assert np.max(np.abs(F - F_gt)) <= 1e-8
        mask = read_labels(f"{prefix}_inliers.txt")
        assert mask.all()

    def test_essential_writes_pose(self, synth_dir, tmp_path, capsys):
        prefix = tmp_path / "ess"
        code = main(["estimate", str(synth_dir / "acs.csv"), "--model", "essential",
                     "--intrinsics", str(synth_dir / "K1.txt"),
                     "--intrinsics2", str(synth_dir / "K2.txt"),
                     "--seed", "3", "--out", str(prefix)])
        assert code == 0
        pose = read_pose(f"{prefix}_pose.txt")
        gt = read_pose(synth_dir / "pose.txt")
        assert np.max(np.abs(pose.R - gt.R)) <= 1e-6
        assert np.max(np.abs(pose.t - gt.t)) <= 1e-6

    def test_essential_without_intrinsics_exit_2(self, synth_dir, tmp_path):
        code, _, _ = run_cli(["estimate", synth_dir / "acs.csv", "--model", "essential",
                              "--out", tmp_path / "x"])
        assert code == 2

    def test_too_few_exit_5(self, tmp_path):
        scene = generate_scene(seed=3)
        acs, _ = sample_acs(scene, 2, seed=1)
        for name, rows in (("two.csv", acs), ("header_only.csv", [])):
            ac_file = tmp_path / name
            write_acs(ac_file, rows)
            code, _, _ = run_cli(["estimate", ac_file, "--model", "fundamental",
                                  "--out", tmp_path / "x"])
            assert code == 5

    def test_no_model_exit_4(self, tmp_path):
        ac = AffineCorrespondence(p1=(1.0, 2.0), p2=(3.0, 4.0), A=np.eye(2))
        ac_file = tmp_path / "dup.csv"
        write_acs(ac_file, [ac] * 8)
        code, _, _ = run_cli(["estimate", ac_file, "--model", "homography",
                              "--max-iterations", "30", "--out", tmp_path / "x"])
        assert code == 4

    def test_input_too_large_for_memory_exit_3(self, tmp_path):
        # The child caps its own address space 96 MB above what it holds after
        # the imports, so the 126 MB AC file cannot even be read: a data
        # error, reported on one line with no traceback.
        ac_file = tmp_path / "big.csv"
        row = "100.5,200.25,110.75,190.125,1.0625,0.03125,-0.015625,0.96875\n"
        ac_file.write_text(AC_HEADER + "\n" + row * 2_000_000)
        script = textwrap.dedent(
            """
            import resource, sys
            from affgeo.cli import main
            held = int(open("/proc/self/statm").read().split()[0]) * resource.getpagesize()
            resource.setrlimit(resource.RLIMIT_AS, (held + (96 << 20), held + (96 << 20)))
            sys.exit(main(sys.argv[1:]))
            """
        )
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", script, "estimate", str(ac_file), "--model", "homography",
             "--out", str(tmp_path / "x")],
            env=cli_env(OPENBLAS_NUM_THREADS=1, OMP_NUM_THREADS=1, MKL_NUM_THREADS=1),
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 3, proc.stderr[-2000:]
        assert _error_lines(proc.stderr) == ["error: out of memory"]
        assert "Traceback" not in proc.stderr
        assert time.perf_counter() - start < 5.0

    def test_refused_allocation_prints_only_out_of_memory(self, synth_dir, tmp_path, capsys,
                                                          monkeypatch):
        # A line bound of 2**50 asks numpy for 64 PiB, more than any address
        # space: numpy's MemoryError names the allocation, the CLI does not.
        monkeypatch.setattr(fileio, "_line_bound", lambda fh: 1 << 50)
        code = main(["estimate", str(synth_dir / "acs.csv"), "--model", "homography",
                     "--out", str(tmp_path / "x")])
        assert code == 3
        assert _error_lines(capsys.readouterr().err) == ["error: out of memory"]

    def test_large_input_read_within_address_space_cap(self, tmp_path):
        # 400 000 ACs, 62 MB of text, are 25 MB as an array. Read a block of
        # lines at a time, the file and one draw's scoring fit in the 224 MB
        # the child leaves itself; held as the whole text, its lines and a
        # float object per field they need about 330 MB.
        scene = generate_scene(seed=4, n_planes=1)
        pool = tmp_path / "pool.csv"
        write_acs(pool, sample_acs(scene, 500, seed=5)[0])
        rows = pool.read_text().split("\n", 1)[1]
        ac_file = tmp_path / "big.csv"
        ac_file.write_text(AC_HEADER + "\n" + rows * 800)
        script = textwrap.dedent(
            """
            import resource, sys
            from affgeo.cli import main
            held = int(open("/proc/self/statm").read().split()[0]) * resource.getpagesize()
            resource.setrlimit(resource.RLIMIT_AS, (held + (224 << 20), held + (224 << 20)))
            sys.exit(main(sys.argv[1:]))
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, "estimate", str(ac_file), "--model", "homography",
             "--no-lo", "--max-iterations", "1", "--out", str(tmp_path / "x")],
            env=cli_env(OPENBLAS_NUM_THREADS=1, OMP_NUM_THREADS=1, MKL_NUM_THREADS=1),
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        metrics = _report_metrics(proc.stdout)
        assert metrics["n"] == metrics["inliers"] == 400_000

    @pytest.mark.parametrize("model", ["fundamental", "essential"])
    def test_single_plane_stops_on_degenerate_draws(self, tmp_path, capsys, model):
        # every 3-AC sample of a noise-free single-plane set is degenerate;
        # the sampler gives up long before --max-iterations (10 000)
        out = tmp_path / "d"
        assert main(["synth", "--n", "30", "--out-dir", str(out)]) == 0
        capsys.readouterr()
        start = time.perf_counter()
        code = main(["estimate", str(out / "acs.csv"), "--model", model,
                     "--intrinsics", str(out / "K1.txt"), "--out", str(tmp_path / "x")])
        elapsed = time.perf_counter() - start
        errors = _error_lines(capsys.readouterr().err)
        assert code == 4
        assert len(errors) == 1 and "consecutive degenerate draws" in errors[0]
        assert elapsed < 0.5

    def test_byte_identical_per_seed_and_threads(self, synth_dir, tmp_path):
        prefix = tmp_path / "run"
        args = ["estimate", synth_dir / "acs.csv", "--model", "fundamental",
                "--seed", "7", "--out", prefix]
        runs = []
        for threads in (1, 1, 4):
            code, stdout, _ = run_cli(args, AFFGEO_THREADS=threads)
            assert code == 0
            runs.append((stdout, {p.name: p.read_bytes() for p in tmp_path.glob("run_*")}))
        assert runs[0][1] == runs[1][1] == runs[2][1]
        assert runs[0][0] == runs[1][0] == runs[2][0]


class TestEvalMma:
    @pytest.fixture()
    def mma_dirs(self, tmp_path):
        matches = tmp_path / "matches"
        gt = tmp_path / "gt"
        matches.mkdir()
        gt.mkdir()
        rows = [[10.0, 20.0 + 3 * i, 10.0 + 0.5 + i, 20.0 + 3 * i] for i in range(10)]
        write_matches(matches / "pair1.csv", np.array(rows))
        write_mat3(gt / "pair1.txt", np.eye(3))
        return matches, gt

    def test_linear_construction_score(self, mma_dirs, capsys):
        matches, gt = mma_dirs
        assert main(["eval-mma", str(matches), str(gt)]) == 0
        metrics = _report_metrics(capsys.readouterr().out)
        assert metrics["mma_score"] == pytest.approx(7.15 / 14.5, abs=1e-12)
        assert metrics["mma@3"] == pytest.approx(0.3, abs=1e-15)

    def test_perfect_matches(self, tmp_path, capsys):
        matches = tmp_path / "m"
        gt = tmp_path / "g"
        matches.mkdir()
        gt.mkdir()
        write_matches(matches / "p.csv", np.array([[1.0, 2.0, 1.0, 2.0]] * 5))
        write_mat3(gt / "p.txt", np.eye(3))
        assert main(["eval-mma", str(matches), str(gt)]) == 0
        assert _report_metrics(capsys.readouterr().out)["mma_score"] == 1.0

    def test_empty_dir_exit_2(self, tmp_path):
        (tmp_path / "m").mkdir()
        (tmp_path / "g").mkdir()
        code, _, _ = run_cli(["eval-mma", tmp_path / "m", tmp_path / "g"])
        assert code == 2

    def test_missing_gt_exit_2(self, mma_dirs, tmp_path):
        matches, gt = mma_dirs
        write_matches(matches / "pair2.csv", np.array([[0.0, 0.0, 0.0, 0.0]]))
        code, _, _ = run_cli(["eval-mma", matches, gt])
        assert code == 2

    def test_shared_stem_exit_2(self, mma_dirs, capsys):
        # p1.csv and p1.txt would both be pair "p1"; one of them was dropped unread
        matches, gt = mma_dirs
        write_matches(matches / "pair1.txt", np.array([[0.0, 0.0, 0.0, 0.0]]))
        assert main(["eval-mma", str(matches), str(gt)]) == 2
        (line,) = _error_lines(capsys.readouterr().err)
        assert str(matches / "pair1.csv") in line and str(matches / "pair1.txt") in line

    def test_csv_curve(self, mma_dirs, tmp_path, capsys):
        matches, gt = mma_dirs
        csv = tmp_path / "curve.csv"
        assert main(["eval-mma", str(matches), str(gt), "--csv", str(csv)]) == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "threshold,mma"
        assert len(lines) == 11

    def test_each_pairs_curve_is_computed_once(self, tmp_path, capsys, monkeypatch):
        matches, gt = tmp_path / "matches", tmp_path / "gt"
        matches.mkdir()
        gt.mkdir()
        rng = np.random.default_rng(9)
        H = np.array([[1.0, 0.02, 3.0], [-0.01, 1.0, -2.0], [1e-5, 0.0, 1.0]])
        for stem, n in (("a", 40), ("b", 7), ("c", 25)):
            p1 = rng.uniform(0.0, 500.0, size=(n, 2))
            q = np.hstack([p1, np.ones((n, 1))]) @ H.T
            p2 = q[:, :2] / q[:, 2:] + rng.normal(0.0, 4.0, size=(n, 2))
            write_matches(matches / f"{stem}.csv", np.hstack([p1, p2]))
            write_mat3(gt / f"{stem}.txt", H)
        # the report as computed with one more curve per pair, for its per-pair score
        pairs = {s: (read_matches(matches / f"{s}.csv"), Homography(read_mat3(gt / f"{s}.txt")))
                 for s in "abc"}
        mean = metrics.evaluate_matches(pairs.values())
        expected = {"n_pairs": 3, "n_matches": 72}
        for stem, (m, Hgt) in pairs.items():
            expected[f"pair.{stem}.mma_score"] = metrics.mma_score(metrics.mma_curve(m, Hgt))
        thresholds = metrics.MMA_THRESHOLDS
        expected.update({f"mma@{thr}": float(v) for thr, v in zip(thresholds, mean.curve.values)})
        expected["mma_score"] = mean.mma_score
        assert len(set(expected.values())) > 8  # pairs and thresholds that differ
        report = RunReport(command="eval-mma", metrics=expected,
                           config={"matches_dir": str(matches), "gt_dir": str(gt)})
        rows = ["threshold,mma"] + [f"{thr},{fmt(v)}" for thr, v in
                                    zip(thresholds, mean.curve.values)]

        curves = []
        curve = metrics.mma_curve
        for module in (metrics, cli):  # the CLI's own name too, should it call mma_curve itself
            monkeypatch.setattr(module, "mma_curve", lambda *a: curves.append(1) or curve(*a),
                                raising=False)
        csv = tmp_path / "curve.csv"
        assert main(["eval-mma", str(matches), str(gt), "--csv", str(csv)]) == 0
        assert len(curves) == 3
        assert capsys.readouterr().out == render_report(report)
        assert csv.read_text(encoding="ascii") == "\n".join(rows) + "\n"


class TestEvalPose:
    @pytest.fixture()
    def pose_dirs(self, tmp_path):
        est = tmp_path / "est"
        gt = tmp_path / "gt"
        est.mkdir()
        gt.mkdir()
        identity = RelativePose(R=np.eye(3), t=[1.0, 0.0, 0.0])
        rot10 = RelativePose(
            R=axis_angle_rotation([0.0, 0.0, 1.0], math.radians(10.0)), t=[1.0, 0.0, 0.0]
        )
        write_pose(est / "a.txt", identity)
        write_pose(gt / "a.txt", identity)
        write_pose(est / "b.txt", rot10)
        write_pose(gt / "b.txt", identity)
        return est, gt

    def test_golden_auc(self, pose_dirs, capsys):
        est, gt = pose_dirs
        assert main(["eval-pose", str(est), str(gt)]) == 0
        metrics = _report_metrics(capsys.readouterr().out)
        assert metrics["auc@10"] == pytest.approx(0.75, abs=1e-9)
        assert metrics["rotation_median_deg"] == pytest.approx(5.0, abs=1e-9)

    def test_identical_poses(self, tmp_path, capsys):
        est = tmp_path / "e"
        gt = tmp_path / "g"
        est.mkdir()
        gt.mkdir()
        pose = RelativePose(R=np.eye(3), t=[0.0, 1.0, 0.0])
        for d in (est, gt):
            write_pose(d / "x.txt", pose)
        assert main(["eval-pose", str(est), str(gt)]) == 0
        metrics = _report_metrics(capsys.readouterr().out)
        assert metrics["auc@5"] == 1.0
        assert metrics["rotation_rmse_deg"] == 0.0
        assert metrics["translation_rmse_deg"] == 0.0

    @pytest.mark.parametrize("second_gt", [False, True])
    def test_shared_stem_exit_2(self, tmp_path, capsys, second_gt):
        # est/a.txt and est/a.csv against gt/a.txt: est/a.csv was dropped unread,
        # and with a second gt file the counts read "1 estimated vs 2"
        for name in ("est", "gt"):
            (tmp_path / name).mkdir()
        pose = RelativePose(R=np.eye(3), t=[1.0, 0.0, 0.0])
        for path in ["est/a.txt", "est/a.csv", "gt/a.txt"] + ["gt/b.txt"] * second_gt:
            write_pose(tmp_path / path, pose)
        assert main(["eval-pose", str(tmp_path / "est"), str(tmp_path / "gt")]) == 2
        (line,) = _error_lines(capsys.readouterr().err)
        assert str(tmp_path / "est" / "a.csv") in line and str(tmp_path / "est" / "a.txt") in line

    def test_count_mismatch_exit_2(self, pose_dirs):
        est, gt = pose_dirs
        write_pose(est / "c.txt", RelativePose(R=np.eye(3), t=[1.0, 0.0, 0.0]))
        code, _, _ = run_cli(["eval-pose", est, gt])
        assert code == 2


class TestGtAffine:
    def test_identity_h(self, tmp_path, capsys):
        h_file = tmp_path / "H.txt"
        pts_file = tmp_path / "p.csv"
        write_mat3(h_file, np.eye(3))
        write_points(pts_file, [[3.0, 4.0], [5.0, 6.0]])
        assert main(["gt-affine", str(h_file), str(pts_file)]) == 0
        out = capsys.readouterr().out.splitlines()
        for line in out[1:]:
            vals = [float(v) for v in line.split(",")]
            assert vals[:2] == vals[2:4]  # identity maps points to themselves
            assert vals[4:] == [1.0, 0.0, 0.0, 1.0]

    def test_projective_hand_case(self, tmp_path, capsys):
        h_file = tmp_path / "H.txt"
        pts_file = tmp_path / "p.csv"
        write_mat3(h_file, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.1, 0.0, 1.0]])
        write_points(pts_file, [[1.0, 0.0]])
        assert main(["gt-affine", str(h_file), str(pts_file)]) == 0
        vals = [float(v) for v in capsys.readouterr().out.splitlines()[1].split(",")]
        assert vals[4] == pytest.approx(1.0 / 1.21, abs=1e-4)
        assert vals[7] == pytest.approx(1.0 / 1.1, abs=1e-4)

    def test_point_at_infinity_skipped_exit_3(self, tmp_path):
        h_file = tmp_path / "H.txt"
        pts_file = tmp_path / "p.csv"
        write_mat3(h_file, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
        write_points(pts_file, [[-1.0, 2.0], [1.0, 1.0]])
        code, out, err = run_cli(["gt-affine", h_file, pts_file])
        assert code == 3
        assert "skipped 1" in err
        assert len([l for l in out.splitlines() if "," in l]) == 2  # header + 1 row

    def test_out_file(self, tmp_path, capsys):
        h_file = tmp_path / "H.txt"
        pts_file = tmp_path / "p.csv"
        out_file = tmp_path / "acs.csv"
        write_mat3(h_file, np.diag([2.0, 2.0, 1.0]))
        write_points(pts_file, [[1.0, 1.0]])
        assert main(["gt-affine", str(h_file), str(pts_file), "--out", str(out_file)]) == 0
        acs = read_acs(out_file)
        assert np.allclose(acs[0, 4:8], [2.0, 0.0, 0.0, 2.0])
        assert np.allclose(acs[0, 2:4], [2.0, 2.0])


class TestPipelineClosure:
    def test_synth_estimate_eval_round_trip(self, tmp_path):
        """synth -> estimate (essential) -> eval-pose against the bundled GT."""
        data = tmp_path / "data"
        assert main(["synth", "--seed", "12", "--n", "80", "--planes", "3",
                     "--out-dir", str(data)]) == 0
        prefix = tmp_path / "run"
        assert main(["estimate", str(data / "acs.csv"), "--model", "essential",
                     "--intrinsics", str(data / "K1.txt"), "--seed", "1",
                     "--out", str(prefix)]) == 0
        est_dir = tmp_path / "est"
        gt_dir = tmp_path / "gt"
        est_dir.mkdir()
        gt_dir.mkdir()
        (est_dir / "s.txt").write_bytes((tmp_path / "run_pose.txt").read_bytes())
        (gt_dir / "s.txt").write_bytes((data / "pose.txt").read_bytes())
        import io
        from contextlib import redirect_stdout

        buf = io.StringIO()
        with redirect_stdout(buf):
            assert main(["eval-pose", str(est_dir), str(gt_dir)]) == 0
        metrics = _report_metrics(buf.getvalue())
        assert metrics["auc@5"] == 1.0
        assert metrics["rotation_rmse_deg"] <= 1e-5


def _outputs(path) -> dict:
    """The files a run wrote: an --out-dir's files, or an --out prefix's."""
    files = path.iterdir() if path.is_dir() else path.parent.glob(path.name + "_*")
    return {p.name: p.read_bytes() for p in sorted(files)}


def test_consecutive_calls_match_fresh_processes(synth_dir, tmp_path, capsys):
    """main() parses with one parser built at import: calls in one process
    give the bytes fresh processes give, so no option leaks into the next call."""
    ac_file = str(synth_dir / "acs.csv")
    runs = [
        (["estimate", ac_file, "--model", "homography", "--no-lo", "--seed", "2",
          "--threshold", "1.5", "--out"], tmp_path / "a"),
        (["estimate", ac_file, "--model", "homography", "--out"], tmp_path / "b"),
        (["synth", "--seed", "3", "--n", "20", "--planes", "2", "--out-dir"], tmp_path / "c"),
        (["synth", "--out-dir"], tmp_path / "d"),
    ]
    fresh = []
    for args, out in runs:
        code, stdout, _ = run_cli(args + [out])
        fresh.append((code, stdout, _outputs(out)))
    capsys.readouterr()
    for (args, out), expected in zip(runs, fresh):
        code = main(args + [str(out)])
        assert (code, capsys.readouterr().out, _outputs(out)) == expected
