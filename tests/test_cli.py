import json
import math

import numpy as np
import pytest

from microreg import (Image, circular_crop, estimate_rotation, load_pgm,
                      normalize, rotate, rotation_score_curve, save_pgm,
                      to_polar)
from microreg.cli import (align_frame, build_parser, load_reference, main,
                          prepare_polar)
from microreg.sequencer import matrix_to_csv, load_square_csv

from conftest import TABLE1, asym_scene

ANGLES = (0.0, 15.5, 30.0, 123.5, 270.0)


def make_scene_pgm(path, angle=0.0, size=128):
    img = asym_scene(size=size)
    if angle:
        img = rotate(img, angle)
    save_pgm(img, path)


def write_constant_pgm(path, value=200, size=64):
    path.write_bytes(b"P5\n%d %d\n255\n" % (size, size)
                     + bytes([value]) * (size * size))


def assert_one_line_error(capsys, *parts):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    for part in parts:
        assert part in err, (part, err)
    return err


def cropped_polar(img, angular, radial):
    """Former align preprocessing: crop the largest centered disc, normalize
    it, and resample about the center shifted into the crop."""
    cx = (img.width - 1) / 2.0
    cy = (img.height - 1) / 2.0
    radius = min(img.width, img.height) / 2.0 - 1.0
    normed = normalize(circular_crop(img, cx, cy, radius))
    ncx = cx - max(0, math.ceil(cx - radius))
    ncy = cy - max(0, math.ceil(cy - radius))
    return to_polar(normed, ncx, ncy, angular, radial, max_radius=radius - 2.0)


def oracle_pairs():
    # the 720x200 scene pairs of criterion 4, then a 200x256 pair and its
    # 256x200 transpose, so the crop origin moves along each axis
    for i, angle in enumerate(ANGLES):
        yield asym_scene(seed=500 + i), rotate(asym_scene(seed=600 + i), angle)
    wide = asym_scene(noise_sigma=0.1, seed=7).pixels[28:228]
    for pixels in (wide, wide.T):
        yield Image(pixels), rotate(Image(pixels), 30.0)


class TestPreparePolar:
    @pytest.mark.parametrize("ref, cand", list(oracle_pairs()))
    def test_matches_crop_and_normalize_path(self, ref, cand):
        new = [prepare_polar(img, 720, 200) for img in (ref, cand)]
        old = [cropped_polar(img, 720, 200) for img in (ref, cand)]
        for n, o in zip(new, old):
            assert n.valid.all() and o.valid.all()
            assert n.values.shape == o.values.shape
            assert n.max_radius == o.max_radius
        curve = rotation_score_curve(*new)
        expected = rotation_score_curve(*old)
        assert np.abs(curve.scores - expected.scores).max() <= 1e-12
        assert np.argmax(curve.scores) == np.argmax(expected.scores)
        assert np.array_equal(curve.sample_counts, expected.sample_counts)


class TestLoadReference:
    def test_frames_are_sampled_on_the_reference_grid(self, tmp_path):
        path = tmp_path / "ref.pgm"
        make_scene_pgm(path, size=96)
        ref = load_reference(path, 120, 32)
        assert (ref.angular_samples, ref.radial_samples) == (120, 32)
        est, aligned = align_frame(ref, rotate(asym_scene(size=96), 30.0),
                                   estimate_rotation)
        assert est.curve.scores.shape == (120,)
        assert abs(est.angle_deg - 30.0) <= 3.0
        assert aligned.pixels.shape == (96, 96)

    def test_flat_reference_is_named(self, tmp_path):
        path = tmp_path / "flat.pgm"
        write_constant_pgm(path)
        with pytest.raises(ValueError, match="zero variance") as info:
            load_reference(path, 90, 16)
        assert str(info.value).startswith(f"{path}: ")


class TestSynthCommand:
    def test_happy_path(self, tmp_path):
        out = tmp_path / "a.pgm"
        rc = main(["synth", "--size", "256", "--angle", "30", "--noise", "0",
                   "--seed", "42", "--out", str(out)])
        assert rc == 0
        assert out.exists()
        manifest = json.loads((tmp_path / "a.pgm.manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["outputs"] == [str(out)]

    def test_invalid_spec_is_data_error(self, tmp_path):
        rc = main(["synth", "--size", "4", "--out", str(tmp_path / "a.pgm")])
        assert rc == 2


class TestNonFiniteParameters:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("extra, name", [
        (["--center", "nan", "nan"], "center"),
        (["--center", "inf", "3"], "center"),
        (["--max-radius", "inf"], "max_radius"),
    ])
    def test_polar(self, tmp_path, capsys, extra, name):
        src = tmp_path / "in.pgm"
        make_scene_pgm(src, size=32)
        rc = main(["polar", "--input", str(src), "--out",
                   str(tmp_path / "p.csv"), *extra])
        assert rc == 2
        err = assert_one_line_error(capsys, "must be finite")
        assert err.startswith(f"error: {name} "), err

    @pytest.mark.filterwarnings("error")
    def test_synth_noise(self, tmp_path, capsys):
        out = tmp_path / "a.pgm"
        rc = main(["synth", "--size", "32", "--half-length", "8",
                   "--noise", "nan", "--out", str(out)])
        assert rc == 2
        assert_one_line_error(capsys, "noise_sigma must be finite")
        assert not out.exists()


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("extra, name", [
        (["--angle", "inf"], "orientation_deg"),
        (["--angle", "nan"], "orientation_deg"),
        (["--half-length", "nan"], "half_length"),
        (["--width-sigma", "inf"], "width_sigma"),
        (["--amplitude", "inf"], "amplitude"),
        (["--background", "nan"], "background"),
        (["--width-sigma", "1e300"], "width_sigma"),
        (["--width-sigma", "1e-300"], "width_sigma"),
        (["--amplitude", "1e308", "--background", "1e308"], "background"),
        (["--noise", "1e308"], "noise_sigma"),
    ])
    def test_synth(self, tmp_path, capsys, extra, name):
        out = tmp_path / "a.pgm"
        rc = main(["synth", "--size", "32", "--half-length", "8", *extra,
                   "--out", str(out)])
        assert rc == 2
        err = assert_one_line_error(capsys, "must be finite")
        assert err.startswith(f"error: {name} "), err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_synth_span_beyond_float_range(self, tmp_path):
        # the valid pixels span more than the largest float: save_pgm must
        # rescale without forming hi - lo
        out = tmp_path / "a.pgm"
        rc = main(["synth", "--size", "32", "--half-length", "8",
                   "--amplitude", "1.7e308", "--background=-8.5e307",
                   "--noise", "1e307", "--out", str(out)])
        assert rc == 0
        payload = out.read_bytes()[len(b"P5\n32 32\n255\n"):]
        assert len(payload) == 32 * 32
        assert min(payload) == 0 and max(payload) == 255


class TestPolarCommand:
    def test_sixteen_bit_input(self, tmp_path):
        # samples times 256 in 16 bits: every polar value scales exactly
        src8 = tmp_path / "a8.pgm"
        make_scene_pgm(src8, size=32)
        samples = np.frombuffer(src8.read_bytes()[-32 * 32:], np.uint8)
        src16 = tmp_path / "a16.pgm"
        wide = (samples.astype(np.uint16) << 8).astype(">u2")
        src16.write_bytes(b"P5\n32 32\n65535\n" + wide.tobytes())
        grids = []
        for src in (src8, src16):
            out = tmp_path / (src.stem + ".csv")
            rc = main(["polar", "--input", str(src), "--out", str(out),
                       "--angular", "24", "--radial", "8"])
            assert rc == 0
            grids.append(np.loadtxt(out, delimiter=","))
        assert np.array_equal(grids[1], grids[0] * 256)


class TestAlignCommand:
    def run_align(self, tmp_path, extra=()):
        ref = tmp_path / "ref.pgm"
        cand = tmp_path / "cand.pgm"
        make_scene_pgm(ref)
        make_scene_pgm(cand, angle=30.0)
        report = tmp_path / "r.json"
        rc = main(["align", "--ref", str(ref), "--cand", str(cand),
                   "--report", str(report), "--angular", "360",
                   "--radial", "64", *extra])
        assert rc == 0
        return json.loads(report.read_text()), tmp_path

    def test_recovers_rotation(self, tmp_path):
        report, _ = self.run_align(tmp_path)
        assert abs(report["angle_deg"] - 30.0) <= 1.0
        assert report["peak_ncc"] >= 0.9
        assert (tmp_path / "cand_aligned.pgm").exists()
        curve = (tmp_path / "cand_curve.csv").read_text().splitlines()
        assert curve[0] == "shift,score"
        assert len(curve) == 361

    def test_pruned_matches_exhaustive(self, tmp_path):
        plain, _ = self.run_align(tmp_path)
        pruned, _ = self.run_align(tmp_path, extra=("--pruned",))
        assert pruned["angle_deg"] == plain["angle_deg"]
        assert pruned["shift"] == plain["shift"]
        assert abs(pruned["peak_ncc"] - plain["peak_ncc"]) <= 1e-12
        counts = pruned["op_counts"]
        assert counts["evaluated"] <= counts["exhaustive"]
        assert "op_counts" not in plain

    def test_manifest_lists_created_files(self, tmp_path):
        from pathlib import Path
        _, d = self.run_align(tmp_path)
        manifest = json.loads((d / "r.json.manifest.json").read_text())
        assert len(manifest["outputs"]) == 3
        for out in manifest["outputs"]:
            assert Path(out).exists()

    @pytest.mark.parametrize("extra", [(), ("--pruned",)])
    def test_constant_candidate_is_data_error(self, tmp_path, capsys, extra):
        ref = tmp_path / "ref.pgm"
        cand = tmp_path / "flat.pgm"
        make_scene_pgm(ref, size=64)
        write_constant_pgm(cand)
        rc = main(["align", "--ref", str(ref), "--cand", str(cand),
                   "--angular", "90", "--radial", "16", *extra])
        assert rc == 2
        err = assert_one_line_error(capsys, "zero variance")
        assert err.startswith(f"error: {cand}: "), err

    @pytest.mark.parametrize("extra", [(), ("--pruned",)])
    def test_constant_reference_is_named(self, tmp_path, capsys, extra):
        ref = tmp_path / "flat.pgm"
        cand = tmp_path / "cand.pgm"
        write_constant_pgm(ref)
        make_scene_pgm(cand, size=64)
        rc = main(["align", "--ref", str(ref), "--cand", str(cand),
                   "--angular", "90", "--radial", "16", *extra])
        assert rc == 2
        err = assert_one_line_error(capsys, "zero variance")
        assert err.startswith(f"error: {ref}: "), err

    def test_truncated_reference_is_named(self, tmp_path, capsys):
        ref = tmp_path / "short.pgm"
        cand = tmp_path / "cand.pgm"
        ref.write_bytes(b"P5\n64 64\n255\n\x00\x01")
        make_scene_pgm(cand, size=64)
        rc = main(["align", "--ref", str(ref), "--cand", str(cand)])
        assert rc == 2
        err = assert_one_line_error(capsys, "truncated payload")
        assert err.startswith(f"error: {ref}: "), err

    def test_missing_ref_is_data_error(self, tmp_path, capsys):
        cand = tmp_path / "cand.pgm"
        make_scene_pgm(cand)
        rc = main(["align", "--ref", str(tmp_path / "missing.pgm"),
                   "--cand", str(cand)])
        assert rc == 2
        assert "missing.pgm" in capsys.readouterr().err


class TestMatrixCommand:
    def test_builds_tables(self, tmp_path):
        inputs = tmp_path / "frames"
        inputs.mkdir()
        for i, angle in enumerate((0.0, 15.0, 350.0)):
            make_scene_pgm(inputs / f"f{i}.pgm", angle=angle)
        mat = tmp_path / "matrix.csv"
        prob = tmp_path / "probability.csv"
        rc = main(["matrix", "--inputs", str(inputs), "--crop", "48",
                   "--angular", "180", "--radial", "48",
                   "--aligned-dir", str(tmp_path / "aligned"),
                   "--matrix-out", str(mat), "--prob-out", str(prob)])
        assert rc == 0
        values = load_square_csv(mat)
        assert values.shape == (3, 3)
        assert np.abs(values - values.T).max() <= 1e-12
        assert np.array_equal(np.diag(values), np.ones(3))
        p = load_square_csv(prob)
        assert p.min() >= 0.0 and p.max() <= 1.0
        assert len(list((tmp_path / "aligned").glob("*.pgm"))) == 3

    def test_constant_frame_is_named(self, tmp_path, capsys):
        inputs = tmp_path / "frames"
        inputs.mkdir()
        make_scene_pgm(inputs / "f0.pgm", size=64)
        write_constant_pgm(inputs / "f1.pgm")
        make_scene_pgm(inputs / "f2.pgm", angle=20.0, size=64)
        rc = main(["matrix", "--inputs", str(inputs), "--crop", "32",
                   "--angular", "90", "--radial", "16",
                   "--aligned-dir", str(tmp_path / "aligned")])
        assert rc == 2
        assert_one_line_error(capsys, str(inputs / "f1.pgm"), "zero variance")

    def test_constant_reference_is_named(self, tmp_path, capsys):
        inputs = tmp_path / "frames"
        inputs.mkdir()
        write_constant_pgm(inputs / "f0.pgm")
        for i in (1, 2):
            make_scene_pgm(inputs / f"f{i}.pgm", angle=20.0 * i, size=64)
        rc = main(["matrix", "--inputs", str(inputs), "--crop", "32",
                   "--angular", "90", "--radial", "16",
                   "--aligned-dir", str(tmp_path / "aligned")])
        assert rc == 2
        err = assert_one_line_error(capsys, "zero variance")
        assert err.startswith(f"error: {inputs / 'f0.pgm'}: "), err
    def test_oversized_crop_fails_before_writing(self, tmp_path, capsys):
        inputs = tmp_path / "frames"
        inputs.mkdir()
        for i in range(2):
            make_scene_pgm(inputs / f"f{i}.pgm", angle=10.0 * i, size=64)
        aligned = tmp_path / "aligned"
        rc = main(["matrix", "--inputs", str(inputs), "--crop", "999",
                   "--angular", "90", "--radial", "16",
                   "--aligned-dir", str(aligned)])
        assert rc == 2
        assert_one_line_error(capsys, "crop size 999")
        assert not list(aligned.glob("*.pgm"))

    def test_mixed_frame_sizes_match_single_aligns(self, tmp_path):
        # one sampling plan per frame shape: each aligned frame is what
        # align gives for that frame alone
        inputs = tmp_path / "frames"
        inputs.mkdir()
        for i, (angle, size) in enumerate(((0.0, 64), (25.0, 80), (300.0, 64),
                                           (140.0, 72), (60.0, 80))):
            make_scene_pgm(inputs / f"f{i}.pgm", angle=angle, size=size)
        grid = ["--angular", "120", "--radial", "24"]
        rc = main(["matrix", "--inputs", str(inputs), "--crop", "32", *grid,
                   "--aligned-dir", str(tmp_path / "aligned"),
                   "--matrix-out", str(tmp_path / "m.csv"),
                   "--prob-out", str(tmp_path / "p.csv")])
        assert rc == 0
        for i in range(1, 5):
            alone = tmp_path / f"alone{i}.pgm"
            rc = main(["align", "--ref", str(inputs / "f0.pgm"),
                       "--cand", str(inputs / f"f{i}.pgm"), *grid,
                       "--out", str(alone),
                       "--curve", str(tmp_path / f"c{i}.csv"),
                       "--report", str(tmp_path / f"r{i}.json")])
            assert rc == 0
            aligned = (tmp_path / "aligned" / f"f{i}.pgm").read_bytes()
            assert aligned == alone.read_bytes()
        assert load_square_csv(tmp_path / "m.csv").shape == (5, 5)

    def run_with_ref(self, tmp_path, ref):
        rc = main(["matrix", "--inputs", str(tmp_path / "frames"),
                   "--ref", str(ref), "--crop", "32",
                   "--angular", "120", "--radial", "24",
                   "--aligned-dir", str(tmp_path / "aligned"),
                   "--matrix-out", str(tmp_path / "m.csv"),
                   "--prob-out", str(tmp_path / "p.csv")])
        assert rc == 0
        manifest = json.loads((tmp_path / "p.csv.manifest.json").read_text())
        assert manifest["parameters"]["ref"] == str(ref)

    def test_ref_inside_inputs_is_written_unrotated(self, tmp_path):
        inputs = tmp_path / "frames"
        inputs.mkdir()
        for i, angle in enumerate((0.0, 25.0, 300.0, 140.0)):
            make_scene_pgm(inputs / f"f{i}.pgm", angle=angle, size=64)
        # the third in sorted order, not the default first
        self.run_with_ref(tmp_path, inputs / "f2.pgm")
        for i in range(4):
            written = (tmp_path / "aligned" / f"f{i}.pgm").read_bytes()
            unchanged = written == (inputs / f"f{i}.pgm").read_bytes()
            # save_pgm wrote the input, so loading and saving it again
            # gives the same bytes
            assert unchanged == (i == 2), i

    def test_ref_outside_inputs_rotates_every_input(self, tmp_path):
        inputs = tmp_path / "frames"
        inputs.mkdir()
        for i, angle in enumerate((0.0, 25.0, 300.0)):
            make_scene_pgm(inputs / f"f{i}.pgm", angle=angle, size=64)
        ref = tmp_path / "ref.pgm"
        make_scene_pgm(ref, angle=200.0, size=64)
        self.run_with_ref(tmp_path, ref)
        assert sorted(p.name for p in (tmp_path / "aligned").iterdir()) \
            == ["f0.pgm", "f1.pgm", "f2.pgm"]
        target = load_pgm(ref).pixels
        for i in range(3):
            written = load_pgm(tmp_path / "aligned" / f"f{i}.pgm").pixels
            given = load_pgm(inputs / f"f{i}.pgm").pixels
            # turned onto the reference, not copied
            assert np.abs(written - target).mean() \
                < 0.5 * np.abs(given - target).mean(), i

    def test_too_few_inputs(self, tmp_path):
        inputs = tmp_path / "frames"
        inputs.mkdir()
        make_scene_pgm(inputs / "only.pgm")
        rc = main(["matrix", "--inputs", str(inputs)])
        assert rc == 2


class TestSequenceCommand:
    def test_table1_plan(self, tmp_path):
        table = tmp_path / "table1.csv"
        matrix_to_csv(TABLE1, table)
        plan_path = tmp_path / "plan.json"
        frames_path = tmp_path / "frames.txt"
        rc = main(["sequence", "--matrix", str(table), "--start", "0",
                   "--length", "3", "--plan", str(plan_path),
                   "--frames", str(frames_path)])
        assert rc == 0
        plan = json.loads(plan_path.read_text())
        assert plan["frames"][:2] == [0, 1]
        assert plan["step_probs"][0] == 0.8
        lines = frames_path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0] == "frame_0"

    def test_images_directory_backs_manifest(self, tmp_path):
        table = tmp_path / "table1.csv"
        matrix_to_csv(TABLE1, table)
        frames_dir = tmp_path / "imgs"
        frames_dir.mkdir()
        for i in range(4):
            make_scene_pgm(frames_dir / f"f{i}.pgm", size=32)
        frames_path = tmp_path / "frames.txt"
        rc = main(["sequence", "--matrix", str(table), "--start", "0",
                   "--length", "2", "--plan", str(tmp_path / "plan.json"),
                   "--frames", str(frames_path),
                   "--images", str(frames_dir)])
        assert rc == 0
        lines = frames_path.read_text().splitlines()
        assert lines == [str(frames_dir / "f0.pgm"), str(frames_dir / "f1.pgm")]


    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_entry_is_data_error(self, tmp_path, capsys, bad):
        table = tmp_path / "table.csv"
        values = TABLE1.copy()
        values[0, 1] = values[1, 0] = float(bad)
        matrix_to_csv(values, table)
        plan_path = tmp_path / "plan.json"
        rc = main(["sequence", "--matrix", str(table), "--start", "0",
                   "--length", "3", "--plan", str(plan_path),
                   "--frames", str(tmp_path / "frames.txt")])
        assert rc == 2
        assert_one_line_error(capsys, "entry (0, 1) must be finite")
        assert not plan_path.exists()

    def run_in(self, tmp_path, table, *extra):
        """Run sequence with its default output names inside tmp_path."""
        argv = ["sequence", "--matrix", str(table), "--start", "0",
                "--length", "3", "--plan", str(tmp_path / "plan.json"),
                "--frames", str(tmp_path / "frames.txt"), *extra]
        return main(argv)

    def assert_nothing_written(self, tmp_path):
        for name in ("plan.json", "frames.txt", "frames.txt.manifest.json"):
            assert not (tmp_path / name).exists(), name

    def test_wrong_image_count_writes_nothing(self, tmp_path, capsys):
        table = tmp_path / "table1.csv"
        matrix_to_csv(TABLE1, table)
        frames_dir = tmp_path / "imgs"
        frames_dir.mkdir()
        for i in range(3):
            make_scene_pgm(frames_dir / f"f{i}.pgm", size=32)
        rc = self.run_in(tmp_path, table, "--images", str(frames_dir))
        assert rc == 2
        assert_one_line_error(capsys, "holds 3 PGMs, table has 4")
        self.assert_nothing_written(tmp_path)

    def test_binary_table_names_the_file(self, tmp_path, capsys):
        table = tmp_path / "frame.pgm"
        make_scene_pgm(table, size=32)
        rc = self.run_in(tmp_path, table)
        assert rc == 2
        err = assert_one_line_error(capsys, f"{table}: not an ASCII CSV")
        assert "codec" not in err
        self.assert_nothing_written(tmp_path)

    def test_unopenable_frames_path_writes_nothing(self, tmp_path, capsys):
        table = tmp_path / "table1.csv"
        matrix_to_csv(TABLE1, table)
        frames = tmp_path / "nodir" / "frames.txt"
        rc = main(["sequence", "--matrix", str(table), "--start", "0",
                   "--length", "3", "--plan", str(tmp_path / "plan.json"),
                   "--frames", str(frames)])
        assert rc == 2
        assert_one_line_error(capsys, str(frames))
        self.assert_nothing_written(tmp_path)
        assert not (tmp_path / "nodir").exists()

    def test_zero_probability_chain_writes_null(self, tmp_path):
        table = tmp_path / "identity.csv"
        matrix_to_csv(np.eye(2), table)
        assert self.run_in(tmp_path, table) == 0

        def reject(name):
            raise AssertionError(f"{name} is not JSON")

        text = (tmp_path / "plan.json").read_text()
        plan = json.loads(text, parse_constant=reject)
        assert plan["log_chain_prob"] is None
        assert plan["frames"] == [0, 1, 0] and plan["step_probs"] == [0.0, 0.0]


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_flag(self):
        assert main(["synth", "--bogus", "1", "--out", "x.pgm"]) == 1

    def test_missing_subcommand(self):
        assert main([]) == 1

    def test_one_parser_serves_every_call(self, tmp_path):
        assert build_parser() is build_parser()
        synth = ["synth", "--size", "16", "--half-length", "4",
                 "--out", str(tmp_path / "f.pgm")]
        codes = [main(["frobnicate"]), main(synth), main(["align"]),
                 main(synth)]
        assert codes == [1, 0, 1, 0]
