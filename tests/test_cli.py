import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import UNREADABLE_JSON
from mssmf import FitConfig
from mssmf.cli import build_parser, main
from mssmf.matio import (
    load_matrix,
    read_csv_matrix,
    read_manifest,
    write_csv_matrix,
    write_raw64,
)


def run(*argv):
    return main(list(argv))


def synth_args(out, pixels=60, snr="25", seed=5, bands=40):
    return [
        "synth", "--bases", "builtin", "--bands", str(bands),
        "--pick", "4", "--pixels", str(pixels),
        "--snr-db", snr, "--seed", str(seed), "--out", str(out),
    ]


class TestSynthCommand:
    def test_writes_expected_files(self, tmp_path):
        out = tmp_path / "scene"
        assert run(*synth_args(out)) == 0
        for name in [
            "data.raw64", "endmembers_true.raw64",
            "abundances_true.raw64", "labels.csv", "manifest.json",
        ]:
            assert (out / name).exists(), name
        man = read_manifest(out / "manifest.json")
        assert man["kind"] == "synth"
        assert man["dims"]["expanded"] == 12
        assert man["argv"][0] == "synth"

    def test_noiseless_is_bitexact_product(self, tmp_path):
        out = tmp_path / "scene"
        assert run(*synth_args(out, snr="inf")) == 0
        y = load_matrix(out / "data.raw64")
        a = load_matrix(out / "endmembers_true.raw64")
        z = load_matrix(out / "abundances_true.raw64")
        assert np.array_equal(y, a @ z)

    def test_same_seed_byte_identical(self, tmp_path):
        out = tmp_path / "scene"
        run(*synth_args(out))
        first = {
            p.name: p.read_bytes() for p in out.iterdir()
        }
        run(*synth_args(out))
        for p in out.iterdir():
            assert p.read_bytes() == first[p.name], p.name

    def test_custom_bases_csv(self, tmp_path, rng):
        bases = rng.uniform(0.1, 0.9, (25, 3))
        write_csv_matrix(tmp_path / "bases.csv", bases)
        out = tmp_path / "scene"
        code = run(
            "synth", "--bases", str(tmp_path / "bases.csv"),
            "--pick", "2", "--pixels", "30", "--snr-db", "30",
            "--seed", "1", "--out", str(out),
        )
        assert code == 0
        assert load_matrix(out / "data.raw64").shape == (25, 30)

    def test_missing_bases_file_is_io_error(self, tmp_path):
        code = run(
            "synth", "--bases", str(tmp_path / "nope.csv"), "--pixels", "10",
            "--snr-db", "20", "--out", str(tmp_path / "s"),
        )
        assert code == 1

    def test_bad_gamma_is_validation_error(self, tmp_path):
        code = run(*synth_args(tmp_path / "s"), "--gamma", "1.5")
        assert code == 3

    def test_extreme_snr_is_noiseless_or_one_error_line(self, tmp_path):
        # in a child, so that the command's whole stderr is seen: an SNR
        # whose noise scale overflows is noiseless, one whose noise variance
        # is not finite exits 3 with the one error line, and neither warns
        def synth(snr):
            return subprocess.run(
                [sys.executable, "-m", "mssmf.cli", *synth_args(tmp_path / snr, snr=snr)],
                capture_output=True, text=True, timeout=120,
            )

        child = synth("-4000")
        assert child.returncode == 3
        assert child.stderr.splitlines() == [
            "error: noise variance at snr_db=-4000.0 is not finite"
        ]
        assert not (tmp_path / "-4000").exists()
        child = synth("1e308")
        assert child.returncode == 0
        assert child.stderr == ""
        assert read_manifest(tmp_path / "1e308" / "manifest.json")["sigma2"] == 0.0

    def test_negative_seed_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(*synth_args(tmp_path / "s", seed=-1))
        assert exc.value.code == 2
        assert not (tmp_path / "s").exists()

    def test_usage_error_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("synth", "--pixels", "10")  # missing required --snr-db/--out
        assert exc.value.code == 2

    def test_knot_count_is_the_default(self, tmp_path):
        # synth has no knot option: every scene uses gen_variants' default,
        # and the manifest's config records only the options synth takes
        argv = synth_args(tmp_path / "s")
        assert not hasattr(build_parser().parse_args(argv), "knots")
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--knots", "3")
        assert exc.value.code == 2
        assert not (tmp_path / "s").exists()
        assert run(*argv) == 0
        config = read_manifest(tmp_path / "s" / "manifest.json")["config"]
        assert sorted(config) == ["bases", "gamma", "pick"]

    def test_pool_size_is_not_an_option(self, tmp_path):
        # the variant pool is a constant of assemble_ground_truth
        argv = synth_args(tmp_path / "s")
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--variants", "12")
        assert exc.value.code == 2
        assert not (tmp_path / "s").exists()

    def test_bands_with_csv_bases_is_a_usage_error(self, tmp_path, rng, capsys):
        # a CSV's band count is its row count, so --bands would be ignored
        write_csv_matrix(tmp_path / "bases.csv", rng.uniform(0.1, 0.9, (25, 3)))
        out = tmp_path / "scene"
        code = run(
            "synth", "--bases", str(tmp_path / "bases.csv"), "--bands", "64",
            "--pixels", "30", "--snr-db", "30", "--out", str(out),
        )
        assert code == 2
        assert "--bands" in capsys.readouterr().err
        assert not out.exists()


class TestUnmixCommand:
    def test_stop_rule_default_is_the_fit_default(self):
        # unmix has no stop-rule option: it runs the fit's default, zero,
        # which runs every iteration unless the bound drops
        argv = ["unmix", "--input", "y", "--dims", "2,3", "--out", "o"]
        args = build_parser().parse_args(argv)
        assert FitConfig().rel_elbo_tol == 0.0
        assert not hasattr(args, "tol")
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*argv, "--tol", "0"])
        assert exc.value.code == 2

    @pytest.fixture
    def scene(self, tmp_path):
        out = tmp_path / "scene"
        run(*synth_args(out, pixels=80, snr="25", bands=40))
        return out

    def test_full_fit_outputs(self, scene, tmp_path):
        out = tmp_path / "run"
        code = run(
            "unmix", "--input", str(scene / "data.raw64"), "--dims", "3,6,12",
            "--iters", "5", "--seed", "2", "--out", str(out),
        )
        assert code == 0
        assert load_matrix(out / "basis.raw64").shape == (40, 3)
        assert load_matrix(out / "mixer_1.raw64").shape == (3, 6)
        assert load_matrix(out / "mixer_2.raw64").shape == (6, 12)
        assert load_matrix(out / "expanded.raw64").shape == (40, 12)
        assert load_matrix(out / "concentration.raw64").shape == (12, 80)
        ab = load_matrix(out / "abundances.raw64")
        np.testing.assert_allclose(ab.sum(axis=0), 1.0, atol=1e-9)
        man = read_manifest(out / "manifest.json")
        assert man["stop_reason"] == "max_iters"
        assert len(man["trace"]["elbo"]) == 5
        assert man["config"] == {"iters": 5}

    def test_trace_rows_equal_iters_with_zero_tol(self, scene, tmp_path):
        out = tmp_path / "run"
        run(
            "unmix", "--input", str(scene / "data.raw64"), "--dims", "3,6",
            "--iters", "4", "--out", str(out),
        )
        trace = read_csv_matrix(out / "trace.csv")
        assert trace.shape[0] == 4

    def test_expanded_has_last_dim_columns(self, scene, tmp_path):
        out = tmp_path / "run"
        run(
            "unmix", "--input", str(scene / "data.raw64"), "--dims", "2,5,8",
            "--iters", "2", "--out", str(out),
        )
        assert load_matrix(out / "expanded.raw64").shape[1] == 8

    def test_dimension_validation_exits_three(self, scene, tmp_path):
        code = run(
            "unmix", "--input", str(scene / "data.raw64"), "--dims", "6,3",
            "--iters", "2", "--out", str(tmp_path / "run"),
        )
        assert code == 3

    def test_overflowing_data_exits_three(self, scene, tmp_path):
        # finite data whose squared norm overflows is a validation error
        data = tmp_path / "huge.raw64"
        write_raw64(data, load_matrix(scene / "data.raw64") * 1e160)
        code = run(
            "unmix", "--input", str(data), "--dims", "3,6",
            "--iters", "2", "--out", str(tmp_path / "run"),
        )
        assert code == 3

    def test_malformed_dims_is_usage_error(self, scene, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(
                "unmix", "--input", str(scene / "data.raw64"), "--dims", "3;6",
                "--out", str(tmp_path / "run"),
            )
        assert exc.value.code == 2

    def test_factor_pass_budget_flag_is_gone(self, scene, tmp_path):
        # the factor blocks are solved exactly; there is no inner budget
        with pytest.raises(SystemExit) as exc:
            run(
                "unmix", "--input", str(scene / "data.raw64"), "--dims", "3,6",
                "--apg-passes", "5", "--out", str(tmp_path / "run"),
            )
        assert exc.value.code == 2

    def test_beta_steps_flag_is_gone(self, scene, tmp_path):
        # the concentration passes per iteration are a constant of the fit
        with pytest.raises(SystemExit) as exc:
            run(
                "unmix", "--input", str(scene / "data.raw64"), "--dims", "3,6",
                "--beta-steps", "5", "--out", str(tmp_path / "run"),
            )
        assert exc.value.code == 2

    def test_negative_seed_is_usage_error(self, scene, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(
                "unmix", "--input", str(scene / "data.raw64"), "--dims", "3,6",
                "--seed", "-3", "--out", str(tmp_path / "run"),
            )
        assert exc.value.code == 2
        assert not (tmp_path / "run").exists()

    def test_missing_input_is_io_error(self, tmp_path):
        code = run(
            "unmix", "--input", str(tmp_path / "absent.raw64"), "--dims", "2,4",
            "--out", str(tmp_path / "run"),
        )
        assert code == 1

    def test_bad_iteration_count_exits_three_before_reading(self, tmp_path, capsys):
        # the count is checked before the input is read, so a missing input
        # does not hide it, and nothing is written
        out = tmp_path / "X"
        code = run(
            "unmix", "--input", str(tmp_path / "missing.raw64"), "--dims", "6,18,30",
            "--iters", "0", "--out", str(out),
        )
        assert code == 3
        assert "max_outer_iters" in capsys.readouterr().err
        assert not out.exists()

    def test_default_iteration_count_is_the_fits(self, scene, tmp_path):
        out = tmp_path / "run"
        code = run(
            "unmix", "--input", str(scene / "data.raw64"), "--dims", "3,6", "--out", str(out),
        )
        assert code == 0
        assert FitConfig().max_outer_iters == 100
        assert read_manifest(out / "manifest.json")["config"] == {"iters": 100}
        assert read_csv_matrix(out / "trace.csv").shape[0] == 100

    def test_deterministic_reruns(self, scene, tmp_path):
        args = [
            "unmix", "--input", str(scene / "data.raw64"), "--dims", "3,6",
            "--iters", "3", "--seed", "4", "--out", str(tmp_path / "run"),
        ]
        run(*args)
        first = (tmp_path / "run" / "expanded.raw64").read_bytes()
        first_man = (tmp_path / "run" / "manifest.json").read_bytes()
        run(*args)
        assert (tmp_path / "run" / "expanded.raw64").read_bytes() == first
        assert (tmp_path / "run" / "manifest.json").read_bytes() == first_man


class TestEvalCommand:
    def test_identical_matrices_give_zero(self, tmp_path, rng):
        mat = rng.uniform(0, 1, (10, 4))
        write_raw64(tmp_path / "a.raw64", mat)
        out = tmp_path / "eval.json"
        code = run(
            "eval", "--est", str(tmp_path / "a.raw64"),
            "--truth", str(tmp_path / "a.raw64"), "--out", str(out),
        )
        assert code == 0
        assert read_manifest(out)["mse"] == 0.0

    def test_shape_mismatch_exits_three(self, tmp_path, rng):
        write_raw64(tmp_path / "a.raw64", rng.uniform(0, 1, (5, 3)))
        write_raw64(tmp_path / "b.raw64", rng.uniform(0, 1, (5, 4)))
        code = run(
            "eval", "--est", str(tmp_path / "a.raw64"),
            "--truth", str(tmp_path / "b.raw64"),
            "--out", str(tmp_path / "eval.json"),
        )
        assert code == 3

    def test_single_mode_requires_both_files(self, tmp_path):
        code = run("eval", "--out", str(tmp_path / "eval.json"))
        assert code == 2

    def test_nan_snr_tag_is_a_usage_error(self, tmp_path, rng):
        # a NaN tag would be written as a bare NaN token, which is not JSON
        write_raw64(tmp_path / "a.raw64", rng.uniform(0, 1, (5, 3)))
        out = tmp_path / "eval.json"
        with pytest.raises(SystemExit) as exc:
            run(
                "eval", "--est", str(tmp_path / "a.raw64"),
                "--truth", str(tmp_path / "a.raw64"),
                "--snr-db", "nan", "--out", str(out),
            )
        assert exc.value.code == 2
        assert not out.exists()

    def test_batch_aggregation(self, tmp_path, rng):
        truth = rng.uniform(0, 1, (8, 3))
        write_raw64(tmp_path / "truth.raw64", truth)
        mses = {}
        for i, snr in enumerate([30, 10, 10, 30, 20, 20]):
            est = truth + rng.normal(0, 0.01 * (31 - snr), truth.shape)
            run_dir = tmp_path / f"run{i}"
            run_dir.mkdir()
            write_raw64(run_dir / "est.raw64", est)
            code = run(
                "eval", "--est", str(run_dir / "est.raw64"),
                "--truth", str(tmp_path / "truth.raw64"),
                "--snr-db", str(snr), "--out", str(run_dir / "eval.json"),
            )
            assert code == 0
            mses.setdefault(snr, []).append(read_manifest(run_dir / "eval.json")["mse"])
        agg = tmp_path / "agg.json"
        code = run("eval", "--runs-dir", str(tmp_path), "--out", str(agg))
        assert code == 0
        doc = read_manifest(agg)
        assert [g["snr_db"] for g in doc["groups"]] == [10.0, 20.0, 30.0]
        for g in doc["groups"]:
            vals = np.asarray(mses[int(g["snr_db"])])
            assert g["runs"] == 2
            assert g["mean_mse"] == pytest.approx(vals.mean(), rel=1e-12)
            assert g["std_mse"] == pytest.approx(vals.std(ddof=1), rel=1e-12)
        table = read_csv_matrix(tmp_path / "agg.csv")
        assert table.shape == (3, 3)
        np.testing.assert_array_equal(table[:, 0], [10.0, 20.0, 30.0])

    def test_manifests_are_strict_json(self, tmp_path):
        # an infinite SNR is written as the string "inf", not a bare token
        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        scene = tmp_path / "scene"
        assert run(*synth_args(scene, snr="inf")) == 0
        truth = str(scene / "endmembers_true.raw64")
        runs = tmp_path / "runs"
        runs.mkdir()
        for i, snr in enumerate(["inf", "20", "inf"]):
            out = str(runs / f"eval_{i}.json")
            assert run("eval", "--est", truth, "--truth", truth, "--snr-db", snr, "--out", out) == 0
        agg = tmp_path / "agg.json"
        assert run("eval", "--runs-dir", str(runs), "--out", str(agg)) == 0
        docs = {
            p.name: json.loads(p.read_text(), parse_constant=reject)
            for p in [scene / "manifest.json", runs / "eval_0.json", agg]
        }
        assert docs["manifest.json"]["snr_db"] == "inf"
        assert docs["eval_0.json"]["snr_db"] == "inf"
        groups = docs["agg.json"]["groups"]
        assert [(g["snr_db"], g["runs"]) for g in groups] == [(20.0, 1), ("inf", 2)]

    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "eval", "snr_db": 20},
            {"kind": "eval", "snr_db": "abc", "mse": 0.1},
            {"kind": "eval", "snr_db": 20, "mse": None},
        ],
        ids=["missing_mse", "non_numeric_snr", "null_mse"],
    )
    def test_malformed_eval_manifest_exits_three(self, tmp_path, capsys, doc):
        runs = tmp_path / "runs"
        runs.mkdir()
        (runs / "good.json").write_text(json.dumps({"kind": "eval", "snr_db": 10, "mse": 0.5}))
        (runs / "bad.json").write_text(json.dumps(doc))
        agg = tmp_path / "agg.json"
        code = run("eval", "--runs-dir", str(runs), "--out", str(agg))
        assert code == 3
        assert "bad.json" in capsys.readouterr().err
        assert not agg.exists()

    @pytest.mark.parametrize("fault", sorted(UNREADABLE_JSON))
    def test_batch_skips_unreadable_json(self, tmp_path, fault):
        # like any other malformed JSON file under the directory
        runs = tmp_path / "runs"
        runs.mkdir()
        (runs / "good.json").write_text(json.dumps({"kind": "eval", "snr_db": 10, "mse": 0.5}))
        (runs / "bad.json").write_bytes(UNREADABLE_JSON[fault])
        agg = tmp_path / "agg.json"
        assert run("eval", "--runs-dir", str(runs), "--out", str(agg)) == 0
        assert [g["runs"] for g in read_manifest(agg)["groups"]] == [1]

    def test_batch_with_no_manifests_exits_three(self, tmp_path):
        (tmp_path / "empty").mkdir()
        code = run(
            "eval", "--runs-dir", str(tmp_path / "empty"),
            "--out", str(tmp_path / "agg.json"),
        )
        assert code == 3


class TestRoundTrip:
    @staticmethod
    def outputs(root: Path):
        """Bytes of every file a round trip wrote, except the wall-clock
        trace.csv."""
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file() and p.name != "trace.csv"
        }

    @settings(deadline=None, max_examples=10)
    @given(
        seed=st.integers(0, 2**31 - 1),
        bands=st.integers(20, 40),
        pixels=st.integers(30, 60),
        snr=st.sampled_from(["20", "inf"]),
    )
    def test_synth_unmix_eval_is_byte_reproducible(self, seed, bands, pixels, snr):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            scene, fitted = root / "scene", root / "run"
            rounds = []
            for _ in range(2):
                assert run(*synth_args(scene, pixels, snr, seed, bands), "--pick", "2") == 0
                assert run(
                    "unmix", "--input", str(scene / "data.raw64"), "--dims", "2,6",
                    "--iters", "3", "--seed", str(seed), "--out", str(fitted),
                ) == 0
                assert run(
                    "eval", "--est", str(fitted / "expanded.raw64"),
                    "--truth", str(scene / "endmembers_true.raw64"),
                    "--snr-db", snr, "--out", str(fitted / "eval.json"),
                ) == 0
                rounds.append(self.outputs(root))
                shutil.rmtree(scene)
                shutil.rmtree(fitted)
        first, second = rounds
        assert sum(name.endswith(".raw64") for name in first) == 8
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], name


class TestOutputTable:
    @staticmethod
    def listed_and_present(out: Path):
        """(files the manifest's outputs name, matrix files in out); a RAW64
        file's sidecar counts as part of it."""
        listed = set()
        for entry in read_manifest(out / "manifest.json")["outputs"].values():
            listed.update(entry if isinstance(entry, list) else [entry])
        present = {
            p.name for p in out.iterdir()
            if p.name != "manifest.json" and not p.name.endswith(".raw64.json")
        }
        for name in present:
            if name.endswith(".raw64"):
                assert (out / (name + ".json")).is_file(), name
        return listed, present

    def test_manifest_lists_every_file_written(self, tmp_path):
        scene, fitted = tmp_path / "scene", tmp_path / "run"
        assert run(*synth_args(scene)) == 0
        assert run(
            "unmix", "--input", str(scene / "data.raw64"), "--dims", "2,4,8",
            "--iters", "2", "--out", str(fitted),
        ) == 0
        for out in (scene, fitted):
            listed, present = self.listed_and_present(out)
            assert listed == present
            assert all((out / name).is_file() for name in listed)
        assert read_manifest(fitted / "manifest.json")["outputs"]["mixers"] == [
            "mixer_1.raw64", "mixer_2.raw64",
        ]


class TestSvdCommand:
    def test_identity_gives_ones(self, tmp_path):
        write_raw64(tmp_path / "eye.raw64", np.eye(5))
        out = tmp_path / "s.csv"
        assert run("svd", "--input", str(tmp_path / "eye.raw64"), "--out", str(out)) == 0
        np.testing.assert_allclose(read_csv_matrix(out), np.ones((5, 1)), atol=1e-12)

    @pytest.mark.parametrize("fault", sorted(UNREADABLE_JSON))
    def test_unreadable_sidecar_exits_three(self, tmp_path, capsys, fault):
        path = tmp_path / "m.raw64"
        write_raw64(path, np.eye(3))
        (tmp_path / "m.raw64.json").write_bytes(UNREADABLE_JSON[fault])
        assert run("svd", "--input", str(path), "--out", str(tmp_path / "s.csv")) == 3
        assert "m.raw64.json" in capsys.readouterr().err

    def test_empty_csv_is_one_error_line(self, tmp_path):
        # in a child, so that the command's whole stderr is seen: exit 3
        # and the one error line, no warning from inside numpy before it
        (tmp_path / "empty.csv").write_text("")
        child = subprocess.run(
            [sys.executable, "-m", "mssmf.cli", "svd", "--input", str(tmp_path / "empty.csv"),
             "--out", str(tmp_path / "s.csv")],
            capture_output=True, text=True, timeout=120,
        )
        assert child.returncode == 3
        assert child.stderr.splitlines() == [f"error: {tmp_path / 'empty.csv'}: empty CSV matrix"]
        assert not (tmp_path / "s.csv").exists()

    def test_overflowing_values_exit_three(self, tmp_path, capsys):
        # the singular values overflow at finite entries: no inf in the CSV
        write_raw64(tmp_path / "m.raw64", np.full((4, 3), 1e308))
        out = tmp_path / "s.csv"
        assert run("svd", "--input", str(tmp_path / "m.raw64"), "--out", str(out)) == 3
        assert "singular values" in capsys.readouterr().err
        assert not out.exists()

    def test_row_count_is_min_dim(self, tmp_path, rng):
        write_raw64(tmp_path / "m.raw64", rng.normal(size=(9, 4)))
        out = tmp_path / "s.csv"
        run("svd", "--input", str(tmp_path / "m.raw64"), "--out", str(out))
        got = read_csv_matrix(out)
        assert got.shape == (4, 1)
        assert np.all(np.diff(got[:, 0]) <= 0)


class TestRenderCommand:
    def test_constant_component_renders_extremes(self, tmp_path):
        ab = np.zeros((3, 12))
        ab[1] = 1.0
        write_raw64(tmp_path / "ab.raw64", ab)
        out = tmp_path / "maps"
        code = run(
            "render", "--abundances", str(tmp_path / "ab.raw64"),
            "--width", "4", "--height", "3", "--out", str(out),
        )
        assert code == 0
        header = b"P5\n4 3\n255\n"
        assert (out / "component_00.pgm").read_bytes() == header + bytes(12)
        assert (out / "component_01.pgm").read_bytes() == header + b"\xff" * 12

    def test_group_summing_hits_255(self, tmp_path, rng):
        k, n = 6, 20
        ab = rng.dirichlet(np.ones(k), size=n).T
        write_raw64(tmp_path / "ab.raw64", ab)
        write_csv_matrix(tmp_path / "labels.csv", np.zeros((1, k)))
        out = tmp_path / "maps"
        code = run(
            "render", "--abundances", str(tmp_path / "ab.raw64"),
            "--width", "5", "--height", "4",
            "--groups", str(tmp_path / "labels.csv"), "--out", str(out),
        )
        assert code == 0
        assert (out / "group_0.pgm").read_bytes() == b"P5\n5 4\n255\n" + b"\xff" * 20

    def test_pixel_count_mismatch_exits_three(self, tmp_path, rng):
        write_raw64(tmp_path / "ab.raw64", rng.dirichlet(np.ones(3), size=10).T)
        code = run(
            "render", "--abundances", str(tmp_path / "ab.raw64"),
            "--width", "3", "--height", "4", "--out", str(tmp_path / "maps"),
        )
        assert code == 3

    def test_label_count_mismatch_exits_three(self, tmp_path, rng):
        write_raw64(tmp_path / "ab.raw64", rng.dirichlet(np.ones(3), size=12).T)
        write_csv_matrix(tmp_path / "labels.csv", np.zeros((1, 5)))
        code = run(
            "render", "--abundances", str(tmp_path / "ab.raw64"),
            "--width", "3", "--height", "4",
            "--groups", str(tmp_path / "labels.csv"), "--out", str(tmp_path / "maps"),
        )
        assert code == 3

    def test_nan_abundances_exit_three(self, tmp_path, rng):
        ab = rng.dirichlet(np.ones(3), size=12).T
        ab[1, 5] = np.nan
        write_raw64(tmp_path / "ab.raw64", ab)
        code = run(
            "render", "--abundances", str(tmp_path / "ab.raw64"),
            "--width", "3", "--height", "4", "--out", str(tmp_path / "maps"),
        )
        assert code == 3

    @pytest.mark.parametrize(
        "labels", [[0.5, 1.7, 2.0], [0.0, np.nan, 1.0]], ids=["fractional", "nan"]
    )
    def test_non_integer_group_labels_exit_three(self, tmp_path, rng, labels):
        write_raw64(tmp_path / "ab.raw64", rng.dirichlet(np.ones(3), size=12).T)
        write_csv_matrix(tmp_path / "labels.csv", np.array([labels]))
        out = tmp_path / "maps"
        code = run(
            "render", "--abundances", str(tmp_path / "ab.raw64"),
            "--width", "3", "--height", "4",
            "--groups", str(tmp_path / "labels.csv"), "--out", str(out),
        )
        assert code == 3
        assert not list(out.glob("*.pgm"))

    def test_raster_order_matches_column_order(self, tmp_path):
        ab = np.linspace(0, 1, 6)[None, :]
        write_raw64(tmp_path / "ab.raw64", ab)
        out = tmp_path / "maps"
        run(
            "render", "--abundances", str(tmp_path / "ab.raw64"),
            "--width", "3", "--height", "2", "--out", str(out),
        )
        raster = np.rint(255 * ab[0]).astype(np.uint8).tobytes()
        assert (out / "component_00.pgm").read_bytes() == b"P5\n3 2\n255\n" + raster


class TestVersionFlag:
    def test_version_prints_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("--version")
        assert exc.value.code == 0
