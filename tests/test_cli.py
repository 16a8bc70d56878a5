"""Command-line interface: every command, determinism, input immutability."""

import csv
import hashlib
from pathlib import Path

import numpy as np
import pytest

from splatrim import cli
from splatrim.cli import main
from splatrim.sceneio import read_ply


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_rows(path):
    """The rows of a CSV file, read with the file closed again."""
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small synthetic dataset shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    rc = main(
        [
            "synth", "--out", str(root / "data"), "--seed", "4",
            "--gaussians", "120", "--views", "8", "--size", "32",
        ]
    )
    assert rc == 0
    return root


def data_paths(workspace):
    return workspace / "data" / "scene.ply", workspace / "data" / "manifest.txt"


class TestSynth:
    def test_outputs_exist(self, workspace):
        scene, manifest = data_paths(workspace)
        assert scene.exists() and manifest.exists()
        assert read_ply(scene).count == 120
        images = sorted((workspace / "data" / "images").glob("*.ppm"))
        assert len(images) == 8

    def test_seed_determinism(self, tmp_path):
        for out in ("a", "b"):
            assert main(
                ["synth", "--out", str(tmp_path / out), "--seed", "9",
                 "--gaussians", "30", "--views", "2", "--size", "16"]
            ) == 0
        assert sha(tmp_path / "a" / "scene.ply") == sha(tmp_path / "b" / "scene.ply")
        assert (
            (tmp_path / "a" / "manifest.txt").read_text()
            == (tmp_path / "b" / "manifest.txt").read_text()
        )

    def test_custom_views_respected(self, tmp_path):
        assert main(
            ["synth", "--out", str(tmp_path), "--seed", "0",
             "--gaussians", "10", "--views", "3", "--size", "16"]
        ) == 0
        assert len(list((tmp_path / "images").glob("*.ppm"))) == 3


class TestTrim:
    def test_gamma_zero_preserves_count(self, workspace, tmp_path):
        scene, manifest = data_paths(workspace)
        out = tmp_path / "out.ply"
        rc = main(
            ["trim", "--scene", str(scene), "--manifest", str(manifest),
             "--out-scene", str(out), "--gamma-target", "0",
             "--steps", "1", "--interval", "2", "--finetune-iters", "1"]
        )
        assert rc == 0
        assert read_ply(out).count == 120

    def test_opacity_single_step_removes_half(self, workspace, tmp_path):
        scene, manifest = data_paths(workspace)
        out = tmp_path / "out.ply"
        report = tmp_path / "report.csv"
        history = tmp_path / "history.csv"
        rc = main(
            ["trim", "--scene", str(scene), "--manifest", str(manifest),
             "--out-scene", str(out), "--gamma-target", "0.5",
             "--criterion", "opacity", "--steps", "1", "--interval", "2",
             "--finetune-iters", "1", "--report", str(report),
             "--history", str(history)]
        )
        assert rc == 0
        assert read_ply(out).count == 60
        rows = read_rows(report)
        assert len(rows) == 1
        assert rows[0]["removed"] == "60"
        hist_rows = read_rows(history)
        assert len(hist_rows) == 3

    def test_inputs_not_mutated(self, workspace, tmp_path):
        scene, manifest = data_paths(workspace)
        before = sha(scene), sha(manifest)
        main(
            ["trim", "--scene", str(scene), "--manifest", str(manifest),
             "--out-scene", str(tmp_path / "o.ply"), "--gamma-target", "0.2",
             "--steps", "1", "--interval", "1", "--finetune-iters", "0"]
        )
        assert (sha(scene), sha(manifest)) == before

    def test_missing_scene_fails_cleanly(self, workspace, tmp_path, capsys):
        _, manifest = data_paths(workspace)
        rc = main(
            ["trim", "--scene", str(tmp_path / "nope.ply"), "--manifest",
             str(manifest), "--out-scene", str(tmp_path / "o.ply")]
        )
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_run_config_file(self, workspace, tmp_path):
        scene, manifest = data_paths(workspace)
        out = tmp_path / "out.ply"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# desk-scale run\n"
            f"scene {scene}\n"
            f"manifest {manifest}\n"
            f"out_scene {out}\n"
            "gamma_target 0.5\n"
            "criterion opacity\n"
            "steps 1\n"
            "interval 2\n"
            "finetune_iters 1\n"
            "opacity_lr 0.01\n"
        )
        rc = main(["trim", "--config", str(cfg)])
        assert rc == 0
        assert read_ply(out).count == 60

    def test_run_config_flag_override(self, workspace, tmp_path):
        scene, manifest = data_paths(workspace)
        out = tmp_path / "out.ply"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"scene {scene}\nmanifest {manifest}\nout_scene {out}\n"
            "gamma_target 0.5\ncriterion opacity\nsteps 1\ninterval 2\nfinetune_iters 1\n"
        )
        rc = main(["trim", "--config", str(cfg), "--gamma-target", "0"])
        assert rc == 0
        assert read_ply(out).count == 120  # flag beat the config value

    def test_run_config_loses_to_flags_at_default_values(self, workspace, tmp_path):
        scene, manifest = data_paths(workspace)
        schedule = "criterion opacity\nsteps 1\ninterval 2\nfinetune_iters 1\n"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"scene {scene}\nmanifest {manifest}\nout_scene {tmp_path / 'cfg.ply'}\n"
            f"seed 5\ngamma_target 0.75\n{schedule}"
        )
        rc = main(["trim", "--config", str(cfg), "--seed", "0", "--gamma-target", "0.5"])
        assert rc == 0
        plain = tmp_path / "plain.cfg"
        plain.write_text(
            f"scene {scene}\nmanifest {manifest}\nout_scene {tmp_path / 'flags.ply'}\n"
            f"{schedule}"
        )
        rc = main(["trim", "--config", str(plain), "--seed", "0", "--gamma-target", "0.5"])
        assert rc == 0
        assert read_ply(tmp_path / "cfg.ply").count == 60  # gamma 0.5, not 0.75
        assert sha(tmp_path / "cfg.ply") == sha(tmp_path / "flags.ply")  # seed 0, not 5

    def test_run_config_non_numeric_value(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps x\n")
        rc = main(["trim", "--config", str(cfg)])
        assert rc == 1
        assert "'steps'" in capsys.readouterr().err

    def test_run_config_unknown_criterion(self, workspace, tmp_path, capsys):
        scene, manifest = data_paths(workspace)
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "o.ply"
        cfg.write_text(f"scene {scene}\nmanifest {manifest}\nout_scene {out}\ncriterion foo\n")
        rc = main(["trim", "--config", str(cfg)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "'criterion'" in err and "'foo'" in err and "gradient, opacity" in err
        assert not out.exists()

    def test_run_config_unknown_preset(self, workspace, tmp_path, capsys):
        scene, manifest = data_paths(workspace)
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "o.ply"
        cfg.write_text(f"scene {scene}\nmanifest {manifest}\nout_scene {out}\npreset huge\n")
        rc = main(["trim", "--config", str(cfg)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "'preset'" in err and "'huge'" in err and "desk, paper" in err
        assert not out.exists()

    def test_run_config_unknown_key(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus_key 1\n")
        rc = main(["trim", "--config", str(cfg)])
        assert rc == 1
        assert "bogus_key" in capsys.readouterr().err

    def test_malformed_scene_fails_cleanly(self, workspace, tmp_path, capsys):
        scene, manifest = data_paths(workspace)
        broken = tmp_path / "broken.ply"
        broken.write_bytes(scene.read_bytes().replace(b"property float opacity\n", b""))
        rc = main(
            ["trim", "--scene", str(broken), "--manifest", str(manifest),
             "--out-scene", str(tmp_path / "o.ply"), "--steps", "1",
             "--interval", "1", "--finetune-iters", "0"]
        )
        assert rc == 1
        assert "opacity" in capsys.readouterr().err

    def test_out_scene_same_as_scene_rejected(self, workspace, tmp_path, capsys):
        scene, manifest = data_paths(workspace)
        copy = tmp_path / "scene.ply"
        copy.write_bytes(scene.read_bytes())
        before = sha(copy)
        (tmp_path / "sub").mkdir()
        rc = main(
            ["trim", "--scene", str(copy), "--manifest", str(manifest),
             "--out-scene", str(tmp_path / "sub" / ".." / "scene.ply"),
             "--gamma-target", "0.5", "--criterion", "opacity", "--steps", "1",
             "--interval", "1", "--finetune-iters", "0"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "overwrite" in err
        assert sha(copy) == before

    @pytest.mark.parametrize("flag", ["--out-scene", "--report", "--history"])
    def test_missing_output_directory_fails_before_loading(
        self, workspace, tmp_path, capsys, monkeypatch, flag
    ):
        scene, manifest = data_paths(workspace)
        paths = {f: str(tmp_path / f"{f[2:]}.out") for f in ("--out-scene", "--report", "--history")}
        paths[flag] = str(tmp_path / "nodir" / "out")

        def refuse(*args, **kwargs):
            raise AssertionError("loaded the scene before checking the outputs")

        monkeypatch.setattr(cli, "read_ply", refuse)
        argv = ["trim", "--scene", str(scene), "--manifest", str(manifest)]
        for f, path in paths.items():
            argv += [f, path]
        rc = main(argv)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err and "nodir" in err
        assert not any(p.exists() for p in map(Path, paths.values()))

    def test_missing_test_split_fails_before_training(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        scene, manifest = data_paths(workspace)
        train_only = tmp_path / "train_only.txt"
        train_only.write_text("".join(
            f"{manifest.parent / line}\n"
            for line in manifest.read_text().splitlines()
            if line.endswith(" train")
        ))
        out = tmp_path / "o.ply"

        def no_training(*args, **kwargs):
            pytest.fail("trim started training before resolving the test split")

        monkeypatch.setattr("splatrim.cli.run_iterative_prune", no_training)
        rc = main(
            ["trim", "--scene", str(scene), "--manifest", str(train_only),
             "--out-scene", str(out), "--steps", "1", "--interval", "1",
             "--finetune-iters", "0"]
        )
        assert rc == 1
        assert "no test views" in capsys.readouterr().err
        assert not out.exists()


class TestRender:
    def test_renders_are_deterministic(self, workspace, tmp_path):
        scene, manifest = data_paths(workspace)
        for sub in ("r1", "r2"):
            rc = main(
                ["render", "--scene", str(scene), "--manifest", str(manifest),
                 "--out", str(tmp_path / sub), "--view", "0", "--split", "test"]
            )
            assert rc == 0
        assert sha(tmp_path / "r1" / "render_000.ppm") == sha(tmp_path / "r2" / "render_000.ppm")

    def test_all_test_views(self, workspace, tmp_path):
        scene, manifest = data_paths(workspace)
        rc = main(
            ["render", "--scene", str(scene), "--manifest", str(manifest),
             "--out", str(tmp_path / "all")]
        )
        assert rc == 0
        assert len(list((tmp_path / "all").glob("*.ppm"))) == 2  # test views

    def test_bad_view_index(self, workspace, tmp_path, capsys):
        scene, manifest = data_paths(workspace)
        rc = main(
            ["render", "--scene", str(scene), "--manifest", str(manifest),
             "--out", str(tmp_path), "--view", "99"]
        )
        assert rc == 1
        assert "out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("column, value", [(2, "x"), (3, "nan")])
    def test_malformed_manifest_fails_cleanly(self, workspace, tmp_path, capsys, column, value):
        scene, manifest = data_paths(workspace)
        lines = manifest.read_text().splitlines()
        parts = lines[1].split()
        parts[column] = value
        lines[1] = " ".join(parts)
        bad = tmp_path / "bad_manifest.txt"
        bad.write_text("\n".join(lines) + "\n")
        rc = main(
            ["render", "--scene", str(scene), "--manifest", str(bad),
             "--out", str(tmp_path / "out"), "--view", "0"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bad_manifest.txt:2" in err

    def test_empty_scene_renders_background(self, workspace, tmp_path):
        _, manifest = data_paths(workspace)
        from splatrim.core import GaussianSet
        from splatrim.sceneio import read_ppm, write_ply

        empty = tmp_path / "empty.ply"
        write_ply(GaussianSet.empty(), empty)
        rc = main(
            ["render", "--scene", str(empty), "--manifest", str(manifest),
             "--out", str(tmp_path / "out"), "--view", "0"]
        )
        assert rc == 0
        image = read_ppm(tmp_path / "out" / "render_000.ppm")
        np.testing.assert_array_equal(image, 0.0)


class TestEval:
    def test_scene_against_itself(self, workspace, tmp_path, capsys):
        scene, manifest = data_paths(workspace)
        out_csv = tmp_path / "eval.csv"
        rc = main(
            ["eval", "--scene", str(scene), "--baseline", str(scene),
             "--manifest", str(manifest), "--csv", str(out_csv)]
        )
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "psnr inf" in stdout
        row = read_rows(out_csv)[0]
        assert row["psnr"] == "inf"
        assert float(row["compression"]) == 1.0

    def test_two_scene_comparison_rows(self, workspace, tmp_path):
        scene, manifest = data_paths(workspace)
        pruned = tmp_path / "pruned.ply"
        main(
            ["trim", "--scene", str(scene), "--manifest", str(manifest),
             "--out-scene", str(pruned), "--gamma-target", "0.5",
             "--criterion", "opacity", "--steps", "1", "--interval", "1",
             "--finetune-iters", "0"]
        )
        out_csv = tmp_path / "eval.csv"
        rc = main(
            ["eval", "--scene", str(pruned), "--baseline", str(scene),
             "--manifest", str(manifest), "--csv", str(out_csv)]
        )
        assert rc == 0
        row = read_rows(out_csv)[0]
        assert float(row["compression"]) > 1.5


class TestStats:
    def test_single_occupied_bin_for_equal_opacities(self, tmp_path):
        from splatrim.core import GaussianSet
        from splatrim.sceneio import write_ply

        n = 10
        scene = GaussianSet(
            positions=np.zeros((n, 3), np.float32),
            rotations=np.tile(np.array([1, 0, 0, 0], np.float32), (n, 1)),
            log_scales=np.zeros((n, 3), np.float32),
            opacity_logits=np.zeros(n, np.float32),  # all activate to 0.5
            sh_coeffs=np.zeros((n, 16, 3), np.float32),
        )
        ply = tmp_path / "flat.ply"
        write_ply(scene, ply)
        out_csv = tmp_path / "stats.csv"
        rc = main(["stats", "--scene", str(ply), "--csv", str(out_csv)])
        assert rc == 0
        rows = read_rows(out_csv)
        assert len(rows) == 50
        occupied = [r for r in rows if int(r["scene"]) > 0]
        assert len(occupied) == 1
        assert int(occupied[0]["scene"]) == n

    def test_two_scene_columns(self, workspace, tmp_path):
        scene, _ = data_paths(workspace)
        out_csv = tmp_path / "stats.csv"
        rc = main(
            ["stats", "--scene", str(scene), "--compare", str(scene),
             "--csv", str(out_csv)]
        )
        assert rc == 0
        rows = read_rows(out_csv)
        assert set(rows[0].keys()) == {"bin_lo", "bin_hi", "scene", "compare"}
        assert [r["scene"] for r in rows] == [r["compare"] for r in rows]


class TestAblate:
    def test_single_gamma_gives_four_rows(self, workspace, tmp_path):
        scene, manifest = data_paths(workspace)
        out_csv = tmp_path / "ablate.csv"
        rc = main(
            ["ablate", "--scene", str(scene), "--manifest", str(manifest),
             "--csv", str(out_csv), "--gammas", "0.5", "--seeds", "1",
             "--steps", "2", "--interval", "2", "--finetune-iters", "2"]
        )
        assert rc == 0
        rows = read_rows(out_csv)
        assert len(rows) == 4
        assert {r["variant"] for r in rows} == {
            "iterative-gradient", "iterative-opacity",
            "oneshot-gradient", "oneshot-opacity",
        }

    def test_rerun_is_identical_modulo_runtime(self, workspace, tmp_path):
        scene, manifest = data_paths(workspace)
        outputs = []
        for name in ("a.csv", "b.csv"):
            rc = main(
                ["ablate", "--scene", str(scene), "--manifest", str(manifest),
                 "--csv", str(tmp_path / name), "--gammas", "0.4", "--seeds", "1",
                 "--steps", "1", "--interval", "2", "--finetune-iters", "1"]
            )
            assert rc == 0
            rows = read_rows(tmp_path / name)
            outputs.append([{k: v for k, v in r.items() if k != "runtime_s"} for r in rows])
        assert outputs[0] == outputs[1]

    def test_non_numeric_gamma_fails_cleanly(self, workspace, tmp_path, capsys):
        scene, manifest = data_paths(workspace)
        rc = main(
            ["ablate", "--scene", str(scene), "--manifest", str(manifest),
             "--csv", str(tmp_path / "a.csv"), "--gammas", "0.5,x"]
        )
        assert rc == 1
        assert "'x'" in capsys.readouterr().err


class TestParser:
    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit):
            main(["synth", "--out", "x", "--bogus-flag", "1"])

    def test_missing_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestCsvWrite:
    def test_failed_write_keeps_the_old_file(self, tmp_path):
        # a row that fails part-way through leaves the previous CSV in place
        # and no temporary file beside it
        path = tmp_path / "out.csv"
        cli._write_csv(path, ["a", "b"], [{"a": 1, "b": 2.0}])
        old = path.read_bytes()

        def rows():
            yield {"a": 3, "b": 4.0}
            raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError, match="interrupted"):
            cli._write_csv(path, ["a", "b"], rows())
        assert path.read_bytes() == old
        assert list(tmp_path.iterdir()) == [path]
        assert read_rows(path) == [{"a": "1", "b": "2.000000"}]
