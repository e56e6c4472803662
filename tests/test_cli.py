"""End-to-end command-line flow on a tiny grid, plus exit-code contracts.

Commands run through ``main(argv)`` in-process; one smoke test exercises the
installed ``otfs-sync`` console script for the packaging contract.
"""

import io
import json
import re
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

from otfs_sync.cli import build_parser, main

TINY_CONFIG = {
    "frame": {"M": 8, "N": 4, "L_CP": 4},
    "channels": ["awgn"],
    "snr_grid_db": [20],
    "samples_per_channel": 120,
    "preamble": {"length": 16, "root": 5},
    "global_seed": 13,
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Config, generated dataset, and trained tiny weights shared by tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "tiny.json"
    cfg_path.write_text(json.dumps(TINY_CONFIG))
    ds_path = root / "tiny.otfsds"
    assert main(["gen", "--config", str(cfg_path), "--out", str(ds_path)]) == 0

    common = ["--dataset", str(ds_path), "--epochs", "4", "--batch", "32",
              "--lr", "3e-3", "--seed", "0"]
    coarse_path = root / "coarse.otfsnn"
    assert main(["train", "--stage", "coarse", "--out-weights", str(coarse_path),
                 *common]) == 0
    fine_path = root / "fine.otfsnn"
    assert main(["train", "--stage", "fine", "--coarse-weights", str(coarse_path),
                 "--out-weights", str(fine_path), *common]) == 0
    one_path = root / "one.otfsnn"
    assert main(["train", "--stage", "onestage", "--out-weights", str(one_path),
                 *common]) == 0
    return {
        "root": root,
        "config": cfg_path,
        "dataset": ds_path,
        "coarse": coarse_path,
        "fine": fine_path,
        "onestage": one_path,
    }


class TestHappyPath:
    def test_gen_wrote_valid_container(self, workdir):
        raw = workdir["dataset"].read_bytes()
        assert raw[:8] == b"OTFSDS01"
        (count,) = struct.unpack_from("<Q", raw, 24)
        assert count == 120

    def test_gen_reports_its_throughput(self, workdir, tmp_path, capsys):
        out = tmp_path / "again.otfsds"
        assert main(["gen", "--config", str(workdir["config"]), "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"wrote 120 records to {out}"
        end = json.loads(lines[1])
        assert end["event"] == "gen_end"
        assert end["records"] == 120 and end["bytes"] == out.stat().st_size
        assert end["seconds"] > 0
        assert end["captures_per_s"] == pytest.approx(120 / end["seconds"], rel=1e-3)

    def test_train_artifacts(self, workdir):
        for key in ("coarse", "fine", "onestage"):
            path = workdir[key]
            assert path.exists(), key
            assert path.with_name(path.name + ".final").exists()
            report = path.with_name(path.name + ".train.jsonl")
            events = [json.loads(l) for l in report.read_text().strip().split("\n")]
            assert events[0]["event"] == "train_start"
            assert events[-1]["event"] == "train_end"
            assert sum(e["event"] == "epoch" for e in events) == 4

    def test_info_dataset(self, workdir, capsys):
        assert main(["info", "--dataset", str(workdir["dataset"])]) == 0
        out = capsys.readouterr().out
        assert "8 x 4" in out and "120" in out
        assert "version      3" in out

    def test_info_weights(self, workdir, capsys):
        assert main(["info", "--weights", str(workdir["coarse"])]) == 0
        out = capsys.readouterr().out
        assert "coarse" in out and "M=8 N=4" in out

    def test_info_weights_reads_no_tensor_data(self, workdir, capsys, monkeypatch):
        # the tensor table and the meta.* scalars only, counted at every read
        # of a file the weights reader opens
        from otfs_sync.nn import io as nn_io

        path = workdir["onestage"]
        with open(path, "rb") as fh:
            table = nn_io.read_table(fh, str(path))
        data = 4 * sum(e.count for k, e in table.items() if not k.startswith("meta."))
        header = path.stat().st_size - data
        sizes = []

        class Counting(io.BufferedReader):
            def read(self, *args):
                out = super().read(*args)
                sizes.append(len(out))
                return out

            def readinto(self, buf):
                sizes.append(super().readinto(buf))
                return sizes[-1]

        def counting_open(path, mode="rb"):
            return Counting(io.FileIO(path, mode))

        monkeypatch.setattr(nn_io, "open", counting_open, raising=False)
        monkeypatch.setattr(sys.modules["otfs_sync.cli"], "open", counting_open, raising=False)
        assert main(["info", "--weights", str(path)]) == 0
        out = capsys.readouterr().out
        assert "onestage" in out and "parameter scalars" in out
        assert 0 < sum(sizes) <= header, (sum(sizes), header, data)

    def test_eval_two_stage(self, workdir, capsys):
        assert main([
            "eval", "--method", "resnet2stage",
            "--dataset", str(workdir["dataset"]),
            "--weights", str(workdir["coarse"]), str(workdir["fine"]),
        ]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0].startswith("method,channel_id")
        assert any(l.startswith("resnet2stage,-1,") for l in lines), "overall row"

    def test_eval_estimates_once(self, workdir, capsys, monkeypatch):
        import otfs_sync.metrics as metrics_mod

        calls = []
        original = metrics_mod.estimate_all

        def counting(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(metrics_mod, "estimate_all", counting)
        methods = ["resnet2stage", "autocorr2d", "crosscorr", "resnet1stage"]
        assert main(["eval", "--method", *methods, "--dataset", str(workdir["dataset"]),
                     "--weights", *(str(workdir[h]) for h in ("coarse", "fine", "onestage")),
                     "--config", str(workdir["config"])]) == 0
        assert calls == methods
        # one block per method: its (channel 1, 20 dB) row, then its overall row
        rows = [line.split(",") for line in capsys.readouterr().out.strip().split("\n")[1:]]
        assert [(r[0], r[1], r[2]) for r in rows] == [
            (m, cid, snr) for m in methods for cid, snr in (("1", "20"), ("-1", "nan"))]

    def test_eval_classic_methods_to_file(self, workdir):
        out_csv = workdir["root"] / "classic.csv"
        assert main([
            "eval", "--method", "autocorr2d",
            "--dataset", str(workdir["dataset"]),
            "--config", str(workdir["config"]),
            "--out", str(out_csv),
        ]) == 0
        text = out_csv.read_text()
        assert text.startswith("method,channel_id")
        assert "autocorr2d" in text

    def test_multi_method_eval_is_the_single_method_outputs(self, workdir, tmp_path, capsys):
        argv = ["--dataset", str(workdir["dataset"]),
                "--weights", *(str(workdir[h]) for h in ("coarse", "fine", "onestage")),
                "--config", str(workdir["config"])]
        out = tmp_path / "rows.csv"

        def csv_for(*methods):
            assert main(["eval", "--method", *methods, *argv]) == 0
            printed = capsys.readouterr().out
            assert main(["eval", "--method", *methods, *argv, "--out", str(out)]) == 0
            rows = len(printed.splitlines()) - 1
            assert capsys.readouterr().out == f"wrote {rows} rows to {out}\n"
            assert out.read_text() == printed
            return printed

        methods = ["resnet1stage", "crosscorr", "resnet2stage", "autocorr2d"]
        singles = [csv_for(m) for m in methods]
        header = "method,channel_id,snr_db,count,accuracy,rmse,rmse_raw\n"
        assert all(text.startswith(header) for text in singles)
        assert csv_for(*methods) == header + "".join(t[len(header):] for t in singles)

    @pytest.mark.parametrize("command", [
        ["eval", "--method", "resnet2stage"],
        ["eval", "--method", "resnet1stage", "resnet2stage"],
    ])
    def test_weights_come_in_any_order(self, workdir, capsys, command):
        def csv_for(*heads):
            assert main([*command, "--dataset", str(workdir["dataset"]),
                         "--weights", *(str(workdir[h]) for h in heads)]) == 0
            return capsys.readouterr().out

        text = csv_for("coarse", "fine", "onestage")
        assert text.startswith("method,channel_id") and "resnet2stage," in text
        assert csv_for("onestage", "fine", "coarse") == text
        assert csv_for("fine", "onestage", "coarse") == text

    def test_complexity_times_every_head_it_is_given(self, workdir, capsys, monkeypatch):
        import otfs_sync.metrics as metrics_mod

        monkeypatch.setattr(metrics_mod, "MAX_TIMED_PARAMS", 0)  # build none of its own
        def runtimes(*heads):
            assert main(["complexity", "--config", str(workdir["config"]), "--repeats", "1",
                         "--weights", *(str(workdir[h]) for h in heads)]) == 0
            lines = capsys.readouterr().out.splitlines()[2:6]
            return {line.split()[0]: line.split()[-1] for line in lines}

        timed = runtimes("onestage")
        assert timed["resnet1stage"] != "-" and timed["resnet2stage"] == "-"
        timed = runtimes("fine", "coarse")
        assert timed["resnet1stage"] == "-" and timed["resnet2stage"] != "-"

    def test_complexity_times_the_config_preamble(self, tmp_path, capsys, monkeypatch):
        # before: always zadoff_chu(length, 25), so root 3 at length 250 (not
        # coprime with 25) was refused with exit 2
        import otfs_sync.config as config_mod

        built = []
        original = config_mod.zadoff_chu

        def recording(length, root):
            built.append((length, root))
            return original(length, root)

        monkeypatch.setattr(config_mod, "zadoff_chu", recording)
        cfg = tmp_path / "p250.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, "frame": {"M": 32, "N": 8, "L_CP": 8},
                                   "preamble": {"length": 250, "root": 3}}))
        assert main(["complexity", "--config", str(cfg), "--repeats", "1"]) == 0
        assert built == [(250, 3)]
        crosscorr = [line for line in capsys.readouterr().out.splitlines()
                     if line.startswith("crosscorr ")]
        assert crosscorr[0].split()[1:3] == [f"{8 * 256 * 250:,}", "-"]
        assert crosscorr[0].split()[3] != "-"

    def test_readme_commands_parse(self):
        # every otfs-sync line of the README's "Command line" block, with its
        # backslash continuations joined, parses with the current options
        import shlex
        from pathlib import Path

        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = re.search(r"## Command line\n\n```sh\n(.*?)```", readme, re.S).group(1)
        commands = [line for line in block.replace("\\\n", " ").splitlines()
                    if line.startswith("otfs-sync ")]
        assert {shlex.split(c)[1] for c in commands} >= {
            "gen", "train", "eval", "complexity", "info"}
        parser = build_parser()
        for command in commands:
            try:
                parser.parse_args(shlex.split(command)[1:])
            except SystemExit:
                pytest.fail(f"README command does not parse: {command}")

    def test_command_options_are_pinned(self):
        # every settable option of every command: a new one lands here too
        parser = build_parser()
        (commands,) = (a.choices for a in parser._actions if a.dest == "command")
        options = {name: sorted(flag for a in sub._actions for flag in a.option_strings
                                if flag not in ("-h", "--help"))
                   for name, sub in commands.items()}
        assert options == {
            "gen": ["--config", "--out", "--seed"],
            "train": ["--batch", "--coarse-weights", "--dataset", "--epochs", "--lr",
                      "--out-weights", "--seed", "--stage", "--wd"],
            "eval": ["--batch", "--config", "--dataset", "--method", "--out", "--weights"],
            "complexity": ["--config", "--no-runtime", "--out", "--repeats", "--weights"],
            "info": ["--dataset", "--weights"],
        }

    @pytest.mark.parametrize("command", [["eval", "--method", "autocorr2d"],
                                         ["eval", "--method", "resnet1stage", "autocorr2d"]])
    def test_no_preamble_is_built_without_crosscorr(self, workdir, tmp_path, capsys, command):
        # without crosscorr the config's preamble is neither needed nor
        # checked against the window: none at all, or one longer than the
        # 32-sample window, scores as the 16-sample one does (a preamble that
        # cannot be built is refused when any config is read)
        argv = [*command, "--dataset", str(workdir["dataset"]),
                "--weights", str(workdir["onestage"])]
        assert main([*argv, "--config", str(workdir["config"])]) == 0
        want = capsys.readouterr().out
        no_preamble = {k: v for k, v in TINY_CONFIG.items() if k != "preamble"}
        for doc in (no_preamble, {**TINY_CONFIG, "preamble": {"length": 33, "root": 5}}):
            cfg = tmp_path / "other.json"
            cfg.write_text(json.dumps(doc))
            assert main([*argv, "--config", str(cfg)]) == 0
            assert capsys.readouterr().out == want

    def test_only_the_heads_the_methods_use_are_loaded(self, workdir, tmp_path, capsys,
                                                       monkeypatch):
        # before: eval --method resnet2stage read the one-stage tensors too
        import otfs_sync.cli as cli_mod
        from otfs_sync.nn.model import build_sync_model, save_model

        loaded = []
        original = cli_mod.load_model

        def recording(path):
            loaded.append(path)
            return original(path)

        monkeypatch.setattr(cli_mod, "load_model", recording)
        heads = {h: str(workdir[h]) for h in ("coarse", "fine", "onestage")}
        dataset = ["--dataset", str(workdir["dataset"])]
        for command, used in (
            (["eval", "--method", "resnet2stage"], ["coarse", "fine"]),
            (["eval", "--method", "resnet1stage"], ["onestage"]),
            (["eval", "--method", "autocorr2d"], []),
            (["eval", "--method", "autocorr2d", "resnet1stage"], ["onestage"]),
        ):
            loaded.clear()
            assert main([*command, *dataset, "--config", str(workdir["config"]),
                         "--weights", *heads.values()]) == 0
            assert loaded == [heads[h] for h in used]
        capsys.readouterr()
        # the header of a file no method uses is still checked
        wide = tmp_path / "wide.otfsnn"
        save_model(str(wide), build_sync_model(16, 4, "coarse"))
        for weights, message in (
            ([heads["onestage"], str(wide)], "holds a 16x4 model, expected 8x4"),
            ([heads["onestage"], heads["coarse"], heads["coarse"]],
             "holds a second coarse model"),
        ):
            assert main(["eval", "--method", "resnet1stage", *dataset,
                         "--weights", *weights]) == 2
            assert message in capsys.readouterr().err

    def test_complexity_table(self, workdir, capsys):
        assert main([
            "complexity", "--config", str(workdir["config"]),
            "--repeats", "2",
        ]) == 0
        out = capsys.readouterr().out
        for method in ("crosscorr", "autocorr2d", "resnet2stage", "resnet1stage"):
            assert method in out

    def test_complexity_default_report(self, capsys):
        assert main(["complexity", "--no-runtime"]) == 0
        lines = capsys.readouterr().out.splitlines()
        cost = {line.split()[0]: line.split()[1:] for line in lines[2:6]}
        assert cost["crosscorr"] == ["33,554,432", "-", "-"]
        assert cost["autocorr2d"] == ["8,257,536", "-", "-"]
        assert cost["resnet2stage"] == ["186,646,848", "10,500,032", "-"]
        for head, params in (("coarse", "2,104,192"), ("fine", "8,395,840"),
                             ("onestage", "536,894,272")):
            assert f"{head} head ({params} parameters):" in lines
        assert any(line.split()[0] == "rb1.conv7" for line in lines if line.strip())
        assert lines[-1] == "two-stage forward total: 186,646,848 FLOPs"

    def test_complexity_columns_never_touch(self, tmp_path, capsys):
        # 16-digit cells wider than the default column widths
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps({"frame": {"M": 2**17, "N": 2**17}}))
        assert main(["complexity", "--config", str(cfg), "--no-runtime"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [len(line.split()) for line in lines[1:6]] == [4] * 5
        layer_rows = [line for line in lines if line.startswith("  ")]
        assert len(layer_rows) > 3 * 20
        assert {len(line.split()) for line in layer_rows} == {5}

    def test_complexity_analytic_only_csv(self, workdir):
        out_csv = workdir["root"] / "complexity.csv"
        assert main([
            "complexity", "--config", str(workdir["config"]),
            "--no-runtime", "--out", str(out_csv),
        ]) == 0
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0] == "method,flops,params,runtime_s"
        assert len(lines) == 5

    def test_complexity_without_runtime_reads_no_tensor_data(self, workdir, tmp_path,
                                                             capsys, monkeypatch):
        # before: every --weights file was loaded in full (2.1 GB for a
        # default one-stage head) though no head runs
        import otfs_sync.cli as cli_mod
        from otfs_sync.nn.io import save_tensors
        from otfs_sync.nn.model import HEAD_CODES, build_sync_model, save_model

        heads = [str(workdir[h]) for h in ("onestage", "coarse", "fine")]
        argv = ["complexity", "--config", str(workdir["config"]), "--no-runtime"]
        csv_path = tmp_path / "cost.csv"
        assert main(argv) == 0 and main([*argv, "--out", str(csv_path)]) == 0
        want = capsys.readouterr().out
        want_csv = csv_path.read_text()

        loaded = []
        monkeypatch.setattr(cli_mod, "load_model", lambda path: loaded.append(path))
        assert main([*argv, "--weights", *heads]) == 0
        assert main([*argv, "--weights", *heads, "--out", str(csv_path)]) == 0
        assert capsys.readouterr().out == want and csv_path.read_text() == want_csv

        bad_magic = tmp_path / "bad.otfsnn"
        bad_magic.write_bytes(b"NOPENOPE" + b"\x00" * 16)
        misfit = tmp_path / "misfit.otfsnn"  # 16x4 tensors under 8x4 metadata
        tensors = dict(build_sync_model(16, 4, "onestage").state_dict())
        tensors.update({"meta.M": np.float32(8), "meta.N": np.float32(4),
                        "meta.head_code": np.float32(HEAD_CODES["onestage"])})
        save_tensors(str(misfit), tensors)
        wide = tmp_path / "wide.otfsnn"
        save_model(str(wide), build_sync_model(16, 4, "coarse"))
        for weights, code, message in (
            ([bad_magic], 3, "bad magic"),
            ([misfit], 3, "'fc.weight' has shape"),
            ([workdir["coarse"], workdir["fine"], workdir["coarse"]], 2,
             "holds a second coarse model"),
            ([wide], 2, "holds a 16x4 model, expected 8x4"),
        ):
            assert main([*argv, "--weights", *map(str, weights)]) == code, message
            assert message in capsys.readouterr().err
        assert loaded == []

    def test_seed_override_changes_bytes(self, workdir):
        alt = workdir["root"] / "alt.otfsds"
        assert main(["gen", "--config", str(workdir["config"]),
                     "--out", str(alt), "--seed", "99"]) == 0
        assert alt.read_bytes() != workdir["dataset"].read_bytes()

    def test_console_script_entry_point(self, workdir):
        exe = shutil.which("otfs-sync")
        if exe is None:
            pytest.skip("console script not installed")
        proc = subprocess.run(
            [exe, "info", "--dataset", str(workdir["dataset"])],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "records" in proc.stdout


class TestExitCodes:
    def test_missing_config_is_2(self, tmp_path):
        assert main(["gen", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "x.otfsds")]) == 2

    @pytest.mark.parametrize("grid", [[float("-inf"), float("nan")], [10, float("nan")],
                                      [float("-inf")]])
    def test_non_finite_snr_grid_is_2(self, tmp_path, capsys, grid):
        # json writes -Infinity and NaN, and Python's reader takes them
        cfg = tmp_path / "nan.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, "snr_grid_db": grid}))
        out = tmp_path / "nan.otfsds"
        assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert "snr_grid_db" in capsys.readouterr().err

    @pytest.mark.parametrize("config_seed,flags,seed", [
        (-5, [], -5),
        (13, ["--seed", "-3"], -3),
        (13, ["--seed", str(2**64)], 2**64),     # one past the u64 header field
    ])
    def test_seed_outside_u64_is_2(self, tmp_path, capsys, config_seed, flags, seed):
        cfg = tmp_path / "seed.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, "global_seed": config_seed}))
        out = tmp_path / "seed.otfsds"
        assert main(["gen", "--config", str(cfg), "--out", str(out), *flags]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "config error" in err and f"global_seed must lie in [0, 2**64), got {seed}" in err

    def test_bad_dataset_magic_is_3(self, tmp_path):
        bad = tmp_path / "bad.otfsds"
        bad.write_bytes(b"GARBAGE!" + b"\x00" * 64)
        assert main(["info", "--dataset", str(bad)]) == 3

    def test_bad_weights_magic_is_3(self, tmp_path):
        bad = tmp_path / "bad.otfsnn"
        bad.write_bytes(b"NOPENOPE" + b"\x00" * 16)
        assert main(["info", "--weights", str(bad)]) == 3

    def test_fine_without_coarse_is_2(self, workdir):
        assert main([
            "train", "--stage", "fine",
            "--dataset", str(workdir["dataset"]),
            "--out-weights", str(workdir["root"] / "nope.otfsnn"),
            "--epochs", "1",
        ]) == 2

    def test_repeated_method_is_2_before_the_dataset_is_read(self, workdir, tmp_path,
                                                              capsys):
        # before: the method was estimated twice and printed twice, exit 0
        for dataset in (workdir["dataset"], tmp_path / "absent.otfsds"):
            assert main(["eval", "--method", "autocorr2d", "crosscorr", "autocorr2d",
                         "--dataset", str(dataset)]) == 2
            captured = capsys.readouterr()
            assert "--method names autocorr2d more than once" in captured.err
            assert captured.out == ""

    def test_second_file_for_one_head_is_2(self, workdir, capsys):
        assert main([
            "eval", "--method", "resnet2stage",
            "--dataset", str(workdir["dataset"]),
            "--weights", str(workdir["coarse"]), str(workdir["fine"]), str(workdir["coarse"]),
        ]) == 2
        assert "holds a second coarse model" in capsys.readouterr().err

    def test_model_for_another_grid_is_2(self, workdir, tmp_path, capsys):
        from otfs_sync.nn.model import build_sync_model, save_model

        wide = tmp_path / "wide.otfsnn"
        save_model(str(wide), build_sync_model(16, 4, "coarse"))
        for argv in (
            ["eval", "--method", "resnet2stage", "--dataset", str(workdir["dataset"]),
             "--weights", str(workdir["fine"]), str(wide)],
            ["complexity", "--config", str(workdir["config"]), "--no-runtime",
             "--weights", str(wide)],
            ["train", "--stage", "fine", "--dataset", str(workdir["dataset"]),
             "--coarse-weights", str(wide), "--out-weights", str(tmp_path / "f.otfsnn")],
        ):
            assert main(argv) == 2, argv
            assert "holds a 16x4 model, expected 8x4" in capsys.readouterr().err
        assert not (tmp_path / "f.otfsnn").exists()

    def test_fine_training_from_a_fine_model_is_2(self, workdir, tmp_path, capsys):
        assert main(["train", "--stage", "fine", "--dataset", str(workdir["dataset"]),
                     "--coarse-weights", str(workdir["fine"]),
                     "--out-weights", str(tmp_path / "f.otfsnn")]) == 2
        assert "does not hold a coarse model" in capsys.readouterr().err

    @pytest.mark.parametrize("method,heads,missing", [
        ("resnet2stage", ["coarse", "onestage"], "coarse and fine"),
        ("resnet2stage", ["fine"], "coarse and fine"),
        ("resnet1stage", ["coarse", "fine"], "onestage"),
    ])
    def test_method_missing_a_head_is_2_before_estimating(self, workdir, capsys, monkeypatch,
                                                         method, heads, missing):
        import otfs_sync.metrics as metrics_mod

        calls = []
        monkeypatch.setattr(metrics_mod, "estimate_all", lambda *args, **kw: calls.append(args))
        assert main(["eval", "--method", "autocorr2d", method,
                     "--dataset", str(workdir["dataset"]), "--config", str(workdir["config"]),
                     "--weights", *(str(workdir[h]) for h in heads)]) == 2
        assert calls == []
        assert f"{method} needs {missing} weights" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["sweep", "--methods", "autocorr2d"],             # the command is gone
        ["eval", "--method"],
        ["eval", "--method", "autocorr2d", "telepathy"],
    ], ids=["sweep", "no-method", "unknown-method"])
    def test_bad_method_list_is_2(self, workdir, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--dataset", str(workdir["dataset"])])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "usage:" in captured.err

    def test_preamble_longer_than_the_window_is_2_before_estimating(self, workdir, tmp_path,
                                                                   capsys, monkeypatch):
        # before: exit 4 from crosscorr, after every earlier method had run
        import otfs_sync.metrics as metrics_mod

        calls = []
        monkeypatch.setattr(metrics_mod, "estimate_all", lambda *args, **kw: calls.append(args))
        cfg = tmp_path / "p33.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, "preamble": {"length": 33, "root": 5}}))
        assert main(["eval", "--method", "autocorr2d", "crosscorr",
                     "--dataset", str(workdir["dataset"]), "--config", str(cfg)]) == 2
        assert calls == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "the 33-sample preamble is longer than the 32-sample window" in captured.err

    @pytest.mark.parametrize("methods,config,message", [
        (["autocorr2d"], None, "--method autocorr2d needs --config"),
        (["resnet1stage", "crosscorr"], None, "--method crosscorr needs --config"),
        (["crosscorr"], {"preamble": None}, "crosscorr needs a preamble"),
        (["autocorr2d"], {"frame": {"M": 16, "N": 2, "L_CP": 4}},
         "describes 16x2 frames with L_CP 4, the dataset 8x4 frames with L_CP 4"),
        (["autocorr2d"], {"frame": {"M": 8, "N": 8, "L_CP": 4}}, "describes 8x8 frames"),
        (["resnet1stage"], {"frame": {"M": 8, "N": 4, "L_CP": 2}}, "with L_CP 2, the dataset"),
    ], ids=["autocorr2d-no-config", "crosscorr-no-config", "no-preamble", "M", "N", "L_CP"])
    def test_eval_settings_are_2_before_estimating(self, workdir, tmp_path, capsys,
                                                   monkeypatch, methods, config, message):
        # a dataset generated without a preamble, scored by crosscorr: before,
        # the --preamble-length default filled its window, exit 0 and
        # accuracy near 0
        import otfs_sync.metrics as metrics_mod

        doc = {**TINY_CONFIG, **(config or {})}
        doc = {k: v for k, v in doc.items() if v is not None}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        dataset = workdir["dataset"]
        if "preamble" not in doc:
            dataset = tmp_path / "plain.otfsds"
            assert main(["gen", "--config", str(cfg), "--out", str(dataset)]) == 0
            capsys.readouterr()
        calls = []
        monkeypatch.setattr(metrics_mod, "estimate_all", lambda *args, **kw: calls.append(args))
        argv = ["eval", "--method", *methods, "--dataset", str(dataset),
                "--weights", str(workdir["onestage"])]
        assert main([*argv, *(["--config", str(cfg)] if config else [])]) == 2
        assert calls == []
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    @pytest.mark.parametrize("bad,argv", [
        ("ghost", ["gen", "--config", "{config}", "--out", "{ghost}"]),
        ("ghost", ["info", "--dataset", "{ghost}"]),
        ("root", ["info", "--dataset", "{root}"]),
        ("notdir", ["info", "--weights", "{notdir}"]),
        ("ghost", ["eval", "--method", "resnet1stage", "--dataset", "{ghost}",
                   "--weights", "{onestage}"]),
        ("ghost", ["eval", "--method", "resnet1stage", "--dataset", "{dataset}",
                   "--weights", "{ghost}"]),
        ("ghost", ["eval", "--method", "resnet1stage", "--dataset", "{dataset}",
                   "--weights", "{onestage}", "--out", "{ghost}"]),
        ("ghost", ["train", "--stage", "coarse", "--dataset", "{ghost}",
                   "--out-weights", "{root}/never.otfsnn"]),
        ("ghost", ["complexity", "--config", "{config}", "--no-runtime",
                   "--weights", "{ghost}"]),
    ], ids=["gen-out", "info-dataset", "info-directory", "info-weights-under-a-file",
            "eval-dataset", "eval-weights", "eval-out", "train-dataset", "complexity-weights"])
    def test_a_path_that_cannot_be_opened_is_2(self, workdir, tmp_path, capsys, bad, argv):
        # before: a missing --dataset or --weights, or an --out in a missing
        # directory, was exit 4 with FileNotFoundError
        paths = {k: str(v) for k, v in workdir.items()}
        paths.update(ghost=str(tmp_path / "absent" / "file"),
                     notdir=str(workdir["dataset"] / "file"))
        assert main([arg.format(**paths) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: cannot open {paths[bad]}: ")
        assert captured.out == ""
        assert not (tmp_path / "absent").exists()

    @pytest.mark.parametrize("bad,argv", [
        ("ghost", ["train", "--stage", "coarse", "--out-weights", "{ghost}"]),
        ("root", ["train", "--stage", "coarse", "--out-weights", "{root}"]),
        ("final", ["train", "--stage", "coarse", "--out-weights", "{base}"]),
        ("jsonl", ["train", "--stage", "onestage", "--out-weights", "{base}"]),
        ("ghost", ["eval", "--method", "resnet1stage", "--weights", "{onestage}",
                   "--out", "{ghost}"]),
        ("root", ["eval", "--method", "resnet1stage", "--weights", "{onestage}",
                  "--out", "{root}"]),
        ("ghost", ["complexity", "--config", "{config}", "--out", "{ghost}"]),
        ("root", ["complexity", "--config", "{config}", "--out", "{root}"]),
    ], ids=["train-missing-dir", "train-directory", "train-final", "train-jsonl",
            "eval-missing-dir", "eval-directory", "complexity-missing-dir",
            "complexity-directory"])
    def test_an_output_path_is_2_before_any_work(self, workdir, tmp_path, capsys,
                                                 monkeypatch, bad, argv):
        # before: train trained every epoch and eval estimated every method,
        # then exited 2 when the output could not be opened
        import otfs_sync.cli as cli_mod
        import otfs_sync.metrics as metrics_mod

        def never(*args, **kwargs):
            raise AssertionError("ran before the output path was checked")

        for owner, name in ((cli_mod, "read_dataset"), (cli_mod, "train_coarse"),
                            (cli_mod, "train_one_stage"), (cli_mod, "sweep"),
                            (metrics_mod, "sweep"), (cli_mod, "complexity_report")):
            monkeypatch.setattr(owner, name, never)
        base = tmp_path / "w.otfsnn"
        (tmp_path / "w.otfsnn.final").mkdir()
        (tmp_path / "w.otfsnn.train.jsonl").mkdir()
        if bad == "jsonl":
            (tmp_path / "w.otfsnn.final").rmdir()
        paths = {k: str(v) for k, v in workdir.items()}
        paths.update(ghost=str(tmp_path / "absent" / "file"), base=str(base),
                     final=f"{base}.final", jsonl=f"{base}.train.jsonl")
        argv = [arg.format(**paths) for arg in argv]
        if argv[0] != "complexity":
            argv += ["--dataset", paths["dataset"]]
        before = sorted(p.name for p in tmp_path.iterdir())
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: cannot open {paths[bad]}: ")
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_eval_reports_its_cost_on_stderr(self, workdir, capsys):
        from dataclasses import replace

        from otfs_sync.config import estimator_settings, load_dataset_config
        from otfs_sync.dataset import read_dataset
        from otfs_sync.metrics import rows_to_csv, sweep
        from otfs_sync.nn.model import load_model

        methods = ["autocorr2d", "resnet1stage"]
        assert main(["eval", "--method", *methods, "--dataset", str(workdir["dataset"]),
                     "--weights", str(workdir["onestage"]),
                     "--config", str(workdir["config"])]) == 0
        captured = capsys.readouterr()
        lines = [json.loads(line) for line in captured.err.splitlines()]
        assert [line["event"] for line in lines] == ["eval_method", "eval_method", "eval_end"]
        test = read_dataset(str(workdir["dataset"])).split()[1]
        for line, method in zip(lines, methods):
            assert set(line) == {"event", "method", "records", "seconds", "captures_per_s"}
            assert line["method"] == method and line["records"] == len(test) == 24
            assert line["seconds"] > 0
            assert line["captures_per_s"] == pytest.approx(24 / line["seconds"], rel=1e-3)
        end = lines[-1]
        assert set(end) == {"event", "read_s", "split_s", "mb_read"}
        assert end["read_s"] > 0 and end["split_s"] > 0
        assert end["mb_read"] == pytest.approx(workdir["dataset"].stat().st_size / 1e6)
        # stdout holds the sweep's CSV and nothing else
        models = replace(estimator_settings(load_dataset_config(str(workdir["config"])),
                                            methods),
                         onestage=load_model(str(workdir["onestage"]))[0])
        assert captured.out == rows_to_csv(sweep(test, methods, models))

    def test_empty_channel_list_is_2(self, tmp_path, capsys):
        # before: the three preset channels, 3 x samples_per_channel records
        cfg = tmp_path / "none.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, "channels": []}))
        out = tmp_path / "none.otfsds"
        assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert "channels must not be empty" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("samples_per_channel", 1.5), ("global_seed", 7.9), ("blocks_per_frame", True),
        ("global_seed", "7"),
    ])
    def test_non_integer_config_count_is_2(self, tmp_path, capsys, key, value):
        # before: int() made 1.5 records 1, seed 7.9 seed 7, and so on, exit 0
        cfg = tmp_path / "count.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, key: value}))
        out = tmp_path / "count.otfsds"
        assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert f"{key} must be an integer, got {value!r}" in capsys.readouterr().err

    def test_an_empty_side_of_the_split_is_2(self, workdir, tmp_path, capsys):
        # before: a header-only file failed with "need at least one array to
        # concatenate" and a 1-record file under train with ZeroDivisionError,
        # both exit 4
        empty = tmp_path / "empty.otfsds"
        header = bytearray(workdir["dataset"].read_bytes()[:40])
        header[24:32] = struct.pack("<Q", 0)  # the record count
        empty.write_bytes(bytes(header))
        cfg = tmp_path / "one.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, "samples_per_channel": 1}))
        one = tmp_path / "one.otfsds"
        assert main(["gen", "--config", str(cfg), "--out", str(one)]) == 0
        capsys.readouterr()
        weights = tmp_path / "w.otfsnn"
        train = ["train", "--stage", "coarse", "--epochs", "1", "--out-weights", str(weights)]
        for argv, counts in (
            ([*train, "--dataset", str(empty)], "0 training and 0 test records"),
            ([*train, "--dataset", str(one)], "0 training and 1 test records"),
            (["eval", "--method", "autocorr2d", "--dataset", str(empty), "--config", str(cfg)],
             "0 training and 0 test records"),
            (["eval", "--method", "autocorr2d", "crosscorr", "--dataset", str(empty),
              "--config", str(cfg)], "0 training and 0 test records"),
        ):
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert "config error" in captured.err and counts in captured.err, argv
        assert not weights.exists()

    def test_weights_not_fitting_their_metadata_is_3(self, workdir, capsys):
        from otfs_sync.nn.io import save_tensors
        from otfs_sync.nn.model import HEAD_CODES, build_sync_model

        path = workdir["root"] / "misfit.otfsnn"
        tensors = dict(build_sync_model(16, 4, "onestage").state_dict())
        tensors.update({"meta.M": np.float32(8), "meta.N": np.float32(4),
                        "meta.head_code": np.float32(HEAD_CODES["onestage"])})
        save_tensors(str(path), tensors)
        assert main([
            "eval", "--method", "resnet1stage",
            "--dataset", str(workdir["dataset"]),
            "--weights", str(path),
        ]) == 3
        err = capsys.readouterr().err
        assert "data format error" in err and "misfit.otfsnn" in err

    def test_weights_buffer_of_the_wrong_shape_is_3(self, workdir, capsys):
        # one running variance where the block has four channels
        from otfs_sync.nn.io import save_tensors
        from otfs_sync.nn.model import HEAD_CODES, build_sync_model

        path = workdir["root"] / "onevar.otfsnn"
        tensors = dict(build_sync_model(8, 4, "coarse").state_dict())
        tensors["rb1.main.bn7.running_var"] = np.array([7.0], dtype=np.float32)
        tensors.update({"meta.M": np.float32(8), "meta.N": np.float32(4),
                        "meta.head_code": np.float32(HEAD_CODES["coarse"])})
        save_tensors(str(path), tensors)
        assert main([
            "eval", "--method", "resnet2stage",
            "--dataset", str(workdir["dataset"]),
            "--weights", str(path), str(workdir["fine"]),
        ]) == 3
        err = capsys.readouterr().err
        assert "data format error" in err and "running_var" in err

    @pytest.mark.parametrize("command", ["eval", "info"])
    def test_weights_geometry_the_trunk_cannot_take_is_3(self, workdir, capsys, command):
        # meta.M * meta.N = 15 is not divisible by the trunk's three halvings
        from otfs_sync.nn.io import save_tensors
        from otfs_sync.nn.model import HEAD_CODES, build_sync_model

        path = workdir["root"] / "oddgrid.otfsnn"
        tensors = dict(build_sync_model(8, 4, "coarse").state_dict())
        tensors.update({"meta.M": np.float32(5), "meta.N": np.float32(3),
                        "meta.head_code": np.float32(HEAD_CODES["coarse"])})
        save_tensors(str(path), tensors)
        argv = {"eval": ["eval", "--method", "resnet2stage",
                         "--dataset", str(workdir["dataset"]),
                         "--weights", str(path), str(path)],
                "info": ["info", "--weights", str(path)]}[command]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "data format error" in err and "M*N=15" in err

    @pytest.mark.parametrize("command", ["eval", "info"])
    def test_non_integer_weights_geometry_is_3(self, workdir, tmp_path, capsys, command):
        # before: meta.M = 8.5 loaded as an 8-row model
        from otfs_sync.nn.io import save_tensors
        from otfs_sync.nn.model import HEAD_CODES, build_sync_model

        path = tmp_path / "halfrow.otfsnn"
        tensors = dict(build_sync_model(8, 4, "coarse").state_dict())
        tensors.update({"meta.M": np.float32(8.5), "meta.N": np.float32(4),
                        "meta.head_code": np.float32(HEAD_CODES["coarse"])})
        save_tensors(str(path), tensors)
        argv = {"eval": ["eval", "--method", "resnet2stage",
                         "--dataset", str(workdir["dataset"]),
                         "--weights", str(path), str(workdir["fine"])],
                "info": ["info", "--weights", str(path)]}[command]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "data format error" in err and "M=8.5 N=4 is not integer" in err

    def test_metadata_naming_a_larger_grid_is_3_before_building(self, workdir, tmp_path,
                                                                capsys):
        # a 32x8 coarse file whose metadata says 256x256: before, load_model
        # built the 256x256 net (134 MB of fc.weight) before comparing a shape
        import tracemalloc

        from otfs_sync.nn.io import save_tensors
        from otfs_sync.nn.model import HEAD_CODES, build_sync_model

        path = tmp_path / "bigmeta.otfsnn"
        tensors = dict(build_sync_model(32, 8, "coarse").state_dict())
        tensors.update({"meta.M": np.float32(256), "meta.N": np.float32(256),
                        "meta.head_code": np.float32(HEAD_CODES["coarse"])})
        save_tensors(str(path), tensors)
        tracemalloc.start()
        try:
            code = main(["eval", "--method", "resnet2stage",
                         "--dataset", str(workdir["dataset"]), "--weights", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert peak < 5 << 20, peak
        err = capsys.readouterr().err
        assert "data format error" in err
        assert "'fc.weight' has shape (8, 512), model expects (256, 131072)" in err
        # before: info printed "geometry M=256 N=256" and exited 0
        assert main(["info", "--weights", str(path)]) == 3
        assert "model expects (256, 131072)" in capsys.readouterr().err

    def test_info_needs_exactly_one_input_is_2(self, workdir):
        assert main(["info"]) == 2
        assert main(["info", "--dataset", str(workdir["dataset"]),
                     "--weights", str(workdir["coarse"])]) == 2

    def test_two_stage_without_fine_weights_is_2(self, workdir, capsys):
        assert main([
            "eval", "--method", "resnet2stage",
            "--dataset", str(workdir["dataset"]),
            "--weights", str(workdir["coarse"]),
        ]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("m_p,flags", [(4, ["--batch", "0"]), (99, [])],
                             ids=["--batch-0", "pilot-row-99"])
    def test_bad_eval_option_is_2(self, workdir, tmp_path, capsys, m_p, flags):
        # a pilot row past the 8-row grid was once silently row 3
        cfg = tmp_path / "pilot.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, "pilot": {
            "m_p": m_p, "n_p": 0, "amplitude": 2.0, "guard_halfwidth": 1}}))
        assert main(["eval", "--method", "autocorr2d", "--dataset", str(workdir["dataset"]),
                     "--config", str(cfg), *flags]) == 2
        captured = capsys.readouterr()
        assert "config error" in captured.err and captured.out == ""

    @pytest.mark.parametrize("flag", ["--batch", "--epochs"])
    def test_bad_train_option_is_2(self, workdir, flag):
        assert main([
            "train", "--stage", "coarse",
            "--dataset", str(workdir["dataset"]),
            "--out-weights", str(workdir["root"] / "nope.otfsnn"),
            flag, "0",
        ]) == 2

    @pytest.mark.parametrize("flag,value", [
        ("--lr", "nan"), ("--lr", "inf"), ("--lr", "-1"), ("--lr", "0"),
        ("--wd", "nan"), ("--wd", "inf"), ("--wd", "-0.5"),
    ])
    def test_bad_train_rate_is_2(self, workdir, capsys, flag, value):
        # before: each of these trained, wrote weights and exited 0
        out = workdir["root"] / "bad_rate.otfsnn"
        assert main([
            "train", "--stage", "coarse", "--dataset", str(workdir["dataset"]),
            "--out-weights", str(out), "--epochs", "1", flag, value,
        ]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_weight_decay_trains(self, workdir):
        out = workdir["root"] / "no_decay.otfsnn"
        assert main([
            "train", "--stage", "coarse", "--dataset", str(workdir["dataset"]),
            "--out-weights", str(out), "--epochs", "1", "--wd", "0",
        ]) == 0
        assert out.exists()

    @pytest.mark.parametrize("extra", [
        (None, ["--repeats", "0"]),                             # nan runtimes, exit 0
        ({"M": 8, "N": 4, "L_CP": 4}, ["--repeats", "-2"]),
        ({"M": 0, "N": 8}, ["--no-runtime"]),                   # an all-zero table, exit 0
        ({"M": 8, "N": 0}, ["--no-runtime"]),
        ({"M": -32}, ["--no-runtime"]),                         # negative dimensions: exit 4
        ({"M": 8, "N": 4, "L_CP": 4}, ["--repeats", "1"]),      # a 256-sample preamble: exit 4
    ])
    def test_bad_complexity_option_is_2(self, tmp_path, capsys, extra):
        frame, flags = extra
        if frame is not None:
            cfg = tmp_path / "grid.json"
            cfg.write_text(json.dumps({"frame": frame}))
            flags = ["--config", str(cfg), *flags]
        assert main(["complexity", *flags]) == 2
        captured = capsys.readouterr()
        assert "config error" in captured.err and captured.out == ""

    def test_bad_preamble_is_2(self, workdir, tmp_path, capsys):
        # a preamble that cannot be built is refused wherever a config is read
        bad = tmp_path / "p16.json"
        bad.write_text(json.dumps({**TINY_CONFIG, "preamble": {"length": 16, "root": 4}}))
        for method in ("crosscorr", "autocorr2d"):
            assert main(["eval", "--method", method, "--dataset", str(workdir["dataset"]),
                         "--config", str(bad)]) == 2
        cfg = tmp_path / "p25.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, "preamble": {"length": 25, "root": 5}}))
        assert main(["complexity", "--config", str(cfg), "--repeats", "1"]) == 2
        assert main(["complexity", "--config", str(cfg), "--no-runtime"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("config error: root") == 4

    @pytest.mark.parametrize("preamble", [{"length": 16, "root": 4}, {"length": -3, "root": 4}])
    def test_bad_preamble_is_2_before_gen_writes(self, tmp_path, capsys, preamble):
        # before: exit 4 after a 40-byte header promising the records was
        # written, and `info` on that file then exited 3
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, "preamble": preamble}))
        out = tmp_path / "bad.otfsds"
        assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert "config error" in capsys.readouterr().err

    def test_runtime_value_error_is_4(self, workdir, capsys, monkeypatch):
        import otfs_sync.metrics as metrics_mod

        def failing(*args, **kwargs):
            raise ValueError("numerical failure")

        monkeypatch.setattr(metrics_mod, "infer_two_stage", failing)
        assert main([
            "eval", "--method", "resnet2stage",
            "--dataset", str(workdir["dataset"]),
            "--weights", str(workdir["coarse"]), str(workdir["fine"]),
        ]) == 4
        assert "ValueError: numerical failure" in capsys.readouterr().err
