"""End-to-end tests of the command-line interface."""

import dataclasses
import json
import os

import numpy as np
import pytest

from fusegen import cli
from fusegen import data as D
from fusegen import training as TR
from fusegen.config import ModelConfig, TrainConfig, load_config, save_config
from fusegen.model import ReportModel
from fusegen.tensor import Tensor
from fusegen.verify import END_TO_END_THRESHOLD, CheckResult, toy_config


def _toy_config_file(tmp_path, **train_overrides):
    cfg = toy_config()
    tc = TrainConfig(batch_size=4, epochs=2, n_train=8, n_eval=4,
                     scheduler="constant", lr=1e-3, **train_overrides)
    path = str(tmp_path / "config.json")
    save_config(cfg, tc, path)
    return path


def test_train_writes_artifacts(tmp_path, capsys):
    cfg_path = _toy_config_file(tmp_path)
    out = str(tmp_path / "run")
    rc = cli.main(["train", "--config", cfg_path, "--out", out])
    assert rc == 0
    assert os.path.exists(os.path.join(out, "model.ckpt"))
    assert os.path.exists(os.path.join(out, "config.json"))
    records = [json.loads(l) for l in open(os.path.join(out, "metrics.jsonl"))]
    assert len(records) == 2
    for rec in records:
        assert {"epoch", "step", "l_ce", "l_ce_per_token", "l_align",
                "l_total"} <= set(rec)
    assert records[1]["l_total"] < records[0]["l_total"] * 1.5


def test_train_runs_one_lr_schedule_across_epochs(tmp_path, monkeypatch):
    cfg_path = _toy_config_file(tmp_path)
    lrs = []
    real_step = TR.train_step

    def spy(*args, lr, **kwargs):
        lrs.append(lr)
        return real_step(*args, lr=lr, **kwargs)

    monkeypatch.setattr(TR, "train_step", spy)
    out = str(tmp_path / "run")
    rc = cli.main(["train", "--config", cfg_path, "--out", out, "--epochs", "3",
                   "--samples", "12", "--scheduler", "warmup_cosine"])
    assert rc == 0
    _, train_cfg = load_config(os.path.join(out, "config.json"))
    assert train_cfg.scheduler == "warmup_cosine" and train_cfg.batch_size == 4
    assert lrs == [TR.lr_schedule(s, train_cfg, 9) for s in range(9)]
    records = [json.loads(l) for l in open(os.path.join(out, "metrics.jsonl"))]
    assert [r["step"] for r in records] == [3, 6, 9]


def test_effective_config_round_trips(tmp_path):
    cfg_path = _toy_config_file(tmp_path)
    out = str(tmp_path / "run")
    cli.main(["train", "--config", cfg_path, "--out", out, "--epochs", "1",
              "--lambda", "0.3"])
    echoed = json.load(open(os.path.join(out, "config.json")))
    assert echoed["epochs"] == 1
    assert echoed["lambda_align"] == 0.3
    # the echoed file loads back to exactly the run's configs
    model_cfg, train_cfg = load_config(cfg_path)
    expected = (model_cfg, dataclasses.replace(train_cfg, epochs=1, lambda_align=0.3))
    assert load_config(os.path.join(out, "config.json")) == expected


def test_eval_prints_scores(tmp_path, capsys):
    cfg_path = _toy_config_file(tmp_path)
    out = str(tmp_path / "run")
    cli.main(["train", "--config", cfg_path, "--out", out, "--epochs", "1"])
    capsys.readouterr()
    rc = cli.main(["eval", "--out", out])
    captured = capsys.readouterr().out
    assert rc == 0
    assert "BLEU-4" in captured and "ROUGE-L" in captured and "CIDEr" in captured


@pytest.mark.parametrize("argv", [
    ["eval", "--config", "x.json"],
    ["eval", "--lr", "5"],
    ["eval", "--ablate", "kw"],
    ["generate", "--split", "train"],
    ["grad-check", "--lr", "-1"],
    ["grad-check", "--out", "X"],
    ["train", "--keyword-dropout", "0.5"],
    ["ablate", "--checkpoint", "x.ckpt"],
    ["ablate", "--ablate", "kw"],
], ids=" ".join)
def test_flags_a_subcommand_does_not_read_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["train", "--max-len", "0"],
    ["eval", "--max-len", "0"],
    ["generate", "--max-len", "-3"],
    ["ablate", "--max-len", "0"],
    ["generate", "--sample-index", "-1"],
    ["eval", "--keyword-dropout", "-1"],
    ["eval", "--keyword-dropout", "1.5"],
    ["eval", "--keyword-dropout", "nan"],
    ["generate", "--temperature", "-1"],
    ["generate", "--temperature", "nan"],
    ["generate", "--temperature", "inf"],
    ["train", "--seed", "-1"],
    ["ablate", "--seed", "-1"],
    ["generate", "--sample-seed", "-1"],
    ["grad-check", "--seed", "-1"],
], ids=" ".join)
def test_out_of_range_run_flags_exit_2_before_any_work(argv, tmp_path, capsys):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert f"argument {argv[1]}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--lr", "nan"],
    ["--lr", "inf"],
    ["--lambda", "nan"],
    ["--lambda", "inf"],
    ["--config", "nan-lr.json"],
], ids=" ".join)
def test_non_finite_lr_or_lambda_exits_2_before_any_write(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with open("nan-lr.json", "w") as fh:
        json.dump({"lr": float("nan")}, fh)    # json writes the bare token NaN
    out = tmp_path / "o"
    assert cli.main(["train", *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "finite" in err
    assert not out.exists()


def test_metrics_hold_the_epoch_mean_grad_norm(tmp_path, monkeypatch):
    cfg_path = _toy_config_file(tmp_path)
    runs = []
    real_run = TR.run_training

    def spy(*args, **kwargs):
        state, hist = real_run(*args, **kwargs)
        runs.append(hist)
        return state, hist

    monkeypatch.setattr(TR, "run_training", spy)
    out = str(tmp_path / "run")
    assert cli.main(["train", "--config", cfg_path, "--out", out]) == 0
    [hist] = runs
    records = [json.loads(l) for l in open(os.path.join(out, "metrics.jsonl"))]
    assert len(records) == 2 and len(hist) == 4
    for rec, part in zip(records, (hist[:2], hist[2:])):
        assert rec["grad_norm"] == (part[0].grad_norm + part[1].grad_norm) / 2
        assert rec["grad_norm"] > 0


def test_empty_training_set_is_a_config_error(tmp_path, capsys):
    path = str(tmp_path / "zero.json")
    json.dump({"n_train": 0}, open(path, "w"))
    rc = cli.main(["train", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "n_train" in capsys.readouterr().err


def test_float32_train_then_eval_through_the_config(tmp_path, capsys):
    cfg_path = _toy_config_file(tmp_path)
    d = json.load(open(cfg_path))
    d["dtype"] = "float32"
    json.dump(d, open(cfg_path, "w"))
    out = str(tmp_path / "run")
    assert cli.main(["train", "--config", cfg_path, "--out", out, "--epochs", "1"]) == 0
    model, state, _ = TR.load_checkpoint(os.path.join(out, "model.ckpt"))
    assert model.cfg.dtype == "float32"
    assert {p.data.dtype for p in model.params.values()} == {np.dtype(np.float32)}
    assert {m.dtype for m in state.m.values()} == {np.dtype(np.float32)}
    capsys.readouterr()
    assert cli.main(["eval", "--out", out]) == 0
    assert "BLEU-4" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["train", "--config", "missing.json"],
    ["train", "--config", "a-directory"],
    ["train", "--config", "cut.json"],
    ["eval", "--checkpoint", "a-directory"],
], ids=" ".join)
def test_unreadable_config_or_checkpoint_exits_2_with_one_line(argv, tmp_path, monkeypatch,
                                                               capsys):
    monkeypatch.chdir(tmp_path)
    os.mkdir("a-directory")
    with open("cut.json", "w") as fh:
        fh.write('{"seed": 1,')
    out = tmp_path / "o"
    assert cli.main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(("config error: ", "checkpoint error: ")) and err.count("\n") == 1
    assert not out.exists()


def test_eval_missing_checkpoint_fails(tmp_path, capsys):
    rc = cli.main(["eval", "--out", str(tmp_path / "nope")])
    assert rc == 1
    assert "not found" in capsys.readouterr().err


def test_generate_emits_text_and_warns_on_unknown_keywords(tmp_path, capsys):
    cfg_path = _toy_config_file(tmp_path)
    out = str(tmp_path / "run")
    cli.main(["train", "--config", cfg_path, "--out", out, "--epochs", "1"])
    capsys.readouterr()
    rc = cli.main(["generate", "--out", out, "--keywords", "gibberish"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "unknown keywords" in captured.err
    assert isinstance(captured.out.strip(), str)


def test_generate_warns_on_keywords_that_do_not_fit(tmp_path, capsys):
    out = tmp_path / "run"
    out.mkdir()
    model = ReportModel(toy_config())       # s_l = 4 slots hold 2 keywords
    TR.save_checkpoint(model, TR.AdamState(), TrainConfig(), str(out / "model.ckpt"))
    assert cli.main(["generate", "--out", str(out), "--keywords", "spot dot"]) == 0
    assert "dropped" not in capsys.readouterr().err
    assert cli.main(["generate", "--out", str(out), "--keywords", "spot dot halo"]) == 0
    assert "dropped: ['halo']" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "generate"])
def test_checkpoint_below_the_task_vocabulary_exits_2_with_one_line(command, tmp_path, capsys):
    path = str(tmp_path / "model.ckpt")
    model = ReportModel(toy_config(vocab_size=8))      # the task has 25 words
    TR.save_checkpoint(model, TR.AdamState(), TrainConfig(), path)
    assert cli.main([command, "--checkpoint", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == "config error: vocab_size=8 below task vocabulary 25\n"


def test_generate_sampling_flags(tmp_path, capsys):
    cfg_path = _toy_config_file(tmp_path)
    out = str(tmp_path / "run")
    cli.main(["train", "--config", cfg_path, "--out", out, "--epochs", "1"])
    capsys.readouterr()
    rc = cli.main(["generate", "--out", out, "--temperature", "2.0", "--sample-index", "1"])
    assert rc == 0


def test_unknown_config_key_rejected(tmp_path, capsys):
    path = str(tmp_path / "bad.json")
    json.dump({"not_a_real_knob": 1}, open(path, "w"))
    rc = cli.main(["train", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_ablate_flags_disable_modules(tmp_path):
    cfg_path = _toy_config_file(tmp_path)
    out = str(tmp_path / "run")
    rc = cli.main(["train", "--config", cfg_path, "--out", out, "--epochs", "1",
                   "--ablate", "adp", "ca"])
    assert rc == 0
    echoed = json.load(open(os.path.join(out, "config.json")))
    assert echoed["use_adaptor"] is False
    assert echoed["use_alignment"] is False
    assert echoed["use_abstractor"] is True


def test_ablate_kw_implies_no_fusion_stages(tmp_path):
    cfg_path = _toy_config_file(tmp_path)
    out = str(tmp_path / "run")
    rc = cli.main(["train", "--config", cfg_path, "--out", out, "--epochs", "1",
                   "--ablate", "kw"])
    assert rc == 0
    echoed = json.load(open(os.path.join(out, "config.json")))
    assert echoed["use_keywords"] is False
    assert echoed["use_abstractor"] is False
    assert echoed["use_adaptor"] is False


def test_grad_check_command_passes(capsys):
    for mode in ("softmax", "sigmoid"):
        rc = cli.main(["grad-check", "--attn", mode])
        out = capsys.readouterr().out
        assert rc == 0, mode
        assert out.count("PASS") == 9, mode
        assert "FAIL" not in out, mode


def test_grad_check_command_exits_1_on_a_failed_check(monkeypatch, capsys):
    failed = CheckResult("end-to-end composite loss", 1.9, END_TO_END_THRESHOLD)
    monkeypatch.setattr(cli, "run_all_checks", lambda mode, seed: [failed])
    rc = cli.main(["grad-check"])
    out = capsys.readouterr().out
    assert rc == 1
    assert out.startswith("FAIL  end-to-end composite loss")


def test_keyword_dropout_flag_runs(tmp_path, capsys):
    cfg_path = _toy_config_file(tmp_path)
    out = str(tmp_path / "run")
    cli.main(["train", "--config", cfg_path, "--out", out, "--epochs", "1"])
    capsys.readouterr()
    rc = cli.main(["eval", "--out", out, "--keyword-dropout", "0.5"])
    assert rc == 0


def _three_train_steps():
    model = ReportModel(toy_config())
    samples = D.synth_generate(8, seed=1, side=model.cfg.image_side)
    tc = TrainConfig(batch_size=4, lr=1e-3, scheduler="constant")
    _, hist = TR.run_training(model, samples, D.default_vocab(), tc, n_steps=3)
    psum = sum(float(p.data.sum()) for _, p in sorted(model.params.items()))
    return [(h.l_ce, h.l_align, h.l_total, h.grad_norm) for h in hist], psum


def test_inference_commands_leave_tape_recording_on(tmp_path, capsys):
    before = _three_train_steps()
    cfg_path = _toy_config_file(tmp_path)
    out = str(tmp_path / "run")
    cli.main(["train", "--config", cfg_path, "--out", out, "--epochs", "1"])
    x = Tensor(np.ones(2), requires_grad=True)
    for argv in (["eval", "--out", out], ["generate", "--out", out]):
        assert cli.main(argv) == 0
        assert (x * 2.0)._backward is not None, argv[0]
    # a training run after the inference commands is bit-identical
    assert _three_train_steps() == before


def test_bad_config_in_checkpoint_is_a_checkpoint_error(tmp_path, capsys):
    cfg_path = _toy_config_file(tmp_path)
    out = str(tmp_path / "run")
    cli.main(["train", "--config", cfg_path, "--out", out, "--epochs", "1"])
    path = os.path.join(out, "model.ckpt")
    model, state, tc = TR.load_checkpoint(path)
    tc.lr = "abc"
    TR.save_checkpoint(model, state, tc, path)
    capsys.readouterr()
    assert cli.main(["eval", "--out", out]) == 2
    assert "checkpoint error" in capsys.readouterr().err


def test_main_calls_in_one_process_see_only_their_own_flags(tmp_path, monkeypatch, capsys):
    """The parser is built once per process; no flag of one call leaks
    into the next."""
    cfg_path = _toy_config_file(tmp_path)
    out = str(tmp_path / "run")
    cli.main(["train", "--config", cfg_path, "--out", out, "--epochs", "1"])
    seen, encode = [], D.encode_keyword_string

    def spy(vocab, keywords, *args, **kwargs):
        seen.append(keywords)
        return encode(vocab, keywords, *args, **kwargs)

    monkeypatch.setattr(D, "encode_keyword_string", spy)
    assert cli.main(["generate", "--out", out, "--keywords", "ring"]) == 0
    assert cli.main(["generate", "--out", out]) == 0
    assert seen == ["ring", D.make_sample(0, 0, side=toy_config().image_side).keywords]

    grids = []
    for name, flags in (("sigmoid", ["--attn", "sigmoid"]), ("default", [])):
        run = str(tmp_path / name)
        assert cli.main(["ablate", "--config", cfg_path, "--out", run, "--epochs", "1",
                         *flags]) == 0
        echoed = json.load(open(os.path.join(run, "config.json")))
        rows = [json.loads(line)["row"] for line in open(os.path.join(run, "ablation.jsonl"))]
        grids.append((echoed["attn_norm"], rows))
    labels = [row[0] for row in cli.ABLATION_GRID]
    assert grids == [("sigmoid", labels), ("softmax", labels)]
