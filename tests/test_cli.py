"""Command-line interface: exit codes, artifacts, output shape."""

import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dispo.cli import main
from dispo.tasks import load_instances

SRC = Path(__file__).resolve().parents[1] / "src"
TINY_TRAIN = {
    "task": "stringmatch",
    "task_params": {"target_len": 4, "vocab_size": 3},
    "n_instances": 2,
    "n_rollouts": 2,
    "n_denoising_steps": 2,
    "batch_size": 1,
    "n_updates": 3,
    "surrogate": {"n_mc": 1},
    "seed": 11,
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_count_ops_prints_the_formulas(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "task_params": {"target_len": 16},  # a 16-step run needs 16 tokens to commit
            "n_rollouts": 6,
            "n_denoising_steps": 16,
            "n_timesteps": 1,
            "surrogate": {"n_mc": 2},
            "kl_beta": 0.0,
        },
    )
    assert main(["count-ops", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "rollout_forward_passes   = K*T       = 6*16 = 96" in out
    assert "reward_evals             = K + |S|*Z = 6 + 6*2 = 18" in out
    assert "surrogate_terminal_calls = 2*Nm*K    = 2*2*6 = 24" in out
    assert "surrogate_step_calls     = 2*Nm*|S|  = 2*2*6 = 24" in out
    assert "run totals" in out
    kl_payload = {"n_timesteps": 3, "surrogate": {"n_mc": 5}, "kl_beta": 0.01}
    kl = write_config(tmp_path, kl_payload, "kl.json")
    assert main(["count-ops", "--config", kl]) == 0
    out = capsys.readouterr().out
    assert "(K=4, T=4, |S|=12, Z=2, Nm=5)" in out
    assert "surrogate_kl_calls       = 2*Nm      = 2*5 = 10" in out
    no_term = write_config(tmp_path, {"alpha_term": 0.0}, "no_term.json")
    assert main(["count-ops", "--config", no_term]) == 0
    out = capsys.readouterr().out
    assert "surrogate_terminal_calls = off (alpha_term = 0) = 0" in out
    assert "  surrogate_terminal_calls = 0\n" in out  # the run totals agree


def test_bad_configs_exit_with_code_two(tmp_path, capsys):
    assert main(["count-ops", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "task": "stringmatch",\n}\n')
    assert main(["count-ops", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "bad.json:3:" in err  # JSON errors carry line and column
    unknown = write_config(tmp_path, {"alpha": 1.0}, "unknown.json")
    assert main(["count-ops", "--config", unknown]) == 2
    assert main(["count-ops", "--config", write_config(tmp_path, TINY_TRAIN), "--z", "0"]) == 2


def test_train_writes_artifacts_and_is_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY_TRAIN)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["train", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["train", "--config", cfg, "--out", str(out_b)]) == 0
    stdout = capsys.readouterr().out
    assert "final mean terminal reward" in stdout
    assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
    manifest = json.loads((out_a / "manifest.json").read_text())
    assert manifest["seed"] == 11
    assert "metrics.csv" in manifest["artifacts"]
    assert len(manifest["content_hash"]) == 64


def test_train_resume_extends_a_run(tmp_path):
    short = dict(TINY_TRAIN, n_updates=2)
    long = dict(TINY_TRAIN, n_updates=4)
    run = tmp_path / "run"
    straight = tmp_path / "straight"
    assert main(["train", "--config", write_config(tmp_path, short, "s.json"), "--out", str(run)]) == 0
    assert (
        main(
            [
                "train",
                "--config", write_config(tmp_path, long, "l.json"),
                "--out", str(run),
                "--resume", str(run),
            ]
        )
        == 0
    )
    assert main(["train", "--config", write_config(tmp_path, long, "l2.json"), "--out", str(straight)]) == 0
    assert (run / "metrics.csv").read_bytes() == (straight / "metrics.csv").read_bytes()


def test_resume_without_new_updates_is_rejected_before_writing(tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["train", "--config", write_config(tmp_path, dict(TINY_TRAIN, n_updates=5)), "--out", str(run)]) == 0
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    for n in (3, 5):
        cfg = write_config(tmp_path, dict(TINY_TRAIN, n_updates=n), f"n{n}.json")
        fresh = tmp_path / f"fresh{n}"
        capsys.readouterr()
        assert main(["train", "--config", cfg, "--out", str(fresh), "--resume", str(run)]) == 2
        assert "holds 5 updates" in capsys.readouterr().err
        assert not fresh.exists()
        assert main(["train", "--config", cfg, "--out", str(run), "--resume", str(run)]) == 2
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before


def test_ill_typed_config_values_exit_two_before_any_run_directory(tmp_path, capsys, monkeypatch):
    root = tmp_path / "runs"
    monkeypatch.setenv("DISPO_OUT_ROOT", str(root))
    bad_values = (
        ("n_rollouts", 2.5),
        ("n_updates", True),
        ("sampler", {"degree": True}),
        ("surrogate", {"n_mc": 2.0}),
        ("optimizer", {"lr": "fast"}),
    )
    for key, value in bad_values:
        cfg = write_config(tmp_path, dict(TINY_TRAIN, **{key: value}), f"{key}.json")
        capsys.readouterr()
        assert main(["train", "--config", cfg]) == 2
        assert f"config key '{key}" in capsys.readouterr().err  # 'key' or 'section.key'
        assert main(["train", "--config", cfg, "--out", str(tmp_path / key)]) == 2
        assert not (tmp_path / key).exists()
    assert not root.exists()


# case: (config section or None for the root, key, value, message): settings
# that no longer exist, since patterns are always shared, the KL term sits at
# the fully masked state only, and AdamW is the only optimizer
DELETED_SETTINGS = {
    "share-patterns": (
        "surrogate", "share_patterns", True,
        "unknown key 'share_patterns' in config section 'surrogate'",
    ),
    "kl-on-step": (None, "kl_on_step", True, "unknown config key 'kl_on_step'"),
    "optimizer-name": (
        "optimizer", "name", "adam", "unknown key 'name' in config section 'optimizer'"
    ),
}


@pytest.mark.parametrize(
    "section, key, value, message", DELETED_SETTINGS.values(), ids=DELETED_SETTINGS
)
def test_deleted_settings_are_unknown_keys_in_configs_and_checkpoints(
    trained_run, tmp_path, capsys, section, key, value, message
):
    def with_key(config):
        config = json.loads(json.dumps(config))
        (config if section is None else config.setdefault(section, {}))[key] = value
        return config

    cfg = write_config(tmp_path, with_key(TINY_TRAIN), "deleted.json")
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "fresh")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "fresh").exists()
    # a checkpoint whose train_state.json holds the key cannot be resumed
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    state_file = run / "train_state.json"
    state = json.loads(state_file.read_text())
    state_file.write_text(json.dumps(dict(state, config=with_key(state["config"]))))
    longer = write_config(tmp_path, dict(TINY_TRAIN, n_updates=4), "longer.json")
    for argv in (
        ["train", "--config", longer, "--out", str(run), "--resume", str(run)],
        ["eval", "--run", str(run)],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert str(state_file) in err and message in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergent_training_exits_one_and_dumps_the_cause(tmp_path, capsys):
    payload = dict(TINY_TRAIN, n_updates=5, optimizer={"lr": 1e308, "grad_clip": None})
    run = tmp_path / "run"
    assert main(["train", "--config", write_config(tmp_path, payload), "--out", str(run)]) == 1
    assert "non-finite loss or gradient at update 2, prompt slot 0" in capsys.readouterr().err
    assert json.loads((run / "divergence.json").read_text())["update"] == 2


def test_eval_runs_on_a_checkpoint_and_fresh_config(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY_TRAIN)
    run = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out", str(run)]) == 0
    capsys.readouterr()
    assert main(["eval", "--run", str(run)]) == 0
    out = capsys.readouterr().out
    assert "accuracy" in out and "mean reward" in out
    assert main(["eval", "--config", cfg]) == 0
    assert main(["eval", "--run", str(tmp_path / "nowhere")]) == 2


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("trained")
    run = str(root / "run")
    assert main(["train", "--config", write_config(root, TINY_TRAIN), "--out", run]) == 0
    return run


# flags a command has no use for, each to be rejected by name; None marks
# the one config flag that eval --run does use
UNUSED_FLAGS = {
    "verify-config": (["verify", "--config", "/nonexistent.json"], "--config"),
    "verify-task": (["verify", "--task", "sudoku"], "--task"),
    "verify-z": (["verify", "--z", "7"], "--z"),
    "count-ops-out": (["count-ops", "--out", "OUT"], "--out"),
    "eval-out": (["eval", "--run", "RUN", "--out", "OUT"], "--out"),
    "eval-run-config": (["eval", "--run", "RUN", "--config", "/nonexistent.json"], "--config"),
    "eval-run-task": (["eval", "--run", "RUN", "--task", "sudoku"], "--task"),
    "eval-run-alpha-step": (["eval", "--run", "RUN", "--alpha-step", "0.5"], "--alpha-step"),
    "eval-run-z": (["eval", "--run", "RUN", "--z", "4"], "--z"),
    "eval-run-sampler": (["eval", "--run", "RUN", "--sampler", "uniform"], "--sampler"),
    "eval-run-seed": (["eval", "--run", "RUN", "--seed", "3"], None),
}


@pytest.mark.parametrize("argv, flag", UNUSED_FLAGS.values(), ids=UNUSED_FLAGS.keys())
def test_flags_a_command_does_not_use_exit_two_naming_the_flag(
    trained_run, tmp_path, capsys, argv, flag
):
    out = tmp_path / "out"
    argv = [{"RUN": trained_run, "OUT": str(out)}.get(a, a) for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a flag the command does not define
        code = exc.code
    if flag is None:
        assert code == 0
        return
    assert code == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


RUN_COMMANDS = ("train", "eval", "gen-data", "varmeasure", "count-ops")
# case: (config keys over TINY_TRAIN, extra flags, cause in the message, commands reading it)
BAD_SETTINGS = {
    "unknown-task": ({}, ["--task", "nosuch"], "unknown task 'nosuch'", RUN_COMMANDS),
    "deleted-task-countdown": (
        {}, ["--task", "countdown"], "unknown task 'countdown'", RUN_COMMANDS
    ),
    "unknown-sampler-law": ({}, ["--sampler", "bogus"], "timestep law 'bogus'", RUN_COMMANDS),
    "negative-sampler-degree": (
        {"sampler": {"degree": -3}}, [], "degree must be >= 0", RUN_COMMANDS
    ),
    "param-of-another-task": (
        {"task": "sudoku", "task_params": {"target_len": 5}},
        [],
        "'target_len': 5",
        RUN_COMMANDS,
    ),
    "unknown-task-param": ({"task_params": {"bogus": 1}}, [], "'bogus': 1", RUN_COMMANDS),
    "stringmatch-vocab-size-1": (
        {"task_params": {"vocab_size": 1}}, [], "'vocab_size': 1", RUN_COMMANDS
    ),
    "stringmatch-target-len-0": (
        {"task_params": {"target_len": 0}}, [], "'target_len': 0", RUN_COMMANDS
    ),
    "sudoku-n-empty-string": (
        {"task": "sudoku", "task_params": {"n_empty": "x"}},
        [],
        "'task_params.n_empty' must be int, got 'x'",
        RUN_COMMANDS,
    ),
    "sudoku-n-empty-bool": (
        {"task": "sudoku", "task_params": {"n_empty": True}},
        [],
        "'task_params.n_empty' must be int, got True",
        RUN_COMMANDS,
    ),
    "sudoku-n-empty-float": (
        {"task": "sudoku", "task_params": {"n_empty": 4.0}},
        [],
        "'task_params.n_empty' must be int, got 4.0",
        RUN_COMMANDS,
    ),
    "stringmatch-target-len-bool": (
        {"task_params": {"target_len": True}},
        [],
        "'task_params.target_len' must be int, got True",
        RUN_COMMANDS,
    ),
    **{
        f"instances-file-{name}": (
            {"task_params": {"instances_file": value}},
            [],
            f"'task_params.instances_file' must be a non-empty string, got {value!r}",
            RUN_COMMANDS,
        )
        # open() takes an int as a file descriptor (2 is stderr); a falsy value looks like no file
        for name, value in [
            ("fd-2", 2), ("fd-1", 1), ("zero", 0), ("empty", ""), ("list", ["a"]),
            ("object", {"x": 1}),
        ]
    },
    "negative-seed": ({}, ["--seed", "-1"], "seed must be >= 0", RUN_COMMANDS),
    "mlp-hidden-0": (
        {"policy": {"arch": "mlp", "hidden": 0}}, [], "hidden width must be >= 1", RUN_COMMANDS
    ),
    "negative-window": ({"policy": {"window": -1}}, [], "window radius must be >= 0", RUN_COMMANDS),
    "schedule-leaves-tokens-masked": (
        {"tokens_per_step": 1}, [], "schedule leaves 2 of 4 tokens masked", RUN_COMMANDS
    ),
    "block-size-0": ({"block_size": 0}, [], "block_size must be >= 1", RUN_COMMANDS),
    "optimizer-beta1-1": (
        {"optimizer": {"beta1": 1.0}}, [], "optimizer.beta1 must be in [0, 1), got 1.0",
        RUN_COMMANDS,
    ),
    "optimizer-beta2-1": (
        {"optimizer": {"beta2": 1.0}}, [], "optimizer.beta2 must be in [0, 1), got 1.0",
        RUN_COMMANDS,
    ),
    "optimizer-eps-0": (
        {"optimizer": {"eps": 0.0}}, [], "optimizer.eps must be > 0, got 0.0", RUN_COMMANDS
    ),
    "negative-init-scale": (
        {"policy": {"init_scale": -0.1}}, [], "policy.init_scale must be >= 0, got -0.1",
        RUN_COMMANDS,
    ),
    "huge-init-scale": (
        {"policy": {"init_scale": 1e308}}, [], "policy.init_scale must be <= 1e3, got 1e+308",
        RUN_COMMANDS,
    ),
    # JSON's NaN and Infinity literals and a "nan" flag parse as floats
    "alpha-step-nan": (
        {"alpha_step": math.nan}, [], "'alpha_step' must be finite, got nan", RUN_COMMANDS
    ),
    "alpha-step-flag-nan": (
        {}, ["--alpha-step", "nan"], "'alpha_step' must be finite, got nan", RUN_COMMANDS
    ),
    "kl-beta-nan": ({"kl_beta": math.nan}, [], "'kl_beta' must be finite, got nan", RUN_COMMANDS),
    "optimizer-lr-infinity": (
        {"optimizer": {"lr": math.inf}}, [], "'optimizer.lr' must be finite, got inf",
        RUN_COMMANDS,
    ),
    "optimizer-grad-clip-nan": (
        {"optimizer": {"grad_clip": math.nan}}, [], "'optimizer.grad_clip' must be finite, got nan",
        RUN_COMMANDS,
    ),
    "negative-weight-decay": (
        {"optimizer": {"weight_decay": -0.5}}, [],
        "optimizer.weight_decay must be >= 0, got -0.5", RUN_COMMANDS,
    ),
}
BAD_SETTING_RUNS = [
    pytest.param(command, *case[:3], id=f"{name}-{command}")
    for name, case in BAD_SETTINGS.items()
    for command in case[3]
]


@pytest.mark.parametrize("command, keys, flags, cause", BAD_SETTING_RUNS)
def test_bad_run_settings_exit_two_naming_the_cause_from_every_command(
    tmp_path, capsys, command, keys, flags, cause
):
    out = tmp_path / "out"
    argv = [command, "--config", write_config(tmp_path, {**TINY_TRAIN, **keys}), *flags]
    if command in ("train", "gen-data", "varmeasure"):
        argv += ["--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and cause in err
    assert not out.exists()


def test_verify_rejects_a_negative_seed_by_name(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["verify", "--seed", "-1", "--out", str(out)]) == 2
    assert "--seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_seeds_past_32_bits_stay_valid(tmp_path, capsys):
    argv = ["--config", write_config(tmp_path, TINY_TRAIN), "--seed", str(2**32)]
    assert main(["count-ops", *argv]) == 0
    assert main(["gen-data", *argv, "--out", str(tmp_path / "data")]) == 0


def test_a_block_size_past_64_bits_trains_as_one_block(tmp_path, capsys):
    runs = {}
    for size in (None, 2**63):
        cfg = write_config(tmp_path, dict(TINY_TRAIN, n_updates=2, block_size=size), f"{size}.json")
        assert main(["count-ops", "--config", cfg]) == 0
        runs[size] = tmp_path / f"run-{size}"
        assert main(["train", "--config", cfg, "--out", str(runs[size])]) == 0
    metrics = [(run / "metrics.csv").read_bytes() for run in runs.values()]
    assert metrics[0] == metrics[1]


def _npz(**arrays) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


# case: (file to damage, its new bytes or None to delete it, text naming the cause)
CHECKPOINT_FAULTS = {
    "missing-run": (None, None, "No such file"),
    "missing-policy-vector": ("policy.bin", None, "No such file"),
    "malformed-reference-sidecar": ("reference.json", b"{", "reference.json:1:"),
    "truncated-optimizer-state": ("optimizer.npz", b"PK\x03\x04", "optimizer.npz"),
    "malformed-train-state": ("train_state.json", b'{"next_update": ', "train_state.json:1:"),
    "train-state-without-counters": ("train_state.json", b'{"next_update": 3}', "counters"),
    "train-state-unknown-counter": (
        "train_state.json", b'{"next_update": 3, "counters": {"bogus": 1}}', "counters"
    ),
    "policy-sidecar-not-an-object": ("policy.json", b"[]", "'arch' object"),
    "optimizer-moments-of-another-length": (
        "optimizer.npz", _npz(m=np.zeros(2), v=np.zeros(2), step=3), "m and v"
    ),
}


@pytest.mark.parametrize("name, content, cause", CHECKPOINT_FAULTS.values(), ids=CHECKPOINT_FAULTS)
def test_checkpoint_faults_exit_two_naming_the_file(
    trained_run, tmp_path, capsys, name, content, cause
):
    run = tmp_path / "run"
    if name is None:
        name = "policy.json"  # the first file a checkpoint load reads
    else:
        shutil.copytree(trained_run, run)
        if content is None:
            (run / name).unlink()
        else:
            (run / name).write_bytes(content)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, dict(TINY_TRAIN, n_updates=5))
    for argv in (
        ["train", "--config", cfg, "--out", str(out), "--resume", str(run)],
        ["eval", "--run", str(run)],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(run / name) in err and cause in err
    assert not out.exists()


# case: how the metrics.csv of a 3-update run is damaged, or None to delete it
PRIOR_METRICS = {
    "missing": None,
    "unparsable": lambda text: "update,loss_term\n1,x\n",
    "short": lambda text: "".join(text.splitlines(keepends=True)[:2]),  # header, update 1
}


@pytest.mark.parametrize("damage", PRIOR_METRICS.values(), ids=PRIOR_METRICS)
def test_resume_without_the_prior_metrics_exits_two_before_any_update(
    trained_run, tmp_path, capsys, monkeypatch, damage
):
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    metrics = run / "metrics.csv"
    if damage is None:
        metrics.unlink()
    else:
        metrics.write_text(damage(metrics.read_text()))
    before = {p.name: p.read_bytes() for p in run.iterdir()}

    def no_rollouts(*args, **kwargs):
        raise AssertionError("a rollout ran")

    monkeypatch.setattr("dispo.trainer.rollout", no_rollouts)
    cfg = write_config(tmp_path, dict(TINY_TRAIN, n_updates=5))
    assert main(["train", "--config", cfg, "--out", str(run), "--resume", str(run)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(metrics) in err
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before


@pytest.mark.parametrize(
    "command, first_work",
    [
        ("train", "dispo.trainer.rollout"),
        ("varmeasure", "dispo.cli.collect_states"),
        ("verify", "dispo.cli.battery"),
        ("gen-data", "dispo.cli.build_task"),
    ],
)
@pytest.mark.parametrize("under_file", [False, True])
def test_an_out_that_cannot_be_a_directory_exits_two_before_any_work(
    tmp_path, capsys, monkeypatch, command, first_work, under_file
):
    def no_work(*args, **kwargs):
        raise AssertionError(f"{first_work} ran")

    monkeypatch.setattr(first_work, no_work)
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    out = taken / "run" if under_file else taken
    assert main([command, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(out) in err
    assert list(tmp_path.iterdir()) == [taken] and taken.read_text() == "a file\n"


def test_task_params_beside_an_instances_file_exit_two_naming_each_key(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["gen-data", "--config", write_config(tmp_path, TINY_TRAIN), "--out", str(data)]) == 0
    params = {"instances_file": str(data / "instances.json"), "bogus": 1, "target_len": 4}
    cfg = write_config(tmp_path, {**TINY_TRAIN, "task_params": params}, "from-file.json")
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "'bogus': 1" in err and "'target_len': 4" in err and "instances_file" in err
    assert not (tmp_path / "run").exists()


def test_gen_data_writes_a_loadable_pool(tmp_path, capsys):
    cfg = write_config(tmp_path, {"task": "sudoku", "n_instances": 2, "seed": 5})
    out = tmp_path / "data"
    assert main(["gen-data", "--config", cfg, "--out", str(out)]) == 0
    task = load_instances(out / "instances.json")
    assert task.name == "sudoku"
    assert len(task.instances) == 2
    assert "instances written" in capsys.readouterr().out


SUDOKU_JSON = {
    "grid": [0, 2, 4, 3, 0, 4, 1, 0, 2, 0, 0, 4, 0, 0, 2, 0],
    "solution": [1, 2, 4, 3, 3, 4, 1, 2, 2, 1, 3, 4, 4, 3, 2, 1],
}
FLOAT_GRID = [float(v) if v == 2 else v for v in SUDOKU_JSON["grid"]]
# 1 is True to Python, so a bool solution passes every check but the type check
BOOL_SOLUTION = [True if v == 1 else v for v in SUDOKU_JSON["solution"]]
BAD_INSTANCES = {
    "mixed-vocab": (
        {"task": "stringmatch", "instances": [
            {"target": [0, 1, 2, 0], "vocab_size": 3},
            {"target": [3, 0, 1, 2], "vocab_size": 4},
        ]},
        "instance 1 has vocab size 4",
    ),
    "unknown-task": ({"task": "poker", "instances": []}, "unknown task 'poker'"),
    "missing-key": (
        {"task": "stringmatch", "instances": [{"vocab_size": 3}]},
        "instance 0: missing key 'target'",
    ),
    "malformed-json": ('{"task": "stringmatch",\n}', "instances.json:2:"),
    "missing-file": (None, "No such file"),
    "fractional-token": (
        {"task": "stringmatch", "instances": [{"target": [1.5, 0, 2, 3]}]},
        "instance 0: target tokens must be ordinary tokens",
    ),
    "fractional-vocab-size": (
        {"task": "stringmatch", "instances": [{"target": [0, 1, 2, 0], "vocab_size": 3.7}]},
        "instance 0: vocab_size: 3.7 is not an integer",
    ),
    "string-vocab-size": (
        {"task": "stringmatch", "instances": [{"target": [0, 1, 2, 0], "vocab_size": "4"}]},
        "instance 0: vocab_size: '4' is not an integer",
    ),
    "float-sudoku-cell": (
        {"task": "sudoku", "instances": [SUDOKU_JSON, {**SUDOKU_JSON, "grid": FLOAT_GRID}]},
        "instance 1: grid: 2.0 is not an integer",
    ),
    "bool-sudoku-cell": (
        {"task": "sudoku", "instances": [{**SUDOKU_JSON, "solution": BOOL_SOLUTION}]},
        "instance 0: solution: True is not an integer",
    ),
    "bool-target-token": (
        {"task": "stringmatch", "instances": [{"target": [True, 0, 2, 1]}]},
        "instance 0: target tokens must be ordinary tokens",
    ),
}


@pytest.mark.parametrize("content, cause", BAD_INSTANCES.values(), ids=BAD_INSTANCES.keys())
def test_bad_instances_files_exit_two_naming_the_cause(tmp_path, capsys, content, cause):
    path = tmp_path / "instances.json"
    if content is not None:
        path.write_text(content if isinstance(content, str) else json.dumps(content))
    cfg = write_config(tmp_path, {**TINY_TRAIN, "task_params": {"instances_file": str(path)}})
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and cause in err


def test_out_root_env_is_honoured(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DISPO_OUT_ROOT", str(tmp_path / "root"))
    cfg = write_config(tmp_path, {"task": "stringmatch", "n_instances": 1, "seed": 2})
    assert main(["gen-data", "--config", cfg]) == 0
    capsys.readouterr()
    assert (tmp_path / "root" / "data-stringmatch-seed2" / "instances.json").exists()


def test_verify_passes_at_full_sample_size(tmp_path, capsys):
    out = tmp_path / "verify"
    assert main(["verify", "--out", str(out)]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 9
    assert all(l.startswith("PASS") for l in lines)
    payload = json.loads((out / "verify.json").read_text())
    assert payload["passed"] is True
    assert len(payload["checks"]) == 9


def test_verify_passes_below_the_default_sample_size(capsys):
    # the relative-L2 bound widens with the Monte Carlo error at fewer samples
    assert main(["verify", "--samples", "20000"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 9 and all(l.startswith("PASS") for l in lines)


@pytest.mark.parametrize("count", ["1", "0", "-5"])
def test_sample_and_trial_counts_below_two_exit_two_naming_the_flag(tmp_path, capsys, count):
    out = tmp_path / "out"
    assert main(["verify", "--samples", count, "--out", str(out)]) == 2
    assert f"--samples must be at least 2, got {count}" in capsys.readouterr().err
    assert main(["varmeasure", "--trials", count, "--out", str(out)]) == 2
    assert f"--trials must be at least 2, got {count}" in capsys.readouterr().err
    assert not out.exists()


def test_default_sudoku_run_trains_and_evaluates(tmp_path, capsys):
    # the default puzzle size spreads over the default four denoising steps
    run = tmp_path / "run"
    assert main(["train", "--task", "sudoku", "--out", str(run)]) == 0
    assert main(["eval", "--run", str(run)]) == 0
    assert main(["eval", "--task", "sudoku"]) == 0
    out = capsys.readouterr().out
    assert "trained 50 updates on sudoku" in out and "first violation" in out


def test_varmeasure_writes_a_variance_report(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "task": "stringmatch",
            "task_params": {"target_len": 6, "vocab_size": 3},
            "n_instances": 3,
            "n_denoising_steps": 3,
            "seed": 9,
        },
    )
    out = tmp_path / "var"
    assert main(["varmeasure", "--config", cfg, "--out", str(out), "--trials", "4"]) == 0
    stdout = capsys.readouterr().out
    assert "retained" in stdout
    report = json.loads((out / "variance_report.json").read_text())
    assert report["condition_names"] == ["action-z2", "all-z2", "action-z4"]
    assert report["n_trials"] == 4
    assert (out / "manifest.json").exists()


def test_module_entry_point_matches_the_console_script():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "dispo.cli", "count-ops"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "per prompt" in proc.stdout
