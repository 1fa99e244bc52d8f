"""Command-line interface: exit codes, artifacts, output shape."""

import json
import subprocess
import sys

import pytest

from dispo.cli import main
from dispo.tasks import load_instances

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
        ("kl_on_step", 1),
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


def test_share_patterns_is_an_unknown_key_in_configs_and_checkpoints(tmp_path, capsys):
    # corruption patterns are always shared, so the key no longer exists
    message = "unknown key 'share_patterns' in config section 'surrogate'"
    payload = dict(TINY_TRAIN, surrogate={"n_mc": 1, "share_patterns": True})
    cfg = write_config(tmp_path, payload, "shared.json")
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "fresh")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "fresh").exists()
    # a checkpoint whose train_state.json holds the key cannot be resumed
    run = tmp_path / "run"
    assert main(["train", "--config", write_config(tmp_path, TINY_TRAIN), "--out", str(run)]) == 0
    state_file = run / "train_state.json"
    state = json.loads(state_file.read_text())
    state["config"]["surrogate"]["share_patterns"] = True
    state_file.write_text(json.dumps(state))
    longer = write_config(tmp_path, dict(TINY_TRAIN, n_updates=4), "longer.json")
    capsys.readouterr()
    assert main(["train", "--config", longer, "--out", str(run), "--resume", str(run)]) == 2
    assert message in capsys.readouterr().err


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
    assert main(["eval", "--run", str(tmp_path / "nowhere")]) == 1


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


def test_gen_data_writes_a_loadable_pool(tmp_path, capsys):
    cfg = write_config(tmp_path, {"task": "sudoku", "n_instances": 2, "seed": 5})
    out = tmp_path / "data"
    assert main(["gen-data", "--config", cfg, "--out", str(out)]) == 0
    task = load_instances(out / "instances.json")
    assert task.name == "sudoku"
    assert len(task.instances) == 2
    assert "instances written" in capsys.readouterr().out


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
    "countdown-target-out-of-range": (
        {"task": "countdown", "instances": [{"numbers": [1, 2, 3], "target": 1000}]},
        "instance 0: target must be an integer in 1..999",
    ),
    "fractional-token": (
        {"task": "stringmatch", "instances": [{"target": [1.5, 0, 2, 3]}]},
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
    proc = subprocess.run(
        [sys.executable, "-m", "dispo.cli", "count-ops"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "per prompt" in proc.stdout
