"""Front-end behavior: exit codes, echo round-trips, artifact layout."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wrf import cli
from wrf.errors import ConfigError

REPO = Path(__file__).resolve().parent.parent

SMALL_CFG = """\
# desk-size smoke configuration
d_ref=8
d_mod=4
n_mods=3
n_train=40
n_val=30
gallery_size=120
noise_sigma=0.05
subset_size=4
hidden=16
d_out=8
total_epochs=4
warmup_epochs=1
batch_size=16
eval_every=2
"""


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "base.cfg"
    path.write_text(SMALL_CFG + f"out_dir={tmp_path / 'out'}\n", encoding="utf-8")
    return path


def metrics_without_seconds(run_dir: Path) -> list[str]:
    out = []
    for line in (run_dir / "metrics.csv").read_text().strip().split("\n"):
        cells = line.split(",")
        cells[11] = ""
        out.append(",".join(cells))
    return out


def test_train_run_layout(cfg_file, tmp_path, capsys):
    code = cli.main(["train", "--config", str(cfg_file), "--set", "run_name=a"])
    assert code == 0
    run_dir = tmp_path / "out" / "a"
    for name in ("config.echo", "metrics.csv", "best.ckpt", "epoch_4.ckpt"):
        assert (run_dir / name).exists(), name
    header = (run_dir / "metrics.csv").read_text().split("\n")[0]
    assert header == (
        "epoch,split,loss,r_at_1,r_at_5,r_at_10,r_at_50,rmean,rsubset_at_1,"
        "gap,lr,seconds,adv_steps,rand_steps"
    )
    assert "best val rmean" in capsys.readouterr().out


def test_config_echo_round_trip(cfg_file, tmp_path):
    cli.main(["train", "--config", str(cfg_file), "--set", "run_name=a",
              "--set", "gamma=0.002"])
    echo_path = tmp_path / "out" / "a" / "config.echo"
    config = cli.load_config_echo(echo_path)
    assert config.gamma == 0.002
    assert config.run_name == "a"
    # the echo of the parsed echo is byte-identical, hash line included
    assert cli.config_echo_text(config) == echo_path.read_text()
    last = echo_path.read_text().strip().split("\n")[-1]
    assert last == f"config_hash={cli.config_hash(config)}"


def test_rerun_is_deterministic(cfg_file, tmp_path):
    for name in ("a", "b"):
        assert cli.main(["train", "--config", str(cfg_file),
                         "--set", f"run_name={name}"]) == 0
    out = tmp_path / "out"
    assert metrics_without_seconds(out / "a") == metrics_without_seconds(out / "b")
    ckpt_a = (out / "a" / "best.ckpt").read_bytes()
    ckpt_b = (out / "b" / "best.ckpt").read_bytes()
    assert ckpt_a == ckpt_b


def test_missing_config_is_exit_2(tmp_path, capsys):
    assert cli.main(["train", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "not found" in capsys.readouterr().err


def test_invalid_values_are_exit_2(cfg_file, capsys):
    assert cli.main(["train", "--config", str(cfg_file), "--set", "gamma=-1"]) == 2
    assert cli.main(["train", "--config", str(cfg_file), "--set", "nonsense=3"]) == 2
    assert cli.main(["train", "--config", str(cfg_file), "--set", "batch_size=lots"]) == 2
    assert cli.main(["train", "--config", str(cfg_file), "--set", "oops"]) == 2
    capsys.readouterr()


def test_malformed_config_line_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("gamma 0.001\n", encoding="utf-8")
    assert cli.main(["train", "--config", str(bad)]) == 2
    assert "expected key=value" in capsys.readouterr().err


def test_sweep_summary_schema(cfg_file, tmp_path, capsys):
    code = cli.main([
        "sweep", "--config", str(cfg_file), "--param", "fraction",
        "--values", "1.0,0.5", "--seeds", "1,0",
    ])
    assert code == 0
    lines = (tmp_path / "out" / "sweep_summary.csv").read_text().strip().split("\n")
    assert lines[0] == cli.SWEEP_HEADER
    keys = [tuple(l.split(",")[:3]) for l in lines[1:]]
    # sorted by value then seed regardless of argument order
    assert keys == [
        ("fraction", "0.5", "0"), ("fraction", "0.5", "1"),
        ("fraction", "1.0", "0"), ("fraction", "1.0", "1"),
    ]
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 8
        float(cells[3]), float(cells[7])  # numeric summary fields
    assert (tmp_path / "out" / "fraction_0.5_seed1" / "config.echo").exists()
    capsys.readouterr()


def test_sweep_continues_past_failing_run(cfg_file, tmp_path, capsys):
    # rank 13 exceeds the first fusion layer's min dimension (12): that
    # run fails at model build time, the others must still complete.
    code = cli.main([
        "sweep", "--config", str(cfg_file), "--param", "lora_rank",
        "--values", "2,13", "--seeds", "0",
    ])
    assert code == 4
    lines = (tmp_path / "out" / "sweep_summary.csv").read_text().strip().split("\n")
    assert len(lines) == 2  # header plus the surviving run
    assert lines[1].startswith("lora_rank,2,0,")
    assert "failed" in capsys.readouterr().err


def test_sweep_bad_values_are_exit_2(cfg_file, capsys):
    assert cli.main([
        "sweep", "--config", str(cfg_file), "--param", "rho",
        "--values", "0.5,2.0", "--seeds", "0",
    ]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("flag, text", [("--values", "abc"), ("--seeds", "x")])
def test_sweep_non_numeric_token_is_exit_2(cfg_file, tmp_path, capsys, flag, text):
    args = {"--values": "0.5", "--seeds": "0", flag: text}
    code = cli.main([
        "sweep", "--config", str(cfg_file), "--param", "rho",
        "--values", args["--values"], "--seeds", args["--seeds"],
    ])
    assert code == 2
    assert "bad sweep" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unknown_finetune_mode_is_rejected_before_any_run_dir(cfg_file, tmp_path, capsys):
    with pytest.raises(ConfigError, match="finetune_mode"):
        cli.build_config({"finetune_mode": "bogus"})
    code = cli.main(["train", "--config", str(cfg_file), "--set", "finetune_mode=bogus"])
    assert code == 2
    assert "finetune_mode" in capsys.readouterr().err
    for key, value in (("weight_decay", "nan"), ("weight_decay", "inf"), ("eps", "inf")):
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            cli.build_config({key: value})
        code = cli.main(["train", "--config", str(cfg_file), "--set", f"{key}={value}"])
        assert code == 2
        assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_too_small_training_split_is_rejected_before_any_run_dir(cfg_file, tmp_path, capsys):
    code = cli.main(["train", "--config", str(cfg_file), "--set", "fraction=0.001"])
    assert code == 2
    assert "training split needs at least two triplets" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_lora_rank_zero_means_full_mode(cfg_file, tmp_path, capsys):
    code = cli.main([
        "sweep", "--config", str(cfg_file), "--param", "lora_rank",
        "--values", "0", "--seeds", "0",
    ])
    assert code == 0
    echo = cli.load_config_echo(tmp_path / "out" / "lora_rank_0_seed0" / "config.echo")
    assert echo.finetune_mode == "full"
    capsys.readouterr()


def test_landscape_csv(cfg_file, tmp_path, capsys):
    cli.main(["train", "--config", str(cfg_file), "--set", "run_name=a"])
    ckpt = tmp_path / "out" / "a" / "best.ckpt"
    code = cli.main([
        "landscape", "--checkpoint", str(ckpt),
        "--directions", "3", "--alpha-steps", "2",
    ])
    assert code == 0
    lines = (tmp_path / "out" / "a" / "landscape.csv").read_text().strip().split("\n")
    assert lines[0] == "direction_id,alpha,loss"
    assert len(lines) == 1 + 3 * 5
    base_losses = {l.split(",")[2] for l in lines[1:] if float(l.split(",")[1]) == 0.0}
    assert len(base_losses) == 1  # alpha=0 rows share the exact base loss
    capsys.readouterr()


def test_landscape_corrupt_checkpoint_is_exit_2(cfg_file, tmp_path, capsys):
    cli.main(["train", "--config", str(cfg_file), "--set", "run_name=a"])
    bad = tmp_path / "out" / "a" / "best.ckpt"
    bad.write_bytes(b"not a checkpoint")
    assert cli.main(["landscape", "--checkpoint", str(bad)]) == 2
    assert cli.main(["landscape", "--checkpoint", str(tmp_path / "ghost.ckpt")]) == 2
    capsys.readouterr()


def test_landscape_nonfinite_checkpoint_is_exit_2(cfg_file, tmp_path, capsys):
    cli.main(["train", "--config", str(cfg_file), "--set", "run_name=a"])
    ckpt = tmp_path / "out" / "a" / "best.ckpt"
    last = cli.load_checkpoint(ckpt).names[-1]
    raw = ckpt.read_bytes()
    ckpt.write_bytes(raw[:-8] + np.array([np.nan], dtype="<f8").tobytes())
    capsys.readouterr()
    assert cli.main(["landscape", "--checkpoint", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ckpt}: layer {last!r} has non-finite entries")
    assert not (ckpt.parent / "landscape.csv").exists()


def test_landscape_out_in_a_missing_directory_is_exit_2(cfg_file, tmp_path, capsys):
    cli.main(["train", "--config", str(cfg_file), "--set", "run_name=a"])
    capsys.readouterr()
    out = tmp_path / "missing" / "landscape.csv"
    code = cli.main([
        "landscape", "--checkpoint", str(tmp_path / "out" / "a" / "best.ckpt"),
        "--directions", "1", "--alpha-steps", "1", "--out", str(out),
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.parent.exists()


@pytest.mark.parametrize("key, value", [("d_ref", "10"), ("hidden", "12")])
def test_landscape_rejects_checkpoint_that_does_not_fit_its_echo(
    cfg_file, tmp_path, capsys, key, value
):
    assert cli.main(["train", "--config", str(cfg_file), "--set", "run_name=a"]) == 0
    echo = tmp_path / "out" / "a" / "config.echo"
    lines = [
        f"{key}={value}" if line.startswith(f"{key}=") else line
        for line in echo.read_text().splitlines()
    ]
    echo.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    ckpt = tmp_path / "out" / "a" / "best.ckpt"
    assert cli.main(["landscape", "--checkpoint", str(ckpt), "--directions", "1"]) == 2
    assert "do not fit" in capsys.readouterr().err
    assert not (tmp_path / "out" / "a" / "landscape.csv").exists()


def test_selfcheck_passes_clean_and_fails_injected(capsys):
    assert cli.main(["selfcheck"]) == 0
    out = capsys.readouterr().out
    assert "gradient-oracle" in out and "selfcheck passed" in out
    assert cli.main(["selfcheck", "--inject", "grad-sign"]) == 1
    captured = capsys.readouterr()
    assert "gradient-oracle" in captured.err  # failing property named


def test_value_parsing_round_trip():
    config = cli.build_config({"hidden": "32,16", "gamma": "0.002", "seed": "3"})
    assert config.hidden == (32, 16)
    assert config.gamma == 0.002
    rebuilt = cli.build_config(
        cli.parse_config_lines(cli.config_echo_text(config).splitlines())
    )
    assert rebuilt == config
    with pytest.raises(ConfigError):
        cli.build_config({"fraction": "0"})
    with pytest.raises(ConfigError):
        cli.build_config({"run_name": "a/b"})


DEFAULT_ECHO = """\
run_name=run
out_dir=runs
seed=0
fraction=1.0
d_ref=32
d_mod=8
n_mods=8
n_train=512
n_val=512
gallery_size=2048
noise_sigma=0.1
subset_size=6
hidden=64,64
d_out=16
activation=tanh
init_scale=1.0
tau=10.0
gamma=0.001
rho=1.0
eta0=0.001
schedule=cosine
total_epochs=60
warmup_epochs=3
batch_size=64
optimizer=adamw
beta1=0.9
beta2=0.999
eps=1e-08
weight_decay=0.05
eval_every=1
checkpoint_every=0
finetune_mode=full
lora_rank=0
config_hash=921955767115b6e8
"""


def test_default_config_echo_is_pinned():
    # Key order, formatting and the hash are part of the run-directory
    # format: an echo written earlier must reproduce its run.
    config = cli.build_config({})
    assert cli.config_echo_text(config) == DEFAULT_ECHO
    assert cli.config_hash(config) == "921955767115b6e8"


def test_negative_lora_rank_is_rejected_in_every_mode(cfg_file, tmp_path, capsys):
    for mode in ("full", "lora"):
        with pytest.raises(ConfigError, match="lora_rank must be >= 0"):
            cli.build_config({"lora_rank": "-3", "finetune_mode": mode})
    code = cli.main(["train", "--config", str(cfg_file), "--set", "lora_rank=-3"])
    assert code == 2
    assert "lora_rank" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_module_entry_point():
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "wrf.cli", "--help"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    for name in ("train", "sweep", "landscape", "selfcheck"):
        assert name in proc.stdout


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Runs wrf.__main__.main with a stand-in wrf.cli that prints what the
# real one would start with: the three BLAS variables, whether a forked
# worker may start, and whether numpy was loaded before it.
ENTRY_PROBE = """
import os, sys, types
from wrf import __main__ as entry, worker

def report(argv):
    print(*(os.environ.get(var) for var in %r))
    print(worker.available(), "numpy" in sys.modules)
    return 0

stub = types.ModuleType("wrf.cli")
stub.main = report
sys.modules["wrf.cli"] = stub
sys.exit(entry.main([]))
""" % (BLAS_VARS,)


def run_entry_probe(**blas_env) -> list[str]:
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs two CPUs")
    cpus = set(sorted(os.sched_getaffinity(0))[:2])
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(blas_env, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", ENTRY_PROBE], capture_output=True, text=True, env=env,
        timeout=60, preexec_fn=lambda: os.sched_setaffinity(0, cpus),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_wrf_command_defaults_to_one_blas_thread():
    # On two CPUs one BLAS thread leaves a CPU for the worker.
    assert run_entry_probe() == ["1 1 1", "True False"]


def test_wrf_command_keeps_a_blas_setting_it_is_given():
    # OpenBLAS reads OPENBLAS_NUM_THREADS first; setting it would override OMP's 4.
    assert run_entry_probe(OMP_NUM_THREADS="4") == ["None 4 None", "False False"]


def test_importing_the_wrf_command_loads_no_numpy():
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, wrf.__main__; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_python_dash_m_wrf_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "wrf", "--help"], capture_output=True, text=True, env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "landscape" in proc.stdout


@pytest.mark.parametrize(
    "script", ["data_fractions", "direction_ablation", "gamma_sweep", "landscape_compare"]
)
def test_study_driver_help(script):
    # The drivers import wrf.cli; a renamed entry point fails here, not in a study.
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / f"{script}.py"), "--help"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout
