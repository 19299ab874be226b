"""Front-end behavior: exit codes, echo round-trips, artifact layout."""

import hashlib
import importlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from wrf import cli, synthcir
from wrf.errors import ConfigError, DataError, NumericError
from wrf.synthcir import TripletBatch
from wrf.trainer import RunRecord

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
    # the last line is the hash of the lines above it
    body, _, digest = echo_path.read_text().rpartition("config_hash=")
    assert digest == hashlib.sha256(body.encode("utf-8")).hexdigest()[:16] + "\n"


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


def is_table_header(line: str) -> bool:
    return line.split()[1:] == ["runs", "val", "rmean", "drm", "gap", "cut", "%"]


def test_sweep_into_an_out_dir_that_is_a_file_is_an_error_line(tmp_path, capsys):
    # Every run fails on the file, then the summary cannot be written: an
    # IO error (exit 2) with an error: line, not a traceback.
    blocker = tmp_path / "out"
    blocker.write_text("not a directory\n", encoding="utf-8")
    cfg = tmp_path / "base.cfg"
    cfg.write_text(SMALL_CFG + f"out_dir={blocker}\n", encoding="utf-8")
    code = cli.main(["sweep", "--config", str(cfg), "--param", "fraction",
                     "--values", "0.5", "--seeds", "0,1"])
    assert code == 2
    out, err = capsys.readouterr()
    assert err.splitlines() == [
        f"error: run fraction_0.5_seed{seed} failed: "
        f"cannot write {blocker / f'fraction_0.5_seed{seed}'}: Not a directory"
        for seed in (0, 1)
    ] + [f"error: cannot write {blocker / 'sweep_summary.csv'}: File exists"]
    assert "summary:" not in out
    assert blocker.read_text(encoding="utf-8") == "not a directory\n"


def test_train_under_an_out_dir_that_is_a_file_is_one_error_line(tmp_path, capsys):
    # The run directory cannot be made: the error names it once, with the
    # reason and no errno.
    blocker = tmp_path / "out"
    blocker.write_text("not a directory\n", encoding="utf-8")
    cfg = tmp_path / "base.cfg"
    cfg.write_text(SMALL_CFG + f"out_dir={blocker / 'sub'}\n", encoding="utf-8")
    assert cli.main(["train", "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert err == f"error: cannot write {blocker / 'sub' / 'run'}: Not a directory\n"
    assert out == ""


def test_a_failed_summary_write_names_the_summary_once(cfg_file, tmp_path, capsys):
    # The run finishes; only the summary write fails, with one error line.
    summary = tmp_path / "out" / "sweep_summary.csv"
    summary.mkdir(parents=True)
    code = cli.main(["sweep", "--config", str(cfg_file), "--param", "fraction",
                     "--values", "0.5", "--seeds", "0"])
    assert code == 2
    out, err = capsys.readouterr()
    assert err == f"error: cannot write {summary}: Is a directory\n"
    assert "summary:" not in out
    assert sorted(p.name for p in summary.parent.iterdir()) == [
        "fraction_0.5_seed0", "sweep_summary.csv"]


def test_sweep_continues_past_failing_run(cfg_file, tmp_path, capsys):
    # fraction 0.01 leaves one of the 40 training triplets: those runs fail
    # once their dataset is built, the others must still complete, and the
    # table holds the seed means of the summary rows of the values left.
    code = cli.main([
        "sweep", "--config", str(cfg_file), "--param", "fraction",
        "--values", "0.01,0.5,1.0", "--seeds", "0,1",
    ])
    assert code == 4
    out, err = capsys.readouterr()
    assert [line.split(" failed: ")[0] for line in err.splitlines()] == [
        "error: run fraction_0.01_seed0", "error: run fraction_0.01_seed1"]
    lines = (tmp_path / "out" / "sweep_summary.csv").read_text().strip().split("\n")
    assert len(lines) == 5  # header plus the four surviving runs
    assert lines[1].startswith("fraction,0.5,0,")
    by_value = {}
    for line in lines[1:]:
        cells = line.split(",")
        by_value.setdefault(cells[1], []).append((float(cells[3]), float(cells[5])))
    assert list(by_value) == ["0.5", "1.0"]
    out_lines = out.splitlines()
    start = next(i for i, line in enumerate(out_lines) if is_table_header(line))
    assert out_lines[start].split()[0] == "fraction"
    assert out_lines[start + 3].startswith("summary: ")
    base_rmean = base_gap = None
    for line, (value, runs) in zip(out_lines[start + 1 : start + 3], by_value.items()):
        rmean = sum(r for r, _ in runs) / len(runs)
        gap = sum(g for _, g in runs) / len(runs)
        if base_rmean is None:
            base_rmean, base_gap = rmean, gap
        assert line.split() == [
            value, str(len(runs)), f"{rmean:.3f}", f"{rmean - base_rmean:+.3f}",
            f"{gap:.3f}", f"{100 * (1 - gap / base_gap):.1f}",
        ]


def test_sweep_table_cut_is_nan_when_the_first_gap_is_0(capsys):
    def record(rmean, gap):
        return RunRecord(best_epoch=1, best_val_rmean=rmean, gap_at_best=gap)

    cli.print_sweep_table("gamma", {0.0: [record(5.0, 0.0)],
                                    0.01: [record(6.0, 2.0), record(7.0, 1.0)]})
    assert capsys.readouterr().out.splitlines() == [
        "    gamma runs  val rmean      drm      gap   cut %",
        "      0.0    1      5.000   +0.000    0.000     nan",
        "     0.01    2      6.500   +1.500    1.500     nan",
    ]
    cli.print_sweep_table("gamma", {})  # no run finished: no table
    assert capsys.readouterr().out == ""


LORA_RANK_50 = "error: rank 50 exceeds min dim of 'fusion.0.w' with shape (40, 64)\n"


def test_lora_rank_past_a_layer_dim_is_rejected_before_the_run_directory(tmp_path, capsys):
    # The default fusion.0.w is (40, 64). The rank is checked when the
    # config is built: no sweep run starts, no run directory appears.
    cfg = tmp_path / "lora.cfg"
    cfg.write_text(f"out_dir={tmp_path / 'out'}\nfinetune_mode=lora\nlora_rank=50\n")
    assert cli.main(["train", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == LORA_RANK_50
    assert cli.main(["sweep", "--config", str(cfg), "--param", "lora_rank",
                     "--values", "2,50", "--seeds", "0"]) == 2
    assert capsys.readouterr().err == LORA_RANK_50
    assert not (tmp_path / "out").exists()


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


def test_landscape_csv(cfg_file, tmp_path, capsys, monkeypatch):
    cli.main(["train", "--config", str(cfg_file), "--set", "run_name=a"])
    ckpt = tmp_path / "out" / "a" / "best.ckpt"
    monkeypatch.setattr(cli, "LANDSCAPE_BATCH_CAP", 25)  # under the 40 train rows
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
    # The base loss is the checkpoint's loss on the first 25 train rows.
    config = cli.load_config_echo(ckpt.parent / "config.echo")
    dataset, rows = cli.build_dataset(config), slice(25)
    batch = TripletBatch(dataset.train.refs[rows],
                         dataset.mod_embeddings[dataset.train.mod_codes[rows]],
                         dataset.gallery[dataset.train.target_indices[rows]])
    want = cli.RetrievalModel(config.model_config()).batch_loss(
        cli.load_checkpoint(ckpt), batch, config.tau)
    assert float(base_losses.pop()) == want
    capsys.readouterr()


def test_landscape_never_searches_the_neighbours(cfg_file, tmp_path, capsys, monkeypatch):
    # Only an evaluation reads candidate subsets, and a probe evaluates nothing.
    cli.main(["train", "--config", str(cfg_file), "--set", "run_name=a"])

    def no_search(*args):
        raise AssertionError("wrf landscape searched for candidate subsets")

    monkeypatch.setattr(synthcir, "_nearest_subsets", no_search)
    code = cli.main(["landscape", "--checkpoint", str(tmp_path / "out" / "a" / "best.ckpt"),
                     "--directions", "2", "--alpha-steps", "1"])
    assert code == 0
    capsys.readouterr()


def test_landscape_corrupt_checkpoint_is_exit_2(cfg_file, tmp_path, capsys):
    cli.main(["train", "--config", str(cfg_file), "--set", "run_name=a"])
    bad = tmp_path / "out" / "a" / "best.ckpt"
    bad.write_bytes(b"not a checkpoint")
    assert cli.main(["landscape", "--checkpoint", str(bad)]) == 2
    assert cli.main(["landscape", "--checkpoint", str(tmp_path / "ghost.ckpt")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("flag, value, rule", [
    ("--directions", "0", ">= 1, got 0"),
    ("--alpha-max", "0", "finite and > 0, got 0.0"),
    ("--alpha-max", "nan", "finite and > 0, got nan"),
    ("--alpha-max", "inf", "finite and > 0, got inf"),
    ("--alpha-steps", "0", ">= 1, got 0"),
])
def test_landscape_rejects_a_bad_grid_flag_before_reading_the_run(
    tmp_path, capsys, flag, value, rule
):
    # The checkpoint does not exist: the flag is checked before the run is read.
    code = cli.main(["landscape", "--checkpoint", str(tmp_path / "ghost.ckpt"), flag, value])
    assert code == 2
    assert capsys.readouterr().err == f"error: {flag} must be {rule}\n"


def test_landscape_alpha_max_below_the_grid_resolution_is_exit_2(cfg_file, tmp_path, capsys):
    # 5e-324 passes the flag check, but 5e-324 / 10 rounds to 0: the probe's
    # own grid check is the one that fires, after the run is read.
    cli.main(["train", "--config", str(cfg_file), "--set", "run_name=a"])
    capsys.readouterr()
    run_dir = tmp_path / "out" / "a"
    code = cli.main(["landscape", "--checkpoint", str(run_dir / "best.ckpt"),
                     "--alpha-max", "5e-324"])
    assert code == 2
    assert capsys.readouterr().err == "error: alpha grid must be strictly increasing\n"
    assert not (run_dir / "landscape.csv").exists()


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
    assert capsys.readouterr().err == f"error: cannot write {out}: No such file or directory\n"
    assert not out.parent.exists()


def test_landscape_out_that_is_a_directory_is_exit_2_and_leaves_no_temp_file(
    cfg_file, tmp_path, capsys
):
    cli.main(["train", "--config", str(cfg_file), "--set", "run_name=a"])
    capsys.readouterr()
    run_dir = tmp_path / "out" / "a"
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n", encoding="utf-8")
    # The run directory itself, then a path under a file: each error names --out, not its .tmp.
    for out, reason in ((run_dir, "Is a directory"), (blocker / "x.csv", "Not a directory")):
        code = cli.main([
            "landscape", "--checkpoint", str(run_dir / "best.ckpt"),
            "--directions", "1", "--alpha-steps", "1", "--out", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err == f"error: cannot write {out}: {reason}\n"
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["a"]  # no a.tmp beside it
    assert sorted(p.name for p in tmp_path.iterdir()) == ["base.cfg", "blocker", "out"]
    assert blocker.read_text(encoding="utf-8") == "not a directory\n"


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
    assert cli.config_echo_text(config).splitlines()[-1] == "config_hash=921955767115b6e8"


@pytest.mark.parametrize("component", [cli.DatasetConfig, cli.ModelConfig, cli.TrainConfig])
def test_each_component_config_rejects_a_negative_seed(component):
    # Not numpy's bare ValueError at the config's first draw.
    with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -1$"):
        component(seed=-1)
    assert component(seed=0).seed == 0


def test_negative_seed_is_rejected_before_any_run_dir(cfg_file, tmp_path, capsys):
    message = "error: seed must be >= 0, got -1\n"
    assert cli.main(["train", "--config", str(cfg_file), "--set", "seed=-1"]) == 2
    assert capsys.readouterr().err == message
    assert cli.main(["sweep", "--config", str(cfg_file), "--param", "rho",
                     "--values", "0.5", "--seeds", "-1"]) == 2
    assert capsys.readouterr().err == message
    assert not (tmp_path / "out").exists()
    # landscape refuses a run whose echo records a negative seed
    assert cli.main(["train", "--config", str(cfg_file), "--set", "run_name=a"]) == 0
    run_dir = tmp_path / "out" / "a"
    echo = run_dir / "config.echo"
    echo.write_text(echo.read_text().replace("\nseed=0\n", "\nseed=-1\n"))
    capsys.readouterr()
    assert cli.main(["landscape", "--checkpoint", str(run_dir / "best.ckpt")]) == 2
    assert capsys.readouterr().err == message
    assert not (run_dir / "landscape.csv").exists()


@pytest.mark.parametrize("run_name", [".", ".."])
def test_run_name_naming_out_dir_or_its_parent_is_exit_2(cfg_file, tmp_path, capsys, run_name):
    # A run there would write into tmp_path/out or tmp_path and remove the
    # checkpoints and landscape.csv of whatever run it found.
    for name in ("best.ckpt", "epoch_3.ckpt", "landscape.csv", "metrics.csv", "config.echo"):
        (tmp_path / name).write_text(f"kept {name}\n", encoding="utf-8")
    before = {p: p.read_bytes() for p in tmp_path.iterdir()}
    code = cli.main(["train", "--config", str(cfg_file), "--set", f"run_name={run_name}"])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: run_name must be a plain directory name, got {run_name!r}\n"
    )
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["run_name", "out_dir"])
@pytest.mark.parametrize("value", ["x\ny", "x\x1cy", "x\x85y", "x\u2028y", "p\udc85q"])
def test_a_value_config_echo_cannot_hold_is_exit_2_before_any_directory(
    cfg_file, tmp_path, monkeypatch, capsys, key, value
):
    # "p\udc85q" is how Python decodes the argv bytes p, 0x85, q.
    monkeypatch.chdir(tmp_path)
    assert cli.main(["train", "--config", str(cfg_file), "--set", f"{key}={value}"]) == 2
    assert capsys.readouterr().err == (
        f"error: {key} must be one line of UTF-8 text, got {value!r}\n"
    )
    assert [p.name for p in tmp_path.iterdir()] == ["base.cfg"]


def test_config_file_that_is_not_utf8_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"run_name=\xff\n")
    assert cli.main(["train", "--config", str(bad)]) == 2
    assert capsys.readouterr().err == f"error: {bad}: config file is not UTF-8\n"



def test_a_key_set_twice_in_a_config_file_is_exit_2(tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text(SMALL_CFG + f"out_dir={tmp_path / 'out'}\ngamma=0.1\n\n gamma =0.2\n",
                   encoding="utf-8")
    first = SMALL_CFG.count("\n") + 2
    assert cli.main(["train", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {cfg}:{first + 2}: gamma is already set on line {first}\n"
    assert not (tmp_path / "out").exists()
    # An override on the command line still wins over the file's one setting.
    cfg.write_text(SMALL_CFG + "gamma=0.1\n", encoding="utf-8")
    mapping = cli.apply_overrides(cli.read_config_file(cfg), ["gamma=0.2"])
    assert cli.build_config(mapping).gamma == 0.2

@pytest.mark.parametrize("error, code, prefix", [
    (ConfigError("bad value"), 2, "error: "),
    (DataError("bad file"), 2, "error: "),
    (OSError("disk full"), 2, "error: "),
    (NumericError("loss is nan"), 3, "error: numeric abort: "),
])
@pytest.mark.parametrize("command, raiser", [
    ("train", "run_experiment"),
    ("sweep", "build_config"),
    ("landscape", "landscape_probe"),
])
def test_main_maps_each_error_to_its_exit_code(
    cfg_file, tmp_path, monkeypatch, capsys, command, raiser, error, code, prefix
):
    argv = {
        "train": ["train", "--config", str(cfg_file)],
        "sweep": ["sweep", "--config", str(cfg_file), "--param", "rho", "--values", "0.5"],
        "landscape": ["landscape", "--checkpoint", str(tmp_path / "out" / "run" / "best.ckpt")],
    }[command]
    if command == "landscape":
        assert cli.main(["train", "--config", str(cfg_file)]) == 0
        capsys.readouterr()

    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, raiser, fail)
    assert cli.main(argv) == code
    out = capsys.readouterr()
    assert out.err == f"{prefix}{error}\n"
    assert out.out == ""


@pytest.mark.parametrize("settings, message", [
    ({"finetune_mode": "lora", "lora_rank": "0"}, "lora mode needs lora_rank >= 1"),
    ({"lora_rank": "-3"}, "lora_rank must be >= 0, got -3"),
    ({"finetune_mode": "lora", "lora_rank": "-1"}, "lora_rank must be >= 0, got -1"),
])
def test_build_config_rejects_bad_adapter_settings(settings, message):
    # TrainConfig holds these keys; the model the config builds checks them.
    with pytest.raises(ConfigError) as info:
        cli.build_config(settings)
    assert str(info.value) == message


def test_negative_lora_rank_is_rejected_in_every_mode(cfg_file, tmp_path, capsys):
    for rank in ("-1", "-3"):
        for mode in ("full", "lora"):
            with pytest.raises(ConfigError, match="lora_rank must be >= 0"):
                cli.build_config({"lora_rank": rank, "finetune_mode": mode})
        code = cli.main(["train", "--config", str(cfg_file), "--set", f"lora_rank={rank}"])
        assert code == 2
        assert capsys.readouterr().err == f"error: lora_rank must be >= 0, got {rank}\n"
    assert not (tmp_path / "out").exists()


def test_a_lora_rank_in_full_mode_is_exit_2_before_any_run_dir(cfg_file, tmp_path, capsys):
    # A rank has no effect without finetune_mode=lora, so config.echo must not record one.
    with pytest.raises(ConfigError, match="lora_rank must be 0 unless finetune_mode=lora"):
        cli.build_config({"lora_rank": "4"})
    code = cli.main(["train", "--config", str(cfg_file), "--set", "lora_rank=4"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: lora_rank must be 0 unless finetune_mode=lora, got 4\n")
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


def test_numeric_abort_prints_only_its_error_line(cfg_file):
    # An overflowing update is caught by a later pass, not warned about.
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "wrf.cli", "train", "--config", str(cfg_file),
         "--set", "eta0=1e300"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: numeric abort: ")
    assert proc.stderr.count("\n") == 1, proc.stderr


def test_wrf_command_defaults_to_one_blas_thread():
    # On two CPUs one BLAS thread leaves a CPU for the worker.
    assert run_entry_probe() == ["1 1 1", "True False"]


def test_wrf_command_keeps_a_blas_setting_it_is_given():
    # OpenBLAS reads OPENBLAS_NUM_THREADS first; setting it would override OMP's 4.
    assert run_entry_probe(OMP_NUM_THREADS="4") == ["None 4 None", "False False"]


def test_an_overflowing_layer_norm_prints_only_the_abort_line(cfg_file):
    # The abort message's layer norms overflow too: no RuntimeWarning before it.
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "wrf.cli", "train", "--config", str(cfg_file),
         "--set", "weight_decay=1e300"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: numeric abort: ")
    assert proc.stderr.count("\n") == 1, proc.stderr


def test_a_non_finite_target_norm_is_exit_2_before_any_run_dir(cfg_file, tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["train", "--config", str(cfg_file), "--set", "noise_sigma=1e300"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: degenerate target: non-finite row norm while normalizing "
        "(noise_sigma=1e+300 is too large)\n")
    assert not (tmp_path / "out").exists()


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


# Driver -> (table headers its stdout holds, files its run writes under --out).
DRIVER_OUTPUTS = {
    "data_fractions": (1, ["sweep_summary.csv"]),
    "direction_ablation": (2, ["baseline/sweep_summary.csv", "rho_grid/sweep_summary.csv"]),
    "gamma_sweep": (1, ["sweep_summary.csv"]),
    "landscape_compare": (0, ["baseline/landscape.csv", "perturbed/landscape.csv"]),
}


@pytest.mark.parametrize("script", sorted(DRIVER_OUTPUTS))
def test_study_driver_runs_end_to_end(script, tmp_path, monkeypatch, capsys):
    # Each driver at the smoke size with one seed; its own knobs stay on
    # wherever SMALL_CFG does not set them.
    driver = importlib.import_module(script)
    for key, value in cli.parse_config_lines(SMALL_CFG.splitlines()).items():
        monkeypatch.setitem(driver.KNOBS, key, value)
    args = (0, 0.005) if script == "landscape_compare" else ("0",)
    assert driver.run(tmp_path, *args) == 0
    tables, files = DRIVER_OUTPUTS[script]
    assert sum(map(is_table_header, capsys.readouterr().out.splitlines())) == tables
    for name in files:
        assert (tmp_path / name).is_file(), name
