"""CLI contract tests: exit codes, file outputs, provenance, and the full
gen -> train -> predict -> risk -> eval pipeline."""

import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

import riskcast
from riskcast import config as cfgmod
from riskcast.cli import main
from riskcast.intention import JointPrediction
from riskcast.model import JointPredictor, ModelConfig, prediction_to_json
from riskcast.risk import RiskConfig
from riskcast.scene import (TEMPLATES, dump_scenario, generate_scenario,
                            load_scenario)
from riskcast.training import TrainConfig, split_dataset

TINY = [
    "--set", "gen.H=4", "--set", "gen.T=10",
    "--set", "model.future_steps=10", "--set", "model.embed_dim=8",
    "--set", "model.attention_heads=2", "--set", "model.transformer_layers=1",
    "--set", "model.n_modes=2",
]


def listdir(path):
    return sorted(os.listdir(path))


class TestGen:
    def test_writes_count_files(self, tmp_path):
        out = tmp_path / "d"
        code = main(["gen", "--template", "straight", "--count", "10",
                     "--seed", "1", "--out", str(out)] + TINY)
        assert code == 0
        files = [f for f in listdir(out) if f.startswith("scenario_")]
        assert len(files) == 10
        assert (out / "resolved_config.json").exists()

    def test_resolved_config_reproduces_outputs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["gen", "--template", "merge", "--count", "3", "--seed", "9",
              "--out", str(out1)] + TINY)
        cfg_path = out1 / "resolved_config.json"
        code = main(["gen", "--config", str(cfg_path), "--out", str(out2)])
        assert code == 0
        for name in ("scenario_0000.json", "scenario_0002.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_outputs_confined_to_out_dir(self, tmp_path):
        out = tmp_path / "only"
        before = set(os.listdir(tmp_path))
        main(["gen", "--count", "2", "--out", str(out)] + TINY)
        after = set(os.listdir(tmp_path))
        assert after - before == {"only"}


class TestErrors:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as e:
            main(["frobnicate", "--out", "x"])
        assert e.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as e:
            main(["gen", "--out", "x", "--frobnicate"])
        assert e.value.code == 2

    def test_missing_scenario_exits_1(self, tmp_path, capsys):
        ckpt = tmp_path / "m.json"
        ckpt.write_text("{}")
        code = main(["predict", "--model", str(ckpt), "--scenario",
                     "missing.json", "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "missing.json" in err

    def test_missing_model_exits_1(self, tmp_path, capsys):
        data = tmp_path / "d"
        main(["gen", "--count", "1", "--out", str(data)] + TINY)
        code = main(["predict", "--model", "nope.ckpt", "--scenario",
                     str(data / "scenario_0000.json"),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "nope.ckpt" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--model", "--scenario"])
    def test_predict_directory_input_exits_1(self, tmp_path, capsys, flag):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(dump_scenario(
            generate_scenario("straight", 3, seed=0, H=4, T=10)))
        ckpt = tmp_path / "model.ckpt"
        _tiny_checkpoint(ckpt)
        args = {"--model": str(ckpt), "--scenario": str(scenario)}
        args[flag] = str(tmp_path / "a_dir")
        os.mkdir(args[flag])
        code = main(["predict", "--model", args["--model"], "--scenario",
                     args["--scenario"], "--out", str(tmp_path / "o")]
                    + TINY)
        assert code == 1
        assert f"is a directory, not a file: {args[flag]}" in \
            capsys.readouterr().err

    def test_risk_directory_prediction_exits_1(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(dump_scenario(
            generate_scenario("straight", 3, seed=0, H=4, T=10)))
        pred_dir = tmp_path / "pred"
        pred_dir.mkdir()
        code = main(["risk", "--scenario", str(scenario), "--prediction",
                     str(pred_dir), "--out", str(tmp_path / "o")] + TINY)
        assert code == 1
        assert f"is a directory, not a file: {pred_dir}" in \
            capsys.readouterr().err

    def test_bad_config_key_exits_1(self, tmp_path, capsys):
        code = main(["gen", "--set", "nonsense.key=1",
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "nonsense.key" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["set", "config"])
    def test_unknown_config_key_prints_plainly(self, tmp_path, capsys,
                                               source):
        extra = ["--set", "train.split=[1,0,0]"]
        if source == "config":
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text('{"train.split": [1, 0, 0]}')
            extra = ["--config", str(cfg_path)]
        code = main(["train", "--data", str(tmp_path / "d"),
                     "--out", str(tmp_path / "o")] + extra)
        assert code == 1
        assert capsys.readouterr().err == \
            "error: unknown config key 'train.split'\n"

    def test_eval_needs_exactly_one_source(self, tmp_path, capsys):
        data = tmp_path / "d"
        main(["gen", "--count", "1", "--out", str(data)] + TINY)
        code = main(["eval", "--data", str(data),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "exactly one" in capsys.readouterr().err


def _rewrite(path, edit):
    """Rewrite a saved checkpoint with `edit` applied to its meta and its
    arrays."""
    with np.load(path) as npz:
        arrays = {k: npz[k] for k in npz.files}
    meta = json.loads(str(arrays["__meta__"]))
    edit(meta, arrays)
    arrays["__meta__"] = np.array(json.dumps(meta))
    with open(path, "wb") as f:
        np.savez(f, **arrays)


def _with_meta(path, key, value):
    """Rewrite a saved checkpoint's header to carry `value` at `key`."""
    _rewrite(path, lambda meta, arrays: meta.update({key: value}))


def _flip_middle(path):
    data = bytearray(path.read_bytes())
    mid = len(data) // 2
    data[mid:mid + 64] = bytes(b ^ 0xFF for b in data[mid:mid + 64])
    path.write_bytes(bytes(data))


def _object_tensor(path):
    _rewrite(path, lambda meta, arrays: arrays.update(
        params=np.array([{"not": "a float"}], dtype=object)))


def _version_3(meta, arrays):
    """The version-3 layout: one entry per parameter, named as it is."""
    vector = arrays.pop("params")
    lo = 0
    for name, shape in meta.pop("index"):
        size = int(np.prod(shape))
        arrays[name] = vector[lo:lo + size].reshape(shape)
        lo += size
    meta["version"] = 3


# each edit turns a saved tiny checkpoint into a malformed one
BAD_CHECKPOINTS = {
    "unknown_config_key": lambda p, cfg: _with_meta(
        p, "config", {**cfg, "bogus": 1}),
    "missing_config_key": lambda p, cfg: _with_meta(
        p, "config", {k: v for k, v in cfg.items() if k != "n_modes"}),
    "non_object_document": lambda p, cfg: p.write_text("[1, 2, 3]"),
    "config_value_wrong_type": lambda p, cfg: _with_meta(
        p, "config", {**cfg, "embed_dim": "8"}),
    "config_value_out_of_range": lambda p, cfg: _with_meta(
        p, "config", {**cfg, "n_modes": 0}),
    "truncated_zip": lambda p, cfg: p.write_bytes(
        p.read_bytes()[:p.stat().st_size // 2]),
    "corrupt_zip": lambda p, cfg: _flip_middle(p),
    "object_array": lambda p, cfg: _object_tensor(p),
    "truncated_params_vector": lambda p, cfg: _rewrite(
        p, lambda meta, arrays: arrays.update(params=arrays["params"][:-1])),
}


def _tiny_checkpoint(path):
    model = JointPredictor(ModelConfig(
        embed_dim=8, attention_heads=2, transformer_layers=1, n_modes=2,
        future_steps=10))
    model.save(str(path))
    return model


class TestBadInputs:
    @pytest.mark.parametrize("case", sorted(BAD_CHECKPOINTS))
    def test_malformed_checkpoint_exits_1(self, tmp_path, capsys, case):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(dump_scenario(
            generate_scenario("straight", 3, seed=0, H=4, T=10)))
        ckpt = tmp_path / "model.ckpt"
        model = _tiny_checkpoint(ckpt)
        BAD_CHECKPOINTS[case](ckpt, asdict(model.cfg))
        code = main(["predict", "--model", str(ckpt), "--scenario",
                     str(scenario), "--out", str(tmp_path / "o")] + TINY)
        assert code == 1
        assert "invalid checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("version", [2, 3, 5])
    def test_other_checkpoint_version_exits_1(self, tmp_path, capsys,
                                              version):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(dump_scenario(
            generate_scenario("straight", 3, seed=0, H=4, T=10)))
        ckpt = tmp_path / "model.ckpt"
        _tiny_checkpoint(ckpt)
        # version 3 in its own layout
        if version == 3:
            _rewrite(ckpt, _version_3)
        else:
            _with_meta(ckpt, "version", version)
        code = main(["predict", "--model", str(ckpt), "--scenario",
                     str(scenario), "--out", str(tmp_path / "o")] + TINY)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid checkpoint {ckpt}: "
                              f"unsupported checkpoint version {version}")
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_non_finite_checkpoint_exits_1(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(dump_scenario(
            generate_scenario("straight", 3, seed=0, H=4, T=10)))
        ckpt = tmp_path / "model.ckpt"
        _tiny_checkpoint(ckpt)
        with np.load(ckpt) as npz:
            arrays = {k: npz[k] if k == "__meta__" else np.full_like(
                npz[k], np.nan) for k in npz.files}
        with open(ckpt, "wb") as f:
            np.savez(f, **arrays)
        code = main(["predict", "--model", str(ckpt), "--scenario",
                     str(scenario), "--out", str(tmp_path / "o")] + TINY)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid checkpoint")
        assert "non-finite values" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    # weights of 1e200 are finite, so the checkpoint loads, but the forward
    # overflows; the error says so, and numpy warns of nothing on the way
    @pytest.mark.parametrize("command,verb", [("predict", "predict"),
                                              ("eval", "evaluate")])
    def test_overflowing_checkpoint_exits_1(self, tmp_path, capsys,
                                            tiny_data, command, verb):
        ckpt = tmp_path / "model.ckpt"
        model = _tiny_checkpoint(ckpt)
        for p in model.params():
            p.value[...] = 1e200
        model.save(str(ckpt))
        source = (["--scenario", str(tiny_data / "scenario_0000.json")]
                  if command == "predict" else ["--data", str(tiny_data)])
        out = tmp_path / "o"
        capsys.readouterr()
        code = main([command, "--model", str(ckpt), "--out", str(out)]
                    + source + TINY)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot {verb} ")
        assert "non-finite" in err and "Traceback" not in err
        assert not out.exists()

    def test_repeated_agent_id_exits_1(self, tmp_path, capsys):
        doc = json.loads(dump_scenario(
            generate_scenario("straight", 3, seed=1, H=4, T=10)))
        doc["agents"][2]["id"] = "ego"
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc))
        ckpt = tmp_path / "model.ckpt"
        _tiny_checkpoint(ckpt)
        code = main(["predict", "--model", str(ckpt), "--scenario",
                     str(scenario), "--out", str(tmp_path / "o")] + TINY)
        assert code == 1
        assert "'ego': the id is repeated" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_float_ego_index_exits_1(self, tmp_path, capsys):
        doc = json.loads(dump_scenario(
            generate_scenario("straight", 3, seed=0, H=4, T=10)))
        doc["ego_index"] = 0.0
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc))
        ckpt = tmp_path / "model.ckpt"
        _tiny_checkpoint(ckpt)
        code = main(["predict", "--model", str(ckpt), "--scenario",
                     str(scenario), "--out", str(tmp_path / "o")] + TINY)
        assert code == 1
        assert "$.ego_index" in capsys.readouterr().err


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    data = tmp_path_factory.mktemp("data")
    assert main(["gen", "--count", "3", "--out", str(data)] + TINY) == 0
    return data


# (command, extra arguments, the config key the error must name)
BAD_CONFIG_VALUES = {
    "epochs_below_stage1": ("train", ["--epochs", "1"],
                            "train.stage1_epochs"),
    "tau": ("train", ["--set", "train.tau=2"], "train.tau"),
    "heads_not_dividing": ("train", ["--set", "model.embed_dim=30",
                                     "--set", "model.attention_heads=4"],
                           "model.embed_dim"),
    "split_train_zero": ("train", ["--set", "train.split_train=0"],
                         "train.split_train"),
    "no_modes": ("train", ["--set", "model.n_modes=0"], "model.n_modes"),
    "mu1": ("train", ["--set", "risk.mu1=-1"], "risk.mu1"),
    "n_agents": ("gen", ["--set", "gen.n_agents=0"], "gen.n_agents"),
    "template": ("gen", ["--set", "gen.template=foo"], "gen.template"),
    "time_step": ("gen", ["--set", "gen.dt=0"], "gen.dt"),
    "training_split_rounds_to_none": (
        "train", ["--set", "train.split_train=0.05",
                  "--set", "train.split_val=0.8"], "train.split_train"),
    "integer_with_fraction": ("train", ["--set", "train.epochs=2.7"],
                              "train.epochs"),
    "infinite_float": ("train", ["--set", "train.lr=inf"], "train.lr"),
}


class TestBadConfigValues:
    @pytest.mark.parametrize("case", sorted(BAD_CONFIG_VALUES))
    def test_exits_1_naming_the_key(self, tmp_path, capsys, tiny_data,
                                    case):
        command, extra, key = BAD_CONFIG_VALUES[case]
        data = ["--data", str(tiny_data)] if command == "train" else []
        code = main([command, "--out", str(tmp_path / "o")] + data + TINY
                    + extra)
        assert code == 1
        assert key in capsys.readouterr().err

    def test_an_integer_beyond_the_float_range_exits_1(self, tmp_path,
                                                       capsys, tiny_data):
        # no float holds 400 nines, and the range check says so
        out = tmp_path / "o"
        code = main(["train", "--data", str(tiny_data), "--out", str(out),
                     "--set", f"model.embed_dim={'9' * 400}"])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: invalid config: model.embed_dim: "
                                   "999")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["2.7", "true", "NaN", "Infinity",
                                       '"3"'])
    def test_config_file_values_are_strict(self, tmp_path, capsys, value):
        # a JSON string of an integer is accepted, like --set's strings
        key = "train.lr" if value in ("NaN", "Infinity") else "train.epochs"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(f'{{"{key}": {value}}}')
        code = main(["gen", "--count", "1", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")] + TINY)
        assert code == (0 if value == '"3"' else 1)
        if code:
            assert key in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[1, 2]", "null", '"seed"'])
    def test_config_file_not_an_object_exits_1(self, tmp_path, capsys,
                                               text):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        out = tmp_path / "o"
        code = main(["gen", "--count", "1", "--config", str(cfg_path),
                     "--out", str(out)] + TINY)
        assert code == 1
        assert capsys.readouterr().err.startswith(
            f"error: config file {cfg_path}: expected a JSON object")
        assert not out.exists()


@pytest.mark.parametrize("command", ["gen", "train", "predict", "risk",
                                     "eval"])
def test_out_naming_a_file_exits_1(tmp_path, capsys, tiny_data, command):
    scenario = str(tiny_data / "scenario_0000.json")
    model = tmp_path / "model.ckpt"
    _tiny_checkpoint(model)
    pred = tmp_path / "pred"
    assert main(["predict", "--model", str(model), "--scenario", scenario,
                 "--out", str(pred)] + TINY) == 0
    inputs = {"gen": ["--count", "1"],
              "train": ["--data", str(tiny_data)],
              "predict": ["--model", str(model), "--scenario", scenario],
              "risk": ["--scenario", scenario,
                       "--prediction", str(pred / "prediction.json")],
              "eval": ["--data", str(tiny_data), "--model", str(model)]}
    out = tmp_path / "out.txt"
    out.write_text("kept")
    capsys.readouterr()
    under = out / "sub"
    for target, message in (
            (out, f"output directory is a file: {out}"),
            (under, f"cannot create output directory {under}: Not a "
                    f"directory")):
        code = main([command, "--out", str(target)] + inputs[command] + TINY)
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    assert out.read_text() == "kept"


# gen values that must end in a CliError naming their key, before any file
# is written: (extra arguments, the config key)
BAD_GEN_VALUES = {
    "negative_count": (["--set", "gen.count=-1"], "gen.count"),
    "zero_count": (["--count", "0"], "gen.count"),
    "no_history": (["--set", "gen.H=0"], "gen.H"),
    "no_future": (["--set", "gen.T=0"], "gen.T"),
    "time_step_overflows": (["--set", "gen.dt=1e-320"], "gen.dt"),
    **{f"time_step_{dt}_{template}": (["--template", template,
                                       "--set", f"gen.dt={dt}"], "gen.dt")
       for template in TEMPLATES for dt in ("1e-320", "5e-324")},
}


class TestBadGenValues:
    @pytest.mark.parametrize("case", sorted(BAD_GEN_VALUES))
    def test_exits_1_before_writing(self, tmp_path, capsys, case):
        extra, key = BAD_GEN_VALUES[case]
        out = tmp_path / "o"
        code = main(["gen", "--out", str(out)] + TINY + extra)
        assert code == 1
        assert key in capsys.readouterr().err
        assert not out.exists()


class TestConfigDefaults:
    def test_cli_defaults_build_the_api_defaults(self):
        assert cfgmod.model_config(cfgmod.DEFAULTS) == ModelConfig()
        assert cfgmod.train_config(cfgmod.DEFAULTS) == TrainConfig()
        assert cfgmod.risk_config(cfgmod.DEFAULTS) == RiskConfig()
        assert cfgmod.scenario(cfgmod.DEFAULTS, 0) == generate_scenario(
            "straight", 3, 0)

    def test_count_flag_beats_set(self, tmp_path):
        out = tmp_path / "o"
        assert main(["gen", "--set", "gen.count=7", "--count", "4",
                     "--out", str(out)] + TINY) == 0
        assert len([f for f in listdir(out)
                    if f.startswith("scenario_")]) == 4

    def test_template_flag_beats_set(self, tmp_path):
        out = tmp_path / "o"
        assert main(["gen", "--set", "gen.template=merge", "--template",
                     "left_turn", "--count", "1", "--out", str(out)]
                    + TINY) == 0
        doc = json.loads((out / "scenario_0000.json").read_text())
        assert doc["template"] == "left_turn"


class TestTrainData:
    def test_validation_ego_without_future_exits_1(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["gen", "--count", "10", "--out", str(data)]
                    + TINY) == 0
        # the split depends only on the scene count and the seed
        _, val, _ = split_dataset([None] * 10, TrainConfig())
        path = data / f"scenario_{val[0]:04d}.json"
        doc = json.loads(path.read_text())
        doc["agents"][doc["ego_index"]]["future"] = []
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        code = main(["train", "--data", str(data), "--out", str(out),
                     "--epochs", "1", "--set", "train.stage1_epochs=0"]
                    + TINY)
        assert code == 1
        err = capsys.readouterr().err
        assert repr(doc["scenario_id"]) in err and "future" in err
        assert not (out / "checkpoint.npz").exists()

    # a step of 1e-300 s overflows the generated velocities, so every risk
    # is NaN; the error says so, and numpy warns of nothing on the way
    def test_non_finite_risk_loss_exits_1(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["gen", "--count", "3", "--set", "gen.dt=1e-300",
                     "--out", str(data)] + TINY) == 0
        out = tmp_path / "o"
        capsys.readouterr()
        code = main(["train", "--data", str(data), "--out", str(out),
                     "--epochs", "1", "--set", "train.stage1_epochs=0"]
                    + TINY)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot train on ")
        assert "scenario 'straight-" in err and "risk loss nan" in err
        assert not (out / "checkpoint.npz").exists()


    # a step of 1e300 blows the weights up after one step, so the
    # validation forward overflows
    def test_overflowing_forward_exits_1(self, tmp_path, capsys, tiny_data):
        out = tmp_path / "o"
        capsys.readouterr()
        code = main(["train", "--data", str(tiny_data), "--out", str(out),
                     "--epochs", "1", "--set", "train.stage1_epochs=1",
                     "--set", "train.lr=1e300"] + TINY)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot train on ")
        assert "non-finite" in err and "Traceback" not in err
        assert not (out / "checkpoint.npz").exists()

    def test_scene_of_another_horizon_exits_1_naming_it(self, tmp_path,
                                                        capsys, tiny_data):
        data, longer = tmp_path / "data", tmp_path / "longer"
        shutil.copytree(tiny_data, data)
        assert main(["gen", "--count", "2", "--seed", "100", "--out",
                     str(longer)] + TINY + ["--set", "gen.T=20"]) == 0
        for i in range(2):
            shutil.copy(longer / f"scenario_{i:04d}.json",
                        data / f"scenario_long_{i}.json")
        ids = [json.loads((longer / f"scenario_{i:04d}.json").read_text())[
            "scenario_id"] for i in range(2)]
        out = tmp_path / "o"
        capsys.readouterr()
        code = main(["train", "--data", str(data), "--out", str(out),
                     "--epochs", "1", "--set", "train.stage1_epochs=1"]
                    + TINY)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot train on {data}: scenario ")
        assert any(repr(i) in err for i in ids)
        assert "future of 20 steps" in err and "future_steps (10)" in err
        assert not (out / "checkpoint.npz").exists()


class TestSeedPrecedence:
    def test_env_seed_overrides_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RISKCAST_SEED", "123")
        out = tmp_path / "env"
        main(["gen", "--count", "1", "--out", str(out)] + TINY)
        cfg = json.loads((out / "resolved_config.json").read_text())
        assert cfg["seed"] == 123

    def test_bad_env_seed_exits_1_naming_it(self, tmp_path, monkeypatch,
                                            capsys):
        monkeypatch.setenv("RISKCAST_SEED", "abc")
        out = tmp_path / "env"
        assert main(["gen", "--count", "1", "--out", str(out)] + TINY) == 1
        assert "RISKCAST_SEED: 'abc' is not an integer" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("via", ["flag", "env"])
    def test_negative_seed_exits_1_naming_it(self, tmp_path, monkeypatch,
                                             capsys, via):
        out = tmp_path / "neg"
        argv = ["gen", "--count", "1", "--out", str(out)] + TINY
        if via == "flag":
            argv += ["--seed", "-1"]
        else:
            monkeypatch.setenv("RISKCAST_SEED", "-1")
        assert main(argv) == 1
        assert "seed: -1 is not >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RISKCAST_SEED", "123")
        out = tmp_path / "flag"
        main(["gen", "--count", "1", "--seed", "77", "--out", str(out)]
             + TINY)
        cfg = json.loads((out / "resolved_config.json").read_text())
        assert cfg["seed"] == 77


class TestRisk:
    def _predict(self, tmp_path, scn):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(dump_scenario(scn))
        model_path = tmp_path / "model.json"
        JointPredictor(ModelConfig(
            embed_dim=8, attention_heads=2, transformer_layers=1,
            n_modes=2, future_steps=10)).save(str(model_path))
        pred_dir = tmp_path / "pred"
        assert main(["predict", "--model", str(model_path), "--scenario",
                     str(scenario), "--out", str(pred_dir)] + TINY) == 0
        return scenario, pred_dir / "prediction.json"

    def test_lists_agents_without_prediction(self, tmp_path):
        # the 50 m context radius drops the pedestrian of this scene
        scn = generate_scenario("crossing_conflict", 3, seed=0)
        scenario, pred_path = self._predict(tmp_path, scn)
        risk_dir = tmp_path / "risk"
        assert main(["risk", "--scenario", str(scenario), "--prediction",
                     str(pred_path), "--out", str(risk_dir)] + TINY) == 0
        doc = json.loads((risk_dir / "risk_report.json").read_text())
        assert doc["unpredicted"] == ["ped"]
        assert all(len(m["R"]) == 1 for m in doc["modes"])

    @pytest.mark.parametrize("template,dropped", [
        ("crossing_conflict", ["ped"]), ("straight", [])])
    def test_prediction_lists_agents_dropped_by_context_radius(
            self, tmp_path, template, dropped):
        scn = generate_scenario(template, 3, seed=0)
        _, pred_path = self._predict(tmp_path, scn)
        doc = json.loads(pred_path.read_text())
        assert doc["unpredicted"] == dropped
        predicted = {a["id"] for a in doc["modes"][0]["agents"]}
        assert predicted.isdisjoint(dropped)
        assert predicted | set(dropped) == set(scn.agent_ids)

    # a step of 1e-300 s overflows the generated velocities, so every risk
    # is NaN; the error says so, and numpy warns of nothing on the way
    def test_non_finite_ranking_exits_1(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["gen", "--count", "1", "--set", "gen.dt=1e-300",
                     "--out", str(data)] + TINY) == 0
        scn = load_scenario((data / "scenario_0000.json").read_text())
        scenario, pred_path = self._predict(tmp_path, scn)
        risk_dir = tmp_path / "risk"
        capsys.readouterr()
        assert main(["risk", "--scenario", str(scenario), "--prediction",
                     str(pred_path), "--out", str(risk_dir)] + TINY) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "non-finite risk score" in err
        assert repr(scn.scenario_id) in err
        assert not (risk_dir / "risk_report.json").exists()
        assert not risk_dir.exists()

    def test_prediction_of_another_scene_exits_1(self, tmp_path, capsys):
        # the two merge scenes have the same agent ids
        _, pred_path = self._predict(tmp_path,
                                     generate_scenario("merge", 3, seed=0))
        other = tmp_path / "other.json"
        other.write_text(dump_scenario(generate_scenario("merge", 3, seed=1)))
        risk_dir = tmp_path / "risk"
        capsys.readouterr()
        assert main(["risk", "--scenario", str(other), "--prediction",
                     str(pred_path), "--out", str(risk_dir)] + TINY) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot rank {pred_path}: ")
        assert "'merge-0'" in err and "'merge-1'" in err
        assert "Traceback" not in err
        assert not (risk_dir / "risk_report.json").exists()

    def test_prediction_without_ego_exits_1(self, tmp_path, capsys):
        scn = generate_scenario("straight", 3, seed=1)
        scenario, pred_path = self._predict(tmp_path, scn)
        doc = json.loads(pred_path.read_text())
        for mode in doc["modes"]:
            mode["agents"] = [a for a in mode["agents"] if a["id"] != "ego"]
        pred_path.write_text(json.dumps(doc))
        assert main(["risk", "--scenario", str(scenario), "--prediction",
                     str(pred_path), "--out", str(tmp_path / "risk")]
                    + TINY) == 1
        assert "ego" in capsys.readouterr().err


def _truth_prediction(scn):
    """A two-mode prediction.json document made of the scene's futures."""
    truth = scn.future[:, :, :2]
    jp = JointPrediction(np.stack([truth, truth + 0.5]), np.array([0.6, 0.4]),
                         scn.agent_ids.tolist(), scn.scenario_id)
    return json.loads(json.dumps(prediction_to_json(jp, [])))


def _without_modes(doc):
    del doc["modes"]


def _empty_modes(doc):
    doc["modes"] = []


def _modes_not_array(doc):
    doc["modes"] = 1


def _ids_differ(doc):
    doc["modes"][1]["agents"].reverse()


def _ragged_points(doc):
    doc["modes"][1]["agents"][2]["points"].pop()


def _short_point(doc):
    doc["modes"][0]["agents"][1]["points"][3] = [1.0]


def _short_mode(doc):
    for agent in doc["modes"][1]["agents"]:
        agent["points"].pop()


def _point_not_pair(doc):
    doc["modes"][0]["agents"][1]["points"][3] = [1.0, 2.0, 3.0]


def _nan_point(doc):
    doc["modes"][0]["agents"][0]["points"][4][1] = math.nan


def _infinite_p(doc):
    doc["modes"][1]["p"] = math.inf


def _string_point(doc):
    doc["modes"][0]["agents"][0]["points"][0][0] = "x"


# numpy would parse both as numbers
def _numeric_string_p(doc):
    doc["modes"][0]["p"] = "0.6"


def _bool_point(doc):
    doc["modes"][1]["agents"][1]["points"][2][0] = True


MALFORMED_PREDICTIONS = {
    "without_modes": _without_modes, "empty_modes": _empty_modes,
    "modes_not_array": _modes_not_array, "ids_differ": _ids_differ,
    "ragged_points": _ragged_points, "short_point": _short_point,
    "short_mode": _short_mode, "point_not_pair": _point_not_pair,
    "nan_point": _nan_point, "infinite_p": _infinite_p,
    "string_point": _string_point, "numeric_string_p": _numeric_string_p,
    "bool_point": _bool_point,
}


class TestMalformedPredictions:
    @pytest.fixture
    def scene(self, tmp_path):
        scn = generate_scenario("straight", 3, seed=0, H=4, T=10)
        path = tmp_path / "scenario.json"
        path.write_text(dump_scenario(scn))
        return scn, path

    def _risk(self, tmp_path, scenario, text):
        pred = tmp_path / "bad_prediction.json"
        pred.write_bytes(text.encode() if isinstance(text, str) else text)
        code = main(["risk", "--scenario", str(scenario), "--prediction",
                     str(pred), "--out", str(tmp_path / "risk")] + TINY)
        return code, pred

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]", b"\xff"],
                             ids=["not_json", "not_object", "not_utf8"])
    def test_risk_unreadable_prediction_exits_1(self, tmp_path, capsys,
                                                scene, text):
        code, pred = self._risk(tmp_path, scene[1], text)
        assert code == 1
        assert f"invalid prediction {pred}" in capsys.readouterr().err

    @pytest.mark.parametrize("mutate", MALFORMED_PREDICTIONS.values(),
                             ids=MALFORMED_PREDICTIONS.keys())
    def test_risk_malformed_prediction_exits_1(self, tmp_path, capsys,
                                               scene, mutate):
        doc = _truth_prediction(scene[0])
        mutate(doc)
        code, pred = self._risk(tmp_path, scene[1], json.dumps(doc))
        assert code == 1
        assert f"invalid prediction {pred}" in capsys.readouterr().err

    def test_risk_well_formed_prediction_ranks(self, tmp_path, scene):
        code, _ = self._risk(tmp_path, scene[1],
                             json.dumps(_truth_prediction(scene[0])))
        assert code == 0

    def _eval(self, tmp_path, scn, text):
        data = tmp_path / "data"
        data.mkdir()
        (data / "scenario_0000.json").write_text(dump_scenario(scn))
        preds = tmp_path / "preds"
        preds.mkdir()
        bad = preds / "p0.json"
        bad.write_text(text)
        code = main(["eval", "--data", str(data), "--predictions",
                     str(preds), "--out", str(tmp_path / "eval")] + TINY)
        return code, bad

    # a JSON object without modes is not a prediction, and eval skips it
    @pytest.mark.parametrize("name", [name for name in MALFORMED_PREDICTIONS
                                      if name != "without_modes"])
    def test_eval_malformed_prediction_exits_1(self, tmp_path, capsys,
                                               scene, name):
        doc = _truth_prediction(scene[0])
        MALFORMED_PREDICTIONS[name](doc)
        code, bad = self._eval(tmp_path, scene[0], json.dumps(doc))
        assert code == 1
        assert f"invalid prediction {bad}" in capsys.readouterr().err

    def test_eval_unreadable_prediction_exits_1(self, tmp_path, capsys,
                                                scene):
        code, bad = self._eval(tmp_path, scene[0], "{not json")
        assert code == 1
        assert f"invalid prediction {bad}" in capsys.readouterr().err

    def test_eval_prediction_of_unknown_agent_exits_1(self, tmp_path, capsys,
                                                      scene):
        doc = _truth_prediction(scene[0])
        for mode in doc["modes"]:
            mode["agents"][1]["id"] = "stranger"
        code, _ = self._eval(tmp_path, scene[0], json.dumps(doc))
        assert code == 1
        assert "stranger" in capsys.readouterr().err

    def test_eval_prediction_without_ego_exits_1(self, tmp_path, capsys,
                                                 scene):
        doc = _truth_prediction(scene[0])
        for mode in doc["modes"]:
            mode["agents"] = [a for a in mode["agents"]
                              if a["id"] != scene[0].ego_id]
        code, _ = self._eval(tmp_path, scene[0], json.dumps(doc))
        assert code == 1
        assert "no prediction for the ego" in capsys.readouterr().err

    def test_eval_prediction_shorter_than_horizon_exits_1(
            self, tmp_path, capsys, scene):
        doc = _truth_prediction(scene[0])
        for mode in doc["modes"]:
            for agent in mode["agents"]:
                del agent["points"][5:]
        code, _ = self._eval(tmp_path, scene[0], json.dumps(doc))
        assert code == 1
        assert "exceeds trajectory length" in capsys.readouterr().err

    def test_eval_scene_shorter_than_horizon_names_it(self, tmp_path,
                                                       capsys):
        # the first scene sets a 5 s horizon, 50 steps; the second has 30
        data, preds = tmp_path / "data", tmp_path / "preds"
        data.mkdir()
        preds.mkdir()
        for i, scn in enumerate([generate_scenario("straight", 2, 0, T=50),
                                 generate_scenario("merge", 2, 2, T=30)]):
            (data / f"scenario_{i:04d}.json").write_text(dump_scenario(scn))
            (preds / f"p{i}.json").write_text(
                json.dumps(_truth_prediction(scn)))
        code = main(["eval", "--data", str(data), "--predictions",
                     str(preds), "--out", str(tmp_path / "eval")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: cannot evaluate {preds}: scenario 'merge-2': horizon "
            f"50 exceeds trajectory length 30\n")

    # points 1e200 m off overflow the squared errors to inf, without a
    # numpy warning
    def test_eval_infinite_error_exits_1(self, tmp_path, capsys, scene):
        doc = _truth_prediction(scene[0])
        for agent in doc["modes"][0]["agents"]:
            agent["points"] = [[x + 1e200, y] for x, y in agent["points"]]
        code, _ = self._eval(tmp_path, scene[0], json.dumps(doc))
        assert code == 1
        assert capsys.readouterr().err.startswith(
            f"error: cannot evaluate {tmp_path / 'preds'}: scenario "
            f"{scene[0].scenario_id!r}: an error is not finite")
        assert not (tmp_path / "eval" / "metrics.json").exists()
        assert not (tmp_path / "eval" / "metrics.csv").exists()

    def test_eval_well_formed_prediction_evaluates(self, tmp_path, scene):
        code, _ = self._eval(tmp_path, scene[0],
                             json.dumps(_truth_prediction(scene[0])))
        assert code == 0

    def test_eval_directory_among_predictions_exits_1(self, tmp_path,
                                                       capsys, scene):
        data, preds = tmp_path / "data", tmp_path / "preds"
        data.mkdir()
        (data / "scenario_0000.json").write_text(dump_scenario(scene[0]))
        (preds / "odd.json").mkdir(parents=True)
        (preds / "p0.json").write_text(
            json.dumps(_truth_prediction(scene[0])))
        out = tmp_path / "eval"
        code = main(["eval", "--data", str(data), "--predictions",
                     str(preds), "--out", str(out)] + TINY)
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: prediction file is a directory, not a file: "
            f"{preds / 'odd.json'}\n")
        assert not out.exists()

    def test_eval_repeated_scenario_id_exits_1(self, tmp_path, capsys,
                                               scene):
        data = tmp_path / "data"
        data.mkdir()
        (data / "scenario_0000.json").write_text(dump_scenario(scene[0]))
        preds = tmp_path / "preds"
        preds.mkdir()
        text = json.dumps(_truth_prediction(scene[0]))
        for name in ("p0.json", "p1.json"):
            (preds / name).write_text(text)
        out = tmp_path / "eval"
        code = main(["eval", "--data", str(data), "--predictions",
                     str(preds), "--out", str(out)] + TINY)
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {preds / 'p0.json'} and {preds / 'p1.json'} both "
            f"predict scenario {scene[0].scenario_id!r}\n")
        assert not out.exists()


class TestPipeline:
    def test_full_pipeline(self, tmp_path):
        data = tmp_path / "data"
        run = tmp_path / "run"
        assert main(["gen", "--template", "crossing_conflict", "--count",
                     "6", "--seed", "3", "--out", str(data)] + TINY) == 0

        assert main(["train", "--data", str(data), "--epochs", "2",
                     "--set", "train.stage1_epochs=1",
                     "--set", "train.batch_size=3",
                     "--set", "train.split_train=1.0",
                     "--set", "train.split_val=0.0",
                     "--set", "train.split_test=0.0",
                     "--out", str(run)] + TINY) == 0
        model_path = run / "model_final.npz"
        assert model_path.exists()
        assert (run / "train_log.csv").exists()

        pred_dir = tmp_path / "pred"
        scenario = data / "scenario_0000.json"
        assert main(["predict", "--model", str(model_path), "--scenario",
                     str(scenario), "--out", str(pred_dir)] + TINY) == 0
        pred_path = pred_dir / "prediction.json"
        assert pred_path.exists()
        doc = json.loads(pred_path.read_text())
        assert doc["modes"] and doc["intentions"]
        csv_lines = (pred_dir / "prediction.csv").read_text().splitlines()
        assert csv_lines[0] == "scenario_id,agent_id,mode_k,t,x,y,p_k"
        assert len(csv_lines) > 1

        risk_dir = tmp_path / "risk"
        assert main(["risk", "--scenario", str(scenario), "--prediction",
                     str(pred_path), "--out", str(risk_dir)] + TINY) == 0
        risk_doc = json.loads((risk_dir / "risk_report.json").read_text())
        assert len(risk_doc["modes"]) == 2
        assert sorted(risk_doc["order"]) == [0, 1]

        # eval from checkpoint
        eval_dir = tmp_path / "eval_model"
        assert main(["eval", "--data", str(data), "--model",
                     str(model_path), "--out", str(eval_dir)] + TINY) == 0
        assert (eval_dir / "metrics.csv").exists()
        assert (eval_dir / "metrics.json").exists()

        # eval from saved predictions
        pred_all = tmp_path / "pred_all"
        pred_all.mkdir()
        for i in range(6):
            scn_path = data / f"scenario_{i:04d}.json"
            out_i = tmp_path / f"p{i}"
            assert main(["predict", "--model", str(model_path),
                         "--scenario", str(scn_path),
                         "--out", str(out_i)] + TINY) == 0
            (pred_all / f"p{i}.json").write_text(
                (out_i / "prediction.json").read_text())
        eval_dir2 = tmp_path / "eval_pred"
        assert main(["eval", "--data", str(data), "--predictions",
                     str(pred_all), "--out", str(eval_dir2)] + TINY) == 0
        metrics = json.loads((eval_dir2 / "metrics.json").read_text())
        assert metrics["rows"]

    def test_eval_writes_strict_json(self, tmp_path):
        # a straight dataset leaves the conflict, LT and RT subsets empty
        data = tmp_path / "data"
        assert main(["gen", "--template", "straight", "--count", "2",
                     "--out", str(data)] + TINY) == 0
        model = tmp_path / "model.npz"
        _tiny_checkpoint(model)
        out = tmp_path / "eval"
        assert main(["eval", "--data", str(data), "--model", str(model),
                     "--out", str(out)] + TINY) == 0

        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        metrics = json.loads((out / "metrics.json").read_text(),
                             parse_constant=refuse)
        empty = [row for row in metrics["rows"] if row["count"] == 0]
        assert {row["subset"] for row in empty} == {"conflict", "LT", "RT"}
        assert all(row["h1s"] is None for row in empty)
        assert all(isinstance(row["h1s"], float) for row in metrics["rows"]
                   if row["count"])

    def test_predict_reproducible_bit_exact(self, tmp_path):
        data = tmp_path / "data"
        run = tmp_path / "run"
        main(["gen", "--template", "straight", "--count", "3", "--seed",
              "5", "--out", str(data)] + TINY)
        main(["train", "--data", str(data), "--epochs", "1",
              "--set", "train.stage1_epochs=1",
              "--set", "train.split_train=1.0",
              "--set", "train.split_val=0.0",
              "--set", "train.split_test=0.0",
              "--out", str(run)] + TINY)
        outs = []
        for name in ("p1", "p2"):
            out = tmp_path / name
            main(["predict", "--model", str(run / "model_final.npz"),
                  "--scenario", str(data / "scenario_0001.json"),
                  "--out", str(out)] + TINY)
            outs.append((out / "prediction.json").read_bytes())
        assert outs[0] == outs[1]


def test_cli_import_leaves_scipy_stats_unloaded():
    # importing scipy.stats takes about a second and ~45 MB of memory
    src = os.path.dirname(os.path.dirname(os.path.abspath(riskcast.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, riskcast.cli; print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True, timeout=120, check=True,
        env=dict(os.environ, PYTHONPATH=path))
    assert out.stdout.strip() == "False"


def test_ranking_and_training_leave_scipy_special_unloaded():
    # importing scipy.special takes ~0.3 s and ~23 MB of memory; the disc
    # probability's series stands in for it below risk.WIDE_Y, which no
    # default scene reaches
    src = os.path.dirname(os.path.dirname(os.path.abspath(riskcast.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = "\n".join([
        "import sys, riskcast.cli",
        "from riskcast.model import JointPredictor, ModelConfig",
        "from riskcast.risk import rank_trajectories",
        "from riskcast.scene import generate_scenario",
        "from riskcast.training import TrainConfig, train",
        "scn = generate_scenario('crossing_conflict', 16, 0)",
        "rank_trajectories(JointPredictor(ModelConfig()).predict(scn)[0], "
        "scn)",
        "train([generate_scenario('merge', 3, s) for s in range(4)], "
        "ModelConfig(), TrainConfig(batch_size=4, epochs=1, "
        "stage1_epochs=0, split=(1.0, 0.0, 0.0)))",
        "print('scipy.special' in sys.modules)"])
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=120, check=True, env=dict(os.environ, PYTHONPATH=path))
    assert out.stdout.strip() == "False"
