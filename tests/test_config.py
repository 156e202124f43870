"""The config file builds the library's own config types at load.

Every value is checked once, by the type that uses it, when the config
loads; a bad value exits 2 with a ConfigError naming its section before
any computation starts.
"""

import re
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from deqlab.cli import main
from deqlab.concentration import (
    check_grid,
    derive_seed,
    fresh_randomness_reconstruct,
    lambda0_vs_width,
    layer_iterates,
    tied_vs_population,
)
from deqlab.config import (
    ConcentrationSection,
    DataConfig,
    ModelConfig,
    OutputSection,
    TrainSection,
    load_config,
)
from deqlab.data import Dataset, gen_sphere_data
from deqlab.errors import ConfigError, InputError
from deqlab.kernel import kernel_layer_sequence
from deqlab.linalg import spectral_norm
from deqlab.model import SolverConfig, init_params
from deqlab.reporting import config_hash
from deqlab.train import TrainConfig

DESK = Path(__file__).resolve().parents[1] / "configs" / "synthetic_desk.yaml"


@pytest.fixture
def runner():
    return CliRunner()


class TestExponentFloats:
    def test_from_file(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text("solver:\n  tol: 1e-8\ntrain:\n  eta: 2E-3\n")
        cfg, _ = load_config(path)
        assert cfg.solver.tol == 1e-8 and isinstance(cfg.solver.tol, float)
        assert cfg.train.eta == 2e-3
        # the shipped config's dotted form reads as before
        assert load_config(DESK)[0].solver.tol == 1e-8

    def test_from_override(self):
        cfg, doc = load_config(None, ["solver.tol=1e-8", "train.eta=1e-3",
                                      "data.y_cap=1.5e3"])
        assert cfg.solver.tol == 1e-8 and cfg.train.eta == 1e-3
        assert cfg.data.y_cap == 1500.0
        assert doc["solver"]["tol"] == 1e-8

    def test_override_reaches_a_run(self, runner, tmp_path):
        result = runner.invoke(main, [
            "check", "--set", "data.n=6", "--set", "data.d=5",
            "--set", "model.m=12", "--set", "solver.tol=1e-8",
            "--set", f"output.directory={tmp_path}"])
        assert result.exit_code == 0, result.output


class TestSections:
    def test_train_runs_on_the_solver_section(self):
        cfg, doc = load_config(None, ["solver.tol=1e-6", "train.steps=7"])
        assert type(cfg.solver) is SolverConfig
        assert isinstance(cfg.train, TrainConfig)
        assert cfg.train.solver is cfg.solver
        assert cfg.train.steps == 7
        assert "solver" not in doc["train"]
        # the train section has no solver key of its own
        with pytest.raises(ConfigError, match=r"unknown keys in section 'train'"):
            load_config(None, ["train.solver=1"])

    def test_empty_section_takes_overrides(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("train:\n")
        assert load_config(path)[0].train.steps == 500
        cfg, doc = load_config(path, ["train.steps=5"])
        assert cfg.train.steps == 5 and doc["train"]["steps"] == 5

    def test_list_root_with_override_exits_2(self, runner, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- train\n")
        result = runner.invoke(main, ["gen-data", "-c", str(path),
                                      "--set", "data.n=4",
                                      "--set", f"output.directory={tmp_path}"])
        assert result.exit_code == 2, result.output
        assert "config root must be a mapping" in result.output

    @pytest.mark.parametrize("item, section", [
        ("model.m=abc", "model"),
        ("data.n=abc", "data"),
        ("concentration.trials=x", "concentration"),
        ("train.steps=x", "train"),
        ("solver.tol=abc", "solver"),
        ("data.seed=abc", "data"),
        ("train.monitor_every=true", "train"),
        ("output.directory=5", "output"),
        ("model.m=[100, x]", "model"),
        ("model.m=[10.5]", "model"),
        ("model.m=[true]", "model"),
        ("concentration.m_list=[10.5]", "concentration"),
    ])
    def test_mistyped_value_exits_2(self, runner, tmp_path, item, section):
        result = runner.invoke(main, ["gen-data",
                                      "--set", f"output.directory={tmp_path}",
                                      "--set", item])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "error (ConfigError)" in result.output
        assert f"section {section!r}" in result.output

    def test_range_checked_at_load(self, runner, tmp_path):
        result = runner.invoke(main, [
            "train", "--set", "data.n=6", "--set", "data.d=5",
            "--set", "model.m=[8, 12]", "--set", "train.monitor_every=0",
            "--set", f"output.directory={tmp_path}"])
        assert result.exit_code == 2, result.output
        assert "section 'train'" in result.output
        assert "shared eta" not in result.output

    @pytest.mark.parametrize("value", [".nan", ".inf", "-.inf", "0", "-1"])
    @pytest.mark.parametrize("key, command", [
        ("solver.tol", "train"), ("train.eta", "train"),
        ("data.y_cap", "gen-data")])
    def test_non_finite_value_exits_2(self, runner, tmp_path, key, command,
                                      value):
        # a nan tolerance never stops a solve, and an infinite one stops
        # it at once; a non-finite eta breaks W within one step; a y_cap
        # of 0 would clip every label to 0. Zero and negative values fail
        # the same check.
        result = runner.invoke(main, [
            command, "--set", "data.n=6", "--set", "data.d=5",
            "--set", "model.m=12", "--set", "train.steps=2",
            "--set", f"{key}={value}",
            "--set", f"output.directory={tmp_path}"])
        assert result.exit_code == 2, result.output
        assert "error (ConfigError)" in result.output
        assert all(part in result.output for part in key.split("."))
        assert "positive and finite" in result.output
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("item", [
        "train.warm_start=true", "train.auto_eta_safety=0.5",
        "data.images=x.idx", "data.path=x.bin", "data.per_class=5",
        "train.assert_mode=record",
        "concentration.reconstruct_i=0", "concentration.reconstruct_j=1",
        "concentration.reconstruct_l=3", "concentration.reconstruct_m=200",
        "kernel.l_max=60", "kernel.tol=1e-14", "kernel.width_constant=1.0",
        "kernel.depth_constant=1.0", "kernel.failure_prob=0.01",
        "concentration.experiments=[kernel_depth_decay]"])
    def test_removed_train_keys_exit_2(self, runner, tmp_path, item):
        # train always warm-starts and raises WellPosednessError on an
        # ill-posed W; auto eta is 1 / lambda_max(H); image data enters
        # through data.kind: file, which reads no such key; the kernel
        # command and the reconstruct experiment run at fixed settings;
        # and `deqlab kernel` writes the depth-decay series. The values
        # are the old defaults, so only the key itself can be refused.
        out = tmp_path / "o"
        result = runner.invoke(main, ["gen-data", "--set", item,
                                      "--set", f"output.directory={out}"])
        assert result.exit_code == 2, result.output
        section, key = item.split("=")[0].split(".")
        if section == "kernel":
            assert "unknown config sections: ['kernel']" in result.output
        elif key == "experiments":
            assert ("unknown concentration experiment 'kernel_depth_decay'"
                    in result.output)
        else:
            assert (f"unknown keys in section {section!r}: [{key!r}]"
                    in result.output)
        assert not out.exists()


MISTYPED = [
    ("data.n=abc", lambda: DataConfig(n="abc")),
    ("model.m=[10.5]", lambda: ModelConfig(m=[10.5])),
    ("model.seed=true", lambda: ModelConfig(seed=True)),
    ("concentration.m_list=[100, x]", lambda: ConcentrationSection(m_list=[100, "x"])),
    ("output.directory=5", lambda: OutputSection(directory=5)),
    ("train.checkpoint_every=1.5", lambda: TrainSection(checkpoint_every=1.5)),
]


class TestLibraryTypes:
    """A section built in Python refuses a mistyped value as the config
    file does, with the file's message less its section prefix."""

    @pytest.mark.parametrize("item, build", MISTYPED, ids=[item for item, _ in MISTYPED])
    def test_same_refusal_as_the_file(self, item, build):
        with pytest.raises(InputError) as built:
            build()
        section = item.split(".")[0]
        with pytest.raises(ConfigError, match=re.escape(f"section {section!r}: {built.value}")):
            load_config(None, [item])


def _x():
    return gen_sphere_data(4, 3, seed=0).x


def _p():
    return init_params(10, 3, 0.08, seed=0)


# Each range rule has one owner in the library. Per rule: an out-of-range
# config entry, the section built in Python with that value, and every
# library entry point that holds the rule, called with the value.
RANGE = [
    ("solver.tol=0", lambda: SolverConfig(tol=0), [
        lambda: spectral_norm(np.eye(2), tol=0)]),
    ("solver.max_iter=0", lambda: SolverConfig(max_iter=0), [
        lambda: spectral_norm(np.eye(2), max_iter=0)]),
    ("concentration.l=0", lambda: ConcentrationSection(l=0), [
        lambda: next(kernel_layer_sequence(_x(), 0.08, 0)),
        lambda: layer_iterates(_p(), _x(), 0),
        lambda: tied_vs_population(_x(), 0.08, [4], 0, 1, 0),
        lambda: fresh_randomness_reconstruct(_p(), _x(), 0, 1, 0)]),
    ("model.m=[]", lambda: ModelConfig(m=[]), [
        lambda: check_grid([])]),
    ("model.m=[20, 20]", lambda: ModelConfig(m=[20, 20]), [
        lambda: check_grid([20, 20]),
        lambda: tied_vs_population(_x(), 0.08, [20, 20], 1, 1, 0),
        lambda: lambda0_vs_width(_x(), 0.08, [20, 20], 1, 0)]),
    ("data.y_cap=0", lambda: DataConfig(y_cap=0), [
        lambda: Dataset(x=_x(), y=np.zeros(4), y_cap=0),
        lambda: gen_sphere_data(4, 3, 0, y_cap=0)]),
    ("data.n=0", lambda: DataConfig(n=0), [
        lambda: gen_sphere_data(0, 1000, 0)]),
    ("data.d=1", lambda: DataConfig(d=1), [
        lambda: gen_sphere_data(1000, 1, 0)]),
    ("data.seed=-1", lambda: DataConfig(seed=-1), [
        lambda: gen_sphere_data(4, 3, -1)]),
    ("model.seed=-1", lambda: ModelConfig(seed=-1), [
        lambda: init_params(10, 4, 0.08, -1)]),
    ("concentration.base_seed=-1", lambda: ConcentrationSection(base_seed=-1), [
        lambda: derive_seed(-1, 10, 0)]),
    ("concentration.trials=0", lambda: ConcentrationSection(trials=0), [
        lambda: check_grid([4], 0),
        lambda: tied_vs_population(_x(), 0.08, [4], 1, 0, 0),
        lambda: lambda0_vs_width(_x(), 0.08, [4], 0, 0)]),
    ("train.steps=0", lambda: TrainSection(steps=0), [
        lambda: TrainConfig(steps=0)]),
    ("train.monitor_every=0", lambda: TrainSection(monitor_every=0), [
        lambda: TrainConfig(monitor_every=0)]),
    ("train.checkpoint_every=-1", lambda: TrainSection(checkpoint_every=-1), []),
]


class TestRangeOwners:
    """An out-of-range value is refused by the library function that owns
    its rule, with one message wherever it comes from: the config file
    prefixes the section, and a library entry point names the value by its
    own parameter (`depth` for `l`, `m_list` for `m`)."""

    @pytest.mark.parametrize("item, build, calls", RANGE,
                             ids=[item for item, *_ in RANGE])
    def test_one_refusal_per_rule(self, item, build, calls):
        with pytest.raises(InputError) as built:
            build()
        assert not isinstance(built.value, ConfigError)
        message = str(built.value)
        section = item.split(".")[0]
        with pytest.raises(ConfigError) as loaded:
            load_config(None, [item])
        assert str(loaded.value) == f"section {section!r}: {message}"
        for call in calls:
            with pytest.raises(InputError) as refused:
                call()
            assert str(refused.value).partition(" ")[2] == message.partition(" ")[2]


class TestLoadRefusals:
    """Values no command can run exit 2 at load, before any output exists."""

    @pytest.mark.parametrize("command, key", [
        ("check", "data.seed"), ("train", "model.seed"),
        ("concentration", "concentration.base_seed")])
    def test_negative_seed(self, runner, tmp_path, command, key):
        out = tmp_path / "o"
        result = runner.invoke(main, [
            command, "--set", "data.n=6", "--set", "data.d=5",
            "--set", "model.m=12", "--set", f"{key}=-1",
            "--set", f"output.directory={out}"])
        assert result.exit_code == 2, result.output
        section, name = key.split(".")
        assert (f"error (ConfigError): section {section!r}: {name} must be "
                f"an int >= 0, got -1") in result.output
        assert not out.exists()

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_output_directory_under_a_file(self, runner, tmp_path, below):
        blocker = tmp_path / "f"
        blocker.write_text("kept\n")
        out = blocker / below  # "" leaves the file's own path
        result = runner.invoke(main, [
            "kernel", "--set", "data.n=6", "--set", "data.d=5",
            "--set", f"output.directory={out}"])
        assert result.exit_code == 2, result.output
        assert (f"error (ConfigError): output.directory {out}: {blocker} "
                f"is not a directory") in result.output
        assert blocker.read_text() == "kept\n"


CLASS_TYPED = [
    ("TrainConfig-1", lambda: TrainConfig(solver=1), 1),
    ("TrainConfig-str", lambda: TrainConfig(solver="x"), "x"),
    ("TrainSection-str", lambda: TrainSection(solver="x"), "x"),
]


class TestClassTypedFields:
    """A field typed by a class takes only its instances: `train_steps`
    would otherwise fail on `solver.max_iter` long after construction."""

    @pytest.mark.parametrize("build, value", [c[1:] for c in CLASS_TYPED],
                             ids=[c[0] for c in CLASS_TYPED])
    def test_refuses_a_non_instance(self, build, value):
        with pytest.raises(InputError) as built:
            build()
        assert str(built.value) == f"solver must be SolverConfig, got {value!r}"


class TestModelSection:
    @pytest.mark.parametrize("item", [
        "model.m=[40, 20]",
        "model.m=[20, 20]",
        "model.m=[0]",
    ])
    def test_rejected_at_load(self, item):
        # a width below 1 is refused by the width rule, before the order
        message = ("m must be an int >= 1, got 0" if item == "model.m=[0]"
                   else "m must be strictly ascending")
        with pytest.raises(ConfigError, match=re.escape(f"section 'model': {message}")):
            load_config(None, [item])


class TestConcentrationSection:
    @pytest.mark.parametrize("item", [
        "concentration.m_list=[40, 20]",
        "concentration.m_list=[20, 20]",
        "concentration.experiments=[reconstruct, reconstruct]",
        # removed experiment, refused by name
        "concentration.experiments=[equilibrium_depth_decay]",
        # removed keys, refused at load whatever their value
        "concentration.reconstruct_l=0",
        "concentration.reconstruct_m=0",
        "concentration.reconstruct_i=-1",
        "concentration.reconstruct_j=-1",
    ])
    def test_rejected_at_load(self, item):
        with pytest.raises(ConfigError, match=item.split("=")[0].split(".")[1]):
            load_config(None, [item])


class TestResumeChecks:
    def test_width_list_fails_at_load(self, runner, tmp_path):
        ckpt = tmp_path / "ckpt.npz"
        ckpt.write_bytes(b"")
        result = runner.invoke(main, [
            "train", "--set", "data.n=6", "--set", "data.d=5",
            "--set", "model.m=[8, 12]", "--set", f"train.resume={ckpt}",
            "--set", f"output.directory={tmp_path / 'o'}"])
        assert result.exit_code == 2, result.output
        assert "single model.m" in result.output
        assert "shared eta" not in result.output

    def test_missing_sidecar_fails_at_load(self, runner, tmp_path):
        # a format-1 checkpoint kept its state in a JSON sidecar; with or
        # without one, its version is refused before any output exists
        p = init_params(8, 5, 0.08, seed=0)
        ckpt = tmp_path / "ckpt.npz"
        np.savez(ckpt, format_version=np.int64(1), m=np.int64(8), d=np.int64(5),
                 sigma_w2=np.float64(0.08), w=p.w, u=p.u, a=p.a)
        out = tmp_path / "o"
        result = runner.invoke(main, [
            "train", "--set", "data.n=6", "--set", "data.d=5",
            "--set", "model.m=8", "--set", f"train.resume={ckpt}",
            "--set", f"output.directory={out}"])
        assert result.exit_code == 2, result.output
        assert "unsupported checkpoint version 1" in result.output
        assert not out.exists()

    def test_missing_checkpoint_fails_at_load(self, tmp_path):
        with pytest.raises(ConfigError, match="ckpt.npz does not exist"):
            load_config(None, [f"train.resume={tmp_path / 'ckpt.npz'}"])


class TestConfigHash:
    """The config echo, and so its hash, is pinned: a key added to or
    removed from a section changes the config_hash of every run.json and
    checkpoint."""

    def test_desk_config(self):
        assert config_hash(load_config(DESK)[1]) == "cb9fdce51c1e"

    def test_no_config(self):
        assert config_hash(load_config(None)[1]) == "0edeb3b40a1a"
