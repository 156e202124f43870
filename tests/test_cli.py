import json
import os
import struct
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from deqlab import errors
from deqlab.cli import main
from deqlab.data import load_labels_csv, load_matrix_csv
from deqlab.train import METRICS_HEADER, SOLVER_TRACE_HEADER, load_checkpoint

DESK = str(Path(__file__).resolve().parents[1] / "configs" / "synthetic_desk.yaml")

# The process exit code of every public error class; the base class is
# the catch-all 1.
EXIT_CODES = {
    "DeqlabError": 1,
    "InputError": 2,
    "DegenerateInputError": 2,
    "ConfigError": 2,
    "ConvergenceError": 3,
    "AssumptionError": 4,
    "WellPosednessError": 4,
    "TrainingAssertionError": 5,
}


@pytest.fixture
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


@pytest.fixture
def corrupt_gradients(monkeypatch):
    """Negative control for grad-check: the command's implicit gradients
    with one W entry perturbed."""
    import deqlab.cli

    exact = deqlab.cli.gradients

    def perturbed(*args, **kwargs):
        g, adj = exact(*args, **kwargs)
        gw = g.gw.copy()
        gw[0, 0] += 1e-2 * (1 + abs(gw[0, 0]))
        return type(g)(gw=gw, gu=g.gu, ga=g.ga), adj

    monkeypatch.setattr(deqlab.cli, "gradients", perturbed)


def tiny_train_args(out, extra=()):
    return ["train", "--set", "data.n=10", "--set", "data.d=8",
            "--set", "data.seed=2", "--set", "model.m=20",
            "--set", "train.steps=4", "--set", f"output.directory={out}",
            *extra]


@pytest.fixture(scope="module")
def checkpoint_at_2(tmp_path_factory):
    """The step-2 checkpoint of a tiny_train_args run."""
    out = tmp_path_factory.mktemp("checkpointed")
    run_ok(CliRunner(), tiny_train_args(out, ["--set", "train.checkpoint_every=2"]))
    return out / "ckpt_m20_000002.npz"


class TestGenData:
    def test_writes_dataset_and_manifest(self, runner, tmp_path):
        out = tmp_path / "o"
        run_ok(runner, ["gen-data", "--set", "data.n=6", "--set", "data.d=5",
                        "--set", f"output.directory={out}"])
        x = load_matrix_csv(out / "data.csv")
        y = load_labels_csv(out / "labels.csv")
        assert x.shape == (5, 6) and y.shape == (6,)
        manifest = json.loads((out / "run.json").read_text())
        assert manifest["artifact_version"]
        assert manifest["config"]["data"]["kind"] == "synthetic"
        assert sorted(manifest["outputs"]) == ["data.csv", "labels.csv"]
        assert not (out / "data.meta.json").exists()

    def test_manifest_environment_block(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        out = tmp_path / "o"
        run_ok(runner, ["gen-data", "--set", "data.n=6", "--set", "data.d=5",
                        "--set", f"output.directory={out}"])
        env = json.loads((out / "run.json").read_text())["environment"]
        assert set(env) == {"numpy", "blas", "threads", "cpu_count"}
        assert env["numpy"] == np.__version__
        assert set(env["blas"]) == {"name", "version"}
        assert env["threads"]["OPENBLAS_NUM_THREADS"] == "2"
        assert all(key.endswith("_NUM_THREADS") for key in env["threads"])
        assert env["cpu_count"] == os.cpu_count()

    def test_seed_repeat_identical_bytes(self, runner, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run_ok(runner, ["gen-data", "--set", "data.n=6", "--set", "data.d=5",
                            "--set", "data.seed=9",
                            "--set", f"output.directory={out}"])
            outs.append((out / "data.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_n_one_allowed_with_warning(self, runner, tmp_path):
        out = tmp_path / "o"
        result = runner.invoke(main, ["gen-data", "--set", "data.n=1",
                                      "--set", "data.d=4",
                                      "--set", f"output.directory={out}"])
        assert result.exit_code == 0
        assert load_matrix_csv(out / "data.csv").shape == (4, 1)

    def test_file_kind_round_trips_synthetic_bytes(self, runner, tmp_path):
        # kind: file is the one path for external data: a dataset written
        # in the CSV schema reads back and is written out byte for byte
        src, dst = tmp_path / "src", tmp_path / "dst"
        run_ok(runner, ["gen-data", "--set", "data.n=6", "--set", "data.d=5",
                        "--set", f"output.directory={src}"])
        run_ok(runner, ["gen-data", "--set", "data.kind=file",
                        "--set", f"data.matrix={src / 'data.csv'}",
                        "--set", f"data.labels_csv={src / 'labels.csv'}",
                        "--set", f"output.directory={dst}"])
        for name in ("data.csv", "labels.csv"):
            assert (dst / name).read_bytes() == (src / name).read_bytes()
        manifest = json.loads((dst / "run.json").read_text())
        assert manifest["config"]["data"]["kind"] == "file"


class TestExitCodes:
    def test_config_error_is_2(self, runner, tmp_path):
        # image data enters through kind: file, so mnist is an unknown kind
        for kind in ("parquet", "mnist", "cifar10"):
            result = runner.invoke(main, ["gen-data", "--set", f"data.kind={kind}",
                                          "--set", f"output.directory={tmp_path}"])
            assert result.exit_code == 2, result.output
            assert (f"data.kind {kind!r} is not one of synthetic|file"
                    in result.output)

    def test_missing_path_is_2(self, runner, tmp_path):
        result = runner.invoke(main, ["kernel", "--set", "data.kind=file",
                                      "--set", "data.matrix=/nope.csv",
                                      "--set", "data.labels_csv=/nope2.csv",
                                      "--set", f"output.directory={tmp_path}"])
        assert result.exit_code == 2

    def test_unknown_key_is_2(self, runner, tmp_path):
        result = runner.invoke(main, ["gen-data", "--set", "data.bogus=1",
                                      "--set", f"output.directory={tmp_path}"])
        assert result.exit_code == 2

    def test_nonconvergence_is_3(self, runner, tmp_path):
        result = runner.invoke(main, tiny_train_args(
            tmp_path / "o", ["--set", "solver.max_iter=2",
                             "--set", "solver.tol=1.0e-14"]))
        assert result.exit_code == 3

    def test_assumption_violation_is_4(self, runner, tmp_path):
        # duplicated input columns make the population kernel degenerate
        col = np.arange(1.0, 7.0)
        x = np.column_stack([col, col]) * (np.sqrt(6) / np.linalg.norm(col))
        from deqlab.data import save_labels_csv, save_matrix_csv
        save_matrix_csv(tmp_path / "x.csv", x)
        save_labels_csv(tmp_path / "y.csv", np.zeros(2))
        result = runner.invoke(main, ["gen-data", "--set", "data.kind=file",
                                      "--set", f"data.matrix={tmp_path / 'x.csv'}",
                                      "--set", f"data.labels_csv={tmp_path / 'y.csv'}",
                                      "--set", f"output.directory={tmp_path / 'o'}"])
        assert result.exit_code == 4

    def test_grad_check_corrupt_is_5(self, runner, corrupt_gradients):
        result = runner.invoke(main, ["grad-check"])
        assert result.exit_code == 5
        assert "['dense:W', 'fd:W']" in result.output

    @pytest.mark.parametrize("dims, value, label, culprit", [
        ("2,x", "1", "1", "x.csv"), ("2,1", "foo", "1", "x.csv"),
        ("2,1", "1", "bar", "y.csv"), ("-1,-2", "1", "1", "x.csv")])
    def test_malformed_data_file_is_2(self, runner, tmp_path, dims, value,
                                      label, culprit):
        (tmp_path / "x.csv").write_text(f"d,n\n{dims}\n{value}\n1\n")
        (tmp_path / "y.csv").write_text(f"y\n{label}\n")
        result = runner.invoke(main, ["gen-data", "--set", "data.kind=file",
                                      "--set", f"data.matrix={tmp_path / 'x.csv'}",
                                      "--set", f"data.labels_csv={tmp_path / 'y.csv'}",
                                      "--set", f"output.directory={tmp_path / 'o'}"])
        assert result.exit_code == 2, result.output
        assert "error (InputError)" in result.output
        assert f"{tmp_path / culprit}: " in result.output

    @pytest.mark.parametrize("culprit", ["x.csv", "y.csv"])
    @pytest.mark.parametrize("case, message", [("directory", "is a directory"),
                                               ("not utf-8", "is not UTF-8 text")])
    def test_unreadable_data_file_is_2(self, runner, tmp_path, culprit, case,
                                       message):
        (tmp_path / "x.csv").write_text("d,n\n2,1\n1\n1\n")
        (tmp_path / "y.csv").write_text("y\n1\n")
        bad = tmp_path / culprit
        if case == "directory":
            bad.unlink()
            bad.mkdir()
        else:
            bad.write_bytes(b"\xff" + bad.read_bytes())
        result = runner.invoke(main, ["gen-data", "--set", "data.kind=file",
                                      "--set", f"data.matrix={tmp_path / 'x.csv'}",
                                      "--set", f"data.labels_csv={tmp_path / 'y.csv'}",
                                      "--set", f"output.directory={tmp_path / 'o'}"])
        assert result.exit_code == 2, result.output
        assert f"error (InputError): {bad} {message}" in result.output
        assert not (tmp_path / "o").exists()

    def test_label_count_mismatch_is_2(self, runner, tmp_path):
        (tmp_path / "x.csv").write_text("d,n\n2,1\n1\n1\n")
        (tmp_path / "y.csv").write_text("y\n1\n1\n")
        result = runner.invoke(main, ["gen-data", "--set", "data.kind=file",
                                      "--set", f"data.matrix={tmp_path / 'x.csv'}",
                                      "--set", f"data.labels_csv={tmp_path / 'y.csv'}",
                                      "--set", f"output.directory={tmp_path / 'o'}"])
        assert result.exit_code == 2, result.output
        assert "error (InputError)" in result.output
        assert str(tmp_path / "x.csv") in result.output
        assert str(tmp_path / "y.csv") in result.output

    def test_off_sphere_data_file_is_4_naming_both_files(self, runner,
                                                         tmp_path):
        (tmp_path / "x.csv").write_text("d,n\n2,2\n1\n0\n0\n1\n")
        (tmp_path / "y.csv").write_text("y\n0\n0\n")
        result = runner.invoke(main, ["kernel", "--set", "data.kind=file",
                                      "--set", f"data.matrix={tmp_path / 'x.csv'}",
                                      "--set", f"data.labels_csv={tmp_path / 'y.csv'}",
                                      "--set", f"output.directory={tmp_path / 'o'}"])
        assert result.exit_code == 4, result.output
        assert (f"error (AssumptionError): {tmp_path / 'x.csv'}, "
                f"{tmp_path / 'y.csv'}: ") in result.output
        assert not (tmp_path / "o").exists()

    @pytest.mark.filterwarnings("error::UserWarning")
    def test_matrix_without_values_is_2_without_a_warning(self, runner,
                                                          tmp_path):
        (tmp_path / "x.csv").write_text("d,n\n2,1\n")
        (tmp_path / "y.csv").write_text("y\n1\n")
        result = runner.invoke(main, ["gen-data", "--set", "data.kind=file",
                                      "--set", f"data.matrix={tmp_path / 'x.csv'}",
                                      "--set", f"data.labels_csv={tmp_path / 'y.csv'}",
                                      "--set", f"output.directory={tmp_path / 'o'}"])
        assert result.exit_code == 2, result.output
        assert f"{tmp_path / 'x.csv'}: expected 2 values, found 0" in result.output

    @pytest.mark.parametrize("name,code", EXIT_CODES.items())
    def test_error_class_maps_to_exit_code(self, name, code):
        assert getattr(errors, name).exit_code == code
        assert getattr(errors, name)("message").exit_code == code

    def test_every_error_class_has_a_code(self):
        assert EXIT_CODES.keys() == {
            name for name, value in vars(errors).items()
            if isinstance(value, type) and issubclass(value, errors.DeqlabError)}


class TestKernelCommand:
    def test_outputs(self, runner, tmp_path):
        out = tmp_path / "o"
        result = run_ok(runner, ["kernel", "--set", "data.n=6",
                                 "--set", "data.d=8",
                                 "--set", f"output.directory={out}"])
        assert "lambda_star" in result.output
        assert (out / "kernel.csv").exists()
        assert (out / "cos_theta.csv").exists()
        assert (out / "kernel_depth_decay.svg").exists()
        rows = (out / "kernel_depth_decay.csv").read_text().splitlines()
        assert len(rows) == 1 + 60
        text = (out / "kernel_summary.txt").read_text()
        assert "suggested_width" in text and "suggested_depth" in text


class TestCheckCommand:
    def test_report_schema(self, runner, tmp_path):
        out = tmp_path / "o"
        result = run_ok(runner, ["check", "--set", "data.n=8",
                                 "--set", "data.d=8", "--set", "model.m=40",
                                 "--set", f"output.directory={out}"])
        assert "eta_max" in result.output
        lines = (out / "condition.csv").read_text().splitlines()
        assert lines[0] == "quantity,value"
        names = {line.split(",")[0] for line in lines[1:]}
        assert {"lambda_0", "eta_max", "margin_1", "margin_2", "margin_3",
                "satisfied_1"} <= names

    def test_width_below_n_reports_zero_lambda(self, runner, tmp_path):
        # m < n: the Gram matrix is rank-deficient and lambda_0 is exactly
        # 0, which the condition check accepts.
        out = tmp_path / "o"
        run_ok(runner, ["check", "--set", "data.n=40", "--set", "data.d=20",
                        "--set", "data.seed=12", "--set", "model.m=20",
                        "--set", "model.seed=13",
                        "--set", f"output.directory={out}"])
        lines = (out / "condition.csv").read_text().splitlines()
        assert "lambda_0,0" in lines

    def test_zero_residual_satisfies_first_two(self, runner, tmp_path):
        # labels equal to initial predictions via the file-data route
        from deqlab.data import gen_sphere_data, save_labels_csv, save_matrix_csv
        from deqlab.model import SolverConfig, init_params, predict, solve_equilibrium

        ds = gen_sphere_data(6, 8, seed=3)
        p = init_params(40, 8, 0.08, seed=1)
        sol = solve_equilibrium(p, ds.x, SolverConfig(tol=1e-12))
        save_matrix_csv(tmp_path / "x.csv", ds.x)
        save_labels_csv(tmp_path / "y.csv", predict(p, sol.z))
        out = tmp_path / "o"
        run_ok(runner, ["check", "--set", "data.kind=file",
                        "--set", f"data.matrix={tmp_path / 'x.csv'}",
                        "--set", f"data.labels_csv={tmp_path / 'y.csv'}",
                        "--set", "model.m=40", "--set", "model.seed=1",
                        "--set", "solver.tol=1.0e-12",
                        "--set", f"output.directory={out}"])
        rows = dict(line.split(",") for line in
                    (out / "condition.csv").read_text().splitlines()[1:])
        assert rows["satisfied_1"] == "true"
        assert rows["satisfied_2"] == "true"


class TestTrainCommand:
    def test_metrics_and_plots(self, runner, tmp_path):
        out = tmp_path / "o"
        run_ok(runner, tiny_train_args(out))
        lines = (out / "metrics_m20.csv").read_text().splitlines()
        assert lines[0] == METRICS_HEADER
        assert len(lines) == 1 + 5
        for name in ("loss.svg", "w_spec_norm.svg", "lambda_tau.svg", "run.json"):
            assert (out / name).exists()

    def test_solver_trace_sidecar(self, runner, tmp_path):
        out = tmp_path / "o"
        run_ok(runner, tiny_train_args(out))
        metrics = (out / "metrics_m20.csv").read_text().splitlines()
        lines = (out / "trace_m20.csv").read_text().splitlines()
        assert lines[0] == SOLVER_TRACE_HEADER
        assert len(lines) == len(metrics)
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == [m.split(",")[0] for m in metrics[1:]]
        assert all(int(r[2]) >= 1 for r in rows)
        manifest = json.loads((out / "run.json").read_text())
        assert "trace_m20.csv" in json.dumps(manifest)

    def test_sweep_shares_eta(self, runner, tmp_path):
        out = tmp_path / "o"
        result = run_ok(runner, ["train", "--set", "data.n=12",
                                 "--set", "data.d=8",
                                 "--set", "model.m=[10, 30]",
                                 "--set", "train.steps=3",
                                 "--set", f"output.directory={out}"])
        assert "shared eta" in result.output
        assert (out / "metrics_m10.csv").exists()
        assert (out / "metrics_m30.csv").exists()

    def test_sweep_solves_each_width_cold_once(self, runner, tmp_path,
                                               monkeypatch):
        import deqlab.cli
        import deqlab.train
        cold = []
        for module in (deqlab.cli, deqlab.train):
            def counted(p, x, cfg, z0=None, _solve=module.solve_equilibrium):
                if z0 is None:
                    cold.append(p.m)
                return _solve(p, x, cfg, z0=z0)
            monkeypatch.setattr(module, "solve_equilibrium", counted)
        result = run_ok(runner, ["train", "--set", "data.n=12",
                                 "--set", "data.d=8",
                                 "--set", "model.m=[10, 30]",
                                 "--set", "train.steps=2",
                                 "--set", f"output.directory={tmp_path}"])
        assert cold == [30, 10]
        assert result.output.splitlines()[0].startswith("m30: eta=")
        assert "(auto)" in result.output.splitlines()[0]

    def test_checkpoint_written_when_it_fires(self, runner, tmp_path,
                                              monkeypatch):
        # at each step's solve, every checkpoint of the steps before is on
        # disk with its state; the last one follows the last step
        import deqlab.train
        solve, on_disk = deqlab.train.solve_equilibrium, []

        def recorded(*args, **kwargs):
            on_disk.append([load_checkpoint(ck)[1].step
                            for ck in sorted(tmp_path.glob("ckpt_m20_*"))])
            return solve(*args, **kwargs)

        monkeypatch.setattr(deqlab.train, "solve_equilibrium", recorded)
        run_ok(runner, tiny_train_args(tmp_path, ["--set",
                                                  "train.checkpoint_every=1"]))
        assert on_disk == [[], [1], [1, 2], [1, 2, 3], [1, 2, 3]]
        assert [ck.name for ck in sorted(tmp_path.glob("ckpt_*"))] == [
            f"ckpt_m20_{step:06d}.npz" for step in (1, 2, 3, 4)]

    def test_ill_posed_step_keeps_what_the_run_made(self, runner, tmp_path):
        # eta = 0.01 pushes ||W||_2 past 1 at step 3: exit 4, with the
        # rows of steps 0-2 and the checkpoints of steps 1-3 on disk, and
        # a resume from step 2 takes the saved eta into the same failure
        args = ["train", "-c", DESK, "--set", "model.m=[60]",
                "--set", "data.n=12", "--set", "data.d=10",
                "--set", "train.steps=60", "--set", "train.eta=0.01",
                "--set", "train.checkpoint_every=1",
                "--set", f"output.directory={tmp_path}"]
        result = runner.invoke(main, args)
        assert result.exit_code == 4, result.output
        assert "step 3: ||W||_2 = " in result.output
        for name in ("metrics_m60.csv", "trace_m60.csv"):
            steps = [line.split(",")[0] for line in
                     (tmp_path / name).read_text().splitlines()[1:]]
            assert steps == ["0", "1", "2"]
        for step in (1, 2, 3):
            _, state = load_checkpoint(tmp_path / f"ckpt_m60_{step:06d}.npz")
            assert state.step == step and state.eta == 0.01
        assert len(list(tmp_path.glob("ckpt_m60_*"))) == 3
        ckpt = tmp_path / "ckpt_m60_000002.npz"
        result = runner.invoke(main, args + ["--set", f"train.resume={ckpt}"])
        assert result.exit_code == 4, result.output
        assert "step 3: ||W||_2 = " in result.output

    def test_unconverged_step_keeps_the_rows_before_it(self, runner, tmp_path,
                                                      monkeypatch):
        import deqlab.train
        solve, calls = deqlab.train.solve_equilibrium, []

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:  # the solve of step 2
                raise errors.ConvergenceError("injected", residual=1.0,
                                              iterations=10000)
            return solve(*args, **kwargs)

        monkeypatch.setattr(deqlab.train, "solve_equilibrium", failing)
        result = runner.invoke(main, tiny_train_args(tmp_path, [
            "--set", "train.checkpoint_every=1"]))
        assert result.exit_code == 3, result.output
        assert "at training step 2: injected" in result.output
        for name in ("metrics_m20.csv", "trace_m20.csv"):
            steps = [line.split(",")[0] for line in
                     (tmp_path / name).read_text().splitlines()[1:]]
            assert steps == ["0", "1"]
        assert sorted(ck.name for ck in tmp_path.glob("ckpt_m20_*")) == [
            "ckpt_m20_000001.npz", "ckpt_m20_000002.npz"]
        assert [load_checkpoint(tmp_path / f"ckpt_m20_00000{step}.npz")[1].step
                for step in (1, 2)] == [1, 2]
        assert not (tmp_path / "run.json").exists()

    def test_resume_replaces_the_rows_past_its_start(self, runner, tmp_path):
        out, fresh = tmp_path / "o", tmp_path / "fresh"
        run_ok(runner, tiny_train_args(out, ["--set", "train.checkpoint_every=2"]))
        ckpt = out / "ckpt_m20_000002.npz"
        before = {name: (out / name).read_bytes().splitlines(keepends=True)
                  for name in ("metrics_m20.csv", "trace_m20.csv")}
        for target in (out, fresh):
            run_ok(runner, tiny_train_args(target, ["--set", "train.steps=2",
                                                    "--set", f"train.resume={ckpt}"]))
        for name, lines in before.items():
            resumed = (fresh / name).read_bytes().splitlines(keepends=True)
            assert [line.split(b",")[0] for line in resumed[1:]] == [b"2", b"3", b"4"]
            assert resumed[2:] != lines[4:]
            assert (out / name).read_bytes().splitlines(keepends=True) == \
                lines[:4] + resumed[2:]

    def test_resume_contiguous(self, runner, tmp_path):
        out = tmp_path / "o"
        run_ok(runner, tiny_train_args(out, ["--set", "train.checkpoint_every=2"]))
        ckpt = out / "ckpt_m20_000002.npz"
        assert ckpt.exists() and [f.name for f in out.glob("*.json")] == ["run.json"]
        run_ok(runner, tiny_train_args(out, ["--set", "train.steps=3",
                                             "--set", f"train.resume={ckpt}"]))
        steps = [int(line.split(",")[0]) for line in
                 (out / "metrics_m20.csv").read_text().splitlines()[1:]]
        assert steps == sorted(set(steps))
        assert steps[-1] == 5

    def test_resume_continues_solver_trace(self, runner, tmp_path):
        out = tmp_path / "o"
        run_ok(runner, tiny_train_args(out, ["--set", "train.checkpoint_every=2"]))
        ckpt = out / "ckpt_m20_000002.npz"
        run_ok(runner, tiny_train_args(out, ["--set", "train.steps=3",
                                             "--set", f"train.resume={ckpt}"]))
        steps = [int(line.split(",")[0]) for line in
                 (out / "trace_m20.csv").read_text().splitlines()[1:]]
        assert steps == [0, 1, 2, 3, 4, 5]
        assert not list(out.glob("*.part.csv"))

    @pytest.mark.parametrize("ckpt_step,target_steps,monitor_every,last", [
        (4, 2, 1, 2), (5, 1, 3, 1)], ids=["every-step", "monitor_every-3"])
    def test_resume_into_a_file_short_of_its_checkpoint_is_2(
            self, runner, tmp_path, ckpt_step, target_steps, monitor_every, last):
        # the kept rows must reach step S - monitor_every of the step-S
        # checkpoint; the target is refused before any of it is touched
        src, target = tmp_path / "src", tmp_path / "target"
        run_ok(runner, tiny_train_args(src, ["--set", f"train.steps={ckpt_step}",
                                             "--set", f"train.checkpoint_every={ckpt_step}"]))
        run_ok(runner, tiny_train_args(target, ["--set", f"train.steps={target_steps}"]))
        before = {f.name: f.read_bytes() for f in target.iterdir()}
        result = runner.invoke(main, tiny_train_args(target, [
            "--set", "train.steps=2", "--set", f"train.monitor_every={monitor_every}",
            "--set", f"train.resume={src / f'ckpt_m20_{ckpt_step:06d}.npz'}"]))
        assert result.exit_code == 2, result.output
        assert f"metrics_m20.csv holds rows up to step {last}," in result.output
        assert {f.name: f.read_bytes() for f in target.iterdir()} == before

    @pytest.mark.parametrize("case,every,ckpt_step,monitor_every,steps", [
        pytest.param("ci", 1, 4, 1, [0, 1, 2, 3, 4, 5, 6], id="ci"),
        pytest.param("header-only", 4, 4, 1, [4, 5, 6], id="header-only"),
        pytest.param("rows-0-2", 5, 5, 3, [0, 1, 2, 5, 7], id="monitor_every-3"),
    ])
    def test_resume_into_a_file_that_reaches_its_checkpoint(
            self, runner, tmp_path, case, every, ckpt_step, monitor_every, steps):
        src, target = tmp_path / "src", tmp_path / "target"
        run_ok(runner, tiny_train_args(src, ["--set", f"train.steps={ckpt_step}",
                                             "--set", f"train.checkpoint_every={every}"]))
        if case == "ci":  # CI's resume: into the run's own outputs
            target = src
        elif case == "header-only":
            target.mkdir()
            (target / "metrics_m20.csv").write_text(METRICS_HEADER + "\n")
            (target / "trace_m20.csv").write_text(SOLVER_TRACE_HEADER + "\n")
        else:  # rows 0-2 reach step 5 - 3, no further
            run_ok(runner, tiny_train_args(target, ["--set", "train.steps=2"]))
        run_ok(runner, tiny_train_args(target, [
            "--set", "train.steps=2", "--set", f"train.monitor_every={monitor_every}",
            "--set", f"train.resume={src / f'ckpt_m20_{ckpt_step:06d}.npz'}"]))
        for name in ("metrics_m20.csv", "trace_m20.csv"):
            assert [int(line.split(",")[0]) for line in
                    (target / name).read_text().splitlines()[1:]] == steps

    def test_resume_from_a_non_checkpoint_is_2(self, runner, tmp_path, checkpoint_at_2):
        unversioned = tmp_path / "unversioned.npz"
        np.savez(unversioned, w=np.zeros((20, 20)))
        text = tmp_path / "text.npz"
        text.write_text("not an archive\n")
        # a whole checkpoint under format 1, whose state lived in a JSON sidecar
        version_1 = tmp_path / "v1.npz"
        with np.load(checkpoint_at_2) as npz:
            np.savez(version_1, **{**npz, "format_version": 1})
        for ckpt in (unversioned, text, version_1):
            result = runner.invoke(main, tiny_train_args(
                tmp_path / "resumed", ["--set", f"train.resume={ckpt}"]))
            assert result.exit_code == 2, result.output
            assert "not a deqlab checkpoint" in result.output
            assert not (tmp_path / "resumed").exists()

    @pytest.mark.parametrize("version", [2])  # the one format load_checkpoint reads
    @pytest.mark.parametrize("edit, refusal", [
        ({"eta": -0.2}, ": eta must be positive and finite, got -0.2"),
        ({"eta": float("nan")}, ": eta must be positive and finite, got nan"),
        ({"step": -3}, ": step must be an int >= 0, got -3"),
        ({"step": 2.7}, " is not a deqlab checkpoint"),
        ({"lambda_0": -1.0}, ": lambda_0 must be >= 0 and finite, got -1.0"),
        ({"phi_0": None}, " is not a deqlab checkpoint"),
    ], ids=["negated-eta", "nan-eta", "step-3", "step-2.7", "lambda_0-1",
            "no-phi_0"])
    def test_resume_from_an_edited_state_is_2(self, runner, tmp_path,
                                              checkpoint_at_2, edit, refusal,
                                              version):
        # each would resume on a state a run cannot have: exit 2 before
        # any row or output directory is written. A checkpoint whose
        # entries TrainState refuses is named with the refusal; one that
        # lacks an entry or holds a non-integer step is not a checkpoint
        ckpt = tmp_path / "edited.npz"
        with np.load(checkpoint_at_2) as npz:
            state = {**npz, "format_version": version, **edit}
        np.savez(ckpt, **{k: v for k, v in state.items() if v is not None})
        resumed = tmp_path / "resumed"
        result = runner.invoke(main, tiny_train_args(resumed, [
            "--set", f"train.resume={ckpt}"]))
        assert result.exit_code == 2, result.output
        assert f"error (InputError): {ckpt}{refusal}" in result.output
        assert not resumed.exists()

    def test_resume_at_another_width_is_2(self, runner, tmp_path):
        out = tmp_path / "o"
        run_ok(runner, tiny_train_args(out, ["--set", "train.checkpoint_every=2"]))
        resumed = tmp_path / "resumed"
        result = runner.invoke(main, tiny_train_args(resumed, [
            "--set", "model.m=9",
            "--set", f"train.resume={out / 'ckpt_m20_000002.npz'}"]))
        assert result.exit_code == 2, result.output
        assert "(m, d, sigma_w2)" in result.output
        assert not resumed.exists()


class TestConcentrationCommand:
    def test_csv_schemas(self, runner, tmp_path):
        out = tmp_path / "o"
        run_ok(runner, ["concentration", "--set", "data.n=5",
                        "--set", "data.d=8",
                        "--set", "concentration.m_list=[20, 40]",
                        "--set", "concentration.trials=3",
                        "--set", "concentration.l=2",
                        "--set", ("concentration.experiments="
                                  "[tied_vs_population, reconstruct]"),
                        "--set", f"output.directory={out}"])
        lines = (out / "tied_vs_population.csv").read_text().splitlines()
        assert lines[0] == "experiment,m,l,trial,seed,error"
        assert len(lines) == 1 + 2 * 3
        summary = (out / "tied_vs_population_summary.csv").read_text().splitlines()
        assert summary[0] == "experiment,m,l,trials,q1,median,q3"
        rec = (out / "reconstruct.csv").read_text().splitlines()
        assert rec[0] == "i,j,l,m,identity_error,inner_product_error"

    def test_empty_m_list_is_config_error(self, runner, tmp_path):
        result = runner.invoke(main, ["concentration",
                                      "--set", "concentration.m_list=[]",
                                      "--set", f"output.directory={tmp_path}"])
        assert result.exit_code == 2


    def test_descending_m_list_exits_2_before_any_output(self, runner, tmp_path):
        out = tmp_path / "o"
        out.mkdir()
        result = runner.invoke(main, [
            "concentration", "--set", "data.n=5", "--set", "data.d=8",
            "--set", "concentration.m_list=[40, 20]",
            "--set", ("concentration.experiments="
                      "[lambda0_vs_width, tied_vs_population]"),
            "--set", f"output.directory={out}"])
        assert result.exit_code == 2, result.output
        assert "error (ConfigError)" in result.output
        assert "ascending" in result.output
        assert list(out.iterdir()) == []

    def test_reconstruct_index_beyond_n_exits_2_before_any_output(
            self, runner, tmp_path):
        out = tmp_path / "o"
        out.mkdir()
        # reconstruct rebuilds Gram entry (0, 1): n = 1 has no column 1
        result = runner.invoke(main, [
            "concentration", "--set", "data.n=1", "--set", "data.d=8",
            "--set", ("concentration.experiments="
                      "[tied_vs_population, reconstruct]"),
            "--set", f"output.directory={out}"])
        assert result.exit_code == 2, result.output
        assert "error (ConfigError)" in result.output
        assert "needs data.n >= 2, got n = 1" in result.output
        assert list(out.iterdir()) == []


class TestGradCheckCommand:
    def test_passes_by_default(self, runner):
        result = run_ok(runner, ["grad-check"])
        assert "all gradient checks passed" in result.output
        assert result.output.count("[pass]") == 6

    def test_desk_config_passes(self, runner):
        # its exactly-zero gradient entries (neurons inactive on every
        # sample) match through the finite differences' rounding floor
        result = run_ok(runner, ["grad-check", "-c", DESK])
        assert "rounding floor" in result.output
        assert result.output.count("[pass]") == 6

    def test_desk_config_corrupt_is_5(self, runner, corrupt_gradients):
        result = runner.invoke(main, ["grad-check", "-c", DESK])
        assert result.exit_code == 5
        assert "['dense:W', 'fd:W']" in result.output


class TestDeterminism:
    def test_repeat_run_byte_identical_csvs(self, runner, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run_ok(runner, tiny_train_args(out))
            run_ok(runner, ["concentration", "--set", "data.n=5",
                            "--set", "data.d=8",
                            "--set", "concentration.m_list=[20]",
                            "--set", "concentration.trials=2",
                            "--set", "concentration.l=2",
                            "--set", ("concentration.experiments="
                                      "[tied_vs_population]"),
                            "--set", f"output.directory={out}"])
            blobs.append({p.name: p.read_bytes()
                          for p in sorted(out.glob("*.csv"))})
        assert blobs[0] == blobs[1]

    def test_manifest_differs_only_in_timestamp_and_outdir(self, runner, tmp_path):
        manifests = []
        for name in ("a", "b"):
            out = tmp_path / name
            run_ok(runner, tiny_train_args(out))
            doc = json.loads((out / "run.json").read_text())
            doc.pop("timestamp")
            # the command's wall time and the process's peak RSS
            assert doc.pop("wall_s") > 0 and doc.pop("peak_rss_mb") > 0
            # the configured output directory (and thus the config hash)
            # legitimately differs between the two runs
            doc.pop("config_hash", None)
            doc["config"].pop("output", None)
            manifests.append(json.dumps(doc, sort_keys=True))
        assert manifests[0] == manifests[1]


class TestConfigFile:
    def test_yaml_config_with_override(self, runner, tmp_path):
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(
            "data:\n  kind: synthetic\n  n: 8\n  d: 6\n"
            "model:\n  m: 15\n"
            "train:\n  steps: 2\n"
            f"output:\n  directory: {tmp_path / 'o'}\n")
        run_ok(runner, ["train", "-c", str(cfg), "--set", "train.steps=3"])
        lines = (tmp_path / "o" / "metrics_m15.csv").read_text().splitlines()
        assert len(lines) == 1 + 4  # steps 0..3

    def test_shipped_example_config_parses(self, runner, tmp_path):
        from deqlab.config import load_config
        from pathlib import Path

        example = Path(__file__).resolve().parents[1] / "configs" / "synthetic_desk.yaml"
        cfg, doc = load_config(example)
        assert cfg.model.widths() == [100, 500, 2000]
        assert cfg.train.eta == "auto"

    @pytest.mark.parametrize("command", ["gen-data", "kernel", "check",
                                         "train", "concentration"])
    def test_shipped_example_config_runs(self, runner, tmp_path, command):
        # every key in the shipped file reaches a run: a stale one exits 2
        out = tmp_path / "o"
        run_ok(runner, [command, "-c", DESK, "--set", "data.n=8",
                        "--set", "data.d=8", "--set", "model.m=[10, 20]",
                        "--set", "train.steps=2",
                        "--set", "concentration.m_list=[10, 20]",
                        "--set", "concentration.trials=2",
                        "--set", f"output.directory={out}"])
        assert (out / "run.json").exists()
