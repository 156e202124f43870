"""Command-line front end: reproducible experiments from a config file.

Subcommands: gen-data, kernel, check, train, concentration, grad-check.
Every command takes `-c config.yaml` plus repeatable
`--set section.key=value` overrides. Outputs (CSVs, SVG plots, run.json
manifest) land in the configured output directory.

Exit codes: 0 success, 2 configuration or input error, 3 numerical
non-convergence, 4 assumption or well-posedness violation, 5 assertion
or verification failure, 1 anything unexpected.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from . import __version__
from .concentration import (
    equilibrium_depth_decay,
    fresh_randomness_reconstruct,
    kernel_depth_decay,
    lambda0_vs_width,
    tied_vs_population,
    write_report_csv,
    write_summary_csv,
)
from .condition import check_condition, init_bounds, write_condition_csv
from .config import load_config
from .data import (
    Dataset,
    gen_sphere_data,
    load_cifar_bin,
    load_idx,
    load_labels_csv,
    load_matrix_csv,
    save_labels_csv,
    save_matrix_csv,
    subset_binary,
)
from .errors import (
    AssumptionError,
    ConfigError,
    ConvergenceError,
    InputError,
    TrainingAssertionError,
    WellPosednessError,
)
from .grad import (
    dense_gradients_reference,
    finite_difference_gradients,
    gradients,
)
from .kernel import export_kernel, kernel_fixed_point
from .model import (
    init_params,
    load_params,
    loss,
    predict,
    save_params,
    solve_equilibrium,
)
from .reporting import config_hash, line_plot_svg, write_csv, write_run_manifest
from .train import (
    gram_min_eig,
    train,
    write_metrics_csv,
    write_solver_trace_csv,
)

EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3
EXIT_ASSUMPTION = 4
EXIT_ASSERTION = 5

# A finite-difference entry also matches when it lies within this many
# eps * Phi / step of the implicit one: the rounding floor of a central
# difference of a loss Phi (an exactly zero gradient entry reads about
# 0.4 of it on the desk config).
FD_ROUNDING_MULTIPLE = 2


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, (ConfigError, InputError)):
        return EXIT_CONFIG
    if isinstance(exc, ConvergenceError):
        return EXIT_CONVERGENCE
    if isinstance(exc, (AssumptionError, WellPosednessError)):
        return EXIT_ASSUMPTION
    if isinstance(exc, TrainingAssertionError):
        return EXIT_ASSERTION
    return 1


def _command(fn):
    """Shared options + exception-to-exit-code mapping. The command gets
    the loaded config, its document and `started`, the perf_counter
    reading at invocation, from which run.json's wall_s is measured."""

    @click.option("-c", "--config", "config_path", default=None,
                  type=click.Path(), help="experiment config YAML")
    @click.option("--set", "overrides", multiple=True, metavar="SECTION.KEY=VALUE",
                  help="override a config entry (repeatable)")
    @functools.wraps(fn)
    def wrapper(config_path, overrides, **kwargs):
        started = time.perf_counter()
        try:
            cfg, doc = load_config(config_path, overrides)
            fn(cfg, doc, started, **kwargs)
        except (ConfigError, InputError, ConvergenceError, AssumptionError,
                WellPosednessError, TrainingAssertionError) as exc:
            click.echo(f"error ({type(exc).__name__}): {exc}", err=True)
            sys.exit(_exit_code(exc))

    return wrapper


@click.group()
@click.version_option(__version__)
def main():
    """ReLU deep equilibrium models and their convergence-theory toolkit."""


def _out_dir(cfg) -> Path:
    out = Path(cfg.output.directory)
    out.mkdir(parents=True, exist_ok=True)
    return out


def build_dataset(cfg) -> Dataset:
    d = cfg.data
    if d.kind == "synthetic":
        return gen_sphere_data(d.n, d.d, d.seed, y_cap=d.y_cap)
    if d.kind == "mnist":
        raw = load_idx(d.images, d.labels)
        return subset_binary(raw, d.class_a, d.class_b, d.per_class, d.seed,
                             provenance="mnist")
    if d.kind == "cifar10":
        raw = load_cifar_bin(d.path)
        return subset_binary(raw, d.class_a, d.class_b, d.per_class, d.seed,
                             provenance="cifar10")
    x = load_matrix_csv(d.matrix)
    y = load_labels_csv(d.labels_csv)
    if y.size != x.shape[1]:
        raise InputError(f"{d.labels_csv} has {y.size} labels, but {d.matrix} "
                         f"has n = {x.shape[1]} columns")
    return Dataset(x=x, y=y, provenance="file", y_cap=d.y_cap)


@main.command("gen-data")
@_command
def cmd_gen_data(cfg, doc, started):
    """Generate (or ingest) a dataset and write it in the CSV schema."""
    ds = build_dataset(cfg)
    out = _out_dir(cfg)
    save_matrix_csv(out / "data.csv", ds.x)
    save_labels_csv(out / "labels.csv", ds.y)
    meta = {
        "provenance": ds.provenance, "d": ds.d, "n": ds.n,
        "seed": cfg.data.seed, "y_cap": ds.y_cap,
        "config_hash": config_hash(doc), "artifact_version": __version__,
    }
    meta.update(ds.extra)
    (out / "data.meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True)
                                        + "\n")
    write_run_manifest(out, doc, {"data": cfg.data.seed},
                       ["data.csv", "labels.csv", "data.meta.json"], started)
    click.echo(f"wrote dataset d={ds.d} n={ds.n} ({ds.provenance}) to {out}")


@main.command("kernel")
@_command
def cmd_kernel(cfg, doc, started):
    """Population kernel: K, lambda*, suggested width/depth, depth decay."""
    ds = build_dataset(cfg)
    out = _out_dir(cfg)
    pk = kernel_fixed_point(ds.x, cfg.model.sigma_w2, tol=cfg.kernel.tol)
    summary = export_kernel(pk, out, t=cfg.kernel.failure_prob,
                            width_c=cfg.kernel.width_constant,
                            depth_c=cfg.kernel.depth_constant)
    series = kernel_depth_decay(pk, ds.x, cfg.kernel.l_max)
    write_csv(out / "kernel_depth_decay.csv", "l,error", enumerate(series, start=1))
    line_plot_svg(out / "kernel_depth_decay.svg",
                  {"||K - K^(l)||_F": (list(range(1, len(series) + 1)), series)},
                  "Population kernel depth decay", "depth l", "Frobenius error",
                  logy=True)
    write_run_manifest(out, doc, {"data": cfg.data.seed},
                       ["kernel.csv", "cos_theta.csv", "kernel_summary.txt",
                        "kernel_depth_decay.csv", "kernel_depth_decay.svg"],
                       started)
    for key, value in summary.items():
        click.echo(f"{key} = {value}")


@main.command("check")
@_command
def cmd_check(cfg, doc, started):
    """Evaluate the initialization condition and learning-rate bound."""
    ds = build_dataset(cfg)
    out = _out_dir(cfg)
    widths = cfg.model.widths()
    m = widths[-1]
    p = init_params(m, ds.d, cfg.model.sigma_w2, cfg.model.seed)
    sol = solve_equilibrium(p, ds.x, cfg.solver)
    lam0 = gram_min_eig(sol.z)
    r0 = float(np.linalg.norm(predict(p, sol.z) - ds.y))
    bounds = init_bounds(p)
    report = check_condition(bounds, lam0, ds.x, r0)
    write_condition_csv(out / "condition.csv", bounds, report)
    write_run_manifest(out, doc, {"data": cfg.data.seed, "model": cfg.model.seed},
                       ["condition.csv"], started)
    click.echo(f"lambda_0 = {report.lambda_0:.6g}")
    click.echo(f"phi_0 = {report.phi_0:.6g}")
    click.echo(f"eta_max = {report.eta_max:.6g}")
    for idx, (margin, ok) in enumerate(zip(report.margins, report.satisfied), 1):
        click.echo(f"inequality {idx}: margin = {margin:.6g} "
                   f"({'satisfied' if ok else 'not satisfied'})")


@main.command("train")
@_command
def cmd_train(cfg, doc, started):
    """Train by full-batch GD; a width list runs the sweep at one step size."""
    ds = build_dataset(cfg)
    widths = cfg.model.widths()
    t = cfg.train

    anchor, start_step = None, 0
    if t.resume is not None:  # one width and a sidecar, checked at load
        try:
            state = json.loads(Path(t.resume).with_suffix(".json").read_text())
            anchor = {key: float(state[key])
                      for key in ("eta", "lambda_0", "phi_0")}
            start_step = int(state["step"])
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"train.resume: unreadable sidecar: {exc}") from exc
        p_resume = load_params(t.resume)
        have = (p_resume.m, p_resume.d, p_resume.sigma_w2)
        if have != (widths[0], ds.d, cfg.model.sigma_w2):
            raise ConfigError(
                f"train.resume: checkpoint has (m, d, sigma_w2) = {have}, "
                f"the config asks for {(widths[0], ds.d, cfg.model.sigma_w2)}")
    out = _out_dir(cfg)

    outputs = []
    traces = {}
    # Largest width first: under auto eta its step size, where the
    # stability bound binds, is then shared by the smaller widths.
    for m in reversed(widths):
        tag = f"m{m}"
        p0 = p_resume if t.resume is not None else init_params(
            m, ds.d, cfg.model.sigma_w2, cfg.model.seed)

        steps = []

        def checkpoint(step, params):
            save_params(out / f"ckpt_{tag}_{step:06d}.npz", params)
            steps.append(step)

        _, trace = train(p0, ds, t, start_step=start_step, anchor=anchor,
                         on_checkpoint=checkpoint if t.checkpoint_every else None,
                         checkpoint_every=t.checkpoint_every)

        for step in steps:  # the sidecars need the run's eta and anchors
            ck = out / f"ckpt_{tag}_{step:06d}.npz"
            ck.with_suffix(".json").write_text(json.dumps({
                "step": step, "eta": trace.eta, "lambda_0": trace.lambda_0,
                "phi_0": trace.phi_0, "config_hash": config_hash(doc),
                "artifact_version": __version__}, sort_keys=True) + "\n")
            outputs.append(ck.name)

        for name, write in ((f"metrics_{tag}.csv", write_metrics_csv),
                            (f"trace_{tag}.csv", write_solver_trace_csv)):
            write(out / name, trace, append=t.resume is not None)
            outputs.append(name)

        traces[m] = trace
        click.echo(f"{tag}: eta={trace.eta:.6g} ({trace.eta_mode}) "
                   f"phi0={trace.phi_0:.6g} final={trace.records[-1].loss:.6g} "
                   f"max||W||={max(r.w_spec_norm for r in trace.records):.4f}")
        if len(widths) > 1 and t.eta == "auto":
            t = replace(t, eta=trace.eta)
            click.echo(f"shared eta (auto at m={m}): {t.eta:.6g}")

    for name, title, ylabel, logy in (
            ("loss", "Training loss", "loss", True),
            ("w_spec_norm", "Spectral norm of W", "||W||_2", False),
            ("lambda_tau", "Least Gram eigenvalue", "lambda_tau", False)):
        line_plot_svg(out / f"{name}.svg",
                      {f"m{m}": (traces[m].column("step"), traces[m].column(name))
                       for m in widths},
                      title, "step", ylabel, logy=logy)
        outputs.append(f"{name}.svg")
    write_run_manifest(out, doc, {"data": cfg.data.seed, "model": cfg.model.seed},
                       outputs, started)


@main.command("concentration")
@_command
def cmd_concentration(cfg, doc, started):
    """Width/depth concentration experiments and the exact reconstruction."""
    ds = build_dataset(cfg)
    c = cfg.concentration
    # the one bound the config section cannot check: it depends on the data
    if ("reconstruct" in c.experiments
            and max(c.reconstruct_i, c.reconstruct_j) >= ds.n):
        raise ConfigError(
            f"concentration.reconstruct_i = {c.reconstruct_i} and "
            f".reconstruct_j = {c.reconstruct_j} must be < n = {ds.n}")
    out = _out_dir(cfg)
    sigma_w2 = cfg.model.sigma_w2
    outputs = []

    for name in c.experiments:
        if name == "tied_vs_population":
            rep = tied_vs_population(ds.x, sigma_w2, c.m_list, c.l, c.trials,
                                     c.base_seed)
            write_report_csv(out / "tied_vs_population.csv", rep)
            write_summary_csv(out / "tied_vs_population_summary.csv", rep)
            meds = [float(np.median(rep.errors_for(m=m))) for m in c.m_list]
            line_plot_svg(out / "tied_vs_population.svg",
                          {"median error": (list(c.m_list), meds)},
                          "Tied model vs population kernel", "width m",
                          "||G/m - K||_F", logy=True)
            outputs += ["tied_vs_population.csv", "tied_vs_population_summary.csv",
                        "tied_vs_population.svg"]
            for m, med in zip(c.m_list, meds):
                click.echo(f"tied_vs_population m={m}: median error {med:.4g}")
        elif name == "lambda0_vs_width":
            rep = lambda0_vs_width(ds.x, sigma_w2, c.m_list, c.trials,
                                   c.base_seed, cfg.solver)
            write_report_csv(out / "lambda0_vs_width.csv", rep)
            write_summary_csv(out / "lambda0_vs_width_summary.csv", rep)
            fr = rep.extra["fraction_ge_half"]
            write_csv(out / "lambda0_fractions.csv", "m,fraction_ge_half",
                      ((m, fr[m]) for m in c.m_list))
            outputs += ["lambda0_vs_width.csv", "lambda0_vs_width_summary.csv",
                        "lambda0_fractions.csv"]
            for m in c.m_list:
                click.echo(f"lambda0_vs_width m={m}: "
                           f"fraction(lambda0 >= m*lambda*/2) = {fr[m]:.3g}")
        elif name == "kernel_depth_decay":
            pk = kernel_fixed_point(ds.x, sigma_w2, tol=cfg.kernel.tol)
            series = kernel_depth_decay(pk, ds.x, cfg.kernel.l_max)
            write_csv(out / "kernel_depth_decay.csv", "l,error",
                      enumerate(series, start=1))
            outputs.append("kernel_depth_decay.csv")
            click.echo(f"kernel_depth_decay: first {series[0]:.4g} "
                       f"last {series[-1]:.4g}")
        elif name == "equilibrium_depth_decay":
            p = init_params(c.reconstruct_m, ds.d, sigma_w2, c.base_seed)
            series = equilibrium_depth_decay(p, ds.x, c.l, cfg.solver)
            write_csv(out / "equilibrium_depth_decay.csv", "l,error",
                      enumerate(series, start=1))
            outputs.append("equilibrium_depth_decay.csv")
            click.echo(f"equilibrium_depth_decay: first {series[0]:.4g} "
                       f"last {series[-1]:.4g}")
        elif name == "reconstruct":
            p = init_params(c.reconstruct_m, ds.d, sigma_w2, c.base_seed)
            id_err, ip_err = fresh_randomness_reconstruct(
                p, ds.x, c.reconstruct_i, c.reconstruct_j, c.reconstruct_l)
            write_csv(out / "reconstruct.csv",
                      "i,j,l,m,identity_error,inner_product_error",
                      [(c.reconstruct_i, c.reconstruct_j, c.reconstruct_l,
                        c.reconstruct_m, id_err, ip_err)])
            outputs.append("reconstruct.csv")
            click.echo(f"reconstruct (i={c.reconstruct_i}, j={c.reconstruct_j}, "
                       f"l={c.reconstruct_l}): identity error {id_err:.3e}, "
                       f"inner-product error {ip_err:.3e}")

    write_run_manifest(out, doc,
                       {"data": cfg.data.seed, "concentration": c.base_seed},
                       outputs, started)


@main.command("grad-check")
@_command
def cmd_grad_check(cfg, doc, started):
    """Verify implicit gradients against both reference constructions."""
    d = min(cfg.data.d, 8)
    ds = gen_sphere_data(5, d, cfg.data.seed)
    solver = replace(cfg.solver, tol=1e-12)
    p = init_params(30, d, cfg.model.sigma_w2, cfg.model.seed)
    sol = solve_equilibrium(p, ds.x, solver)
    g, _ = gradients(p, sol, ds.x, ds.y, solver)
    step = 1e-5
    floor = (FD_ROUNDING_MULTIPLE * np.finfo(np.float64).eps
             * loss(predict(p, sol.z), ds.y) / step)

    failures = []

    ref = dense_gradients_reference(p, sol.z, ds.x, ds.y)
    for name, a, b in (("W", g.gw, ref.gw), ("U", g.gu, ref.gu),
                       ("a", g.ga, ref.ga)):
        rel = np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-30)
        status = "pass" if rel <= 1e-8 else "FAIL"
        if rel > 1e-8:
            failures.append(f"dense:{name}")
        click.echo(f"dense-construction {name}: rel error {rel:.3e} [{status}]")

    fd, valid = finite_difference_gradients(p, ds.x, ds.y, step=step,
                                            cfg=solver)
    click.echo(f"finite-difference rounding floor: {floor:.3e} "
               f"({FD_ROUNDING_MULTIPLE} eps Phi / step); smaller differences "
               f"match")
    for name, a, b, v in (("W", g.gw, fd.gw, valid.gw),
                          ("U", g.gu, fd.gu, valid.gu),
                          ("a", g.ga, fd.ga, valid.ga)):
        err = np.abs(a - b)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
        rel = float(np.where(err <= floor, 0.0, err / denom)[v].max())
        status = "pass" if rel <= 1e-4 else "FAIL"
        if rel > 1e-4:
            failures.append(f"fd:{name}")
        click.echo(f"finite-difference {name}: max rel error {rel:.3e} "
                   f"(excluded {int((~v).sum())} kink probes) [{status}]")

    if failures:
        raise TrainingAssertionError(f"gradient checks failed: {failures}")
    click.echo("all gradient checks passed")


if __name__ == "__main__":
    main()
