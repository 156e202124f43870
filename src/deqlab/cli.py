"""Command-line front end: reproducible experiments from a config file.

Subcommands: gen-data, kernel, check, train, concentration, grad-check.
Every command takes `-c config.yaml` plus repeatable
`--set section.key=value` overrides. Outputs (CSVs, SVG plots, run.json
manifest) land in the configured output directory.

A deqlab error ends the process with its class's `exit_code` (see
deqlab.errors); success is 0.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from . import __version__, train
from .concentration import (
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
    load_labels_csv,
    load_matrix_csv,
    save_labels_csv,
    save_matrix_csv,
)
from .errors import (
    AssumptionError,
    ConfigError,
    DeqlabError,
    InputError,
    TrainingAssertionError,
)
from .grad import (
    FD_STEP,
    dense_gradients_reference,
    finite_difference_gradients,
    gradients,
)
from .kernel import export_kernel, kernel_fixed_point
from .model import init_params, loss, predict, solve_equilibrium
from .reporting import (
    config_hash,
    kept_rows,
    line_plot_svg,
    write_csv,
    write_run_manifest,
)

# A finite-difference entry also matches when it lies within this many
# eps * Phi / step of the implicit one: the rounding floor of a central
# difference of a loss Phi (an exactly zero gradient entry reads about
# 0.4 of it on the desk config).
FD_ROUNDING_MULTIPLE = 2

# Depth of `kernel`'s depth-decay series. On the desk config the error
# falls below the fixed point's 1e-14 tolerance at level 15 and stays
# there.
DEPTH_DECAY_LEVELS = 60

# `concentration`'s reconstruct experiment rebuilds Gram entry (i, j) at
# layer l of a width-m model.
RECONSTRUCT_I, RECONSTRUCT_J, RECONSTRUCT_L, RECONSTRUCT_M = 0, 1, 3, 200


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
        except DeqlabError as exc:
            click.echo(f"error ({type(exc).__name__}): {exc}", err=True)
            sys.exit(exc.exit_code)

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
    x = load_matrix_csv(d.matrix)
    y = load_labels_csv(d.labels_csv)
    try:
        return Dataset(x=x, y=y, provenance="file", y_cap=d.y_cap)
    except (InputError, AssumptionError) as exc:
        raise type(exc)(f"{d.matrix}, {d.labels_csv}: {exc}") from exc


@main.command("gen-data")
@_command
def cmd_gen_data(cfg, doc, started):
    """Generate (or ingest) a dataset and write it in the CSV schema."""
    ds = build_dataset(cfg)
    out = _out_dir(cfg)
    save_matrix_csv(out / "data.csv", ds.x)
    save_labels_csv(out / "labels.csv", ds.y)
    write_run_manifest(out, doc, {"data": cfg.data.seed},
                       ["data.csv", "labels.csv"], started)
    click.echo(f"wrote dataset d={ds.d} n={ds.n} ({ds.provenance}) to {out}")


@main.command("kernel")
@_command
def cmd_kernel(cfg, doc, started):
    """Population kernel: K, lambda*, suggested width/depth, depth decay."""
    ds = build_dataset(cfg)
    out = _out_dir(cfg)
    pk = kernel_fixed_point(ds.x, cfg.model.sigma_w2)
    summary = export_kernel(pk, out)
    series = kernel_depth_decay(pk, ds.x, DEPTH_DECAY_LEVELS)
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
    lam0 = train.gram_min_eig(sol.z)
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

    resumed = train.TrainState()
    if t.resume is not None:  # one width, checked at load
        p_resume, resumed = train.load_checkpoint(t.resume)
        have = (p_resume.m, p_resume.d, p_resume.sigma_w2)
        if have != (widths[0], ds.d, cfg.model.sigma_w2):
            raise ConfigError(
                f"train.resume: checkpoint has (m, d, sigma_w2) = {have}, "
                f"the config asks for {(widths[0], ds.d, cfg.model.sigma_w2)}")
        # the rows a resume keeps must reach its checkpoint's cadence
        for name in (f"metrics_m{widths[0]}.csv", f"trace_m{widths[0]}.csv"):
            path = Path(cfg.output.directory) / name
            last = kept_rows(path, resumed.step)[0] if path.exists() else -1
            if 0 <= last < resumed.step - t.monitor_every:
                raise ConfigError(f"train.resume: {path} holds rows up to step {last}, "
                                  f"so resuming at step {resumed.step} leaves a gap")
    out = _out_dir(cfg)
    start = resumed.step if t.resume is not None else None

    outputs = []
    traces = {}
    # Largest width first: under auto eta its step size, where the
    # stability bound binds, is then shared by the smaller widths.
    for m in reversed(widths):
        tag = f"m{m}"
        p0 = p_resume if t.resume is not None else init_params(
            m, ds.d, cfg.model.sigma_w2, cfg.model.seed)
        records = []  # each step's rows and checkpoint are written as it ends
        metrics = write_csv(out / f"metrics_{tag}.csv", train.METRICS_HEADER, start=start)
        solver = write_csv(out / f"trace_{tag}.csv", train.SOLVER_TRACE_HEADER,
                           start=start)
        for tau, (record, params, state) in enumerate(
                train.train_steps(p0, ds, t, resumed)):
            if record is not None:
                records.append(record)
                metrics(train.metrics_row(record))
                solver(train.solver_trace_row(record))
            if t.checkpoint_every and train.checkpoint_due(tau, t.steps,
                                                           t.checkpoint_every):
                ck = out / f"ckpt_{tag}_{state.step:06d}.npz"
                train.save_checkpoint(ck, params, state, config_hash(doc))
                outputs.append(ck.name)
        outputs += [f"metrics_{tag}.csv", f"trace_{tag}.csv"]

        traces[m] = train.TrainTrace(**vars(state), records=records)
        click.echo(f"{tag}: eta={state.eta:.6g} ({state.eta_mode}) "
                   f"phi0={state.phi_0:.6g} final={records[-1].loss:.6g} "
                   f"max||W||={max(r.w_spec_norm for r in records):.4f}")
        if len(widths) > 1 and t.eta == "auto":
            t = replace(t, eta=state.eta)
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
    if "reconstruct" in c.experiments and RECONSTRUCT_J >= ds.n:
        raise ConfigError(
            f"concentration experiment reconstruct rebuilds Gram entry "
            f"({RECONSTRUCT_I}, {RECONSTRUCT_J}), so it needs data.n >= "
            f"{RECONSTRUCT_J + 1}, got n = {ds.n}")
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
        elif name == "reconstruct":
            p = init_params(RECONSTRUCT_M, ds.d, sigma_w2, c.base_seed)
            id_err, ip_err = fresh_randomness_reconstruct(
                p, ds.x, RECONSTRUCT_I, RECONSTRUCT_J, RECONSTRUCT_L)
            write_csv(out / "reconstruct.csv",
                      "i,j,l,m,identity_error,inner_product_error",
                      [(RECONSTRUCT_I, RECONSTRUCT_J, RECONSTRUCT_L,
                        RECONSTRUCT_M, id_err, ip_err)])
            outputs.append("reconstruct.csv")
            click.echo(f"reconstruct (i={RECONSTRUCT_I}, j={RECONSTRUCT_J}, "
                       f"l={RECONSTRUCT_L}): identity error {id_err:.3e}, "
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
    floor = (FD_ROUNDING_MULTIPLE * np.finfo(np.float64).eps
             * loss(predict(p, sol.z), ds.y) / FD_STEP)

    failures = []

    ref = dense_gradients_reference(p, sol.z, ds.x, ds.y)
    for name, a, b in (("W", g.gw, ref.gw), ("U", g.gu, ref.gu),
                       ("a", g.ga, ref.ga)):
        rel = np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-30)
        status = "pass" if rel <= 1e-8 else "FAIL"
        if rel > 1e-8:
            failures.append(f"dense:{name}")
        click.echo(f"dense-construction {name}: rel error {rel:.3e} [{status}]")

    fd, valid = finite_difference_gradients(p, ds.x, ds.y, cfg=solver)
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
