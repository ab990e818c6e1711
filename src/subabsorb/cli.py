"""Command-line front end.

    subabsorb run <recipe|config.json> [--seed S] [--realizations M] [--out DIR]
    subabsorb list
    subabsorb fit <trace.csv> [--lifetime-ns T] [--resamples N] [--seed S]
                  [--out FILE]

Exit codes: 0 success, 2 fit failure, 3 config error, 4 model error (a
drive above the perturbative budget, an infeasible packing density, a
coupling spectrum that is not positive or a value outside the model's
domain, such as a fit window that mixes zero and positive uncertainties).
A sweep that fails still writes its completed rows and a sweep_meta.json
with complete=false and the error.
The SUBABSORB_OUT environment variable overrides the default output
directory (an explicit --out still wins).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import analysis, recipes
from .core import AtomicSpecies, ConfigError
from .maxwell_bloch import TransmissionTrace

EXIT_OK = 0
EXIT_FIT = 2
EXIT_CONFIG = 3
EXIT_MODEL = 4


def _build_parser():
    parser = argparse.ArgumentParser(prog="subabsorb",
                                     description="transient-absorption simulation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a built-in recipe or a JSON sweep config")
    p_run.add_argument("recipe", help="recipe name or path to a config.json")
    p_run.add_argument("--seed", type=int, default=None, help="override the base RNG seed")
    p_run.add_argument("--realizations", type=int, default=None,
                       help="override the disorder-realization count")
    p_run.add_argument("--out", default=None, help="output directory")

    sub.add_parser("list", help="print the recipe catalog")

    p_fit = sub.add_parser("fit", help="fit a rise-time to a trace CSV")
    p_fit.add_argument("trace", help="CSV with t_ns,I_input,I_output or t_ns,sigma[,u_sigma]")
    p_fit.add_argument("--lifetime-ns", type=float, default=26.2,
                       help="excited-state lifetime used to scale t_ns")
    p_fit.add_argument("--resamples", type=int, default=10_000,
                       help="Monte-Carlo resamples for the tau uncertainty")
    p_fit.add_argument("--seed", type=int, default=0, help="Monte-Carlo seed")
    p_fit.add_argument("--out", default=None, help="write the fit record to this file")
    return parser


def _default_out(explicit):
    if explicit is not None:
        return explicit
    return os.environ.get("SUBABSORB_OUT", "runs")


def _read_trace_csv(path, lifetime_ns):
    try:
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read trace {path}: {exc}") from exc
    if len(header) > data.shape[1]:
        raise ConfigError(f"trace header names {len(header)} columns, "
                          f"the rows hold {data.shape[1]}")
    cols = {name.strip(): data[:, i] for i, name in enumerate(header)}
    if "t_ns" not in cols:
        raise ConfigError("trace CSV needs a t_ns column")
    t = cols["t_ns"] / lifetime_ns
    if "sigma" in cols:
        u = cols.get("u_sigma", np.zeros_like(t))
        return analysis.OpticalDepthTrace(t_points=t, sigma=cols["sigma"], u_sigma=u)
    if "I_input" in cols and "I_output" in cols:
        trace = TransmissionTrace(t_points=t,
                                  intensity_input=cols["I_input"],
                                  intensity_output=cols["I_output"],
                                  u_input=cols.get("u_input"),
                                  u_output=cols.get("u_output"))
        return analysis.optical_depth_trace(trace)
    raise ConfigError("trace CSV needs either sigma or I_input/I_output columns")


def cmd_run(args) -> int:
    if os.path.exists(args.recipe) or args.recipe.endswith(".json"):
        recipe = recipes.load_recipe(args.recipe)
    else:
        recipe = recipes.get_recipe(args.recipe)
    out_dir = _default_out(args.out)
    rows = recipes.run_recipe(recipe, out_dir, seed=args.seed,
                              realizations=args.realizations)
    print(f"{recipe.name}: {len(rows)} rows -> "
          f"{os.path.join(out_dir, recipe.name)}")
    return EXIT_OK


def cmd_list() -> int:
    for recipe in recipes.recipe_catalog():
        values = recipe.sweep_values
        span = f"{values[0]:g}..{values[-1]:g}" if len(values) > 1 else f"{values[0]:g}"
        print(f"{recipe.name:26s} {recipe.model:15s} sweep {recipe.swept_parameter}"
              f"={span} ({len(values)} pts)  {recipe.description}")
    return EXIT_OK


def cmd_fit(args) -> int:
    if args.seed < 0:
        raise ConfigError("--seed must be >= 0")
    species = AtomicSpecies(excited_lifetime_ns=args.lifetime_ns)
    if args.out and not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
        raise ConfigError(f"directory of --out {args.out} does not exist")
    trace = _read_trace_csv(args.trace, args.lifetime_ns)
    need = analysis.monte_carlo_peak_bytes(trace, args.resamples)
    if need > recipes.MEMORY_BUDGET:
        raise ConfigError(f"--resamples {args.resamples} needs about {need / 2**30:.3g} GiB, "
                          f"above the {recipes.MEMORY_BUDGET / 2**30:g} GiB memory budget")
    fit = analysis.fit_with_uncertainty(trace, resamples=args.resamples, seed=args.seed)
    record = {
        "tau_ns": fit.tau * species.excited_lifetime_ns,
        "tau_err_ns": (fit.tau_uncertainty or 0.0) * species.excited_lifetime_ns,
        "sigma_init": fit.sigma_init,
        "sigma_ss_fit": fit.sigma_ss_fit,
        "chi2_reduced": fit.reduced_chi_squared,
        "n_iterations": fit.n_iterations,
        "bound_saturated": fit.bound_saturated,
        "window": [w * species.excited_lifetime_ns for w in fit.fit_window],
        "seed": args.seed,
    }
    text = json.dumps(record, indent=1, sort_keys=True)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "list":
            return cmd_list()
        if args.command == "fit":
            return cmd_fit(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except recipes.FIT_ERRORS as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return EXIT_FIT
    except recipes.MODEL_ERRORS as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
