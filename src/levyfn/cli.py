"""Command-line front end.

Subcommands: `classify` (boundary classification report), `scale-table`
(CSV of W values with closed-form comparison), `simulate` (Monte Carlo runs
with per-path dumps), and `verify` (the acceptance suite).

Exit codes: 0 decisive success, 1 invalid model, config or command line
(usage errors included), 2 an inconclusive verdict, 3 verification failure.
Every run of `classify`, `scale-table` and `simulate` emits a manifest
(model hash, seed, flags, library versions) sufficient to reproduce its
output: as `manifest.json` when an output directory is given, on stderr
otherwise; `verify` writes none.  Existing output files are never
overwritten without --force.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .builtin import BUILTIN_NAMES, resolve_model
from .errors import LevyFnError
from .integral_tests import PowerLaw, classify_boundary, constant_functional
from .levy_model import model_to_dict
from .montecarlo import (
    CondExpFunctional,
    FunctionalFiniteness,
    HitProb,
    MeanPassage,
    PathConfig,
    mc_estimate,
)
from .scale_fn import (
    ScaleEvaluator,
    conditional_exp_constant_closed_form,
    conditional_exp_transform,
    occupation_transform,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INCONCLUSIVE = 2
EXIT_VERIFY_FAILED = 3


def _env_seed() -> int:
    return int(os.environ.get("LEVYFN_SEED", "0"))


def _manifest(command: str, model, flags: dict) -> dict:
    cfg = model_to_dict(model) if model is not None else None
    blob = json.dumps(cfg, sort_keys=True).encode() if cfg else b""
    return {
        "command": command,
        "model": cfg,
        "model_sha256": hashlib.sha256(blob).hexdigest() if cfg else None,
        "flags": flags,
        "versions": {"levyfn": __version__, "numpy": np.__version__,
                     "python": ".".join(map(str, sys.version_info[:3]))},
    }


def _strict(obj):
    """`obj` with each non-finite float as the string "inf", "-inf" or "nan"."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return obj


def _dumps(obj, indent: int | None = None) -> str:
    """Strict JSON, with sorted keys, for every JSON output of the CLI."""
    return json.dumps(_strict(obj), indent=indent, sort_keys=True, allow_nan=False)


def _emit_manifest(manifest: dict, outdir: Path | None, force: bool) -> None:
    if outdir is None:
        print(_dumps({"manifest": manifest}), file=sys.stderr)
        return
    outdir.mkdir(parents=True, exist_ok=True)
    _write_text(outdir / "manifest.json", _dumps(manifest, indent=2) + "\n", force)


def _write_text(path: Path, text: str, force: bool) -> None:
    if path.exists() and not force:
        raise FileExistsError(f"{path} exists; pass --force to overwrite")
    path.write_text(text, encoding="utf-8")


def _functional_from_args(args) -> object:
    if args.f == "const":
        return constant_functional()
    if args.f == "power":
        return PowerLaw(args.theta)
    raise ValueError(f"unknown functional {args.f!r}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_classify(args) -> int:
    model = resolve_model(args.model)
    report = classify_boundary(model, PowerLaw(args.theta), args.x)
    payload = report.to_dict()
    payload["theta"] = args.theta
    payload["x"] = args.x
    manifest = _manifest("classify", model,
                         {"theta": args.theta, "x": args.x, "model": args.model})
    outdir = Path(args.outdir) if args.outdir else None
    if outdir is not None:
        _emit_manifest(manifest, outdir, args.force)
        _write_text(outdir / "classify.json", _dumps(payload, indent=2) + "\n", args.force)
        print(_dumps(payload))
    else:
        payload["manifest"] = manifest
        print(_dumps(payload, indent=2))
    return EXIT_OK if report.decisive else EXIT_INCONCLUSIVE


def cmd_scale_table(args) -> int:
    if not 0.0 < args.min < args.max < math.inf or args.count < 2:
        raise ValueError("need finite 0 < min < max and count >= 2")
    model = resolve_model(args.model)
    ev = ScaleEvaluator(model)
    xs = (np.geomspace(args.min, args.max, args.count) if args.log
          else np.linspace(args.min, args.max, args.count))
    # without a closed form, `ev` already inverts
    inversion = (ev if ev.closed_form is None
                 else ScaleEvaluator(model, use_closed_form=False))

    lines = ["x,W,W_closed_form,rel_err"]
    ws = inversion.scale_w(xs)
    if ev.closed_form is None:
        lines += [f"{x:.10g},{w:.12g},," for x, w in zip(xs, ws)]
    else:
        for x, w, ref in zip(xs, ws, ev.scale_w(xs)):
            rel = abs(w - ref) / abs(ref) if ref != 0.0 else 0.0
            lines.append(f"{x:.10g},{w:.12g},{ref:.12g},{rel:.3e}")
    text = "\n".join(lines) + "\n"

    manifest = _manifest("scale-table", model,
                         {"min": args.min, "max": args.max, "count": args.count,
                          "log": args.log, "model": args.model})
    outdir = Path(args.outdir) if args.outdir else None
    _emit_manifest(manifest, outdir, args.force)
    if outdir is not None:
        _write_text(outdir / "scale_table.csv", text, args.force)
    print(text, end="")
    return EXIT_OK


def _estimator_from_args(args):
    if args.estimator == "hitprob":
        return HitProb()
    if args.estimator == "meanpassage":
        return MeanPassage(y=args.y)
    if args.estimator == "condexp":
        return CondExpFunctional(lam=args.lam)
    if args.estimator == "finiteness":
        return FunctionalFiniteness()
    raise ValueError(f"unknown estimator {args.estimator!r}")


def _analytic_oracle(model, args) -> dict:
    """Closed-form or quadrature predictions matching the chosen estimator.

    Both functionals the CLI offers have transform-domain formulas, so no
    scale function is inverted here.
    """
    oracle: dict = {}
    try:
        if args.estimator == "hitprob":
            oracle["hit_probability"] = model.hit_probability(args.x)
        elif args.estimator == "condexp" and args.f == "const":
            oracle["conditional_exp_closed_form"] = (
                conditional_exp_constant_closed_form(model, args.x, args.lam))
        elif args.estimator == "condexp":
            oracle["conditional_exp_transform"] = conditional_exp_transform(
                model, _functional_from_args(args), args.x, args.lam)
        elif args.estimator == "meanpassage":
            oracle["occupation_quadrature"] = occupation_transform(
                model, _functional_from_args(args), args.x, args.y)
    except LevyFnError as exc:
        oracle["note"] = f"no analytic oracle: {exc}"
    return oracle


def cmd_simulate(args) -> int:
    model = resolve_model(args.model)
    estimator = _estimator_from_args(args)
    f = None if args.estimator == "hitprob" else _functional_from_args(args)
    seed = args.seed if args.seed is not None else _env_seed()
    cfg = PathConfig(dt=args.dt, horizon=args.horizon, barrier=args.barrier,
                     eps=args.eps, seed=seed)
    summary = mc_estimate(model, args.x, f, estimator, args.paths, cfg,
                          workers=args.workers, keep_path_rows=True)
    rows = summary.extras.pop("path_rows")

    def fmt(v: float) -> str:
        return "" if isinstance(v, float) and math.isnan(v) else f"{v:.10g}"

    csv_lines = ["path_id,status,zeta,A_final"]
    csv_lines.extend(f"{i},{status},{fmt(zeta)},{fmt(a)}" for i, status, zeta, a in rows)
    csv_text = "\n".join(csv_lines) + "\n"

    payload = {
        "estimator": args.estimator,
        "estimate": summary.estimate,
        "stderr": summary.stderr,
        "n_paths": summary.n_paths,
        "censored_fraction": summary.censored_fraction,
        "seed": summary.seed,
        "diagnostics": {k: v for k, v in summary.extras.items()},
        "oracles": _analytic_oracle(model, args),
    }
    flags = {k: getattr(args, k) for k in
             ("model", "estimator", "paths", "x", "dt", "horizon", "barrier",
              "eps", "workers", "f", "theta", "lam", "y")}
    flags["seed"] = seed
    manifest = _manifest("simulate", model, flags)

    outdir = Path(args.outdir) if args.outdir else None
    _emit_manifest(manifest, outdir, args.force)
    if outdir is not None:
        _write_text(outdir / "paths.csv", csv_text, args.force)
        _write_text(outdir / "summary.json", _dumps(payload, indent=2) + "\n", args.force)
    print(_dumps(payload, indent=2))
    return EXIT_OK


def cmd_verify(args) -> int:
    from .acceptance import run_suite

    def report(res):
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.name:30s} measured: {res.measured}  "
              f"expected: {res.expected}  tol: {res.tolerance}  "
              f"({res.seconds:.1f}s)")
        if res.detail:
            print(f"       {res.detail}")

    results = run_suite(suite=args.suite, report=report)
    n_fail = sum(1 for r in results if not r.passed)
    print(f"{len(results) - n_fail}/{len(results)} checks passed")
    return EXIT_OK if n_fail == 0 else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levyfn",
        description="Integral tests, scale functions, and Monte Carlo for "
                    "spectrally positive Levy processes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model(p):
        p.add_argument("--model", required=True,
                       help=f"model JSON path or builtin name ({', '.join(BUILTIN_NAMES)})")
        p.add_argument("--outdir", default=None, help="output directory")
        p.add_argument("--force", action="store_true",
                       help="overwrite existing output files")

    p = sub.add_parser("classify", help="extinction/extinguishing/explosion report")
    add_model(p)
    p.add_argument("--theta", type=float, required=True,
                   help="power-law functional f(x) = x^(-theta)")
    p.add_argument("--x", type=float, default=1.0, help="starting point")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("scale-table", aliases=["scale"],
                       help="CSV table of the scale function W")
    add_model(p)
    p.add_argument("--min", type=float, default=0.1)
    p.add_argument("--max", type=float, default=10.0)
    p.add_argument("--count", type=int, default=50)
    grid = p.add_mutually_exclusive_group()
    grid.add_argument("--log", dest="log", action="store_true", default=True)
    grid.add_argument("--linear", dest="log", action="store_false")
    p.set_defaults(fn=cmd_scale_table)

    p = sub.add_parser("simulate", help="Monte Carlo estimation with per-path dump")
    add_model(p)
    p.add_argument("--estimator", required=True,
                   choices=["hitprob", "meanpassage", "condexp", "finiteness"])
    p.add_argument("--paths", type=int, required=True)
    p.add_argument("--x", type=float, default=1.0)
    p.add_argument("--f", choices=["const", "power"], default="const",
                   help="functional under the integral")
    p.add_argument("--theta", type=float, default=1.0, help="power-law exponent")
    p.add_argument("--lam", type=float, default=1.0,
                   help="exponential weight for condexp")
    p.add_argument("--y", type=float, default=0.01,
                   help="passage level for meanpassage")
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--horizon", type=float, default=100.0)
    p.add_argument("--barrier", type=float, default=100.0)
    p.add_argument("--eps", type=float, default=1e-3,
                   help="small-jump truncation level; applies only to families "
                        "without exact increments (cpexp, tempered alpha >= 1)")
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (falls back to LEVYFN_SEED, then 0)")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--suite", choices=["all", "analytic", "montecarlo"],
                   default="all")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, the code of an inconclusive
        # verdict, and 0 after --help
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except (LevyFnError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
