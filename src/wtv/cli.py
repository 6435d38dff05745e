"""Experiment harness and command line front end.

Configs are flat key = value text files ('#' starts a comment); see README
for the key reference.  configs/ holds the presets of the acceptance-scale
experiments and of the lambda sweeps.  Verbs:

    run <config>                 restore with every configured solver
    sweep <config> --lambda ...  repeat the primary solver over a lambda grid
    mask --lines L --n N --out F write a radial sampling mask
    fixtures --out DIR           export the bundled test images

run and sweep share one solve-and-record path: _solve turns a solve into
the result row whose psnr,seconds,fb_iters,converged columns end both
summary.csv and lambda_sweep.csv, _fmt_result formats those columns, and
_write_lines writes every text output, the CSV files and
config_resolved.cfg.

Exit codes: 0 success, 2 bad configuration, 3 every solver diverged (run)
or a solve diverged (sweep), 4 file I/O failure.  Relative output
directories are resolved against $WTV_OUTPUT_ROOT when it is set.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, fields, replace

from .bregman import INNER_SOLVERS
from .errors import ConfigError, DivergenceError
from .forward_backward import SolverConfig, afb_solve
from .grid import write_grid, write_pgm
from .operators import MIN_MASK_N, FourierMaskModel, GaussianBlurModel, radial_mask
from .testdata import NoiseSpec, add_gaussian_noise, piecewise_test_image, shepp_logan

__all__ = ["ExperimentConfig", "run_experiment", "sweep_lambda", "main"]

# each problem with its smallest side length: the deblur test image needs 32
MIN_N = {"deblur": 32, "cs_mri": MIN_MASK_N}
PROBLEMS = tuple(MIN_N)

ENV_OUTPUT_ROOT = "WTV_OUTPUT_ROOT"


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a test problem plus solver settings and outputs.

    Each field but solver, and each field of SolverConfig but inner, is a
    config file key; see _KEYS.
    """

    problem: str
    n: int = 256
    seed: int = 0
    noise_variance: float = 0.0
    blur_sigma: float = 1.5
    blur_size: int = 9
    mask_lines: int = 10
    solvers: tuple = ("fwsb", "gauss_seidel")
    outdir: str = "results"
    solver: SolverConfig = SolverConfig(lam=1e-3)

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise ConfigError(f"problem must be one of {PROBLEMS}, got {self.problem!r}")
        if self.n < MIN_N[self.problem]:
            raise ConfigError(f"n must be at least {MIN_N[self.problem]} for "
                              f"problem = {self.problem}, got {self.n}")
        if not self.solvers:
            raise ConfigError("need at least one solver")
        for s in self.solvers:
            if s not in INNER_SOLVERS:
                raise ConfigError(f"unknown solver {s!r}")
        if len(set(self.solvers)) < len(self.solvers):
            raise ConfigError(f"a solver is listed twice: {','.join(self.solvers)}")
        if not (math.isfinite(self.noise_variance) and self.noise_variance >= 0):
            raise ConfigError(
                f"noise_variance must be finite and >= 0, got {self.noise_variance}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def _parse_bool(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ConfigError(f"expected true/false, got {text!r}")
    return text.lower() == "true"


def _parse_solvers(text: str) -> tuple:
    return tuple(s.strip() for s in text.split(",") if s.strip())


# Parser per field annotation; under `from __future__ import annotations`
# both config dataclasses keep their annotations as these strings.
_PARSERS = {
    "str": str,
    "int": int,
    "float": float,
    "float | None": float,
    "bool": _parse_bool,
    "tuple": _parse_solvers,
}

# config file key -> (dataclass, field, parser), in field order; lam is
# spelled out as `lambda` in files
_KEYS = {
    "lambda" if f.name == "lam" else f.name: (cls, f.name, _PARSERS[f.type])
    for cls, nested in ((ExperimentConfig, "solver"), (SolverConfig, "inner"))
    for f in fields(cls)
    if f.name != nested
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key = value format; unknown and repeated keys are errors."""
    kwargs = {ExperimentConfig: {}, SolverConfig: {}}
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"key {key!r} is set twice, on lines {seen[key]} and {lineno}")
        seen[key] = lineno
        cls, attr, parse = _KEYS[key]
        try:
            kwargs[cls][attr] = parse(value)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {value!r}") from exc
    exp_kw, sol_kw = kwargs.values()
    if "problem" not in exp_kw:
        raise ConfigError("config must set 'problem'")
    if "lam" not in sol_kw and "r0" not in sol_kw:
        sol_kw["lam"] = ExperimentConfig.solver.lam
    return ExperimentConfig(solver=SolverConfig(**sol_kw), **exp_kw)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(value)
    return str(value)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Emit every set key in a stable order; parse(serialize(c)) == c."""
    lines = []
    for key, (cls, attr, _) in _KEYS.items():
        value = getattr(cfg if cls is ExperimentConfig else cfg.solver, attr)
        if value is not None:
            lines.append(f"{key} = {_format_value(value)}")
    return "\n".join(lines) + "\n"


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
    return parse_config(text)


def resolve_outdir(outdir: str) -> str:
    root = os.environ.get(ENV_OUTPUT_ROOT)
    if root and not os.path.isabs(outdir):
        return os.path.join(root, outdir)
    return outdir


def _output_path(outdir: str, name: str) -> str:
    """Path of an output file, creating its directory on first use.

    So a run rejected before its first write leaves no directory behind.
    """
    os.makedirs(outdir, exist_ok=True)
    return os.path.join(outdir, name)


def build_problem(cfg: ExperimentConfig):
    """Ground truth, forward model, noisy data and sampling percentage of a config.

    The percentage is radial_mask's for cs_mri and None for deblur.
    """
    if cfg.problem == "deblur":
        truth = piecewise_test_image(cfg.n)
        model = GaussianBlurModel(cfg.n, cfg.blur_sigma, cfg.blur_size)
        pct = None
    else:
        truth = shepp_logan(cfg.n)
        mask, pct = radial_mask(cfg.n, cfg.mask_lines)
        model = FourierMaskModel(mask)
    clean = model.apply(truth)
    data = add_gaussian_noise(clean, NoiseSpec(cfg.noise_variance, cfg.seed))
    return truth, model, data, pct


def _fmt_psnr(value: float) -> str:
    return f"{value:.6f}"


def _solve(model, data, truth, scfg):
    """Solve one built problem; returns u, its trace and the result row.

    The row holds the columns that summary.csv and lambda_sweep.csv share:
    final psnr, wall seconds, forward-backward steps, and whether the run
    stopped by epsilon rather than by max_fb.
    """
    u, trace = afb_solve(model, data, scfg, reference=truth)
    row = {
        "psnr": trace.psnr[-1],
        "seconds": trace.cum_seconds[-1],
        "fb_iters": trace.iterations[-1],
        "converged": trace.rel_change[-1] < scfg.epsilon,
    }
    return u, trace, row


def _fmt_result(row) -> str:
    """The shared columns psnr,seconds,fb_iters,converged of a result row."""
    return (f"{_fmt_psnr(row['psnr'])},{row['seconds']:.3f},"
            f"{row['fb_iters']},{int(row['converged'])}")


def _write_lines(outdir: str, name: str, lines) -> None:
    """Write an output file of lines, each ended by one newline."""
    with open(_output_path(outdir, name), "w", encoding="utf-8", newline="") as fh:
        fh.writelines(line + "\n" for line in lines)


def run_experiment(cfg: ExperimentConfig):
    """Run every configured solver on the experiment; returns per-solver rows."""
    truth, model, data, pct = build_problem(cfg)
    outdir = resolve_outdir(cfg.outdir)
    rows = []
    for name in cfg.solvers:
        try:
            u, trace, row = _solve(model, data, truth, replace(cfg.solver, inner=name))
        except DivergenceError as exc:
            rows.append({"solver": name, "status": "diverged", "detail": str(exc)})
            print(f"{name}: diverged ({exc})", file=sys.stderr)
            continue
        _write_lines(outdir, f"trace_{name}.csv", [
            "n,psnr,objective,rel_change,cum_seconds,inner_iters,alpha,sweeps",
            *(f"{trace.iterations[i]},{_fmt_psnr(trace.psnr[i])},"
              f"{trace.objective[i]:.10e},{trace.rel_change[i]:.6e},"
              f"{trace.cum_seconds[i]:.3f},{trace.inner_iters[i]},"
              f"{trace.alpha[i]!r},{trace.sweeps[i]}" for i in range(len(trace)))])
        write_pgm(_output_path(outdir, f"recon_{name}.pgm"), u)
        write_grid(_output_path(outdir, f"recon_{name}.grid"), u)
        rows.append({"solver": name, "status": "ok", **row})
        print(f"{name}: psnr={_fmt_psnr(row['psnr'])} dB, "
              f"{row['seconds']:.3f} s, {row['fb_iters']} iterations")
    _write_lines(outdir, "summary.csv", [
        "solver,status,psnr,seconds,fb_iters,converged",
        *(f"{r['solver']},ok,{_fmt_result(r)}" if r["status"] == "ok"
          else f"{r['solver']},diverged,,,," for r in rows)])
    note = [] if pct is None else [f"# sampling_pct = {pct!r}"]
    _write_lines(outdir, "config_resolved.cfg", serialize_config(cfg).splitlines() + note)
    if pct is not None:
        print(f"sampling_pct = {pct}")
    return rows


def sweep_lambda(cfg: ExperimentConfig, lambdas):
    """Rerun the primary (first) solver per lambda; returns the curve rows.

    Every lambda is parsed and checked before the first solve.
    """
    try:
        values = [float(v) for v in lambdas]
    except ValueError as exc:
        raise ConfigError(f"bad lambda value: {exc}") from None
    if not values:
        raise ConfigError("lambda sweep needs at least one value")
    solver_cfgs = [replace(cfg.solver, inner=cfg.solvers[0], lam=lam) for lam in values]
    truth, model, data, _ = build_problem(cfg)
    rows = []
    for scfg in solver_cfgs:
        _, _, row = _solve(model, data, truth, scfg)
        rows.append({"lam": scfg.lam, **row})
        print(f"lambda={scfg.lam!r}: psnr={_fmt_psnr(row['psnr'])} dB, "
              f"{row['fb_iters']} iterations")
    _write_lines(resolve_outdir(cfg.outdir), "lambda_sweep.csv", [
        "lambda,psnr,seconds,fb_iters,converged",
        *(f"{r['lam']!r},{_fmt_result(r)}" for r in rows)])
    best = max(rows, key=lambda r: r["psnr"])
    print(f"best: lambda={best['lam']!r} at {_fmt_psnr(best['psnr'])} dB")
    return rows, best


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    rows = run_experiment(cfg)
    if all(row["status"] == "diverged" for row in rows):
        return 3
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    values = []
    for chunk in args.lam:
        values.extend(v for v in chunk.replace(",", " ").split() if v)
    sweep_lambda(cfg, values)
    return 0


def _cmd_mask(args) -> int:
    # named by the verb's flags: radial_mask's own messages name config keys
    for flag, value, least in (("--lines", args.lines, 1), ("--n", args.n, MIN_MASK_N)):
        if value < least:
            raise ConfigError(f"{flag} must be at least {least}, got {value}")
    mask, pct = radial_mask(args.n, args.lines)
    write_grid(args.out, mask)
    if args.pgm:
        write_pgm(args.pgm, mask)
    print(f"{args.lines} lines on {args.n}x{args.n}: sampling_pct = {pct}")
    return 0


def _cmd_fixtures(args) -> int:
    # checked here to name the verb's flag; the cartoon, the deblur
    # problem's test image, sets the minimum
    if args.n < MIN_N["deblur"]:
        raise ConfigError(f"--n must be at least {MIN_N['deblur']}, got {args.n}")
    images = (("shepp_logan", shepp_logan(args.n)), ("cartoon", piecewise_test_image(args.n)))
    outdir = resolve_outdir(args.out)
    for name, img in images:
        write_grid(_output_path(outdir, f"{name}.grid"), img)
        write_pgm(_output_path(outdir, f"{name}.pgm"), img)
    print(f"wrote fixtures to {outdir}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wtv", description="Weighted-TV image restoration experiments."
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run every configured solver")
    p_run.add_argument("config", help="path to a key = value config file")
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep the regularisation weight")
    p_sweep.add_argument("config")
    p_sweep.add_argument(
        "--lambda",
        dest="lam",
        action="append",
        required=True,
        help="lambda values (comma or space separated; repeatable)",
    )
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_mask = sub.add_parser("mask", help="generate a radial sampling mask")
    p_mask.add_argument("--lines", type=int, required=True)
    p_mask.add_argument("--n", type=int, default=256)
    p_mask.add_argument("--out", required=True, help="output grid file")
    p_mask.add_argument("--pgm", help="also write a PGM preview")
    p_mask.set_defaults(fn=_cmd_mask)

    p_fix = sub.add_parser("fixtures", help="export the bundled test images")
    p_fix.add_argument("--out", required=True)
    p_fix.add_argument("--n", type=int, default=256)
    p_fix.set_defaults(fn=_cmd_fixtures)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
