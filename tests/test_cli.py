"""Config parsing, the experiment harness, and the command line front end."""

import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from wtv.cli import (
    ExperimentConfig,
    load_config,
    main,
    parse_config,
    resolve_outdir,
    run_experiment,
    serialize_config,
    sweep_lambda,
)
from wtv.errors import ConfigError, DivergenceError
from wtv.forward_backward import SolverConfig, afb_solve

from oracles import benchmark_literal, read_grid

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"
README = ROOT / "README.md"
PRESETS = (
    "deblur256.cfg",
    "cs256_lines8.cfg",
    "cs256_lines10.cfg",
    "sweep_deblur128.cfg",
    "sweep_cs128.cfg",
)


def tiny_config_text(outdir, **overrides):
    base = {
        "problem": "deblur",
        "n": 32,
        "seed": 3,
        "noise_variance": 1e-4,
        "blur_sigma": 1.2,
        "blur_size": 5,
        "solvers": "fwsb",
        "outdir": str(outdir),
        "lambda": 1e-3,
        "beta": 0.9,
        "max_fb": 3,
    }
    base.update(overrides)  # an override of None drops the key
    return "\n".join(f"{k} = {v}" for k, v in base.items() if v is not None) + "\n"


def tiny_experiment(outdir, **solver_overrides):
    solver = SolverConfig(lam=1e-3, beta=0.9, max_fb=3, **solver_overrides)
    return ExperimentConfig(
        problem="deblur",
        n=32,
        seed=3,
        noise_variance=1e-4,
        blur_sigma=1.2,
        blur_size=5,
        solvers=("fwsb",),
        outdir=str(outdir),
        solver=solver,
    )


class TestParseConfig:
    def test_minimal(self):
        cfg = parse_config("problem = deblur\n")
        assert cfg.problem == "deblur"
        assert cfg.n == 256
        assert cfg.solver.lam == 1e-3  # default fills in

    def test_comments_and_blanks_skipped(self):
        text = "# full line comment\n\nproblem = cs_mri  # trailing\n\n"
        assert parse_config(text).problem == "cs_mri"

    def test_solver_keys_routed(self):
        text = (
            "problem = deblur\nlambda = 0.02\nbeta = 0.5\nno_accel = true\n"
            "weight_mode = adaptive\nmax_inner = 7\n"
        )
        cfg = parse_config(text)
        assert cfg.solver.lam == 0.02
        assert cfg.solver.beta == 0.5
        assert cfg.solver.no_accel is True
        assert cfg.solver.weight_mode == "adaptive"
        assert cfg.solver.max_inner == 7

    def test_solvers_list_stripped(self):
        cfg = parse_config("problem = deblur\nsolvers = fwsb , gauss_seidel\n")
        assert cfg.solvers == ("fwsb", "gauss_seidel")

    def test_unknown_key_rejected(self):
        # theta is worked out from the weights at every weight update
        for line in ("shrinkage = 2", "theta = 0.1"):
            with pytest.raises(ConfigError, match="unknown key"):
                parse_config(f"problem = deblur\n{line}\n")

    def test_repeated_key_rejected(self):
        text = "problem = deblur\nn = 64\nn = 128\nlambda = 1e-3\nlambda = 5e-2\n"
        with pytest.raises(ConfigError, match=r"'n' is set twice, on lines 2 and 3"):
            parse_config(text)

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("problem deblur\n")

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("problem = deblur\nn = sixteen\n")

    def test_problem_required(self):
        with pytest.raises(ConfigError, match="problem"):
            parse_config("n = 32\n")

    def test_bad_bool(self):
        with pytest.raises(ConfigError, match="true/false"):
            parse_config("problem = deblur\nno_accel = si\n")

    def test_roundtrip(self, tmp_path):
        cfg = tiny_experiment(tmp_path, weight_mode="adaptive", no_accel=True)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_roundtrip_every_key(self, tmp_path):
        # every field off its default, lambda and r0 both set
        solver = SolverConfig(
            lam=0.02,
            beta=0.5,
            a=3.0,
            epsilon=1e-5,
            max_fb=7,
            weight_mode="adaptive",
            mu_scale=0.25,
            r0=0.05,
            no_accel=True,
            tau=1e-3,
            max_outer=4,
            max_inner=6,
        )
        cfg = ExperimentConfig(
            problem="cs_mri",
            n=64,
            seed=9,
            noise_variance=1e-3,
            blur_sigma=2.5,
            blur_size=7,
            mask_lines=12,
            solvers=("gauss_seidel", "fwsb"),
            outdir=str(tmp_path),
            solver=solver,
        )
        text = serialize_config(cfg)
        # README's key table lists the keys in the order they are written
        readme_keys = re.findall(r"^\| `(\w+)` \|", README.read_text(encoding="utf-8"), re.M)
        assert [line.split(" = ")[0] for line in text.splitlines()] == readme_keys
        assert parse_config(text) == cfg

    def test_roundtrip_r0(self, tmp_path):
        solver = SolverConfig(r0=0.05, beta=0.4)
        cfg = ExperimentConfig(problem="cs_mri", outdir=str(tmp_path), solver=solver)
        again = parse_config(serialize_config(cfg))
        assert again.solver.r0 == 0.05
        assert again.solver.lam is None
        assert again == cfg


class TestExperimentConfigValidation:
    def test_bad_problem(self):
        with pytest.raises(ConfigError, match="problem"):
            ExperimentConfig(problem="inpaint")

    def test_small_n(self):
        with pytest.raises(ConfigError, match="at least 16"):
            ExperimentConfig(problem="cs_mri", n=8)

    def test_benchmark_workloads_build(self):
        # perfbench/workloads.py gives each workload's config keys as plain
        # data, which the benchmark hands to SolverConfig and
        # ExperimentConfig as here; a key that src/ renames or rejects fails
        # this test rather than every benchmark run
        workloads = benchmark_literal("workloads.py", "WORKLOADS")
        assert workloads
        for spec in workloads.values():
            solver = SolverConfig(**spec["solver"])
            cfg = ExperimentConfig(**spec["experiment"], solvers=(solver.inner,), solver=solver)
            assert cfg.solver is solver

    def test_empty_solvers(self):
        with pytest.raises(ConfigError, match="at least one solver"):
            ExperimentConfig(problem="deblur", solvers=())

    def test_unknown_solver(self):
        for name in ("jacobi", "direct"):
            with pytest.raises(ConfigError, match="unknown solver"):
                ExperimentConfig(problem="deblur", solvers=(name,))

    def test_repeated_solver(self):
        with pytest.raises(ConfigError, match="twice"):
            ExperimentConfig(problem="deblur", solvers=("fwsb", "gauss_seidel", "fwsb"))

    def test_negative_noise(self):
        with pytest.raises(ConfigError, match="noise_variance"):
            ExperimentConfig(problem="deblur", noise_variance=-1.0)


class TestRunExperiment:
    def test_output_files(self, tmp_path):
        cfg = tiny_experiment(tmp_path)
        rows = run_experiment(cfg)
        assert len(rows) == 1 and rows[0]["status"] == "ok"
        for name in (
            "trace_fwsb.csv",
            "recon_fwsb.pgm",
            "recon_fwsb.grid",
            "summary.csv",
            "config_resolved.cfg",
        ):
            assert (tmp_path / name).is_file(), name

    def test_summary_matches_trace(self, tmp_path):
        cfg = tiny_experiment(tmp_path)
        run_experiment(cfg)
        trace_lines = (tmp_path / "trace_fwsb.csv").read_text().strip().splitlines()
        last_psnr = trace_lines[-1].split(",")[1]
        summary = (tmp_path / "summary.csv").read_text().strip().splitlines()
        assert summary[0] == "solver,status,psnr,seconds,fb_iters,converged"
        fields = summary[1].split(",")
        assert fields[0] == "fwsb" and fields[1] == "ok"
        assert fields[2] == last_psnr  # exact string, both use the same format

    def test_resolved_config_parses_back(self, tmp_path):
        cfg = tiny_experiment(tmp_path)
        run_experiment(cfg)
        assert load_config(tmp_path / "config_resolved.cfg") == cfg

    def test_recon_grid_matches_trace_scale(self, tmp_path):
        cfg = tiny_experiment(tmp_path)
        run_experiment(cfg)
        u = read_grid(tmp_path / "recon_fwsb.grid")
        assert u.shape == (32, 32)
        assert np.all(np.isfinite(u))

    def test_deterministic_traces(self, tmp_path):
        rows = []
        for sub in ("a", "b"):
            cfg = tiny_experiment(tmp_path / sub)
            run_experiment(cfg)
            text = (tmp_path / sub / "trace_fwsb.csv").read_text()
            # drop the wall-clock column, everything else must match bitwise
            rows.append(
                [line.split(",")[:4] + line.split(",")[5:] for line in text.splitlines()]
            )
        assert rows[0] == rows[1]

    def test_cs_mri_notes_sampling(self, tmp_path):
        solver = SolverConfig(lam=1e-3, beta=0.9, max_fb=2)
        cfg = ExperimentConfig(
            problem="cs_mri",
            n=32,
            mask_lines=2,
            solvers=("fwsb",),
            outdir=str(tmp_path),
            solver=solver,
        )
        run_experiment(cfg)
        text = (tmp_path / "config_resolved.cfg").read_text()
        assert "sampling_pct" in text
        assert load_config(tmp_path / "config_resolved.cfg") == cfg


class TestSweep:
    def test_curve_rows_and_file(self, tmp_path):
        cfg = tiny_experiment(tmp_path)
        rows, best = sweep_lambda(cfg, [1e-3, 5e-4])
        assert [r["lam"] for r in rows] == [1e-3, 5e-4]
        assert best["psnr"] == max(r["psnr"] for r in rows)
        lines = (tmp_path / "lambda_sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "lambda,psnr,seconds,fb_iters,converged"
        assert len(lines) == 3

    def test_converged_column(self, tmp_path):
        # summary.csv's rule: 1 when the last relative change is below
        # epsilon, 0 when the run used up max_fb.  At epsilon = 1e-2,
        # lambda = 1e-3 gets there at step 9 (8.9e-3), while lambda = 1 is
        # still at 1.4e-2 on step 10
        cfg = tiny_experiment(tmp_path, epsilon=1e-2)
        sweep_lambda(replace(cfg, solver=replace(cfg.solver, max_fb=10)), [1e-3, 1.0])
        lines = (tmp_path / "lambda_sweep.csv").read_text().strip().splitlines()
        assert [line.split(",")[3:] for line in lines[1:]] == [["9", "1"], ["10", "0"]]

    def test_empty_sweep_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="at least one"):
            sweep_lambda(tiny_experiment(tmp_path), [])

    def test_shared_columns_match_summary(self, tmp_path):
        # run and sweep write psnr,seconds,fb_iters,converged by one code
        # path, so a sweep at the config's own lambda repeats run's row
        run_experiment(tiny_experiment(tmp_path / "run"))
        cfg = tiny_experiment(tmp_path / "sweep")
        sweep_lambda(cfg, [cfg.solver.lam])
        summary = (tmp_path / "run" / "summary.csv").read_text().splitlines()
        curve = (tmp_path / "sweep" / "lambda_sweep.csv").read_text().splitlines()
        assert summary[0].split(",")[2:] == curve[0].split(",")[1:]
        assert len(summary) == len(curve) == 2
        ran = summary[1].split(",")[2:]
        swept = curve[1].split(",")[1:]
        for fields in (ran, swept):
            assert re.fullmatch(r"\d+\.\d{3}", fields[1]), fields
        assert ran[:1] + ran[2:] == swept[:1] + swept[2:]


class TestOutputRoot:
    def test_relative_joined(self, monkeypatch, tmp_path):
        monkeypatch.setenv("WTV_OUTPUT_ROOT", str(tmp_path))
        assert resolve_outdir("results") == os.path.join(str(tmp_path), "results")

    def test_absolute_untouched(self, monkeypatch, tmp_path):
        monkeypatch.setenv("WTV_OUTPUT_ROOT", str(tmp_path))
        assert resolve_outdir("/elsewhere/out") == "/elsewhere/out"

    def test_unset_passthrough(self, monkeypatch):
        monkeypatch.delenv("WTV_OUTPUT_ROOT", raising=False)
        assert resolve_outdir("results") == "results"

    def test_run_respects_root(self, monkeypatch, tmp_path):
        monkeypatch.setenv("WTV_OUTPUT_ROOT", str(tmp_path))
        cfg = tiny_experiment("nested/run1")
        run_experiment(cfg)
        assert (tmp_path / "nested" / "run1" / "summary.csv").is_file()


class TestMain:
    def test_run_exit_zero(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(tiny_config_text(tmp_path / "out"))
        assert main(["run", str(cfg_path)]) == 0
        assert "fwsb: psnr=" in capsys.readouterr().out
        assert (tmp_path / "out" / "summary.csv").is_file()

    def test_sweep_exit_zero(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(tiny_config_text(tmp_path / "out"))
        assert main(["sweep", str(cfg_path), "--lambda", "1e-3,5e-4"]) == 0
        lines = (tmp_path / "out" / "lambda_sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 3

    def test_mask_verb(self, tmp_path, capsys):
        out = tmp_path / "mask.grid"
        pgm = tmp_path / "mask.pgm"
        code = main(["mask", "--lines", "4", "--n", "32", "--out", str(out), "--pgm", str(pgm)])
        assert code == 0
        assert "sampling_pct" in capsys.readouterr().out
        mask = read_grid(out)
        assert mask.shape == (32, 32)
        assert set(np.unique(mask)) <= {0.0, 1.0}
        assert pgm.is_file()

    @pytest.mark.parametrize(
        "flags, named",
        [(["--lines", "0"], "--lines must be at least 1, got 0"),
         (["--n", "8"], "--n must be at least 16, got 8")],
        ids=["lines", "n"],
    )
    def test_mask_bad_flag_exits_two_naming_it(self, tmp_path, capsys, flags, named):
        # the verb names its own flags, not the config keys
        out = tmp_path / "mask.grid"
        assert main(["mask", "--lines", "4", "--n", "32", "--out", str(out), *flags]) == 2
        assert capsys.readouterr().err == f"configuration error: {named}\n"
        assert not out.exists()

    def test_fixtures_verb(self, tmp_path):
        assert main(["fixtures", "--out", str(tmp_path / "fix"), "--n", "32"]) == 0
        for name in ("shepp_logan.grid", "shepp_logan.pgm", "cartoon.grid", "cartoon.pgm"):
            assert (tmp_path / "fix" / name).is_file()

    @pytest.mark.parametrize("n", [1, 8])
    def test_fixtures_bad_size_exits_two_before_writing(self, tmp_path, capsys, n):
        # the verb's minimum is the cartoon's, and the message names its flag
        out = tmp_path / "fix"
        assert main(["fixtures", "--out", str(out), "--n", str(n)]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: --n must be at least 32, got {n}\n"
        )
        assert not out.exists()

    def test_python_dash_m_exits_with_main_code(self, tmp_path):
        # python -m wtv runs __main__.py, which exits with main()'s code
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

        def wtv(*argv):
            return subprocess.run([sys.executable, "-m", "wtv", *argv], env=env,
                                  cwd=tmp_path, capture_output=True, text=True)

        fix = tmp_path / "fix"
        assert wtv("fixtures", "--out", str(fix), "--n", "32").returncode == 0
        assert sorted(p.name for p in fix.iterdir()) == [
            "cartoon.grid", "cartoon.pgm", "shepp_logan.grid", "shepp_logan.pgm"
        ]
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(tiny_config_text(tmp_path / "out", wavelets=3))
        bad = wtv("run", str(cfg_path))
        assert bad.returncode == 2
        assert bad.stderr.startswith("configuration error: ")
        assert not (tmp_path / "out").exists()

    def test_bad_config_exits_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("problem = deblur\nwavelets = 3\n")
        assert main(["run", str(cfg_path)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_non_utf8_config_exits_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        text = tiny_config_text(tmp_path / "out") + "# r\xe9sum\xe9 in Latin-1\n"
        cfg_path.write_bytes(text.encode("latin-1"))
        assert main(["run", str(cfg_path)]) == 2
        assert "not UTF-8" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_all_diverged_exits_three(self, tmp_path, monkeypatch, capsys):
        def explode(model, data, scfg, reference=None):
            raise DivergenceError("iterate became non-finite", iteration=2)

        monkeypatch.setattr("wtv.cli.afb_solve", explode)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(tiny_config_text(tmp_path / "out"))
        assert main(["run", str(cfg_path)]) == 3
        assert "diverged" in capsys.readouterr().err
        summary = (tmp_path / "out" / "summary.csv").read_text()
        assert summary == "solver,status,psnr,seconds,fb_iters,converged\nfwsb,diverged,,,,\n"

    def test_some_diverged_run_goes_on(self, tmp_path, monkeypatch, capsys):
        # a diverged solver gets a row with empty results; the others are
        # written as usual and the run exits 0
        def gauss_seidel_explodes(model, data, scfg, reference=None):
            if scfg.inner == "gauss_seidel":
                raise DivergenceError("iterate became non-finite", iteration=2)
            return afb_solve(model, data, scfg, reference=reference)

        monkeypatch.setattr("wtv.cli.afb_solve", gauss_seidel_explodes)
        out = tmp_path / "out"
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(tiny_config_text(out, solvers="fwsb,gauss_seidel"))
        assert main(["run", str(cfg_path)]) == 0
        assert "gauss_seidel: diverged" in capsys.readouterr().err
        header, ok, diverged = (out / "summary.csv").read_text().splitlines()
        assert header == "solver,status,psnr,seconds,fb_iters,converged"
        assert ok.startswith("fwsb,ok,") and ok.count(",") == header.count(",")
        assert diverged == "gauss_seidel,diverged,,,,"
        assert diverged.count(",") == header.count(",")
        for name in ("trace_fwsb.csv", "recon_fwsb.pgm", "recon_fwsb.grid"):
            assert (out / name).is_file(), name
        assert not (out / "trace_gauss_seidel.csv").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_sweep_divergence_exits_three(self, tmp_path, monkeypatch, capsys):
        # a step-size bound of 0, that of a model that measures nothing,
        # skips the check, so an overlarge beta blows the iterate up
        monkeypatch.setattr("wtv.forward_backward.power_method", lambda model: 0.0)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(tiny_config_text(tmp_path / "out", beta=1e200))
        assert main(["sweep", str(cfg_path), "--lambda", "1e-3"]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("diverged: ")

    def test_direct_is_an_unknown_solver_exits_two_before_solving(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(tiny_config_text(tmp_path / "out", solvers="fwsb,direct"))
        assert main(["run", str(cfg_path)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_repeated_solver_exits_two_before_writing(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(tiny_config_text(tmp_path / "out", solvers="fwsb,fwsb"))
        assert main(["run", str(cfg_path)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_repeated_key_exits_two_before_writing(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(tiny_config_text(tmp_path / "out") + "n = 64\n")
        assert main(["run", str(cfg_path)]) == 2
        assert "'n' is set twice" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # each row: the bad values, and the words by which the message names
    # the setting at fault
    @pytest.mark.parametrize(
        "bad, named",
        [
            ({"tau": -1}, "tau"),
            ({"problem": "cs_mri", "n": 15}, "n must be at least 16"),
            # the deblur test image needs 32
            ({"n": 20}, "n must be at least 32"),
            ({"max_inner": 0}, "max_inner"),
            ({"max_outer": 0}, "max_outer"),
            ({"max_fb": 0}, "max_fb must be at least 1, got 0"),
            ({"problem": "cs_mri", "mask_lines": 0}, "mask_lines"),
            ({"blur_sigma": -1}, "blur_sigma"),
            ({"blur_size": 4}, "blur_size"),
            # odd, but wider than the tiny config's n = 32
            ({"blur_size": 33}, "blur_size 33"),
            ({"noise_variance": "nan"}, "noise_variance"),
            ({"seed": -1}, "seed"),
            ({"beta": 1.5}, "beta"),
            ({"mu_scale": "inf"}, "mu_scale"),
            # finite, but times the automatic width it is not
            ({"mu_scale": 1e308}, "mu_scale"),
            ({"a": "inf"}, "a must"),
            ({"epsilon": "inf"}, "epsilon"),
            ({"tau": "inf"}, "tau"),
            ({"blur_sigma": "inf"}, "blur_sigma"),
            ({"r0": "inf"}, "r0"),
            # 2*sigma^2 underflows to 0, so the kernel's centre sample is 0/0
            ({"blur_sigma": 1e-170}, "blur_sigma"),
            ({"blur_sigma": 1e-170, "weight_mode": "uniform"}, "blur_sigma"),
            ({"a": 1e-310}, "a="),  # t_n = (n + a + 1)/a overflows
            # 1/(beta*||Lap_w||_inf), the bound on theta, overflows
            ({"beta": 1e-320}, "beta"),
        ],
        ids=[
            "tau", "n", "n_deblur", "max_inner", "max_outer", "max_fb", "mask_lines", "blur_sigma",
            "blur_size", "blur_size_above_n", "noise", "seed",
            "beta", "mu_scale_inf", "mu_scale_overflow", "a_inf", "epsilon_inf", "tau_inf",
            "blur_sigma_inf", "r0_inf", "blur_sigma_underflow", "blur_sigma_underflow_uniform",
            "a_overflow", "beta_subnormal",
        ],
    )
    def test_out_of_range_value_exits_two_before_writing(self, tmp_path, capsys, bad, named):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(tiny_config_text(tmp_path / "out", **bad))
        for argv in (["run", str(cfg_path)], ["sweep", str(cfg_path), "--lambda", "1e-3"]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("configuration error: ")
            assert named in err
            assert not (tmp_path / "out").exists()

    # warnings are errors here: too small a mu_scale must be rejected before
    # squaring the weights can overflow
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "bad",
        [
            {"mu_scale": 1e-300, "weight_mode": "adaptive"},
            {"mu_scale": 1e308},
        ],
        ids=["underflow", "overflow"],
    )
    def test_extreme_mu_scale_exits_two_naming_it(self, tmp_path, capsys, bad):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(tiny_config_text(tmp_path / "out", **bad))
        assert main(["run", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: mu_scale=")
        assert not (tmp_path / "out").exists()

    def test_overflowing_r0_exits_two_naming_it(self, tmp_path, capsys):
        # finite, but times the l1 norm of the starting image it is not
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(tiny_config_text(tmp_path / "out", r0=1e308, **{"lambda": None}))
        assert main(["run", str(cfg_path)]) == 2
        assert capsys.readouterr().err.startswith("configuration error: r0=")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("lambdas", ["abc", "1e-3,-1", "1e-3,nan"])
    def test_bad_lambda_exits_two_before_writing(self, tmp_path, capsys, lambdas):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(tiny_config_text(tmp_path / "out"))
        assert main(["sweep", str(cfg_path), "--lambda", lambdas]) == 2
        captured = capsys.readouterr()
        assert "configuration error" in captured.err
        assert "lambda=" not in captured.out  # no solve ran
        assert not (tmp_path / "out").exists()

    def test_missing_config_exits_four(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 4
        assert "i/o error" in capsys.readouterr().err

    def test_unwritable_mask_exits_four(self, tmp_path):
        out = tmp_path / "no" / "such" / "dir" / "m.grid"
        assert main(["mask", "--lines", "2", "--n", "16", "--out", str(out)]) == 4

    @pytest.mark.parametrize("verb", [["run"], ["sweep", "--lambda", "1e-3"]], ids=["run", "sweep"])
    def test_outdir_under_a_file_exits_four(self, tmp_path, capsys, verb):
        # the output directory cannot be made: its parent is a regular file
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(tiny_config_text(blocker / "out"))
        assert main([verb[0], str(cfg_path), *verb[1:]]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("i/o error: ")


class TestPresetConfigs:
    def test_directory_holds_the_presets(self):
        assert sorted(p.name for p in CONFIG_DIR.glob("*.cfg")) == sorted(PRESETS)

    @pytest.mark.parametrize("name", PRESETS)
    def test_roundtrip(self, name):
        cfg = load_config(CONFIG_DIR / name)
        assert parse_config(serialize_config(cfg)) == cfg

    @pytest.mark.parametrize("name", PRESETS)
    def test_runs_when_shrunk(self, name, tmp_path):
        cfg = load_config(CONFIG_DIR / name)
        small = replace(cfg, n=32, outdir=str(tmp_path), solver=replace(cfg.solver, max_fb=2))
        cfg_path = tmp_path / name
        cfg_path.write_text(serialize_config(small))
        if name.startswith("sweep_"):
            assert main(["sweep", str(cfg_path), "--lambda", "1e-3,1e-2"]) == 0
            assert (tmp_path / "lambda_sweep.csv").is_file()
        else:
            assert main(["run", str(cfg_path)]) == 0
            rows = (tmp_path / "summary.csv").read_text().strip().splitlines()[1:]
            assert [row.split(",")[:2] for row in rows] == [[s, "ok"] for s in cfg.solvers]
