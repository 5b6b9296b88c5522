import json
import math
import re
from concurrent.futures import Future
from pathlib import Path

import pytest

import orthocat.sweep as sweep_mod
from orthocat.cli import cli_main
from orthocat.core import ConfigurationError
from orthocat.sweep import (
    CSV_HEADER,
    SweepConfig,
    config_digest,
    load_config,
    potential_from_spec,
    run_sweep,
    write_csv,
    write_json,
)

WELL_SPEC = {"family": "square_well", "v0": -0.5, "a": 1.0}
FREE_SPEC = {"family": "square_well", "v0": 0.0, "a": 1.0}


def make_config(tmp_path, **over):
    base = dict(
        potential=WELL_SPEC,
        rho=1.0,
        n_list=(5, 8, 12),
        csv_path=str(tmp_path / "out.csv"),
        json_path=str(tmp_path / "out.json"),
    )
    base.update(over)
    return SweepConfig(**base)


class TestConfig:
    def test_potential_from_spec_families(self):
        assert potential_from_spec(WELL_SPEC).a == 1.0
        gauss = potential_from_spec({"family": "gaussian_truncated", "v0": 0.3, "sigma": 0.5, "a": 1.5})
        assert gauss(0.0) == pytest.approx(0.3)
        tab = potential_from_spec({"family": "table", "abscissae": "-1,0,1", "values": "0,1,0"})
        assert tab(0.0) == pytest.approx(1.0)

    def test_bad_specs_rejected(self):
        with pytest.raises(ConfigurationError):
            potential_from_spec({"family": "nope"})
        with pytest.raises(ConfigurationError):
            potential_from_spec({"family": "square_well", "v0": "x", "a": 1})

    def test_invalid_sweep_params(self):
        with pytest.raises(ConfigurationError):
            SweepConfig(potential=WELL_SPEC, rho=-1.0, n_list=(5, 8, 12))
        with pytest.raises(ConfigurationError):
            SweepConfig(potential=WELL_SPEC, rho=1.0, n_list=(8, 5))
        with pytest.raises(ConfigurationError):
            SweepConfig(potential=WELL_SPEC, rho=1.0, n_list=(5, 8), workers=0)

    def test_load_config_roundtrip(self, tmp_path):
        path = tmp_path / "sweep.toml"
        path.write_text(
            "[potential]\nfamily = square_well\nv0 = -0.5\na = 1.0\n\n"
            "[sweep]\nrho = 1.0\nn_list = 5,8,12\n\n"
            "[grid]\nnodes_per_wavelength = 16\n\n"
            f"[output]\ncsv = {tmp_path}/o.csv\njson = {tmp_path}/o.json\n"
        )
        cfg = load_config(str(path))
        assert cfg.n_list == (5, 8, 12)
        assert cfg.rho == 1.0
        assert cfg.csv_path.endswith("o.csv")

    def test_missing_config_is_error(self):
        with pytest.raises(ConfigurationError):
            load_config("/nonexistent/sweep.toml")

    def test_digest_stable_and_sensitive(self, tmp_path):
        c1 = make_config(tmp_path)
        c2 = make_config(tmp_path)
        c3 = make_config(tmp_path, rho=2.0)
        assert config_digest(c1) == config_digest(c2)
        assert config_digest(c1) != config_digest(c3)


class TestRunSweep:
    def test_free_sweep_zero_slope(self, tmp_path):
        cfg = make_config(tmp_path, potential=FREE_SPEC, n_list=(5, 8, 12))
        result = run_sweep(cfg)
        assert all(r.status == "ok" for r in result.rows)
        assert abs(result.gamma_fit) < 1e-8
        for row in result.rows:
            assert abs(row.anderson) < 1e-9

    def test_row_invariants(self, tmp_path):
        cfg = make_config(tmp_path)
        result = run_sweep(cfg)
        assert len(result.rows) == 3
        assert math.isfinite(result.gamma_fit)
        for row in result.rows:
            assert row.L == (row.n + 0.5) / 2.0
            assert row.log_transition <= -row.anderson + 1e-10

    def test_csv_schema_and_determinism(self, tmp_path):
        cfg = make_config(tmp_path)
        result1 = run_sweep(cfg)
        write_csv(result1, str(tmp_path / "a.csv"))
        result2 = run_sweep(cfg)
        write_csv(result2, str(tmp_path / "b.csv"))
        a = (tmp_path / "a.csv").read_bytes()
        b = (tmp_path / "b.csv").read_bytes()
        assert a == b
        assert a.decode().splitlines()[0] == CSV_HEADER

    def test_determinism_across_worker_counts(self, tmp_path):
        cfg1 = make_config(tmp_path, workers=1)
        cfg2 = make_config(tmp_path, workers=2)
        write_csv(run_sweep(cfg1), str(tmp_path / "w1.csv"))
        write_csv(run_sweep(cfg2), str(tmp_path / "w2.csv"))
        assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w2.csv").read_bytes()

    def test_json_summary_contents(self, tmp_path):
        cfg = make_config(tmp_path)
        result = run_sweep(cfg)
        write_json(result, cfg.json_path)
        payload = json.loads(open(cfg.json_path).read())
        for key in ("config_hash", "grid", "smallness", "gamma_fit", "gamma_scattering",
                    "gamma_matrix", "gamma_gkm", "rows", "residuals_vs_gamma_scattering"):
            assert key in payload
        assert payload["config_hash"] == config_digest(cfg)
        assert [r["N"] for r in payload["rows"]] == [5, 8, 12]

    def test_gamma_routes_close_in_summary(self, tmp_path):
        cfg = make_config(tmp_path)
        result = run_sweep(cfg)
        assert abs(result.gamma_gkm - result.gamma_scattering) < 1e-10
        assert abs(result.gamma_matrix - result.gamma_scattering) < 1e-4

    def test_failed_row_continues_sweep(self, tmp_path):
        # N = 1 gives a box smaller than the support, so that row fails while
        # the rest of the sweep and the fit proceed
        cfg = make_config(tmp_path, n_list=(1, 5, 8, 12))
        result = run_sweep(cfg)
        statuses = {r.n: r.status for r in result.rows}
        assert statuses[1] == "failed"
        assert all(statuses[n] == "ok" for n in (5, 8, 12))
        assert math.isfinite(result.gamma_fit)
        write_csv(result, str(tmp_path / "f.csv"))
        lines = (tmp_path / "f.csv").read_text().splitlines()
        assert lines[1].startswith("1,") and lines[1].endswith(",failed")

    def test_programming_error_propagates(self, tmp_path, monkeypatch):
        # only numerical failures mark a row as failed; a fault in the
        # program must stop the sweep instead of hiding in a failed row
        real = sweep_mod.anderson_result

        def faulty(n, *args, **kwargs):
            if n == 8:
                raise TypeError("injected fault")
            return real(n, *args, **kwargs)

        monkeypatch.setattr(sweep_mod, "anderson_result", faulty)
        cfg = make_config(tmp_path, n_list=(5, 8, 12, 16), workers=1)
        with pytest.raises(TypeError, match="injected fault"):
            run_sweep(cfg)


class TestCli:
    def test_gamma_subcommand(self, capsys):
        code = cli_main([
            "gamma", "--potential", "square_well", "--v0", "-0.5", "--a", "1",
            "--nu", "9.8696044",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "gamma_scattering" in out
        assert "gamma_matrix" in out
        assert "gamma_gkm" in out
        assert "|matrix - scattering|" in out

    def test_anderson_subcommand(self, capsys):
        code = cli_main([
            "anderson", "--potential", "square_well", "--v0", "0.1", "--a", "1",
            "--N", "5", "--rho", "1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "anderson_integral" in out
        assert "defect_norm" in out

    def test_anderson_contour_refuses_extra_levels_exits_2(self, capsys):
        code = cli_main([
            "anderson", "--potential", "square_well", "--v0", "-20", "--a", "1",
            "--N", "10", "--rho", "1", "--contour", "--nodes-per-wavelength", "8",
        ])
        captured = capsys.readouterr()
        assert "M = count_below(nu) = 12" in captured.out
        assert "contour I" not in captured.out
        assert "M = 12" in captured.err and "N = 10" in captured.err
        assert code == 2

    def test_audit_subcommand(self, capsys):
        code = cli_main([
            "audit", "--potential", "square_well", "--v0", "0.5", "--a", "1",
            "--N", "10", "--rho", "1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out
        assert "determinant_sandwich" in out

    def test_audit_computes_its_row_once(self, capsys, monkeypatch):
        # the audit hands its row to bounds_audit and det_bounds instead of
        # letting either solve the same (N, rho) instance again
        import orthocat.cli as cli_mod
        import orthocat.metrics as metrics_mod

        real, calls = metrics_mod.anderson_result, []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(cli_mod, "anderson_result", counted)
        monkeypatch.setattr(metrics_mod, "anderson_result", counted)
        code = cli_main([
            "audit", "--potential", "square_well", "--v0", "0.5", "--a", "1",
            "--N", "10", "--rho", "1",
        ])
        capsys.readouterr()
        assert code == 0
        assert calls == [10]

    def test_spectrum_subcommand(self, capsys):
        code = cli_main([
            "spectrum", "--potential", "square_well", "--v0", "-0.5", "--a", "1",
            "--L", "3.0", "--count", "4",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "j,lambda_free,mu_perturbed" in out
        assert "count_below" in out

    def test_sweep_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "s.toml"
        cfg_path.write_text(
            "[potential]\nfamily = square_well\nv0 = -0.5\na = 1.0\n\n"
            "[sweep]\nrho = 1.0\nn_list = 5,8,12\n\n"
            f"[output]\ncsv = {tmp_path}/s.csv\njson = {tmp_path}/s.json\n"
        )
        code = cli_main(["sweep", "--config", str(cfg_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert (tmp_path / "s.csv").exists()
        assert (tmp_path / "s.json").exists()
        assert "gamma_fit" in out

    def test_unknown_flag_exits_2(self, capsys):
        code = cli_main(["gamma", "--nonsense"])
        capsys.readouterr()
        assert code == 2

    def test_missing_config_exits_2(self, capsys):
        code = cli_main(["sweep", "--config", "/does/not/exist.toml"])
        capsys.readouterr()
        assert code == 2

    def test_bad_potential_family_exits_2(self, capsys):
        code = cli_main([
            "anderson", "--potential", "square_well", "--N", "5", "--rho", "1",
        ])
        capsys.readouterr()
        assert code == 2  # missing v0 and a is a configuration error


CONFIG_HEAD = ("[potential]\nfamily = square_well\nv0 = -0.5\na = 1.0\n\n"
               "[sweep]\nrho = 1.0\nn_list = 5,8,12\n")


class TestSettings:
    @pytest.mark.parametrize("extra, named", [
        ("\n[tolerances]\neigen_tl = 1e-12\n", "[tolerances]"),
        ("\n[grid]\nnodes_per_panel = 12\n", "[grid] nodes_per_panel"),
        ("\n[solver]\ntol = 1e-12\n", "[solver]"),
        ("fit_fracton = 0.5\n", "[sweep] fit_fracton"),
        ("\n[tolerances]\neigen_tol = 1e-10\n", "[tolerances]"),
        ("fit_fraction = 0.5\n", "[sweep] fit_fraction"),
    ])
    def test_unknown_config_entries_rejected(self, tmp_path, capsys, extra, named):
        path = tmp_path / "s.toml"
        path.write_text(CONFIG_HEAD + extra)
        with pytest.raises(ConfigurationError, match=re.escape(named)):
            load_config(str(path))
        assert cli_main(["sweep", "--config", str(path)]) == 2
        assert named in capsys.readouterr().err

    def test_every_documented_key_accepted(self, tmp_path):
        path = tmp_path / "s.toml"
        path.write_text(
            CONFIG_HEAD + "workers = 1\n\n"
            "[grid]\nnodes_per_wavelength = 16\n\n"
            f"[output]\ncsv = {tmp_path}/o.csv\njson = {tmp_path}/o.json\n")
        assert load_config(str(path)).json_path.endswith("o.json")

    def test_readme_example_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        path = tmp_path / "readme.ini"
        path.write_text(re.search(r"```ini\n(.*?)```", readme, re.S).group(1))
        cfg = load_config(str(path))
        assert cfg.n_list == (50, 100, 200, 400, 800)
        assert cfg.nodes_per_wavelength == 16
        assert potential_from_spec(cfg.potential).vmin == -0.5

    def test_non_positive_n_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepConfig(potential=WELL_SPEC, rho=1.0, n_list=(0, 5, 8))

    @pytest.mark.parametrize("command", [
        ["anderson", "--N", "5"], ["audit", "--N", "5"], ["spectrum", "--N", "5"]])
    @pytest.mark.parametrize("rho", ["0", "-1"])
    def test_non_positive_rho_exits_2(self, capsys, command, rho):
        code = cli_main(command + ["--rho", rho, "--potential", "square_well",
                                   "--v0", "0.1", "--a", "1"])
        assert "density must be positive" in capsys.readouterr().err
        assert code == 2

    @pytest.mark.parametrize("flags, named", [
        (["spectrum", "--L", "0"], "--L must be positive"),
        (["spectrum", "--L", "-3"], "--L must be positive"),
        (["spectrum", "--count", "-2"], "count must be at least 1"),
        (["spectrum", "--count", "0"], "count must be at least 1"),
        (["gamma", "--nu", "-1"], "--nu must be positive"),
    ], ids=["L=0", "L=-3", "count=-2", "count=0", "nu=-1"])
    def test_out_of_range_input_exits_2(self, capsys, flags, named):
        code = cli_main(flags + ["--potential", "square_well", "--v0", "0.1", "--a", "1"])
        assert named in capsys.readouterr().err
        assert code == 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv, named", [
        (["gamma", "--nu", "9.87", "--v0", "nan"], "potential values must be finite"),
        (["gamma", "--nu", "9.87", "--v0", "inf"], "potential values must be finite"),
        (["gamma", "--nu", "inf", "--v0", "0.1"], "--nu must be positive and finite"),
        (["anderson", "--N", "5", "--rho", "nan", "--v0", "0.1"], "density must be positive"),
        (["anderson", "--N", "5", "--rho", "inf", "--v0", "0.1"], "density must be positive"),
        (["spectrum", "--L", "inf", "--v0", "0.1"], "--L must be positive and finite"),
        (["gamma", "--nu", "9.87", "--potential", "gaussian_truncated", "--v0", "0.1",
          "--sigma", "nan"], "potential values must be finite"),
        (["gamma", "--nu", "9.87", "--potential", "table", "--abscissae=-1,0,1",
          "--values", "0,nan,0"], "potential values must be finite"),
    ], ids=["v0=nan", "v0=inf", "nu=inf", "rho=nan", "rho=inf", "L=inf", "sigma=nan",
            "table=nan"])
    def test_non_finite_input_exits_2(self, capsys, argv, named):
        # the potential flags come first, so argv's own --potential wins
        code = cli_main(argv[:1] + ["--potential", "square_well", "--a", "1"] + argv[1:])
        assert named in capsys.readouterr().err
        assert code == 2

    @pytest.mark.parametrize("rho", [math.inf, math.nan])
    def test_non_finite_sweep_density_rejected(self, rho):
        with pytest.raises(ConfigurationError, match="density must be positive"):
            SweepConfig(potential=WELL_SPEC, rho=rho, n_list=(5, 8, 12))

    def test_pool_capped_at_row_count(self, tmp_path, monkeypatch):
        # forking starts every worker at the first submit, so a pool larger
        # than the row count would only start idle processes
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(sweep_mod, "ProcessPoolExecutor", InlinePool)
        result = run_sweep(make_config(tmp_path, workers=5000))
        assert sizes == [3]
        assert [r.status for r in result.rows] == ["ok"] * 3

    def test_sweep_flags_override_config(self, tmp_path, capsys):
        path = tmp_path / "s.toml"
        path.write_text(CONFIG_HEAD + f"\n[output]\ncsv = {tmp_path}/file.csv\n")
        code = cli_main(["sweep", "--config", str(path), "--n-list", "5,8,12,16",
                         "--rho", "1", "--workers", "1",
                         "--csv", str(tmp_path / "flag.csv"), "--json", str(tmp_path / "flag.json")])
        capsys.readouterr()
        assert code == 0
        assert not (tmp_path / "file.csv").exists()
        rows = (tmp_path / "flag.csv").read_text().splitlines()[1:]
        assert [int(r.split(",")[0]) for r in rows] == [5, 8, 12, 16]
        payload = json.loads((tmp_path / "flag.json").read_text())
        assert payload["grid"] == {"nodes_per_wavelength": 16, "nodes_per_panel": 12}

    def test_malformed_n_list_flag_exits_2(self, tmp_path, capsys):
        path = tmp_path / "s.toml"
        path.write_text(CONFIG_HEAD)
        assert cli_main(["sweep", "--config", str(path), "--n-list", "5,x"]) == 2
        capsys.readouterr()
