import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import barflow as bf
from barflow import checks
from barflow.checks import ALL_CHECKS, GOLDEN_DIR
from barflow.cli import _write_csv, main


def exit_code(argv):
    """The exit status of ``main(argv)``, whether returned or raised."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def read_manifest(prefix):
    return json.loads(Path(f"{prefix}.manifest.json").read_text())


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


class TestCsvFormat:
    def test_exact_text(self, tmp_path):
        # ints as written, floats (Python or numpy) at 17 significant digits
        # with the sign of a zero, nan as nan; rows may be any iterable
        path = tmp_path / "table.csv"
        rows = iter([(1, 0.1, math.nan), [np.int64(-2), np.float64(-0.0), 5e-324],
                     (0, np.float64(1 / 3), 1 / 3)])
        _write_csv(path, ("n", "x", "y"), rows)
        assert path.read_text() == (
            "n,x,y\n"
            "1,0.10000000000000001,nan\n"
            "-2,-0,4.9406564584124654e-324\n"
            "0,0.33333333333333331,0.33333333333333331\n"
        )


class TestSpectrumCommand:
    def test_writes_sorted_eigenvalues_and_manifest(self, tmp_path):
        out = str(tmp_path / "spec.csv")
        assert main(["spectrum", "--ell", "2", "--trunc", "8", "--nu", "0.001",
                     "--out", out]) == 0
        header, rows = read_csv(out)
        assert header == ["rank", "re", "im"]
        assert len(rows) == 17
        res = [float(r[1]) for r in rows]
        assert all(a >= b - 1e-9 for a, b in zip(res, res[1:]))
        manifest = json.loads((tmp_path / "spec.csv.manifest.json").read_text())
        assert manifest["command"] == "spectrum"
        assert out in manifest["outputs"]

    def test_diagonal_values(self, tmp_path):
        out = str(tmp_path / "diag.csv")
        assert main(["spectrum", "--ell", "2", "--trunc", "4", "--nu", "0.01",
                     "--amp", "0", "--out", out]) == 0
        _, rows = read_csv(out)
        got = sorted(float(r[1]) for r in rows)
        want = sorted(-0.01 * (k * k + 4) for k in range(-4, 5))
        assert np.allclose(got, want, atol=1e-15)

    def test_symmetrized_stable(self, tmp_path):
        out = str(tmp_path / "sym.csv")
        assert main(["spectrum", "--ell", "2", "--trunc", "20", "--nu", "1e-4",
                     "--variant", "symmetrized", "--out", out]) == 0
        _, rows = read_csv(out)
        assert max(float(r[1]) for r in rows) <= 1e-10

    def test_determinism(self, tmp_path):
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        main(["spectrum", "--ell", "2", "--trunc", "10", "--nu", "0.001", "--out", a])
        main(["spectrum", "--ell", "2", "--trunc", "10", "--nu", "0.001", "--out", b])
        assert Path(a).read_text() == Path(b).read_text()

    def test_usage_error_exit_two(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--ell", "2", "--trunc", "nope",
                  "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    def test_invalid_ell_exit_two(self, tmp_path):
        rc = main(["spectrum", "--ell", "0", "--trunc", "8", "--nu", "1e-3",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2


class TestSweepCommand:
    def test_fit_emitted_for_three_or_more(self, tmp_path):
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep", "--ell", "2", "--trunc", "10",
                     "--nus", "0.004,0.002,0.001", "--amp", "0", "--out", out]) == 0
        header, rows = read_csv(out)
        assert header == ["nu", "ell", "N", "variant", "rank", "re", "im"]
        fit_header, fit_rows = read_csv(tmp_path / "sweep_fit.csv")
        assert fit_header == ["slope", "intercept", "max_residual", "n_samples"]
        assert float(fit_rows[0][0]) == pytest.approx(1.0, abs=1e-9)

    def test_fit_path_strips_only_trailing_csv(self, tmp_path):
        # a ".csv" elsewhere in the path is left alone
        (tmp_path / "runs.csv").mkdir()
        out = str(tmp_path / "runs.csv" / "s.csv")
        assert main(["sweep", "--ell", "2", "--trunc", "8",
                     "--nus", "0.004,0.002,0.001", "--out", out]) == 0
        assert (tmp_path / "runs.csv" / "s_fit.csv").exists()
        assert sorted(read_manifest(out)["outputs"]) == [out, str(tmp_path / "runs.csv" / "s_fit.csv")]

    def test_single_nu_no_fit(self, tmp_path):
        out = str(tmp_path / "one.csv")
        assert main(["sweep", "--ell", "2", "--trunc", "8", "--nus", "0.001",
                     "--out", out]) == 0
        assert not (tmp_path / "one_fit.csv").exists()


class TestCollapseCommand:
    def test_count_one_matches_least_decaying(self, tmp_path):
        out = str(tmp_path / "col.csv")
        assert main(["collapse", "--ell", "2", "--trunc", "10",
                     "--nus", "0.001,0.0005", "--count", "1", "--out", out]) == 0
        _, rows = read_csv(out)
        for rank, nu, val in rows:
            spec = bf.compute_spectrum(bf.bar_slice(2, 10, float(nu), 1.0))
            want = bf.least_decaying(spec).real / math.sqrt(float(nu))
            assert float(val) == pytest.approx(want, rel=1e-12, abs=0)


class TestEvolveCommand:
    def test_barmode_linear(self, tmp_path):
        prefix = str(tmp_path / "run")
        assert main(["evolve", "--init", "barmode:1", "--kind", "linear",
                     "--nu", "0.01", "--trunc", "4", "--t-final", "1.0",
                     "--dt", "0.1", "--sample-every", "10",
                     "--out-prefix", prefix]) == 0
        header, rows = read_csv(prefix + "_diagnostics.csv")
        assert header == ["t", "l2", "x_norm", "max_pq", "enstrophy", "grad_norm_sq"]
        # exact solution: l2 shrinks by e^{-nu t}
        assert float(rows[-1][1]) == pytest.approx(
            float(rows[0][1]) * math.exp(-0.01), rel=1e-9, abs=0
        )
        field = bf.load_field(prefix + "_field_0000.csv")
        assert field.get(1, 0) == 0.5

    def test_random_fast_preserves_subspace(self, tmp_path):
        prefix = str(tmp_path / "fast")
        assert main(["evolve", "--init", "random-fast:5", "--kind", "linear",
                     "--nu", "0.01", "--trunc", "12", "--t-final", "5.0",
                     "--dt", "0.05", "--sample-every", "20",
                     "--out-prefix", prefix]) == 0
        header, rows = read_csv(prefix + "_diagnostics.csv")
        i_pq, i_l2 = header.index("max_pq"), header.index("l2")
        worst = max(float(r[i_pq]) / float(r[i_l2]) for r in rows)
        assert worst <= 1e-8

    def test_zero_init(self, tmp_path):
        prefix = str(tmp_path / "zero")
        assert main(["evolve", "--init", "zero", "--kind", "linear", "--nu", "0.01",
                     "--trunc", "4", "--t-final", "0.5", "--dt", "0.1",
                     "--out-prefix", prefix]) == 0
        _, rows = read_csv(prefix + "_diagnostics.csv")
        assert all(float(r[1]) == 0.0 for r in rows)

    def test_manifest_records_seed_of_init_spec(self, tmp_path):
        prefix = str(tmp_path / "seeded")
        assert main(["evolve", "--init", "random-fast:7", "--kind", "linear",
                     "--nu", "0.01", "--trunc", "4", "--t-final", "0.2",
                     "--dt", "0.1", "--out-prefix", prefix]) == 0
        manifest = json.loads((tmp_path / "seeded.manifest.json").read_text())
        assert manifest["params"]["seed"] == 7
        assert manifest["params"]["advective_number"] == 0.1 * 1.0 * 4  # dt |a| max|l|
        env = manifest["environment"]
        assert env["numpy"] == np.__version__
        assert set(env["threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"}

    def test_manifest_records_column_steps(self, tmp_path):
        # two steps of the flagged block l = 0..4, which no flush narrows
        prefix = str(tmp_path / "cols")
        assert main(["evolve", "--init", "random-fast:7", "--kind", "linear",
                     "--nu", "0.01", "--trunc", "4", "--t-final", "0.2",
                     "--dt", "0.1", "--out-prefix", prefix]) == 0
        manifest = json.loads((tmp_path / "cols.manifest.json").read_text())
        assert manifest["params"]["column_steps"] == 2 * 5
        header, _ = read_csv(prefix + "_diagnostics.csv")
        assert "column_steps" not in header

    def test_with_x_norm_matches_snapshots(self, tmp_path):
        prefix = str(tmp_path / "xn")
        assert main(["evolve", "--init", "random-fast:3", "--kind", "linear",
                     "--nu", "0.01", "--amp", "1.5", "--trunc", "6", "--t-final", "1.0",
                     "--dt", "0.1", "--sample-every", "5", "--with-x-norm",
                     "--out-prefix", prefix]) == 0
        _, rows = read_csv(prefix + "_diagnostics.csv")
        x_norm = {float(r[0]): float(r[2]) for r in rows}
        snapshots = sorted(tmp_path.glob("xn_field_*.csv"))
        assert len(snapshots) == 3
        for path, t in zip(snapshots, (0.0, 0.5, 1.0)):
            want = math.sqrt(bf.x_norm_sq(bf.load_field(path), 0.01, 1.5, t))
            assert x_norm[t] == pytest.approx(want, rel=1e-12, abs=0)

    def test_with_x_norm_rejects_shear_row(self, tmp_path):
        assert exit_code(["evolve", "--init", "barmode:1", "--kind", "linear",
                          "--nu", "0.01", "--trunc", "4", "--t-final", "0.2",
                          "--dt", "0.1", "--with-x-norm",
                          "--out-prefix", str(tmp_path / "bad")]) == 2

    @pytest.mark.parametrize("dt, t_final", [("0.1", "inf"), ("inf", "5"), ("nan", "5")])
    def test_non_finite_times_exit_two(self, tmp_path, dt, t_final):
        assert exit_code(["evolve", "--init", "zero", "--nu", "0.01", "--dt", dt,
                          "--t-final", t_final, "--out-prefix", str(tmp_path / "bad")]) == 2
        assert not list(tmp_path.glob("bad*"))

    def test_nonlinear_manifest_records_the_run(self, tmp_path):
        # --amp is accepted and unused; the grid is the one picked automatically
        prefix = str(tmp_path / "nl")
        assert main(["evolve", "--init", "barmode:1", "--kind", "nonlinear", "--amp", "7",
                     "--nu", "0.01", "--trunc", "4", "--t-final", "0.02", "--dt", "0.01",
                     "--out-prefix", prefix]) == 0
        params = read_manifest(prefix)["params"]
        assert params["grid"] == 16
        assert 0.0 < params["max_cfl"] < 1.0
        assert "amp" not in params and "variant" not in params
        header, _ = read_csv(prefix + "_diagnostics.csv")
        assert "max_cfl" not in header

    def test_nonlinear_rejects_with_x_norm(self, tmp_path):
        assert exit_code(["evolve", "--init", "barmode:1", "--kind", "nonlinear",
                          "--nu", "0.01", "--trunc", "4", "--t-final", "0.02",
                          "--dt", "0.01", "--with-x-norm",
                          "--out-prefix", str(tmp_path / "bad")]) == 2
        assert not list(tmp_path.glob("bad*"))

    @pytest.mark.parametrize("grid", ["7", "64"])
    def test_linear_rejects_grid(self, tmp_path, grid):
        assert exit_code(["evolve", "--init", "random:1", "--kind", "linear",
                          "--nu", "0.01", "--trunc", "4", "--t-final", "0.02",
                          "--dt", "0.01", "--grid", grid,
                          "--out-prefix", str(tmp_path / "bad")]) == 2
        assert not list(tmp_path.glob("bad*"))

    def test_determinism_with_seed(self, tmp_path):
        pa = str(tmp_path / "a")
        pb = str(tmp_path / "b")
        args = ["evolve", "--init", "random:9", "--kind", "nonlinear", "--nu", "0.01",
                "--trunc", "5", "--grid", "32", "--t-final", "0.1", "--dt", "0.01",
                "--sample-every", "5"]
        main(args + ["--out-prefix", pa])
        main(args + ["--out-prefix", pb])
        assert Path(pa + "_diagnostics.csv").read_text() == Path(pb + "_diagnostics.csv").read_text()
        assert Path(pa + "_field_0002.csv").read_text() == Path(pb + "_field_0002.csv").read_text()


class TestHypoCommand:
    def test_auto_m0_path(self, tmp_path):
        prefix = str(tmp_path / "hy")
        assert main(["hypo", "--ell", "2", "--nu", "0.001", "--trunc", "24",
                     "--t-final", "200", "--dt", "0.25",
                     "--out-prefix", prefix]) == 0
        _, crows = read_csv(prefix + "_constants.csv")
        m0 = float(crows[0][0])
        assert m0 > 0 and int(crows[0][6]) == 1
        _, mrows = read_csv(prefix + "_m0.csv")
        assert float(mrows[0][5]) == m0
        _, drows = read_csv(prefix + "_decay.csv")
        assert float(drows[0][2]) > 0  # fitted sqrt(nu)-normalized rate

    @pytest.mark.parametrize("t_final", ["inf", "1.05"], ids=["non-finite", "not-whole-steps"])
    def test_rejected_run_writes_nothing(self, tmp_path, t_final):
        # 1.05 passes the parser but is not a whole number of steps of 0.1
        assert exit_code(["hypo", "--nu", "0.01", "--trunc", "8", "--t-final", t_final, "--dt", "0.1",
                          "--out-prefix", str(tmp_path / "h")]) == 2
        assert not list(tmp_path.iterdir())

    def test_invalid_user_constants_rejected(self, tmp_path):
        prefix = str(tmp_path / "bad")
        with pytest.raises(SystemExit) as exc:
            main(["hypo", "--ell", "2", "--nu", "0.001", "--m0", "-1.0",
                  "--t-final", "10", "--dt", "0.1", "--out-prefix", prefix])
        assert exc.value.code == 2


@pytest.mark.parametrize("argv, config", [
    (["evolve", "--init", "zero", "--nu", "nan", "--dt", "0.1", "--t-final", "0.2"], None),
    (["evolve", "--init", "zero", "--nu", "0.01", "--amp", "nan", "--dt", "0.1", "--t-final", "0.2"], None),
    (["evolve", "--init", "zero", "--nu", "0.01", "--dt", "inf", "--t-final", "0.2"], None),
    (["evolve", "--init", "zero", "--nu", "0.01", "--dt", "0.1", "--t-final", "-inf"], None),
    (["hypo", "--nu", "nan", "--trunc", "8", "--t-final", "1", "--dt", "0.1"], None),
    (["hypo", "--nu", "0.01", "--amp", "inf", "--trunc", "8", "--t-final", "1", "--dt", "0.1"], None),
    (["spectrum", "--nu", "inf", "--trunc", "4"], None),
    (["sweep", "--trunc", "4", "--nus", "0.1,nan"], None),
    (["collapse", "--trunc", "4", "--nus", "inf"], None),
    (["evolve", "--init", "zero", "--dt", "0.1", "--t-final", "0.2"], "nu=nan\n"),
    (["sweep", "--trunc", "4"], "nus=0.1,-inf\n"),
], ids=["evolve-nu", "evolve-amp", "evolve-dt", "evolve-t-final", "hypo-nu", "hypo-amp", "spectrum-nu",
        "sweep-nus", "collapse-nus", "config-nu", "config-nus"])
def test_non_finite_input_exits_two(tmp_path, monkeypatch, argv, config):
    monkeypatch.chdir(tmp_path)
    out = ["--out-prefix", "x"] if argv[0] in ("evolve", "hypo") else ["--out", "x.csv"]
    if config is not None:
        Path("run.cfg").write_text(config)
        out += ["--config", "run.cfg"]
    assert exit_code([*argv, *out]) == 2
    assert not list(tmp_path.glob("x*"))


@pytest.fixture
def corrupted_golden(tmp_path):
    """A copy of the golden directory with one stored entry moved by 1."""
    golden = tmp_path / "golden"
    shutil.copytree(GOLDEN_DIR, golden)
    victim = sorted(golden.glob("*.csv"))[0]
    lines = victim.read_text().splitlines()
    row, col, re, im = lines[1].split(",")
    lines[1] = f"{row},{col},{float(re) + 1.0},{im}"
    victim.write_text("\n".join(lines) + "\n")
    return golden


class TestCheckCommand:
    def test_golden_subset_passes(self):
        checks.check_golden_matrices(GOLDEN_DIR)

    def test_corrupted_golden_detected(self, corrupted_golden, capsys):
        rc = main(["check", "--golden-dir", str(corrupted_golden)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "FAIL golden/matrices" in out
        assert "entry" in out
        others = [name for name, _ in ALL_CHECKS if name != "golden/matrices"]
        assert len(others) == 27
        for name in others:
            assert f"PASS {name}\n" in out

    def test_golden_mismatch_fails_under_optimize(self, corrupted_golden):
        # python -O strips assert statements; the checks must fail regardless
        src = os.path.dirname(os.path.dirname(bf.__file__))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        code = f"from barflow import checks; checks.check_golden_matrices({str(corrupted_golden)!r})"
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode != 0
        assert "golden mismatch" in proc.stderr

    def test_unexpected_error_reported(self, monkeypatch):
        def broken():
            raise RuntimeError("boom")

        monkeypatch.setattr(checks, "ALL_CHECKS", [("demo/broken", broken)])
        lines = []
        assert checks.run_all(report=lines.append) == 1
        assert lines == ["ERROR demo/broken: RuntimeError('boom')"]


class TestConfigPrecedence:
    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("ell=3\ntrunc=6\nnu=0.01\n")
        out = str(tmp_path / "s.csv")
        assert main(["spectrum", "--config", str(cfg), "--trunc", "4",
                     "--out", out]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 9  # trunc 4 from the flag, ell 3 from the config
        want = sorted(-0.01 * (k * k + 9) for k in range(-4, 5))[-1]
        assert any(abs(float(r[1]) - want) < 0.05 for r in rows)

    def test_defaults_fill_in(self, tmp_path):
        out = str(tmp_path / "d.csv")
        assert main(["spectrum", "--nu", "0.001", "--trunc", "6", "--out", out]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 13  # ell defaults to 2

    def test_sweep_and_collapse_take_nus_from_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trunc=6\nnus=0.004,0.002,0.001\n")
        sweep = str(tmp_path / "sweep.csv")
        assert main(["sweep", "--config", str(cfg), "--out", sweep]) == 0
        assert read_manifest(sweep)["params"]["nus"] == [0.004, 0.002, 0.001]
        assert (tmp_path / "sweep_fit.csv").exists()
        collapse = str(tmp_path / "collapse.csv")
        assert main(["collapse", "--config", str(cfg), "--count", "2", "--out", collapse]) == 0
        params = read_manifest(collapse)["params"]
        assert (params["nus"], params["trunc"]) == ([0.004, 0.002, 0.001], 6)
        _, rows = read_csv(collapse)
        assert len(rows) == 6

    @pytest.mark.parametrize("command, trunc", [("evolve", 16), ("hypo", 48)])
    def test_trunc_fallback_and_config_override(self, tmp_path, command, trunc):
        args = {
            "evolve": ["evolve", "--init", "zero", "--t-final", "0.2", "--dt", "0.1"],
            "hypo": ["hypo", "--t-final", "1", "--dt", "0.25"],
        }[command]
        fallback = str(tmp_path / "fallback")
        assert main([*args, "--nu", "0.001", "--out-prefix", fallback]) == 0
        assert read_manifest(fallback)["params"]["trunc"] == trunc
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trunc=8\nnu=0.001\n")
        configured = str(tmp_path / "configured")
        assert main([*args, "--config", str(cfg), "--out-prefix", configured]) == 0
        params = read_manifest(configured)["params"]
        assert (params["trunc"], params["nu"]) == (8, 0.001)

    def test_flag_nu_wins_over_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nu=0.5\ntrunc=4\n")
        out = str(tmp_path / "s.csv")
        assert main(["spectrum", "--config", str(cfg), "--nu", "0.01", "--out", out]) == 0
        assert read_manifest(out)["params"]["nu"] == 0.01

    @pytest.mark.parametrize("command", [
        ["spectrum", "--trunc", "4", "--out", "x.csv"],
        ["evolve", "--init", "zero", "--t-final", "0.2", "--dt", "0.1", "--out-prefix", "x"],
        ["hypo", "--t-final", "1", "--dt", "0.25", "--out-prefix", "x"],
    ], ids=["spectrum", "evolve", "hypo"])
    def test_missing_nu_exits_two(self, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trunc=4\n")
        assert exit_code(command) == 2
        assert exit_code([*command, "--config", str(cfg)]) == 2
        assert not list(tmp_path.glob("x*"))

    def test_misspelt_config_key_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trnc=4\nnu=0.01\n")
        out = tmp_path / "s.csv"
        assert exit_code(["spectrum", "--config", str(cfg), "--out", str(out)]) == 2
        assert "trnc" in capsys.readouterr().err
        assert not out.exists()
        # a known key the command has no flag for is still ignored
        cfg.write_text("trunc=4\nnu=0.01\nnus=0.1\n")
        assert exit_code(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0

    def test_missing_config_file_exits_two(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.cfg")
        assert exit_code(["spectrum", "--config", missing, "--nu", "0.01",
                          "--out", str(tmp_path / "s.csv")]) == 2
        assert "absent.cfg" in capsys.readouterr().err
