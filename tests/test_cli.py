import hashlib
import json
import re
import time

import numpy as np
import pytest

from rmedge import acceptance, ensembles
from rmedge.cli import main


def run(tmp_path, *argv):
    import os
    old = os.getcwd()
    os.chdir(tmp_path)
    try:
        return main(list(argv))
    finally:
        os.chdir(old)


class TestDet:
    def test_sine_determinant(self, tmp_path):
        code = run(tmp_path, "det", "--kernel", "sine", "--t", "1",
                   "--interval", "0", "1", "--z", "1", "--n", "64")
        assert code == 0
        payload = json.loads((tmp_path / "det.json").read_text())
        assert payload["determinant"] == pytest.approx(0.170217421379, abs=1e-9)
        manifest = json.loads((tmp_path / "det.json.manifest.json").read_text())
        assert manifest["command"] == "det"
        assert manifest["parameters"]["n"] == 64
        assert manifest["outputs"] == ["det.json"]

    def test_infinite_interval(self, tmp_path):
        code = run(tmp_path, "det", "--kernel", "airy-symbol", "--interval",
                   "0", "inf", "--z", "0.5", "--n", "40", "--out", "a.json")
        assert code == 0
        assert json.loads((tmp_path / "a.json").read_text())["interval"][1] == 14.0

    def test_reproducible_bytes(self, tmp_path):
        run(tmp_path, "det", "--kernel", "sine", "--t", "1", "--interval",
            "0", "1", "--n", "32", "--out", "one.json")
        run(tmp_path, "det", "--kernel", "sine", "--t", "1", "--interval",
            "0", "1", "--n", "32", "--out", "two.json")
        assert (tmp_path / "one.json").read_text() == (tmp_path / "two.json").read_text()


    def test_hard_edge_off_half_integer_order(self, tmp_path):
        # nu = -0.3 converges only algebraically in sqrt x; the rule in x was 1.2e-3 off
        code = run(tmp_path, "det", "--kernel", "bessel-hard", "--nu", "-0.3",
                   "--interval", "0", "12", "--n", "64")
        assert code == 0
        got = json.loads((tmp_path / "det.json").read_text())["determinant"]
        assert abs(got - 0.017516955406326258) < 3e-6

    def test_hard_edge_order_at_minus_half_writes_nothing(self, tmp_path, capsys):
        code = run(tmp_path, "det", "--kernel", "bessel-hard", "--nu", "-0.5",
                   "--interval", "0", "1")
        assert code == 1
        assert "error [ValueError]: order must exceed -1/2" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestGap:
    def test_csv_output(self, tmp_path):
        code = run(tmp_path, "gap", "--kernel", "sine", "--t", "1",
                   "--interval", "0", "1", "--kmax", "4", "--n", "48")
        assert code == 0
        lines = (tmp_path / "gap.csv").read_text().strip().splitlines()
        assert lines[0] == "k,E_k"
        assert len(lines) == 6
        probs = [float(l.split(",")[1]) for l in lines[1:]]
        assert probs[0] == pytest.approx(0.17021742, abs=1e-7)

    def test_json_output(self, tmp_path):
        run(tmp_path, "gap", "--kernel", "sine", "--t", "1", "--interval",
            "0", "1", "--kmax", "2", "--n", "32", "--format", "json",
            "--out", "g.json")
        payload = json.loads((tmp_path / "g.json").read_text())
        assert len(payload["E"]) == 3


class TestTw:
    def test_table_columns_and_gap(self, tmp_path):
        code = run(tmp_path, "tw", "--t", "1", "--xmin", "-1", "--xmax", "0",
                   "--step", "0.5", "--n", "60")
        assert code == 0
        lines = (tmp_path / "tw.csv").read_text().strip().splitlines()
        assert lines[0] == "x,F_painleve,F_det,gap,w"
        assert len(lines) == 4
        gaps = [float(l.split(",")[3]) for l in lines[1:]]
        assert max(gaps) < 1e-6

    def test_seventeen_digit_floats(self, tmp_path):
        run(tmp_path, "tw", "--t", "1", "--xmin", "-0.5", "--xmax", "0",
            "--step", "0.5", "--n", "40")
        row = (tmp_path / "tw.csv").read_text().strip().splitlines()[1]
        f_val = row.split(",")[1]
        digits = re.sub(r"[-+.e]", "", f_val)
        assert len(digits) >= 16

    def test_cache_roundtrip(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        monkeypatch.setenv("RMEDGE_CACHE_DIR", str(cache))
        run(tmp_path, "tw", "--t", "1", "--xmin", "-0.5", "--xmax", "0",
            "--step", "0.5", "--n", "40", "--out", "first.csv")
        assert len(list(cache.iterdir())) == 1
        run(tmp_path, "tw", "--t", "1", "--xmin", "-0.5", "--xmax", "0",
            "--step", "0.5", "--n", "40", "--out", "second.csv")
        assert (tmp_path / "first.csv").read_text() \
            == (tmp_path / "second.csv").read_text()

    def test_cache_key_keeps_every_digit(self, tmp_path, monkeypatch):
        # steps equal to six digits are different grids and different tables
        cache = tmp_path / "cache"
        monkeypatch.setenv("RMEDGE_CACHE_DIR", str(cache))
        for step in ("0.5", "0.5000001"):
            run(tmp_path, "tw", "--t", "1", "--xmin", "-0.5", "--xmax", "0",
                "--step", step, "--n", "40", "--out", f"s{step}.csv")
        assert len(list(cache.iterdir())) == 2
        assert (tmp_path / "s0.5.csv").read_text() \
            != (tmp_path / "s0.5000001.csv").read_text()

    def test_manifest_records_cache_use(self, tmp_path, monkeypatch):
        argv = ("tw", "--t", "1", "--xmin", "-0.5", "--xmax", "0", "--step", "0.5",
                "--n", "40")

        def cache_field():
            return json.loads((tmp_path / "tw.csv.manifest.json").read_text())["cache"]

        monkeypatch.delenv("RMEDGE_CACHE_DIR", raising=False)
        run(tmp_path, *argv)
        assert cache_field() == "off"
        monkeypatch.setenv("RMEDGE_CACHE_DIR", str(tmp_path / "cache"))
        run(tmp_path, *argv)
        assert cache_field() == "miss"
        run(tmp_path, *argv)
        assert cache_field() == "hit"

    def test_table_cached_by_another_version_is_not_served(self, tmp_path, monkeypatch):
        from rmedge import cli
        cache = tmp_path / "cache"
        monkeypatch.setenv("RMEDGE_CACHE_DIR", str(cache))
        argv = ("tw", "--t", "1", "--xmin", "-0.5", "--xmax", "0", "--step", "0.5",
                "--n", "40")
        with monkeypatch.context() as m:
            m.setattr(cli, "__version__", "0.1.0")
            run(tmp_path, *argv, "--out", "old.csv")
        (stale,) = cache.iterdir()
        stale.write_text("stale table\n")
        run(tmp_path, *argv, "--out", "new.csv")
        assert (tmp_path / "new.csv").read_text().startswith("x,F_painleve,")
        manifest = json.loads((tmp_path / "new.csv.manifest.json").read_text())
        assert manifest["cache"] == "miss"
        assert len(list(cache.iterdir())) == 2


class TestOtherCommands:
    def test_hardedge_report(self, tmp_path):
        code = run(tmp_path, "hardedge", "--nu", "0.5", "--a", "0.5",
                   "--z", "1", "--n", "50")
        assert code == 0
        payload = json.loads((tmp_path / "hardedge.json").read_text())
        assert payload["gap"] < 1e-6

    def test_hill_spectrum_csv(self, tmp_path):
        code = run(tmp_path, "hill", "--alpha", "0", "--count", "5",
                   "--scan-points", "8")
        assert code == 0
        lines = (tmp_path / "hill.csv").read_text().strip().splitlines()
        roots = [l for l in lines if l.startswith("root")]
        assert len(roots) == 5
        lam1 = float(roots[1].split(",")[1])
        assert lam1 == pytest.approx(1.0, abs=1e-8)

    def test_mathieu_report(self, tmp_path):
        code = run(tmp_path, "mathieu", "--alpha", "1", "--index", "1",
                   "--n", "128")
        assert code == 0
        payload = json.loads((tmp_path / "mathieu.json").read_text())
        assert payload["max_residual"] < 1e-4

    def test_sample_table(self, tmp_path):
        code = run(tmp_path, "sample", "--n", "40", "--samples", "30",
                   "--seed", "9", "--alpha", "0", "--kmax", "3")
        assert code == 0
        lines = (tmp_path / "sample.csv").read_text().strip().splitlines()
        assert lines[0] == "k,empirical_E_k,std_error,predicted_E_k"
        emp = sum(float(l.split(",")[1]) for l in lines[1:])
        assert emp == pytest.approx(1.0, abs=1e-12)
        manifest = json.loads((tmp_path / "sample.csv.manifest.json").read_text())
        assert manifest["seed"] == 9

    def test_sample_predictions_are_nonnegative(self, tmp_path):
        # squaring the Nystrom matrix wrote E(7) = -4.36e-80 and E(8) = -2.14e-97 here
        code = run(tmp_path, "sample", "--ensemble", "gue", "--n", "50", "--samples", "20",
                   "--seed", "7", "--alpha", "1", "--kmax", "8")
        assert code == 0
        lines = (tmp_path / "sample.csv").read_text().strip().splitlines()
        predicted = [float(l.split(",")[3]) for l in lines[1:]]
        assert len(predicted) == 9 and min(predicted) >= 0.0

    def test_sample_manifest_names_the_model(self, tmp_path):
        run(tmp_path, "sample", "--n", "20", "--samples", "5", "--seed", "3", "--kmax", "2")
        manifest = json.loads((tmp_path / "sample.csv.manifest.json").read_text())
        assert manifest["model"] == "hermite-tridiagonal"


class TestConfigAndErrors:
    def test_config_presets_and_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=32\nz=0.5\n")
        run(tmp_path, "--config", str(cfg), "det", "--kernel", "sine",
            "--t", "1", "--interval", "0", "1")
        payload = json.loads((tmp_path / "det.json").read_text())
        assert payload["n"] == 32 and payload["z"] == 0.5
        run(tmp_path, "--config", str(cfg), "det", "--kernel", "sine",
            "--t", "1", "--interval", "0", "1", "--z", "0.75")
        payload = json.loads((tmp_path / "det.json").read_text())
        assert payload["z"] == 0.75  # explicit flag wins

    def test_unknown_subcommand_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(tmp_path, "frobnicate")
        assert err.value.code == 2

    def test_unknown_flag_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(tmp_path, "det", "--kernel", "sine", "--interval", "0", "1",
                "--bogus", "3")
        assert err.value.code == 2

    def test_numerical_contract_violation_exits_one(self, tmp_path, capsys):
        code = run(tmp_path, "det", "--kernel", "sine", "--t", "1",
                   "--interval", "1", "0", "--n", "16")
        assert code == 1
        assert "ValueError" in capsys.readouterr().err

    def test_module_error_named(self, tmp_path, capsys):
        # a gap computation with an eigenvalue pinned at 1 must name the error
        code = run(tmp_path, "gap", "--kernel", "sine", "--t", "1",
                   "--interval", "0", "200", "--kmax", "2", "--n", "80")
        assert code == 1
        assert "NearSingularError" in capsys.readouterr().err

    def test_gap_of_a_kernel_above_one_names_both_causes(self, tmp_path, capsys):
        # the circle kernel's top eigenvalue on (0, 1) is 7.3166 at n = 48 and at
        # n = 200: no node count helps, so "raise --n" alone would mislead
        code = run(tmp_path, "gap", "--kernel", "sine-circle", "--ncirc", "3",
                   "--interval", "0", "1", "--n", "48")
        assert code == 1
        err = capsys.readouterr().err
        assert "error [NearSingularError]" in err and "7.31658567634" in err
        assert "not a correlation kernel on this interval" in err and "no n mends" in err
        assert not list(tmp_path.iterdir())

    def test_determinant_past_rounding_level_writes_nothing(self, tmp_path, capsys):
        code = run(tmp_path, "det", "--kernel", "sine", "--t", "1",
                   "--interval", "0", "20", "--n", "120")
        assert code == 1
        assert "error [NearSingularError]" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_tw_with_n_writes_the_fixed_node_table(self, tmp_path):
        # sha256 of the table written by 0.3.0, where tw took n = 100 at every shift
        code = run(tmp_path, "tw", "--t", "1", "--xmin", "-5", "--xmax", "2",
                   "--step", "0.1", "--n", "100")
        assert code == 0
        digest = hashlib.sha256((tmp_path / "tw.csv").read_bytes()).hexdigest()
        assert digest == "95087aa94229d89faa52f1f36f6451dcc109fc3a8e2550ac0ce2eb16a3251a11"
        manifest = json.loads((tmp_path / "tw.csv.manifest.json").read_text())
        assert manifest["det_nodes"] == [100] * 71

    def test_tw_records_the_chosen_nodes(self, tmp_path):
        code = run(tmp_path, "tw", "--t", "0.5", "--xmin", "-1", "--xmax", "1",
                   "--step", "0.5")
        assert code == 0
        manifest = json.loads((tmp_path / "tw.csv.manifest.json").read_text())
        assert manifest["det_nodes"] == [48] * 5
        assert manifest["parameters"]["n"] is None

    def test_tw_table_past_rounding_level_exits_one(self, tmp_path, capsys):
        code = run(tmp_path, "tw", "--xmin", "-12", "--xmax", "-10", "--step", "1")
        assert code == 1
        assert "error [NearSingularError]" in capsys.readouterr().err

    def test_tw_table_past_the_t1_ivp_window_exits_one(self, tmp_path, capsys):
        # the determinant route holds at -11 and -10, but the t = 1 IVP has left
        # Hastings-McLeod there: it wrote w(-10) = -0.429 against about -2.24
        code = run(tmp_path, "tw", "--xmin", "-11", "--xmax", "-10", "--step", "1")
        assert code == 1
        assert "error [DivergenceError]" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestNegativeValues:
    # argparse alone reads "-1e-1" and "-inf" as flags and exits 2
    def test_exponent_form_value(self, tmp_path):
        argv = ("det", "--kernel", "airy-symbol", "--interval", "0", "inf", "--n", "40")
        assert run(tmp_path, *argv, "--shift", "-1e-1", "--out", "spaced.json") == 0
        assert run(tmp_path, *argv, "--shift=-1e-1", "--out", "joined.json") == 0
        assert (tmp_path / "spaced.json").read_text() \
            == (tmp_path / "joined.json").read_text()

    def test_tw_from_exponent_form_xmin(self, tmp_path):
        code = run(tmp_path, "tw", "--t", "0.5", "--xmin", "-1e1", "--xmax", "-9",
                   "--step", "1", "--n", "60")
        assert code == 0
        rows = (tmp_path / "tw.csv").read_text().strip().splitlines()[1:]
        assert [float(r.split(",")[0]) for r in rows] == [-10.0, -9.0]

    def test_negative_infinite_z_is_refused_by_the_determinant(self, tmp_path, capsys):
        code = run(tmp_path, "det", "--kernel", "sine", "--interval", "0", "1",
                   "--n", "16", "--z", "-inf")
        assert code == 1
        assert "error [ValueError]: z must be finite" in capsys.readouterr().err


class TestVerify:
    def test_all_passing_exits_zero(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(acceptance, "CRITERIA",
                            [(1, "stub", lambda: (True, "fine"), 60.0)])
        assert run(tmp_path, "verify") == 0
        assert "1/1 acceptance criteria passed" in capsys.readouterr().out

    def test_criterion_over_its_budget_fails(self, tmp_path, monkeypatch, capsys):
        def slow():
            time.sleep(0.01)
            return True, "fine"

        monkeypatch.setattr(acceptance, "CRITERIA",
                            [(1, "stub", lambda: (True, "fine"), None),
                             (2, "slow", slow, 0.001)])
        results = acceptance.run_all(verbose=False)
        assert [r["passed"] for r in results] == [True, False]
        assert run(tmp_path, "verify") == 1
        out = capsys.readouterr().out
        assert re.search(r"\[FAIL\]  2 slow .*\n.*exceeded time budget", out)
        assert "1/2 acceptance criteria passed" in out


# one small run per file-writing subcommand, with its default output file
RUNS = {
    "det": ("det.json", ["--kernel", "sine", "--t", "1", "--interval", "0", "1",
                         "--n", "16"]),
    "gap": ("gap.csv", ["--kernel", "sine", "--t", "1", "--interval", "0", "1",
                        "--kmax", "2", "--n", "16"]),
    "tw": ("tw.csv", ["--t", "1", "--xmin", "-0.5", "--xmax", "0", "--step", "0.5",
                      "--n", "40"]),
    "hardedge": ("hardedge.json", ["--nu", "0.5", "--a", "0.5", "--n", "30"]),
    "hill": ("hill.csv", ["--alpha", "0", "--count", "3", "--scan-points", "4"]),
    "mathieu": ("mathieu.json", ["--alpha", "1", "--index", "1", "--n", "128"]),
    "sample": ("sample.csv", ["--n", "20", "--samples", "5", "--seed", "3",
                              "--kmax", "2"]),
}
MANIFEST_KEYS = {"command", "parameters", "version", "seed", "wall_time_s", "outputs"}


class TestRunner:
    @pytest.mark.parametrize("command", sorted(RUNS))
    def test_manifest_keys(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.delenv("RMEDGE_CACHE_DIR", raising=False)
        default, argv = RUNS[command]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# no presets\n")
        assert run(tmp_path, "--config", str(cfg), command, *argv) == 0
        manifest = json.loads((tmp_path / f"{default}.manifest.json").read_text())
        extra = {"tw": {"cache", "det_nodes"}, "sample": {"model"}}.get(command, set())
        assert set(manifest) == MANIFEST_KEYS | extra
        assert manifest["command"] == command
        assert manifest["outputs"] == [default]
        assert manifest["wall_time_s"] >= 0.0
        assert manifest["seed"] == (3 if command == "sample" else None)
        assert not {"func", "config"} & set(manifest["parameters"])
        assert manifest["parameters"]["out"] is None
        assert capsys.readouterr().out.rstrip().endswith(f"-> {default}")

    def test_tw_cache_outputs_name_the_table(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        monkeypatch.setenv("RMEDGE_CACHE_DIR", str(cache))
        for state in ("miss", "hit"):
            run(tmp_path, "tw", *RUNS["tw"][1])
            manifest = json.loads((tmp_path / "tw.csv.manifest.json").read_text())
            (table,) = cache.iterdir()
            assert manifest["cache"] == state
            assert manifest["outputs"] == ["tw.csv", str(table)]
            assert manifest["det_nodes"] == ([40, 40] if state == "miss" else None)

    @pytest.mark.parametrize("kernel,interval", [
        ("sine", "1"), ("airy", "inf"), ("bessel-hard", "1"), ("airy-symbol", "inf"),
        ("bessel-log", "1"), ("sine-circle", "1")])
    def test_every_kernel_choice_builds(self, tmp_path, kernel, interval):
        lo = "-2" if kernel == "airy" else "0"
        code = run(tmp_path, "det", "--kernel", kernel, "--interval", lo, interval,
                   "--n", "24", "--z", "0.5")
        assert code == 0
        assert json.loads((tmp_path / "det.json").read_text())["kernel"]

    def test_sample_refuses_negative_kmax_without_writing(self, tmp_path, capsys):
        code = run(tmp_path, "sample", "--n", "20", "--samples", "5", "--kmax", "-1")
        assert code == 1
        assert "kmax must be nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "sample.csv").exists()

    @pytest.mark.parametrize("z", ["nan", "inf"])
    @pytest.mark.parametrize("argv", [
        ("det", "--kernel", "sine", "--interval", "0", "1"),
        ("hardedge", "--nu", "0.5", "--a", "0.5"),
    ], ids=["det", "hardedge"])
    def test_non_finite_z_writes_nothing(self, tmp_path, capsys, argv, z):
        # det wrote "determinant": NaN and hardedge "gap = nan", both exiting 0
        code = run(tmp_path, *argv, "--z", z)
        assert code == 1
        assert "error [ValueError]: z must be finite" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("step", ["0", "-0.1", "nan", "inf"])
    def test_tw_refuses_a_step_that_is_not_positive_and_finite(self, tmp_path, capsys, step):
        # --step 0 ended in an uncaught ZeroDivisionError from np.arange
        code = run(tmp_path, "tw", "--step", step)
        assert code == 1
        assert "error [ValueError]: --step must be positive and finite" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("argv", [("hill", "--count", "3"), ("mathieu", "--index", "1")],
                             ids=["hill", "mathieu"])
    def test_non_finite_alpha_writes_nothing(self, tmp_path, capsys, argv, alpha):
        # inf ended in an OverflowError traceback, nan in a message about integers
        code = run(tmp_path, *argv, "--alpha", alpha)
        assert code == 1
        assert "error [ValueError]: alpha must be finite" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ("det", "--kernel", "airy-symbol", "--interval", "0", "inf", "--shift", "-inf"),
        ("det", "--kernel", "airy-symbol", "--interval", "0", "inf", "--shift", "nan"),
        ("sample", "--n", "20", "--samples", "5", "--alpha", "inf"),
    ], ids=["det-minus-inf", "det-nan", "sample-inf"])
    def test_non_finite_shift_writes_nothing(self, tmp_path, capsys, monkeypatch, argv):
        # sample refuses its predictor's shift before drawing
        draws = []
        monkeypatch.setattr(ensembles, "soft_edge_gap_counts", lambda *a, **k: draws.append(a))
        code = run(tmp_path, *argv)
        assert code == 1
        assert "error [ValueError]: shift must be finite" in capsys.readouterr().err
        assert not list(tmp_path.iterdir()) and not draws

    @pytest.mark.parametrize("argv, message", [
        (("--index", "1", "--n", "4"), "needs n >= 5 nodes"),
        (("--index", "-1"), "spectral_index must lie in 0..39"),
        (("--index", "40"), "spectral_index must lie in 0..39"),
    ], ids=["n4", "index-1", "index40"])
    def test_mathieu_refuses_what_it_cannot_check(self, tmp_path, capsys, argv, message):
        code = run(tmp_path, "mathieu", "--alpha", "1", *argv)
        assert code == 1
        err = capsys.readouterr().err
        assert "error [ValueError]: " in err and message in err
        assert not list(tmp_path.iterdir())


class TestConfigKeys:
    def test_key_matching_no_flag_is_refused(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nodes=32\nz=0.5\n")
        code = run(tmp_path, "--config", str(cfg), "det", "--kernel", "sine",
                   "--t", "1", "--interval", "0", "1")
        assert code == 1
        err = capsys.readouterr().err
        assert "ValueError" in err and "nodes" in err
        assert not (tmp_path / "det.json").exists()

    def test_key_of_another_subcommand_is_allowed(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kmax=3\nscan-points=5\nz=0.5\n")
        code = run(tmp_path, "--config", str(cfg), "det", "--kernel", "sine",
                   "--t", "1", "--interval", "0", "1", "--n", "16")
        assert code == 0
        assert json.loads((tmp_path / "det.json").read_text())["z"] == 0.5

    def test_value_outside_a_flags_choices_is_refused(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format=xml\n")
        code = run(tmp_path, "--config", str(cfg), "gap", "--kernel", "sine",
                   "--interval", "0", "1", "--kmax", "2", "--n", "16")
        assert code == 1
        assert "format='xml'" in capsys.readouterr().err
        assert not (tmp_path / "gap.csv").exists()

    def test_malformed_value_names_file_key_and_value(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=abc\n")
        code = run(tmp_path, "--config", str(cfg), "hill", "--alpha", "1", "--count", "3")
        assert code == 1
        err = capsys.readouterr().err
        assert str(cfg) in err and "n='abc'" in err
        assert not (tmp_path / "hill.csv").exists()

    def test_required_flags_from_config_write_what_the_flags_write(self, tmp_path):
        # kernel and interval are required flags; a config key satisfies them and
        # the two values of interval are whitespace-separated
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kernel=sine\ninterval=0 1\n")
        flags = ("det", "--kernel", "sine", "--interval", "0", "1", "--n", "16")
        assert run(tmp_path, *flags, "--out", "flags.json") == 0
        assert run(tmp_path, "--config", str(cfg), "det", "--n", "16",
                   "--out", "config.json") == 0
        assert (tmp_path / "config.json").read_text() == \
            (tmp_path / "flags.json").read_text()
        manifests = [json.loads((tmp_path / f"{name}.json.manifest.json").read_text())
                     for name in ("flags", "config")]
        for m in manifests:
            del m["wall_time_s"], m["outputs"], m["parameters"]["out"]
        assert manifests[0] == manifests[1]

    def test_config_value_count_is_checked(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("interval=0\n")
        code = run(tmp_path, "--config", str(cfg), "det", "--kernel", "sine", "--n", "16")
        assert code == 1
        assert "interval='0' needs 2 values" in capsys.readouterr().err
        assert not (tmp_path / "det.json").exists()

    def test_sample_ensemble_from_config_is_checked(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("ensemble=goe\n")
        code = run(tmp_path, "--config", str(cfg), "sample", "--n", "20",
                   "--samples", "5", "--kmax", "2")
        assert code == 1
        assert "ensemble='goe'" in capsys.readouterr().err
        assert not (tmp_path / "sample.csv").exists()

    def test_malformed_config_line_is_refused(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n 16\n")
        code = run(tmp_path, "--config", str(cfg), "det", "--kernel", "sine",
                   "--interval", "0", "1")
        assert code == 1
        assert "malformed config line: 'n 16'" in capsys.readouterr().err
        assert not (tmp_path / "det.json").exists()


def test_out_is_a_flag_of_every_file_writing_subcommand():
    from rmedge.cli import _EXTENSIONS, _build_parser
    _, subparsers = _build_parser()
    with_out = {sp.prog.split()[-1] for sp in subparsers
                if any(a.dest == "out" for a in sp._actions)}
    assert with_out == set(_EXTENSIONS)
