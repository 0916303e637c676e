"""Command-line interface: parsing, wiring, formats, exit codes."""

import csv
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tailpremium import (
    AsymptoticParams,
    EstimationSettings,
    FileFormatError,
    NormalLimit,
    StudyConfig,
    asym_mean,
    asym_variance,
    censored_hill,
    confidence_interval,
    normalization_factor,
    php_estimate,
    reiss_thomas_k,
    run_study,
)
from tailpremium.cli import main, read_claims, read_study_config

from helpers import naive_km_grouped


def write_claims(path, rows):
    path.write_text(
        "z,delta\n" + "".join(f"{z},{d}\n" for z, d in rows), encoding="ascii"
    )
    return str(path)


def parse_report(captured):
    pairs = {}
    for line in captured.strip().splitlines():
        key, _, value = line.partition(" ")
        pairs[key] = value
    return pairs


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


QUAD = [(1.0, 1), (2.0, 1), (3.0, 1), (4.0, 1)]

CONFIG_TEXT = """\
# two-cell smoke study
gamma1 = 0.1
eta = 0.25

p_values = 0.4, 0.6
rho_values = 1.0
n_values = 150
replicates = 2
master_seed = 777
"""


def write_config(path, text=CONFIG_TEXT):
    path.write_text(text, encoding="ascii")
    return str(path)


def config_from_text():
    return StudyConfig(
        gamma1=0.1,
        p_values=(0.4, 0.6),
        rho_values=(1.0,),
        n_values=(150,),
        eta=0.25,
        replicates=2,
        master_seed=777,
    )


class TestReadClaims:
    def test_round_trip(self, tmp_path):
        path = write_claims(tmp_path / "c.csv", [(3.0, 1), (1.0, 0), (2.0, 1)])
        sample = read_claims(path)
        assert sample.z_sorted.tolist() == [1.0, 2.0, 3.0]
        assert sample.delta_concomitant.tolist() == [0, 1, 1]

    def test_wrong_header_names_line_one(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("z,censored\n1,1\n")
        with pytest.raises(FileFormatError, match=r"c\.csv:1: expected header 'z,delta'"):
            read_claims(str(path))

    def test_field_count_names_offending_line(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("z,delta\n1,1\n2,1,9\n")
        with pytest.raises(FileFormatError, match=r"c\.csv:3: expected 2 fields"):
            read_claims(str(path))

    def test_bad_values_name_offending_line(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("z,delta\n1,one\n")
        with pytest.raises(FileFormatError, match=r"c\.csv:2"):
            read_claims(str(path))
        path.write_text("z,delta\n1,2\n")
        with pytest.raises(FileFormatError, match=r"c\.csv:2"):
            read_claims(str(path))

    @pytest.mark.parametrize(
        "bad_row, message",
        [
            ("3,1,9", "expected 2 fields, got 3"),
            ("3", "expected 2 fields, got 1"),
            ("x3,1", "could not convert string to float"),
            ("3,one", "invalid literal for int"),
            ("-3,1", "finite and >= 0"),
            ("nan,1", "finite and >= 0"),
            ("inf,0", "finite and >= 0"),
            ("3,2", "0 or 1, got 2"),
            ("3,99999999999999999999", "0 or 1, got 99999999999999999999"),
        ],
    )
    def test_first_bad_row_names_its_line(self, tmp_path, capsys, bad_row, message):
        # a later row is bad too; only the first one may be reported
        path = tmp_path / "c.csv"
        path.write_text(f"z,delta\n1,1\n2,0\n{bad_row}\n5,1\n6,7\n")
        with pytest.raises(FileFormatError, match=rf"c\.csv:4: .*{message}"):
            read_claims(str(path))
        assert main(["km", str(path), "--out", str(tmp_path / "km.csv")]) == 2
        assert "c.csv:4:" in capsys.readouterr().err

    def test_no_data_rows(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("z,delta\n")
        with pytest.raises(FileFormatError, match="no data rows"):
            read_claims(str(path))


class TestEstimateCommand:
    def test_hand_run_report(self, tmp_path, capsys):
        path = write_claims(tmp_path / "c.csv", QUAD)
        code = main(
            ["estimate", path, "--rho", "1", "--k", "2", "--retention", "threshold"]
        )
        assert code == 0
        report = parse_report(capsys.readouterr().out)
        assert list(report) == [
            "n", "k", "p_hat", "gamma_hill", "gamma1_hat", "retention", "premium",
        ]
        assert report["n"] == "4"
        assert report["k"] == "2"
        assert report["p_hat"] == "1"
        assert float(report["retention"]) == 2.0
        # reference digits from 40-digit arithmetic
        assert float(report["premium"]) == pytest.approx(
            1.21880104960029, rel=1e-11
        )

    def test_out_csv_mirrors_report(self, tmp_path, capsys):
        path = write_claims(tmp_path / "c.csv", QUAD)
        out = tmp_path / "report.csv"
        main(["estimate", path, "--rho", "1", "--k", "2", "--out", str(out)])
        report = parse_report(capsys.readouterr().out)
        header, row = read_rows(out)
        assert header == list(report)
        assert row == list(report.values())

    def test_auto_k_matches_library_rule(self, tmp_path, capsys):
        rng = np.random.default_rng(21)
        z = (1.0 - rng.random(300)) ** -0.15
        path = write_claims(tmp_path / "c.csv", [(float(v), 1) for v in z])
        code = main(["estimate", path, "--rho", "1.1", "--auto-k"])
        assert code == 0
        report = parse_report(capsys.readouterr().out)
        assert int(report["k"]) == reiss_thomas_k(read_claims(path)).k_star

    def test_confidence_interval_wires_the_asymptotics(self, tmp_path, capsys):
        n, k = 200, 50
        z = ((n + 1.0 - np.arange(1, n + 1)) / (n + 1.0)) ** -0.05
        delta = [1] * (n - k) + [1, 1, 0, 0, 0] * (k // 5)
        path = write_claims(tmp_path / "c.csv", list(zip(z.tolist(), delta)))
        code = main(
            [
                "estimate", path, "--rho", "1", "--k", str(k),
                "--tau1", "-0.25", "--lambda1", "0.5", "--level", "0.9",
            ]
        )
        assert code == 0
        report = parse_report(capsys.readouterr().out)
        assert report["ci_level"] == "0.9"

        sample = read_claims(path)
        est = censored_hill(sample, k)
        assert est.p_hat == 0.4
        sigma2 = asym_variance(est.gamma1_hat, est.p_hat, 1.0)
        assert sigma2 > 0.0
        premium = php_estimate(sample, EstimationSettings(k=k, rho=1.0))
        params = AsymptoticParams(
            gamma1=est.gamma1_hat, p=est.p_hat, rho=1.0, tau1=-0.25, lambda1=0.5
        )
        limit = NormalLimit(
            mu=asym_mean(params),
            sigma2=sigma2,
            normalization=normalization_factor(
                premium.retention,
                float(sample.z_sorted[n - k - 1]),
                premium.km_at_threshold,
                est.gamma1_hat,
                1.0,
            ),
        )
        lo, hi = confidence_interval(premium, limit, k, 0.9)
        assert float(report["ci_low"]) == pytest.approx(lo, rel=1e-10)
        assert float(report["ci_high"]) == pytest.approx(hi, rel=1e-10)

    def test_non_positive_variance_omits_interval(self, tmp_path, capsys):
        z = [float(v) for v in np.geomspace(1.0, 50.0, 20)]
        path = write_claims(tmp_path / "c.csv", [(v, 1) for v in z])
        code = main(
            ["estimate", path, "--rho", "1", "--k", "5", "--tau1", "0"]
        )
        assert code == 0
        captured = capsys.readouterr()
        report = parse_report(captured.out)
        assert "ci_level" not in report
        assert "confidence interval omitted" in captured.err

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code = main(
            ["estimate", str(tmp_path / "nope.csv"), "--rho", "1", "--k", "2"]
        )
        assert code == 4

    def test_bad_header_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "c.csv"
        path.write_text("z,censored\n1,1\n")
        code = main(["estimate", str(path), "--rho", "1", "--k", "2"])
        assert code == 2
        assert "expected header" in capsys.readouterr().err

    def test_bad_k_is_domain_error(self, tmp_path, capsys):
        path = write_claims(tmp_path / "c.csv", QUAD)
        code = main(["estimate", path, "--rho", "1", "--k", "0"])
        assert code == 3
        assert "k must satisfy" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--rho", "nan"], "rho must be >= 1"),
            (["--rho", "1", "--retention", "nan"], "retention must"),
            (["--rho", "1", "--retention", "inf"], "retention must"),
        ],
    )
    def test_non_finite_parameters_are_domain_errors(
        self, tmp_path, capsys, flags, message
    ):
        path = write_claims(tmp_path / "c.csv", QUAD)
        code = main(["estimate", path, "--k", "2", *flags])
        captured = capsys.readouterr()
        assert code == 3
        assert message in captured.err
        assert captured.out == ""

    def test_k_and_auto_k_are_mutually_exclusive(self, tmp_path):
        path = write_claims(tmp_path / "c.csv", QUAD)
        with pytest.raises(SystemExit) as excinfo:
            main(["estimate", path, "--rho", "1", "--k", "2", "--auto-k"])
        assert excinfo.value.code == 2

    def test_one_of_k_and_auto_k_is_required(self, tmp_path):
        path = write_claims(tmp_path / "c.csv", QUAD)
        with pytest.raises(SystemExit) as excinfo:
            main(["estimate", path, "--rho", "1"])
        assert excinfo.value.code == 2

    def test_retention_flag_rejects_garbage(self, tmp_path):
        path = write_claims(tmp_path / "c.csv", QUAD)
        with pytest.raises(SystemExit) as excinfo:
            main(["estimate", path, "--rho", "1", "--k", "2", "--retention", "max"])
        assert excinfo.value.code == 2

    def test_explicit_numeric_retention(self, tmp_path, capsys):
        path = write_claims(tmp_path / "c.csv", QUAD)
        main(["estimate", path, "--rho", "1", "--k", "2", "--retention", "2.0"])
        explicit = parse_report(capsys.readouterr().out)
        main(["estimate", path, "--rho", "1", "--k", "2"])
        sentinel = parse_report(capsys.readouterr().out)
        assert explicit == sentinel


class TestKmCommand:
    def test_hand_curve(self, tmp_path):
        path = write_claims(tmp_path / "c.csv", [(1.0, 1), (2.0, 0), (3.0, 1)])
        out = tmp_path / "km.csv"
        assert main(["km", path, "--out", str(out)]) == 0
        assert read_rows(out) == [
            ["x", "survival"],
            ["1", "0.666666666667"],
            ["2", "0.666666666667"],
        ]

    def test_all_censored_curve_is_flat_one(self, tmp_path):
        path = write_claims(tmp_path / "c.csv", [(1.0, 0), (2.0, 0), (3.0, 0)])
        out = tmp_path / "km.csv"
        main(["km", path, "--out", str(out)])
        rows = read_rows(out)[1:]
        assert [row[1] for row in rows] == ["1", "1"]

    def test_single_observation_gives_empty_curve(self, tmp_path):
        path = write_claims(tmp_path / "c.csv", [(5.0, 1)])
        out = tmp_path / "km.csv"
        main(["km", path, "--out", str(out)])
        assert read_rows(out) == [["x", "survival"]]

    def test_matches_naive_curve(self, tmp_path):
        rng = np.random.default_rng(13)
        z = np.round((1.0 - rng.random(40)) ** -0.4, 1).tolist()
        delta = rng.integers(0, 2, size=40).tolist()
        assert len(set(z)) < 30  # the draw has ties
        path = write_claims(tmp_path / "c.csv", list(zip(z, delta)))
        out = tmp_path / "km.csv"
        main(["km", path, "--out", str(out)])
        rows = read_rows(out)[1:]
        assert [float(x) for x, _ in rows] == sorted(set(z))[:-1]
        for x_text, survival_text in rows:
            want = naive_km_grouped(z, delta, float(x_text))
            assert float(survival_text) == pytest.approx(want, rel=1e-11)

    def test_unwritable_out_is_io_error(self, tmp_path, capsys):
        path = write_claims(tmp_path / "c.csv", QUAD)
        code = main(["km", path, "--out", str(tmp_path / "missing" / "km.csv")])
        assert code == 4


class TestAsymptoticsCommand:
    def test_positive_variance_report(self, capsys):
        code = main(
            ["asymptotics", "--gamma1", "0.1", "--p", "0.4", "--rho", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        report = parse_report(out)
        assert report["mu"] == "0"
        assert float(report["sigma2"]) == pytest.approx(0.0072916, abs=1e-6)
        assert "warning" not in out

    def test_negative_variance_warns(self, capsys):
        code = main(
            ["asymptotics", "--gamma1", "0.1", "--p", "0.8", "--rho", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        report = parse_report(out)
        assert float(report["sigma2"]) == pytest.approx(-0.0023228, abs=1e-6)
        assert "no confidence interval available" in out

    def test_singular_mean_is_domain_error(self, capsys):
        code = main(
            [
                "asymptotics", "--gamma1", "0.1", "--p", "0.4",
                "--rho", "1.9", "--lambda1", "1",
            ]
        )
        assert code == 3
        assert "vanishes" in capsys.readouterr().err

    def test_bad_parameters_are_domain_errors(self, capsys):
        code = main(["asymptotics", "--gamma1", "0.1", "--p", "0", "--rho", "1"])
        assert code == 3

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--rho", "nan"], "rho must be >= 1"),
            (["--rho", "1", "--lambda1", "nan"], "lambda1 must be finite"),
        ],
    )
    def test_non_finite_parameters_are_domain_errors(self, capsys, flags, message):
        code = main(["asymptotics", "--gamma1", "0.1", "--p", "0.4", *flags])
        captured = capsys.readouterr()
        assert code == 3
        assert message in captured.err
        assert captured.out == ""


class TestReadStudyConfig:
    def test_parses_comments_blanks_and_lists(self, tmp_path):
        config = read_study_config(write_config(tmp_path / "study.cfg"))
        assert config == config_from_text()
        assert config.beta == 0.3

    def test_optional_beta(self, tmp_path):
        config = read_study_config(
            write_config(tmp_path / "study.cfg", CONFIG_TEXT + "beta = 0.2\n")
        )
        assert config.beta == 0.2

    @pytest.mark.parametrize(
        "mutation, message",
        [
            (lambda t: t + "shape = 1\n", "unknown key 'shape'"),
            (lambda t: t + "eta = 0.3\n", "duplicate key 'eta'"),
            (lambda t: t.replace("eta = 0.25\n", ""), "missing required keys: eta"),
            (lambda t: t.replace("0.25", "zero"), "cannot parse 'zero'"),
            (lambda t: t.replace("0.4, 0.6", "0.4,, 0.6"), "empty list element"),
            (lambda t: t.replace("eta = 0.25", "eta 0.25"), "expected 'key = value'"),
            (lambda t: t.replace("replicates = 2", "replicates = 0"), "replicates"),
        ],
    )
    def test_rejections(self, tmp_path, mutation, message):
        path = write_config(tmp_path / "study.cfg", mutation(CONFIG_TEXT))
        with pytest.raises(FileFormatError, match=message):
            read_study_config(path)


class TestSimulateCommand:
    def test_rows_round_trip_against_run_study(self, tmp_path):
        path = write_config(tmp_path / "study.cfg")
        out = tmp_path / "rows.csv"
        assert main(["simulate", path, "--out", str(out)]) == 0
        header, *rows = read_rows(out)
        assert header == [
            "p", "rho", "n", "pi_true", "pi_hat", "abs_bias", "rmse", "failures",
        ]
        expected = run_study(config_from_text())
        assert len(rows) == len(expected) == 2
        for row, want in zip(rows, expected):
            assert float(row[0]) == want.p
            assert float(row[1]) == want.rho
            assert int(row[2]) == want.n
            assert float(row[3]) == pytest.approx(want.mean_pi_true, rel=1e-11)
            assert float(row[4]) == pytest.approx(want.mean_pi_hat, rel=1e-11)
            assert float(row[5]) == pytest.approx(want.abs_bias, rel=1e-11)
            assert float(row[6]) == pytest.approx(want.rmse, rel=1e-11)
            assert int(row[7]) == want.failure_count

    def test_seed_override(self, tmp_path):
        path = write_config(tmp_path / "study.cfg")
        out = tmp_path / "rows.csv"
        assert main(["simulate", path, "--out", str(out), "--seed", "123"]) == 0
        reseeded = dataclasses.replace(config_from_text(), master_seed=123)
        want = run_study(reseeded)[0]
        got = read_rows(out)[1]
        assert float(got[4]) == pytest.approx(want.mean_pi_hat, rel=1e-11)

    def test_bad_seed_override_is_domain_error(self, tmp_path, capsys):
        path = write_config(tmp_path / "study.cfg")
        out = tmp_path / "rows.csv"
        code = main(["simulate", path, "--out", str(out), "--seed", "-5"])
        assert code == 3
        assert "--seed" in capsys.readouterr().err

    def test_worker_count_yields_identical_bytes(self, tmp_path):
        path = write_config(tmp_path / "study.cfg")
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        assert main(["simulate", path, "--out", str(serial)]) == 0
        assert main(
            ["simulate", path, "--out", str(parallel), "--workers", "2"]
        ) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_config_error_is_input_error(self, tmp_path, capsys):
        path = write_config(tmp_path / "study.cfg", CONFIG_TEXT + "shape = 1\n")
        code = main(["simulate", path, "--out", str(tmp_path / "rows.csv")])
        assert code == 2
        assert "unknown key" in capsys.readouterr().err

    def test_non_finite_rho_is_input_error(self, tmp_path, capsys):
        text = CONFIG_TEXT.replace("rho_values = 1.0", "rho_values = 1.0, nan")
        path = write_config(tmp_path / "study.cfg", text)
        out = tmp_path / "rows.csv"
        code = main(["simulate", path, "--out", str(out)])
        assert code == 2
        assert "every rho must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_out_is_io_error(self, tmp_path, capsys):
        path = write_config(tmp_path / "study.cfg")
        code = main(
            ["simulate", path, "--out", str(tmp_path / "missing" / "rows.csv")]
        )
        assert code == 4


def test_import_leaves_out_integrate_and_optimize():
    # Both cost every CLI start a few hundred milliseconds; only
    # h_threshold needs scipy.optimize, and imports it when called.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (
        "import sys, tailpremium.cli; "
        "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') "
        "if m in sys.modules))"
    )
    process = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env
    )
    assert process.returncode == 0, process.stderr
    assert process.stdout.strip() == "[]"
