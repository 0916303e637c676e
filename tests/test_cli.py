"""Command-line interface: parsing, wiring, formats, exit codes."""

import csv
import dataclasses
import os
import subprocess
import sys
import urllib.request
import warnings
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
    kaplan_meier_survival,
    normalization_factor,
    php_estimate,
    reiss_thomas_k,
    run_study,
)
from tailpremium.cli import _read_claims_rows, main, read_claims, read_study_config

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

# Claims bodies that Python's float and int read, with the z and delta
# columns they sort to.
READ_BODIES = [
    pytest.param("1_5,1\n2,0\n", [2.0, 15.0], [0, 1], id="underscore"),
    pytest.param('"1.5",1\n2,"0"\n', [1.5, 2.0], [1, 0], id="quoted"),
    pytest.param("1.5,1\r\n2,0\r\n", [1.5, 2.0], [1, 0], id="crlf"),
    pytest.param(" 1.5 , 1\n2\t,0 \n", [1.5, 2.0], [1, 0], id="spaces"),
    pytest.param("1.5,1\n2,0", [1.5, 2.0], [1, 0], id="no-final-newline"),
    pytest.param("-0.0,1\n1e-320,0\n", [-0.0, 1e-320], [1, 0], id="tiny"),
]


def interval_rows(n=200, k=50):
    """Claims whose top ``k`` are 40% uncensored: at rho = 1 and this k
    the printed variance is positive, so an interval is reported."""
    z = ((n + 1.0 - np.arange(1, n + 1)) / (n + 1.0)) ** -0.05
    delta = [1] * (n - k) + [1, 1, 0, 0, 0] * (k // 5)
    return list(zip(z.tolist(), delta))


INTERVAL_FLAGS = ["--tau1", "-0.25", "--lambda1", "0.5", "--level", "0.9"]

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
        # blank lines, which a whole-file parse would skip, are rows too;
        # a body of blank lines fails without a warning
        for text, lineno in [
            ("z,delta\n1,1\n\n2,0\n", 3),
            ("z,delta\n1,1\n2,0\n\n", 4),
            ("z,delta\r\n1,1\r\n\r\n", 3),
            ("z,delta\n\n", 2),
        ]:
            path.write_text(text, newline="")
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(
                    FileFormatError,
                    match=rf"c\.csv:{lineno}: expected 2 fields, got 0",
                ):
                    read_claims(str(path))
            assert caught == []

    def test_bad_values_name_offending_line(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("z,delta\n1,one\n")
        with pytest.raises(FileFormatError, match=r"c\.csv:2"):
            read_claims(str(path))
        path.write_text("z,delta\n1,2\n")
        with pytest.raises(FileFormatError, match=r"c\.csv:2"):
            read_claims(str(path))
        # flags int() rejects; numpy's integer parser would read the last two
        for flag in ("1.0", "1\x1c", "\x1f0"):
            path.write_text(f"z,delta\n1,1\n2,{flag}\n")
            with pytest.raises(FileFormatError, match=r"c\.csv:3: invalid literal"):
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
            # a rule-breaking row before a malformed one
            pytest.param("-2,1\nabc,1", "finite and >= 0", id="negative-then-unparsable"),
            pytest.param("2,5\n3", "0 or 1, got 5", id="bad-flag-then-short-row"),
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

    def test_no_data_rows(self, tmp_path, capfd):
        path = tmp_path / "c.csv"
        for text in ("z,delta\n", "z,delta", "z,delta\r\n"):
            path.write_text(text, newline="")
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(FileFormatError, match="no data rows"):
                    read_claims(str(path))
            assert caught == []
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("body, z, delta", READ_BODIES)
    def test_reads_what_float_and_int_read(self, tmp_path, body, z, delta):
        path = tmp_path / "c.csv"
        path.write_text("z,delta\n" + body, newline="")
        sample = read_claims(str(path))
        assert sample.z_sorted.tolist() == z
        assert sample.delta_concomitant.tolist() == delta
        assert np.signbit(sample.z_sorted).tolist() == np.signbit(z).tolist()

    def test_undecodable_byte_names_its_line(self, tmp_path, capsys):
        # 3000 rows put the byte well past the first 8 KiB the file is
        # read in; a 0xff byte is never valid UTF-8.
        path = tmp_path / "c.csv"
        body = "".join(f"{i}.5,1\n" for i in range(3000)).encode("ascii")
        path.write_bytes(b"z,delta\n" + body + b"7.5,\xff1\n8,0\n")
        with pytest.raises(FileFormatError, match=r"c\.csv:3002: cannot decode"):
            read_claims(str(path))
        assert main(["km", str(path), "--out", str(tmp_path / "km.csv")]) == 2
        assert "c.csv:3002: cannot decode byte 0xff" in capsys.readouterr().err

    def test_one_pass_matches_the_row_loop(self, tmp_path):
        # the row loop is the reference: same values, bit for bit
        rng = np.random.default_rng(12)
        values = rng.pareto(2.0, 3000) * 10.0 ** rng.integers(-5, 9, 3000)
        fields = [
            repr(v) if i % 3 else f"{v:.2f}" for i, v in enumerate(values.tolist())
        ]
        flags = rng.integers(0, 2, values.size).tolist()
        path = tmp_path / "c.csv"
        text = "z,delta\n" + "".join(f"{z},{d}\n" for z, d in zip(fields, flags))
        path.write_text(text)
        fast = read_claims(str(path))
        rows = _read_claims_rows(str(path), text)
        assert fast.z_sorted.tobytes() == rows.z_sorted.tobytes()
        assert fast.delta_concomitant.tobytes() == rows.delta_concomitant.tobytes()


def _read_outcome(read):
    """The z bits and flags that ``read()`` returns, or its error message."""
    try:
        sample = read()
    except FileFormatError as exc:
        return str(exc)
    return sample.z_sorted.tobytes(), sample.delta_concomitant.tobytes()


def assert_reads_like_the_row_loop(path):
    with open(path, newline="") as handle:
        text = handle.read()
    rows = _read_outcome(lambda: _read_claims_rows(path, text))
    assert _read_outcome(lambda: read_claims(path)) == rows
    return rows


class TestReadClaimsRoutes:
    """read_claims hands numpy the file's path; every route reads like the rows."""

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_compression_suffixes_are_read_as_text(self, tmp_path, suffix):
        # numpy would decompress these names; they hold plain claims rows
        path = write_claims(tmp_path / f"c.csv{suffix}", [(3.0, 1), (1.5, 0)])
        assert isinstance(assert_reads_like_the_row_loop(path), tuple)

    def test_url_shaped_relative_path_is_not_fetched(
        self, tmp_path, monkeypatch
    ):
        def no_network(*args, **kwargs):
            raise AssertionError("read_claims tried to fetch a URL")

        monkeypatch.setattr(urllib.request, "urlopen", no_network)
        (tmp_path / "http:" / "x").mkdir(parents=True)
        write_claims(tmp_path / "http:" / "x" / "c.csv", [(3.0, 1), (1.5, 0)])
        monkeypatch.chdir(tmp_path)
        rows = assert_reads_like_the_row_loop("http://x/c.csv")
        assert rows[0] == np.array([1.5, 3.0]).tobytes()

    @pytest.mark.parametrize(
        "body",
        [
            pytest.param("1,1\r2,0\n", id="lone-cr"),
            pytest.param("1,1\r2,0\n\n", id="lone-cr-then-blank"),
            pytest.param("1.5\r,1\n2,0\n", id="lone-cr-in-field"),
            pytest.param('"1\r",1\n2,0\n', id="lone-cr-quoted"),
            pytest.param("1,1\r\n\r\n2,0\r\n", id="crlf-blank-inside"),
            pytest.param("1,1\r\n2,0\r\n\r\n", id="crlf-blank-last"),
        ]
        + [pytest.param(p.values[0], id=p.id) for p in READ_BODIES],
    )
    def test_body_reads_like_the_row_loop(self, tmp_path, body):
        path = tmp_path / "c.csv"
        path.write_text("z,delta\n" + body, newline="")
        assert_reads_like_the_row_loop(str(path))


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
        runs = [
            (QUAD, ["--k", "2"]),
            (interval_rows(), ["--k", "50", *INTERVAL_FLAGS]),
        ]
        for i, (rows, flags) in enumerate(runs):
            path = write_claims(tmp_path / f"c{i}.csv", rows)
            out = tmp_path / f"report{i}.csv"
            main(["estimate", path, "--rho", "1", *flags, "--out", str(out)])
            report = parse_report(capsys.readouterr().out)
            header, row = read_rows(out)
            assert header == list(report)
            assert row == list(report.values())
        assert header[-3:] == ["ci_level", "ci_low", "ci_high"]

    def test_overflowing_premium_is_named(self, tmp_path, capsys):
        # gamma1_hat ~ 2e-4 and R / z_(n-k) ~ 1e-6: the power
        # (R / z) ** (-1 / (rho * gamma1)) leaves the float range.
        z = np.random.default_rng(3).uniform(1000.0, 1010.0, 300)
        path = write_claims(tmp_path / "c.csv", [(v, 1) for v in z.tolist()])
        argv = ["estimate", path, "--rho", "1", "--k", "20", "--retention", "1e-3"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: premium overflows the float range")
        assert captured.err.count("\n") == 1

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
        path = write_claims(tmp_path / "c.csv", interval_rows(n, k))
        code = main(["estimate", path, "--rho", "1", "--k", str(k), *INTERVAL_FLAGS])
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

    @pytest.mark.parametrize(
        "level, ci_low, ci_high",
        [
            ("0.5", "0.030705129443", "0.0361331173839"),
            ("0.9", "0.0268006050083", "0.0400376418187"),
            ("0.95", "0.0255326723076", "0.0413055745193"),
            ("0.99", "0.0230545697688", "0.0437836770582"),
            ("0.999999", "0.0137362782336", "0.0531019685934"),
        ],
    )
    def test_confidence_interval_digits(
        self, tmp_path, capsys, level, ci_low, ci_high
    ):
        # digits printed when the Gaussian quantile came from scipy's ndtri
        n, k = 200, 50
        z = ((n + 1.0 - np.arange(1, n + 1)) / (n + 1.0)) ** -0.05
        delta = [1] * (n - k) + [1, 1, 0, 0, 0] * (k // 5)
        path = write_claims(tmp_path / "c.csv", list(zip(z.tolist(), delta)))
        code = main(
            [
                "estimate", path, "--rho", "1", "--k", str(k),
                "--tau1", "-0.25", "--lambda1", "0.5", "--level", level,
            ]
        )
        assert code == 0
        report = parse_report(capsys.readouterr().out)
        assert (report["ci_low"], report["ci_high"]) == (ci_low, ci_high)

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

    def test_file_bytes_on_ties_and_exponents(self, tmp_path):
        # Amounts near 1e-7 and 1e15, each tied several times, so both
        # columns need exponent notation and 12-digit rounding.
        rng = np.random.default_rng(29)
        values = np.concatenate(
            [rng.uniform(1e-7, 9e-7, 6), rng.uniform(1e15, 9e15, 6)]
        )
        z = rng.choice(values, 60).tolist()
        delta = rng.integers(0, 2, 60).tolist()
        path = write_claims(tmp_path / "c.csv", list(zip(z, delta)))
        out = tmp_path / "km.csv"
        assert main(["km", path, "--out", str(out)]) == 0
        sample = read_claims(path)
        lines = [
            f"{format(x, '.12g')},{format(kaplan_meier_survival(sample, x), '.12g')}\n"
            for x in sorted(set(z))[:-1]
        ]
        assert len(lines) > 6 and "e-07" in lines[0] and "e+15" in lines[-1]
        assert out.read_bytes() == ("x,survival\n" + "".join(lines)).encode()

    def test_zero_prints_without_sign_in_any_row_order(self, tmp_path):
        # -0.0 and 0.0 tie; the printed x must not depend on which sorts last
        out = tmp_path / "km.csv"
        for body, want in [
            ("-0.0,1\n0.0,1\n5,1\n7,0\n", "0,0.5\n5,0.25\n"),
            ("0.0,1\n-0.0,1\n5,1\n7,0\n", "0,0.5\n5,0.25\n"),
            ("-0.0,1\n5,0\n", "0,0.5\n"),
        ]:
            (tmp_path / "c.csv").write_text("z,delta\n" + body)
            assert main(["km", str(tmp_path / "c.csv"), "--out", str(out)]) == 0
            assert out.read_bytes() == ("x,survival\n" + want).encode()

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


def test_config_reports_the_first_bad_key_in_key_order(tmp_path):
    # master_seed comes first in the file; gamma1 comes first in key order.
    text = "master_seed = x\n" + (
        CONFIG_TEXT.replace("master_seed = 777\n", "")
        .replace("gamma1 = 0.1", "gamma1 = y")
        .replace("eta = 0.25", "eta = z")
    )
    path = write_config(tmp_path / "study.cfg", text)
    with pytest.raises(FileFormatError, match="key 'gamma1': cannot parse 'y'"):
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


def _modules_after(probe, packages=("scipy",)):
    """The loaded modules of ``packages`` after ``probe`` runs in a fresh process."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe += (
        "\nimport sys"
        "\nprint(sorted(m for m in sys.modules"
        f" if any(m == p or m.startswith(p + '.') for p in {packages!r})))"
    )
    process = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", probe],
        capture_output=True,
        text=True,
        env=env,
    )
    assert process.returncode == 0, process.stderr
    return process.stdout.strip().splitlines()[-1]


def test_import_leaves_out_integrate_and_optimize():
    # scipy costs every CLI start a few hundred milliseconds, and nothing
    # in the package needs it: numpy is the only runtime dependency.
    assert _modules_after("import tailpremium.cli") == "[]"


@pytest.mark.parametrize("workers", ["1", "2"])
def test_simulate_and_h_threshold_leave_out_scipy(tmp_path, workers):
    # The exact Burr premium and h_threshold ran on scipy.special and
    # scipy.optimize; both are numpy now.
    config = write_config(tmp_path / "study.cfg")
    out = str(tmp_path / "rows.csv")
    probe = (
        "from tailpremium import burr_scheme, h_threshold\n"
        "from tailpremium.cli import main\n"
        f"assert main(['simulate', {config!r}, '--out', {out!r},"
        f" '--workers', {workers!r}]) == 0\n"
        "h_threshold(burr_scheme(0.1, 0.4, 0.25), 100, 1000)"
    )
    assert _modules_after(probe) == "[]"


@pytest.mark.parametrize("workers", ["1", "2"])
def test_simulate_leaves_out_the_process_pool(tmp_path, workers):
    # Importing concurrent.futures.process costs every CLI start about
    # 20 ms; a parallel run forks its workers itself and needs neither it
    # nor multiprocessing.
    packages = ("concurrent", "multiprocessing")
    assert _modules_after("import tailpremium.cli", packages) == "[]"
    config = write_config(tmp_path / "study.cfg")
    probe = (
        "from tailpremium.cli import main\n"
        f"assert main(['simulate', {config!r}, '--out',"
        f" {str(tmp_path / 'rows.csv')!r}, '--workers', {workers!r}]) == 0"
    )
    assert _modules_after(probe, packages) == "[]"


def test_claims_commands_leave_out_scipy(tmp_path):
    rng = np.random.default_rng(21)
    z = (1.0 - rng.random(300)) ** -0.15
    rows = [(float(v), i % 2) for i, v in enumerate(z)]
    path = write_claims(tmp_path / "c.csv", rows)
    out = str(tmp_path / "km.csv")
    probe = (
        "from tailpremium.cli import main\n"
        f"assert main(['estimate', {path!r}, '--rho', '1.1', '--auto-k']) == 0\n"
        f"assert main(['estimate', {path!r}, '--rho', '1', '--k', '40',"
        " '--tau1', '-0.25', '--lambda1', '0.5']) == 0\n"
        f"assert main(['km', {path!r}, '--out', {out!r}]) == 0\n"
        "assert main(['asymptotics', '--gamma1', '0.2', '--p', '0.5',"
        " '--rho', '1']) == 0"
    )
    assert _modules_after(probe) == "[]"


@pytest.mark.parametrize("command", ["estimate", "km", "simulate-1", "simulate-2"])
def test_commands_leave_out_numpy_ma(tmp_path, command):
    # numpy's np.unique imports numpy.ma on its first call, which costs a
    # fresh process about 16 ms (median of 9 on 2 vCPUs); no command needs it.
    rng = np.random.default_rng(21)
    z = (1.0 - rng.random(300)) ** -0.15
    rows = [(float(v), i % 2) for i, v in enumerate(z)]
    claims = write_claims(tmp_path / "c.csv", rows)
    config = write_config(tmp_path / "study.cfg")
    out = str(tmp_path / "out.csv")
    argv = {
        "estimate": ["estimate", claims, "--rho", "1.1", "--auto-k"],
        "km": ["km", claims, "--out", out],
        "simulate-1": ["simulate", config, "--out", out],
        "simulate-2": ["simulate", config, "--out", out, "--workers", "2"],
    }[command]
    probe = f"from tailpremium.cli import main\nassert main({argv!r}) == 0"
    assert _modules_after(probe, ("numpy.ma",)) == "[]"
