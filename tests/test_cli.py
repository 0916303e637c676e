"""Command-line interface: parsing, wiring, formats, exit codes."""

import csv
import dataclasses
import gc
import logging
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

# gamma1 = 0.25 at n = 150: most samples have no admissible k.
DROPS_CONFIG_TEXT = """\
gamma1 = 0.25
eta = 0.25
p_values = 0.4, 0.6
rho_values = 1.0
n_values = 150
replicates = 8
master_seed = 5
"""

# gamma1 = 0.45: at rho = 2.5 every sample fails, by its threshold
# choice, its fit (rho * gamma1_hat >= 1) or the divergent exact premium.
FAILURES_CONFIG_TEXT = """\
gamma1 = 0.45
eta = 0.25
p_values = 0.4, 0.6
rho_values = 1.0, 2.5
n_values = 150, 500
replicates = 30
master_seed = 5
"""
FAILURES_STDERR = "".join(
    f"WARNING: {line}\n"
    for line in [
        "cell (p=0.4, rho=1, n=150): 23 of 30 replicates failed; "
        "reasons: no_admissible_k=23",
        "cell (p=0.4, rho=1, n=500): 20 of 30 replicates failed; "
        "reasons: no_admissible_k=20",
        "dropping cell: every replicate failed for cell (p=0.4, rho=2.5, n=150); "
        "reasons: no_admissible_k=23, heavy_tail=3, divergent_premium=4",
        "dropping cell: every replicate failed for cell (p=0.4, rho=2.5, n=500); "
        "reasons: no_admissible_k=20, heavy_tail=4, divergent_premium=6",
        "cell (p=0.6, rho=1, n=150): 21 of 30 replicates failed; "
        "reasons: no_admissible_k=21",
        "cell (p=0.6, rho=1, n=500): 18 of 30 replicates failed; "
        "reasons: no_admissible_k=18",
        "dropping cell: every replicate failed for cell (p=0.6, rho=2.5, n=150); "
        "reasons: no_admissible_k=21, heavy_tail=3, divergent_premium=6",
        "dropping cell: every replicate failed for cell (p=0.6, rho=2.5, n=500); "
        "reasons: no_admissible_k=18, heavy_tail=4, divergent_premium=8",
    ]
)

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


def _power_law(n, index):
    """``n`` distinct values ``((n + 1 - i) / (n + 1)) ** -index``, ascending."""
    return (((n + 1.0 - np.arange(1, n + 1)) / (n + 1.0)) ** -index).tolist()


# Claims files for the precedence table, by name.
PRECEDENCE_FILES = {
    # Every third record censored: the rule picks k = 2.
    "ordinary": lambda: list(
        zip(_power_law(200, 0.3), [0 if i % 3 == 2 else 1 for i in range(200)])
    ),
    # Every record censored: no admissible k, and every fit is all censored.
    "censored": lambda: list(zip(_power_law(40, 0.3), [0] * 40)),
    # Too small for the rule.
    "small": lambda: list(zip(_power_law(6, 0.3), [1] * 6)),
    # Two positive order statistics: too few for the rule, and a zero
    # threshold for the fit.
    "zeros": lambda: [(0.0, 1)] * 38 + [(2.0, 1), (3.0, 1)],
    # An index of 1.5: too heavy at rho = 1, and above the rule's cap.
    "heavy": lambda: list(zip(_power_law(100, 1.5), [1] * 100)),
    # The top 50 are 40% uncensored: at rho = 1 and k = 50 the printed
    # variance is positive, so an interval is reported.
    "interval": lambda: list(
        zip(_power_law(200, 0.05), [1] * 150 + [1, 1, 0, 0, 0] * 10)
    ),
    # The top 10 tied: the Hill estimate at k <= 9 is 0.
    "tied": lambda: list(zip(_power_law(30, 0.3)[:20] + [9.0] * 10, [1] * 30)),
}

# (file, flags, exit code, stdout, stderr) of ``estimate``, as the chain
# printed them before it ran as one kernel call: which check wins when
# several fail.  The rule's failures come first, then the settings' bounds,
# then the fit's failures, in the order of ``errors.REASONS``.
ESTIMATE_PRECEDENCE = [
    (
        "ordinary", "--rho 1.1 --auto-k", 0,
        "n 200\n"
        "k 2\n"
        "p_hat 1\n"
        "gamma_hill 0.225611609516\n"
        "gamma1_hat 0.225611609516\n"
        "retention 3.53038802082\n"
        "premium 0.0831774255246\n",
        "",
    ),
    (
        "ordinary", "--rho 1.1 --k 50", 0,
        "n 200\n"
        "k 50\n"
        "p_hat 0.68\n"
        "gamma_hill 0.288681088107\n"
        "gamma1_hat 0.424531011922\n"
        "retention 1.50899487366\n"
        "premium 0.573253631112\n",
        "",
    ),
    (
        "ordinary", "--rho 1 --auto-k --tau1 -0.25 --lambda1 0.5 --level 0.9", 0,
        "n 200\n"
        "k 2\n"
        "p_hat 1\n"
        "gamma_hill 0.225611609516\n"
        "gamma1_hat 0.225611609516\n"
        "retention 3.53038802082\n"
        "premium 0.05638021165\n",
        "warning: asymptotic variance is non-positive (-0.0566627547769); "
        "confidence interval omitted\n",
    ),
    (
        "ordinary", "--rho 1.1 --auto-k --retention 5", 0,
        "n 200\n"
        "k 2\n"
        "p_hat 1\n"
        "gamma_hill 0.225611609516\n"
        "gamma1_hat 0.225611609516\n"
        "retention 5\n"
        "premium 0.0289808652575\n",
        "",
    ),
    (
        "ordinary", "--rho 1.1 --k 50 --retention 2.5", 0,
        "n 200\n"
        "k 50\n"
        "p_hat 0.68\n"
        "gamma_hill 0.288681088107\n"
        "gamma1_hat 0.424531011922\n"
        "retention 2.5\n"
        "premium 0.322175268652\n",
        "",
    ),
    (
        "ordinary", "--rho 0.5 --auto-k", 3,
        "",
        "error: rho must be >= 1, got rho=0.5\n",
    ),
    (
        "ordinary", "--rho 1 --auto-k --retention inf", 3,
        "",
        "error: retention must be > 0, got retention=inf\n",
    ),
    (
        "ordinary", "--rho 1 --k 0", 3,
        "",
        "error: k must satisfy 1 <= k < n, got k=0 with n=200\n",
    ),
    (
        "ordinary", "--rho 1 --k 200", 3,
        "",
        "error: k must satisfy 1 <= k < n, got k=200 with n=200\n",
    ),
    (
        "ordinary", "--rho 1 --k 5 --retention inf", 3,
        "",
        "error: retention must be > 0, got retention=inf\n",
    ),
    (
        "ordinary", "--rho 1 --k 3 --retention 1e-300", 3,
        "",
        "error: premium overflows the float range: (R / h) ** (-1 / (rho * "
        "gamma1)) with R=1e-300, h=3.23848, rho * gamma1=0.355069\n",
    ),
    (
        "censored", "--rho nan --auto-k", 3,
        "",
        "error: no admissible k: every candidate window up to 20 contains an "
        "undefined or out-of-range corrected tail index\n",
    ),
    (
        "censored", "--rho 1 --auto-k --retention inf", 3,
        "",
        "error: no admissible k: every candidate window up to 20 contains an "
        "undefined or out-of-range corrected tail index\n",
    ),
    (
        "censored", "--rho 1 --k 5", 3,
        "",
        "error: all of the top k=5 observations are censored; the "
        "censoring-corrected tail index is undefined\n",
    ),
    (
        "censored", "--rho nan --k 5", 3,
        "",
        "error: rho must be >= 1, got rho=nan\n",
    ),
    (
        "small", "--rho 1 --auto-k", 3,
        "",
        "error: threshold selection needs n >= 10, got n=6\n",
    ),
    (
        "small", "--rho 0.5 --auto-k", 3,
        "",
        "error: threshold selection needs n >= 10, got n=6\n",
    ),
    (
        "small", "--rho 1 --k 3", 0,
        "n 6\n"
        "k 3\n"
        "p_hat 1\n"
        "gamma_hill 0.236712361413\n"
        "gamma1_hat 0.236712361413\n"
        "retention 1.18280026895\n"
        "premium 0.183406248568\n",
        "",
    ),
    (
        "zeros", "--rho 1 --auto-k", 3,
        "",
        "error: threshold selection needs at least 3 strictly positive order "
        "statistics, got 2\n",
    ),
    (
        "zeros", "--rho 1 --k 5", 3,
        "",
        "error: the k-th upper order statistic must be > 0, got 0\n",
    ),
    (
        "zeros", "--rho 0.5 --k 5", 3,
        "",
        "error: rho must be >= 1, got rho=0.5\n",
    ),
    (
        "heavy", "--rho 1 --k 20", 3,
        "",
        "error: estimated tail is too heavy for a finite premium: rho * "
        "gamma1 = 1.39161 >= 1 (gamma1=1.39161, rho=1)\n",
    ),
    (
        "heavy", "--rho 1 --auto-k", 3,
        "",
        "error: no admissible k: every candidate window up to 50 contains an "
        "undefined or out-of-range corrected tail index\n",
    ),
    (
        "tied", "--rho 1 --k 5", 3,
        "",
        "error: tail index estimate is not positive; the top k observations "
        "are degenerate\n",
    ),
    (
        "tied", "--rho 1 --auto-k", 3,
        "",
        "error: tail index estimate is not positive; the top k observations "
        "are degenerate\n",
    ),
    (
        "interval", "--rho 1 --k 50 --tau1 -0.25 --lambda1 0.5 --level 0.9", 0,
        "n 200\n"
        "k 50\n"
        "p_hat 0.4\n"
        "gamma_hill 0.0481135146844\n"
        "gamma1_hat 0.120283786711\n"
        "retention 1.07097983572\n"
        "premium 0.0366088257174\n"
        "ci_level 0.9\n"
        "ci_low 0.0268006050083\n"
        "ci_high 0.0400376418187\n",
        "",
    ),
    (
        "ordinary", "--rho inf --auto-k", 3,
        "",
        "error: rho must be >= 1, got rho=inf\n",
    ),
]


class TestEstimatePrecedence:
    @pytest.mark.parametrize(
        "name, flags, code, out, err",
        ESTIMATE_PRECEDENCE,
        ids=[f"{name} {flags}" for name, flags, *_ in ESTIMATE_PRECEDENCE],
    )
    def test_outcome_is_pinned(self, tmp_path, capsys, name, flags, code, out, err):
        path = write_claims(tmp_path / "c.csv", PRECEDENCE_FILES[name]())
        assert main(["estimate", path, *flags.split()]) == code
        assert capsys.readouterr() == (out, err)

    @pytest.mark.parametrize("flags, calls", [("--k 50", [50]), ("--auto-k", [12])])
    def test_tail_path_is_built_once(self, tmp_path, capsys, monkeypatch, flags, calls):
        # ``--k`` builds the path once, to k; ``--auto-k`` only in the rule,
        # whose path the fit reads at k*.
        from tailpremium import estimators as estimators_module
        from tailpremium import threshold as threshold_module

        real_path = estimators_module._tail_path
        k_maxes = []

        def counting_path(z_sorted, delta, k_max):
            k_maxes.append(k_max)
            return real_path(z_sorted, delta, k_max)

        monkeypatch.setattr(estimators_module, "_tail_path", counting_path)
        monkeypatch.setattr(threshold_module, "_tail_path", counting_path)
        path = write_claims(tmp_path / "c.csv", PRECEDENCE_FILES["ordinary"]())
        assert main(["estimate", path, "--rho", "1.1", *flags.split()]) == 0
        assert k_maxes == calls


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

    @pytest.mark.parametrize(
        "body",
        [
            pytest.param("random", id="random"),
            pytest.param("-0.0,1\n-0.0,0\n0.0,1\n-0.0,1\n2,1\n2,0\n3,1\n", id="signed-zero-runs"),
            pytest.param("1e-300,1\n2.5e-7,0\n1e15,1\n3e300,1\n", id="exponents"),
            pytest.param("1,1\n2,0\n", id="one-row"),
            pytest.param("4,1\n4,0\n", id="empty"),
        ],
    )
    def test_curve_bytes_equal_the_per_row_form(self, tmp_path, body):
        if body == "random":
            rng = np.random.default_rng(41)
            z = np.round(rng.pareto(1.5, 500), 2) * 10.0 ** rng.integers(-8, 9, 500)
            flags = rng.integers(0, 2, 500)
            body = "".join(f"{v!r},{d}\n" for v, d in zip(z.tolist(), flags.tolist()))
        path = tmp_path / "c.csv"
        path.write_text("z,delta\n" + body)
        out = tmp_path / "km.csv"
        assert main(["km", str(path), "--out", str(out)]) == 0
        sample = read_claims(str(path))
        x = np.unique(sample.z_sorted)[:-1] + 0.0
        survival = kaplan_meier_survival(sample, x)
        rows = zip(x.tolist(), survival.tolist())
        want = "x,survival\n" + "".join("%.12g,%.12g\n" % row for row in rows)
        assert out.read_bytes() == want.encode()

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
            (["--rho", "1", "--tau1=-inf", "--lambda1", "1"], "tau1 must be finite"),
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


def _package_env():
    """Environment in which a fresh process imports this checkout's package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _run_fresh(args):
    """``python <args>`` in a fresh process that imports this checkout."""
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=_package_env()
    )


# Entry-path runs: placeholders name the files of the ``entry_files`` fixture.
ENTRY_ARGV = {
    "estimate": ["estimate", "{claims}", "--rho", "1.1", "--auto-k", "--out", "{out}"],
    "estimate-interval": [
        "estimate", "{interval}", "--rho", "1", "--k", "50", *INTERVAL_FLAGS,
        "--out", "{out}",
    ],
    "km": ["km", "{claims}", "--out", "{out}"],
    "simulate-1": ["simulate", "{config}", "--out", "{out}"],
    "simulate-2": ["simulate", "{config}", "--out", "{out}", "--workers", "2"],
    "asymptotics": [
        "asymptotics", "--gamma1", "0.1", "--p", "0.4", "--rho", "1",
        "--tau1", "-0.25", "--lambda1", "1",
    ],
}


@pytest.fixture
def entry_files(tmp_path):
    rng = np.random.default_rng(21)
    z = (1.0 - rng.random(300)) ** -0.15
    claims = write_claims(
        tmp_path / "c.csv", [(float(v), i % 2) for i, v in enumerate(z)]
    )
    bad = tmp_path / "bad.csv"
    bad.write_text("z,censored\n1,1\n")
    return {
        "claims": claims,
        "interval": write_claims(tmp_path / "interval.csv", interval_rows()),
        # Every record uncensored: at rho = 1 the printed variance is not positive.
        "flat": write_claims(
            tmp_path / "flat.csv", [(v, 1) for v in np.geomspace(1.0, 50.0, 20).tolist()]
        ),
        "config": write_config(tmp_path / "study.cfg"),
        "bad": str(bad),
        "missing": str(tmp_path / "missing" / "out.csv"),
    }


def _entry_argv(template, files, out):
    return [arg.format(out=out, **files) for arg in template]


class TestEntryPath:
    """``python -m tailpremium.cli`` prints and writes what ``main()`` does."""

    @pytest.mark.parametrize("command", list(ENTRY_ARGV))
    def test_fresh_process_equals_main(
        self, tmp_path, capsys, entry_files, command
    ):
        entry_out, main_out = tmp_path / "entry.out", tmp_path / "main.out"
        argv = _entry_argv(ENTRY_ARGV[command], entry_files, str(entry_out))
        process = _run_fresh(["-m", "tailpremium.cli", *argv])
        assert process.returncode == 0, process.stderr
        argv = _entry_argv(ENTRY_ARGV[command], entry_files, str(main_out))
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert process.stdout == captured.out
        assert process.stderr == captured.err == ""
        assert entry_out.exists() == main_out.exists() == (command != "asymptotics")
        if main_out.exists():
            assert entry_out.read_bytes() == main_out.read_bytes()

    @pytest.mark.parametrize(
        "code, template, message",
        [
            (2, ["estimate", "{bad}", "--rho", "1", "--k", "2"], "bad.csv:1: expected"),
            (2, ["estimate", "{claims}", "--k", "2"], "required: --rho"),
            (3, ["estimate", "{claims}", "--rho", "1", "--k", "0"], "k must satisfy"),
            (4, ["km", "{claims}", "--out", "{missing}"], "No such file or directory"),
            (2, ["km", "{bad}", "--out", "{missing}"], "bad.csv:1: expected"),
            (
                3,
                ["asymptotics", "--gamma1", "0.1", "--p", "0.4", "--rho", "1.9",
                 "--lambda1", "1"],
                "vanishes",
            ),
        ],
    )
    def test_failure_exit_code_and_message(
        self, entry_files, code, template, message
    ):
        argv = _entry_argv(template, entry_files, "")
        process = _run_fresh(["-m", "tailpremium.cli", *argv])
        assert process.returncode == code
        assert process.stdout == ""
        assert message in process.stderr
        assert process.stderr.endswith("\n")

    @pytest.mark.parametrize(
        "argv",
        [
            # A non-positive variance: the interval is omitted with a
            # warning on stderr.
            ["estimate", "{flat}", "--rho", "1", "--k", "5", "--tau1", "0"],
            # A negative variance: the warning is part of the report.
            ["asymptotics", "--gamma1", "0.1", "--p", "0.8", "--rho", "1"],
        ],
    )
    def test_fresh_process_warns_like_main(self, capsys, entry_files, argv):
        argv = _entry_argv(argv, entry_files, "")
        process = _run_fresh(["-m", "tailpremium.cli", *argv])
        assert process.returncode == 0, process.stderr
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "warning" in captured.out + captured.err
        assert (process.stdout, process.stderr) == (captured.out, captured.err)

    def test_simulate_logs_dropped_replicates_on_stderr(self, tmp_path, caplog):
        # ``simulate`` configures logging itself, so the study's drop
        # warnings reach stderr as "LEVEL: message" lines.
        config = write_config(tmp_path / "drops.cfg", DROPS_CONFIG_TEXT)
        out = str(tmp_path / "rows.csv")
        process = _run_fresh(["-m", "tailpremium.cli", "simulate", config, "--out", out])
        assert process.returncode == 0, process.stderr
        with caplog.at_level(logging.WARNING, logger="tailpremium.study"):
            rows = run_study(read_study_config(config))
        assert process.stdout == ""
        assert process.stderr == "".join(
            f"{record.levelname}: {record.getMessage()}\n" for record in caplog.records
        )
        assert process.stderr.startswith("WARNING: cell (p=0.4, rho=1, n=150): ")
        assert sum(row.failure_count for row in rows) > 0

    def test_simulate_warnings_name_reasons_whatever_the_split(self, tmp_path):
        # Threshold (no_admissible_k), fit (heavy_tail) and exact-premium
        # (divergent_premium) failures: the warnings count them by reason
        # name, and their bytes do not depend on the worker count or on
        # the block budget (one replicate per block at 150 records).
        config = write_config(tmp_path / "fail.cfg", FAILURES_CONFIG_TEXT)
        run = (
            "import sys; from tailpremium import cli, study; "
            "study._BLOCK_RECORDS = int(sys.argv.pop(1)); cli.entrypoint()"
        )
        for budget in ("150", "50000"):
            for workers in ("1", "2", "3"):
                out = str(tmp_path / f"rows-{budget}-{workers}.csv")
                argv = ["simulate", config, "--out", out, "--workers", workers]
                process = _run_fresh(["-c", run, budget, *argv])
                assert process.returncode == 0, process.stderr
                assert process.stdout == ""
                assert process.stderr == FAILURES_STDERR, (budget, workers)

    def test_main_leaves_the_collector_alone(self, tmp_path, capsys, entry_files):
        before = (gc.get_freeze_count(), gc.isenabled())
        for template in ENTRY_ARGV.values():
            assert main(_entry_argv(template, entry_files, str(tmp_path / "o"))) == 0
            assert (gc.get_freeze_count(), gc.isenabled()) == before

    def test_entrypoint_freezes_the_collector_before_exit(
        self, tmp_path, entry_files
    ):
        # atexit handlers run before finalization and its collections.
        argv = ["tailpremium", *ENTRY_ARGV["km"]]
        argv = _entry_argv(argv, entry_files, str(tmp_path / "o"))
        probe = (
            "import atexit, gc, sys\n"
            "print('start', gc.get_freeze_count())\n"
            "atexit.register(lambda: print('exit', gc.get_freeze_count() > 0))\n"
            "from tailpremium.cli import entrypoint\n"
            f"sys.argv = {argv!r}\n"
            "entrypoint()"
        )
        process = _run_fresh(["-c", probe])
        assert process.returncode == 0, process.stderr
        assert process.stdout == "start 0\nexit True\n"


def _modules_after(probe, packages=("scipy",)):
    """The loaded modules of ``packages`` after ``probe`` runs in a fresh process."""
    probe += (
        "\nimport sys"
        "\nprint(sorted(m for m in sys.modules"
        f" if any(m == p or m.startswith(p + '.') for p in {packages!r})))"
    )
    process = _run_fresh(["-W", "error::RuntimeWarning", "-c", probe])
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


def test_claims_commands_leave_out_the_study_and_numpy_random(tmp_path):
    # The study's draws load numpy.random (15-20 ms), at its first block
    # and not at import; estimate and km need neither.
    assert _modules_after("import tailpremium.study", ("numpy.random",)) == "[]"
    path = write_claims(tmp_path / "c.csv", [(1.0 + i, i % 2) for i in range(300)])
    out = str(tmp_path / "km.csv")
    probe = (
        "from tailpremium.cli import main\n"
        f"assert main(['estimate', {path!r}, '--rho', '1.1', '--auto-k']) == 0\n"
        f"assert main(['km', {path!r}, '--out', {out!r}]) == 0"
    )
    assert _modules_after(probe, ("tailpremium.study", "numpy.random")) == "[]"


def _command_probe(files, out, command):
    """A fresh-process probe that imports the CLI and runs ``command``."""
    probe = "from tailpremium.cli import main"
    if command == "import":
        return probe
    argv = _entry_argv(ENTRY_ARGV[command], files, out)
    return f"{probe}\nassert main({argv!r}) == 0"


@pytest.mark.parametrize("command", ["estimate", "km", "simulate-1", "simulate-2"])
def test_commands_leave_out_numpy_ma(tmp_path, entry_files, command):
    # numpy's np.unique imports numpy.ma on its first call, which costs a
    # fresh process about 16 ms (median of 9 on 2 vCPUs); no command needs it.
    probe = _command_probe(entry_files, str(tmp_path / "out.csv"), command)
    assert _modules_after(probe, ("numpy.ma",)) == "[]"


@pytest.mark.parametrize(
    "command", ["import", "estimate", "km", "simulate-1", "simulate-2"]
)
def test_commands_leave_out_statistics_and_csv(tmp_path, entry_files, command):
    # Importing statistics costs every CLI start 5-7 ms and csv 1.4 ms; only
    # the confidence interval and the claims row loop need them.
    probe = _command_probe(entry_files, str(tmp_path / "out.csv"), command)
    assert _modules_after(probe, ("statistics", "csv")) == "[]"


def test_package_import_loads_no_submodule():
    # The package namespace resolves names on first use.
    assert _modules_after("import tailpremium", ("tailpremium",)) == "['tailpremium']"


def test_cli_import_loads_only_its_own_modules():
    # Each command imports its modules when it runs.
    loaded = _modules_after("import tailpremium.cli", ("tailpremium",))
    assert loaded == str(
        ["tailpremium", "tailpremium.cli", "tailpremium.errors", "tailpremium.samples"]
    )


@pytest.mark.parametrize(
    "command, loaded",
    [
        ("estimate", []),
        ("km", []),
        ("estimate-interval", ["tailpremium.asymptotics"]),
    ],
)
def test_claims_commands_leave_out_the_study(tmp_path, entry_files, command, loaded):
    # The study, the models and logging cost a fresh process about 20 ms
    # to compile and run; the claims commands use none of them, and only
    # the interval needs the asymptotics.  (pickle is no test: numpy
    # imports it.)
    packages = (
        "tailpremium.study", "tailpremium.models", "tailpremium.asymptotics", "logging",
    )
    probe = _command_probe(entry_files, str(tmp_path / "out.csv"), command)
    assert _modules_after(probe, packages) == str(loaded)
