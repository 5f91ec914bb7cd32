import json
import re
import warnings

import pytest

from support_limits import bounds, cli, numerics, sim, verify
from support_limits import model as md
from support_limits.numerics import NonConvergenceError


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRanges:
    def test_parse(self):
        assert cli.parse_range("0.05:0.95:0.05") == pytest.approx(
            [0.05 * i for i in range(1, 20)]
        )
        assert cli.parse_range("2:2:1") == [2.0]

    def test_malformed(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_range("5:1:1")
        with pytest.raises(cli.ConfigError):
            cli.parse_range("1:2:0")
        with pytest.raises(cli.ConfigError):
            cli.parse_range("a:b:c")

    def test_point_count_capped_before_the_list_is_built(self):
        assert len(cli.parse_range(f"1:{cli.MAX_RANGE_POINTS}:1")) == cli.MAX_RANGE_POINTS
        with pytest.raises(cli.ConfigError, match="more than"):
            cli.parse_range(f"0:{cli.MAX_RANGE_POINTS}:1")
        # 1e11 points: building the list exhausts memory
        with pytest.raises(cli.ConfigError, match="100000000001 points"):
            cli.parse_range("0.1:0.2:1e-12")
        # (stop - start) / step overflows: the count is not finite
        with pytest.raises(cli.ConfigError, match="beyond the float range"):
            cli.parse_range("0.1:1e308:1e-300")


class TestThresholdCommand:
    def test_small_alpha_star_refusal_names_alpha_star(self, capsys):
        # g(alpha) is of order alpha^3 near 0: at -16 dB alpha* = 1e-4 resolves
        # and 1e-5 does not, so the SNR alone is not the cause
        code, out, err = run(capsys, "threshold", "--figure", "partial-recovery",
                             "--snr-db=-16:-16:1", "--alpha-star", "1e-5")
        assert (code, out) == (3, "")
        assert err == (
            "numerical non-convergence: the partial-recovery denominator is 0 at "
            "alpha=2.72208e-05, c_beta=0.0251189: the SNR is too low, or alpha* too small, "
            "for the quadrature to resolve\n"
        )
        assert run(capsys, "threshold", "--figure", "partial-recovery", "--snr-db=-16:-16:1",
                   "--alpha-star", "1e-4")[0] == 0

    def test_gt_noiseless_rows(self, capsys):
        code, out, _ = run(
            capsys, "threshold", "--figure", "gt-noiseless", "--theta", "0.05:0.95:0.05"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "figure,x,curve,y"
        rows = [l.split(",") for l in lines[1:]]
        assert len({r[1] for r in rows}) == 19
        for _, x, curve, y in rows:
            if curve == "ach-rate-log2" and float(x) <= 1 / 3 + 1e-9:
                assert float(y) == pytest.approx(1.0, abs=1e-9)
            if curve == "conv-rate-log2":
                assert float(y) == pytest.approx(1.0, abs=1e-12)

    def test_partial_recovery_grid_shape(self, capsys):
        code, out, _ = run(
            capsys,
            "threshold",
            "--figure",
            "partial-recovery",
            "--snr-db=-20:50:10",
            "--alpha-star",
            "0.1",
            "--grid-points",
            "301",
        )
        assert code == 0
        lines = out.strip().splitlines()[1:]
        assert len(lines) == 8 * 4  # 8 SNR points x 4 curves
        curves = {l.split(",")[2] for l in lines}
        assert curves == {
            "linear-ach-coef-nats",
            "linear-conv-coef-nats",
            "1bit-ach-coef-nats",
            "1bit-conv-coef-nats",
        }

    @pytest.mark.parametrize(
        "flag,value,message",
        [("--grid-points", "1", "grid_points must be at least 2, got 1"),
         ("--alpha-star", "1.5", "alpha_star must lie in [0, 1], got 1.5"),
         ("--alpha-star", "0",
          "alpha_star must be > 0: both coefficients are infinite at alpha_star = 0"),
         # a sigma that is not finite is named, not the SNR
         ("--sigma", "nan", "sigma must be > 0 and finite, got nan"),
         ("--sigma", "inf", "sigma must be > 0 and finite, got inf")],
    )
    def test_partial_recovery_degenerate_grid_named(self, capsys, flag, value, message):
        code, out, err = run(
            capsys, "threshold", "--figure", "partial-recovery", "--snr-db=0:0:1", flag, value
        )
        assert (code, out, err) == (2, "", f"configuration error: {message}\n")

    def test_malformed_range_exits_2(self, capsys):
        code, _, err = run(capsys, "threshold", "--figure", "gt-noiseless", "--theta", "5:1:1")
        assert code == 2
        assert "configuration error" in err

    def test_verbose_paths(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "threshold", "--figure", "gt-noiseless", "--theta", "0.1:0.2:0.1",
            "--verbose", "--output", str(tmp_path / "a.csv"),
        )
        assert code == 0
        assert out.splitlines() == [
            "theta=0.1 ach-rate-log2 rate=1.000000 nu*=0.693147",
            "theta=0.1 conv-rate-log2 rate=1.000000 nu*=0.693147",
            "theta=0.2 ach-rate-log2 rate=1.000000 nu*=0.693147",
            "theta=0.2 conv-rate-log2 rate=1.000000 nu*=0.693147",
        ]
        code, out, _ = run(
            capsys, "threshold", "--figure", "gt-noisy", "--theta", "0.1:0.2:0.1",
            "--rho", "0.05,0.11", "--verbose", "--output", str(tmp_path / "b.csv"),
        )
        assert code == 0
        assert out.splitlines() == [  # theta-major, as figure_curves is not
            "theta=0.1 rho=0.05 delta2*=0.512646",
            "theta=0.1 rho=0.11 delta2*=0.475177",
            "theta=0.2 rho=0.05 delta2*=0.591406",
            "theta=0.2 rho=0.11 delta2*=0.552261",
        ]
        code, out, _ = run(
            capsys, "threshold", "--figure", "partial-recovery", "--snr-db", "0:0:1",
            "--grid-points", "201", "--verbose", "--output", str(tmp_path / "c.csv"),
        )
        assert code == 0
        assert out.splitlines() == ["snr=0 linear alpha*=0.1000/0.1497 1bit alpha*=0.1000/0.1497"]

    def test_nearby_rhos_keep_their_own_labels(self, capsys, tmp_path):
        out_file = tmp_path / "rho.csv"
        code, _, _ = run(
            capsys, "threshold", "--figure", "gt-noisy", "--theta", "0.2:0.2:0.1",
            "--rho", "0.11,0.1100001", "--output", str(out_file),
        )
        assert code == 0
        rows = [line.split(",") for line in out_file.read_text().splitlines()[1:]]
        assert [curve for _, _, curve, _ in rows] == [
            "ach-rate-log2 rho=0.11", "ach-rate-log2 rho=0.1100001",
            "conv-rate-log2 rho=0.11", "conv-rate-log2 rho=0.1100001",
        ]
        assert rows[0][3] != rows[1][3]

    def test_rho_refusal_names_the_value(self, capsys):
        code, out, err = run(capsys, "threshold", "--figure", "gt-noisy", "--rho", "0.11,0.6")
        assert (code, out) == (2, "")
        assert err == "configuration error: rho must lie in (0, 0.5), got 0.6\n"

    @pytest.mark.parametrize("verbose", [[], ["--verbose"]])
    def test_one_corollary_call_per_curve_family(self, capsys, monkeypatch, tmp_path, verbose):
        # --verbose reads its optimizers from the calls behind the rows; the
        # partial-recovery figure runs both channels' lanes through one
        # bisection and one golden-section pass
        calls = {}
        for name in ("cor_gt_noiseless", "cor_gt_noisy", "_bisect_argmax", "_golden_lanes"):
            def counted(*args, _name=name, _real=getattr(bounds, name), **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(bounds, name, counted)
        for argv, expected in (
            (["gt-noiseless", "--theta", "0.1:0.2:0.1"],
             {"cor_gt_noiseless": 1, "_golden_lanes": 1}),
            (["gt-noisy", "--theta", "0.1:0.2:0.1", "--rho", "0.05,0.11"],
             {"cor_gt_noisy": 2, "_golden_lanes": 2}),
            (["partial-recovery", "--snr-db", "0:10:5", "--grid-points", "21"],
             {"_bisect_argmax": 1, "_golden_lanes": 1}),
        ):
            calls.clear()
            code, _, _ = run(capsys, "threshold", "--figure", *argv, *verbose,
                             "--output", str(tmp_path / "fig.csv"))
            assert (code, calls) == (0, expected)

    def test_json_format(self, capsys, tmp_path):
        out_file = tmp_path / "rows.json"
        code, _, _ = run(
            capsys,
            "threshold",
            "--figure",
            "gt-noisy",
            "--theta",
            "0.05:0.15:0.05",
            "--rho",
            "0.11",
            "--format",
            "json",
            "--output",
            str(out_file),
        )
        assert code == 0
        records = [json.loads(l) for l in out_file.read_text().splitlines()]
        assert all(set(r) == {"figure", "x", "curve", "y"} for r in records)

    def test_nonconvergence_exits_3(self, capsys, monkeypatch):
        from support_limits import bounds

        def boom(*a, **k):
            raise NonConvergenceError("induced")

        monkeypatch.setattr(bounds, "figure_curves", boom)
        code, _, err = run(capsys, "threshold", "--figure", "gt-noiseless", "--theta", "0.1:0.2:0.1")
        assert code == 3
        assert "non-convergence" in err


class TestSimulateCommand:
    def test_deterministic_output(self, capsys):
        argv = [
            "simulate", "--p", "10", "--k", "2", "--model", "gt", "--decoder", "ml",
            "--n-grid", "2:10:4", "--trials", "50", "--seed", "7",
        ]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        header = out1.splitlines()[0]
        assert header == "n,trials,errors_exact,errors_partial,pe_hat,ci_lo,ci_hi,seed"

    def test_default_seed_printed(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--p", "8", "--k", "2", "--model", "gt",
            "--decoder", "comp", "--n-grid", "2:4:2", "--trials", "10",
        )
        assert code == 0
        assert "default seed" in err

    def test_seed_range(self, capsys, tmp_path):
        argv = ["simulate", "--p", "8", "--k", "2", "--n-grid", "6:6:1", "--trials", "40"]
        for seed in ("-1", str(2**63)):
            code, out, err = run(capsys, *argv, "--seed", seed)
            assert (code, out) == (2, "") and "--seed" in err
        # a config file's seed is not parsed by argparse: "7" still runs as 7
        cfg = tmp_path / "run.json"
        expected = {"7": (0, run(capsys, *argv, "--seed", "7")[1], 0), "-1": (2, "", 1),
                    "x": (2, "", 1)}
        for seed, (code, stdout, err_lines) in expected.items():
            cfg.write_text(json.dumps({"seed": seed}))
            got, out, err = run(capsys, *argv, "--config", str(cfg))
            assert (got, out, len(err.splitlines())) == (code, stdout, err_lines)
        # the ends of the range keep their own streams: 16 and 15 errors
        counts = [
            run(capsys, *argv, "--seed", seed)[1].splitlines()[1].split(",")[2]
            for seed in ("0", str(2**63 - 1))
        ]
        assert counts == ["16", "15"]

    def test_guard_exits_4(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--p", "60", "--k", "12", "--model", "gt",
            "--decoder", "ml", "--n-grid", "2:4:2", "--trials", "5", "--seed", "1",
        )
        assert code == 4
        assert "guard" in err

    def test_threshold_decoder_below_twice_k(self, capsys):
        # k < p < 2k: no wrong support lies at distance 2 or 3
        code, out, err = run(
            capsys, "simulate", "--model", "gt", "--p", "4", "--k", "3",
            "--decoder", "threshold", "--n-grid", "5:6:1", "--trials", "3", "--seed", "1",
        )
        assert (code, err) == (0, "")
        assert [row.split(",")[:2] for row in out.splitlines()[1:]] == [["5", "3"], ["6", "3"]]

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"p": 8, "k": 2, "model": "linear", "b": "1,-2",
                                   "decoder": "ml", "n_grid": "2:6:2", "trials": 20,
                                   "seed": 3}))
        code, out, _ = run(capsys, "simulate", "--config", str(cfg), "--p", "10")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4  # header + 3 grid points
        assert {line.split(",")[1] for line in lines[1:]} == {"20"}  # trials from the file
        flags = ["simulate", "--p", "10", "--k", "2", "--model", "linear", "--b", "1,-2",
                 "--n-grid", "2:6:2", "--trials", "20", "--seed", "3"]
        assert out == run(capsys, *flags)[1]  # so is the linear model
        # an explicit flag wins, also where it equals its default
        code, out, _ = run(capsys, "simulate", "--config", str(cfg), "--trials", "500",
                           "--model", "gt", "--decoder", "comp", "--n-grid", "4:4:1")
        assert code == 0
        assert out.splitlines()[1].split(",")[:2] == ["4", "500"]
        assert out == run(capsys, "simulate", "--p", "8", "--k", "2", "--decoder", "comp",
                          "--n-grid", "4:4:1", "--seed", "3")[1]

    def test_config_values_converted_like_flags(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        flags = ["threshold", "--figure", "gt-noisy", "--theta", "0.2:0.3:0.1", "--rho", "0.11"]
        # false and null leave an option at its default: the CSV goes to stdout
        cfg.write_text(json.dumps({"theta": "0.2:0.3:0.1", "rho": 0.11, "verbose": False,
                                   "output": None}))
        code, out, _ = run(capsys, "threshold", "--figure", "gt-noisy", "--config", str(cfg))
        assert code == 0 and out == run(capsys, *flags)[1]
        cfg.write_text(json.dumps({"theta": "0.2:0.3:0.1", "verbose": True}))
        code, out, _ = run(capsys, "threshold", "--figure", "gt-noiseless", "--config", str(cfg))
        assert code == 0 and out == run(capsys, "threshold", "--figure", "gt-noiseless",
                                        "--theta", "0.2:0.3:0.1", "--verbose")[1]
        argv = ["simulate", "--p", "8", "--k", "2", "--n-grid", "4:4:1", "--trials", "30"]
        cfg.write_text(json.dumps({"seed": None, "b": None}))
        assert run(capsys, *argv, "--config", str(cfg)) == run(capsys, *argv)
        bad = [({"trials": "many"}, "argument --trials: invalid int value: 'many'"),
               ({"trials": 2.5}, "argument --trials: invalid int value: '2.5'"),
               ({"trials": True}, "argument --trials: expected one argument"),
               ({"model": "quantum"}, "argument --model: invalid choice: 'quantum'"),
               ({"func": "x"}, "unrecognized arguments: --func=x"),
               ({"verbose": 1}, "unrecognized arguments: --verbose=1"),
               ([1, 2], "must hold a JSON object")]
        for content, message in bad:
            cfg.write_text(json.dumps(content))
            code, out, err = run(capsys, *argv, "--seed", "1", "--config", str(cfg))
            assert (code, out) == (2, "") and message in err and len(err.splitlines()) == 1
        cfg.write_text(json.dumps({"verbose": 1}))
        code, _, err = run(capsys, "threshold", "--figure", "gt-noiseless", "--config", str(cfg))
        assert code == 2 and "argument --verbose: ignored explicit argument '1'" in err

    def test_comp_on_linear_refused_in_one_line(self, capsys):
        code, out, err = run(capsys, "simulate", "--model", "linear", "--decoder", "comp",
                             "--b", "1,2", "--k", "2", "--p", "5", "--n-grid", "10:10:1",
                             "--seed", "1")
        assert (code, out) == (2, "")
        assert err == "configuration error: comp-gt requires the group-testing model\n"

    def test_threshold_with_gaussian_prior_refused_with_the_library_message(self, capsys):
        # run_cell refuses the pairing before sampling; the CLI prints its message
        args = ("--model", "linear", "--prior", "gaussian", "--p", "6", "--k", "2")
        code, out, err = run(capsys, "simulate", *args, "--decoder", "threshold",
                             "--n-grid", "4:4:1", "--seed", "1")
        assert (code, out) == (2, "")
        with pytest.raises(ValueError) as refused:
            sim.run_cell(md.ModelSpec.linear(1.0), md.SignalPrior.iid_gaussian(1.0),
                         md.ProblemDims(p=6, k=2, n=4), sim.DecoderSpec(kind="threshold"), 1, 1)
        assert err == f"configuration error: {refused.value}\n"

    def test_linear_model_with_b(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--p", "8", "--k", "2", "--model", "linear",
            "--b", "1.0,-2.0", "--decoder", "ml", "--n-grid", "4:8:4",
            "--trials", "20", "--seed", "5",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    def test_overflowing_residuals_warn_nothing(self, capsys):
        # b = 1e300 squares past the float range: those candidates score -inf
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(
                capsys, "simulate", "--p", "6", "--k", "2", "--model", "linear",
                "--b", "1,1e300", "--decoder", "ml", "--n-grid", "4:4:1",
                "--trials", "3", "--seed", "1",
            )
        assert (code, err, caught) == (0, "", [])
        assert len(out.strip().splitlines()) == 2


class TestVerifyCommand:
    def test_suite_size_contract(self):
        from support_limits import verify

        assert len(verify.available_checks()) >= 25

    def test_single_check(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "g-endpoints")
        assert code == 0
        assert "1/1 checks passed" in out

    def test_perturbation_canary_exits_1(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "gt-mi-enumeration", "--perturb", "1e-3")
        assert code == 1
        assert "FAIL" in out
        # and the perturbation is reset afterwards
        assert numerics.binary_entropy(0.5) == numerics.LOG2
        code2, _, _ = run(capsys, "verify", "--only", "gt-mi-enumeration")
        assert code2 == 0

    def test_negative_exponent_is_a_value(self, capsys):
        # argparse alone reads "-1e-3" as an option, and exits 2 with usage
        split = run(capsys, "verify", "--perturb", "-1e-3", "--only", "gt-mi-enumeration")
        joined = run(capsys, "verify", "--perturb=-1e-3", "--only", "gt-mi-enumeration")
        measured = [re.search(r"measured=\S+", out).group() for _, out, _ in (split, joined)]
        assert split[0] == joined[0] == 1 and "FAIL" in split[1]
        assert measured[0] == measured[1] == "measured=6.929e-04"

    def test_unknown_check_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "--only", "no-such-check")
        assert code == 2

    def test_report_written(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        code, _, _ = run(capsys, "verify", "--only", "q-symmetry", "--output", str(report))
        assert code == 0
        blob = json.loads(report.read_text())
        assert blob[0]["name"] == "q-symmetry" and blob[0]["passed"] is True

    def test_non_finite_numbers_become_null(self):
        from support_limits import verify

        record = verify.CheckResult("x", False, float("inf"), float("nan")).to_dict()
        assert record["measured"] is None and record["tolerance"] is None


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


# (argv, exit code, stderr lines); "{tmp}" is replaced by a temporary directory
BAD_INPUTS = [
    (["simulate", "--p", "8", "--k", "2", "--n-grid", "2:4:2", "--trials", "0"], 2, 1),
    (["simulate", "--p", "8", "--k", "2", "--n-grid", "2:4:2", "--trials", "-3"], 2, 1),
    (["simulate", "--p", "8", "--k", "2", "--n-grid", "4:2:1", "--seed", "1"], 2, 1),
    (["verify", "--only", "no-such-check"], 2, 1),
    (["simulate", "--p", "60", "--k", "12", "--n-grid", "2:4:2", "--seed", "1"], 4, 1),
    (["verify", "--only", "q-tail-value", "--output", "{tmp}/r.json"], 0, 0),
    (["threshold", "--figure", "partial-recovery", "--snr-db=0:0:1", "--grid-points", "0"], 2, 1),
    (["threshold", "--figure", "partial-recovery", "--snr-db=0:0:1", "--grid-points", "1"], 2, 1),
    (["threshold", "--figure", "partial-recovery", "--snr-db=0:0:1", "--alpha-star", "1.5"], 2, 1),
    (["threshold", "--figure", "partial-recovery", "--snr-db=-30:-30:1", "--grid-points", "21",
      "--alpha-star", "0"], 2, 1),
    (["threshold", "--figure", "partial-recovery", "--snr-db=4000:4000:1"], 2, 1),
    # c_beta underflows to 0, or sigma is not positive
    (["threshold", "--figure", "partial-recovery", "--snr-db=-4000:-4000:1"], 2, 1),
    (["threshold", "--figure", "partial-recovery", "--snr-db=0:0:1", "--sigma", "0"], 2, 1),
    (["threshold", "--figure", "partial-recovery", "--snr-db=0:0:1", "--sigma=-1"], 2, 1),
    # Psi's difference cancels to 0.0: no refinement step can divide by it
    (["threshold", "--figure", "partial-recovery", "--snr-db=-140:-140:1"], 3, 1),
    (["threshold", "--figure", "partial-recovery", "--snr-db=-300:-300:1"], 3, 1),
    (["simulate", "--model", "linear", "--prior", "gaussian", "--decoder", "threshold",
      "--p", "6", "--k", "2", "--n-grid", "4:4:1", "--seed", "1"], 2, 1),
    (["simulate", "--model", "one-bit", "--prior", "gaussian",
      "--p", "6", "--k", "2", "--n-grid", "4:4:1", "--seed", "1"], 2, 1),
    (["simulate", "--model", "linear", "--prior", "gaussian", "--b", "1,2",
      "--p", "6", "--k", "2", "--n-grid", "4:4:1", "--seed", "1"], 2, 1),
    # no entries for a linear model, and a --b whose length is not k
    (["simulate", "--model", "linear", "--p", "6", "--k", "2", "--n-grid", "4:4:1",
      "--seed", "1"], 2, 1),
    (["simulate", "--model", "linear", "--b", "1,2,3", "--p", "6", "--k", "2",
      "--n-grid", "4:4:1", "--seed", "1"], 2, 1),
] + [
    # the Gaussian evidence refuses a covariance it cannot tell from singular
    (["simulate", "--model", "linear", "--prior", "gaussian", "--p", "6", "--k", "2",
      "--n-grid", "4:4:1", "--trials", "3", "--seed", "1", flag, value], code, lines)
    for flag, value, code, lines in (
        ("--sigma", "1e-300", 2, 1),
        ("--sigma", "1e-160", 2, 1),
        ("--sigma-beta-sq", "1e20", 2, 1),
        ("--sigma-beta-sq", "1e300", 2, 1),
        ("--sigma-beta-sq", "1e12", 0, 0),
    )
] + [
    # a seed outside [0, 2^63) used to alias an in-range one
    (["simulate", "--p", "8", "--k", "2", "--n-grid", "6:6:1", "--trials", "4", "--seed", seed],
     2, 1)
    for seed in ("-1", str(2**63), str(2**64))
] + [
    # a noise std whose square overflows or underflows
    (["simulate", "--model", "linear", "--p", "6", "--k", "2", "--n-grid", "4:4:1",
      "--trials", "3", "--seed", "1", "--sigma", sigma, *prior], 2, 1)
    for sigma in ("1e200", "1e160", "1e-200")
    for prior in (("--b", "1,2"), ("--prior", "gaussian"))
] + [
    (["simulate", "--model", "one-bit", "--decoder", "threshold", "--b", "1,2", "--p", "6",
      "--k", "2", "--n-grid", "4:4:1", "--trials", "3", "--seed", "1", "--sigma", "1e200"], 2, 1),
] + [
    # a non-finite range: inf used to overflow the point count, NaN to fail
    # its int conversion with a message that named no flag
    (["threshold", "--figure", "gt-noiseless", f"--theta={theta}"], 2, 1)
    for theta in ("0.1:inf:0.1", "nan:nan:0.1", "0.1:0.5:nan", "-inf:0.5:0.1")
] + [
    (["simulate", "--p", "8", "--k", "2", "--n-grid", "1:nan:1", "--trials", "4", "--seed", "1"],
     2, 1),
] + [
    # delta1 outside (0, 1]: 0 divided by zero in the thresholds, NaN failed
    # every trial silently
    (["simulate", "--p", "8", "--k", "2", "--n-grid", "6:6:1", "--trials", "4", "--seed", "1",
      "--decoder", "threshold", "--delta1", delta1], 2, 1)
    for delta1 in ("0", "nan", "5", "-0.1", "inf")
] + [
    # prior entries must be finite and non-zero: NaN failed every trial silently
    (["simulate", "--model", "linear", f"--b={b}", "--p", "6", "--k", "2", "--n-grid", "4:4:1",
      "--trials", "3", "--seed", "1", "--decoder", "ml"], 2, 1)
    for b in ("nan,1", "0,1", "1,inf", "-inf,1")
] + [
    (["simulate", "--model", "linear", "--prior", "gaussian", "--p", "6", "--k", "2",
      "--n-grid", "4:4:1", "--trials", "3", "--seed", "1", "--sigma-beta-sq", value], 2, 1)
    for value in ("inf", "nan")
] + [
    # a non-integer n-grid ran n = 0, 0, 1, 1, 2 with duplicate rows
    (["simulate", "--p", "8", "--k", "2", "--n-grid", "0:2:0.5", "--trials", "4", "--seed", "1"],
     2, 1),
    # a range whose point count overflows (OverflowError) or is too large
    (["threshold", "--figure", "gt-noiseless", "--theta", "0.1:1e308:1e-300"], 2, 1),
    (["threshold", "--figure", "gt-noiseless", "--theta", "0.1:0.2:1e-12"], 2, 1),
    # a negative number in exponent form is a value, refused by the model
    (["simulate", "--model", "linear", "--b", "1,2", "--p", "6", "--k", "2", "--n-grid", "4:4:1",
      "--seed", "1", "--sigma", "-1e-3"], 2, 1),
] + [
    # a non-finite perturbation: NaN passed the canary, inf warned from numpy
    (["verify", "--only", "gt-mi-enumeration", f"--perturb={eps}"], 2, 1)
    for eps in ("nan", "inf", "-inf")
] + [
    # more grid points than MAX_RANGE_POINTS: refused before numpy is asked for the array
    (["threshold", "--figure", "partial-recovery", "--snr-db=0:0:1", "--grid-points",
      "10000000000000"], 2, 1),
    # a 10^12 x 10 design: refused before sampling, where numpy failed to allocate it
    (["simulate", "--p", "10", "--k", "2", "--n-grid", "1000000000000:1000000000000:1",
      "--trials", "1", "--seed", "1"], 4, 1),
    # log 2 - H2(rho) rounds to 0, or below it, near rho = 0.5
    (["threshold", "--figure", "gt-noisy", "--theta", "0.1:0.1:0.1", "--rho", "0.4999999999"], 2, 1),
    (["threshold", "--figure", "gt-noisy", "--theta", "0.1:0.1:0.1",
      "--rho", "0.4999999939535565"], 2, 1),
    # entries whose squares sum past the float range: the threshold decoder's
    # marginal variance was inf, its statistics NaN and every trial an error
    (["simulate", "--model", "linear", "--b", "1e200,1", "--p", "4", "--k", "2", "--n-grid",
      "3:3:1", "--trials", "20", "--seed", "1", "--decoder", "threshold"], 2, 1),
    # near alpha = 0 g(alpha) is of order alpha^3: a small alpha* leaves Psi 0
    # at an SNR where alpha* = 1e-4 resolves
    (["threshold", "--figure", "partial-recovery", "--snr-db=-16:-16:1", "--alpha-star", "1e-5"],
     3, 1),
]


@pytest.mark.parametrize(
    "flag,value,argv",
    [("--rho", "0.11,abc", ["threshold", "--figure", "gt-noisy"]),
     ("--rho", "0.11,", ["threshold", "--figure", "gt-noisy"]),
     ("--b", "1,abc", ["simulate", "--model", "linear", "--p", "6", "--k", "2",
                       "--n-grid", "4:4:1", "--seed", "1"])],
)
def test_comma_list_flag_named(capsys, flag, value, argv):
    code, out, err = run(capsys, *argv, flag, value)
    assert (code, out) == (2, "")
    assert err == f"configuration error: {flag} must be comma-separated numbers, got {value!r}\n"


@pytest.mark.parametrize("argv,code,err_lines", BAD_INPUTS)
def test_bad_input_exit_codes(capsys, tmp_path, argv, code, err_lines):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    got, _, err = run(capsys, *argv)
    assert got == code
    assert len(err.splitlines()) == err_lines
    assert "Traceback" not in err
    if "--output" in argv:
        report = json.loads((tmp_path / "r.json").read_text(), parse_constant=_reject_constant)
        assert report[0]["passed"] is True
        assert isinstance(report[0]["measured"], float)


# an --output or --config path that names a directory cannot be opened as a
# file: a configuration error (exit 2), not a failed verification check (1)
DIRECTORY_PATHS = [
    ["threshold", "--figure", "gt-noiseless", "--theta", "0.1:0.2:0.1", "--output", "{tmp}"],
    ["simulate", "--p", "8", "--k", "2", "--n-grid", "2:4:2", "--trials", "2", "--seed", "1",
     "--output", "{tmp}"],
    ["verify", "--only", "q-symmetry", "--output", "{tmp}"],
    ["threshold", "--figure", "gt-noiseless", "--theta", "0.1:0.2:0.1", "--config", "{tmp}"],
]


@pytest.mark.parametrize("argv", DIRECTORY_PATHS)
def test_directory_path_exits_2(capsys, tmp_path, argv):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    got, _, err = run(capsys, *argv)
    assert got == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("configuration error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", DIRECTORY_PATHS[:3])
def test_unwritable_output_refused_before_work(capsys, monkeypatch, tmp_path, argv):
    # the output path is checked before the command computes anything: no
    # PASS line, no sweep, no figure
    def work(*args, **kwargs):
        raise AssertionError("the command ran before its output path was checked")

    for owner, name in ((verify, "run_checks"), (sim, "phase_sweep"), (bounds, "figure_curves")):
        monkeypatch.setattr(owner, name, work)
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    got, out, err = run(capsys, *argv)
    assert (got, out) == (2, "")
    assert err == f"configuration error: [Errno 21] Is a directory: '{tmp_path}'\n"


def test_output_check_leaves_no_file_behind(capsys, tmp_path):
    target = tmp_path / "fig.csv"
    # the figure's c_beta is refused after the output check: no file is created
    got, _, _ = run(capsys, "threshold", "--figure", "partial-recovery", "--snr-db=4000:4000:1",
                    "--output", str(target))
    assert got == 2 and not target.exists()
    # an existing file is only replaced when the command succeeds
    target.write_text("kept")
    got, _, _ = run(capsys, "threshold", "--figure", "partial-recovery", "--snr-db=4000:4000:1",
                    "--output", str(target))
    assert got == 2 and target.read_text() == "kept"
    got, _, _ = run(capsys, "threshold", "--figure", "gt-noiseless", "--theta", "0.1:0.2:0.1",
                    "--output", str(target))
    assert got == 0 and target.read_text().startswith("figure,x,curve,y")


def test_parser_built_once_per_class(capsys, monkeypatch, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"p": 8, "k": 2, "n_grid": "4:4:1", "trials": 30, "seed": 2}))
    runs = [
        ["threshold", "--figure", "gt-noiseless", "--theta", "0.1:0.3:0.1"],
        ["simulate", "--p", "8", "--k", "2", "--decoder", "comp", "--n-grid", "4:6:2",
         "--trials", "20", "--seed", "1"],
        ["simulate", "--config", str(cfg), "--trials", "40"],
    ]
    alone = []
    for argv in runs:
        cli.build_parser.cache_clear()
        alone.append(run(capsys, *argv)[:2])
    assert [code for code, _ in alone] == [0, 0, 0]
    assert alone[2][1].splitlines()[1].split(",")[:2] == ["4", "40"]  # the flag wins

    built, init = [], cli._Parser.__init__

    def spy(self, *args, **kwargs):
        if kwargs.get("prog") == "support-limits":  # not a subcommand's parser
            built.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", spy)
    cli.build_parser.cache_clear()
    assert [run(capsys, *argv)[:2] for argv in runs] == alone
    assert built == [cli._Parser, cli._ConfigParser]
