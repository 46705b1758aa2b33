import json
import os

import numpy as np
import pytest

from diffvar import diffseq, simlab
from diffvar.cli import main


def write_sample_csv(path, n=400, seed=0):
    scenario = simlab.smooth_scenario(n)
    sample = simlab.generate_sample(scenario, seed)
    lines = ["x,y"] + [f"{float(x)!r},{float(y)!r}"
                       for x, y in zip(sample.xs, sample.ys)]
    path.write_text("\n".join(lines) + "\n")
    return sample


class TestEstimate:
    def test_happy_path_fixed_bandwidth(self, tmp_path):
        inp = tmp_path / "data.csv"
        out = tmp_path / "curve.csv"
        write_sample_csv(inp)
        code = main([
            "estimate", "--input", str(inp), "--output", str(out),
            "--bandwidth", "0.2",
        ])
        assert code == 0
        assert out.exists()
        sidecar = tmp_path / "curve.json"
        assert sidecar.exists()
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "x,vhat"
        assert len(rows) == 102
        meta = json.loads(sidecar.read_text())
        assert meta["bandwidth"] == 0.2
        assert meta["sequence"]["order"] == 1

    def test_output_roundtrips_exactly(self, tmp_path):
        from diffvar import diffseq, estimator
        from diffvar.kernels import kernel
        from diffvar.smoother import SmootherConfig

        inp = tmp_path / "data.csv"
        out = tmp_path / "curve.csv"
        sample = write_sample_csv(inp)
        main(["estimate", "--input", str(inp), "--output", str(out),
              "--bandwidth", "0.25", "--degree", "2"])
        rows = out.read_text().strip().splitlines()[1:]
        xs = np.array([float(r.split(",")[0]) for r in rows])
        vs = np.array([float(r.split(",")[1]) for r in rows])
        expected = estimator.estimate_variance(
            sample, diffseq.standard_sequence("first_difference"),
            SmootherConfig(0.25, 2, kernel("epanechnikov")),
            np.linspace(0.05, 0.95, 101),
        )
        assert np.array_equal(xs, expected.grid)
        assert np.array_equal(vs, expected.values)

    def test_cv_bandwidth_deterministic(self, tmp_path):
        inp = tmp_path / "data.csv"
        write_sample_csv(inp)
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code = main([
                "estimate", "--input", str(inp), "--output", str(out),
                "--bandwidth", "cv", "--folds", "5", "--seed", "7",
            ])
            assert code == 0
            outs.append((out.read_bytes(),
                         (tmp_path / name.replace(".csv", ".json")).read_bytes()))
        assert outs[0] == outs[1]
        meta = json.loads(outs[0][1])
        assert meta["cv"]["folds"] == 5
        assert meta["bandwidth"] == meta["cv"]["selected"]

    def test_unsorted_input_is_input_error(self, tmp_path):
        inp = tmp_path / "bad.csv"
        out = tmp_path / "out.csv"
        inp.write_text("x,y\n0.5,1.0\n0.25,2.0\n0.75,3.0\n")
        assert main(["estimate", "--input", str(inp), "--output", str(out),
                     "--bandwidth", "0.2"]) == 2
        assert not out.exists()

    def test_bad_header(self, tmp_path):
        inp = tmp_path / "bad.csv"
        inp.write_text("a,b\n0.1,1.0\n0.2,2.0\n")
        assert main(["estimate", "--input", str(inp),
                     "--output", str(tmp_path / "o.csv"),
                     "--bandwidth", "0.2"]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["estimate", "--input", str(tmp_path / "none.csv"),
                     "--output", str(tmp_path / "o.csv"),
                     "--bandwidth", "0.2"]) == 2

    def test_non_numeric_cell(self, tmp_path):
        inp = tmp_path / "bad.csv"
        inp.write_text("x,y\n0.1,1.0\n0.2,oops\n")
        assert main(["estimate", "--input", str(inp),
                     "--output", str(tmp_path / "o.csv"),
                     "--bandwidth", "0.2"]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_value_is_input_error(self, tmp_path, capsys, value):
        inp = tmp_path / "bad.csv"
        out = tmp_path / "o.csv"
        rows = [f"{i / 40!r},{1.0 + (i % 3)!r}" for i in range(1, 40)]
        rows[17] = f"{18 / 40!r},{value}"
        inp.write_text("x,y\n" + "\n".join(rows) + "\n")
        code = main(["estimate", "--input", str(inp), "--output", str(out),
                     "--bandwidth", "0.2"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "finite" in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_bad_flags_are_usage_errors(self, tmp_path):
        inp = tmp_path / "data.csv"
        write_sample_csv(inp)
        base = ["estimate", "--input", str(inp),
                "--output", str(tmp_path / "o.csv")]
        assert main(base + ["--bandwidth", "0.2", "--kernel", "gauss"]) == 1
        assert main(base + ["--bandwidth", "nope"]) == 1
        assert main(base + ["--bandwidth", "cv"]) == 1  # cv needs --seed
        assert main(base + ["--bandwidth", "rate"]) == 1  # rate needs --gamma
        assert main(["estimate", "--input", str(inp)]) == 1  # no output

    def test_estimation_failure_names_grid_point(self, tmp_path, capsys):
        inp = tmp_path / "data.csv"
        out = tmp_path / "o.csv"
        write_sample_csv(inp, n=60)
        code = main(["estimate", "--input", str(inp), "--output", str(out),
                     "--bandwidth", "0.004"])
        assert code == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert "x=0.05" in err
        assert "InsufficientSupport" in err

    def test_no_partial_output_on_failure(self, tmp_path):
        inp = tmp_path / "data.csv"
        out = tmp_path / "o.csv"
        write_sample_csv(inp, n=60)
        main(["estimate", "--input", str(inp), "--output", str(out),
              "--bandwidth", "0.004"])
        leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]
        assert leftovers == []
        assert not out.exists()
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("mode", [["0.2"], ["cv", "--seed", "1"]])
    def test_overflowing_contrasts_are_computation_errors(self, tmp_path, capsys, mode):
        inp = tmp_path / "data.csv"
        out = tmp_path / "o.csv"
        sample = write_sample_csv(inp, n=200)
        rows = inp.read_text().splitlines()
        rows[51] = f"{float(sample.xs[50])!r},1e160"  # its square overflows
        inp.write_text("\n".join(rows) + "\n")
        code = main(["estimate", "--input", str(inp), "--output", str(out),
                     "--bandwidth", *mode])
        assert code == 3
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "NonFiniteDataError" in err
        assert os.listdir(tmp_path) == ["data.csv"]


class TestOutputFiles:
    def test_every_output_file_has_the_mode_open_gives(self, tmp_path):
        # under umask 022, open() makes 644 files; a private temp file
        # renamed into place would stay 600
        inp = tmp_path / "data.csv"
        write_sample_csv(inp, n=200)
        runs = [
            ["estimate", "--input", str(inp), "--output",
             str(tmp_path / "curve.csv"), "--bandwidth", "0.2"],
            _SIM + ["--output", str(tmp_path / "sim.json")],
            _RATES + ["--output", str(tmp_path / "rates.json")],
            _NORM + ["--output", str(tmp_path / "norm.json"),
                     "--draws-out", str(tmp_path / "draws.csv")],
        ]
        umask = os.umask(0o022)
        try:
            with open(tmp_path / "reference", "w"):
                pass
            for argv in runs:
                assert main(argv) == 0
        finally:
            os.umask(umask)
        want = oct((tmp_path / "reference").stat().st_mode)
        for name in ("curve.csv", "curve.json", "sim.json", "rates.json",
                     "norm.json", "draws.csv"):
            assert oct((tmp_path / name).stat().st_mode) == want, name


class TestSimulate:
    def test_json_report(self, tmp_path):
        out = tmp_path / "report.json"
        code = main([
            "simulate", "--n", "300", "--replications", "30", "--seed", "5",
            "--x0", "0.5", "--bandwidth", "0.25", "--output", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["replications"] == 30
        assert "0.5" in report["pointwise"]
        assert report["global"]["risk"] > 0

    def test_requires_seed(self):
        assert main(["simulate", "--n", "300", "--replications", "30",
                     "--bandwidth", "0.25"]) == 1

    def test_nothing_to_do_is_usage_error(self):
        assert main(["simulate", "--n", "300", "--replications", "30",
                     "--seed", "5", "--bandwidth", "0.25",
                     "--no-global"]) == 1

    def test_single_point_grid_is_usage_error(self, capsys):
        assert main(["simulate", "--n", "300", "--replications", "10",
                     "--seed", "5", "--bandwidth", "0.25",
                     "--grid-size", "1"]) == 1
        assert "--grid-size" in capsys.readouterr().err
        # the pointwise risk alone needs no integration grid
        assert main(["simulate", "--n", "300", "--replications", "10",
                     "--seed", "5", "--bandwidth", "0.25", "--x0", "0.5",
                     "--no-global", "--grid-size", "1"]) == 0

    def test_reruns_give_identical_bytes(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = main([
                "simulate", "--n", "300", "--replications", "24", "--seed", "9",
                "--bandwidth", "0.25", "--output", str(out),
            ])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("role, spec", [
        ("mean", "constant:value=nan"),
        ("variance", "constant:value=inf"),
        ("variance", "constant:value=nan"),
    ])
    def test_non_finite_function_is_usage_error(self, capsys, role, spec):
        assert main(_SIM + [f"--{role}", spec]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"{role} function 'constant' is not finite on the design"]

    def test_overflowing_contrasts_fail_every_replication(self, tmp_path, capsys):
        out = tmp_path / "o.json"
        code = main(_SIM + ["--x0", "0.5", "--mean", "sine:offset=0,amplitude=1e200",
                            "--output", str(out)])
        assert code == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["computation failed: BadScenarioError: every replication failed"]
        assert not out.exists()

    def test_out_of_memory_is_a_computation_error(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 745. GiB for an array")
        monkeypatch.setattr(simlab, "risk_report", exhausted)
        out = tmp_path / "o.json"
        assert main(_SIM + ["--output", str(out)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["computation failed: out of memory: "
                       "Unable to allocate 745. GiB for an array"]
        assert os.listdir(tmp_path) == []

    def test_student_t_requires_valid_df(self):
        assert main(["simulate", "--n", "300", "--replications", "10",
                     "--seed", "1", "--bandwidth", "0.25",
                     "--error-law", "student_t", "--df", "5"]) == 1


class TestRates:
    def test_report_contains_theoretical_slope(self, tmp_path):
        out = tmp_path / "rates.json"
        code = main([
            "rates", "--gamma", "2", "--n", "128", "--n", "256", "--n", "512",
            "--n", "1024", "--replications", "10", "--seed", "3",
            "--scale", "0.8", "--grid-size", "31", "--output", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["theoretical_slope"] == pytest.approx(-0.8)
        assert report["slope_defined"]

    def test_single_point_grid_is_usage_error(self):
        assert main(["rates", "--gamma", "2", "--n", "128", "--n", "256",
                     "--n", "512", "--n", "1024", "--replications", "5",
                     "--seed", "1", "--grid-size", "1"]) == 1

    def test_huge_gamma_has_a_finite_theoretical_slope(self, capsys):
        assert main(_RATES + ["--gamma", "1e308", "--degree", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["theoretical_slope"] == -1.0

    @pytest.mark.parametrize("gamma", ["1e308", "150"])
    def test_default_degree_beyond_smallest_n_is_usage_error(self, capsys, gamma):
        # the default degree floor(gamma) + 1 leaves no fit at n = 100
        argv = ["rates", "--gamma", gamma, "--n", "100", "--n", "200", "--n", "300",
                "--n", "400", "--replications", "3", "--seed", "1"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert "--degree" in captured.err

    def test_too_few_sizes(self):
        assert main(["rates", "--gamma", "2", "--n", "128", "--n", "256",
                     "--replications", "5", "--seed", "1"]) == 1


class TestNormality:
    def test_report_and_draws(self, tmp_path):
        out = tmp_path / "norm.json"
        draws = tmp_path / "draws.csv"
        code = main([
            "normality", "--n", "300", "--replications", "500", "--seed", "2",
            "--output", str(out), "--draws-out", str(draws),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["replications"] == 500
        rows = draws.read_text().strip().splitlines()
        assert rows[0] == "vhat"
        assert len(rows) == 501
        values = np.array([float(v) for v in rows[1:]])
        assert values.mean() == pytest.approx(report["draws_mean"])


class TestDiffseq:
    def test_optimal_reaches_min_constant(self, capsys):
        assert main(["diffseq", "--optimal", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["variance_factor"] - 2.5) < 1e-6
        assert payload["min_constant"] == pytest.approx(2.5)

    def test_standard(self, capsys):
        assert main(["diffseq", "--standard", "gsjs"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["order"] == 2

    def test_validate_good_and_bad(self, capsys):
        ok = 1.0 / np.sqrt(2.0)
        assert main(["diffseq", "--validate", f"{ok},-{ok}"]) == 0
        capsys.readouterr()
        assert main(["diffseq", "--validate", "0.5,0.5"]) == 2
        assert "SumNotZero" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
    @pytest.mark.parametrize("command, coeffs", [
        ("diffseq", "nan,nan"), ("diffseq", "inf,-inf"), ("estimate", "[NaN, NaN]"),
    ])
    def test_non_finite_sequence_is_input_error(self, tmp_path, capsys, command, coeffs):
        out = tmp_path / "o.csv"
        if command == "diffseq":
            argv = ["diffseq", "--validate", coeffs, "--output", str(out)]
        else:
            inp, seq = tmp_path / "data.csv", tmp_path / "seq.json"
            write_sample_csv(inp, n=200)
            seq.write_text(coeffs)
            argv = ["estimate", "--input", str(inp), "--output", str(out),
                    "--bandwidth", "0.2", "--sequence-file", str(seq)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert "sum to nan" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        '{"a": 1}', '["a", "b"]', "[[0.7071067811865476, -0.7071067811865476]]", "null",
    ])
    def test_malformed_sequence_file_is_input_error(self, tmp_path, capsys, text):
        seq = tmp_path / "seq.json"
        seq.write_text(text)
        assert main(_SIM + ["--sequence-file", str(seq)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert "flat list of numbers" in err[0]

    def test_exactly_one_mode(self):
        assert main(["diffseq"]) == 1
        assert main(["diffseq", "--optimal", "2", "--standard", "gsjs"]) == 1

    @pytest.mark.parametrize("command",
                             ["diffseq", "estimate", "simulate", "normality"])
    def test_huge_optimal_order_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                               command):
        def allocate(r):
            raise AssertionError(f"order {r} reached the spectral factor")

        out = tmp_path / "o.csv"
        inp = tmp_path / "data.csv"
        write_sample_csv(inp, n=200)

        def argv(order):
            if command == "diffseq":
                return ["diffseq", "--optimal", order, "--output", str(out)]
            flags = ["--sequence", "optimal", "--order", order, "--output", str(out)]
            if command == "estimate":
                return ["estimate", "--input", str(inp), "--bandwidth", "0.2"] + flags
            if command == "simulate":
                return ["simulate", "--n", "200", "--replications", "2", "--seed",
                        "1", "--bandwidth", "0.2"] + flags
            return _NORM + flags

        huge = str(10**18)
        monkeypatch.setattr(diffseq, "_min_phase_factor", allocate)
        assert main(argv(huge)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert "order must be <=" in captured.err
        assert huge not in captured.err
        # a missed optimality postcondition stays a computation failure
        monkeypatch.setattr(diffseq, "_min_phase_factor", lambda r: np.ones(r))
        assert main(argv("2")) == 3
        assert "ConvergenceFailureError" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["data.csv"]


class TestUsage:
    def test_no_command(self):
        assert main([]) == 1

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1


_SIM = ["simulate", "--n", "200", "--replications", "20", "--seed", "1",
        "--bandwidth", "0.2"]
_RATES = ["rates", "--gamma", "2", "--n", "100", "--n", "200", "--n", "300",
          "--n", "400", "--replications", "10", "--seed", "1"]
_NORM = ["normality", "--n", "200", "--replications", "500", "--seed", "1"]


# argv that a flag's parse-time check rejects, with the flag it names
_NAMED_FLAG = [
    (_SIM + ["--seed", "-1"], "--seed"),
    (_RATES + ["--seed", "-1"], "--seed"),
    (_NORM + ["--seed", "-1"], "--seed"),
    (_SIM[:-1] + ["rate", "--gamma", "2", "--n", "1"], "--n"),
    (_RATES + ["--n", "1"], "--n"),
    (["estimate", "--bandwidth", "0.2", "--folds", "1"], "--folds"),
]


class TestFlagValues:
    @pytest.mark.parametrize("argv", [
        ["estimate", "--bandwidth", "0.2", "--grid-size", "0"],
        ["estimate", "--bandwidth", "0.2", "--degree", "-1"],
        ["estimate", "--bandwidth", "0.2", "--sequence", "optimal", "--order", "0"],
        ["estimate", "--bandwidth", "cv", "--seed", "1", "--folds", "1"],
        _SIM + ["--replications", "1"],
        _SIM + ["--error-law", "student_t", "--df", "nan"],
        _SIM + ["--margin", "0.7"],
        _SIM + ["--margin", "-0.1"],
        _SIM + ["--degree", "-1"],
        _SIM + ["--sequence", "optimal", "--order", "0"],
        _RATES + ["--replications", "1"],
        _RATES + ["--degree", "-1"],
        _RATES + ["--margin", "0.5"],
        _RATES + ["--gamma", "-1"],
        _RATES + ["--sequence", "optimal", "--order", "-2"],
        _NORM + ["--replications", "499"],
        _NORM + ["--error-law", "student_t", "--df", "nan"],
        _NORM + ["--sequence", "optimal", "--order", "0"],
        ["diffseq", "--optimal", "0"],
        ["diffseq", "--optimal", "2", "--tolerance", "0"],
        ["diffseq", "--optimal", "2", "--tolerance", "-0.001"],
        _SIM + ["--x0", "1.5"],
        _SIM + ["--x0", "nan"],
        _SIM[:-1] + ["rate", "--gamma", "nan"],
        _SIM[:-1] + ["rate", "--gamma", "2", "--scale", "nan"],
        _RATES + ["--pointwise", "1.5"],
        _RATES + ["--pointwise", "nan"],
        _RATES + ["--scale", "nan"],
        _RATES + ["--scale", "0"],
        _NORM + ["--x0", "1.5"],
        _NORM + ["--x0", "nan"],
        _NORM + ["--undersmooth-scale", "nan"],
        _NORM + ["--undersmooth-scale", "-1"],
        ["estimate", "--bandwidth", "rate", "--gamma", "nan"],
        _SIM + ["--error-law", "student_t", "--df", "inf"],
        _NORM + ["--error-law", "student_t", "--df", "inf"],
        _SIM + ["--n", "0"],
        _RATES + ["--gamma", "inf"],
        _RATES + ["--scale", "inf"],
        _SIM[:-1] + ["rate", "--gamma", "inf"],
        _SIM[:-1] + ["rate", "--gamma", "2", "--scale", "inf"],
        ["simulate", "--n", "300", "--replications", "3", "--seed", "1",
         "--x0", "0.5", "--no-global", "--bandwidth", "0.2",
         "--error-law", "gaussian", "--df", "5"],
        *[argv for argv, _ in _NAMED_FLAG],
        _SIM + ["--scale", "0"],
        _SIM + ["--gamma", "nan"],
        _SIM + ["--sequence", "gsjs", "--order", "0"],
    ])
    def test_out_of_range_values_are_usage_errors(self, tmp_path, capsys, argv):
        if argv[0] == "estimate":
            inp = tmp_path / "data.csv"
            write_sample_csv(inp, n=200)
            argv = argv + ["--input", str(inp),
                           "--output", str(tmp_path / "o.csv")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("argv, flag", _NAMED_FLAG)
    def test_rejected_value_names_its_flag(self, tmp_path, capsys, argv, flag):
        if argv[0] == "estimate":
            argv = argv + ["--input", str(tmp_path / "data.csv"),
                           "--output", str(tmp_path / "o.csv")]
        assert main(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert f"argument {flag}: must be >= " in err[0]
