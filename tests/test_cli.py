import argparse
import csv
import dataclasses
import json
import numpy as np
import pytest

import ossmax.solvers
from ossmax import Instance, SolverConfig, make_semimetric_instance, read_instance, write_instance
from ossmax.cli import _build_parser, main
from ossmax.polytopes import BoxPolytope


def run(argv):
    return main(argv)


def _no_sweep(*args):
    raise AssertionError("a threshold sweep started")


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture()
def linear_box_instance(tmp_path):
    # coincident points make M = 0, so the objective is b'x: linear on the box
    obj = make_semimetric_instance([[0.0], [0.0], [0.0]], [1.0, 1.0, 1.0])
    path = tmp_path / "linear.json"
    write_instance(path, Instance(obj, BoxPolytope(3, 1.0), label="linear-box"))
    return path


class TestGenerate:
    def test_coverage_regeneration_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["generate", "--kind", "coverage", "--n", "3", "--elements", "4", "--seed", "7"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_collinear_quadratic_distances(self, tmp_path):
        # points on a line at 0, 1, 3 give the hand-checkable distance matrix
        obj = make_semimetric_instance([0.0, 1.0, 3.0], [0.0, 0.0, 0.0])
        path = tmp_path / "quad.json"
        write_instance(path, Instance(obj, BoxPolytope(3, 1.0)))
        back = read_instance(path)
        assert np.allclose(back.objective.M, [[0, 1, 3], [1, 0, 2], [3, 2, 0]])

    def test_generated_quadratic_reads_back(self, tmp_path):
        path = tmp_path / "q.json"
        assert run(["generate", "--kind", "quadratic-semimetric", "--n", "4", "--seed", "1",
                    "--polytope", "cardinality", "--k", "2", "--out", str(path)]) == 0
        inst = read_instance(path)
        assert inst.dimension == 4
        assert inst.polytope.budget == 2

    def test_malformed_kind_exits_one(self, tmp_path, capsys):
        code = run(["generate", "--kind", "nonsense", "--n", "3", "--out", str(tmp_path / "x.json")])
        assert code == 1
        assert "invalid choice" in capsys.readouterr().err.lower()

    def test_monotone_linear_requires_pairs(self, tmp_path):
        code = run(["generate", "--kind", "coverage", "--n", "2", "--polytope",
                    "monotone-linear", "--out", str(tmp_path / "x.json")])
        assert code == 1


class TestSolve:
    def test_jspg_ratio_near_one_on_linear_box(self, tmp_path, linear_box_instance, capsys):
        out = tmp_path / "runs.csv"
        code = run(["solve", str(linear_box_instance), "--solver", "jspg", "--out", str(out)])
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 1
        # the README's "CSV schema" header, in order
        assert list(rows[0].keys()) == [
            "instance", "solver", "seed", "dimension", "value", "opt_lower", "opt_upper", "grid_opt", "ratio",
            "adaptive_rounds", "value_queries", "gradient_queries", "wall_time_s", "error", "config",
        ]
        assert float(rows[0]["ratio"]) >= 0.99
        assert rows[0]["error"] == ""

    def test_spg_matches_jspg_within_two_percent(self, tmp_path, linear_box_instance):
        out = tmp_path / "runs.csv"
        assert run(["solve", str(linear_box_instance), "--solver", "jspg", "--out", str(out)]) == 0
        assert run(["solve", str(linear_box_instance), "--solver", "spg", "--theta", "0",
                    "--batch", "256", "--out", str(out)]) == 0
        rows = read_rows(out)
        jspg, spg = float(rows[0]["value"]), float(rows[1]["value"])
        assert abs(jspg - spg) <= 0.02 * max(jspg, spg)

    def test_serial_solver_runs(self, tmp_path, linear_box_instance):
        out = tmp_path / "runs.csv"
        assert run(["solve", str(linear_box_instance), "--solver", "serial", "--out", str(out)]) == 0
        rows = read_rows(out)
        assert float(rows[0]["value"]) >= 2.9

    def test_zero_grid_optimum_prints_no_ratio(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        assert run(["generate", "--kind", "coverage", "--n", "3", "--seed", "1",
                    "--weight-lo", "0", "--weight-hi", "0", "--out", str(path)]) == 0
        out = tmp_path / "runs.csv"
        assert run(["solve", str(path), "--out", str(out)]) == 0
        assert "grid optimum  0.000000\nratio         n/a (grid optimum is 0)\n" in capsys.readouterr().out
        assert read_rows(out)[0]["ratio"] == ""

    def test_missing_instance_exits_nonzero_without_csv(self, tmp_path, capsys):
        out = tmp_path / "runs.csv"
        code = run(["solve", str(tmp_path / "absent.json"), "--out", str(out)])
        assert code == 1
        assert not out.exists()

    def test_grid_can_be_disabled(self, tmp_path, linear_box_instance):
        out = tmp_path / "runs.csv"
        assert run(["solve", str(linear_box_instance), "--grid-resolution", "0",
                    "--out", str(out)]) == 0
        rows = read_rows(out)
        assert rows[0]["grid_opt"] == ""
        assert rows[0]["ratio"] == ""

    def test_grid_over_the_point_budget_exits_one(self, tmp_path, linear_box_instance, capsys):
        out = tmp_path / "runs.csv"
        # 1001 ** 3 lattice points exceed the grid oracle's budget
        code = run(["solve", str(linear_box_instance), "--grid-resolution", "1000", "--out", str(out)])
        assert code == 1
        assert "grid resolution 1000 with dimension 3 exceeds the point budget" in capsys.readouterr().err
        assert not out.exists()

    def test_config_echo_replays_to_same_value(self, tmp_path, linear_box_instance):
        out = tmp_path / "runs.csv"
        args = ["solve", str(linear_box_instance), "--solver", "spg", "--theta", "0.2",
                "--seed", "11", "--out", str(out)]
        assert run(args) == 0
        assert run(args) == 0
        rows = read_rows(out)
        assert rows[0]["config"] == rows[1]["config"]
        assert rows[0]["value"] == rows[1]["value"]

    def test_config_defaults_come_from_solver_config(self, tmp_path, linear_box_instance):
        out = tmp_path / "runs.csv"
        assert run(["solve", str(linear_box_instance), "--out", str(out)]) == 0
        claim = read_instance(linear_box_instance).objective.sigma_claimed
        assert claim != SolverConfig().sigma  # so the echo shows where sigma came from
        echo = json.loads(read_rows(out)[0]["config"])
        assert echo == dataclasses.asdict(SolverConfig(sigma=claim))

    def test_config_flags_match_solver_config_fields(self):
        # one flag per field, each stored under the field's name
        subparsers = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        solve = subparsers.choices["solve"]
        other = {"help", "instance", "solver", "grid_resolution", "out", "seed"}
        dests = [action.dest for action in solve._actions if action.dest not in other]
        assert sorted(dests) == sorted(field.name for field in dataclasses.fields(SolverConfig))

    def test_out_dir_env_var(self, tmp_path, linear_box_instance, monkeypatch):
        monkeypatch.setenv("OSSMAX_OUT_DIR", str(tmp_path / "outputs"))
        assert run(["solve", str(linear_box_instance), "--out", "runs.csv"]) == 0
        assert (tmp_path / "outputs" / "runs.csv").exists()


class TestVerify:
    def test_coverage_instance_passes(self, tmp_path):
        path = tmp_path / "cov.json"
        assert run(["generate", "--kind", "coverage", "--n", "3", "--seed", "5",
                    "--out", str(path)]) == 0
        assert run(["verify", str(path), "--trials", "200"]) == 0

    def test_semimetric_instance_passes(self, tmp_path):
        path = tmp_path / "quad.json"
        assert run(["generate", "--kind", "quadratic-semimetric", "--n", "4", "--seed", "6",
                    "--out", str(path)]) == 0
        assert run(["verify", str(path), "--trials", "200"]) == 0

    def test_violating_sigma_fails_with_witness(self, tmp_path, capsys):
        obj = make_semimetric_instance([0.0, 1.0, 3.0], [0.0, 0.0, 0.0])
        path = tmp_path / "quad.json"
        write_instance(path, Instance(obj, BoxPolytope(3, 1.0)))
        # the 0-2 distance is tight at sigma = 1, so sigma = 0.3 must fail
        code = run(["verify", str(path), "--sigma", "0.3", "--trials", "50"])
        assert code == 3
        out = capsys.readouterr().out
        assert "witness triple" in out

    def test_failing_semimetric_and_smoothness_print_both_witnesses(self, tmp_path, capsys):
        path = tmp_path / "quad.json"
        assert run(["generate", "--kind", "quadratic-semimetric", "--n", "4", "--seed", "3",
                    "--out", str(path)]) == 0
        capsys.readouterr()
        assert run(["verify", str(path), "--sigma", "0", "--trials", "50"]) == 3
        assert capsys.readouterr().out == (
            "semi-metric: FAIL (worst violation 7.946e-01) at triple (0, 1, 2)\n"
            "  witness triple (0, 1, 2): M[0,1]=0.794599 > 0*(M[0,2]+M[2,1])=0\n"
            "one-sided 0-smooth: FAIL (worst violation 3.775e+00, 50 trials)\n"
            "  witness x=[0.637  0.2698 0.041  0.0165] u=[0.8133 0.9128 0.6066 0.7295]\n"
        )

    def test_failing_locality_prints_its_witness_with_the_step(self, tmp_path, capsys):
        path = tmp_path / "cov.json"
        assert run(["generate", "--kind", "coverage", "--n", "3", "--seed", "1", "--out", str(path)]) == 0
        capsys.readouterr()
        assert run(["verify", str(path), "--eta", "0", "--trials", "200"]) == 3
        assert capsys.readouterr().out == (
            "one-sided 0-smooth: pass (worst violation -6.672e-05, 200 trials)\n"
            "0-local gradient: FAIL (worst violation 1.355e+00, 200 trials)\n"
            "  witness x=[0.1516 0.34   0.0132] u=[0.9316 0.321  0.8429] eps=0.8760\n"
        )

    def test_eta_check_runs(self, tmp_path):
        path = tmp_path / "quad.json"
        assert run(["generate", "--kind", "quadratic-semimetric", "--n", "3", "--seed", "8",
                    "--out", str(path)]) == 0
        assert run(["verify", str(path), "--eta", "1.0", "--trials", "100"]) == 0


class TestUsageErrors:
    def test_unknown_solver_flag_value(self, tmp_path, linear_box_instance, capsys):
        code = run(["solve", str(linear_box_instance), "--solver", "hillclimb"])
        assert code == 1

    def test_no_command(self, capsys):
        assert run([]) == 1

    def test_retired_bench_verb_is_unknown(self, capsys):
        assert run(["bench", "suite.json"]) == 1
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "{cov}", "--sigma", "nan"],
            ["solve", "{cov}", "--eta", "nan"],
            ["verify", "{cov}", "--eta", "nan"],
            ["verify", "{cov}", "--sigma", "nan"],
            ["generate", "--kind", "coverage", "--n", "3", "--weight-hi", "nan", "--out", "{out}"],
        ],
    )
    def test_nan_arguments_exit_one(self, tmp_path, capsys, argv):
        cov, out = tmp_path / "cov.json", tmp_path / "w.json"
        generate = ["generate", "--kind", "coverage", "--n", "5", "--seed", "3", "--polytope", "cardinality"]
        assert run(generate + ["--out", str(cov)]) == 0
        code = run([arg.format(cov=cov, out=out) for arg in argv])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value", [("--sigma", "123"), ("--sigma", "inf"), ("--eta", "inf"), ("--epsilon", "1e-17")]
    )
    def test_config_outside_its_domain_exits_one(self, linear_box_instance, capsys, monkeypatch, flag, value):
        # sigma >= 122.4 at alpha = 0.05 underflows mu to 0, the divisor of the
        # step bound; an infinite eta caps every step at 0; 1 - 1e-17 rounds
        # to 1, so the threshold would never decay.  Each is refused before
        # a sweep starts.
        monkeypatch.setattr(ossmax.solvers, "_threshold_sweep", _no_sweep)
        assert run(["solve", str(linear_box_instance), flag, value]) == 1
        assert "error:" in capsys.readouterr().err

    def test_stochastic_step_bound_underflow_exits_one(self, tmp_path, capsys):
        # mu^2 underflows to 0 past sigma of about 61.2 at alpha = 0.05, where
        # mu, and so the deterministic solver, still works
        cov, out = tmp_path / "cov.json", tmp_path / "runs.csv"
        generate = ["generate", "--kind", "coverage", "--n", "5", "--seed", "3", "--polytope", "cardinality"]
        assert run(generate + ["--out", str(cov)]) == 0
        capsys.readouterr()
        assert run(["solve", str(cov), "--solver", "spg", "--sigma", "62", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: sigma = 62.0 at alpha = 0.05")
        assert "stochastic solver" in err
        assert not out.exists()
        assert run(["solve", str(cov), "--solver", "jspg", "--sigma", "62", "--out", str(out)]) == 0
        assert read_rows(out)[0]["error"] == ""

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_solver_runtime_failure_exits_two(self, tmp_path, linear_box_instance, capsys):
        # a file that reads back as a valid instance but whose distances of
        # 1e308 overflow the value oracle to inf at the first point the
        # solver values
        data = json.loads(linear_box_instance.read_text())
        data["objective"]["matrix"] = [0.0 if i % 4 == 0 else 1e308 for i in range(9)]
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(data))
        code = run(["solve", str(path), "--grid-resolution", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert "solver failed: QuadraticSemiMetricObjective: value oracle returned inf" in err
