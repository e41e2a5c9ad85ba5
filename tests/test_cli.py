import json

import numpy as np
import pytest

from tradepost import five_by_seven_instance
from tradepost.cli import EXIT_OK, EXIT_PARSE, EXIT_VERIFY, main
from tradepost.files import save_instance


@pytest.fixture()
def counterexample_path(tmp_path):
    path = tmp_path / "counterexample.json"
    save_instance(five_by_seven_instance(), path)
    return str(path)


@pytest.fixture()
def lie_path(tmp_path):
    path = tmp_path / "lie_instance.json"
    save_instance(five_by_seven_instance(lie=True), path)
    return str(path)


@pytest.fixture()
def shared_good_path(tmp_path):
    path = tmp_path / "two_agents_one_good.json"
    path.write_text(
        json.dumps({"supplies": [1.0], "agents": [{"desired": [0]}, {"desired": [0]}]})
    )
    return str(path)


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestSolveCommand:
    def test_counterexample_utilities(self, counterexample_path, tmp_path):
        out = tmp_path / "out.json"
        code = main(["solve", "--rho", "-1", "-o", str(out), counterexample_path])
        assert code == EXIT_OK
        report = read(out)
        assert report["utilities"][3] == pytest.approx(0.449490, abs=1e-5)
        assert report["kkt_residual"] <= 1e-7
        assert "tolerances" in report

    def test_maxmin_gamma(self, shared_good_path, tmp_path):
        out = tmp_path / "out.json"
        code = main(["solve", "--rho=-inf", "-o", str(out), shared_good_path])
        assert code == EXIT_OK
        assert read(out)["objective"] == pytest.approx(0.5)

    def test_maxmin_alias(self, shared_good_path, tmp_path):
        out = tmp_path / "out.json"
        code = main(["solve", "--rho", "maxmin", "-o", str(out), shared_good_path])
        assert code == EXIT_OK
        assert read(out)["objective"] == pytest.approx(0.5)

    def test_sum_objective_on_lie_instance(self, lie_path, tmp_path):
        out = tmp_path / "out.json"
        code = main(["solve", "--rho", "1", "-o", str(out), lie_path])
        assert code == EXIT_OK
        assert np.allclose(read(out)["utilities"], 0.5, atol=1e-6)

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", "--rho", "-1", str(bad)]) == EXIT_PARSE

    def test_missing_field_diagnostic(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"supplies": [1.0]}))
        assert main(["solve", "--rho", "-1", str(bad)]) == EXIT_PARSE
        assert "agents" in capsys.readouterr().err

    def test_rho_validation(self, shared_good_path):
        assert main(["solve", "--rho", "2.0", shared_good_path]) == EXIT_PARSE


class TestEquilibriumCommand:
    def test_construct_and_verify(self, shared_good_path, tmp_path):
        out = tmp_path / "eq.json"
        code = main(["equilibrium", "--rho", "-1", "-o", str(out), shared_good_path])
        assert code == EXIT_OK
        report = read(out)
        assert report["is_ne"] is True
        assert report["welfare_gap"] <= 1e-6
        assert report["bids"] == [[1.0], [1.0]]

    def test_rho_one_rejected(self, shared_good_path):
        assert main(["equilibrium", "--rho", "1", shared_good_path]) == EXIT_PARSE

    def test_beta_survives_serialization(self, tmp_path):
        inst = tmp_path / "inst.json"
        inst.write_text(
            json.dumps(
                {
                    "supplies": [1.0, 5.0],
                    "agents": [{"desired": [0, 1]}, {"desired": [0]}],
                }
            )
        )
        out = tmp_path / "eq.json"
        code = main(["equilibrium", "--rho", "0", "-o", str(out), str(inst)])
        assert code == EXIT_OK
        bids = read(out)["bids"]
        assert bids[0][1] == "beta"
        assert bids[1][1] == 0.0


class TestVerifyCommand:
    def test_verify_equilibrium_bids(self, shared_good_path, tmp_path):
        bids = tmp_path / "bids.json"
        bids.write_text(json.dumps([[1.0], [1.0]]))
        out = tmp_path / "v.json"
        code = main(
            [
                "verify",
                "--curves",
                "atp_rho:-1",
                "--bids",
                str(bids),
                "-o",
                str(out),
                shared_good_path,
            ]
        )
        assert code == EXIT_OK
        assert read(out)["is_ne"] is True

    def test_assert_mode_exit_code(self, shared_good_path, tmp_path):
        bids = tmp_path / "bids.json"
        bids.write_text(json.dumps([[0.25], [0.25]]))
        code = main(
            [
                "verify",
                "--curves",
                "atp_rho:-1",
                "--bids",
                str(bids),
                "--assert",
                shared_good_path,
            ]
        )
        assert code == EXIT_VERIFY

    def test_pce_mode(self, shared_good_path, tmp_path):
        curves = tmp_path / "curves.json"
        curves.write_text(json.dumps([[2.0, 1.0]]))
        alloc = tmp_path / "x.json"
        alloc.write_text(json.dumps([[0.5], [0.5]]))
        out = tmp_path / "v.json"
        code = main(
            [
                "verify",
                "--curves",
                f"file:{curves}",
                "--allocation",
                str(alloc),
                "-o",
                str(out),
                shared_good_path,
            ]
        )
        assert code == EXIT_OK
        assert read(out)["is_pce"] is True

    def test_needs_exactly_one_input(self, shared_good_path):
        assert main(["verify", "--curves", "linear", shared_good_path]) == EXIT_PARSE


class TestReduceCommand:
    def test_tp2pc_then_verify(self, shared_good_path, tmp_path):
        bids = tmp_path / "bids.json"
        bids.write_text(json.dumps([[1.0], [1.0]]))
        out = tmp_path / "reduced.json"
        code = main(
            [
                "reduce",
                "--direction",
                "tp2pc",
                "--curves",
                "linear",
                "--bids",
                str(bids),
                "-o",
                str(out),
                shared_good_path,
            ]
        )
        assert code == EXIT_OK
        report = read(out)
        assert report["price_curves"] == [[2.0, 1.0]]

        curves = tmp_path / "curves.json"
        curves.write_text(json.dumps(report["price_curves"]))
        alloc = tmp_path / "alloc.json"
        alloc.write_text(json.dumps(report["allocation"]))
        out2 = tmp_path / "v.json"
        code = main(
            [
                "verify",
                "--curves",
                f"file:{curves}",
                "--allocation",
                str(alloc),
                "-o",
                str(out2),
                shared_good_path,
            ]
        )
        assert code == EXIT_OK
        assert read(out2)["is_pce"] is True

    def test_pc2tp(self, shared_good_path, tmp_path):
        curves = tmp_path / "curves.json"
        curves.write_text(json.dumps([[2.0, 1.0]]))
        alloc = tmp_path / "x.json"
        alloc.write_text(json.dumps([[0.5], [0.5]]))
        out = tmp_path / "reduced.json"
        code = main(
            [
                "reduce",
                "--direction",
                "pc2tp",
                "--curves",
                f"file:{curves}",
                "--allocation",
                str(alloc),
                "-o",
                str(out),
                shared_good_path,
            ]
        )
        assert code == EXIT_OK
        assert read(out)["bids"] == [[0.5], [0.5]]

    def test_pc2tp_rejects_nonpositive_h_degree(self, shared_good_path, tmp_path):
        curves = tmp_path / "curves.json"
        curves.write_text(json.dumps([[2.0, 1.0]]))
        alloc = tmp_path / "x.json"
        alloc.write_text(json.dumps([[0.5], [0.5]]))
        for degree in ("0", "-1"):
            argv = ["reduce", "--direction", "pc2tp", "--curves", f"file:{curves}"]
            argv += ["--allocation", str(alloc), "--h-degree", degree, shared_good_path]
            assert main(argv) == EXIT_PARSE


class TestDynamicsCommand:
    def test_shared_good_converges(self, shared_good_path, tmp_path):
        out = tmp_path / "dyn.json"
        code = main(
            ["dynamics", "--rho", "0", "--rounds", "30", "-o", str(out), shared_good_path]
        )
        assert code == EXIT_OK
        report = read(out)
        assert report["converged"] is True
        assert report["is_ne"] is True
        assert report["welfare_per_round"][-1] == pytest.approx(report["optimum"], rel=1e-4)


class TestDemosCommand:
    def test_not_strategyproof(self, tmp_path):
        out = tmp_path / "demo.json"
        code = main(["demos", "not-strategyproof", "--rho", "0", "-o", str(out)])
        assert code == EXIT_OK
        report = read(out)
        assert report["truthful_u4"] == pytest.approx(0.4, abs=1e-5)
        assert report["lie_u4"] == pytest.approx(0.5, abs=1e-5)

    def test_bad_ne(self, tmp_path):
        out = tmp_path / "demo.json"
        code = main(["demos", "bad-ne", "--n", "3", "-o", str(out)])
        assert code == EXIT_OK
        assert read(out)["ratio"] == pytest.approx(3.0)

    def test_m2_truthful(self, tmp_path):
        inst = tmp_path / "inst.json"
        inst.write_text(
            json.dumps({"supplies": [1.0, 1.0], "agents": [{"desired": [0]}, {"desired": [1]}]})
        )
        out = tmp_path / "demo.json"
        code = main(["demos", "m2-truthful", "--instance", str(inst), "-o", str(out)])
        assert code == EXIT_OK
        assert read(out)["is_nash_equilibrium"] is True

    def test_strategyproof_m1(self, tmp_path):
        inst = tmp_path / "inst.json"
        inst.write_text(
            json.dumps({"supplies": [1.0, 1.0], "agents": [{"desired": [0]}, {"desired": [0, 1]}]})
        )
        out = tmp_path / "demo.json"
        code = main(["demos", "strategyproof-m1", "--instance", str(inst), "-o", str(out)])
        assert code == EXIT_OK
        assert read(out)["strategyproof"] is True

    def test_missing_rho(self):
        assert main(["demos", "not-strategyproof"]) == EXIT_PARSE


class TestConfigValidation:
    def test_tolerance_floor(self, shared_good_path):
        assert main(["solve", "--rho", "-1", "--tol-eq", "1e-13", shared_good_path]) == EXIT_PARSE

    def test_dynamics_rejects_rho_one(self, shared_good_path):
        assert main(["dynamics", "--rho", "1", shared_good_path]) == EXIT_PARSE

    def test_solver_failure_exit_code(self, shared_good_path, monkeypatch):
        from tradepost import NonConvergence
        from tradepost import cli as cli_module

        def boom(*args, **kwargs):
            raise NonConvergence(17, 0.25)

        monkeypatch.setattr(cli_module, "solve_ces", boom)
        assert main(["solve", "--rho", "-1", shared_good_path]) == 3


class TestDeterminism:
    def test_byte_identical_reports(self, counterexample_path, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(["solve", "--rho", "-1", "-o", str(out1), counterexample_path]) == EXIT_OK
        assert main(["solve", "--rho", "-1", "-o", str(out2), counterexample_path]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_dynamics_deterministic_given_seed(self, shared_good_path, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        args = ["dynamics", "--rho", "-1", "--seed", "99", "--rounds", "10", shared_good_path]
        assert main(args + ["-o", str(out1)]) == EXIT_OK
        assert main(args + ["-o", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
