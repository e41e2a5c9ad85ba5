import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import tradepost
from helpers import sparse_instance
from tradepost import CurveFamily, Rho, construct_atp_rho_equilibrium, five_by_seven_instance
from tradepost import cli as cli_module
from tradepost import equilibrium as equilibrium_module
from tradepost.cli import EXIT_OK, EXIT_PARSE, EXIT_VERIFY, main
from tradepost.files import load_instance, save_instance

GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"
SIX_BY_FOUR = str(GOLDEN_INPUTS / "six_by_four.json")
GOLDEN_BETA = str(GOLDEN_INPUTS / "beta_good.json")
GOLDEN_PERTURBED = str(GOLDEN_INPUTS / "bids_perturbed.json")
GOLDEN_FIVE_BY_SEVEN = str(GOLDEN_INPUTS / "five_by_seven.json")


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

    @pytest.mark.parametrize(
        "instance, where",
        [
            ({"supplies": [True], "agents": [{"desired": [False]}]}, "supplies[0]:"),
            ({"supplies": [None], "agents": [{"desired": [0]}]}, "supplies[0]:"),
            ({"supplies": [1.0, 10**400], "agents": [{"desired": [0, 1]}]}, "supplies[1]:"),
            ({"supplies": [1.0], "agents": [{"desired": [False]}]}, "agents[0].desired[0]:"),
            ({"supplies": [1.0], "agents": [{"desired": [0]}, {"desired": [0, "1"]}]}, "agents[1].desired[1]:"),
        ],
    )
    def test_malformed_instance_cell(self, tmp_path, capsys, instance, where):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(instance))
        assert main(["solve", "--rho", "-1", str(bad)]) == EXIT_PARSE
        assert where in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "allocation, where",
        [
            ([[True], [0.5]], "allocation[0][0]:"),
            ([[0.5], [None]], "allocation[1][0]:"),
            ([[0.5], [-1.0]], "allocation[1][0]:"),
            ([[0.5], [0.5, 0.5]], "allocation[1]:"),
        ],
    )
    def test_malformed_allocation_cell(self, shared_good_path, tmp_path, capsys, allocation, where):
        alloc = tmp_path / "alloc.json"
        alloc.write_text(json.dumps(allocation))
        argv = ["verify", "--curves", "linear", "--allocation", str(alloc), shared_good_path]
        assert main(argv) == EXIT_PARSE
        assert where in capsys.readouterr().err

    @pytest.mark.parametrize("pair", [[True, True], [None, 1.0], [1.0]])
    def test_malformed_curve_pair(self, shared_good_path, tmp_path, capsys, pair):
        curves = tmp_path / "curves.json"
        curves.write_text(json.dumps([pair]))
        alloc = tmp_path / "alloc.json"
        alloc.write_text(json.dumps([[0.5], [0.5]]))
        argv = ["verify", "--curves", f"file:{curves}", "--allocation", str(alloc), shared_good_path]
        assert main(argv) == EXIT_PARSE
        assert "curves[0]:" in capsys.readouterr().err

    def test_non_utf8_bids_file_is_named(self, shared_good_path, tmp_path, capsys):
        bids = tmp_path / "bids.json"
        bids.write_bytes(b"[[\xff]]")
        argv = ["verify", "--curves", "linear", "--bids", str(bids), shared_good_path]
        assert main(argv) == EXIT_PARSE
        assert capsys.readouterr().err.startswith(f"error: {bids}: 'utf-8' codec can't decode byte 0xff")

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

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (
                ["verify", "--curves", "atp_rho:-1", "--bids", GOLDEN_PERTURBED, "--assert"]
                + ["--tol-eq", "nan", GOLDEN_BETA],
                "--tol-eq",
            ),
            (["solve", "--rho", "1", "--tol-kkt", "nan", SIX_BY_FOUR], "--tol-kkt"),
            (["solve", "--rho", "1", "--tol-kkt", "inf", SIX_BY_FOUR], "--tol-kkt"),
            (["dynamics", "--rho", "0", "--rounds", "-3", SIX_BY_FOUR], "--rounds"),
            (["dynamics", "--rho", "0", "--rounds", "0", SIX_BY_FOUR], "--rounds"),
        ],
    )
    def test_rejects_nonfinite_tolerances_and_empty_rounds(self, argv, flag, capsys):
        assert main(argv) == EXIT_PARSE
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("move_tol", ["nan", "-1"])
    def test_dynamics_rejects_bad_move_tol(self, move_tol, capsys):
        argv = ["dynamics", "--rho", "0", "--move-tol", move_tol, SIX_BY_FOUR]
        assert main(argv) == EXIT_PARSE
        assert "--move-tol" in capsys.readouterr().err

    def test_demos_bad_ne_rejects_large_n(self, capsys, monkeypatch):
        from tradepost import maxmin

        def enumerated(*args):
            raise AssertionError("enumeration started")

        monkeypatch.setattr(maxmin, "_all_subsets", enumerated)
        assert main(["demos", "bad-ne", "--n", str(maxmin.MAX_EXHAUSTIVE_GOODS + 1)]) == EXIT_PARSE
        assert "exhaustive search limited" in capsys.readouterr().err

    def test_dynamics_rejects_rho_one(self, shared_good_path):
        assert main(["dynamics", "--rho", "1", shared_good_path]) == EXIT_PARSE

    def test_solver_failure_exit_code(self, shared_good_path, monkeypatch):
        from tradepost import NonConvergence
        from tradepost import cli as cli_module

        def boom(*args, **kwargs):
            raise NonConvergence(17, 0.25)

        monkeypatch.setattr(cli_module, "solve_ces", boom)
        assert main(["solve", "--rho", "-1", shared_good_path]) == 3


class TestNumpyOnly:
    @pytest.mark.parametrize("rho", ["1", "0.5", "-2"])
    def test_solve_loads_no_scipy(self, tmp_path, rho):
        # On a 2-core machine, importing scipy.optimize added about 0.5 s and
        # 50 MB of RSS to a CLI process; the solver needs numpy only.
        out = tmp_path / "out.json"
        code = (
            "import sys\n"
            "from tradepost.cli import main\n"
            f"assert main(['solve', '--rho', {rho!r}, {GOLDEN_FIVE_BY_SEVEN!r}, '-o', {str(out)!r}]) == 0\n"
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
        )
        src = str(Path(tradepost.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert run.stdout.strip() == "[]"
        assert read(out)["command"] == "solve"

    def test_multi_block_library_solve_loads_no_scipy(self):
        # 200 goods: every direction solve and finish goes through block substitution,
        # which numpy alone must do (scipy is installed but not a dependency).
        code = (
            "import sys\n"
            "import numpy as np\n"
            "import tradepost\n"
            "rng = np.random.default_rng(19)\n"
            "desired = [set(rng.choice(200, 3, replace=False).tolist()) for _ in range(400)] + [{j} for j in range(200)]\n"
            "inst = tradepost.Instance(rng.integers(1, 6, 200).astype(float).tolist(), desired)\n"
            "for rho in (tradepost.Rho.finite(-2.0), tradepost.Rho.one()):\n"
            "    tradepost.solve_ces(inst, rho)\n"
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
        )
        src = str(Path(tradepost.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert run.stdout.strip() == "[]"


class TestParserReuse:
    """The parser is built once per process; a parse error leaves nothing behind for the next call."""

    def test_parse_error_then_solve_matches_a_fresh_run(self, counterexample_path, tmp_path):
        assert cli_module._build_parser() is cli_module._build_parser()
        out = tmp_path / "out.json"
        assert main(["solve", "--rho"]) == EXIT_PARSE
        assert main(["solve", "--rho", "-1", "-o", str(out), counterexample_path]) == EXIT_OK
        fresh = tmp_path / "fresh.json"
        src = str(Path(tradepost.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = ["solve", "--rho", "-1", "-o", str(fresh), counterexample_path]
        subprocess.run([sys.executable, "-m", "tradepost", *argv], env=env, check=True)
        assert out.read_bytes() == fresh.read_bytes()


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


class TestMidSizeReportBytes:
    """Reports of a 150x40 instance, whose rows are mostly zeros, are exactly
    ``json.dumps(indent=2, sort_keys=True)`` text.

    The golden set has at most 7 goods; here the array writer's zero cells
    dominate.  Floats round-trip through ``repr``, so re-encoding the parsed
    report pins its bytes without a golden file.
    """

    def test_solve_equilibrium_and_both_reductions(self, tmp_path):
        instance = tmp_path / "instance.json"
        save_instance(sparse_instance(np.random.default_rng([12, 150, 40]), 150, 40), instance)

        def run(name, *argv):
            out = tmp_path / f"{name}.json"
            assert main([*argv, "-o", str(out), str(instance)]) == EXIT_OK
            text = out.read_text(encoding="utf-8")
            report = json.loads(text)
            assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"
            return report

        def write(name, value):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(value), encoding="utf-8")
            return str(path)

        solved = run("solve", "solve", "--rho", "0.5")
        assert solved["allocation"][0].count(0.0) > 30
        bids = write("bids", run("equilibrium", "equilibrium", "--rho", "0.5")["bids"])
        reduced = run("tp2pc", "reduce", "--direction", "tp2pc", "--curves", "atp_rho:0.5", "--bids", bids)
        curves = "file:" + write("curves", reduced["price_curves"])
        allocation = write("allocation", reduced["allocation"])
        run("pc2tp", "reduce", "--direction", "pc2tp", "--curves", curves, "--allocation", allocation)


class TestCallCounts:
    """Calls made under the names the benchmark's tracer wraps.

    A per-layer span counts the calls looked up through one module attribute,
    so these counts are what the benchmark's call metrics report.
    """

    @pytest.fixture()
    def counts(self, monkeypatch):
        counts = Counter()
        targets = (
            (cli_module, "best_response"),
            (cli_module, "atp_allocate"),
            (equilibrium_module, "best_response"),
        )
        for module, name in targets:
            original = getattr(module, name)

            def counted(*args, _key=f"{module.__name__}.{name}", _fn=original, **kwargs):
                counts[_key] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        return counts

    def test_dynamics(self, counts, tmp_path):
        out = tmp_path / "out.json"
        argv = ["dynamics", "--rho", "0", "--seed", "7", "--rounds", "3", SIX_BY_FOUR]
        assert main(argv + ["-o", str(out)]) == EXIT_OK
        rounds = read(out)["rounds_run"]
        assert rounds == 3
        n = load_instance(SIX_BY_FOUR).n
        assert counts == {"tradepost.cli.best_response": n * rounds, "tradepost.cli.atp_allocate": rounds}

    @pytest.mark.parametrize("seed", [None, 5])
    def test_deviation_sweep(self, counts, seed):
        inst = load_instance(SIX_BY_FOUR)
        bids, _ = construct_atp_rho_equilibrium(inst, Rho.nash())
        rng = None if seed is None else np.random.default_rng(seed)
        equilibrium_module.deviation_sweep(inst, CurveFamily.atp(0.0, inst.m), bids, rng=rng, n_random=20)
        assert counts == {"tradepost.equilibrium.best_response": inst.n}
