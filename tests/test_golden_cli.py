"""Byte-for-byte CLI reports on a small golden set.

Each case runs ``tradepost.cli.main`` on input files under
``tests/golden/inputs`` and compares the report, byte for byte, with the file
of the same name under ``tests/golden/reports``.  After an intended change to
a report, regenerate it with the case's command plus
``-o tests/golden/reports/<case>.json``.
"""
from pathlib import Path

import pytest

from tradepost.cli import EXIT_OK, EXIT_VERIFY, main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"


def _in(name: str) -> str:
    return str(INPUTS / name)


#: case name -> (argv without ``-o``, expected exit code)
CASES = {
    "solve_5x7_rho-1": (["solve", "--rho", "-1", _in("five_by_seven.json")], EXIT_OK),
    "solve_5x7_rho0": (["solve", "--rho", "0", _in("five_by_seven.json")], EXIT_OK),
    "solve_5x7_rho1": (["solve", "--rho", "1", _in("five_by_seven.json")], EXIT_OK),
    "solve_5x7_maxmin": (["solve", "--rho=-inf", _in("five_by_seven.json")], EXIT_OK),
    "equilibrium_beta_rho-1": (["equilibrium", "--rho", "-1", _in("beta_good.json")], EXIT_OK),
    "equilibrium_beta_rho0": (["equilibrium", "--rho", "0", _in("beta_good.json")], EXIT_OK),
    "verify_bids_ne": (
        ["verify", "--curves", "atp_rho:-1", "--bids", _in("bids_ne.json"), _in("beta_good.json")],
        EXIT_OK,
    ),
    "verify_bids_perturbed": (
        [
            "verify",
            "--curves",
            "atp_rho:-1",
            "--bids",
            _in("bids_perturbed.json"),
            "--assert",
            _in("beta_good.json"),
        ],
        EXIT_VERIFY,
    ),
    "verify_allocation_pce": (
        [
            "verify",
            "--curves",
            "file:" + _in("price_curves.json"),
            "--allocation",
            _in("allocation.json"),
            _in("beta_good.json"),
        ],
        EXIT_OK,
    ),
    # Under linear curves agent 1's half unit of good 0 costs only half its budget.
    "verify_allocation_linear": (
        [
            "verify",
            "--curves",
            "linear",
            "--allocation",
            _in("allocation.json"),
            "--assert",
            _in("beta_good.json"),
        ],
        EXIT_VERIFY,
    ),
    "reduce_tp2pc": (
        [
            "reduce",
            "--direction",
            "tp2pc",
            "--curves",
            "atp_rho:-1",
            "--bids",
            _in("bids_ne.json"),
            _in("beta_good.json"),
        ],
        EXIT_OK,
    ),
    "reduce_pc2tp_h3": (
        [
            "reduce",
            "--direction",
            "pc2tp",
            "--curves",
            "file:" + _in("price_curves.json"),
            "--allocation",
            _in("allocation.json"),
            "--h-degree",
            "3",
            _in("beta_good.json"),
        ],
        EXIT_OK,
    ),
    "dynamics_6x4_seed7": (
        ["dynamics", "--rho", "0", "--seed", "7", "--rounds", "5", _in("six_by_four.json")],
        EXIT_OK,
    ),
    # Agent 1's lone good 3 ends on a beta claim; agent 4 wants only its own
    # goods 4 and 5, so its beta claim on good 5 overflows and is forced positive.
    "dynamics_private_seed7": (
        ["dynamics", "--rho", "0", "--seed", "7", "--rounds", "5", _in("private_goods.json")],
        EXIT_OK,
    ),
    # A 40x12 instance drawn like the benchmark's dynamics inputs; ten full
    # rounds of best responses pin every row the dynamics loop replaces.
    "dynamics_40x12_rho-2_seed1": (
        ["dynamics", "--rho", "-2", "--seed", "1", "--rounds", "10", _in("forty_by_twelve.json")],
        EXIT_OK,
    ),
    "dynamics_40x12_rho0.5_seed1": (
        ["dynamics", "--rho", "0.5", "--seed", "1", "--rounds", "10", _in("forty_by_twelve.json")],
        EXIT_OK,
    ),
    # The demos reports pin the writer's other shapes: an empty object
    # ("beneficial_deviations": {}) and objects of ints, floats, bools and null.
    "demos_bad_ne_n3": (["demos", "bad-ne", "--n", "3"], EXIT_OK),
    "demos_strategyproof_m1_beta": (
        ["demos", "strategyproof-m1", "--instance", _in("beta_good.json")],
        EXIT_OK,
    ),
    "demos_m2_truthful_beta": (
        ["demos", "m2-truthful", "--instance", _in("beta_good.json")],
        EXIT_OK,
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes(case, tmp_path):
    argv, expected_code = CASES[case]
    out = tmp_path / "report.json"
    assert main(argv + ["-o", str(out)]) == expected_code
    assert out.read_bytes() == (GOLDEN / "reports" / f"{case}.json").read_bytes()
