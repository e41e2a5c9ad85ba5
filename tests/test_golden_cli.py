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
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes(case, tmp_path):
    argv, expected_code = CASES[case]
    out = tmp_path / "report.json"
    assert main(argv + ["-o", str(out)]) == expected_code
    assert out.read_bytes() == (GOLDEN / "reports" / f"{case}.json").read_bytes()
