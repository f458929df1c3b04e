"""Byte pins of the experiment surface: the CSV header, the full CSV text of
small sweeps in each placement mode, and the stdout of successful CLI runs.

The literals were captured before the hunt setup moved behind ``harness.hunt``
and the CSV row came to be defined by ``SweepRow``; any drift in a cost, a
ceiling, a float format or a column shows here as a changed byte.
"""

import pytest

from planehunt import parse_config, rows_to_csv, sweep
from planehunt.cli import main
from planehunt.harness import CSV_HEADER

HEADER = "strategy,z,D,r,alpha,s,seed,actual_distance,found,cost,bound,ratio\n"

SWEEPS = {
    "random": (
        "[sweep]\nstrategy = universal\nz = 0 2\nD = list 4 8\nr = list 0.5 3.5\ns = 3\nplacement = random 11\n",
        "universal,0,4,0.5,0.5,3,11,3.0633165523739043,true,428.12944004053804,4127195136,1.037337528109885e-07\n"
        "universal,0,4,3.5,0.5,3,11,1.7858790939494409,true,0,476281194788.57141,0\n"
        "universal,0,8,0.5,0.5,3,11,7.5769240298409812,true,4377.8083271222504,19528679424,2.24173290578066e-07\n"
        "universal,0,8,3.5,0.5,3,11,3.198182189969486,true,0,2065594197197.9961,0\n"
        "universal,2,4,0.5,0.5,3,11,3.3871858661983154,true,23.206542988838375,1107296256,2.0957844716887018e-08\n"
        "universal,2,4,3.5,0.5,3,11,1.9653068350923442,true,0,285768716873.14282,0\n"
        # Repinned when costs came to be rounded once from exact sums: this z = 2 hunt walks sweeps, whose
        # r/sqrt(2) opening move the former float fold of block totals rounded at each addition.
        "universal,2,8,0.5,0.5,3,11,5.7381841806309541,true,2189.8371970648982,5033164800,4.3508156082330109e-07\n"
        "universal,2,8,3.5,0.5,3,11,4.1730940226863149,true,4.7784510476608828,987892876920.78076,"
        "4.8370133637921423e-12\n",
    ),
    "explicit": (
        "[sweep]\nstrategy = large\nz = 0 1\nD = list 10 12\nr = list 9.5\nplacement = explicit 0 9.9\n",
        "large,0,10,9.5,0.5,20,0,9.9000000000000004,true,0.4000000000000003,58,0.0068965517241379361\n"
        "large,0,12,9.5,0.5,20,0,9.9000000000000004,true,0.4000000000000003,290,0.0013793103448275872\n"
        "large,1,10,9.5,0.5,20,0,9.9000000000000004,true,0.4000000000000003,58,0.0068965517241379361\n"
        "large,1,12,9.5,0.5,20,0,9.9000000000000004,true,0.4000000000000003,290,0.0013793103448275872\n",
    ),
    "explicit at the start": (
        "[sweep]\nstrategy = small\nz = 2\nD = list 6\nr = list 0.5 1\nplacement = explicit 0 0\n",
        "small,2,6,0.5,0.5,20,0,0,true,0,111704093.50481136,0\n"
        "small,2,6,1,0.5,20,0,0,true,0,49560590.752405681,0\n",
    ),
    "adversarial": (
        "[sweep]\nstrategy = medium\nz = 1\nD = list 8\nr = list 1.6\ns = 2\nplacement = adversarial 1.5\n",
        "medium,1,8,1.6000000000000001,0.5,2,0,7.5,true,264.89999999999998,716245723.3830235,3.698451402247893e-07\n",
    ),
}

RUNS = {
    "simulate found": (
        ["simulate", "--strategy", "small", "--z", "4", "--treasure=-2.5,1.5", "--r", "0.5"],
        0,
        "strategy          small\n"
        "advice            '0010' (z = 4)\n"
        "treasure          (-2.5, 1.5)\n"
        "distance          2.9154759474226504\n"
        "vision radius     0.5\n"
        "regime            small\n"
        "bound             8119323.8075402016\n"
        "found             true\n"
        "cost              144.65171467426231\n"
        "detection point   (-2.0303755138326673, 1.3283816968034334)\n"
        "segments executed 331\n"
        "cost/bound        1.7815734179726652e-05\n",
    ),
    "simulate found with --D and --start": (
        ["simulate", "--strategy", "basic", "--z", "2", "--treasure", "3,4", "--r", "0.5",
         "--D", "6", "--start", "1,1"],
        0,
        "strategy          basic\n"
        "advice            '11' (z = 2)\n"
        "treasure          (3, 4)\n"
        "distance          3.6055512754639891\n"
        "vision radius     0.5\n"
        "regime            small\n"
        "bound             3312\n"
        "found             true\n"
        "cost              37.17054068870106\n"
        "detection point   (2.7500000000000004, 3.5669872981077808)\n"
        "segments executed 11\n"
        "cost/bound        0.011222989338375924\n",
    ),
    "simulate cap hit": (
        ["simulate", "--strategy", "large", "--z", "0", "--treasure", "0,8", "--r", "0.5",
         "--cap-mult", "1e-4"],
        2,
        "strategy          large\n"
        "advice            '' (z = 0)\n"
        "treasure          (0, 8)\n"
        "distance          8\n"
        "vision radius     0.5\n"
        "regime            small\n"
        "bound             870\n"
        "found             false\n"
        "cost              0.087000000000000008\n"
        "segments executed 1\n"
        "cost/bound        0.0001\n",
    ),
    "adversary": (
        ["adversary", "--strategy", "medium", "--z", "1", "--D", "8", "--r", "1.6",
         "--grid-step", "1.5", "--s", "2"],
        0,
        "worst placement   (4.5, 6)\n"
        "worst cost        264.89999999999998\n"
        "medium-regime lower bound 0.035000000000000003\n"
        "worst/lower       7568.5714285714275\n",
    ),
}


def test_csv_header_literal():
    assert CSV_HEADER + "\n" == HEADER


@pytest.mark.parametrize("mode", SWEEPS)
def test_sweep_csv_bytes(mode):
    config, body = SWEEPS[mode]
    assert rows_to_csv(sweep(parse_config(config))) == HEADER + body


@pytest.mark.parametrize("name", RUNS)
def test_cli_stdout_bytes(name, capsys):
    argv, code, stdout = RUNS[name]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == stdout
    assert captured.err == ""
