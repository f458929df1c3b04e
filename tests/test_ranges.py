"""One range rule per hunt parameter: every entry point that takes the advice
size z, D, r, alpha, s, the cost cap multiplier, the cost cap, the grid step or
a figure's radius refuses the same bad values, before any work, with a message
that names the parameter."""

import math
import re

import pytest

from planehunt import (
    PreconditionError, adversarial_placement, decode_sector, harness, parse_config, run, small_vision, spiral,
)
from planehunt.cli import main
from planehunt.advice import sector_advice
from planehunt.errors import positive_finite, positive_int
from planehunt.sim import disc_grid_candidates, shaded_tile_candidates
from planehunt.traversal import TrajectoryStream

BAD = ("0", "-1", "nan", "inf", "1e400")
BAD_S = ("0", "-1", "1.5")

# parameter: (the name its refusal gives, its CLI flag, its config line)
PARAMS = {
    "D": ("range bound", "--D", "D = list {}"),
    "r": ("vision radius", "--r", "r = list {}"),
    "alpha": ("alpha", "--alpha", "alpha = {}"),
    "s": ("scale step", "--s", "s = {}"),
    "cap_mult": ("cost cap multiplier", "--cap-mult", "cap_mult = {}"),
    "grid_step": ("grid step", "--grid-step", "placement = adversarial {}"),
}
GOOD = {"D": 8.0, "r": 0.5, "alpha": 0.5, "s": 2, "cap_mult": 1e4, "grid_step": 0.5}


def _cases(*params):
    return [(p, v) for p in params for v in (BAD_S if p == "s" else BAD)]


def _number(param, text):
    """The library value of a bad value's text: s keeps its int or float type."""
    if param == "s":
        return float(text) if "." in text else int(text)
    return float(text)


def _refusal(param, value):
    name = PARAMS[param][0]
    rule = "a positive integer" if param == "s" else "positive and finite"
    return f"{name} must be {rule}, got {value!r}"


class TestRules:
    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "1e400", "abc", "", None, 0.0, -2.5, 10**400])
    def test_positive_finite_refuses(self, value):
        with pytest.raises(PreconditionError, match=r"^x must be positive and finite, got "):
            positive_finite("x", value)

    @pytest.mark.parametrize("value", ["0", "-1", "1.5", "abc", "", None, 0, -3, 1.5, 2.0])
    def test_positive_int_refuses(self, value):
        with pytest.raises(PreconditionError, match=r"^x must be a positive integer, got "):
            positive_int("x", value)

    def test_accepted_values(self):
        assert positive_finite("x", "2.5") == 2.5 and positive_finite("x", 3) == 3.0
        assert positive_int("x", "20") == 20 and positive_int("x", 7) == 7


@pytest.mark.parametrize("strategy", ["small", "medium"])
@pytest.mark.parametrize("param, value", _cases("D", "r", "alpha", "s", "cap_mult", "grid_step"))
def test_cli_flag(strategy, param, value, capsys):
    flag = PARAMS[param][1]
    if param == "grid_step":
        commands = [["adversary", "--z", "2", "--D", "8", "--r", "0.5"]]
    else:
        commands = [["simulate", "--z", "2", "--treasure", "3,4", "--r", "0.5"],
                    ["adversary", "--z", "2", "--D", "8", "--r", "0.5", "--grid-step", "0.5"]]
    for argv in commands:
        argv = [argv[0], "--strategy", strategy] + argv[1:] + [f"{flag}={value}"]  # a repeated --D or --r is read again
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: argument {flag}: {_refusal(param, value)}\n"


@pytest.mark.parametrize("param, value", _cases("D", "r", "alpha", "s", "cap_mult", "grid_step"))
def test_config_key(param, value):
    lines = {"strategy": "small", "z": "0", "D": "list 8", "r": "list 0.5", "placement": "random 1"}
    key, _, template = PARAMS[param][2].partition(" = ")
    lines[key] = template.format(value)
    text = "[sweep]\n" + "".join(f"{k} = {v}\n" for k, v in lines.items())
    line = list(lines).index(key) + 2
    with pytest.raises(PreconditionError) as err:
        parse_config(text)
    message = str(err.value)
    assert message.startswith(f"config line {line}: {key.lower()} = {lines[key]}: {PARAMS[param][0]} must be ")


@pytest.fixture
def no_streams(monkeypatch):
    """Any stream built from here on fails the test: a refusal must come first."""
    def refuse(*args, **kwargs):
        raise AssertionError("a stream was built before the parameters were checked")

    monkeypatch.setattr(harness, "build_stream", refuse)
    return refuse


@pytest.mark.parametrize("strategy", ["small", "basic"])
@pytest.mark.parametrize("param, value", _cases("D", "r", "alpha", "s", "cap_mult"))
def test_harness_hunt(strategy, param, value, no_streams):
    args = dict(GOOD, **{param: _number(param, value)})
    del args["grid_step"]
    with pytest.raises(PreconditionError, match=f"^{PARAMS[param][0]} must be "):
        harness.hunt(strategy, 2, start=(0.0, 0.0), treasure=(3.0, 4.0), **args)


@pytest.mark.parametrize("strategy", ["small", "basic"])
@pytest.mark.parametrize("param, value", _cases("D", "r", "alpha", "s", "cap_mult", "grid_step"))
def test_harness_worst_placement(strategy, param, value, no_streams):
    args = dict(GOOD, **{param: _number(param, value)})
    with pytest.raises(PreconditionError, match=f"^{PARAMS[param][0]} must be "):
        harness.worst_placement(strategy, 2, **args)


class _Unwalkable(TrajectoryStream):
    def __init__(self):
        super().__init__((0.0, 0.0), None)

    def blocks(self):
        raise AssertionError("the stream was walked before the parameters were checked")


@pytest.mark.parametrize("param, value", _cases("r", "cap"))
def test_sim_run(param, value):
    r, cap = (_number(param, value), 1e4) if param == "r" else (0.5, _number(param, value))
    name = "vision radius" if param == "r" else "cost cap"
    with pytest.raises(PreconditionError, match=f"^{name} must be positive and finite, got "):
        run(_Unwalkable(), (3.0, 4.0), r, cap)


@pytest.mark.parametrize("param, value", _cases("D", "r", "grid_step", "cap"))
def test_sim_adversarial_placement(param, value):
    def factory(w):
        raise AssertionError("a stream was built before the parameters were checked")

    args = {"D": 8.0, "r": 0.5, "grid_step": 0.5, "cost_cap": 1e6}
    args["cost_cap" if param == "cap" else param] = float(value)
    name = "cost cap" if param == "cap" else PARAMS[param][0]
    with pytest.raises(PreconditionError, match=f"^{name} must be positive and finite, got "):
        adversarial_placement(factory, 2, **args)


@pytest.mark.parametrize("param, name", [("vision_radius", "vision radius"), ("tile_size", "tile size")])
@pytest.mark.parametrize("value", [0, -1.0, math.nan, math.inf, -math.inf, "x"])
def test_render_svg(param, name, value):
    scene = {"treasure": (1.0, 1.0), "sector": decode_sector("01", (0.0, 0.0)), "disc_radius": 4.0, param: value}
    with pytest.raises(PreconditionError, match=f"^{name} must be positive and finite, got {re.escape(repr(value))}$"):
        harness.render_svg(spiral(4.0, 1.0).materialize(), **scene)


@pytest.mark.parametrize("param, value", _cases("D", "r"))
@pytest.mark.parametrize("form", [str, float])
def test_shaded_tile_candidates(param, value, form):
    args = dict({"D": 8.0, "r": 0.5}, **{param: form(value)})
    with pytest.raises(PreconditionError, match=f"^{re.escape(_refusal(param, form(value)))}$"):
        shaded_tile_candidates(**args)


@pytest.mark.parametrize("param, value", _cases("D", "grid_step"))
@pytest.mark.parametrize("form", [str, float])
def test_disc_grid_candidates(param, value, form):
    args = dict({"D": 8.0, "grid_step": 0.5}, **{param: form(value)})
    with pytest.raises(PreconditionError, match=f"^{re.escape(_refusal(param, form(value)))}$"):
        disc_grid_candidates(**args)


def test_good_values_still_hunt():
    w, ceiling, outcome = harness.hunt("small", 2, 8.0, 0.5, 0.5, 2, 1e4, (0.0, 0.0), (3.0, 4.0))
    assert outcome.found and ceiling > 0
    assert run(spiral(4.0, 1.0), (1.0, 1.0), 0.5, 100.0).found
    assert adversarial_placement(lambda w: small_vision(1, w), 1, 6.0, 0.5, 0.5)[1] > 0


# The advice size z: one rule (advice.check_advice), read at every entry point.
BAD_Z = ("-1", "61", "1.5")


def _z_refusal(value):
    return f"advice size must be an integer in [0, 60], got {value!r}"


@pytest.mark.parametrize("value", BAD_Z)
@pytest.mark.parametrize("argv", [
    ["simulate", "--strategy", "small", "--treasure", "3,4", "--r", "0.5"],
    ["adversary", "--strategy", "small", "--D", "8", "--r", "0.5", "--grid-step", "0.5"],
    ["render", "--strategy", "small", "--treasure", "3,4", "--r", "0.5", "--arc", "10"],
], ids=["simulate", "adversary", "render"])
def test_cli_z(argv, value, capsys, tmp_path):
    out = tmp_path / "prefix.svg"
    if argv[0] == "render":
        argv = argv + ["--out", str(out)]
    assert main(argv + [f"--z={value}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: argument --z: {_z_refusal(value)}\n"
    assert not out.exists()


@pytest.mark.parametrize("value", BAD_Z)
def test_config_z(value):
    text = f"[sweep]\nstrategy = small\nz = 0 {value}\nD = list 8\nr = list 0.5\nplacement = random 1\n"
    with pytest.raises(PreconditionError) as err:
        parse_config(text)
    assert str(err.value) == f"config line 3: z = 0 {value}: {_z_refusal(value)}"


@pytest.mark.parametrize("strategy", ["small", "basic"])
@pytest.mark.parametrize("z", [-1, 61, 1.5, True])
def test_harness_hunt_z(strategy, z, no_streams):
    args = dict(GOOD)
    del args["grid_step"]
    with pytest.raises(PreconditionError, match=f"^{re.escape(_z_refusal(z))}$"):
        harness.hunt(strategy, z, start=(0.0, 0.0), treasure=(3.0, 4.0), **args)


@pytest.mark.parametrize("strategy", ["small", "basic"])
@pytest.mark.parametrize("z", [-1, 61, 1.5, True])
def test_harness_worst_placement_z(strategy, z, no_streams):
    with pytest.raises(PreconditionError, match=f"^{re.escape(_z_refusal(z))}$"):
        harness.worst_placement(strategy, z, **GOOD)


# The sector index of an advice string: an integer in [0, 2^z), read by as_integer; z takes the advice rule.
@pytest.mark.parametrize("j, z, message", [
    (8, 3, "sector index must be an integer in [0, 8), got 8"),
    (-1, 3, "sector index must be an integer in [0, 8), got -1"),
    (1, 0, "sector index must be an integer in [0, 1), got 1"),
    (True, 3, "sector index must be an integer in [0, 8), got True"),
    (1.0, 3, "sector index must be an integer in [0, 8), got 1.0"),
    ("1.5", 3, "sector index must be an integer in [0, 8), got '1.5'"),
    (None, 3, "sector index must be an integer in [0, 8), got None"),
    (1, 61, _z_refusal(61)),
    (0, -1, _z_refusal(-1)),
    (0, True, _z_refusal(True)),
])
def test_sector_advice(j, z, message):
    with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
        sector_advice(j, z)


def test_sector_advice_reads_its_integers():
    assert [sector_advice(j, z) for j, z in [(5, 3), ("5", "3"), (7, 3), (0, 0), (1, 1)]] == ["101", "101", "111", "", "1"]
