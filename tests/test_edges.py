"""Refusals and branches the rest of the suite does not reach: a treasure at
the start, the adversary's geometry refusals, malformed config lines and
points, degenerate polylines and blocks, and the byte output of the CLI's
coincident-treasure and trivial-bound lines."""

import math
import re

import numpy as np
import pytest

from planehunt import (
    Block,
    DegenerateInputError,
    Point2,
    Polyline,
    PreconditionError,
    adversarial_placement,
    bound_for,
    harness,
    parse_config,
    prefix_blocks,
    small_vision,
)
from planehunt.cli import main
from planehunt.sim import RunOutcome
from planehunt.traversal import blocks_to_polyline


@pytest.mark.parametrize("z", [0, 2])
@pytest.mark.parametrize("strategy", list(harness.STRATEGIES))
def test_hunt_accepts_a_treasure_at_the_start(strategy, z):
    start = (1.5, -2.0)
    w, ceiling, outcome = harness.hunt(strategy, z, 8.0, 0.5, 0.5, 2, 1e4, start, start)
    assert w == "0" * z
    assert outcome == RunOutcome(True, 0.0, Point2(*start), 0)
    assert ceiling == bound_for(strategy, z, 8.0, 0.5, 0.5, 2)


class TestAdversaryRefusals:
    def test_grid_step_that_does_not_resolve_the_start(self):
        far = (2.0**60, 0.0)
        message = "grid step 0.5 does not resolve coordinates at start (1.152921504606847e+18, 0.0)"
        with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
            adversarial_placement(lambda w: small_vision(1, w, far), 1, 4.0, 0.5, 0.5)

    def test_r_must_lie_below_D(self):
        with pytest.raises(PreconditionError, match=r"^adversarial search needs r < D, got D=2\.0 r=2\.0$"):
            adversarial_placement(lambda w: small_vision(1, w), 1, 2.0, 2.0, 0.5)


CONFIG = "[sweep]\nstrategy = small\nz = 0\n{}\nr = list 0.5\nplacement = random 1\n"


class TestConfigLines:
    @pytest.mark.parametrize("line, message", [
        ("D = logspace 1 8", "config line 4: d = logspace 1 8: logspace needs <lo> <hi> <count>"),
        ("D = list", "config line 4: d = list: empty value list"),
        ("D list 8", "config line 4: expected key = value"),
    ])
    def test_refused_line(self, line, message):
        with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
            parse_config(CONFIG.format(line))


class TestDegenerateGeometry:
    @pytest.mark.parametrize("args, message", [
        ((np.zeros((2, 3)),), "polyline needs an (n, 2) vertex array with n >= 1"),
        ((np.zeros((0, 2)),), "polyline needs an (n, 2) vertex array with n >= 1"),
        ((np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([1.0, 1.0])), "segment length array does not match vertex count"),
        ((np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([-1.0])), "segment lengths must be nonnegative"),
    ])
    def test_polyline_refusals(self, args, message):
        with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
            Polyline(*args)

    @pytest.mark.parametrize("x, y", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)])
    def test_point_must_be_finite(self, x, y):
        with pytest.raises(DegenerateInputError, match=r"^non-finite point "):
            Point2(x, y)

    def test_prefix_skips_an_empty_block(self):
        first = Block.of(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([1.0]))
        empty = Block.of(np.array([[1.0, 0.0]]), np.zeros(0))
        last = Block.of(np.array([[1.0, 0.0], [1.0, 2.0]]), np.array([2.0]))
        cut = prefix_blocks([first, empty, last], 2.0)
        assert [b.lengths.tolist() for b in cut] == [[1.0], [1.0]]
        assert cut[1].points.tolist() == [[1.0, 0.0], [1.0, 1.0]]

    def test_polyline_of_no_segments_is_the_start(self):
        empty = Block.of(np.array([[3.0, 4.0]]), np.zeros(0))
        for blocks in ([], [empty]):
            poly = blocks_to_polyline(blocks, (3.0, 4.0))
            assert poly.vertices.tolist() == [[3.0, 4.0]] and poly.segment_count == 0 and poly.length == 0.0


class TestCliLines:
    def test_malformed_point(self, capsys):
        assert main(["simulate", "--strategy", "small", "--z", "2", "--treasure", "1;1", "--r", "0.5"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "usage error: argument --treasure: a point must be a pair of numbers (x, y), got ['1;1']\n"
        )

    def test_simulate_at_the_start(self, capsys):
        argv = ["simulate", "--strategy", "small", "--z", "2", "--treasure", "1,1", "--start", "1,1", "--r", "0.5"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("treasure coincides with the start: found at cost 0\n", "")

    def test_render_at_the_start(self, capsys, tmp_path):
        out = tmp_path / "prefix.svg"
        argv = ["render", "--strategy", "small", "--z", "2", "--treasure", "1,1", "--start", "1,1", "--r", "0.5",
                "--arc", "10", "--out", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: treasure coincides with the start\n")
        assert not out.exists()

    def test_adversary_trivial_bound(self, capsys):
        argv = ["adversary", "--strategy", "large", "--z", "0", "--D", "10", "--r", "9.5", "--grid-step", "2"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == (
            "worst placement   (10, 0)\n"
            "worst cost        29.094875162046673\n"
            "trivial lower bound 0.5 (r >= 0.9 D)\n"
        )
