"""Harness tests: config parsing, the documented LCG, CSV sweeps, SVG output,
and the CLI exit-code contract."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from planehunt import (
    BudgetExceededError,
    Lcg64,
    Polyline,
    PreconditionError,
    StreamChainError,
    bound_for,
    build_stream,
    parse_config,
    regime_of,
    render_svg,
    rows_to_csv,
    spiral,
    sweep,
    sweep_cost_bound,
    write_csv,
)
from planehunt import harness
from planehunt.cli import main
from planehunt.bounds import SMALL_ENVELOPE_FACTOR, branch_count
from planehunt.harness import CSV_HEADER

GOOD_CONFIG = """
# three advice sizes against four ranges
[sweep]
strategy = basic
z = 0 2 4
D = list 4 8 16 32
r = list 1.0
alpha = 0.5
s = 3
placement = random 12345
cap_mult = 1e4
output = {out}
"""


class TestLcg:
    def test_documented_recurrence(self):
        rng = Lcg64(1)
        mask = (1 << 64) - 1
        state = 1
        for _ in range(5):
            state = (6364136223846793005 * state + 1442695040888963407) & mask
            assert rng.next_u64() == state

    def test_floats_are_unit_interval_53_bit(self):
        rng = Lcg64(99)
        mirror = Lcg64(99)
        for _ in range(100):
            f = rng.next_float()
            assert f == (mirror.next_u64() >> 11) * 2.0**-53
            assert 0.0 <= f < 1.0


class TestConfig:
    def test_parse_round_trip(self, tmp_path):
        cfg = parse_config(GOOD_CONFIG.format(out=tmp_path / "x.csv"))
        assert cfg.strategy == "basic"
        assert cfg.z_values == (0, 2, 4)
        assert cfg.d_values == (4.0, 8.0, 16.0, 32.0)
        assert cfg.r_values == (1.0,)
        assert cfg.placement == "random"
        assert cfg.seed == 12345

    def test_logspace_values(self):
        cfg = parse_config(
            "[sweep]\nstrategy = large\nz = 0\nD = logspace 10 1000 3\nr = list 9.5\n"
            "placement = explicit 0 5\n"
        )
        assert cfg.d_values == pytest.approx((10.0, 100.0, 1000.0))

    def test_missing_key_rejected(self):
        with pytest.raises(PreconditionError):
            parse_config("[sweep]\nstrategy = small\nz = 0\nD = list 4\n")

    def test_key_outside_section_rejected(self):
        with pytest.raises(PreconditionError):
            parse_config("strategy = small\n")

    def test_random_needs_seed(self):
        with pytest.raises(PreconditionError):
            parse_config(
                "[sweep]\nstrategy = small\nz = 0\nD = list 4\nr = list 0.5\nplacement = random\n"
            )


class TestSweep:
    def test_row_count_and_header(self, tmp_path):
        out = tmp_path / "rows.csv"
        cfg = parse_config(GOOD_CONFIG.format(out=out))
        rows = sweep(cfg)
        assert len(rows) == 12  # 3 advice sizes x 4 ranges
        write_csv(rows, out)
        text = out.read_text()
        assert text.splitlines()[0] == CSV_HEADER
        assert len(text.splitlines()) == 13

    def test_byte_identical_reproduction(self, tmp_path):
        cfg = parse_config(GOOD_CONFIG.format(out=tmp_path / "a.csv"))
        blob_a = rows_to_csv(sweep(cfg))
        blob_b = rows_to_csv(sweep(cfg))
        assert blob_a.encode() == blob_b.encode()

    def test_basic_rows_stay_below_the_sweep_bound(self, tmp_path):
        cfg = parse_config(GOOD_CONFIG.format(out=tmp_path / "b.csv"))
        for row in sweep(cfg):
            assert row.found
            assert row.ratio <= 1.0
            # the bound column must match an independent recomputation
            assert row.bound == pytest.approx(
                138.0 * (row.D**2 / (2.0**row.z * row.r) + row.D), rel=1e-12
            )

    def test_small_bound_column_recomputed(self):
        cfg = parse_config(
            "[sweep]\nstrategy = small\nz = 1 3\nD = list 6\nr = list 0.5\n"
            "placement = random 7\n"
        )
        for row in sweep(cfg):
            want = 2.0**20 * (
                row.D + row.D**2 / (2.0**row.z * row.r) * (math.log2(row.D) + math.log2(1 / row.r) + 2)
            )
            assert row.bound == pytest.approx(want, rel=1e-12)
            assert row.found

    def test_seventeen_digit_floats(self):
        cfg = parse_config(
            "[sweep]\nstrategy = large\nz = 0\nD = list 10\nr = list 9.5\nplacement = explicit 0 9.9\n"
        )
        text = rows_to_csv(sweep(cfg))
        row = text.splitlines()[1].split(",")
        assert float(row[9]) == sweep(cfg)[0].cost  # cost column round-trips exactly


class TestBounds:
    def test_regimes(self):
        assert regime_of(10.0, 0.5) == "small"
        assert regime_of(10.0, 3.0) == "medium"
        assert regime_of(10.0, 9.5) == "large"

    def test_bound_dispatch(self):
        assert bound_for("basic", 2, 8.0, 1.0, 0.5, 3) == sweep_cost_bound(2, 8.0, 1.0)
        assert bound_for("large", 0, 10.0, 9.5, 0.5, 3) == pytest.approx(116.0 * 0.5)
        med = bound_for("medium", 1, 8.0, 2.0, 0.5, 3)
        assert med == pytest.approx(
            2 * branch_count(0.5) * 2.0 ** (7 * 3) * sweep_cost_bound(1, 8.0, 2.0) * 8.0**0.5
        )
        assert bound_for("universal", 0, 10.0, 9.5, 0.5, 3) == pytest.approx(24 * 116.0 * 0.5)
        assert bound_for("small", 0, 8.0, 0.5, 0.5, 3) == pytest.approx(
            SMALL_ENVELOPE_FACTOR * (8 + (64 / 0.5) * (3 + 1 + 2))
        )

    def test_medium_ceiling_overflow_is_a_precondition_error(self):
        # 2**(7 s) leaves binary64 once 7 s >= 1024; at s = 146 the product rounds to inf.
        for s in (146, 200):
            with pytest.raises(PreconditionError):
                bound_for("medium", 2, 5.0, 1.5, 0.5, s)
        with pytest.raises(PreconditionError):
            bound_for("universal", 2, 5.0, 1.5, 0.5, 200)


class TestStrategyTable:
    def test_order_is_the_cli_order(self):
        assert tuple(harness.STRATEGIES) == ("small", "medium", "large", "universal", "basic")

    def test_an_unknown_name_gets_one_message_everywhere(self):
        messages = set()
        for call in (
            lambda: build_stream("zigzag", 0, "", 4.0, 1.0, 0.5, 3),
            lambda: bound_for("zigzag", 0, 4.0, 1.0, 0.5, 3),
            lambda: parse_config("[sweep]\nstrategy = zigzag\n"),
        ):
            with pytest.raises(PreconditionError) as err:
                call()
            messages.add(str(err.value))
        assert messages == {"unknown strategy 'zigzag'; pick one of ('small', 'medium', 'large', 'universal', 'basic')"}
        with pytest.raises(PreconditionError, match="unknown strategy"):
            bound_for(["small"], 0, 4.0, 1.0, 0.5, 3)  # an unhashable name is refused like any other

    def test_an_advice_check_comes_before_the_name_lookup(self):
        with pytest.raises(PreconditionError, match="advice"):
            bound_for("zigzag", -1, 4.0, 1.0, 0.5, 3)

    RAYS = {"small": 2, "medium": 2, "large": 0, "universal": 2, "basic": 2}

    @pytest.mark.parametrize("strategy", sorted(RAYS))
    def test_render_draws_the_sector_rays_iff_the_strategy_reads_advice(self, strategy, tmp_path):
        assert set(self.RAYS) == set(harness.STRATEGIES)
        out = tmp_path / "traj.svg"
        argv = ["render", "--strategy", strategy, "--z", "3", "--treasure", "1,2", "--r", "0.5", "--arc", "4",
                "--out", str(out), "--disc", "4", "--s", "3"]
        assert main(argv) == 0
        assert out.read_text().count("stroke-dasharray") == self.RAYS[strategy]


class TestSvg:
    def test_contains_scene_elements(self, tmp_path):
        from planehunt import decode_sector

        poly = spiral(4.0, 1.0).materialize()
        sector = decode_sector("111", (0.0, 0.0))  # last of 8 sectors
        out = tmp_path / "fig.svg"
        text = render_svg(
            poly,
            out,
            treasure=(2.0, 1.0),
            vision_radius=1.0,
            sector=sector,
            disc_radius=4.0,
            tile_size=1.0,
        )
        assert out.read_text() == text
        assert text.startswith('<?xml version="1.0"')
        assert 'version="1.1"' in text and "viewBox=" in text
        assert "<polyline" in text and "<circle" in text and "<line" in text and "A 4 4" in text

    def test_empty_trajectory_renders_markers_only(self):
        poly = Polyline(np.array([[0.0, 0.0]]))
        text = render_svg(poly, treasure=(1.0, 1.0), vision_radius=0.5)
        assert "<polyline" not in text
        assert "<circle" in text

    def test_segment_budget(self):
        poly = spiral(4.0, 1.0).materialize()
        import planehunt.harness as hz

        old = hz.MAX_RENDER_SEGMENTS
        hz.MAX_RENDER_SEGMENTS = 4
        try:
            with pytest.raises(BudgetExceededError):
                render_svg(poly)
        finally:
            hz.MAX_RENDER_SEGMENTS = old


class TestCli:
    def test_simulate_found_exits_zero(self, capsys):
        th = 5.5 * math.tau / 16
        q = f"{-3*math.sin(th)},{3*math.cos(th)}"
        code = main(["simulate", "--strategy", "small", "--z", "4", f"--treasure={q}", "--r", "0.5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "'0101'" in out
        assert "found             true" in out

    def test_simulate_missing_radius_exits_one(self, capsys):
        code = main(["simulate", "--strategy", "small", "--z", "0", "--treasure", "1,1"])
        assert code == 1

    def test_simulate_cap_hit_exits_two(self, capsys):
        code = main(
            ["simulate", "--strategy", "large", "--z", "0", "--treasure", "0,8", "--r", "0.5",
             "--cap-mult", "1e-4"]
        )
        assert code == 2

    def test_simulate_large_vision_case(self, capsys):
        code = main(["simulate", "--strategy", "large", "--z", "0", "--treasure", "0,10", "--r", "9.5"])
        out = capsys.readouterr().out
        assert code == 0
        cost = float(next(l for l in out.splitlines() if l.startswith("cost ")).split()[1])
        assert cost <= 116 * 0.5

    def test_simulate_medium_ceiling_overflow_exits_one(self, capsys):
        code = main(["simulate", "--strategy", "medium", "--z", "2", "--treasure", "3,4", "--r", "1.5",
                     "--s", "200"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_simulate_infinite_cap_exits_one_at_once(self):
        # The 138-ceiling overflows to inf at this range, so the cap would be inf
        # and the basic sweep would walk ~1e200 pieces; the timeout turns a
        # regression into a failure instead of a hang.
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "planehunt.cli", "simulate",
             "--strategy", "basic", "--z", "2", "--treasure", "1e200,1e200", "--r", "1.5"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr

    def test_render_infinite_arc_exits_one_at_once(self, tmp_path):
        # An infinite arc would pull blocks of the endless stream forever.
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        out = tmp_path / "x.svg"
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "planehunt.cli", "render",
             "--strategy", "small", "--z", "2", "--treasure", "1,1", "--r", "0.5", "--arc", "inf",
             "--out", str(out)],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("r", ["0", "-0.5", "nan", "inf"])
    def test_vision_radius_must_be_positive_and_finite(self, r, tmp_path, capsys):
        out = tmp_path / "x.svg"
        for argv in (
            ["simulate", "--strategy", "basic", "--z", "2", "--treasure", "3,4"],
            ["adversary", "--strategy", "basic", "--z", "2", "--D", "8", "--grid-step", "0.5"],
            ["render", "--strategy", "small", "--z", "2", "--treasure", "1,1", "--arc", "4", "--out", str(out)],
        ):
            assert main(argv + ["--r", r]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("usage error: argument --r: vision radius must be positive and finite")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize(
        "argv, what",
        [
            (["simulate", "--strategy", "basic", "--z", "2", "--treasure", "3,4", "--r", "0.5", "--D"],
             "argument --D: range bound"),
            (["adversary", "--strategy", "basic", "--z", "2", "--r", "0.5", "--grid-step", "0.5", "--D"],
             "argument --D: range bound"),
            (["render", "--strategy", "small", "--z", "2", "--treasure", "1,1", "--r", "0.5", "--arc", "4",
              "--out", "x.svg", "--disc"], "argument --disc: disc radius"),
        ],
        ids=["simulate --D", "adversary --D", "render --disc"],
    )
    def test_range_must_be_positive_and_finite(self, argv, what, value, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv + [value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: {what} must be positive and finite, got {value!r}\n"
        assert not any(tmp_path.iterdir())  # no SVG written

    def test_stream_chain_error_exits_one(self, monkeypatch, capsys):
        import planehunt.harness as harness

        def broken(*args, **kwargs):
            raise StreamChainError("block starts elsewhere")

        monkeypatch.setattr(harness, "run", broken)
        assert main(["simulate", "--strategy", "basic", "--z", "0", "--treasure", "3,4", "--r", "0.5"]) == 1
        assert capsys.readouterr().err == "error: block starts elsewhere\n"

    def test_unknown_strategy_exits_one(self):
        assert main(["simulate", "--strategy", "zigzag", "--z", "0", "--treasure", "1,1", "--r", "1"]) == 1

    def test_sweep_roundtrip(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        out = tmp_path / "rows.csv"
        cfg.write_text(GOOD_CONFIG.format(out=out))
        assert main(["sweep", str(cfg)]) == 0
        assert out.read_text().splitlines()[0] == CSV_HEADER

    def test_sweep_missing_config_exits_one(self):
        assert main(["sweep", "/nonexistent/path.cfg"]) == 1

    def test_adversary_runs(self, capsys):
        code = main(
            ["adversary", "--strategy", "medium", "--z", "1", "--D", "8", "--r", "1.6",
             "--grid-step", "1.5", "--s", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "worst cost" in out and "lower bound" in out

    def test_render_writes_svg(self, tmp_path):
        out = tmp_path / "traj.svg"
        code = main(
            ["render", "--strategy", "small", "--z", "3", "--treasure", "1,2", "--r", "0.5",
             "--arc", "40", "--out", str(out), "--disc", "4", "--tiles"]
        )
        assert code == 0
        assert out.read_text().startswith('<?xml')
