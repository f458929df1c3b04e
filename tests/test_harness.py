"""Harness tests: config parsing, the documented LCG, CSV sweeps, SVG output,
and the CLI exit-code contract."""

import dataclasses
import hashlib
import itertools
import math
import os
import re
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planehunt import (
    BudgetExceededError,
    DegenerateInputError,
    Lcg64,
    Polyline,
    PreconditionError,
    StreamChainError,
    TrajectoryStream,
    bound_for,
    build_stream,
    decode_sector,
    encode_advice,
    parse_config,
    regime_of,
    render_svg,
    rows_to_csv,
    small_vision,
    spiral,
    sweep,
    sweep_cost_bound,
    write_csv,
)
from planehunt import harness
from planehunt.advice import sector_advice
from planehunt.cli import build_parser, main
from planehunt.bounds import SMALL_ENVELOPE_FACTOR, branch_count
from planehunt.harness import CSV_HEADER
from planehunt.tiling import TileFrame
from planehunt.traversal import units

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

    @pytest.mark.parametrize(
        "line, message",
        [
            ("alpah = 0.3", "config line 7: unknown key 'alpah'"),
            ("capmult = 5", "config line 7: unknown key 'capmult'"),
            ("z = 4", "config line 7: key 'z' repeats line 3"),
            ("D = list 4", "config line 7: key 'd' repeats line 4"),
        ],
    )
    def test_unknown_and_repeated_keys_rejected(self, line, message):
        text = "[sweep]\nstrategy = small\nz = 0\nD = list 4\nr = list 0.5\nplacement = random 1\n" + line + "\n"
        with pytest.raises(PreconditionError) as err:
            parse_config(text)
        assert str(err.value).startswith(message)

    @pytest.mark.parametrize(
        "key, value, line",
        [
            ("z", "1.5", 3),
            ("D", "logspace 1 10 2.5", 4),
            ("r", "list 0.5 half", 5),
            ("placement", "random x", 6),
            ("placement", "explicit 1 y", 6),
            ("s", "3.0", 7),
            ("alpha", "0.5.1", 7),
        ]
        # Out of range: alpha and cap_mult must be positive and finite, s at least 1.
        + [(key, value, 7) for key in ("alpha", "s", "cap_mult") for value in ("0", "-1", "nan", "inf")]
        # So must every D and r value, and a logspace bound.
        + [(key, value, line) for key, line in (("D", 4), ("r", 5))
           for value in ("list 0", "list -1", "list nan", "list inf", "list 1e400", "logspace 1 inf 3")]
        # And the adversary's grid step.
        + [("placement", f"adversarial {value}", 6) for value in ("nan", "-1", "inf", "0")],
    )
    def test_malformed_numbers_rejected_with_their_line(self, key, value, line):
        lines = {"strategy": "small", "z": "0", "D": "list 4", "r": "list 0.5", "placement": "random 1"}
        lines[key] = value  # a new key goes last, on line 7
        text = "[sweep]\n" + "".join(f"{k} = {v}\n" for k, v in lines.items())
        with pytest.raises(PreconditionError, match=f"^config line {line}: {key.lower()} = {value}: "):
            parse_config(text)


class TestSweep:
    def test_every_cell_is_checked_before_the_first_row_runs(self, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "run", lambda *args: calls.append(args))
        cfg = parse_config("[sweep]\nstrategy = small\nz = 0\nD = list 64 0.25\nr = list 0.5\nplacement = random 1\n")
        with pytest.raises(PreconditionError, match="^sweep cell needs r <= D, got D=0.25 r=0.5$"):
            sweep(cfg)
        assert calls == []

    @pytest.mark.parametrize("number, integer", [(str, str), (np.float64, np.int64)], ids=["text", "numpy"])
    @pytest.mark.parametrize("text", [
        "strategy = universal\nz = 2\nD = list 8\nr = list 0.5\ns = 2\nplacement = random 3\n",
        "strategy = small\nz = 1\nD = list 4\nr = list 0.5\nplacement = adversarial 0.5\n",
    ], ids=["random", "adversarial"])
    def test_a_built_config_runs_on_the_values_its_rules_read(self, text, number, integer):
        plain = parse_config("[sweep]\n" + text)
        other = dataclasses.replace(
            plain, z_values=tuple(map(integer, plain.z_values)), d_values=tuple(map(number, plain.d_values)),
            r_values=tuple(map(number, plain.r_values)), alpha=number(plain.alpha), s=integer(plain.s),
            cap_mult=number(plain.cap_mult),
        )
        rows, want = sweep(other), sweep(plain)
        assert rows == want and rows_to_csv(rows) == rows_to_csv(want)
        assert [type(v) for v in dataclasses.astuple(rows[0])] == [type(v) for v in dataclasses.astuple(want[0])]

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

    def test_medium_ceiling_overflow_names_alpha_and_s(self):
        # Here ceil(1/alpha) = 1e300 overflows the product, not the scale step.
        with pytest.raises(PreconditionError, match="^the medium ceiling overflows binary64 at alpha 1e-300 and scale step 20$"):
            bound_for("medium", 2, 5.0, 1.5, 1e-300, 20)


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

    @pytest.mark.parametrize("disc", [-3.0, 0.0, math.inf, math.nan, "x"])
    @pytest.mark.parametrize("tiles", [None, 0.5], ids=["no-tiles", "tiles"])
    def test_disc_radius_takes_the_range_rule(self, disc, tiles):
        sector = decode_sector("01", (0.0, 0.0))
        with pytest.raises(PreconditionError, match="^disc radius must be positive and finite"):
            render_svg(spiral(4.0, 1.0).materialize(), sector=sector, disc_radius=disc, tile_size=tiles)

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


class TestTileGrid:
    """The tile grid of the sector frame: its bytes, its one frame mapping and its guard."""

    # z, (disc radius, tile size), start: 24 figures, each a 20-arc small-vision prefix in sector 1.
    FIGURES = list(itertools.product((2, 3, 5), ((4.0, 1.0), (10.0, 0.3), (7.5, 0.5), (100.0, 0.7)),
                                     ((0.0, 0.0), (3.25, -1.5))))
    SECTOR = decode_sector(sector_advice(1, 2), (3.25, -1.5))

    @staticmethod
    def _figure(z, disc, tile, start):
        w = sector_advice(1, z)
        return render_svg(small_vision(z, w, start).prefix(20.0), sector=decode_sector(w, start),
                          disc_radius=disc, tile_size=tile)

    def test_figures_keep_their_bytes(self):
        digest = hashlib.sha256()
        for z, (disc, tile), start in self.FIGURES:
            digest.update(self._figure(z, disc, tile, start).encode())
        assert digest.hexdigest() == "18042edae8fdd9f76112ca0d0ee4a195fb06e0cea78c5c839488c9151ddc93a9"

    def test_grid_is_mapped_by_one_frame_call(self, monkeypatch):
        calls = []
        to_world = TileFrame.to_world
        monkeypatch.setattr(TileFrame, "to_world", lambda frame, pts: calls.append(len(pts)) or to_world(frame, pts))
        lines = harness._tile_grid_svg(self.SECTOR, 10.0, 0.3, 0.01).count("<line ")
        assert lines == 35 + 36 and calls == [2 * lines]  # n + 1 columns and rows + 2 rows of 10 / 0.3

    def test_grid_over_the_render_guard_is_refused_before_it_is_built(self, monkeypatch):
        monkeypatch.setattr(TileFrame, "to_world", lambda *_: pytest.fail("the grid was mapped"))
        with pytest.raises(BudgetExceededError, match=r"^4e\+300 tile grid lines exceed the render guard 100000$"):
            harness._tile_grid_svg(self.SECTOR, 1e300, 0.5, 0.01)
        monkeypatch.setattr(harness, "MAX_RENDER_SEGMENTS", 70)
        with pytest.raises(BudgetExceededError, match="^71 tile grid lines"):
            harness._tile_grid_svg(self.SECTOR, 10.0, 0.3, 0.01)

    @pytest.mark.parametrize("disc, r", [("1e300", "0.5"), ("10000", "0.01")], ids=["disc-1e300", "disc-1e4-r-0.01"])
    def test_render_of_a_grid_over_the_guard_exits_one_at_once(self, disc, r, tmp_path):
        # Unguarded, the first grid never finishes and the second takes seconds and most of a GB.
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        out = tmp_path / "x.svg"
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "planehunt.cli", "render",
             "--strategy", "small", "--z", "2", "--treasure", "1,1", "--r", r, "--arc", "4",
             "--out", str(out), "--disc", disc, "--tiles"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "render guard" in proc.stderr and not out.exists()


# Radii and coordinates mixed with values a rule must refuse, or read, and extents past binary64.
_EDGES = (0, 0.0, -1.0, -1e308, math.nan, math.inf, -math.inf, 1e308, 1.7e308, "x", "0.5", np.float64(0.5), True)
_radii = st.one_of(st.none(), st.sampled_from(_EDGES), st.floats(0.05, 50.0))
_coordinates = st.one_of(st.sampled_from((0.0, -1.0, 1e308, -1e308, 1.7e308, -1.7e308)), st.floats(-50.0, 50.0))
# Treasures: numeric pairs, their text, and values the point reading must refuse (text, bools, non-pairs, overflow)
# or pass on to Point2's refusal of a non-finite coordinate.
_treasures = st.one_of(
    st.none(),
    st.tuples(_coordinates, _coordinates),
    st.tuples(_coordinates, _coordinates).map(lambda p: tuple(map(repr, p))),
    st.tuples(st.sampled_from(_EDGES), _coordinates),
    st.sampled_from(("12", "1,2", b"12", 5, 1.5, (1.0,), (1.0, 2.0, 3.0), (True, False), [np.True_, 1.0],
                     ("x", 1.0), ("1e400", 0.0), (2**2000, 0.0), np.array([1.0, 2.0]))),
)
_sectors = st.one_of(st.none(), st.builds(
    lambda z, i, apex: decode_sector(sector_advice(i % (1 << z), z), apex),
    st.integers(0, 5), st.integers(0, 31), st.tuples(_coordinates, _coordinates),
))
# Every number an SVG attribute holds: coordinates, sizes, path data (its letters dropped).
_NUMERIC = re.compile(r'\b(viewBox|x1|y1|x2|y2|cx|cy|r|stroke-width|stroke-dasharray|points|d)="([^"]*)"')


class TestSvgNumbers:
    """Every number a figure draws takes its rule: an SVG holds only finite numbers and positive radii, or the
    figure is refused with a PreconditionError (a bad radius or treasure), a DegenerateInputError (a treasure
    coordinate that reads as nan or infinite) or a BudgetExceededError (an extent past binary64)."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(treasure=_treasures, vision=_radii, disc=_radii, tile=_radii, sector=_sectors)
    def test_a_figure_holds_finite_numbers_or_is_refused(self, treasure, vision, disc, tile, sector):
        try:
            text = render_svg(spiral(4.0, 1.0).prefix(30.0), treasure=treasure, vision_radius=vision, sector=sector,
                              disc_radius=disc, tile_size=tile)
        except (PreconditionError, DegenerateInputError, BudgetExceededError):
            return
        for name, value in _NUMERIC.findall(text):
            numbers = [float(v) for v in re.split(r"[\s,]+", value) if v not in ("M", "A")]
            assert all(map(math.isfinite, numbers)), (name, value)
            if name in ("r", "stroke-width"):
                assert numbers[0] > 0.0, (name, value)

    @pytest.mark.parametrize("parameter", ["vision_radius", "tile_size"])
    def test_numpy_radii_are_read_as_the_float_they_hold(self, parameter):
        scene = dict(treasure=(1.0, 1.0), sector=decode_sector("01", (0.0, 0.0)), disc_radius=4.0)
        figure = partial(render_svg, spiral(4.0, 1.0).materialize(), **scene)
        assert figure(**{parameter: np.float64(0.5)}) == figure(**{parameter: 0.5})

    def test_a_tile_grid_past_binary64_is_refused(self):
        sector = decode_sector("01", (0.0, 0.0))
        with pytest.raises(BudgetExceededError, match="^the tile grid's extent overflows binary64$"):
            render_svg(spiral(4.0, 1.0).materialize(), sector=sector, disc_radius=4.0, tile_size=1.7e308)

    def test_a_huge_treasure_is_refused(self, tmp_path, capsys):
        out = tmp_path / "x.svg"
        argv = ["render", "--strategy", "large", "--z", "0", "--treasure", "1.7e308,0", "--r", "0.5", "--arc", "4",
                "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: the figure's extent overflows binary64")
        assert not out.exists()


class TestRenderPull:
    """The render prefix is pulled only up to the render guard, and the figures near it keep their bytes."""

    @staticmethod
    def _near_guard_arcs(z):
        """Nine arcs of the CLI's small-vision stream whose prefixes hold 98k to just over 10^5 segments:
        the midpoints of segments 98000, 99000, 99999, 100000, 100001, 100002 and 100500, the end of
        segment 100000, and a midpoint 50 segments past the block that crosses 10^5."""
        blocks = build_stream("small", z, encode_advice((0.0, 0.0), (1.0, 1.0), z), 2.0, 0.5, 0.5, 20).blocks()
        lengths = []
        while sum(map(len, lengths)) <= 10**5:
            lengths.append(next(blocks).lengths)
        crossing = sum(map(len, lengths))
        lengths.append(next(blocks).lengths)
        ends = np.cumsum(np.concatenate(lengths))
        mids = [float(0.5 * (ends[n - 2] + ends[n - 1])) for n in (98000, 99000, 99999, 10**5, 10**5 + 1, 10**5 + 2,
                                                                   100500, crossing + 50)]
        return mids + [float(ends[10**5 - 1])]

    @staticmethod
    def _exact_end(z, n):
        """The exact arc, in units, from the start of that stream to the end of its segment n."""
        walked = 0
        for block in build_stream("small", z, encode_advice((0.0, 0.0), (1.0, 1.0), z), 2.0, 0.5, 0.5, 20).blocks():
            if n <= block.lengths.size:
                return walked + block.arc(n)
            walked, n = walked + block.total, n - block.lengths.size

    def test_figures_near_the_guard_keep_their_bytes_and_refusals(self, tmp_path):
        """Pinned before the pull was bounded by the render guard: sha256 over each figure's bytes, or its
        refusal class.  Repinned when prefixes came to be cut on exact arcs: only the last arc's outcomes moved."""
        out = tmp_path / "x.svg"
        digest, outcomes = hashlib.sha256(), []
        for z in (0, 2, 3, 5):
            for arc in self._near_guard_arcs(z):
                args = build_parser().parse_args(["render", "--strategy", "small", "--z", str(z), "--treasure", "1,1",
                                                  "--r", "0.5", "--arc", repr(arc), "--out", str(out)])
                try:
                    args.handler(args)
                    digest.update(out.read_bytes())
                    outcomes.append("svg")
                    out.unlink()
                except BudgetExceededError:
                    digest.update(b"BudgetExceededError")
                    outcomes.append("refused")
        # The last arc, the float sum of the stored lengths to the end of segment 100000, lies past that end's
        # exact arc for z = 5 only, so there the prefix takes a piece of segment 100001.
        last = {0: "svg", 2: "svg", 3: "svg", 5: "refused"}
        assert outcomes == [outcome for z in (0, 2, 3, 5) for outcome in ["svg"] * 4 + ["refused"] * 4 + [last[z]]]
        for z in (0, 2, 3, 5):
            assert (units(self._near_guard_arcs(z)[-1]) > self._exact_end(z, 10**5)) == (last[z] == "refused")
        assert digest.hexdigest() == "cefdf041af852749a2e48e4d09e37b770bbb90fe250f8af8bb2c1a2327c8bec4"

    def test_the_pull_stops_at_the_render_guard(self):
        """At most MAX_RENDER_SEGMENTS segments are pulled before the last block, and a prefix whose last
        block is cut short is drawn as ``stream.prefix`` cuts it."""
        pulled = []

        def counted():
            for block in small_vision(2, "11").blocks():
                pulled.append(block.lengths.size)
                yield block

        with pytest.raises(BudgetExceededError, match="^stream exceeds 100000 segments$"):
            harness.render_prefix(TrajectoryStream((0.0, 0.0), counted), 1e12)
        assert sum(pulled[:-1]) <= harness.MAX_RENDER_SEGMENTS < sum(pulled)
        pulled.clear()
        cut = harness.render_prefix(TrajectoryStream((0.0, 0.0), counted), 2000.0)
        whole = small_vision(2, "11").prefix(2000.0)
        assert cut.vertices.tolist() == whole.vertices.tolist() and cut.length == whole.length
        assert sum(pulled[:-1]) < cut.segment_count <= sum(pulled)

    @pytest.mark.parametrize("arc", ["3e7", "7e7", "1e12"])
    def test_a_render_past_the_guard_exits_one_at_once(self, arc, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        out = tmp_path / "x.svg"
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "planehunt.cli", "render", "--strategy", "small",
             "--z", "2", "--treasure", "1,1", "--r", "0.5", "--arc", arc, "--out", str(out)],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 1
        assert proc.stderr == "error: stream exceeds 100000 segments\n" and not out.exists()


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
        assert proc.stderr.startswith("usage error: argument --arc") and "Traceback" not in proc.stderr
        assert not out.exists()

    def test_render_of_a_prefix_over_the_segment_budget_exits_one(self, tmp_path):
        # Without a budget the prefix would allocate until the address-space limit stops it.
        import resource

        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        out = tmp_path / "x.svg"
        proc = subprocess.run(
            [sys.executable, "-m", "planehunt.cli", "render", "--strategy", "small", "--z", "2",
             "--treasure", "1,1", "--r", "0.5", "--arc", "1e12", "--out", str(out)],
            capture_output=True, text=True, timeout=60, env=env,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)),
        )
        assert proc.returncode == 1
        assert proc.stderr == "error: stream exceeds 100000 segments\n"
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
