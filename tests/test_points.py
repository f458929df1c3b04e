"""One reading per point and per arc: every entry point reads a point with ``geom.as_point`` and a prefix arc
with ``errors.nonnegative_finite``, and goes on with what they return.  Hostile points and arcs (text, bools,
text pairs such as ``"12"``, pairs of the wrong length, nan, infinities, ``"1e400"``, ``2**2000``) get an
answer or a typed error, never a raw one, in the library and on the command line."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planehunt import (
    BudgetExceededError,
    DegenerateInputError,
    Point2,
    PreconditionError,
    build_stream,
    encode_advice,
    harness,
    parse_config,
    phase_trips,
    render_prefix,
    render_svg,
    run,
    small_vision,
    spiral,
)
from planehunt.errors import as_real, nonnegative_finite
from planehunt.geom import as_point
from planehunt.traversal import units

TYPED = (PreconditionError, BudgetExceededError, DegenerateInputError)

# Scalars no rule reads as a coordinate or an arc, or reads as nan or an infinity.
HOSTILE = ("x", "", "12", "1,2", "True", "nan", "inf", "-inf", "1e400", "-1e400", True, False, np.True_, None,
           math.nan, math.inf, -math.inf, 2**2000, -(2**2000), 1j, (1.0,))
_coordinates = st.one_of(st.floats(-50.0, 50.0), st.integers(-50, 50), st.floats(-50.0, 50.0).map(repr),
                         st.sampled_from(HOSTILE))


class _Iterable:
    """A pair given as an iterable that is no sequence; it can be read more than once."""

    def __init__(self, items):
        self.items = items

    def __iter__(self):
        return iter(self.items)

    def __repr__(self):
        return f"_Iterable({self.items!r})"


_points = st.one_of(
    st.tuples(_coordinates, _coordinates),
    st.lists(_coordinates, max_size=4),
    st.tuples(_coordinates, _coordinates).map(_Iterable),
    st.sampled_from(("12", "1,2", "", b"12", 5, 1.5, True, Point2(1.0, 2.0), np.array([1.0, 2.0]),
                     np.array([[1.0, 2.0]]), np.array([1.0, 2.0, 3.0]))),
)
_arcs = st.one_of(st.floats(0.0, 200.0), st.floats(0.0, 200.0).map(repr), st.integers(0, 200),
                  st.sampled_from(HOSTILE + (-1.0, "-1", 1e300, "1e300", np.float64(3.5), np.int64(7))))


def _outcome(call):
    """``("ok", value)``, or the class and message of a typed refusal; any other error fails the test."""
    try:
        return "ok", call()
    except TYPED as exc:
        return type(exc), str(exc)


def _reading(p):
    return _outcome(lambda: as_point(p))


class TestPointReading:
    @pytest.mark.parametrize("p, expected", [
        (("1", "2"), (1.0, 2.0)),
        ([" 3 ", "-4e0"], (3.0, -4.0)),
        ((np.float64(0.5), np.int64(2)), (0.5, 2.0)),
        (np.array([1.5, -2.0]), (1.5, -2.0)),
        (iter((1, 2)), (1.0, 2.0)),
        ((1, 2**60), (1.0, 2.0**60)),
    ])
    def test_pairs_of_numbers_are_read(self, p, expected):
        point = as_point(p)
        assert (type(point.x), type(point.y), tuple(point)) == (float, float, expected)

    def test_a_point_passes_through(self):
        p = Point2(1.0, 2.0)
        assert as_point(p) is p

    @pytest.mark.parametrize("p", ["12", "", b"12", 5, 1.5, None, True, (True, False), (1.0, np.True_), ("x", 2),
                                   (1, 2, 3), (1,), (), (2**2000, 0.0), (1j, 0.0), ((1.0,), 2.0), np.array([[1.0, 2.0]])],
                             ids=repr)
    def test_anything_else_is_refused_showing_the_value(self, p):
        with pytest.raises(PreconditionError, match=r"^a point must be a pair of numbers \(x, y\), got "):
            as_point(p)

    @pytest.mark.parametrize("p", [(math.nan, 1.0), ("inf", 0.0), ("1e400", 0.0), (0.0, -math.inf)])
    def test_a_non_finite_coordinate_is_degenerate(self, p):
        with pytest.raises(DegenerateInputError, match="^non-finite point"):
            as_point(p)

    def test_at_most_three_items_are_looked_at(self):
        pulled = []
        with pytest.raises(PreconditionError):
            as_point(pulled.append(i) or float(i) for i in itertools.count())
        assert pulled == [0, 1, 2]

    def test_the_real_reading(self):
        assert [as_real(v) for v in (2, "2.5", " -1e3 ", np.float32(0.5), np.int8(3), "1e400")] == [
            2.0, 2.5, -1000.0, 0.5, 3.0, math.inf
        ]
        assert [as_real(v) for v in (True, np.False_, "x", "", None, 2**2000, 1j, (1.0,), [1.0])] == [None] * 9


class TestEntryPoints:
    """Each entry point that takes a point refuses it as ``as_point`` does, before any work."""

    ENTRY_POINTS = {
        "run": lambda p: run(spiral(4.0, 1.0), p, 0.5, 100.0),
        "harness.hunt treasure": lambda p: harness.hunt("basic", 2, 8.0, 0.5, 0.5, 2, 1.0, (0.0, 0.0), p),
        "harness.hunt start": lambda p: harness.hunt("basic", 2, 8.0, 0.5, 0.5, 2, 1.0, p, (3.0, 4.0)),
        "encode_advice": lambda p: encode_advice((0.0, 0.0), p, 3),
        "small_vision": lambda p: small_vision(2, "00", p),
        "build_stream": lambda p: build_stream("medium", 2, "01", 8.0, 0.5, 0.5, 2, p),
        "render_svg": lambda p: render_svg(spiral(4.0, 1.0).materialize(), treasure=p, vision_radius=0.5),
    }

    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    @pytest.mark.parametrize("p", ["12", (True, False), 5, ("x", 2), (1, 2, 3), (math.nan, 1.0)], ids=repr)
    def test_a_bad_point_is_refused_as_the_reading_refuses_it(self, entry, p):
        assert _outcome(lambda: self.ENTRY_POINTS[entry](p)) == _reading(p)

    def test_the_motivating_hunt_is_refused(self):
        # "12" once hunted a treasure at (1, 2) and reported it found.
        with pytest.raises(PreconditionError, match="got '12'$"):
            run(spiral(4.0, 1.0), "12", 1.0, 100.0)


class TestArcReading:
    STREAM = staticmethod(lambda: build_stream("small", 2, "01", 2.0, 0.5, 0.5, 2))

    @pytest.mark.parametrize("arc", [True, np.True_, 2**2000, "x", "", None, -1.0, "-0.5", math.nan, "inf",
                                     math.inf, "1e400", (5.0,)], ids=repr)
    def test_bad_arcs_are_refused(self, arc):
        stream = self.STREAM()
        for cut in (stream.prefix, lambda a: render_prefix(stream, a), lambda a: list(phase_trips([stream], [a]))):
            with pytest.raises(PreconditionError, match=r"^prefix arc must be nonnegative and finite, got "):
                cut(arc)

    def test_phase_trip_arcs_are_read_before_they_are_compared(self):
        stream = spiral(4.0, 1.0)
        trips = list(phase_trips([stream], ["2", 3.0]))
        assert trips and sum(block.total for block in trips) == units(2.0 * (2.0 + 3.0))
        with pytest.raises(PreconditionError, match="^phase trip arcs must not shrink, got 1.0 after 2.0$"):
            list(phase_trips([stream], ["2", "1"]))


class TestFuzzGate:
    """Hostile points and arcs at every entry point: an answer, or a PreconditionError, BudgetExceededError or
    DegenerateInputError; the refusals are the readings' own."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(p=_points, q=_points)
    def test_points(self, p, q):
        reading = _reading(p)
        for call in (
            lambda: run(spiral(4.0, 1.0), p, 0.5, 100.0),
            lambda: render_svg(spiral(4.0, 1.0).prefix(30.0), treasure=p, vision_radius=0.5),
            lambda: build_stream("small", 2, "01", 2.0, 0.5, 0.5, 2, p).prefix(10.0),
        ):
            outcome = _outcome(call)
            assert outcome == reading if reading[0] != "ok" else outcome[0] == "ok"
        # The start is read before the treasure.
        hunt = _outcome(lambda: harness.hunt("basic", 2, 8.0, 0.5, 0.5, 2, 1.0, p, q))
        first_refusal = next((r for r in (reading, _reading(q)) if r[0] != "ok"), None)
        assert hunt == first_refusal if first_refusal else hunt[0] == "ok"

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(arc=_arcs)
    def test_arcs(self, arc):
        reading = _outcome(lambda: nonnegative_finite("prefix arc", arc))
        finite = build_stream("basic", 2, "01", 8.0, 0.5, 0.5, 2)
        endless = build_stream("small", 2, "01", 2.0, 0.5, 0.5, 2)
        for cut in (finite.prefix, lambda a: render_prefix(finite, a), lambda a: render_prefix(endless, a)):
            outcome = _outcome(lambda: cut(arc))
            if reading[0] != "ok":
                assert outcome == reading
            elif outcome[0] == "ok":
                assert outcome[1].vertices.tolist() == cut(reading[1]).vertices.tolist()
            else:
                assert outcome[0] is BudgetExceededError

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(coords=st.lists(st.one_of(st.floats(-50.0, 50.0).map(repr), st.sampled_from(
        tuple(filter(lambda v: isinstance(v, str) and v and "," not in v, HOSTILE)) + ("1e-3", "+7", "0x10"))), max_size=3))
    def test_config_placements(self, coords):
        text = "[sweep]\nstrategy = small\nz = 2\nD = list 8\nr = list 0.5\nplacement = explicit " + " ".join(coords)
        outcome = _outcome(lambda: parse_config(text).treasure)
        reading = _reading(coords) if len(coords) == 2 else (PreconditionError, "placement must be explicit x y")
        if reading[0] == "ok":
            assert outcome == reading
        else:
            assert outcome[0] is PreconditionError and reading[1] in outcome[1]

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(value=st.text(max_size=24))
    def test_free_text_placements(self, value):
        _outcome(lambda: parse_config(f"[sweep]\nstrategy = small\nz = 2\nD = list 8\nr = list 0.5\nplacement = {value}\n"))


_SMALL = ["--strategy", "small", "--z", "2", "--r", "0.5"]
_CLI = [
    (["simulate", *_SMALL, "--treasure", "12"], 1, "usage error: argument --treasure"),
    (["simulate", *_SMALL, "--treasure", "nan,1"], 1, "usage error: argument --treasure"),
    (["simulate", *_SMALL, "--treasure", "1e400,0"], 1, "usage error: argument --treasure"),
    (["simulate", *_SMALL, "--treasure", "True,False"], 1, "usage error: argument --treasure"),
    (["simulate", *_SMALL, "--treasure", "1,2,3"], 1, "usage error: argument --treasure"),
    (["simulate", *_SMALL, "--treasure", "1,1", "--start=-inf,0"], 1, "usage error: argument --start"),
    (["simulate", *_SMALL, "--treasure", " 1 , 1 "], 0, ""),
    (["render", *_SMALL, "--treasure", "1,1", "--arc", "x"], 1, "usage error: argument --arc"),
    (["render", *_SMALL, "--treasure", "1,1", "--arc", "1e400"], 1, "usage error: argument --arc"),
    (["render", *_SMALL, "--treasure", "1,1", "--arc=-1"], 1, "usage error: argument --arc"),
    (["render", *_SMALL, "--treasure", "1,1", "--arc", "True"], 1, "usage error: argument --arc"),
    (["render", *_SMALL, "--treasure", "1,1", "--arc", " 5 "], 0, ""),
]


@pytest.mark.parametrize("argv, code, prefix", _CLI, ids=[" ".join(argv[0:1] + argv[-2:]) for argv, _, _ in _CLI])
def test_cli(argv, code, prefix, tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    out = tmp_path / "x.svg"
    if argv[0] == "render":
        argv = argv + ["--out", str(out)]
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "planehunt.cli", *argv],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode in (0, 1, 2) and "Traceback" not in proc.stderr
    assert proc.returncode == code and proc.stderr.startswith(prefix)
    if code == 1:
        assert proc.stderr.count("\n") == 1 and proc.stdout == "" and not out.exists()


def test_a_far_finite_treasure_gets_an_answer_or_a_typed_error():
    _outcome(lambda: run(spiral(4.0, 1.0), (1.7e308, -1.7e308), 0.5, 100.0))
    _outcome(lambda: harness.hunt("small", 2, 8.0, 0.5, 0.5, 2, 10.0, (1e308, 0), (-1.7e308, 1.7e308)))
