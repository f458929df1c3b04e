"""planehunt: deterministic planar treasure-hunt strategies with exact cost accounting.

A mobile agent starts at a point of the plane and must reach the (hidden)
treasure's vision disc of radius r; the treasure lies within an unknown range
D.  An oracle may pass the agent a short binary advice string naming the
angular sector that contains the treasure.  This package implements the
sector advice scheme, the tiling sweeps and search spirals that exploit it,
the small/medium/large-vision strategies and their regime-oblivious merge,
exact trajectory-length simulation, and the explicit lower-bound formulas the
strategies are measured against.
"""

from .advice import AdviceString, SectorSpec, decode_sector, encode_advice, sector_index
from .bounds import (
    LowerBoundReport,
    lower_bounds,
    medium_regime_lower_bound,
    regime_of,
    sweep_cost_bound,
    tile_count_bound,
)
from .errors import (
    BudgetExceededError,
    DegenerateInputError,
    PreconditionError,
    StreamChainError,
)
from .geom import (
    DETECTION_TOL,
    ORIGIN,
    Point2,
    Polyline,
    Radians,
    ccw_angle_from_north,
    direction_of,
)
from .harness import (
    ExperimentConfig,
    Lcg64,
    SweepRow,
    bound_for,
    build_stream,
    hunt,
    parse_config,
    render_prefix,
    render_svg,
    rows_to_csv,
    sweep,
    worst_placement,
    write_csv,
)
from .sim import RunOutcome, adversarial_placement, run
from .strategies import (
    DEFAULT_ALPHA,
    DEFAULT_SCALE_STEP,
    Dot,
    DotSchedule,
    FillEvent,
    dots_of_column,
    fill_events,
    hypothesis_sweep,
    large_vision,
    medium_schedule,
    medium_vision,
    multi_agent_stream,
    small_vision,
    special_dot,
    universal,
)
from .tiling import TileFrame, column_count, count_tiles
from .traversal import (
    Block,
    RoundTrip,
    TrajectoryStream,
    basic_cost,
    basic_traversal,
    phase_trips,
    prefix_blocks,
    round_trip_blocks,
    spiral,
)

__version__ = "0.1.0"
