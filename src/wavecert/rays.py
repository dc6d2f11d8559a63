"""Bicharacteristic ray tracing for the principal symbol, as a geometric
diagnostic.

The Hamiltonian is ``H(x, xi) = 0.5 * sum a^{ij}(x) xi_i xi_j``; trajectories
follow ``dx/dt = dH/dxi`` and ``dxi/dt = -dH/dx`` under classical fixed-step
fourth-order integration.  A trace ends at the first boundary contact
(refined by bisection to 1e-9 in time, or to the spacing of doubles where
that is coarser) or at the horizon, to within 1e-15 of it, relative below a
horizon of 1; rays are not reflected.  Relative Hamiltonian drift above
1e-6 triggers step halving and a full retry, up to eight times.

A fan integrates all of its rays as one batch of ``(x, xi)`` rows.  Each
RK4 stage is one call of the straight-line kernel generated from a compiled
tape of Hamilton's equations without H, and the derivative at the new
states comes with H from a second tape, for the drift check; H is evaluated
only there, so an H that overflows at an intermediate stage alone does not
end the fan.  A step that fails is replayed through the interpreted tapes,
which raise the error.  Rays that escape leave the batch at once, and
after the pass's step loop all of its crossings are bisected together;
rays that fail the drift check leave it and re-run together at half the
step.  A ray's arithmetic does not depend on the rest of the batch, so
:func:`trace` is a fan of one ray.
"""

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .coeff import CoefficientField
from .domain import Region
from .errors import EvaluationError, RegionError, StepCollapseError
from .expr import Num, Var, add, compile, mul, neg

DRIFT_TOLERANCE = 1e-6
_TIME_REFINEMENT = 1e-9
_MAX_HALVINGS = 8
_DISTANCE_BATCH = 4096
_TWO = np.array(2.0)  # a 0-d array multiplies a batch faster than a scalar


@dataclass(frozen=True)
class RayState:
    """Position and covector on a bicharacteristic."""

    x: tuple
    xi: tuple


@dataclass(frozen=True)
class RayOutcome:
    """Escape-time summary of one traced ray."""

    escaped: bool
    escape_time: float | None
    min_boundary_distance: float
    hamiltonian_drift: float
    step_used: float
    path: np.ndarray | None = None  # (k, dim) sampled positions

    @property
    def label(self) -> str:
        return "escaped" if self.escaped else "trapped_until_horizon"


def _total(terms):
    """Sum of the terms left to right, as the ray equations accumulate them."""
    return reduce(add, terms, Num(0.0))


class _Flow:
    """The Hamiltonian flow of one field/region pair over a batch of rays.

    The state of a ray is one row ``(x, xi)`` of an ``(m, 2n)`` array, the
    covector in the variables ``x(n+1)..x(2n)``.  Hamilton's equations and H
    are written out as expressions over these 2n variables and compiled into
    one tape, so an RK4 stage is one kernel call for the whole batch.
    Terms with a literal zero coefficient fold away; the others are summed
    in index order.  The region tests these rows by their first n columns.
    """

    def __init__(self, field: CoefficientField, region: Region, consts):
        n = self.n = field.dim
        self.region = region
        self.consts = consts or {}
        a, da, xi = field.entries, field.partials, [Var(n + i) for i in range(1, n + 1)]
        pairs = [(i, j) for i in range(n) for j in range(n)]
        dx = [_total(mul(a[i][j], xi[j]) for j in range(n)) for i in range(n)]
        dxi = [
            mul(neg(Num(0.5)), _total(mul(mul(da[i][j][k], xi[i]), xi[j]) for i, j in pairs))
            for k in range(n)
        ]
        energy = mul(Num(0.5), _total(mul(mul(a[i][j], xi[i]), xi[j]) for i, j in pairs))
        self.equations = compile([*dx, *dxi, energy])
        self.stages = compile([*dx, *dxi])  # the same code without H's tail

    def derivatives(self, y):
        """Time derivatives (m, 2n) of the states y, and H (m,)."""
        values = self.equations(y, self.consts)
        return values[:, :-1], values[:, -1]

    def step(self, y, h, dy=None):
        """One RK4 step of size ``h``, a scalar or an (m, 1) column, through
        the interpreted stage tape, which skips H; ``dy`` is the derivative
        at ``y`` when already known.  :meth:`advance` replays a failed step
        through it."""
        k1 = self.stages(y, self.consts) if dy is None else dy
        k2 = self.stages(y + 0.5 * h * k1, self.consts)
        k3 = self.stages(y + 0.5 * h * k2, self.consts)
        k4 = self.stages(y + h * k3, self.consts)
        return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    def advance(self, y, h, dy, derive=True):
        """``step(y, h, dy)`` and, when ``derive``, ``derivatives`` at the
        new states: ``(y_new, dy_new, H)``, else ``(y_new,)``.

        The stages run through the stage tape's kernel and the end
        derivative through the full tape's, under one ``errstate``.  Only
        the new states and the end derivative are checked for finiteness: a
        non-finite stage reaches the new states, as does an overflow in the
        step's own arithmetic.  A guard hit or a non-finite value replays
        the step through :meth:`step` and :meth:`derivatives` under the same
        ``errstate``, so the tape raises its error at its row and the step's
        own overflow warns nowhere.
        """
        stage, consts = self.stages.kernel, self.consts
        k = np.empty((3, *y.shape))
        half, whole, sixth = np.asarray(0.5 * h), np.asarray(h), np.asarray(h / 6.0)
        with np.errstate(over="ignore", invalid="ignore"):
            done = (
                stage(y + half * dy, consts, k[0]) is not None
                and stage(y + half * k[0], consts, k[1]) is not None
                and stage(y + whole * k[1], consts, k[2]) is not None
            )
            if done:
                y_new = y + sixth * (dy + _TWO * k[0] + _TWO * k[1] + k[2])
                done = np.isfinite(y_new).all()
            if done and derive:
                end = self.equations.kernel(y_new, consts, np.empty((len(y), y.shape[1] + 1)))
                done = end is not None and np.isfinite(end).all()
            if not done:
                y_new = self.step(y, h, dy)
                return (y_new, *self.derivatives(y_new)) if derive else (y_new,)
        return (y_new, end[:, :-1], end[:, -1]) if derive else (y_new,)


class _Visits:
    """The positions each ray visits: their smallest boundary distance,
    evaluated in batches of about ``_DISTANCE_BATCH`` buffered rows, and the
    path when it is stored."""

    def __init__(self, flow: _Flow, count: int, store_paths: bool):
        self.flow = flow
        self.nearest = np.full(count, np.inf)
        self.steps = [] if store_paths else None  # (ids, positions) per add
        self.ids, self.rows, self.size = [], [], 0

    def add(self, ids, y):
        self.ids.append(ids)
        self.rows.append(y)
        self.size += len(ids)
        if self.steps is not None:
            self.steps.append((ids, y[:, : self.flow.n]))
        if self.size >= _DISTANCE_BATCH:
            self.flush()

    def flush(self):
        if self.ids:
            flow = self.flow
            dist = flow.region.boundary_distance(np.concatenate(self.rows), flow.consts)
            np.minimum.at(self.nearest, np.concatenate(self.ids), dist)
            self.ids, self.rows, self.size = [], [], 0

    def paths(self) -> dict:
        """Each stored ray's positions in visiting order, ``{id: (k, n)}``."""
        ids, rows = (np.concatenate(blocks) for blocks in zip(*self.steps))
        order = np.argsort(ids, kind="stable")
        cuts = np.flatnonzero(np.diff(ids[order])) + 1
        return dict(zip(ids[order][np.r_[0, cuts]].tolist(), np.split(rows[order], cuts)))


def trace(
    field: CoefficientField,
    region: Region,
    start: RayState,
    horizon: float,
    step: float,
    consts=None,
    store_path: bool = False,
) -> RayOutcome:
    """Integrate one ray until first boundary contact or the horizon.

    The start position must lie inside the region; the covector is
    normalized to energy one half before integration.  The accepted trace
    keeps relative Hamiltonian drift within 1e-6, halving the step and
    restarting when it does not; :class:`StepCollapseError` is raised after
    eight halvings.
    """
    flow = _Flow(field, region, consts)
    return _launch(flow, start.x, [start.xi], horizon, step, store_path)[0]


def _launch(flow: _Flow, x, xi0, horizon, step, store_paths):
    """Check the start point ``x`` and normalize the covectors (rows of
    ``xi0``), then trace a ray from ``x`` along each; returns one outcome per
    row."""
    if step <= 0.0 or horizon <= 0.0:
        raise ValueError("horizon and step must be positive")
    x = np.array(x, dtype=float)
    xi0 = np.array(xi0, dtype=float)
    if x.shape != (flow.n,):
        raise ValueError("start point dimension does not match the region")
    if xi0.shape[1:] != x.shape:
        raise ValueError("covector dimension does not match the region")
    if not flow.region.inside(x[None, :], flow.consts)[0]:
        raise RegionError(f"start point {tuple(x.tolist())} is outside the region")
    if not len(xi0):
        return []
    y = np.hstack([np.tile(x, (len(xi0), 1)), xi0])
    try:
        energy = flow.derivatives(y)[1]
        if not (energy > 0.0).all():
            raise EvaluationError("initial covector has nonpositive energy", x)
        y[:, flow.n :] = (1.0 / np.sqrt(2.0 * energy))[:, None] * xi0

        outcomes = [None] * len(y)
        ids = np.arange(len(y))
        h = float(step)
        for _ in range(_MAX_HALVINGS + 1):
            ids = _trace_pass(flow, y[ids], ids, horizon, h, store_paths, outcomes)
            if not ids.size:
                return outcomes
            h *= 0.5
    except EvaluationError as exc:  # the tapes read states (x, xi): name the position x
        if exc.point is None:
            raise
        raise type(exc)(exc.reason, exc.point[: flow.n]) from None
    raise StepCollapseError(
        f"drift above {DRIFT_TOLERANCE:g} even after {_MAX_HALVINGS} step halvings"
    )


def _trace_pass(flow: _Flow, y, ids, horizon, h, store_paths, outcomes):
    """One fixed-step pass of the rays ``ids`` from the states ``y``.

    Fills ``outcomes`` for the rays that escape or reach the horizon and
    returns the ids of those whose drift exceeded the tolerance; they leave
    the batch at that step.  An escaping ray leaves it too, and the pass
    bisects all of its crossings in one batch after the step loop.
    """
    dy, h_ref = flow.derivatives(y)
    drift_max = np.zeros(len(ids))
    visits = _Visits(flow, len(outcomes), store_paths)
    visits.add(ids, y)
    finished = {}  # id -> (escape time or None, largest drift)
    failed, escapes = [], []  # escapes: (ids, y, dy, t, h_step, drift_max) per step

    t, t_stop = 0.0, horizon - 1e-15 * min(1.0, horizon)  # relative below a horizon of 1
    while t < t_stop and ids.size:
        h_step = min(h, horizon - t)
        y_new, dy_new, energy = flow.advance(y, h_step, dy)
        drift = np.abs(energy - h_ref) / h_ref
        ok = ~(drift > DRIFT_TOLERANCE)
        drift_max = np.maximum(drift_max, drift)
        stay = flow.region.inside(y_new, flow.consts, ok)
        if np.count_nonzero(stay) < len(stay):  # some ray escapes or drifts
            out = ok & ~stay
            if out.any():
                when = np.full((np.count_nonzero(out), 2), (t, h_step))  # start, size
                escapes.append((ids[out], y[out], dy[out], *when.T, drift_max[out]))
            failed.extend(ids[~ok].tolist())
            ids, y_new, dy_new, h_ref, drift_max = (
                v[stay] for v in (ids, y_new, dy_new, h_ref, drift_max)
            )
        y, dy, t = y_new, dy_new, t + h_step
        visits.add(ids, y)

    if escapes:
        out, y_in, dy_in, t_in, h_in, d = (np.concatenate(v) for v in zip(*escapes))
        t_cross, y_in = _refine_crossing(flow, y_in, dy_in, t_in, h_in)
        visits.add(out, y_in)
        finished.update(zip(out.tolist(), zip(t_cross.tolist(), d.tolist())))
    finished.update(zip(ids.tolist(), ((None, d) for d in drift_max.tolist())))
    visits.flush()
    paths = {} if visits.steps is None else visits.paths()
    for r, (t_end, d) in finished.items():
        outcomes[r] = RayOutcome(
            escaped=t_end is not None,
            escape_time=t_end,
            min_boundary_distance=float(visits.nearest[r]),
            hamiltonian_drift=d,
            step_used=h,
            path=paths.get(r),
        )
    return np.array(failed, dtype=int)


def _refine_crossing(flow: _Flow, y_in, dy_in, t_in, h_step):
    """Bisect each row's crossing time inside its step, from time ``t_in``
    of length ``h_step`` (per-row arrays), to 1e-9, or until the midpoint no
    longer moves in double precision, re-integrating from the row's last
    interior state each round."""
    lo = np.zeros(len(y_in))
    hi = h_step.copy()
    y_best = y_in.copy()
    pending = hi - lo > _TIME_REFINEMENT
    while pending.any():
        rows = np.flatnonzero(pending)
        mid = 0.5 * (lo[rows] + hi[rows])
        moves = (lo[rows] < mid) & (mid < hi[rows])
        (y_mid,) = flow.advance(y_in[rows], mid[:, None], dy_in[rows], derive=False)
        inside = flow.region.inside(y_mid, flow.consts)
        lo[rows[inside]] = mid[inside]
        hi[rows[~inside]] = mid[~inside]
        y_best[rows[inside]] = y_mid[inside]
        pending[rows] = moves & (hi[rows] - lo[rows] > _TIME_REFINEMENT)
    return t_in + hi, y_best


def fan(
    field: CoefficientField,
    region: Region,
    center,
    count: int,
    horizon: float,
    step: float,
    consts=None,
    store_paths: bool = False,
):
    """Trace ``count`` rays with deterministically enumerated directions.

    Directions are uniform on the unit circle in 2D (angles 2*pi*k/count)
    and a Fibonacci sphere in 3D; higher dimensions are not supported.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    dim = region.dim
    if dim not in (2, 3):
        raise RegionError("ray fans are enumerated in dimension 2 or 3 only")
    directions = []
    for k in range(count):
        if dim == 2:
            angle = 2.0 * math.pi * k / count
            directions.append((math.cos(angle), math.sin(angle)))
        else:
            # Fibonacci sphere: deterministic, near-uniform
            golden = (1.0 + math.sqrt(5.0)) / 2.0
            z = 1.0 - (2.0 * k + 1.0) / count
            r = math.sqrt(max(0.0, 1.0 - z * z))
            phi = 2.0 * math.pi * k / golden
            directions.append((r * math.cos(phi), r * math.sin(phi), z))
    flow = _Flow(field, region, consts)
    directions = np.reshape(directions, (count, dim))  # (0, dim) when there are none
    return _launch(flow, center, directions, horizon, step, store_paths)
