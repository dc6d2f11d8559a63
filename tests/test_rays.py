import math
import random
import warnings

import numpy as np
import pytest
from test_expr import negated_literals, raised
from test_fuzz import coefficient, expression

from wavecert import rays
from wavecert.coeff import build
from wavecert.domain import region
from wavecert.errors import (
    DomainError,
    EvaluationError,
    ExpOverflowError,
    RegionError,
    StepCollapseError,
)
from wavecert.rays import RayState, _Flow, fan, trace

SQRT2 = math.sqrt(2.0)


def identity_field():
    return build(["1", "1"], diagonal=True)


def example_field():
    return build(["1 + x1^2 + x2^2", "1 + x1^2 + x2^2"], diagonal=True)


# fans checked ray by ray against single traces
FAN_CASES = [
    # drift forces a halving on some rays only
    ("1 + x1^2 + x2^2", (0.3, 0.0), 20.0, 0.1, {0.05, 0.1}),
    # escaping and trapped rays in one fan
    ("exp(x1^2 + x2^2)", (1.0, 0.0), 5.0, 0.01, {0.01}),
    # crossings in a full step and in the horizon's shorter last step
    ("1", (1.0, 0.0), 1.05, 0.3, {0.3}),
]


def origin_disk():
    return region(2, [(-SQRT2, SQRT2)] * 2, ["x1^2 + x2^2 - 2"])


class TestTrace:
    def test_straight_ray_from_center(self):
        out = trace(
            identity_field(),
            origin_disk(),
            RayState(x=(0.0, 0.0), xi=(1.0, 0.0)),
            horizon=5.0,
            step=1e-3,
        )
        assert out.escaped
        assert out.escape_time == pytest.approx(SQRT2, abs=1e-6)
        assert out.hamiltonian_drift <= 1e-6

    def test_chord_lengths(self):
        # vertical chord through (0.5, 0): length to the circle of radius
        # sqrt(2) is sqrt(2 - 0.25) - 0 going up from the axis
        out = trace(
            identity_field(),
            origin_disk(),
            RayState(x=(0.5, 0.0), xi=(0.0, 1.0)),
            horizon=5.0,
            step=1e-3,
        )
        assert out.escaped
        assert out.escape_time == pytest.approx(math.sqrt(2.0 - 0.25), abs=1e-6)

    def test_direction_scale_invariance(self):
        # the covector is energy-normalized, so its magnitude cannot matter
        a = trace(
            identity_field(), origin_disk(),
            RayState(x=(0.1, -0.2), xi=(3.0, 4.0)), horizon=5.0, step=1e-3,
        )
        b = trace(
            identity_field(), origin_disk(),
            RayState(x=(0.1, -0.2), xi=(0.3, 0.4)), horizon=5.0, step=1e-3,
        )
        assert a.escape_time == pytest.approx(b.escape_time, abs=1e-12)

    def test_start_outside_rejected(self):
        with pytest.raises(RegionError, match="outside"):
            trace(
                identity_field(), origin_disk(),
                RayState(x=(2.0, 2.0), xi=(1.0, 0.0)), horizon=1.0, step=1e-2,
            )

    def test_energy_conservation_on_variable_field(self):
        out = trace(
            example_field(),
            origin_disk(),
            RayState(x=(0.3, -0.4), xi=(0.7, 0.7)),
            horizon=20.0,
            step=1e-2,
        )
        assert out.hamiltonian_drift <= 1e-6

    def test_time_reversal_identity_field(self):
        # integrate inside a big box (no boundary hit), flip the covector,
        # march back the same number of steps
        big = region(2, [(-50.0, 50.0), (-50.0, 50.0)])
        start = (0.3, -0.1)
        fwd = trace(
            identity_field(), big,
            RayState(x=start, xi=(0.6, 0.8)), horizon=1.0, step=1e-2,
            store_path=True,
        )
        assert not fwd.escaped
        end = tuple(fwd.path[-1])
        back = trace(
            identity_field(), big,
            RayState(x=end, xi=(-0.6, -0.8)), horizon=1.0, step=1e-2,
            store_path=True,
        )
        assert np.linalg.norm(np.array(back.path[-1]) - np.array(start)) < 1e-5

    def test_time_reversal_variable_field(self):
        big = region(2, [(-50.0, 50.0), (-50.0, 50.0)])
        field = example_field()
        start = (0.2, 0.3)
        fwd = trace(
            field, big, RayState(x=start, xi=(1.0, -0.5)),
            horizon=0.8, step=5e-3, store_path=True,
        )
        assert not fwd.escaped
        end_x = tuple(fwd.path[-1])
        # recover the outgoing covector by re-running the last state exactly
        flow_xi = _final_covector(field, big, start, (1.0, -0.5), 0.8, 5e-3)
        back = trace(
            field, big, RayState(x=end_x, xi=tuple(-v for v in flow_xi)),
            horizon=0.8, step=5e-3, store_path=True,
        )
        assert np.linalg.norm(np.array(back.path[-1]) - np.array(start)) < 1e-4

    def test_path_storage(self):
        out = trace(
            identity_field(), origin_disk(),
            RayState(x=(0.0, 0.0), xi=(1.0, 0.0)), horizon=5.0, step=1e-2,
            store_path=True,
        )
        assert out.path is not None and out.path.shape[1] == 2
        assert np.allclose(out.path[0], (0.0, 0.0))

    def test_min_boundary_distance_shrinks_with_launch_radius(self):
        field = example_field()
        dists = []
        for r0 in (0.0, 0.5, 1.0):
            out = trace(
                field, origin_disk(),
                RayState(x=(r0, 0.0), xi=(0.0, 1.0)), horizon=20.0, step=1e-2,
            )
            dists.append(out.min_boundary_distance)
        # escape terminates each ray at the rim, so all are small; the
        # diagnostic is reported, not asserted against theory
        print("min boundary distances by launch radius:", dists)


def _final_covector(field, reg, x0, xi0, horizon, step):
    """Re-run the integrator loop to recover the final covector state."""
    from wavecert.rays import _Flow

    flow = _Flow(field, reg, None)
    y = np.array([[*x0, *xi0]], dtype=float)  # a batch of one ray: x, then xi
    h0 = flow.derivatives(y)[1][0]
    scale = 1.0 / math.sqrt(2.0 * h0)
    y[:, 2:] = scale * y[:, 2:]
    t = 0.0
    while t < horizon - 1e-15:
        h_step = min(step, horizon - t)
        y = flow.step(y, h_step)
        t += h_step
    return tuple(y[0, 2:])


class TestShortHorizon:
    def test_horizon_below_the_old_absolute_tolerance_integrates(self):
        # the step loop ran while t < horizon - 1e-15, so a horizon of 1e-15
        # took no step and every ray was reported trapped at its start point
        box = region(2, [(-1e-16, 1e-16)] * 2)
        for horizon in (1e-15, 3e-15):
            outs = fan(identity_field(), box, (0.0, 0.0), 4, horizon, 1e-17, store_paths=True)
            assert all(o.escaped for o in outs)
            assert all(o.escape_time == pytest.approx(1e-16, rel=1e-6) for o in outs)
            assert all(len(o.path) > 1 for o in outs)


class TestFan:
    def test_symmetric_escape_times_identity(self):
        outs = fan(
            identity_field(), origin_disk(), (0.0, 0.0),
            count=8, horizon=5.0, step=1e-3,
        )
        times = [o.escape_time for o in outs]
        assert all(o.escaped for o in outs)
        assert all(t == pytest.approx(SQRT2, abs=1e-6) for t in times)

    def test_count_zero(self):
        assert fan(identity_field(), origin_disk(), (0.0, 0.0), 0, 1.0, 1e-2) == []

    def test_a_step_too_long_to_halve_into_tolerance_collapses(self):
        # eight halvings of a step of 64 still leave a step of 0.25, whose
        # energy drift exceeds the tolerance on the trapping field
        with pytest.raises(StepCollapseError, match="drift above 1e-06 even after 8 step halvings"):
            fan(example_field(), origin_disk(), (0.0, 0.0), 4, 20.0, 64.0)

    @pytest.mark.parametrize("count", [0, 3])
    def test_arguments_checked_for_any_count(self, count):
        with pytest.raises(ValueError, match="positive"):
            fan(identity_field(), origin_disk(), (0.0, 0.0), count, -1.0, 1e-2)
        with pytest.raises(RegionError, match="outside"):
            fan(identity_field(), origin_disk(), (1.5, 1.5), count, 1.0, 1e-2)
        with pytest.raises(ValueError, match="start point dimension"):
            fan(identity_field(), origin_disk(), (0.0, 0.0, 0.0), count, 1.0, 1e-2)

    def test_crossing_bisection_stops_at_the_spacing_of_doubles(self, monkeypatch):
        # the crossings lie ~6.7e7 into a step of 1e8, where doubles are
        # coarser than 1e-9: the bisection ends once its midpoint stops
        # moving, within a budget of steps instead of never
        advance, calls = _Flow.advance, []

        def budgeted(self, *args, **kwargs):
            calls.append(None)
            assert len(calls) <= 1000, "the crossing bisection does not end"
            return advance(self, *args, **kwargs)

        monkeypatch.setattr(_Flow, "advance", budgeted)
        box = region(2, [(-1e9, 1e9)] * 2)
        outs = fan(identity_field(), box, (33000000.5, 0.0), 4, 1e10, 1e8)
        expected = [1e9 - 33000000.5, 1e9, 1e9 + 33000000.5, 1e9]
        assert [o.escape_time for o in outs] == pytest.approx(expected, rel=1e-15)

    def test_boundary_distance_measured_to_the_margin(self):
        # inside the margin the rays escape at r = 0.9, so they end on the
        # boundary the region tests, not 0.1 inside the unit circle
        disk = region(2, [(-1.0, 1.0)] * 2, ["x1^2 + x2^2 - 1"], margin=0.19)
        outs = fan(identity_field(), disk, (0.0, 0.0), 4, 2.0, 1e-2)
        assert all(o.escape_time == pytest.approx(0.9, abs=1e-6) for o in outs)
        assert all(o.min_boundary_distance < 1e-6 for o in outs)

    def test_example_field_summary(self):
        outs = fan(
            example_field(), origin_disk(), (0.0, 0.0),
            count=8, horizon=20.0, step=1e-2,
        )
        assert len(outs) == 8
        assert all(o.hamiltonian_drift <= 1e-6 for o in outs)
        # execution output, reported for the record
        print("escape times:", [o.escape_time for o in outs])

    def test_deterministic(self):
        a = fan(example_field(), origin_disk(), (0.0, 0.0), 4, 5.0, 1e-2)
        b = fan(example_field(), origin_disk(), (0.0, 0.0), 4, 5.0, 1e-2)
        assert [o.escape_time for o in a] == [o.escape_time for o in b]

    @pytest.mark.parametrize("entry,center,horizon,step,steps_used", FAN_CASES)
    def test_matches_one_trace_per_direction(self, entry, center, horizon, step, steps_used):
        field = build([entry, entry], diagonal=True)
        outs = fan(field, origin_disk(), center, 8, horizon, step)
        assert {o.step_used for o in outs} == steps_used
        for k, out in enumerate(outs):
            angle = 2.0 * math.pi * k / 8
            alone = trace(
                field, origin_disk(),
                RayState(x=center, xi=(math.cos(angle), math.sin(angle))), horizon, step,
            )
            assert (out.escaped, out.step_used) == (alone.escaped, alone.step_used)
            assert out.escape_time == alone.escape_time
            assert out.min_boundary_distance == alone.min_boundary_distance
            assert out.hamiltonian_drift == alone.hamiltonian_drift

    def test_crossings_are_bisected_once_per_pass(self, monkeypatch):
        # the ray-gallery benchmark's fan: its 22 escaping rays leave on 8
        # different steps, and their crossings are bisected as one batch
        calls = {"_trace_pass": 0, "_refine_crossing": 0}
        for name in calls:
            def counted(*args, _inner=getattr(rays, name), _name=name):
                calls[_name] += 1
                return _inner(*args)

            monkeypatch.setattr(rays, name, counted)
        field = build(["exp(x1^2 + x2^2)"] * 2, diagonal=True)
        outs = fan(field, origin_disk(), (1.0, 0.0), 32, 20.0, 0.01)
        steps = {math.floor(o.escape_time / o.step_used) for o in outs if o.escaped}
        assert len(steps) == 8
        assert calls == {"_trace_pass": 1, "_refine_crossing": 1}

    @pytest.mark.parametrize("entry,center,horizon,step,steps_used", FAN_CASES)
    def test_stored_paths_match_one_trace_per_direction(
        self, entry, center, horizon, step, steps_used
    ):
        field = build([entry, entry], diagonal=True)
        outs = fan(field, origin_disk(), center, 8, horizon, step, store_paths=True)
        for k, out in enumerate(outs):
            angle = 2.0 * math.pi * k / 8
            alone = trace(
                field, origin_disk(),
                RayState(x=center, xi=(math.cos(angle), math.sin(angle))), horizon, step,
                store_path=True,
            )
            assert np.array_equal(out.path, alone.path)

    def test_fibonacci_fan_on_unit_ball(self):
        ball = region(3, [(-1.0, 1.0)] * 3, ["x1^2 + x2^2 + x3^2 - 1"])
        field = build(["1", "1", "1"], diagonal=True)
        outs = fan(field, ball, (0.0, 0.0, 0.0), count=12, horizon=3.0, step=1e-2)
        assert all(o.escaped for o in outs)
        assert all(o.escape_time == pytest.approx(1.0, abs=1e-6) for o in outs)

    def test_unsupported_dimension(self):
        f = build(["1", "1", "1", "1"], diagonal=True)
        r = region(4, [(-1.0, 1.0)] * 4)
        with pytest.raises(RegionError, match="dimension 2 or 3"):
            fan(f, r, (0.0,) * 4, 4, 1.0, 1e-2)


# fields whose compiled RK4 step is checked against the interpreted tape:
# the ray-gallery benchmark's, disk-trap's, the full 3-D field of the
# verify-3d benchmark, and one with a named constant
KERNEL_FIELDS = {
    "radial-exp": (["exp(x1^2 + x2^2)"] * 2, True, None),
    "disk-trap": (["1 + x1^2 + x2^2"] * 2, True, None),
    "full-3d": (
        [
            "2 + 0.3*sin(x1*x2)", "0.1*cos(x2)", "0.05*x3",
            "2 + 0.3*exp(-x2^2)", "0.1*sin(x1*x3)", "1.5 + log(1 + x1^2)/8",
        ],
        False,
        None,
    ),
    "named-constant": (["1 + mu*x1^2", "2 + mu*sin(x1*x2)"], True, {"mu": 0.5}),
}


def kernel_flow(entries, diagonal, consts):
    field = build(entries, diagonal=diagonal)
    return _Flow(field, region(field.dim, [(-2.0, 2.0)] * field.dim), consts)


def tape_advance(flow, y, h, dy, derive):
    """What ``_Flow.advance`` must return: the step through the interpreted
    tape and, when ``derive``, the derivatives at its end."""
    y_new = flow.step(y, h, dy)
    return (y_new, *flow.derivatives(y_new)) if derive else (y_new,)


def outcome(run):
    """The arrays ``run()`` returns, bit for bit, or its error's class,
    message and point; and the RuntimeWarnings it emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = [(v.shape, v.tobytes()) for v in run()]
        except EvaluationError as exc:
            result = (type(exc), str(exc), exc.point)
    return result, [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]


def step_sizes(rng, rows):
    """A scalar step and a per-row (m, 1) column of steps, as the crossing
    bisection uses."""
    return [0.01, rng.uniform(1e-4, 0.1, size=(rows, 1))]


class TestCompiledStep:
    def test_negative_literals_are_bound_as_literals(self):
        # the flow's -0.5 runs no negation per stage
        flow = kernel_flow(*KERNEL_FIELDS["radial-exp"])
        for tape in (flow.stages, flow.equations):
            assert negated_literals(tape) == []
        assert -0.5 in [value for _, value in flow.stages.literals]

    @pytest.mark.parametrize("name", KERNEL_FIELDS)
    def test_matches_the_tape_bit_for_bit(self, monkeypatch, name):
        flow = kernel_flow(*KERNEL_FIELDS[name])
        rng = np.random.default_rng(7)
        y = rng.uniform(-1.0, 1.0, size=(16, 2 * flow.n))
        dy = flow.derivatives(y)[0]
        cases = [(h, derive) for h in step_sizes(rng, len(y)) for derive in (True, False)]
        expected = [outcome(lambda: tape_advance(flow, y, h, dy, d)) for h, d in cases]

        def replay(*args):
            raise AssertionError("the compiled step replayed a sound step")

        monkeypatch.setattr(flow, "step", replay)
        assert [outcome(lambda: flow.advance(y, h, dy, d)) for h, d in cases] == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_tape_on_random_fields(self, seed):
        # fields from the config fuzzer: some steps succeed, some trip a
        # guard or go non-finite at some stage, and steps up to 1e12
        # overflow the step's own arithmetic
        rng, np_rng = random.Random(seed), np.random.default_rng(seed)
        compared = 0
        for _ in range(30):
            dim = rng.choice((2, 3))
            diagonal = rng.random() < 0.5
            if diagonal:
                entries = [coefficient(rng, dim) for _ in range(dim)]
            else:  # upper triangle, small off-diagonal parts
                entries = [
                    coefficient(rng, dim) if i == j else f"0.1*{expression(rng, dim, 2)}"
                    for i in range(dim)
                    for j in range(i, dim)
                ]
            flow = kernel_flow(entries, diagonal, {"c": rng.choice((0.5, -2.0, 1e300))})
            y = np_rng.uniform(-2.0, 2.0, size=(8, 2 * dim))
            try:
                dy = flow.derivatives(y)[0]
            except EvaluationError:
                continue
            for h in [*step_sizes(np_rng, len(y)), 10.0 ** np_rng.uniform(-3, 12, size=(8, 1))]:
                for derive in (True, False):
                    expected = outcome(lambda: tape_advance(flow, y, h, dy, derive))[0]
                    assert outcome(lambda: flow.advance(y, h, dy, derive)) == (expected, [])
            compared += 1
        assert compared >= 10

    def test_overflowing_step_matches_the_tape_without_warning(self):
        # a constant field's derivatives stay finite at an overflowed state,
        # so only the new states show that the step's arithmetic overflowed;
        # the replay repeats that arithmetic under the step's errstate
        flow = kernel_flow(["1e290", "1e290"], True, None)
        y = np.array([[0.5, 0.0, 1.0, 0.0], [0.0, 0.0, 1e8, 0.0]])
        dy = flow.derivatives(y)[0]
        for derive in (True, False):
            expected, warned = outcome(lambda: tape_advance(flow, y, 1e12, dy, derive))
            assert warned and "overflow" in warned[0]
            assert outcome(lambda: flow.advance(y, 1e12, dy, derive)) == (expected, [])

    def test_intermediate_stage_h_is_not_evaluated(self):
        # at |xi|^2 = 1.2e308 the sum inside H overflows at the fourth stage,
        # where the coefficient reaches 1.2, but not at the step's end; the
        # stages skip H, so the step goes through
        flow = kernel_flow(["1 + 0.2*sin(x1)^2"] * 2, True, None)
        xi = math.sqrt(0.6e308)
        y, h = np.array([[0.0, 0.0, xi, xi]]), math.pi / xi
        dy = flow.stages(y, {})
        stage4 = y + h * flow.stages(y + 0.5 * h * flow.stages(y + 0.5 * h * dy, {}), {})
        assert raised(lambda: flow.derivatives(stage4))[1].startswith("non-finite result")
        for derive in (True, False):
            result, warned = outcome(lambda: flow.advance(y, h, dy, derive))
            assert result == outcome(lambda: tape_advance(flow, y, h, dy, derive))[0]
            assert isinstance(result, list) and not warned
        assert 0.0 < flow.advance(y, h, dy)[2][0] < np.inf

    def test_non_finite_h_at_the_step_end_raises(self):
        # the sum inside H overflows at every state of this step, so the end
        # derivative raises the tape's error, while a step without it passes
        flow = kernel_flow(["1", "1"], True, None)
        xi = math.sqrt(0.95e308)
        y = np.array([[0.0, 0.0, xi, xi]])
        dy = flow.stages(y, {})
        expected = raised(lambda: tape_advance(flow, y, 1e-160, dy, True))
        assert expected[0] is DomainError and expected[1].startswith("non-finite result")
        assert raised(lambda: flow.advance(y, 1e-160, dy, True)) == expected
        assert isinstance(outcome(lambda: flow.advance(y, 1e-160, dy, False))[0], list)

    @pytest.mark.parametrize(
        "entry,rows,h,error,stage",
        [
            # the third stage's state passes x1 = log(1e300) on the middle row
            ("exp(x1)", [[0.0, 0.0, 1.0, 0.0], [690.0, 0.0, 1.0, 0.0], [689.0, 0.0, 1.0, 0.0]],
             1.4 * math.exp(-690.0), ExpOverflowError, 3),
            # the fourth stage's state crosses x1 = 0 on the last row
            ("1 + log(x1)^2", [[0.5, 0.0, -1.0, 0.0], [0.01, 0.0, -1.0, 0.0]],
             5e-4, DomainError, 4),
        ],
        ids=["exp-guard-at-stage-3", "log-non-positive-at-stage-4"],
    )
    def test_errors_are_the_tapes(self, monkeypatch, entry, rows, h, error, stage):
        flow = kernel_flow([entry, "1"], True, None)
        y = np.array(rows)
        dy = flow.derivatives(y)[0]
        calls = []
        stages = flow.stages
        with monkeypatch.context() as patch:
            patch.setattr(flow, "stages", lambda y, consts: calls.append(y) or stages(y, consts))
            with pytest.raises(error) as tape:
                flow.step(y, h, dy)
        assert len(calls) == stage - 1  # the stage whose evaluation raised
        for derive in (True, False):
            with pytest.raises(error) as compiled:
                flow.advance(y, h, dy, derive)
            assert (str(compiled.value), compiled.value.point) == (str(tape.value), tape.value.point)
