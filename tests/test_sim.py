import numpy as np
import pytest

from symquant.abstraction import (TransitionSystem, build_timedelay,
                                  transition_arrays)
from symquant.dynamics import SampledCurve, TimeDelaySystem, integrate_delay
from symquant.frr import RefinementMap
from symquant.sim import (Trajectory, TrajectorySample, export_trajectory,
                          run_closed_loop, validate_path)
from symquant.synthesis import (Controller, Specification, synthesize_reach,
                                synthesize_sequence)


@pytest.fixture(scope="module")
def alternation(pendulum_ts):
    """The five-block waypoint sequence S1 S1 S2 S1 S1 on the coarse lattice."""
    phi = 0.48
    part = pendulum_ts.partition
    cid = lambda x, y: part.locate(np.array([x, y]))
    s1 = [cid(0, 0), cid(-phi, 0)]
    s2 = [cid(0, phi), cid(phi, 0), cid(0, -phi), cid(-phi, 0)]
    legs = s1 + s1 + s2 + s1 + s1
    spec = Specification("sequence", [(q,) for q in legs])
    return synthesize_sequence(pendulum_ts, spec, mode="hold")


def test_alternation_run_completes(pendulum, pendulum_ts, alternation):
    F = RefinementMap.from_ts(pendulum_ts)
    traj, rep = run_closed_loop(pendulum, alternation, F,
                                x0=np.array([-0.48, 0.0]),
                                tau=0.2, max_steps=200)
    assert rep.completed
    assert rep.phase_reached == 12
    assert rep.time == pytest.approx(rep.steps * 0.2)
    # the reference completion time for this sequence is 11.8 s; the band
    # is +-20% around it, same as the acceptance battery
    assert 9.44 <= rep.time <= 14.16
    assert traj.samples[0].u[0] == pytest.approx(0.4)
    assert traj.samples[-1].input_id == -1


def test_alternation_path_is_an_abstract_run(pendulum, pendulum_ts, alternation):
    # every recorded concrete step must also be a transition of the model;
    # this is the refinement relation observed on one closed-loop orbit
    F = RefinementMap.from_ts(pendulum_ts)
    traj, rep = run_closed_loop(pendulum, alternation, F,
                                x0=np.array([-0.48, 0.0]),
                                tau=0.2, max_steps=200)
    assert rep.completed
    assert validate_path(pendulum_ts, traj) is None


def test_completion_at_step_zero(pendulum, pendulum_ts):
    ctrl, _ = synthesize_reach(pendulum_ts, [12], mode="hold")
    F = RefinementMap.from_ts(pendulum_ts)
    traj, rep = run_closed_loop(pendulum, ctrl, F, x0=np.array([0.0, 0.0]),
                                tau=0.2, max_steps=10)
    assert rep.completed and rep.steps == 0 and rep.time == 0.0
    assert len(traj) == 1 and traj.samples[0].input_id == -1


def test_zero_input_holds_the_equilibrium(pendulum, pendulum_ts):
    # park at the origin under u = 0: the exact equilibrium never moves
    iid0 = pendulum_ts.input_id_of([0.0])
    pol = {sid: iid0 for sid in pendulum_ts.ids.tolist()}
    ctrl = Controller([pol], [(-1,)], [dict.fromkeys(pol, 1)],
                      list(pendulum_ts.inputs), "hold")
    F = RefinementMap.from_ts(pendulum_ts)
    traj, rep = run_closed_loop(pendulum, ctrl, F, x0=np.array([0.0, 0.0]),
                                tau=0.2, max_steps=8)
    assert not rep.completed and rep.reason == "max_steps=8 reached"
    assert all(s.cell_id == 12 for s in traj.samples)
    assert all(abs(s.x[0]) < 1e-12 and abs(s.x[1]) < 1e-12 for s in traj.samples)


def test_initial_state_outside_winning_domain(pendulum, pendulum_ts):
    ctrl = Controller([{12: 0}], [(12,)], [{12: 0}],
                      list(pendulum_ts.inputs), "hold")
    F = RefinementMap.from_ts(pendulum_ts)
    traj, rep = run_closed_loop(pendulum, ctrl, F, x0=np.array([-0.48, 0.0]),
                                tau=0.2, max_steps=10)
    assert not rep.completed and rep.steps == 0
    assert "initial state lies outside the phase-0 winning domain" in rep.reason
    assert "abstract state 7" in rep.reason


def test_missing_assignment_mid_run(pendulum, pendulum_ts):
    # drive away from cell 7 with a table that covers only cell 7
    iid = pendulum_ts.input_id_of([0.4])
    ctrl = Controller([{7: iid}], [(-1,)], [{7: 1}],
                      list(pendulum_ts.inputs), "hold")
    F = RefinementMap.from_ts(pendulum_ts)
    traj, rep = run_closed_loop(pendulum, ctrl, F, x0=np.array([-0.48, 0.0]),
                                tau=0.2, max_steps=10)
    assert not rep.completed and rep.steps >= 1
    assert "has no assignment in phase 0" in rep.reason


@pytest.mark.parametrize("kind", ["delayfree", "nan", "timedelay"])
def test_leaving_the_state_box_is_reported(pendulum, pendulum_ts, logparams,
                                           kind):
    if kind == "nan":
        # NaN lies outside X, so the run ends at the box test instead of
        # reaching point location, which raises on it
        ctrl, _ = synthesize_reach(pendulum_ts, [12], mode="hold")
        traj, rep = run_closed_loop(pendulum, ctrl,
                                    RefinementMap(pendulum_ts.partition),
                                    x0=np.array([np.nan, 0.0]),
                                    tau=0.2, max_steps=10)
        steps, reason = 0, "state [nan, 0.0] left the state box at t=0"
    elif kind == "delayfree":
        # cell 4 is (-0.72, 0.72); full thrust pushes x2 past the box edge
        iid = pendulum_ts.input_id_of([2.4])
        ctrl = Controller([{4: iid}], [(-1,)], [{4: 1}],
                          list(pendulum_ts.inputs), "hold")
        F = RefinementMap.from_ts(pendulum_ts)
        traj, rep = run_closed_loop(pendulum, ctrl, F,
                                    x0=np.array([-0.72, 0.72]),
                                    tau=0.2, max_steps=10)
        steps, reason = 1, "left the state box at t=0.2"
    else:
        # x1' = 2 under u1 = -1 from x1 = 0: every knot point through
        # t = 0.4 lies in X, and the knot at t = 0.6 is 1.2
        plant = TimeDelaySystem.from_strings(
            ["3 + 0*delay(x1, 0.2) + u1"], [-1], [1], [-1], [1], Theta=0.2,
            xi0=SampledCurve(-0.2, 0.0, np.zeros((2, 1))))
        ts = build_timedelay(plant, 0.2, logparams, N=0,
                             input_quantization=("uniform", 0.5))
        traj, rep = run_closed_loop(plant, _constant_policy(ts, -1.0),
                                    RefinementMap.from_ts(ts), xi0=plant.xi0,
                                    tau=0.2, max_steps=10)
        steps, reason = 3, "functional state left the state box at t=0.6"
    assert not rep.completed and rep.steps == steps
    assert rep.reason.endswith(reason)
    assert len(traj) == steps  # no sample is recorded outside the box


def test_exactly_one_initial_condition(pendulum, pendulum_ts):
    ctrl, _ = synthesize_reach(pendulum_ts, [12], mode="hold")
    F = RefinementMap.from_ts(pendulum_ts)
    with pytest.raises(ValueError, match="exactly one"):
        run_closed_loop(pendulum, ctrl, F)
    with pytest.raises(ValueError, match="exactly one"):
        run_closed_loop(pendulum, ctrl, F, x0=np.zeros(2),
                        xi0=object())


def test_report_text(pendulum, pendulum_ts):
    ctrl, _ = synthesize_reach(pendulum_ts, [12], mode="hold")
    F = RefinementMap.from_ts(pendulum_ts)
    _, rep = run_closed_loop(pendulum, ctrl, F, x0=np.zeros(2),
                             tau=0.2, max_steps=10)
    assert rep.as_text() == ("run completed: phases 1/1, steps 0, "
                             "time 0 s (all waypoints visited)")


# ---------------------------------------------------------------------------
# path validation


def test_validate_path_flags_off_model_step():
    ts = TransitionSystem([0, 1], [np.array([0.0])],
                          transition_arrays([0, 1], 1, {(0, 0): (1,)}))
    good = Trajectory([
        TrajectorySample(0.0, np.zeros(1), np.zeros(1), 0, 0, 0),
        TrajectorySample(0.2, np.zeros(1), np.zeros(1), -1, 1, 1),
    ])
    assert validate_path(ts, good) is None
    bad = Trajectory([
        TrajectorySample(0.0, np.zeros(1), np.zeros(1), 0, 0, 0),
        TrajectorySample(0.2, np.zeros(1), np.zeros(1), -1, 0, 0),
    ])
    assert validate_path(ts, bad) == 0


def test_validate_path_skips_terminal_rows():
    ts = TransitionSystem([0, 1], [np.array([0.0])],
                          transition_arrays([0, 1], 1, {(0, 0): (1,)}))
    traj = Trajectory([
        TrajectorySample(0.0, np.zeros(1), np.zeros(1), -1, 0, 0),
        TrajectorySample(0.2, np.zeros(1), np.zeros(1), -1, 0, 0),
    ])
    assert validate_path(ts, traj) is None


# ---------------------------------------------------------------------------
# CSV export


def test_export_trajectory_format(tmp_path, pendulum, pendulum_ts, alternation):
    F = RefinementMap.from_ts(pendulum_ts)
    traj, _ = run_closed_loop(pendulum, alternation, F,
                              x0=np.array([-0.48, 0.0]),
                              tau=0.2, max_steps=200)
    out = tmp_path / "run.csv"
    export_trajectory(traj, str(out))
    text = out.read_text()
    assert text.endswith("\n")
    lines = text.splitlines()
    assert lines[0] == "t,x1,x2,u1,phase,cell_id"
    assert len(lines) == len(traj) + 1
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "-0.48"
    # numeric round trip at 9 significant digits
    for row, s in zip(lines[1:], traj.samples):
        vals = row.split(",")
        assert float(vals[0]) == pytest.approx(s.t, abs=1e-8)
        assert float(vals[1]) == pytest.approx(s.x[0], rel=1e-8, abs=1e-12)
        assert float(vals[2]) == pytest.approx(s.x[1], rel=1e-8, abs=1e-12)
        assert int(vals[4]) == s.phase and int(vals[5]) == s.cell_id
    assert "-0.0," not in text and not text.endswith("-0.0\n")


def test_export_empty_trajectory(tmp_path):
    out = tmp_path / "empty.csv"
    export_trajectory(Trajectory([]), str(out))
    assert out.read_text() == "t,phase,cell_id\n"


# ---------------------------------------------------------------------------
# time-delay loop


def test_timedelay_completion_at_step_zero(pendulum_delay, pendulum_delay_ts):
    from symquant.synthesis import synthesize_reach
    all_ids = pendulum_delay_ts.ids.tolist()
    ctrl, _ = synthesize_reach(pendulum_delay_ts, all_ids, mode="robust")
    F = RefinementMap.from_ts(pendulum_delay_ts)
    traj, rep = run_closed_loop(pendulum_delay, ctrl, F,
                                xi0=pendulum_delay.xi0, tau=0.2, max_steps=5)
    assert rep.completed and rep.steps == 0
    assert traj.samples[0].cell_id == 0


def _constant_policy(ts, value):
    iid = ts.input_id_of([value])
    pol = {sid: iid for sid in ts.ids.tolist()}
    return Controller([pol], [(-1,)], [dict.fromkeys(pol, 1)],
                      list(ts.inputs), "robust")


def test_timedelay_input_buffer_delays_authority(pendulum_delay, pendulum_delay_ts):
    # r = tau here, so the first period always runs on the zero-primed
    # buffer: opposite extreme policies agree until t = 0.4.  The plant
    # receives exactly the input chosen one period before
    F = RefinementMap.from_ts(pendulum_delay_ts)
    first = integrate_delay(pendulum_delay, pendulum_delay.xi0, [0.0], 0.2)
    xs = {}
    for v in (2.4, -2.4):
        ctrl = _constant_policy(pendulum_delay_ts, v)
        traj, _ = run_closed_loop(pendulum_delay, ctrl, F,
                                  xi0=pendulum_delay.xi0, tau=0.2, max_steps=2)
        assert len(traj) >= 3
        xs[v] = [s.x for s in traj.samples]
        u = traj.samples[0].u  # the policy's input, chosen at t = 0
        assert u == pytest.approx([v])
        second = integrate_delay(pendulum_delay, first, u, 0.2)
        assert xs[v][1].tobytes() == first(0.0).tobytes()
        assert xs[v][2].tobytes() == second(0.0).tobytes()
    assert np.array_equal(xs[2.4][1], xs[-2.4][1])
    assert not np.allclose(xs[2.4][2], xs[-2.4][2])


def test_timedelay_undiscovered_tube_diagnostic(pendulum_delay, pendulum_delay_ts):
    # full reverse thrust walks the closed loop off the reachable tube set
    F = RefinementMap.from_ts(pendulum_delay_ts)
    ctrl = _constant_policy(pendulum_delay_ts, -2.4)
    traj, rep = run_closed_loop(pendulum_delay, ctrl, F,
                                xi0=pendulum_delay.xi0, tau=0.2, max_steps=10)
    assert not rep.completed
    assert "maps to no abstract state" in rep.reason
    assert rep.steps == 3 and len(traj) == 3
