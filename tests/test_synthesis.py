import numpy as np
import pytest

from symquant.abstraction import (AbstractState, TransitionSystem,
                                  transition_arrays)
from symquant import synthesis
from symquant.synthesis import (Controller, Specification, SynthesisError,
                                synthesize_reach, synthesize_sequence)


def graph_ts(n_states, n_inputs, transitions):
    states = [AbstractState(i) for i in range(n_states)]
    ins = [np.array([float(i)]) for i in range(n_inputs)]
    return TransitionSystem("delayfree", states, ins,
                            transition_arrays(range(n_states), n_inputs,
                                              transitions),
                            initial=list(range(n_states)))


# ---------------------------------------------------------------------------
# robust fixed point on hand-built graphs


def test_robust_reach_levels_and_policy():
    # 2 -> 3 deterministically, 1 -> {2,3} nondeterministically, 0 needs
    # its second input (the first self-loops forever)
    ts = graph_ts(5, 2, {
        (0, 0): (0,), (0, 1): (1,),
        (1, 0): (2, 3),
        (2, 0): (3,),
        (3, 0): (3,),
        (4, 0): (4,),  # separate sink component, never wins
    })
    ctrl, dist = synthesize_reach(ts, [3], mode="robust")
    assert dist == {3: 0, 2: 1, 1: 2, 0: 3}
    assert ctrl.phases[0][2] == 0
    assert ctrl.phases[0][1] == 0
    assert ctrl.phases[0][0] == 1
    assert 4 not in dist and 4 not in ctrl.phases[0]


def test_robust_blocked_successors_do_not_win():
    # (1,0) is blocked entirely; an input with no successors must not count
    # as "all successors inside W"
    ts = graph_ts(2, 1, {(0, 0): (0,)})
    _, dist = synthesize_reach(ts, [0], mode="robust")
    assert dist == {0: 0}


def test_robust_tie_break_prefers_smaller_input():
    ts = graph_ts(2, 3, {
        (0, 1): (1,), (0, 2): (1,),
        (1, 0): (1,),
    })
    ctrl, dist = synthesize_reach(ts, [1], mode="robust")
    assert dist[0] == 1
    assert ctrl.phases[0][0] == 1  # inputs 1 and 2 both win in one step


def test_robust_prefers_fewer_steps_over_input_order():
    # input 0 reaches the target in two steps, input 1 in one; the one-step
    # option is recorded even though 0 is scanned first
    ts = graph_ts(3, 2, {
        (0, 0): (1,), (0, 1): (2,),
        (1, 0): (2,),
        (2, 0): (2,),
    })
    ctrl, dist = synthesize_reach(ts, [2], mode="robust")
    assert dist[0] == 1 and ctrl.phases[0][0] == 1


def test_target_states_get_an_input():
    ts = graph_ts(2, 1, {(0, 0): (1,), (1, 0): (1,)})
    ctrl, dist = synthesize_reach(ts, [0, 1], mode="robust")
    assert set(ctrl.phases[0]) == {0, 1}
    assert all(v == 0 for v in ctrl.phases[0].values())


def test_reach_argument_validation(pendulum_ts):
    with pytest.raises(SynthesisError):
        synthesize_reach(pendulum_ts, [])
    with pytest.raises(SynthesisError, match="unknown states"):
        synthesize_reach(pendulum_ts, [99])
    with pytest.raises(SynthesisError, match="mode"):
        synthesize_reach(pendulum_ts, [12], mode="greedy")


def test_specification_validation():
    with pytest.raises(ValueError):
        Specification("until", [(0,)])
    with pytest.raises(ValueError):
        Specification("reach", [])
    with pytest.raises(ValueError):
        Specification("sequence", [(0,), ()])
    s = Specification("reach", [(3, 1, 1)])
    assert s.targets == [(1, 3)]


# ---------------------------------------------------------------------------
# the coarse lattice: robust is empty, hold is not


def test_robust_single_cell_target_is_empty_beyond_target(pendulum_ts):
    # every growth box spans at least a 3x3 block of cells here, so no
    # input can force all successors into one cell
    _, dist = synthesize_reach(pendulum_ts, [12], mode="robust")
    assert dist == {12: 0}


def test_hold_reach_covers_the_alternation_start(pendulum_ts):
    ctrl, dist = synthesize_reach(pendulum_ts, [12], mode="hold")
    start = pendulum_ts.partition.locate(np.array([-0.48, 0.0]))
    assert start == 7
    assert dist[7] == 2
    u = ctrl.inputs[ctrl.phases[0][7]]
    assert u[0] == pytest.approx(0.4)


def test_hold_policy_nominal_trajectory_really_arrives(pendulum, pendulum_ts):
    from symquant.dynamics import integrate
    ctrl, dist = synthesize_reach(pendulum_ts, [12], mode="hold")
    part = pendulum_ts.partition
    for sid, iid in list(ctrl.phases[0].items())[:10]:
        if dist[sid] == 0:
            continue
        x = part.cell(sid).quantized_point
        hit = False
        for _ in range(dist[sid]):
            x = integrate(pendulum, x, ctrl.inputs[iid], 0.2, 10)
            if part.locate(x) == 12:
                hit = True
                break
        assert hit, f"state {sid} never arrives"


def test_hold_needs_delayfree(pendulum_delay_ts):
    with pytest.raises(SynthesisError, match="delay-free"):
        synthesize_reach(pendulum_delay_ts, [0], mode="hold")


def test_hold_needs_build_context(pendulum_ts):
    from symquant.model_io import parse_sts, serialize_ts
    bare = parse_sts(serialize_ts(pendulum_ts))
    with pytest.raises(SynthesisError, match="build context"):
        synthesize_reach(bare, [12], mode="hold")


# ---------------------------------------------------------------------------
# waypoint sequences


def test_sequence_chains_all_phases(pendulum_ts):
    phi = 0.48
    part = pendulum_ts.partition
    cid = lambda x, y: part.locate(np.array([x, y]))
    s1 = [cid(0, 0), cid(-phi, 0)]
    s2 = [cid(0, phi), cid(phi, 0), cid(0, -phi), cid(-phi, 0)]
    legs = s1 + s1 + s2 + s1 + s1
    spec = Specification("sequence", [(q,) for q in legs])
    ctrl = synthesize_sequence(pendulum_ts, spec, mode="hold")
    assert ctrl.n_phases == 12
    assert ctrl.mode == "hold"
    # each phase covers the cell the previous one ends in
    for p in range(1, 12):
        assert legs[p - 1] in ctrl.phases[p]


def test_sequence_reports_dead_leg(pendulum_ts):
    spec = Specification("sequence", [(12,), (7,)])
    with pytest.raises(SynthesisError, match=r"leg 1: .*unreachable"):
        synthesize_sequence(pendulum_ts, spec, mode="robust")


def counted(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call; the list of
    calls is returned."""
    calls, real = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(a) or real(*a))
    return calls


def test_robust_sequence_builds_the_predecessors_once(monkeypatch):
    calls = counted(monkeypatch, synthesis, "_predecessors")
    ts = graph_ts(3, 1, {(0, 0): (1,), (1, 0): (2,), (2, 0): (0,)})
    spec = Specification("sequence", [(1,), (2,), (0,)])
    ctrl = synthesize_sequence(ts, spec, mode="robust")
    assert ctrl.winning == [{1: 0, 0: 1, 2: 2}, {2: 0, 1: 1, 0: 2},
                            {0: 0, 2: 1, 1: 2}]
    assert len(calls) == 1


@pytest.mark.parametrize("k", [1, 2, 6])
def test_hold_search_takes_its_first_step_from_the_endpoints(pendulum_ts,
                                                             monkeypatch, k):
    # u = 0 keeps the origin's trajectory inside X, so all k steps are located
    calls = counted(monkeypatch, synthesis, "integrate_batch")
    visits = synthesis._hold_visits(pendulum_ts, k)
    assert len(visits) == k
    assert len(calls) == k - 1
    n_pairs = len(pendulum_ts.states) * len(pendulum_ts.inputs)
    assert all(rows.dtype == cells.dtype == np.int32 for rows, cells in visits)
    assert 0 < len(visits[-1][0]) <= len(visits[0][0]) <= n_pairs


def test_hold_sequence_makes_the_visits_once(pendulum_ts, monkeypatch):
    calls = counted(monkeypatch, synthesis, "_hold_visits")
    spec = Specification("sequence", [(12,), (7,), (12,)])
    synthesize_sequence(pendulum_ts, spec, mode="hold")
    assert len(calls) == 1


def test_reach_spec_through_sequence_entry(pendulum_ts):
    spec = Specification("reach", [(12,)])
    a = synthesize_sequence(pendulum_ts, spec, mode="hold")
    b, _ = synthesize_reach(pendulum_ts, [12], mode="hold")
    assert a.phases == b.phases
    assert a.waypoints == b.waypoints


def test_input_at_none_when_unassigned():
    ctrl = Controller([{1: 0}], [(1,)], [{1: 0}], [np.array([0.0])], "robust")
    assert ctrl.input_at(0, 1) == 0
    assert ctrl.input_at(0, 0) is None
