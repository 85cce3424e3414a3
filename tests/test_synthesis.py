import numpy as np
import pytest

from symquant.abstraction import TransitionSystem, transition_arrays
from symquant import (ControlSystem, LogQuantizerParams, Partition,
                      ZoomQuantizerParams, build_delayfree, synthesis)
from symquant.dynamics import integrate_batch
from symquant.synthesis import (Controller, Specification, SynthesisError,
                                synthesize_reach, synthesize_sequence)


def graph_ts(n_states, n_inputs, transitions):
    ins = [np.array([float(i)]) for i in range(n_inputs)]
    return TransitionSystem(range(n_states), ins,
                            transition_arrays(range(n_states), n_inputs,
                                              transitions))


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
        x = part.cell_arrays(sid)[2]
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


def pendulum_legs(ts):
    """The 12-leg alternation between the origin cell and its neighbours."""
    cid = lambda x, y: ts.partition.locate(np.array([x, y]))
    s1 = [cid(0, 0), cid(-0.48, 0)]
    s2 = [cid(0, 0.48), cid(0.48, 0), cid(0, -0.48), cid(-0.48, 0)]
    return [(q,) for q in s1 + s1 + s2 + s1 + s1]


def test_sequence_chains_all_phases(pendulum_ts):
    legs = pendulum_legs(pendulum_ts)
    spec = Specification("sequence", legs)
    ctrl = synthesize_sequence(pendulum_ts, spec, mode="hold")
    assert ctrl.n_phases == 12
    assert ctrl.mode == "hold"
    # each phase covers the cell the previous one ends in
    for p in range(1, 12):
        assert legs[p - 1][0] in ctrl.phases[p]


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


def test_robust_sequence_wins_every_phase_around_a_cycle():
    ts = graph_ts(3, 1, {(0, 0): (1,), (1, 0): (2,), (2, 0): (0,)})
    spec = Specification("sequence", [(1,), (2,), (0,)])
    ctrl = synthesize_sequence(ts, spec, mode="robust")
    assert ctrl.winning == [{1: 0, 0: 1, 2: 2}, {2: 0, 1: 1, 0: 2},
                            {0: 0, 2: 1, 1: 2}]


@pytest.mark.parametrize("k", [1, 2, 6])
def test_hold_search_takes_its_first_step_from_the_endpoints(pendulum_ts,
                                                             monkeypatch, k):
    # the origin never reaches corner cell 3, and u = 0 keeps its trajectory
    # inside X, so its pair stays live and all k steps are located
    integrations = counted(monkeypatch, synthesis, "integrate_batch")
    located = counted(monkeypatch, pendulum_ts.partition, "locate_batch")
    ((_, dist),) = synthesis._hold_reach(pendulum_ts, [(3,)], k)
    assert 12 not in dist
    assert len(located) == k
    assert len(integrations) == k - 1


def test_hold_sequence_makes_the_visits_once(pendulum_ts, monkeypatch):
    calls = counted(monkeypatch, synthesis, "_hold_reach")
    located = counted(monkeypatch, pendulum_ts.partition, "locate_batch")
    spec = Specification("sequence", [(12,), (7,), (12,)])
    synthesize_sequence(pendulum_ts, spec, mode="hold")
    assert len(calls) == 1
    assert len(calls[0][1]) == 3
    assert len(located) <= 64


def test_hold_search_stops_once_every_state_has_won(pendulum_ts, monkeypatch):
    # all 25 states reach the origin cell within 10 held periods; searching
    # on to max_hold would integrate 63 times
    calls = counted(monkeypatch, synthesis, "integrate_batch")
    _, dist = synthesize_reach(pendulum_ts, [12], mode="hold", max_hold=64)
    assert len(dist) == 25 and max(dist.values()) == 10
    assert len(calls) <= 10


@pytest.mark.parametrize("max_hold", [0, -3, 2.5])
def test_hold_rejects_a_step_cap_below_one(pendulum_ts, max_hold):
    # the config's rule for synthesis.max_hold, at both entry points
    with pytest.raises(SynthesisError, match="max_hold: must be an integer >= 1"):
        synthesize_reach(pendulum_ts, [12], mode="hold", max_hold=max_hold)
    with pytest.raises(SynthesisError, match="max_hold: must be an integer >= 1"):
        synthesize_sequence(pendulum_ts, Specification("reach", [(12,)]),
                            mode="hold", max_hold=max_hold)


def reference_hold_visits(ts, max_hold):
    """The cells visited by holding each input from each state's quantized
    point, stored per step: entry k - 1 holds the CSR rows of the pairs
    still inside the state box after k periods and the ids of their
    cells."""
    sys, ctx = ts._ctx.sys, ts._ctx
    X = ts.endpoints.reshape(-1, sys.n).T
    U = np.tile(np.array(ts.inputs), (len(ts.ids), 1)).T
    live = np.arange(X.shape[1], dtype=np.int32)
    lo, hi = sys.state_lo[:, None], sys.state_hi[:, None]
    visits = []
    while True:
        inside = np.all((X >= lo) & (X <= hi), axis=0)
        X, live = X[:, inside], live[inside]
        if not live.size:
            return visits
        visits.append((live, ts.partition.locate_batch(X.T).astype(np.int32)))
        if len(visits) == max_hold:
            return visits
        X = integrate_batch(sys, X, U[:, live], ctx.tau, ctx.steps)


def reference_hold_reach(ts, targets, max_hold):
    """(policy, dist) of every target from the stored visits, one target
    at a time over all of them."""
    visits = reference_hold_visits(ts, max_hold)
    n_in = len(ts.inputs)
    ids = ts.ids
    tables = []
    for target in targets:
        dist, policy = {q: 0 for q in target}, {}
        goal = np.zeros(ids.max() + 1, dtype=bool)  # by cell id
        goal[list(target)] = True
        won = goal.copy()
        for k, (rows, cells) in enumerate(visits, 1):
            hit = rows[goal[cells]]
            hit = hit[~won[ids[hit // n_in]]]
            first = hit[np.flatnonzero(np.diff(hit // n_in, prepend=-1))]
            reached = ids[first // n_in]
            won[reached] = True
            for q, iid in zip(reached.tolist(), (first % n_in).tolist()):
                dist[q] = k
                policy[q] = iid
        tables.append((policy, dist))
    return tables


def assert_same_hold_tables(ts, targets, max_hold):
    got = synthesis._hold_reach(ts, targets, max_hold)
    want = reference_hold_reach(ts, targets, max_hold)
    assert len(got) == len(want) == len(targets)
    for (policy, dist), (ref_policy, ref_dist) in zip(got, want):
        assert list(policy.items()) == list(ref_policy.items())
        assert list(dist.items()) == list(ref_dist.items())


@pytest.mark.parametrize("max_hold", [1, 2, 64])
def test_hold_tables_equal_the_stored_visits_on_the_12_leg_sequence(
        pendulum_ts, max_hold):
    assert_same_hold_tables(pendulum_ts, pendulum_legs(pendulum_ts), max_hold)


@pytest.fixture(scope="module")
def fine_zoom_refined_ts(pendulum):
    """The fine-zoom benchmark's refined model: eta = d = 0.1, sampled
    Lipschitz constants, the center cell 264 zoomed into 9 subcells, so the
    state ids skip 264 and run up to 537."""
    params = LogQuantizerParams(0.1, 0.1, "EQ20")
    part = Partition(pendulum.state_lo, pendulum.state_hi, params)
    part = part.refined({264: ZoomQuantizerParams(1, 1.0, 0.1)})
    return build_delayfree(pendulum, 0.2, part, ("uniform", 0.2),
                           lipschitz="sampled-jacobian")


@pytest.mark.parametrize("max_hold", [1, 2, 64])
def test_hold_tables_equal_the_stored_visits_on_the_refined_model(
        fine_zoom_refined_ts, max_hold):
    ts = fine_zoom_refined_ts
    ids = ts.ids.tolist()
    assert ids != list(range(len(ids))) and 264 not in ids
    center = ts.partition.locate(np.zeros(2))
    targets = [(center,), (0,), (529,), tuple(range(529, 538)), (center, 528)]
    assert_same_hold_tables(ts, targets, max_hold)


@pytest.mark.parametrize("max_hold", [1, 2, 16])
def test_hold_tables_equal_the_stored_visits_where_the_rhs_ends(max_hold):
    # the rhs is undefined beyond x1 = 1.3, so a pair integrated once more
    # after its endpoint left X = [-1, 1] would raise
    sys = ControlSystem.from_strings(["u1 + 0*sqrt(1.3 - x1)"], [-1], [1],
                                     [-1], [1])
    ts = build_delayfree(sys, 0.2, LogQuantizerParams(0.2, 0.4, "EQ20"),
                         input_quantization=("uniform", 0.5), lipschitz=1.0)
    targets = [(q,) for q in ts.ids.tolist()] + [tuple(ts.ids.tolist()[:2])]
    assert_same_hold_tables(ts, targets, max_hold)


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
