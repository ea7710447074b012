import json
import os
from collections import Counter

import numpy as np
import pytest

from greenwalk import sampler
from greenwalk.cli import main
from greenwalk.errors import SamplingError, UnsupportedGroupError
from greenwalk.groups import GroupElement, GroupModel, parse_element
from greenwalk.rng import block_rng
from greenwalk.sampler import (
    ESCAPE_SLACK,
    STABLE_STEPS,
    WREATH_WINDOW_STORE,
    boundary_from_path,
    harmonic_measure_estimate,
    rn_identity_check,
    sample_path,
    stationarity_residual,
)
from greenwalk.walks import drift_z, make_walk, srw_free, wreath_walk

F2 = GroupModel.free(2)


def test_worker_count_does_not_change_estimate():
    # 20,000 paths are 5 blocks and 9,000 are 3: neither divides evenly
    cases = [(srw_free(2), 2, 20_000, 3),
             (wreath_walk(2, 0.75, 0.4), 2, 9_000, 2),
             (drift_z(0.7), 1, 9_000, 2)]
    for w, depth, n, workers in cases:
        a = harmonic_measure_estimate(w, depth=depth, n_samples=n, seed=11,
                                      workers=1)
        b = harmonic_measure_estimate(w, depth=depth, n_samples=n, seed=11,
                                      workers=workers)
        assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
            b.to_json_dict(), sort_keys=True
        ), w.name


# -- the block kernels against a path-by-path replay ---------------------------


@pytest.mark.parametrize("probs", [
    [0.25] * 4, [0.45, 0.15, 0.4], [0.7, 0.3], [1.0],
    list(np.arange(1, 41) / 820),  # longer than COUNTED_DRAWS: searched
])
def test_draws_equal_generator_choice(probs):
    probs = np.array(probs)
    want = block_rng(3, 1).choice(len(probs), size=(64, 50), p=probs)
    got = sampler._draws(block_rng(3, 1), probs, (64, 50))
    assert np.array_equal(got, want)


def _replay(w, n_paths, horizon, seed, stop):
    """Each path of block 0 stepped with the group law from the draws of
    `Generator.choice`: yields (r, element after step stop[r], elements
    after every step)."""
    G = w.group
    support = [s for s, _ in w.steps]
    draws = block_rng(seed, 0).choice(len(support), size=(n_paths, horizon),
                                      p=np.array([p for _, p in w.steps]))
    for r in range(n_paths):
        cur, trail = G.identity(), []
        for t in range(horizon):
            cur = G.mul(cur, support[draws[r, t]])
            trail.append(cur)
        yield r, trail[stop[r]], trail


def _axis_walk():
    """Mostly a and a^-1: lengths grow slowly, so peaks stay low longer."""
    steps = {"a": 0.45, "A": 0.45, "b": 0.05, "B": 0.05}
    return make_walk(F2, {parse_element(F2, x): p for x, p in steps.items()})


# The short run has no escape slack, so its paths retire on the steps-left
# rule alone, many of them near the depth; its last retirement check is one
# step before the end.
@pytest.mark.parametrize("walk, slack, horizon", [
    (srw_free(2), ESCAPE_SLACK, 140),
    (_axis_walk(), ESCAPE_SLACK, 140),
    (srw_free(2), 0, 25),
], ids=["srw", "axis", "short"])
def test_free_kernel_matches_path_replay(walk, slack, horizon, monkeypatch):
    monkeypatch.setattr(sampler, "ESCAPE_SLACK", slack)
    w, depth, n, seed = walk, 3, 500, 5
    letters, probs = sampler._free_letter_steps(w)
    words, length, peak, last_touch, stop = sampler._free_paths(
        letters, probs, depth, n, horizon, seed, 0)
    assert (stop < horizon - 1).sum() > n // 4
    want = Counter()
    for r, at_stop, trail in _replay(w, n, horizon, seed, stop):
        lengths = [len(x.data) for x in trail]
        assert tuple(words[r, 1:length[r] + 1]) == at_stop.data
        assert peak[r] == max(lengths[:stop[r] + 1])
        touched = [t for t, ln in enumerate(lengths) if ln <= depth]
        assert last_touch[r] == max(touched, default=0)
        final = trail[-1].data
        if (max(lengths) > depth + slack and len(final) > depth
                and horizon - 1 - last_touch[r] >= STABLE_STEPS):
            want[final[:depth]] += 1
    counts, bad = sampler._free_block(letters, probs, depth, n, horizon,
                                      seed, 0)
    assert counts == want and bad == n - sum(want.values())


# In the short run many paths are a few sites outside the window at the
# last retirement check, one step before the end, and with no stable-steps
# requirement their verdicts rest on the final position alone.
@pytest.mark.parametrize("w, horizon, stable", [
    (wreath_walk(3, 0.8, 0.3), 200, STABLE_STEPS),
    (wreath_walk(2, 0.6, 0.3), 33, 0),
], ids=["drift", "short"])
def test_wreath_kernel_matches_path_replay(w, horizon, stable, monkeypatch):
    monkeypatch.setattr(sampler, "STABLE_STEPS", stable)
    q, n, seed = w.group.params[0], 400, 5
    W = WREATH_WINDOW_STORE
    arrays = sampler._wreath_step_arrays(sampler._wreath_case_steps(w))
    lamps, pos, last_touch, stop = sampler._wreath_paths(
        *arrays, q, n, horizon, seed, 0)
    assert (stop < horizon - 1).sum() > n // 8
    want = Counter()
    for r, at_stop, trail in _replay(w, n, horizon, seed, stop):
        assert pos[r] == at_stop.data[1]
        touched = [t for t, x in enumerate(trail) if abs(x.data[1]) <= W]
        assert last_touch[r] == max(touched, default=0)
        lit, final = dict(trail[-1].data[0]), trail[-1].data[1]
        window = tuple(lit.get(site, 0) for site in range(-W, W + 1))
        assert tuple(lamps[r]) == window
        if abs(final) >= W + 3 and horizon - 1 - last_touch[r] >= stable:
            want[("+" if final > 0 else "-", window)] += 1
    counts, bad = sampler._wreath_block(*arrays, q, n, horizon, seed, 0)
    assert counts == want and bad == n - sum(want.values())


# -- the worker pool -------------------------------------------------------------


def _pid_block(block):
    return Counter({os.getpid(): 1}), 0


def _exit_block(*args):
    os._exit(3)


def test_one_worker_forks_nothing():
    assert sampler._run_blocks(_pid_block, 3, 1) == (
        Counter({os.getpid(): 3}), 0)


def test_pool_has_no_more_processes_than_blocks(monkeypatch):
    sizes = []
    pool = sampler.ProcessPoolExecutor

    def recording(max_workers, **kwargs):
        sizes.append(max_workers)
        return pool(max_workers, **kwargs)

    monkeypatch.setattr(sampler, "ProcessPoolExecutor", recording)
    counts, _ = sampler._run_blocks(_pid_block, 2, 3)
    assert sizes == [2]
    assert sum(counts.values()) == 2 and os.getpid() not in counts


def test_dead_worker_is_a_sampling_error():
    with pytest.raises(SamplingError, match="worker process died"):
        sampler._run_blocks(_exit_block, 2, 2)


def test_dead_worker_exits_cli_with_3(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(sampler, "_free_block", _exit_block)
    cfg = tmp_path / "h.json"
    cfg.write_text(json.dumps({"samples": 8192, "depth": 2}))
    assert main(["harmonic", "--config", str(cfg), "--workers", "2"]) == 3
    err = capsys.readouterr().err
    assert "worker process died" in err and "Traceback" not in err


def test_seed_changes_estimate():
    a = harmonic_measure_estimate(srw_free(2), depth=1, n_samples=20_000,
                                  seed=1)
    b = harmonic_measure_estimate(srw_free(2), depth=1, n_samples=20_000,
                                  seed=2)
    assert a.masses != b.masses


def test_free_estimate_matches_exact_law(m_f2, m_exact):
    """Every depth-2 cell of the 100k-sample law sits within 4 sigma."""
    assert m_f2.depth == 4 and m_f2.n_eff > 99_000
    for cell in ((1,), (2, 2), (-1, 2)):
        got = m_f2.cell_mass(cell)
        want = m_exact.cell_mass(cell)
        se = m_f2.cell_se(cell)
        assert abs(got - want) < 4 * se, (cell, got, want, se)
    assert m_f2.nonconverged < 1e-3
    assert m_f2.total_mass() == pytest.approx(1.0, abs=1e-12)


def test_lattice_drift_all_mass_right():
    m = harmonic_measure_estimate(drift_z(0.7), depth=1, n_samples=5_000,
                                  seed=3)
    assert m.kind == "binned"
    assert m.cell_mass("+inf") == 1.0
    assert m.cell_mass("-inf") == 0.0


def test_wreath_bins_sum_to_one():
    m = harmonic_measure_estimate(wreath_walk(2, 0.75, 0.4), depth=2,
                                  n_samples=5_000, seed=5)
    assert m.kind == "binned"
    assert m.total_mass() == pytest.approx(1.0, abs=1e-12)
    # strong right drift: essentially every path escapes to +
    plus = sum(mass for (sign, _), mass in m.masses.items() if sign == "+")
    assert plus > 0.95


def test_unsupported_boundary():
    Z2 = GroupModel.lattice(2)
    from greenwalk.walks import make_walk

    steps = {}
    for axis in range(2):
        for sign in (1, -1):
            vec = [0, 0]
            vec[axis] = sign
            steps[GroupElement("lattice", tuple(vec))] = 0.25
    w = make_walk(Z2, steps)
    with pytest.raises(UnsupportedGroupError):
        harmonic_measure_estimate(w, depth=1, n_samples=2_000, seed=1)


def test_sample_size_floor():
    with pytest.raises(ValueError):
        harmonic_measure_estimate(srw_free(2), depth=1, n_samples=10, seed=1)


def test_stationarity_of_exit_law(m_f2):
    res, se = stationarity_residual(srw_free(2), m_f2, (1,))
    assert res < 4 * se + 1e-12


def test_stationarity_exact_law(m_exact):
    res, se = stationarity_residual(srw_free(2), m_exact, (1, 2))
    assert res < 1e-12 and se == 0.0


def test_rn_identity_on_sampled_measure(t_f2, m_f2):
    res, z = rn_identity_check(t_f2, m_f2, parse_element(F2, "a"), (1,))
    assert z < 4.0, (res, z)


def test_rn_identity_exact_is_zero(t_f2, m_exact):
    res, z = rn_identity_check(t_f2, m_exact, parse_element(F2, "a"), (1,))
    assert res < 1e-12 and z == 0.0


def test_sample_path_shape():
    p = sample_path(srw_free(2), F2.identity(), horizon=50, seed=9)
    assert len(p.positions) == 51
    assert p.positions[0] == F2.identity()
    # consecutive positions differ by one generator
    for x, y in zip(p.positions, p.positions[1:]):
        assert len(F2.mul(F2.inv(x), y).data) == 1
    again = sample_path(srw_free(2), F2.identity(), horizon=50, seed=9)
    assert again.positions == p.positions


def test_boundary_from_path_free():
    p = sample_path(srw_free(2), F2.identity(), horizon=400, seed=21)
    xi = boundary_from_path(p, depth=3)
    assert xi.kind == "tree_end" and len(xi.prefix) == 3


def test_boundary_from_path_drift():
    p = sample_path(drift_z(0.7), GroupModel.lattice(1).identity(),
                    horizon=300, seed=2)
    xi = boundary_from_path(p, depth=5)
    assert xi.kind == "sequence"
    vals = [x.data[0] for x in xi.elements]
    assert vals == sorted(vals) and vals[-1] > 5
