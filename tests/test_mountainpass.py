import platform
import re
import sys

import numpy as np
import pytest

from trisol import mountainpass
from trisol.analysis import Classification, CriticalPoint, morse_index
from trisol.descent import DescentOptions, initial_guess, minimize
from trisol.energy import EnergyModel
from trisol.grid import (DomainSpec, Field, h1_seminorm_sq_values, inner_product_values,
                         neg_laplacian_values, row_blocks)
from trisol.mountainpass import (RESPACE_EVERY, MPOptions, PathCollapseError,
                                 _h1_reflection, _initial_path, _redistribute,
                                 find_mountain_pass)
from trisol.nonlinearity import TruncationMode
from trisol.pipeline import run_pipeline
from trisol.presets import build_preset, cubic_nonlinearity
from trisol.spectrum import eigenpairs

RT60 = np.sqrt(60.0)


def _solve_minimizers(n, lam):
    spec = DomainSpec.interval(1.0, n)
    return _minimizers(spec, cubic_nonlinearity(spec, lam))


def _minimizers(spec, nl):
    phi1 = eigenpairs(spec, 1)[0]
    plus_model = EnergyModel(spec, nl, TruncationMode.PLUS)
    minus_model = EnergyModel(spec, nl, TruncationMode.MINUS)
    full_model = EnergyModel(spec, nl, TruncationMode.FULL)
    plus = minimize(plus_model, initial_guess(plus_model, phi1))
    minus = minimize(minus_model, initial_guess(minus_model, phi1))
    return spec, nl, full_model, minus, plus


@pytest.fixture(scope="module")
def solved():
    return _solve_minimizers(63, 60.0)


def test_mountain_pass_converges(solved):
    spec, nl, full_model, minus, plus = solved
    opts = MPOptions()
    star = find_mountain_pass(full_model, minus, plus, opts)
    assert star.converged
    assert star.classification is Classification.MOUNTAIN_PASS
    assert star.residual <= opts.grad_tol * nl.scale
    # the pass level dominates both endpoint energies
    assert star.energy > max(minus.energy, plus.energy)
    # a priori bounds survive at the saddle
    assert np.min(star.u.values) >= nl.a_minus - 1e-9
    assert np.max(star.u.values) <= nl.a_plus + 1e-9
    # distinct from the endpoints and from zero
    assert np.max(np.abs(star.u.values - plus.u.values)) > 0.1
    assert np.max(np.abs(star.u.values - minus.u.values)) > 0.1
    assert np.max(np.abs(star.u.values)) > 0.1


def test_path_maximum_essentially_nonincreasing(solved):
    _check_path_maximum_essentially_nonincreasing(*solved)


@pytest.mark.parametrize("lam", [65.0, 60.0 + 1e-7])
def test_path_maximum_essentially_nonincreasing_n127(lam):
    # inputs on which an unbounded reflected step lifted the path maximum
    # by several units above its start
    _check_path_maximum_essentially_nonincreasing(*_solve_minimizers(127, lam))


def _check_path_maximum_essentially_nonincreasing(spec, nl, full_model, minus, plus):
    # sampled along nodes and chord midpoints, the path maximum never rises
    # meaningfully above its starting level (redistribution resamples the
    # same polyline, so only line-search-scale slack is allowed) and ends
    # far below it at the pass level
    fine_history = []

    def watch(info):
        nodes = info["nodes"]
        chords = 0.5 * (nodes[:-1] + nodes[1:])
        fine_history.append(max(float(np.max(info["energies"])),
                                float(np.max(full_model.phi_rows(chords)))))

    star = find_mountain_pass(full_model, minus, plus, MPOptions(callback=watch))
    fine_history = np.array(fine_history)
    assert np.max(fine_history) <= fine_history[0] + 1e-3 * nl.scale
    assert fine_history[-1] < fine_history[0]
    # the sampled maximum ends within chord-resolution of the pass level
    assert fine_history[-1] == pytest.approx(star.energy, abs=2.5)


def test_requires_full_mode(solved):
    spec, nl, _, minus, plus = solved
    plus_model = EnergyModel(spec, nl, TruncationMode.PLUS)
    with pytest.raises(ValueError):
        find_mountain_pass(plus_model, minus, plus)


def test_rejects_unconverged_endpoints(solved):
    spec, nl, full_model, minus, _ = solved
    plus_model = EnergyModel(spec, nl, TruncationMode.PLUS)
    loose = minimize(plus_model,
                     initial_guess(plus_model, eigenpairs(spec, 1)[0]),
                     DescentOptions(max_iters=2))
    # the descent stopped early: the message names its iterations and its
    # residual, not an inequality against a bound that this residual sets
    assert not loose.converged and loose.iterations == 2
    with pytest.raises(ValueError, match=re.escape(
            "u_plus is not a converged critical point: its stage stopped after 2 "
            f"iterations at residual {loose.residual:.3e} without converging")):
        find_mountain_pass(full_model, minus, loose)


def test_rejects_a_converged_endpoint_whose_residual_exceeds_the_bound(solved):
    # a point marked converged whose field is not critical fails on its residual
    spec, nl, full_model, minus, plus = solved
    half = CriticalPoint(u=Field(spec, 0.5 * plus.u.values), energy=0.0, residual=0.0,
                         classification=Classification.POSITIVE_MIN, converged=True)
    res = float(np.max(np.abs(full_model.residual_values(half.u.values))))
    bound = MPOptions().grad_tol * nl.scale
    assert res > bound
    with pytest.raises(ValueError, match=re.escape(
            f"u_plus is not a converged critical point (residual {res:.3e} > {bound:.3e})")):
        find_mountain_pass(full_model, minus, half)


def test_collapse_detection_fires(solved):
    # an absurdly wide collapse tolerance treats every node as an endpoint
    spec, nl, full_model, minus, plus = solved
    with pytest.raises(PathCollapseError,
                       match=r"at path iteration 0 \(peak residual \d\.\d{3}e[+-]\d+\)"):
        find_mountain_pass(full_model, minus, plus,
                           MPOptions(collapse_tol=1e6))


def test_non_finite_path_peak_stops_at_its_first_iteration():
    # a bump of 1e300 makes the initial peak's energy infinite while its
    # residual (5.9e300) stays finite, so the residual test alone would let
    # the path run to max_iters
    spec, nl, full_model, minus, plus = _minimizers(*build_preset("p1-interval", 31))
    seen = []
    opts = MPOptions(perturbation=1e300, callback=lambda info: seen.append(info["iteration"]))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(RuntimeError, match=r"not finite at path iteration 0 \(energy inf, "):
        find_mountain_pass(full_model, minus, plus, opts)
    assert seen == [0]


def _count_path_starts(starts):
    def watch(info):
        if info["iteration"] == 0:
            starts.append(info["residual"])
    return watch


def test_restart_rule_escapes_the_origin(solved):
    # with no symmetry-breaking bump the odd problem parks the path maximum
    # exactly on the origin (a critical point of index >= 2); the retry
    # rule reruns once with the default bump and lands on a genuine saddle
    spec, nl, full_model, minus, plus = solved
    starts = []
    opts = MPOptions(perturbation=0.0, callback=_count_path_starts(starts))
    star = find_mountain_pass(full_model, minus, plus, opts)
    assert len(starts) == 2
    assert star.converged
    assert np.max(np.abs(star.u.values)) > 0.1
    default = find_mountain_pass(full_model, minus, plus)
    assert np.array_equal(star.u.values, default.u.values)
    assert star.iterations == default.iterations


def test_tiny_bump_retries_with_the_default_bump():
    # on p2 a bump of 1e-12 keeps the path symmetric enough to end on the
    # origin (index 3); the one retry at the default bump finds the saddle
    spec, nl = build_preset("p2-square")
    starts = []
    report = run_pipeline(spec, nl, mp_opts=MPOptions(
        perturbation=1e-12, callback=_count_path_starts(starts)))
    assert len(starts) == 2
    assert report.all_ok
    assert report.star.morse_index == 1


def test_default_bump_on_the_origin_runs_the_path_once():
    # k = 1 (lambda = 30 lies between the first two eigenvalues of the unit
    # square): the pass between the minimizers is the origin itself, and a
    # retry at the bump just tried would only repeat the run
    square = DomainSpec.rectangle(1.0, 1.0, 15, 15)
    _, nl, full_model, minus, plus = _minimizers(square, cubic_nonlinearity(square, 30.0))
    assert nl.k == 1
    starts = []
    star = find_mountain_pass(full_model, minus, plus,
                              MPOptions(callback=_count_path_starts(starts)))
    assert len(starts) == 1
    assert star.converged
    assert np.max(np.abs(star.u.values)) <= 1e-6


def test_rejects_an_endpoint_with_nonnegative_energy(solved):
    # the origin is a converged critical point, but of energy zero
    spec, nl, full_model, minus, _ = solved
    trivial = CriticalPoint(u=Field.zeros(spec), energy=0.0, residual=0.0,
                            classification=Classification.TRIVIAL, converged=True)
    with pytest.raises(ValueError, match="u_plus must have negative energy"):
        find_mountain_pass(full_model, minus, trivial)


def test_iteration_cap_returns_data(solved):
    spec, nl, full_model, minus, plus = solved
    star = find_mountain_pass(full_model, minus, plus, MPOptions(max_iters=2))
    assert not star.converged
    assert star.iterations == 2


def test_mp_options_validation():
    # the path search shares the descent's checks on its line-search fields
    for bad in ({"path_count": 4}, {"max_iters": 0}, {"grad_tol": 0},
                {"initial_step": 0}, {"armijo_c": 1.0},
                {"initial_step": float("inf")}, {"grad_tol": float("nan")},
                {"perturbation": float("nan")}, {"perturbation": float("inf")},
                {"collapse_tol": float("nan")}, {"collapse_tol": -1.0},
                {"collapse_tol": 0.0}):
        with pytest.raises(ValueError):
            MPOptions(**bad)
    # keyword-only: inheritance reorders fields, so a positional value
    # would land on a different field than it did before
    with pytest.raises(TypeError):
        MPOptions(21)
    with pytest.raises(TypeError):
        DescentOptions(10)


def _redistribute_node_by_node(domain, nodes, pin):
    """The per-node loop that _redistribute vectorizes, kept as a reference."""
    out = nodes.copy()
    last = nodes.shape[0] - 1
    seg = np.sqrt(h1_seminorm_sq_values(domain, np.diff(nodes, axis=0)))
    for lo, hi in ((0, pin), (pin, last)):
        if hi - lo < 2:
            continue
        cum = np.concatenate(([0.0], np.cumsum(seg[lo:hi])))
        total = cum[-1]
        if total <= 0.0:
            continue
        targets = np.linspace(0.0, total, hi - lo + 1)
        for jj in range(1, hi - lo):
            k = int(np.searchsorted(cum, targets[jj], side="right")) - 1
            k = min(max(k, 0), hi - lo - 1)
            length = cum[k + 1] - cum[k]
            theta = (targets[jj] - cum[k]) / length if length > 0 else 0.0
            out[lo + jj] = nodes[lo + k] + theta * (nodes[lo + k + 1] - nodes[lo + k])
    return out


@pytest.mark.parametrize("pin", [1, 11, 20])
def test_redistribute_equals_node_by_node_loop(pin):
    # the 63 x 63 path is re-spaced in several row blocks, the 7 x 5 one in one
    rng = np.random.default_rng(pin)
    for spec, draws in ((DomainSpec.rectangle(1.0, 2.0, 7, 5), 5),
                        (DomainSpec.rectangle(1.0, 1.0, 63, 63), 2)):
        for _ in range(draws):
            nodes = rng.standard_normal((22, spec.size))
            nodes[6] = nodes[5]  # one zero-length segment
            with np.errstate(divide="raise", invalid="raise"):
                vectorized = _redistribute(spec, nodes, pin, np.empty_like(nodes))
                looped = _redistribute_node_by_node(spec, nodes, pin)
            assert np.array_equal(vectorized, looped)
            assert np.array_equal(vectorized[[0, pin, 21]], nodes[[0, pin, 21]])
    assert len(row_blocks(21, spec.size)) > 1


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="counts the page faults of glibc's mmap threshold")
def test_path_stack_work_does_not_fault_pages_in_afresh():
    # whole-stack temporaries above glibc's mmap threshold are mapped and
    # faulted in anew on every call, hundreds of minor faults per call on
    # p2's grid; row blocks reuse heap memory instead
    import resource

    spec = DomainSpec.rectangle(1.0, 1.0, 63, 63)
    model = EnergyModel(spec, cubic_nonlinearity(spec), TruncationMode.FULL)
    nodes = np.random.default_rng(0).standard_normal((22, spec.size))
    out = np.empty_like(nodes)
    # as in a solve, whose first path is built from whole-stack temporaries:
    # releasing one raises glibc's dynamic mmap and trim thresholds, without
    # which even block-sized temporaries are trimmed off the heap after a call
    nodes.copy()

    def work():
        model.phi_rows(nodes[1:-1])
        _redistribute(spec, nodes, 11, out)

    work()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(50):
        work()
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 200


def test_redistribute_keeps_a_zero_length_side_and_respaces_the_other():
    # every node up to the pin equals the start, so that side has zero H1
    # length and keeps its nodes; the other side, unevenly spaced along a
    # line, is still re-spaced evenly
    spec = DomainSpec.interval(1.0, 15)
    rng = np.random.default_rng(0)
    start, direction = rng.standard_normal((2, spec.size))
    pin, last = 8, 21
    ts = np.concatenate((np.zeros(pin), (np.arange(last - pin + 1) / (last - pin)) ** 2))
    nodes = start + np.outer(ts, direction)
    out = _redistribute(spec, nodes, pin, np.empty_like(nodes))
    assert np.array_equal(out[:pin + 1], nodes[:pin + 1])
    even = start + np.outer(np.arange(last - pin + 1) / (last - pin), direction)
    assert np.allclose(out[pin:], even, rtol=0.0, atol=1e-12)


def test_path_search_evaluates_energy_once_per_iteration(p1, monkeypatch):
    # a deterministic work count: one full phi_rows sweep for the initial path
    # and one per re-spacing, one single-row phi_rows for each accepted move
    # that no re-spacing follows, and none for a rejected one; phi_values only
    # for the two endpoint checks and the returned point (calls nested in
    # another counted call are not counted)
    events, open_calls = [], []

    def log(owner, name, event):
        original = getattr(owner, name)

        def wrapper(*args):
            nested = bool(open_calls)
            open_calls.append(name)
            try:
                result = original(*args)
            finally:
                open_calls.pop()
            if not nested:
                events.append(event(args, result))
            return result
        monkeypatch.setattr(owner, name, wrapper)

    log(EnergyModel, "phi_rows", lambda args, r: "row" if args[1].ndim == 1 else "path")
    log(EnergyModel, "phi_values", lambda args, r: "value")
    log(mountainpass, "_descend_max_node", lambda args, r: "stay" if r is None else "move")
    log(mountainpass, "_redistribute", lambda args, r: "respace")
    star = find_mountain_pass(p1["models"][TruncationMode.FULL], p1["minus"], p1["plus"])
    assert star.converged and star.iterations > 10
    assert events.count("move") + events.count("stay") == star.iterations
    respaces = events.count("respace")
    assert events.count("path") == 1 + respaces
    assert star.iterations // RESPACE_EVERY <= respaces < star.iterations
    assert events.count("row") == sum(a == "move" and b != "respace"
                                      for a, b in zip(events, events[1:]))
    assert events.count("value") == 3


def test_a_reflected_step_that_cannot_pass_is_halved_three_more_times(p1, monkeypatch):
    # where the residual's slope along the reflected step is not below
    # -c |res|^2 at the first failed try, no small step passes; those steps
    # used to halve down to 1e-8 (25-27 tries on p1) before the plain step
    steps = []  # per path step: [reflected tries, took the plain step]
    descend, residual_values = mountainpass._descend_max_node, EnergyModel.residual_values
    armijo = mountainpass._armijo_step

    def counted_descend(*args):
        steps.append([0, False])
        return descend(*args)

    def counted_residual(self, values):
        if steps:
            steps[-1][0] += 1
        return residual_values(self, values)

    def counted_armijo(*args):
        steps[-1][1] = True
        return armijo(*args)

    monkeypatch.setattr(mountainpass, "_descend_max_node", counted_descend)
    monkeypatch.setattr(EnergyModel, "residual_values", counted_residual)
    monkeypatch.setattr(mountainpass, "_armijo_step", counted_armijo)
    star = find_mountain_pass(p1["models"][TruncationMode.FULL], p1["minus"], p1["plus"])
    # each step's count includes the loop's residual at the next iteration
    plain = [count - 1 for count, fell_back in steps if fell_back]
    assert star.iterations == p1["star"].iterations == len(steps)
    assert plain and set(plain) == {4}


def _path_history(model, minus, plus, monkeypatch):
    """Copies of (nodes, energies, max_index) at every callback, and the
    iterations after whose step the path was re-spaced."""
    history, respaced = [], []
    original = mountainpass._redistribute

    def redistribute(*args):
        respaced.append(len(history) - 1)
        return original(*args)

    def watch(info):
        assert info["iteration"] == len(history)
        history.append((info["nodes"].copy(), info["energies"].copy(), info["max_index"]))

    monkeypatch.setattr(mountainpass, "_redistribute", redistribute)
    star = find_mountain_pass(model, minus, plus, MPOptions(callback=watch))
    assert star.converged
    return history, respaced


@pytest.mark.parametrize("case", ["p1", "rectangle", "square"])
def test_path_respacing_schedule(p1, case, monkeypatch):
    if case == "p1":
        model, minus, plus = p1["models"][TruncationMode.FULL], p1["minus"], p1["plus"]
    elif case == "rectangle":
        spec = DomainSpec.rectangle(1.0, 2.0, 23, 11)
        _, _, model, minus, plus = _minimizers(spec, cubic_nonlinearity(spec, 30.0))
    else:  # p2's grid, whose path takes several row blocks
        spec = DomainSpec.rectangle(1.0, 1.0, 63, 63)
        _, _, model, minus, plus = _minimizers(spec, cubic_nonlinearity(spec, 60.0))
        assert len(row_blocks(MPOptions().path_count + 1, spec.size)) > 1
    history, respaced = _path_history(model, minus, plus, monkeypatch)
    pinned = None
    for it, ((nodes, _, jmax), (after, _, _)) in enumerate(zip(history, history[1:])):
        if it in respaced:
            pinned = jmax
            continue
        # a step without re-spacing keeps the pinned peak and moves only it
        assert jmax == pinned
        others = np.arange(len(nodes)) != jmax
        assert np.array_equal(after[others], nodes[others])
    # the path is re-spaced at the first step and at most every fourth one
    assert np.diff([-1] + respaced + [len(history) - 1]).max() <= RESPACE_EVERY
    assert respaced[0] == 0
    for nodes, energies, _ in history:
        # no energy is stale: every entry is what a full sweep gives
        assert np.array_equal(energies, model.phi_rows(nodes))


@pytest.mark.parametrize("preset", ["p1-interval", "p2-square"])
def test_path_step_is_the_h1_reflection(preset):
    # at the first path maximum, the reflected direction mirrors the
    # preconditioned one across the tangent in a(x, y) = vol <x, A y>: the
    # along-path component flips sign and the H1 norm is kept
    spec, nl, full_model, minus, plus = _minimizers(*build_preset(preset))
    nodes = _initial_path(full_model, minus.u, plus.u, MPOptions())
    j = 1 + int(np.argmax(full_model.phi_rows(nodes)[1:-1]))
    u, tangent = nodes[j], nodes[j + 1] - nodes[j - 1]
    residual = full_model.residual_values(u)
    direction = -full_model.preconditioned_values(u)

    def a(x, y):
        return inner_product_values(spec, x, neg_laplacian_values(spec, y))

    reflected = _h1_reflection(spec, residual, direction, tangent,
                               h1_seminorm_sq_values(spec, tangent))
    assert a(reflected, tangent) == pytest.approx(-a(direction, tangent), rel=1e-9)
    assert a(reflected, reflected) == pytest.approx(a(direction, direction), rel=1e-9)


def test_p1_path_search_iterations(p1):
    assert p1["star"].converged
    assert p1["star"].iterations <= 80


@pytest.mark.parametrize("lam", [float(lam) for lam in range(55, 66)])
def test_path_search_iterations_across_lambda(lam):
    # on the p1 grid the iteration count used to swing from 94 to 2790
    # across this window
    spec, nl, full_model, minus, plus = _solve_minimizers(127, lam)
    _check_converges_to_index_one(full_model, minus, plus)


@pytest.mark.parametrize("lengths, counts, lam", [
    ((1.0, 1.0), (63, 63), 55.0), ((1.0, 1.0), (63, 63), 70.0),
    ((1.0, 1.0), (63, 63), 78.0), ((1.0, 0.6), (47, 23), 80.0),
    ((1.0, 2.0), (23, 11), 30.0)])
def test_path_search_iterations_in_2d(lengths, counts, lam):
    spec = DomainSpec(lengths, counts)
    _, _, full_model, minus, plus = _minimizers(spec, cubic_nonlinearity(spec, lam))
    _check_converges_to_index_one(full_model, minus, plus)


def _check_converges_to_index_one(full_model, minus, plus):
    star = find_mountain_pass(full_model, minus, plus)
    assert star.converged
    assert star.iterations <= 200
    assert morse_index(full_model, [star.u])[0].index == 1


@pytest.mark.parametrize("case", ["plus", "minus", "star", "descent_capped",
                                  "descent_underflow", "path_capped"])
def test_returned_residual_is_a_fresh_recomputation(p1, case):
    # each stage returns the sup residual its loop measured for the iterate
    # it returns, on every exit: converged, capped, and line-search underflow
    models = p1["models"]
    full, plus = models[TruncationMode.FULL], models[TruncationMode.PLUS]
    if case in ("plus", "minus", "star"):
        model = {"plus": plus, "minus": models[TruncationMode.MINUS], "star": full}[case]
        point = p1[case]
    elif case == "path_capped":
        model = full
        point = find_mountain_pass(full, p1["minus"], p1["plus"], MPOptions(max_iters=2))
        assert (point.converged, point.iterations) == (False, 2)
    else:
        # an initial step below the underflow limit ends the line search at once
        opts = (DescentOptions(max_iters=2) if case == "descent_capped"
                else DescentOptions(initial_step=1e-17))
        model, point = plus, minimize(plus, initial_guess(plus, p1["phi1"]), opts)
        assert (point.converged, point.iterations) == (
            False, 2 if case == "descent_capped" else 0)
    fresh = float(np.max(np.abs(model.residual_values(point.u.values))))
    assert point.residual == fresh
