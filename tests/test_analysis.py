import dataclasses
import re

import numpy as np
import pytest

from trisol import analysis, grid
from trisol.analysis import (Classification, CriticalPoint, assemble_report,
                             check_bounds, morse_index, positivity_profile)
from trisol.energy import EnergyModel
from trisol.grid import (DomainSpec, Field, SingularPivotError, count_below,
                         neg_laplacian_values)
from trisol.nonlinearity import (Nonlinearity, TruncationMode,
                                 validate_condition_g)
from trisol.pipeline import run_pipeline
from trisol.presets import build_preset, cubic_nonlinearity
from trisol.spectrum import eigenpairs, sandwich_index

RT60 = np.sqrt(60.0)


def _dense_eigenvalues(spec, weights):
    """Oracle: eigenvalues of the assembled dense matrix -lap - diag(weights)."""
    n = spec.size
    A = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        A[:, j] = neg_laplacian_values(spec, e)
    A -= np.diag(np.broadcast_to(weights, (n,)))
    return np.linalg.eigvalsh(A)


def _probe_shifts(eigenvalues):
    """Shifts 1e-6 max(1, |ev|) to either side of each eigenvalue, and the
    midpoints between neighbours that differ by more than that."""
    ev = np.sort(eigenvalues)
    off = 1e-6 * np.maximum(1.0, np.abs(ev))
    gaps = np.flatnonzero(np.diff(ev) > off[1:])
    return np.concatenate((ev - off, ev + off, 0.5 * (ev[gaps] + ev[gaps + 1])))


def _assert_counts_match_dense(spec, nl, u_values, window=None):
    """count_below at every probe shift around the window smallest
    eigenvalues (all of them by default) equals the dense count."""
    weights = np.broadcast_to(nl.gprime(u_values), (1, spec.size))
    dense = _dense_eigenvalues(spec, weights[0])
    shifts = _probe_shifts(dense[:window])
    got = count_below(spec, weights, shifts)[0]
    assert np.array_equal(got, np.count_nonzero(dense[:, None] < shifts, axis=0))


def test_check_bounds_zero_field(p1):
    nl = p1["nl"]
    result = check_bounds(Field.zeros(p1["spec"]), nl.a_minus, nl.a_plus, 1e-9)
    assert result.ok


def test_check_bounds_plus_minimizer(p1):
    nl = p1["nl"]
    result = check_bounds(p1["plus"].u, 0.0, nl.a_plus, 1e-9)
    assert result.ok


def test_check_bounds_reports_worst_offender(p1):
    spec, nl = p1["spec"], p1["nl"]
    values = p1["plus"].u.values.copy()
    values[17] = nl.a_plus + 1.0
    result = check_bounds(Field(spec, values), nl.a_minus, nl.a_plus, 1e-9)
    assert not result.ok
    assert result.node_index == 17
    assert result.worst_violation == pytest.approx(1.0, rel=1e-12)


def test_positivity_profile_first_eigenfunction():
    spec = DomainSpec.interval(1.0, 127)
    u = Field.from_callable(spec, lambda x: np.sin(np.pi * x))
    profile = positivity_profile(u)
    assert profile.strictly_positive_interior
    # one-sided slope approximates the derivative pi of sin at the boundary
    assert profile.min_boundary_slope == pytest.approx(np.pi, rel=0.05)
    flipped = positivity_profile(-1.0 * u)
    assert not flipped.strictly_positive_interior


def test_positivity_profile_rectangle_faces():
    # hx = 1/24 and hy = 1/6 differ, so each face must use its own spacing
    spec = DomainSpec.rectangle(1.0, 2.0, 23, 11)
    hx, hy = spec.spacings
    rng = np.random.default_rng(29)
    for low in ((0, 5), (22, 5), (7, 0), (7, 10)):
        values = rng.uniform(0.5, 2.0, spec.counts)
        values[low] = 0.01
        u = Field(spec, values.ravel())
        faces = [values[0, :].min() / hx, values[-1, :].min() / hx,
                 values[:, 0].min() / hy, values[:, -1].min() / hy]
        profile = positivity_profile(u)
        assert profile.strictly_positive_interior
        assert profile.min_boundary_slope == min(faces)


def test_positivity_profile_plus_minimizer(p1):
    profile = positivity_profile(p1["plus"].u)
    assert profile.strictly_positive_interior
    assert profile.min_boundary_slope > 0.0


def test_morse_index_at_zero_is_k(p1):
    spec, nl = p1["spec"], p1["nl"]
    model = p1["models"][TruncationMode.FULL]
    (result,) = morse_index(model, [Field.zeros(spec)])
    assert result.index == 2
    assert result.index == sandwich_index(spec, 60.0)
    assert not result.degenerate


def test_morse_indices_of_the_three_solutions(p1):
    model = p1["models"][TruncationMode.FULL]
    plus, minus, star = morse_index(model, [p1["plus"].u, p1["minus"].u, p1["star"].u])
    assert plus.index == 0
    assert minus.index == 0
    assert star.index == 1
    assert not star.degenerate


def test_morse_eigenvalues_match_dense_oracle(p1):
    # the closed form at the origin and the block count at the saddle, at
    # every shift around the four smallest eigenvalues
    spec, nl = p1["spec"], p1["nl"]
    for u in (Field.zeros(spec), p1["star"].u):
        _assert_counts_match_dense(spec, nl, u.values, 4)


def test_morse_index_flags_degeneracy():
    # put g'(0) exactly on the grid's discrete eigenvalue: the linearized
    # operator at zero then has a kernel direction
    spec = DomainSpec.interval(1.0, 31)
    (h,) = spec.spacings
    lam2_h = (2.0 - 2.0 * np.cos(2 * np.pi * h)) / h**2
    nl = Nonlinearity(g=lambda t: lam2_h * t - t * t * t,
                      gprime=lambda t: lam2_h - 3.0 * (t * t),
                      a_minus=-np.sqrt(lam2_h), a_plus=np.sqrt(lam2_h),
                      delta=1.0, k=2)
    model = EnergyModel(spec, nl, TruncationMode.FULL)
    (result,) = morse_index(model, [Field.zeros(spec)])
    assert result.degenerate
    assert result.index == 1  # only the first eigenvalue is clearly negative


def test_morse_index_widens_window():
    # the count has no window to widen: an eigenvalue window that started
    # below 41 widened to at most 40 and reported 40 at both points
    spec = DomainSpec.interval(1.0, 255)
    nl = cubic_nonlinearity(spec, lam=(45 * np.pi) ** 2)
    model = EnergyModel(spec, nl, TruncationMode.FULL)
    tol = 1e-6 * nl.scale
    near = Field.from_callable(spec, lambda x: 1e-3 * np.sin(np.pi * x))
    zero, varying = morse_index(model, [Field.zeros(spec), near])
    assert zero.index == 45
    dense = _dense_eigenvalues(spec, nl.gprime(near.values))
    assert varying.index == np.count_nonzero(dense < -tol) > 40


def test_morse_index_stable_under_refinement_interval():
    from trisol.descent import initial_guess, minimize
    indices = {}
    for n in (63, 127):
        spec = DomainSpec.interval(1.0, n)
        nl = cubic_nonlinearity(spec)
        full = EnergyModel(spec, nl, TruncationMode.FULL)
        plus_model = EnergyModel(spec, nl, TruncationMode.PLUS)
        plus = minimize(plus_model, initial_guess(plus_model, eigenpairs(spec, 1)[0]))
        indices[n] = tuple(r.index for r in morse_index(full, [Field.zeros(spec), plus.u]))
    assert indices[63] == indices[127] == (2, 0)


def test_morse_index_stable_under_refinement_square():
    indices = {}
    for n in (31, 63):
        spec = DomainSpec.rectangle(1.0, 1.0, n, n)
        nl = cubic_nonlinearity(spec)
        full = EnergyModel(spec, nl, TruncationMode.FULL)
        indices[n] = morse_index(full, [Field.zeros(spec)])[0].index
    assert indices[31] == indices[63] == 3


def _assert_counts_match_sparse(spec, nl, u_values, count):
    """count_below at every probe shift below the last of the count smallest
    eigenvalues of the n x n square, found by shift-invert Lanczos, equals
    the count among them; returns them."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    n = spec.counts[0]
    (hx, hy) = spec.spacings
    T = sp.diags([2 * np.ones(n), -np.ones(n - 1), -np.ones(n - 1)], [0, 1, -1])
    A = sp.kron(T / hx**2, sp.identity(n)) + sp.kron(sp.identity(n), T / hy**2)
    weights = nl.gprime(u_values)
    L = (A - sp.diags(weights)).tocsc()
    # A is positive definite, so the spectrum lies above -max(w)
    expected = np.sort(spla.eigsh(L, k=count, sigma=-np.max(weights) - 1.0, which="LM",
                                  return_eigenvectors=False))
    shifts = _probe_shifts(expected)
    shifts = shifts[shifts < expected[-1]]
    got = count_below(spec, weights[None], shifts)[0]
    assert np.array_equal(got, np.count_nonzero(expected[:, None] < shifts, axis=0))
    return expected


def test_square_morse_matches_sparse_oracle():
    # independent check of the clustered 2D spectrum at the origin
    spec = DomainSpec.rectangle(1.0, 1.0, 31, 31)
    _assert_counts_match_sparse(spec, cubic_nonlinearity(spec), np.zeros(spec.size), 6)


def test_square_morse_iteration_matches_sparse_oracle():
    # the origin takes the closed form, so check the block recurrence on a
    # field with the square's symmetry, whose double eigenvalues stay double
    spec = DomainSpec.rectangle(1.0, 1.0, 31, 31)
    nl = cubic_nonlinearity(spec)
    u = eigenpairs(spec, 1)[0].phi * 4.0
    expected = _assert_counts_match_sparse(spec, nl, u.values, 7)
    assert np.isclose(expected[1], expected[2], rtol=1e-10)  # a double pair
    _assert_counts_match_dense(spec, nl, u.values, 40)


_SMALL_GRIDS = {"interval3": DomainSpec.interval(1.0, 3),
                "interval5": DomainSpec.interval(1.0, 5),
                "rect3x5": DomainSpec.rectangle(0.6, 1.0, 3, 5),
                "rect5x3": DomainSpec.rectangle(1.0, 0.6, 5, 3),
                "square3": DomainSpec.rectangle(1.0, 1.0, 3, 3),
                "square5": DomainSpec.rectangle(1.0, 1.0, 5, 5)}


@pytest.mark.parametrize("field", ["random", "constant"])
@pytest.mark.parametrize("window", [1, 4, "widest"])
@pytest.mark.parametrize("grid", sorted(_SMALL_GRIDS))
def test_morse_eigenvalues_on_small_grids_match_dense(grid, window, field):
    # blocks as wide as the grid, on both the block recurrence and the
    # closed form at constant g', probed around the window smallest
    # eigenvalues (all of them for "widest")
    spec = _SMALL_GRIDS[grid]
    nl = cubic_nonlinearity(spec)
    if field == "random":
        values = np.random.default_rng(29).uniform(nl.a_minus, nl.a_plus, spec.size)
    else:
        values = np.full(spec.size, 1e-7)
    _assert_counts_match_dense(spec, nl, values, None if window == "widest" else window)


def test_morse_singular_pivot_raises():
    # the 3-node interval is one pivot block, and weights 2/h^2 at both ends
    # leave it the kernel (1, 0, -1), caught by the eigvalsh guard
    spec = DomainSpec.interval(1.0, 3)
    (h,) = spec.spacings
    with pytest.raises(SingularPivotError, match="pivot block 0"):
        count_below(spec, np.array([[2.0 / h**2, 0.0, 2.0 / h**2]]), np.array([0.0]))


def test_morse_singular_first_block_raises_through_eigh():
    # the 3 x 3 square is one pivot block with diagonal 4/h^2 = 64, so weight
    # 64 off the centre leaves a kernel (+1 on the top and bottom edge
    # midpoints, -1 on the left and right ones); the block fails the
    # Cholesky test and must be caught by the guard on the fallback's
    # eigvalsh eigenvalues, before the step inverts it
    spec = DomainSpec.rectangle(1.0, 1.0, 3, 3)
    weights = np.full((1, spec.size), 64.0)
    weights[0, 4] = 0.0
    with pytest.raises(SingularPivotError, match="pivot block 0"):
        count_below(spec, weights, np.array([0.0]))


@pytest.mark.parametrize("counts, weights", [((3,), [32.0, 0.0, 0.0]),
                                             ((3, 3), [64.0] * 3 + [0.0] * 6)],
                         ids=["interval3", "square3"])
def test_count_below_counts_a_singular_first_line_inside_its_block(counts, weights):
    # 2/h^2 = 32 on the interval's first node and 4/h^2 = 64 on the square's
    # first line make that line singular on its own, but its pivot block is
    # the whole grid, which is not, so the count is the dense one
    spec = DomainSpec((1.0,) * len(counts), counts)
    shifts = np.array([-1.0, 0.0, 1.0])
    expected = np.count_nonzero(_dense_eigenvalues(spec, weights)[:, None] < shifts, axis=0)
    assert np.array_equal(count_below(spec, np.array([weights]), shifts)[0], expected)


@pytest.mark.parametrize("grid", ["interval7", "square5"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["weights", "shifts"])
def test_count_below_rejects_non_finite(grid, bad, where):
    spec = {"interval7": DomainSpec.interval(1.0, 7),
            "square5": DomainSpec.rectangle(1.0, 1.0, 5, 5)}[grid]
    weights = np.random.default_rng(43).uniform(0.0, 60.0, (3, spec.size))
    shifts = np.array([-1.0, 0.0, 1.0])
    if where == "weights":
        weights[1, spec.size // 2] = bad
        match = "weight row 1 "
    else:
        shifts[2] = bad
        match = "shift 2 "
    with pytest.raises(ValueError, match=match):
        count_below(spec, weights, shifts)


@pytest.mark.parametrize("grid", sorted(_SMALL_GRIDS))
def test_count_below_duplicate_rows_match_single_rows(grid):
    # equal rows are counted once and the counts scattered back in order
    spec = _SMALL_GRIDS[grid]
    nl = cubic_nonlinearity(spec)
    rng = np.random.default_rng(47)
    a, b = (nl.gprime(rng.uniform(nl.a_minus, nl.a_plus, spec.size)) for _ in range(2))
    constant, zero = np.full(spec.size, nl.gprime(0.0)), np.zeros(spec.size)
    stack = np.stack([b, a, constant, b, -a, a, -zero, zero])
    shifts = np.array([-50.0, -1.0, 1.0, 50.0, 500.0])
    expected = np.stack([count_below(spec, row[None], shifts)[0] for row in stack])
    assert np.array_equal(count_below(spec, stack, shifts), expected)


def _seeded_count_cases():
    """40 rectangles of 3 to 20 nodes a side and 6 intervals of 3 to 60
    nodes, sides in [0.3, 3], each with three weight rows in [-50, 3000]."""
    rng = np.random.default_rng(20261019)
    cases = []
    for _ in range(40):
        nx, ny = rng.integers(3, 21, size=2)
        width, height = rng.uniform(0.3, 3.0, size=2)
        cases.append(DomainSpec.rectangle(width, height, nx, ny))
    for _ in range(6):
        cases.append(DomainSpec.interval(rng.uniform(0.3, 3.0), rng.integers(3, 61)))
    return [(spec, rng.uniform(-50.0, 3000.0, (3, spec.size))) for spec in cases]


def test_count_below_matches_dense_on_seeded_domains():
    # large weights make most 2D block steps fail the Cholesky test, so
    # this checks the fallback's count and the inverse taken after it
    shifts = np.array([-1.0, 0.0, 1.0])
    for spec, weights in _seeded_count_cases():
        expected = [np.count_nonzero(_dense_eigenvalues(spec, w)[:, None] < shifts, axis=0)
                    for w in weights]
        assert np.array_equal(count_below(spec, weights, shifts), expected), spec


@pytest.mark.parametrize("lengths, counts", [
    ((1.0,), (32,)), ((1.0,), (33,)), ((1.0,), (100,)), ((1.0,), (511,)),
    ((1.0, 1.0), (3, 63)), ((1.0, 1.0), (63, 3)), ((2.0, 1.0), (31, 15))],
    ids=["interval32", "interval33", "interval100", "interval511", "3x63", "63x3", "31x15"])
def test_count_below_matches_dense_in_blocks_of_several_lines(lengths, counts):
    # pivot blocks of PIVOT_NODES = 32 nodes: one whole block, a block and one
    # node, three and a short fourth, fifteen and one of 31 nodes; ten lines
    # of 3 nodes per block on the thin rectangles (either axis), two lines
    # of 15 on the 2 x 1 rectangle at 31 x 15
    spec = DomainSpec(lengths, counts)
    weights = np.random.default_rng(20261020).uniform(-50.0, 3000.0, (3, spec.size))
    shifts = np.array([-1.0, 0.0, 1.0])
    expected = [np.count_nonzero(_dense_eigenvalues(spec, w)[:, None] < shifts, axis=0)
                for w in weights]
    assert np.array_equal(count_below(spec, weights, shifts), expected)


@pytest.mark.parametrize("preset, n, steps", [("p1-interval", 511, 16), ("p2-square", None, 63)])
def test_count_below_steps_in_blocks_of_several_lines(preset, n, steps, monkeypatch):
    # deterministic guard against per-node steps: counting a solve's four
    # points solves one pivot block per step, 16 blocks of up to 32 nodes
    # on the interval at 511 and one 63-node grid line per step on p2, each
    # for the last line's columns of the identity only
    spec, nl = build_preset(preset, n)
    report = run_pipeline(spec, nl)
    calls = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve",
                        lambda a, b: calls.append((a.shape, b.shape)) or solve(a, b))
    model = EnergyModel(spec, nl, TruncationMode.FULL)
    indices = [r.index for r in morse_index(model, [p.u for p in report.points])]
    assert indices == [p.morse_index for p in report.points]
    assert 0 < len(calls) <= steps
    width = 1 if spec.ndim == 1 else min(spec.counts)
    assert all(b == (a[-1], width) for a, b in calls), calls


@pytest.mark.parametrize("preset, n, zero_row", [("p1-interval", 511, [0, 0, 7, 14]),
                                             ("p2-square", None, [0, 0, 33, 150])],
                         ids=["interval-511", "square-63"])
def test_count_below_of_constant_rows_takes_no_pivot_step(preset, n, zero_row, monkeypatch):
    # a stack of constant rows is counted from the symbol alone, with no
    # factorization, inverse or solve; below 500 and 2000 the zero row counts
    # the modes with about pi^2 (j^2 + k^2) below the shift
    spec, _ = build_preset(preset, n)
    for name in ("cholesky", "inv", "solve", "eigvalsh"):
        def refuse(*args, name=name):
            raise AssertionError(f"the symbol's counts called np.linalg.{name}")
        monkeypatch.setattr(np.linalg, name, refuse)
    weights = np.array([[0.0], [60.0], [-3.0]]) * np.ones(spec.size)
    shifts = np.array([-100.0, 0.0, 500.0, 2000.0])
    symbol = grid._symbol(spec).ravel()
    expected = [np.count_nonzero(symbol - w[0] < shifts[:, None], axis=1) for w in weights]
    assert np.array_equal(count_below(spec, weights, shifts), expected)
    assert np.array_equal(expected[0], zero_row)


def test_morse_work_count(p1, monkeypatch):
    # deterministic guard against per-point loops: a report counts all four
    # points in one call, and counting applies no stencil
    model = p1["models"][TruncationMode.FULL]
    calls = []
    count = analysis.morse_index
    monkeypatch.setattr(analysis, "morse_index",
                        lambda model, fields, tol: calls.append(len(fields))
                        or count(model, fields, tol))
    condition = validate_condition_g(p1["nl"], p1["spec"])
    report = assemble_report(model, condition, p1["minus"], p1["plus"], p1["star"])
    assert calls == [4]
    assert [p.morse_index for p in report.points] == [0, 0, 1, 2]

    def no_stencil(spec, values):
        raise AssertionError("the inertia count applied the stencil")
    for module in (analysis, grid):
        monkeypatch.setattr(module, "neg_laplacian_values", no_stencil)
    points = [p.u for p in report.points]
    assert [r.index for r in count(model, points)] == [0, 0, 1, 2]


@pytest.mark.parametrize("points, tol", [(4, -100.0), (4, 0.0), (4, float("nan")),
                                         (4, float("inf"))])
def test_morse_index_rejects_bad_window(p1, points, tol):
    # tol sets the window [-tol, tol] that marks a point degenerate
    model = p1["models"][TruncationMode.FULL]
    with pytest.raises(ValueError):
        morse_index(model, [Field.zeros(p1["spec"])] * points, tol)


def test_assemble_report_p1(p1_report):
    report = p1_report
    assert report.all_ok
    assert report.flags["condition_g"]
    assert report.flags["distinctness"]
    assert report.flags["morse_comparison"]
    assert report.morse_comparison == "ok"
    assert [p.morse_index for p in report.points] == [0, 0, 1, 2]
    assert [p.classification for p in report.points] == [
        Classification.NEGATIVE_MIN, Classification.POSITIVE_MIN,
        Classification.MOUNTAIN_PASS, Classification.TRIVIAL]
    assert report.star.energy > max(report.minus.energy, report.plus.energy)


def test_assemble_report_detects_duplicate(p1):
    model = p1["models"][TruncationMode.FULL]
    condition = validate_condition_g(p1["nl"], p1["spec"])
    duplicate = CriticalPoint(u=p1["plus"].u, energy=p1["plus"].energy,
                              residual=p1["plus"].residual,
                              classification=Classification.MOUNTAIN_PASS,
                              converged=True)
    report = assemble_report(model, condition, p1["minus"], p1["plus"], duplicate)
    assert not report.flags["distinctness"]
    assert not report.all_ok


def test_assemble_report_refuses_morse_comparison_for_k1(p1):
    spec = p1["spec"]
    nl = p1["nl"]
    k1 = Nonlinearity(g=nl.g, gprime=nl.gprime, a_minus=nl.a_minus,
                      a_plus=nl.a_plus, delta=nl.delta, k=1)
    model = EnergyModel(spec, k1, TruncationMode.FULL)
    condition = validate_condition_g(k1, spec)
    report = assemble_report(model, condition, p1["minus"], p1["plus"], p1["star"])
    assert report.morse_comparison == "refused"
    assert not report.flags["morse_comparison"]


def _copies(*points):
    # assemble_report writes Morse and bounds results into its points
    return [dataclasses.replace(p) for p in points]


def test_assemble_report_notes_a_bound_violation(p1, p1_report):
    model = p1["models"][TruncationMode.FULL]
    star = p1["star"]
    past = 1.5 * p1["nl"].a_plus / float(np.max(star.u.values))
    scaled = dataclasses.replace(star, u=Field(p1["spec"], past * star.u.values))
    report = assemble_report(model, p1_report.condition_g,
                             *_copies(p1["minus"], p1["plus"]), scaled)
    assert not report.flags["bounds"]
    assert not scaled.bounds_ok
    (note,) = [n for n in report.notes if "bound violation" in n]
    assert re.fullmatch(r"MountainPass: bound violation \d\.\d{3}e[+-]\d+ at node \d+", note)


def test_assemble_report_marks_a_degenerate_comparison_inconclusive(p1, p1_report):
    # a tolerance of 100 puts eigenvalues of the origin inside [-tol, tol)
    model = p1["models"][TruncationMode.FULL]
    report = assemble_report(model, p1_report.condition_g,
                             *_copies(p1["minus"], p1["plus"], p1["star"]), morse_tol=100.0)
    assert report.trivial.morse_degenerate
    assert report.morse_comparison == "inconclusive"
    assert not report.flags["morse_comparison"]
    assert "Morse comparison inconclusive: degenerate eigenvalue within tolerance of zero" \
        in report.notes


@pytest.mark.parametrize("counts, index, comparison", [
    ((3, 63), 2, "failed"), ((63, 3), 1, "ok")], ids=["3x63", "63x3"])
def test_morse_comparison_certifies_only_an_index_1_saddle(counts, index, comparison):
    # the same discrete problem on a grid and its transpose: on 3 x 63 the
    # path converges to a saddle of index 2, which differs from the origin's
    # 3 but is no mountain-pass point; on 63 x 3 it finds the index-1 saddle
    spec = DomainSpec((1.0, 1.0), counts)
    nl = cubic_nonlinearity(spec, 60.0)
    report = run_pipeline(spec, nl)
    assert [p.morse_index for p in report.points] == [0, 0, index, 3]
    assert not any(p.morse_degenerate for p in report.points)
    dense = _dense_eigenvalues(spec, nl.gprime(report.star.u.values))
    assert np.count_nonzero(dense < 0.0) == index
    assert report.morse_comparison == comparison
    assert report.all_ok == report.flags["morse_comparison"] == (comparison == "ok")
    failed = [n for n in report.notes if n.startswith("Morse comparison failed")]
    assert failed == ([] if index == 1 else [
        "Morse comparison failed: u* has index 2, the origin 3; "
        "a mountain-pass point has index 1"])


def test_classical_equivalence_flag(p1_report):
    # inside the root interval the truncation is inactive, so the computed
    # solutions solve the original equation exactly
    assert p1_report.flags["classical_equivalence"]


def test_report_serialization_roundtrip(p1_report):
    body = p1_report.to_dict()
    assert body["grid"]["kind"] == "interval"
    assert len(body["points"]) == 4
    assert body["points"][2]["classification"] == "MountainPass"
    assert body["flags"]["morse_comparison"] is True
