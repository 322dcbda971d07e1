"""Acceptance suite: every criterion at its stated tolerance.

Each test registers a PASS/FAIL line that is printed in the terminal
summary.  Criteria 1 and 3 run the CLI end to end and enforce wall-clock
budgets; criterion 2 certifies the solver against the shooting oracle.
"""

import functools
import json
import time

import numpy as np
import pytest

from conftest import record_acceptance
from trisol.cli import main, read_field_csv
from trisol.descent import initial_guess, minimize
from trisol.energy import EnergyModel
from trisol.grid import DomainSpec, Field, inner_product, quadrature
from trisol.nonlinearity import TruncationMode, antiderivative, truncate
from trisol.oracle import STEPS, find_branch, sign_change_brackets, sweep
from trisol.presets import build_preset, cubic_nonlinearity
from trisol.spectrum import eigenpairs, sandwich_index

RT60 = np.sqrt(60.0)


def _checked(label):
    """Report PASS only if every assertion in the test body held."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                record_acceptance(label, False)
                raise
            record_acceptance(label, True)
        return wrapper
    return deco


@_checked("1 (P1 end-to-end)")
def test_criterion_1_p1_end_to_end(tmp_path):
    started = time.monotonic()
    rc = main(["solve", "--preset", "p1-interval", "--out", str(tmp_path)])
    elapsed = time.monotonic() - started
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())

    spec = DomainSpec.interval(1.0, 127)
    nl = cubic_nonlinearity(spec)
    minus, plus, star, zero = report["points"]
    for point in (minus, plus, star):
        assert point["converged"]
        assert point["residual"] <= 1e-8 * nl.scale
    for name in ("u_minus.csv", "u_plus.csv", "u_star.csv"):
        u = read_field_csv(tmp_path / name, spec)
        assert np.max(np.abs(u.values)) <= RT60 + 1e-9
        assert np.max(np.abs(u.values)) > 1e-3
    assert minus["energy"] < 0.0 and plus["energy"] < 0.0
    assert star["energy"] > max(minus["energy"], plus["energy"])
    assert [p["morse_index"] for p in (minus, plus, star, zero)] == [0, 0, 1, 2]
    assert elapsed <= 60.0


@_checked("2 (oracle equivalence)")
def test_criterion_2_oracle_equivalence():
    length = 1.0
    steps = STEPS
    nl = cubic_nonlinearity(DomainSpec.interval(length, 63))

    # certify at least three nontrivial branches from the slope sweep
    slopes = np.arange(-50.0, 50.0 + 0.005, 0.01)
    endpoints, blown = sweep(nl, length, slopes, steps)
    brackets = sign_change_brackets(slopes, endpoints, blown)
    assert len(brackets) >= 3

    # the positive one-sign branch is the comparison target
    positive_bracket = max(brackets, key=lambda br: br[0])
    (branch,) = find_branch(nl, length, [positive_bracket], steps)
    assert np.all(branch.values[1:-1] > 0.0)
    amplitude = float(np.max(branch.values))

    errors, hs = [], []
    for n in (63, 127, 255):
        spec = DomainSpec.interval(length, n)
        nl_n = cubic_nonlinearity(spec)
        model = EnergyModel(spec, nl_n, TruncationMode.PLUS)
        point = minimize(model, initial_guess(model, eigenpairs(spec, 1)[0]))
        assert point.converged
        h = spec.spacings[0]
        err = float(np.max(np.abs(point.u.values - branch.values_at(spec))))
        assert err <= 5.0 * h * h * amplitude
        errors.append(err)
        hs.append(h)
    order = np.polyfit(np.log(hs), np.log(errors), 1)[0]
    assert 1.8 <= order <= 2.2


@_checked("3 (P2 end-to-end)")
def test_criterion_3_p2_end_to_end(tmp_path):
    started = time.monotonic()
    rc = main(["solve", "--preset", "p2-square", "--out", str(tmp_path)])
    elapsed = time.monotonic() - started
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    zero = report["points"][3]
    spec = DomainSpec.rectangle(1.0, 1.0, 63, 63)
    assert zero["morse_index"] == 3
    assert zero["morse_index"] == sandwich_index(spec, 60.0)
    assert all(report["flags"].values())
    assert report["points"][2]["iterations"] <= 100   # path iterations of u*
    assert elapsed <= 300.0


@_checked("4 (gradient consistency)")
def test_criterion_4_gradient_consistency():
    spec = DomainSpec.interval(1.0, 63)
    nl = cubic_nonlinearity(spec)
    model = EnergyModel(spec, nl, TruncationMode.FULL)
    rng = np.random.default_rng(79)
    eps = 1e-5
    for _ in range(10):
        magnitudes = rng.uniform(0.1, 0.45, spec.size) * nl.a_plus
        u = Field(spec, magnitudes * rng.choice([-1.0, 1.0], spec.size))
        v = Field(spec, rng.standard_normal(spec.size))
        pairing = inner_product(spec, model.grad_residual(u), v)
        fd = (model.phi(u + eps * v) - model.phi(u - eps * v)) / (2 * eps)
        assert fd == pytest.approx(pairing, rel=1e-6)


@_checked("5 (truncation suite)")
def test_criterion_5_truncation_suite():
    spec = DomainSpec.interval(1.0, 63)
    nl = cubic_nonlinearity(spec)
    rng = np.random.default_rng(83)

    ts = rng.uniform(-12.0, 12.0, 1000)
    assert np.array_equal(
        truncate(nl, TruncationMode.PLUS, ts) + truncate(nl, TruncationMode.MINUS, ts),
        truncate(nl, TruncationMode.FULL, ts))

    kinks = np.array([nl.a_minus, 0.0, nl.a_plus])
    eps = 1e-6
    count = 0
    while count < 200:
        t = rng.uniform(-9.0, 9.0)
        if np.min(np.abs(t - kinks)) <= 1e-3:
            continue
        count += 1
        for mode in TruncationMode:
            fd = (antiderivative(nl, mode, t + eps)
                  - antiderivative(nl, mode, t - eps)) / (2 * eps)
            assert abs(fd - truncate(nl, mode, t)) <= 1e-4 * nl.scale

    model = EnergyModel(spec, nl, TruncationMode.PLUS)
    grid_ts = np.linspace(0.0, nl.a_plus, 2001)
    m_g = float(np.max(np.abs(antiderivative(nl, TruncationMode.PLUS, grid_ts))))
    omega = quadrature(spec, Field(spec, np.ones(spec.size)), "integral")
    for amp in 10.0 ** rng.uniform(-3, 3, 1000):
        u = Field(spec, amp * rng.standard_normal(spec.size))
        h1 = quadrature(spec, u, "h1_seminorm")
        assert model.phi(u) >= 0.5 * h1 * h1 - m_g * omega - 1e-9


@_checked("6 (spectrum suite)")
def test_criterion_6_spectrum_suite():
    from trisol.grid import apply_neg_laplacian
    pi2 = np.pi**2
    for spec in (DomainSpec.interval(1.0, 63),
                 DomainSpec.rectangle(1.0, 1.0, 31, 31)):
        h = max(spec.spacings)
        for pair in eigenpairs(spec, 4):
            resid = apply_neg_laplacian(spec, pair.phi) - pair.lam * pair.phi
            rel = quadrature(spec, resid, "l2_norm") / pair.lam
            assert rel <= 2.0 * (np.pi * h) ** 2
    square = DomainSpec.rectangle(1.0, 1.0, 15, 15)
    lams = [p.lam for p in eigenpairs(square, 4)]
    assert lams == [2 * pi2, 5 * pi2, 5 * pi2, 8 * pi2]


@_checked("7 (negative-energy direction)")
def test_criterion_7_negative_energy_direction():
    for preset in ("p1-interval", "p2-square"):
        spec, nl = build_preset(preset)
        model = EnergyModel(spec, nl, TruncationMode.PLUS)
        phi1 = eigenpairs(spec, 1)[0].phi
        s = 0.5 * nl.delta / quadrature(spec, phi1, "sup_norm")
        assert model.phi(s * phi1) < 0.0


@_checked("8 (determinism)")
def test_criterion_8_determinism(tmp_path):
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        rc = main(["solve", "--preset", "p1-interval", "--n", "63",
                   "--out", str(out)])
        assert rc == 0
        outputs.append(out)

    def body_without_timestamp(path):
        return [line for line in path.read_text().splitlines()
                if '"timestamp"' not in line]

    assert (body_without_timestamp(outputs[0] / "report.json")
            == body_without_timestamp(outputs[1] / "report.json"))
    for name in ("u_minus.csv", "u_plus.csv", "u_star.csv", "u_zero.csv"):
        assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()
