import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trisol
from trisol.cli import (_SCHEMA, ConfigError, RunConfig, main, parse_config_file,
                        read_field_csv, report_to_json, write_field_csv)
from trisol.descent import DescentOptions
from trisol.grid import DomainSpec, Field
from trisol.mountainpass import MPOptions
from trisol.presets import cubic_nonlinearity


def test_parse_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# a comment\n"
        "preset = p1-interval\n"
        "grid.n = 31        # inline comment\n"
        "descent.grad_tol = 1e-7\n"
        "\n")
    entries = parse_config_file(str(cfg))
    assert entries == {"preset": "p1-interval", "grid.n": 31,
                       "descent.grad_tol": 1e-7}


def test_parse_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid.m = 10\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_file(str(cfg))


def test_parse_config_rejects_bad_value(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid.n = many\n")
    with pytest.raises(ConfigError, match="bad value"):
        parse_config_file(str(cfg))


def test_resolution_order(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset = p2-square\ngrid.nx = 21\n")
    resolved = RunConfig.resolve(str(cfg), None, None, None)
    assert resolved.preset == "p2-square"
    assert resolved.settings["grid.nx"] == 21      # file overrides preset
    assert resolved.settings["grid.ny"] == 63      # preset default kept
    spec = resolved.domain()
    assert spec.counts == (21, 63)
    # the --n flag overrides everything
    flagged = RunConfig.resolve(str(cfg), None, 15, None)
    assert flagged.domain().counts == (15, 15)


@pytest.mark.parametrize("kind, lengths, counts", [
    ("interval", (1.0,), (127,)),
    ("rectangle", (1.0, 1.0), (63, 63)),
])
def test_defaults_without_preset(tmp_path, kind, lengths, counts):
    # an interval defaults to p1's domain, a rectangle to p2's, and the
    # cubic to cubic_nonlinearity's own lambda and delta
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"domain.kind = {kind}\n")
    resolved = RunConfig.resolve(str(cfg), None, None, None)
    spec = resolved.domain()
    assert (spec.lengths, spec.counts) == (lengths, counts)
    nl, default = resolved.nonlinearity(spec), cubic_nonlinearity(spec)
    assert (nl.a_minus, nl.a_plus, nl.delta, nl.k) == (
        default.a_minus, default.a_plus, default.delta, default.k)


# one valid value per config key
_VALID_SETTINGS = {
    "preset": "p2-square",
    "domain.kind": "rectangle",
    "domain.length": "2.0",
    "domain.width": "2.0",
    "domain.height": "0.5",
    "grid.n": "31",
    "grid.nx": "15",
    "grid.ny": "7",
    "nonlinearity.name": "cubic",
    "nonlinearity.lambda": "70",
    "nonlinearity.delta": "0.5",
    "descent.max_iters": "100",
    "descent.grad_tol": "1e-7",
    "descent.armijo_c": "0.01",
    "descent.backtrack_factor": "0.25",
    "descent.initial_step": "0.5",
    "mountainpass.path_count": "31",
    "mountainpass.max_iters": "500",
    "mountainpass.grad_tol": "1e-7",
    "mountainpass.perturbation": "0.2",
    "mountainpass.collapse_tol": "1e-5",
    "mountainpass.restart_limit": "2",
    "morse.tol": "1e-5",
    "validate.samples": "256",
    "eigen.count": "4",
    "oracle.steps": "2048",
    "oracle.slope_min": "-10",
    "oracle.slope_max": "10",
    "oracle.slope_step": "0.5",
    "output.dir": "elsewhere",
}


def test_valid_settings_cover_the_schema():
    assert len(_SCHEMA) == 30
    assert set(_VALID_SETTINGS) == set(_SCHEMA)


@pytest.mark.parametrize("key", sorted(_VALID_SETTINGS))
def test_every_key_resolves(tmp_path, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {_VALID_SETTINGS[key]}\n")
    resolved = RunConfig.resolve(str(cfg), None, None, None)
    value = _SCHEMA[key](_VALID_SETTINGS[key])
    assert (resolved.preset if key == "preset" else resolved.settings[key]) == value
    spec = resolved.domain()
    resolved.nonlinearity(spec)
    for cls, prefix in ((DescentOptions, "descent"), (MPOptions, "mountainpass")):
        options = resolved.options(cls, prefix)
        if key.startswith(prefix + "."):
            assert getattr(options, key.split(".")[1]) == value


def test_report_json_keys(p1_report):
    files = ["u_minus.csv", "u_plus.csv", "u_star.csv", "u_zero.csv"]
    body = json.loads(report_to_json(p1_report, files))
    point_keys = {"classification", "energy", "residual", "converged", "iterations",
                  "morse_index", "morse_degenerate", "bounds_ok"}
    for entry, name in zip(body["points"], files):
        assert set(entry) == point_keys | {"file"}
        assert entry["file"] == name
    assert [p["classification"] for p in body["points"]] == [
        "NegativeMin", "PositiveMin", "MountainPass", "Trivial"]
    assert set(body["condition_g"]) == {
        "ok", "k_claimed", "k_computed", "lambda_k", "lambda_k1", "failures"}


def test_unknown_preset_is_config_error():
    with pytest.raises(ConfigError, match="unknown preset"):
        RunConfig.resolve(None, "p9-torus", None, None)


def test_field_csv_roundtrip_1d(tmp_path):
    spec = DomainSpec.interval(1.0, 31)
    rng = np.random.default_rng(71)
    u = Field(spec, rng.standard_normal(spec.size))
    path = tmp_path / "u.csv"
    write_field_csv(path, spec, u)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,u"
    assert len(lines) == 34          # header + boundary + 31 interior + boundary
    back = read_field_csv(path, spec)
    assert np.array_equal(back.values, u.values)


def test_field_csv_roundtrip_2d(tmp_path):
    spec = DomainSpec.rectangle(1.0, 2.0, 7, 9)
    rng = np.random.default_rng(73)
    u = Field(spec, rng.standard_normal(spec.size))
    path = tmp_path / "u.csv"
    write_field_csv(path, spec, u)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,u"
    assert len(lines) == 1 + 9 * 11  # header + the grid with its boundary
    # one row per node, y varying fastest, 17 significant digits
    i, j = 3, 4
    x, y = spec.axes()[0][i], spec.axes()[1][j]
    assert lines[1 + (i + 1) * 11 + (j + 1)] == f"{x:.17g},{y:.17g},{u.reshaped()[i, j]:.17g}"
    back = read_field_csv(path, spec)
    assert np.array_equal(back.values, u.values)
    # same node counts, other side lengths: the x/y columns do not match
    with pytest.raises(ValueError, match="node coordinates do not match the grid"):
        read_field_csv(path, DomainSpec.rectangle(3.0, 0.5, 7, 9))
    path.write_text("\n".join(lines[:-3]) + "\n")
    with pytest.raises(ValueError, match="row count does not match the grid"):
        read_field_csv(path, spec)


def test_eigen_command_square(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("domain.kind = rectangle\ngrid.nx = 15\ngrid.ny = 15\n"
                   "eigen.count = 4\n")
    rc = main(["eigen", "--config", str(cfg)])
    assert rc == 0
    body = json.loads(capsys.readouterr().out)
    pi2 = np.pi**2
    assert body["eigenvalues"] == pytest.approx(
        [2 * pi2, 5 * pi2, 5 * pi2, 8 * pi2], rel=1e-12)
    assert body["pairs"][1]["mode"] == [1, 2]


def test_validate_command_passes_on_preset(capsys):
    rc = main(["validate", "--preset", "p1-interval", "--n", "31"])
    assert rc == 0
    body = json.loads(capsys.readouterr().out)
    assert body["ok"] is True


def test_validate_command_fails_on_oversized_delta(tmp_path, capsys):
    # delta = 5 pushes g(t)/t below the k-th eigenvalue near the edge
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset = p1-interval\ngrid.n = 31\nnonlinearity.delta = 5\n")
    rc = main(["validate", "--config", str(cfg)])
    assert rc == 1
    body = json.loads(capsys.readouterr().out)
    assert body["ok"] is False
    assert any(f["check"] == "sandwich_lower" for f in body["failures"])


_STENCIL_INDEX_MISMATCH = ("domain.kind = interval\ngrid.n = 15\n"
                           "nonlinearity.lambda = 87\nnonlinearity.delta = 0.3\n")


def test_validate_command_fails_on_stencil_index_mismatch(tmp_path, capsys):
    # continuum k = 2, but three stencil eigenvalues lie below g'(0) = 87
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_STENCIL_INDEX_MISMATCH)
    assert main(["validate", "--config", str(cfg)]) == 1
    body = json.loads(capsys.readouterr().out)
    assert body["ok"] is False
    assert (body["k_claimed"], body["k_computed"]) == (2, 3)
    assert [f["check"] for f in body["failures"]] == ["index"]
    assert set(body["failures"][0]) == {"check", "detail", "witness"}


def test_solve_command_fails_on_stencil_index_mismatch(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_STENCIL_INDEX_MISMATCH)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["flags"]["condition_g"] is False
    assert (report["condition_g"]["k_claimed"],
            report["condition_g"]["k_computed"]) == (2, 3)
    assert [f["check"] for f in report["condition_g"]["failures"]] == ["index"]
    assert report["points"][3]["morse_index"] == 3


def test_missing_config_file_is_exit_2(capsys):
    assert main(["eigen", "--config", "/nonexistent/run.cfg"]) == 2


def test_unknown_key_is_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("volume.flux = 3\n")
    assert main(["eigen", "--config", str(cfg)]) == 2


def test_solve_command_small_interval(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["solve", "--preset", "p1-interval", "--n", "31",
               "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["preset"] == "p1-interval"
    assert set(report["flags"]) == {
        "condition_g", "converged", "bounds", "classical_equivalence",
        "positivity", "distinctness", "nontriviality", "morse_comparison"}
    assert all(report["flags"].values())
    assert [p["classification"] for p in report["points"]] == [
        "NegativeMin", "PositiveMin", "MountainPass", "Trivial"]
    assert [p["morse_index"] for p in report["points"]] == [0, 0, 1, 2]
    assert all(p["bounds_ok"] for p in report["points"])
    files = [p["file"] for p in report["points"]]
    assert files == ["u_minus.csv", "u_plus.csv", "u_star.csv", "u_zero.csv"]
    for name in files:
        assert (out / name).exists()
    spec = DomainSpec.interval(1.0, 31)
    u_star = read_field_csv(out / "u_star.csv", spec)
    assert np.max(np.abs(u_star.values)) > 0.1


def test_solve_command_large_interval(tmp_path, capsys):
    # n = 511 is past the grids the presets ship with
    out = tmp_path / "out"
    rc = main(["solve", "--preset", "p1-interval", "--n", "511",
               "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert all(report["flags"].values())
    assert [p["morse_index"] for p in report["points"]] == [0, 0, 1, 2]


@pytest.mark.parametrize("line", ["poisson.tol = 1e-10", "morse.num_eigs = 0"])
def test_removed_poisson_tol_key_is_exit_2(tmp_path, capsys, line):
    # Poisson solves are direct and Morse indices are exact counts, so the
    # old tolerance and eigenvalue-window keys are unknown now
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"preset = p1-interval\ngrid.n = 31\n{line}\n")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    key = line.split(" = ")[0]
    assert f"unknown key {key!r}" in capsys.readouterr().err


_ALL_COMMANDS = ("solve", "eigen", "validate", "oracle")


@pytest.mark.parametrize("line", ["descent.armijo_c = 2",
                                  "mountainpass.path_count = 4",
                                  "mountainpass.max_iters = -1",
                                  "morse.tol = -100", "morse.tol = 0",
                                  "mountainpass.perturbation = nan",
                                  "mountainpass.collapse_tol = nan",
                                  "mountainpass.collapse_tol = -1",
                                  "oracle.slope_step = 0", "oracle.slope_step = -0.5",
                                  "oracle.slope_max = -60", "oracle.steps = 512",
                                  "oracle.slope_step = 1e-15",
                                  "validate.samples = 50", "eigen.count = 0",
                                  "descent.initial_step = inf", "descent.grad_tol = nan"])
def test_out_of_range_option_is_exit_2(tmp_path, capsys, line):
    # every command checks the whole configuration before any work
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"preset = p1-interval\ngrid.n = 31\n{line}\n")
    for command in _ALL_COMMANDS:
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
        assert main(argv) == 2, command
        assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # and nothing is written


def test_oracle_zero_slope_step_is_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset = p1-interval\ngrid.n = 31\noracle.slope_step = 0\n")
    assert main(["oracle", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "Traceback" not in err


def _run_python(code, cwd, **kwargs):
    """Run `code` in a fresh interpreter that imports this trisol, with its
    stdout piped and block-buffered, as a pipe is by default."""
    src = str(Path(trisol.__file__).resolve().parents[1])
    env = {**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True, **kwargs)


def _cap_address_space():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))



@pytest.mark.skipif(os.name != "posix", reason="caps memory with resource.setrlimit")
@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key, commands", [
    ("domain.length", _ALL_COMMANDS), ("domain.width", _ALL_COMMANDS),
    ("domain.height", _ALL_COMMANDS), ("nonlinearity.lambda", ("solve", "validate", "oracle")),
    ("nonlinearity.delta", ("solve", "validate", "oracle"))])
def test_non_finite_key_is_exit_2(tmp_path, key, commands, value):
    # such values once hung a run or filled memory (lambda = nan grew the
    # eigenvalue table without end), so every command that reads the key
    # runs in a child with a timeout and a 1 GB address-space cap
    kind = "rectangle" if key in ("domain.width", "domain.height") else "interval"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"domain.kind = {kind}\ngrid.n = 31\ngrid.nx = 15\ngrid.ny = 15\n"
                   f"{key} = {value}\n")
    code = ("from trisol.cli import main\n"
            f"print([main([c, '--config', {str(cfg)!r}, '--out', 'out']) for c in {commands!r}])")
    done = _run_python(code, tmp_path, timeout=60, preexec_fn=_cap_address_space)
    assert done.stdout.strip().splitlines()[-1] == str([2] * len(commands))
    assert done.stderr.count("configuration error") == len(commands)
    assert not (tmp_path / "out").exists()


def _optional_numpy_modules_after(argv, cwd):
    """Run main(argv) in a fresh interpreter; return its exit code and which
    of numpy.random and numpy.fft it imported."""
    code = ("import sys\n"
            "from trisol.cli import main\n"
            f"rc = main({argv!r})\n"
            "print(rc, [m for m in ('numpy.random', 'numpy.fft') if m in sys.modules])")
    done = _run_python(code, cwd)
    rc, modules = done.stdout.strip().splitlines()[-1].split(" ", 1)
    return int(rc), modules


def test_solve_and_oracle_skip_optional_numpy_modules(tmp_path):
    # numpy.random alone costs several MB of resident memory; the oracle
    # needs no sine transform either
    solve = ["solve", "--preset", "p1-interval", "--n", "31",
             "--out", str(tmp_path / "out")]
    assert _optional_numpy_modules_after(solve, tmp_path) == (0, "['numpy.fft']")
    # a window holding one branch, at a step count past the RK4 floor, so
    # the oracle half really shoots
    cfg = tmp_path / "oracle.cfg"
    cfg.write_text("preset = p1-interval\noracle.slope_min = 30\noracle.slope_max = 50\n"
                   "oracle.slope_step = 0.5\noracle.steps = 1024\n")
    oracle = ["oracle", "--config", str(cfg)]
    assert _optional_numpy_modules_after(oracle, tmp_path) == (0, "[]")


def test_solve_command_failing_flag_is_exit_1(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset = p1-interval\ngrid.n = 31\nnonlinearity.delta = 5\n")
    rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["flags"]["condition_g"] is False
    assert report["flags"]["converged"] is True


def test_oracle_command_counts_branches(tmp_path, capsys):
    # resolution fine enough that the single-bump bracket stays clear of
    # the blow-up separatrix just above it
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset = p1-interval\noracle.slope_step = 0.02\n"
                   "oracle.steps = 2048\n")
    rc = main(["oracle", "--config", str(cfg)])
    assert rc == 0
    body = json.loads(capsys.readouterr().out)
    assert body["branch_count"] >= 3
    amplitudes = sorted(b["amplitude"] for b in body["branches"])
    assert amplitudes[-1] == pytest.approx(7.615, abs=0.01)


def test_oracle_preset_branches_meet_the_endpoint_check(capsys):
    # the benchmark's oracle check: every branch solves the boundary value
    # problem to 1e-12 of its amplitude, and the mirrored branches agree
    assert main(["oracle", "--preset", "p1-interval"]) == 0
    branches = json.loads(capsys.readouterr().out)["branches"]
    assert [b["interior_sign_changes"] for b in branches] == [0, 1, 1, 0]
    for b in branches:
        assert abs(b["endpoint"]) <= 1e-12 * max(1.0, b["amplitude"])
    for neg, pos in zip(branches[:2], branches[:1:-1]):
        assert abs(pos["slope"] + neg["slope"]) <= 8 * np.spacing(pos["slope"])


def test_oracle_prints_its_json_once_through_a_pipe(tmp_path):
    # two CPUs are claimed so that the scan forks a worker on any machine with
    # fork; a worker must neither flush its copy of the buffered stdout, which
    # holds "start" when it forks, nor go on to print the JSON itself
    code = ("import os, sys\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "from trisol.cli import main\n"
            "print('start')\n"
            "sys.exit(main(['oracle', '--preset', 'p1-interval']))\n")
    start, text = _run_python(code, tmp_path).stdout.split("\n", 1)
    assert start == "start"
    body = json.loads(text)  # one JSON document and nothing after it
    assert body["branch_count"] == 4 and body["blown_up"] == 1512


def test_oracle_command_requires_interval(capsys):
    assert main(["oracle", "--preset", "p2-square"]) == 2
