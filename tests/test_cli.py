import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trisol
from trisol import cli, oracle
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
    assert len(_SCHEMA) == 28
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


def test_field_csv_rows_are_formatted_per_node_across_grids(tmp_path):
    # coordinates are formatted once per grid and reused; a write on another
    # grid in between, even one with the same node counts, must not leak its
    # coordinates into the next file
    rng = np.random.default_rng(79)
    path = tmp_path / "u.csv"
    for spec in (DomainSpec.rectangle(1.0, 2.0, 7, 9), DomainSpec.rectangle(1.0, 0.6, 7, 9),
                 DomainSpec.interval(1.0, 31), DomainSpec.rectangle(1.0, 2.0, 7, 9)):
        u = Field(spec, rng.standard_normal(spec.size))
        write_field_csv(path, spec, u)
        axes = [np.concatenate(([0.0], a, [L])) for a, L in zip(spec.axes(), spec.lengths)]
        rows = [("%.17g," * spec.ndim + "%.17g\n") % (*point, val) for point, val in
                zip(itertools.product(*axes), np.pad(u.reshaped(), 1).ravel())]
        assert path.read_text() == ",".join(["x", "y"][:spec.ndim] + ["u"]) + "\n" + "".join(rows)


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


@pytest.mark.parametrize("named", ["config_is_a_directory", "out_is_a_file",
                                   "out_is_under_a_file"])
def test_os_error_on_a_named_path_is_exit_2(tmp_path, capsys, named):
    # IsADirectoryError, FileExistsError and NotADirectoryError: each names
    # a path the user gave, so each is a configuration error, not a traceback
    (tmp_path / "file").write_text("")
    argv = {"config_is_a_directory": ["eigen", "--config", str(tmp_path)],
            "out_is_a_file": ["solve", "--out", str(tmp_path / "file")],
            "out_is_under_a_file": ["solve", "--out", str(tmp_path / "file" / "out")]}[named]
    assert main(argv + ["--preset", "p1-interval", "--n", "31"]) == 2
    assert "configuration error: " in capsys.readouterr().err


def test_config_file_that_is_not_utf8_is_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"\xff\xfe\x00")
    with pytest.raises(ConfigError, match=f"{re.escape(str(cfg))}: not UTF-8"):
        parse_config_file(str(cfg))
    assert main(["eigen", "--config", str(cfg)]) == 2
    assert "configuration error: " in capsys.readouterr().err


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


@pytest.mark.parametrize("line", ["poisson.tol = 1e-10", "morse.num_eigs = 0",
                                  "nonlinearity.name = cubic",
                                  "mountainpass.restart_limit = 3"])
def test_removed_poisson_tol_key_is_exit_2(tmp_path, capsys, line):
    # Poisson solves are direct and Morse indices are exact counts, so the
    # old tolerance and eigenvalue-window keys are unknown now, and so are
    # the nonlinearity name, whose only value was cubic, and the path's
    # restart budget, which one fixed retry rule replaced
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"preset = p1-interval\ngrid.n = 31\n{line}\n")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    key = line.split(" = ")[0]
    assert f"unknown key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["descent.grad_tol = 1e-6", "mountainpass.grad_tol = 1e-10"])
def test_descent_and_path_tolerances_are_independent(tmp_path, capsys, line):
    # each endpoint is held to the tolerance its own descent met, not the path's
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"preset = p1-interval\n{line}\n")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert all(report["flags"].values())
    assert [p["morse_index"] for p in report["points"]] == [0, 0, 1, 2]


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
                                  "descent.initial_step = inf", "descent.grad_tol = nan",
                                  "--n 2"])
def test_out_of_range_option_is_exit_2(tmp_path, capsys, line):
    # every command checks the whole configuration before any work; a line
    # that starts with "--" is a flag
    flag = line.startswith("--")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset = p1-interval\ngrid.n = 31\n" + ("" if flag else f"{line}\n"))
    for command in _ALL_COMMANDS:
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
        argv += line.split() if flag else []
        assert main(argv) == 2, command
        assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # and nothing is written


def test_oracle_zero_slope_step_is_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset = p1-interval\ngrid.n = 31\noracle.slope_step = 0\n")
    assert main(["oracle", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "Traceback" not in err


def test_oracle_steps_above_the_limit_is_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"preset = p1-interval\noracle.steps = {oracle.MAX_RK4_STEPS + 1}\n")
    assert main(["oracle", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "oracle.steps must be at most 1048576" in err and "Traceback" not in err


def _run_python(code, cwd, env=None, **kwargs):
    """Run `code` in a fresh interpreter that imports this trisol, with its
    stdout piped and block-buffered, as a pipe is by default; `env` adds to
    or overrides the parent's environment."""
    src = str(Path(trisol.__file__).resolve().parents[1])
    env = {**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
           **(env or {})}
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True, **kwargs)


def _cap_address_space():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _main_in_capped_child(tmp_path, lines, commands):
    """Exit codes and stderr of main for each command, with the config lines
    on the interval n = 31 or the rectangle at 15 x 15, all in one child
    with a 60 s timeout and a 1 GB address-space cap."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"grid.n = 31\ngrid.nx = 15\ngrid.ny = 15\n{lines}\n")
    code = ("from trisol.cli import main\n"
            f"print([main([c, '--config', {str(cfg)!r}, '--out', 'out']) for c in {commands!r}])")
    done = _run_python(code, tmp_path, timeout=60, preexec_fn=_cap_address_space)
    return json.loads(done.stdout.strip().splitlines()[-1]), done.stderr


@pytest.mark.skipif(os.name != "posix", reason="caps memory with resource.setrlimit")
@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key, commands", [
    ("domain.length", _ALL_COMMANDS), ("domain.width", _ALL_COMMANDS),
    ("domain.height", _ALL_COMMANDS), ("nonlinearity.lambda", ("solve", "validate", "oracle")),
    ("nonlinearity.delta", ("solve", "validate", "oracle"))])
def test_non_finite_key_is_exit_2(tmp_path, key, commands, value):
    # such values once hung a run or filled memory (lambda = nan grew the
    # eigenvalue table without end)
    kind = "rectangle" if key in ("domain.width", "domain.height") else "interval"
    codes, err = _main_in_capped_child(tmp_path, f"domain.kind = {kind}\n{key} = {value}",
                                       commands)
    assert codes == [2] * len(commands)
    assert err.count("configuration error") == len(commands)
    assert not (tmp_path / "out").exists()


@pytest.mark.skipif(os.name != "posix", reason="caps memory with resource.setrlimit")
@pytest.mark.parametrize("kind, line, codes", [
    ("rectangle", "nonlinearity.lambda = 1e6", {"validate": 1}),
    ("rectangle", "nonlinearity.lambda = 1e12", {"validate": 2, "solve": 2}),
    ("rectangle", "nonlinearity.lambda = 1e300", {"validate": 2, "solve": 2}),
    ("rectangle", "eigen.count = 50000", {"eigen": 0}),
    ("interval", "nonlinearity.lambda = 1e6", {"validate": 1}),
    ("interval", "nonlinearity.lambda = 1e12", {"validate": 1, "solve": 1}),
    ("interval", "nonlinearity.lambda = 1e300", {"validate": 2, "solve": 2}),
    ("interval", "domain.length = 1e-160",
     {"eigen": 1, "validate": 2, "solve": 2, "oracle": 2}),
    ("interval", "validate.samples = 1000000000000", {"validate": 1, "solve": 1}),
    ("interval", "grid.n = 1000000000", {"validate": 1, "solve": 1, "oracle": 0}),
    ("interval", "mountainpass.path_count = 100000000", {"solve": 1}),
    ("interval", "oracle.steps = 1000000000000", {"oracle": 2})])
def test_large_input_ends_inside_the_cap(tmp_path, kind, line, codes):
    # the modes up to lambda, or up to the eigen.count smallest, are
    # enumerated within the cap, and an enumeration too large to hold is a
    # named error raised before it allocates; so is a side so short that its
    # eigenvalues overflow.  An array too large for the cap (7.28 TiB of
    # samples, a 7.45 GiB grid, a 763 MiB path) is a solver error.  An
    # oracle.steps above 2**20, which would not end, is a configuration error.
    got, err = _main_in_capped_child(tmp_path, f"domain.kind = {kind}\n{line}", tuple(codes))
    assert dict(zip(codes, got)) == codes
    assert "Traceback" not in err
    assert err.count("configuration error") == list(codes.values()).count(2)


@pytest.mark.skipif(os.name != "posix", reason="caps memory with resource.setrlimit")
def test_validate_lists_as_many_modes_as_its_count_inside_the_cap(tmp_path):
    # k = 715243 on the 15 x 15 unit square at lambda = 9e6: the listing of
    # its k + 1 smallest modes stays below the enumeration limit, so validate
    # ends with the index failure rather than a solver error
    (code,), err = _main_in_capped_child(
        tmp_path, "domain.kind = rectangle\nnonlinearity.lambda = 9e6", ("validate",))
    assert (code, err) == (1, "")
    report = json.loads((tmp_path / "out" / "validate.json").read_text())
    assert report["k_claimed"] == 715243
    assert report["lambda_k"] <= 9e6 < report["lambda_k1"]
    assert [f["check"] for f in report["failures"]] == ["index"]


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


def test_solve_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # at 101 x 101 a BLAS dot splits its sum over the threads, so a field
    # pairing through BLAS would move u_star.csv and u*'s energy with the
    # thread count; numpy's pairwise sum has one order for any count
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        argv = ["solve", "--preset", "p2-square", "--n", "101", "--out", str(out)]
        code = f"from trisol.cli import main\nprint(main({argv!r}))"
        done = _run_python(code, tmp_path, env={"OPENBLAS_NUM_THREADS": threads})
        assert done.stdout.strip().splitlines()[-1] == "0"
        outputs.append(out)
    reports = [[line for line in (out / "report.json").read_text().splitlines()
                if '"timestamp"' not in line] for out in outputs]
    assert reports[0] == reports[1]
    for name in ("u_minus.csv", "u_plus.csv", "u_star.csv", "u_zero.csv"):
        assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes(), name


def test_solve_command_failing_flag_is_exit_1(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset = p1-interval\ngrid.n = 31\nnonlinearity.delta = 5\n")
    rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["flags"]["condition_g"] is False
    assert report["flags"]["converged"] is True


def test_unconverged_point_is_named_in_the_notes(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset = p1-interval\ngrid.n = 31\nmountainpass.max_iters = 5\n")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["flags"]["converged"] is False
    (note,) = [n for n in report["notes"] if "not converged" in n]
    assert re.fullmatch(r"MountainPass: not converged after 5 iterations, "
                        r"residual \d\.\de[+-]\d\d", note)


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


def _oracle_body(tmp_path, capsys, lines):
    """Run `oracle` on p1-interval with the given config lines; its JSON."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset = p1-interval\n" + "".join(f"{line}\n" for line in lines))
    assert main(["oracle", "--config", str(cfg)]) == 0
    return json.loads(capsys.readouterr().out)


def _recorded_passes(monkeypatch):
    """Record (lanes, steps, every, blown) of every RK4 pass that `oracle`
    makes: the lanes are the initial u' of each, the slopes but in a replay."""
    calls, rk4 = [], oracle._rk4_sweep

    def recorded(nl, h, u, p, steps, every):
        end, blown, us, ps = rk4(nl, h, u, p, steps, every)
        calls.append((np.array(p, dtype=float), steps, every, blown.copy()))
        return end, blown, us, ps
    monkeypatch.setattr(oracle, "_rk4_sweep", recorded)
    return calls


def test_oracle_scan_keeps_a_root_beside_a_scan_lane(tmp_path, capsys, monkeypatch):
    # the root lies about 1e-10 above the lane at 35.33740129699026, whose
    # endpoint changes sign between the scan's 256 steps and the full 4096;
    # integrated again at 4096, the bracket holds the root.  It is not the
    # scan's bracket, so round 1 sweeps its slopes instead of taking the ones
    # integrated with the edge lanes and the two end lanes
    calls = _recorded_passes(monkeypatch)
    body = _oracle_body(tmp_path, capsys, ["oracle.slope_min = 35.28740129699027",
                                           "oracle.slope_max = 35.387401297090264",
                                           "oracle.slope_step = 0.01"])
    (scan, coarse, _, _), (again, fine, _, _), (round_1, *_) = calls[:3]
    assert (scan.size, coarse, again.size, fine) == (11, 256, 71, 4096)
    assert np.array_equal(again[:6], scan[[0, 3, 4, 5, 6, 10]])
    assert np.array_equal(again[6:], oracle.fan_slopes([(scan[4], scan[5])]).ravel())
    assert np.array_equal(round_1, oracle.fan_slopes([(scan[5], scan[6])]).ravel())
    assert body["blown_up"] == 0 and body["branch_count"] == 1
    assert body["branches"] == [{"amplitude": 5.176440898219756,
                                 "endpoint": -5.551115123125783e-16,
                                 "interior_sign_changes": 1,
                                 "slope": 35.33740129709027}]


def test_oracle_integrates_the_lanes_beside_every_edge_again(tmp_path, capsys, monkeypatch):
    # the scan runs at a sixteenth of the steps; the two lanes on each side of
    # the sign change between 42.40 and 42.41 and of the blown edge between
    # 42.44 and 42.45, and the two end lanes, are integrated again at the full
    # 4096, in the same pass as the round-1 slopes of the scan's one bracket
    calls = _recorded_passes(monkeypatch)
    body = _oracle_body(tmp_path, capsys, ["oracle.slope_min = 42.0",
                                           "oracle.slope_max = 42.6",
                                           "oracle.slope_step = 0.01"])
    (scan, coarse, _, _), (again, fine, _, blown) = calls[:2]
    assert (scan.size, coarse, fine) == (61, 256, 4096)
    assert np.round(again[:10], 9).tolist() == [42.0, 42.39, 42.4, 42.41, 42.42, 42.43, 42.44,
                                                42.45, 42.46, 42.6]
    assert np.array_equal(again[10:], oracle.fan_slopes([(scan[40], scan[41])]).ravel())
    assert blown.tolist() == [False] * 7 + [True] * 3 + [False] * 65
    assert body["blown_up"] == 16 and body["branch_count"] == 1


def test_oracle_rescans_every_lane_when_a_root_moves_past_its_window(tmp_path, capsys,
                                                                     monkeypatch):
    # at 1024 steps the root lies about 6e-10 below its place at 4096, some
    # 30 lanes of 2e-11, and at the scan's 256 steps it lies below the whole
    # range: the scan has no edge, the two end lanes integrated again at 4096
    # fall on its two sides, and the whole scan is repeated at 4096, which
    # finds the root of the 4096-step scan
    calls = _recorded_passes(monkeypatch)
    body = _oracle_body(tmp_path, capsys, ["oracle.slope_min = 35.337401296",
                                           "oracle.slope_max = 35.337401298",
                                           "oracle.slope_step = 2e-11"])
    assert [(lanes.size, steps) for lanes, steps, _, _ in calls] == [
        (101, 256), (2, 4096), (101, 4096), (65, 4096), (65, 4096), (64, 64)]
    assert body["blown_up"] == 0 and body["branch_count"] == 1
    assert body["branches"] == [{"amplitude": 5.176440898219756,
                                 "endpoint": -5.551115123125783e-16,
                                 "interior_sign_changes": 1,
                                 "slope": 35.33740129709027}]


def test_oracle_rescans_every_lane_when_a_root_moves_past_its_edge_lanes(tmp_path, capsys,
                                                                        monkeypatch):
    # at the scan's 256 steps the root lies about 1.5e-7 below its place at
    # 4096, some 73 lanes of 2e-9 but inside the range: the lanes beside the
    # scan's edge, integrated again at 4096 (6 with the end lanes, and the 65
    # round-1 slopes), all fall on one side, and the whole scan is repeated
    calls = _recorded_passes(monkeypatch)
    body = _oracle_body(tmp_path, capsys, ["oracle.slope_min = 35.3374011",
                                           "oracle.slope_max = 35.3374014",
                                           "oracle.slope_step = 2e-9"])
    assert [(lanes.size, steps) for lanes, steps, _, _ in calls] == [
        (151, 256), (71, 4096), (151, 4096), (65, 4096), (65, 4096), (64, 64)]
    assert body["blown_up"] == 0 and body["branch_count"] == 1
    assert body["branches"][0]["slope"] == 35.33740129709027


def test_oracle_finds_a_root_the_scan_moves_out_of_the_range(tmp_path, capsys):
    # the 4096-step map changes sign between lanes 4 and 5, but the coarse
    # scan's root lies outside the range, so it shows no sign change; the end
    # lanes, integrated again at 4096, differ in sign and the range is scanned
    # again at 4096
    body = _oracle_body(tmp_path, capsys, ["oracle.slope_min = 35.3374012970",
                                           "oracle.slope_max = 35.3374012972",
                                           "oracle.slope_step = 2e-11"])
    assert body["blown_up"] == 0 and body["branch_count"] == 1
    assert body["branches"] == [{"amplitude": 5.176440898219756,
                                 "endpoint": -5.551115123125783e-16,
                                 "interior_sign_changes": 1,
                                 "slope": 35.33740129709027}]


def test_oracle_scan_without_an_edge_sweeps_once(tmp_path, capsys, monkeypatch):
    # beside the scan, only the two end lanes are integrated at the full steps
    calls = _recorded_passes(monkeypatch)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset = p1-interval\noracle.slope_min = 1\n"
                   "oracle.slope_max = 2\noracle.slope_step = 0.1\n")
    assert main(["oracle", "--config", str(cfg)]) == 1
    assert json.loads(capsys.readouterr().out)["branch_count"] == 0
    assert [(lanes.size, steps) for lanes, steps, _, _ in calls] == [(11, 256), (2, 4096)]


def test_oracle_2048_step_scan_output(tmp_path, capsys):
    # the scan runs at its 256-step floor; the branches are refined at 2048
    body = _oracle_body(tmp_path, capsys, ["oracle.steps = 2048", "oracle.slope_min = -45",
                                           "oracle.slope_max = 45", "oracle.slope_step = 0.05"])
    assert body["blown_up"] == 104 and body["branch_count"] == 2
    assert [(b["slope"], b["endpoint"]) for b in body["branches"]] == [
        (-35.33740129705404, -6.17214612752548e-15), (35.33740129705404, 6.17214612752548e-15)]


def test_oracle_prints_its_json_once_through_a_pipe(tmp_path):
    # through a block-buffered pipe, "start" comes first and the JSON once after it
    code = ("import sys\n"
            "from trisol.cli import main\n"
            "print('start')\n"
            "sys.exit(main(['oracle', '--preset', 'p1-interval']))\n")
    start, text = _run_python(code, tmp_path).stdout.split("\n", 1)
    assert start == "start"
    body = json.loads(text)  # one JSON document and nothing after it
    assert body["branch_count"] == 4 and body["blown_up"] == 1512
    assert [(b["slope"], b["endpoint"], b["amplitude"], b["interior_sign_changes"])
            for b in body["branches"]] == [
        (-42.40263048243569, -1.9038069731802665e-13, 7.615218562180439, 0),
        (-35.33740129709027, 5.551115123125783e-16, 5.176440898219756, 1),
        (35.33740129709027, -5.551115123125783e-16, 5.176440898219756, 1),
        (42.40263048243568, 1.9038069731802665e-13, 7.615218562180439, 0)]


@pytest.mark.parametrize("lam, count, blown_up, crossings", [
    (40.0, 4, 4324, [0, 1, 1, 0]), (90.0, 2, 0, [2, 2])], ids=["lambda-40", "lambda-90"])
def test_oracle_on_tied_endpoints(tmp_path, capsys, lam, count, blown_up, crossings):
    # near these roots neighbouring lanes of a later round tie on their
    # endpoints, where the inverse interpolant is undefined and the window is
    # the whole sign change; every branch still meets the endpoint check
    body = _oracle_body(tmp_path, capsys, [f"nonlinearity.lambda = {lam}"])
    assert (body["branch_count"], body["blown_up"]) == (count, blown_up)
    assert [b["interior_sign_changes"] for b in body["branches"]] == crossings
    for b in body["branches"]:
        assert abs(b["endpoint"]) <= 1e-12 * max(1.0, b["amplitude"])


def test_oracle_command_requires_interval(capsys):
    assert main(["oracle", "--preset", "p2-square"]) == 2
