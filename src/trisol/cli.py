"""Command-line interface: solve, eigen, validate, and oracle subcommands.

Configuration is a plain-text file of `key = value` lines with dotted
section prefixes (for example `descent.grad_tol = 1e-8`); unknown keys are
rejected.  Reports are written as JSON, fields as CSV with boundary rows
included and 17 significant digits so values round-trip exactly.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import functools
import itertools
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import SolveReport, check_morse_tol
from .descent import DescentOptions
from .grid import DomainSpec, Field
from .mountainpass import MPOptions
from .nonlinearity import MIN_VALIDATE_SAMPLES, Nonlinearity, validate_condition_g
from .oracle import (MAX_STEPS, MAX_SWEEP_LANES, MIN_STEPS, STEPS, fan_slopes, find_branch,
                     sign_change_brackets, sweep)
from .pipeline import run_pipeline
from .presets import cubic_nonlinearity, preset_domain
from .spectrum import MIN_EIGEN_COUNT, eigenvalue_table


class ConfigError(ValueError):
    """Bad configuration file or flags (exit code 2)."""


_SCHEMA: dict[str, type] = {
    "preset": str,
    "domain.kind": str,
    "domain.length": float,
    "domain.width": float,
    "domain.height": float,
    "grid.n": int,
    "grid.nx": int,
    "grid.ny": int,
    "nonlinearity.lambda": float,
    "nonlinearity.delta": float,
    "descent.max_iters": int,
    "descent.grad_tol": float,
    "descent.armijo_c": float,
    "descent.backtrack_factor": float,
    "descent.initial_step": float,
    "mountainpass.path_count": int,
    "mountainpass.max_iters": int,
    "mountainpass.grad_tol": float,
    "mountainpass.perturbation": float,
    "mountainpass.collapse_tol": float,
    "morse.tol": float,
    "validate.samples": int,
    "eigen.count": int,
    "oracle.steps": int,
    "oracle.slope_min": float,
    "oracle.slope_max": float,
    "oracle.slope_step": float,
    "output.dir": str,
}

# Defaults of the keys only the CLI reads; the domain keys default to the
# presets' domains, every other unset key to the parameter it sets.
_DEFAULTS: dict = {
    "eigen.count": 8,
    "oracle.slope_min": -50.0,
    "oracle.slope_max": 50.0,
    "oracle.slope_step": 0.01,
    "output.dir": "out",
}


# per domain kind: the keys of its side lengths and of its node counts
_DOMAIN_KEYS = {"interval": (("domain.length",), ("grid.n",)),
                "rectangle": (("domain.width", "domain.height"), ("grid.nx", "grid.ny"))}


def _domain_settings(spec: DomainSpec) -> dict:
    kind = spec.describe()["kind"]
    lengths, counts = _DOMAIN_KEYS[kind]
    return {"domain.kind": kind, **dict(zip(lengths + counts, spec.lengths + spec.counts))}


def parse_config_file(path: str) -> dict:
    """Read `key = value` lines; '#' starts a comment."""
    entries: dict = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            entries[key] = _SCHEMA[key](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return entries


@dataclass
class RunConfig:
    """A fully resolved run: defaults, then preset, then file, then flags."""

    settings: dict = field(default_factory=dict)
    preset: str | None = None
    out_requested: bool = False
    descent: DescentOptions | None = None
    mountainpass: MPOptions | None = None

    @classmethod
    def resolve(cls, config_path: str | None, preset: str | None,
                n: int | None, out: str | None) -> "RunConfig":
        file_entries = parse_config_file(config_path) if config_path else {}
        preset_name = preset or file_entries.get("preset")
        # rectangle keys from p2, interval keys and the kind from p1
        settings = {**_domain_settings(preset_domain("p2-square")),
                    **_domain_settings(preset_domain("p1-interval")), **_DEFAULTS}
        if preset_name is not None:
            try:
                settings.update(_domain_settings(preset_domain(preset_name)))
            except KeyError as exc:
                raise ConfigError(exc.args[0]) from exc
        settings.update({k: v for k, v in file_entries.items() if k != "preset"})
        if n is not None:
            settings.update(dict.fromkeys(("grid.n", "grid.nx", "grid.ny"), n))
        if out is not None:
            settings["output.dir"] = out
        try:
            check_morse_tol(settings.get("morse.tol"))
        except ValueError as exc:
            raise ConfigError(f"morse options: {exc}") from exc
        # the library would reject these mid-run
        for key, floor in (("validate.samples", MIN_VALIDATE_SAMPLES),
                           ("eigen.count", MIN_EIGEN_COUNT),
                           ("oracle.steps", MIN_STEPS)):
            if settings.get(key, floor) < floor:
                raise ConfigError(f"{key} must be at least {floor}, got {settings[key]}")
        if (steps := settings.get("oracle.steps", STEPS)) > MAX_STEPS:
            raise ConfigError(f"oracle.steps must be at most {MAX_STEPS}, got {steps}")
        lo, hi, step = (settings[f"oracle.slope_{end}"] for end in ("min", "max", "step"))
        if not (np.all(np.isfinite([lo, hi, step])) and lo < hi and step > 0):
            raise ConfigError("oracle slopes need finite slope_min < slope_max "
                              f"and slope_step > 0, got {lo}, {hi}, {step}")
        if (count := (hi - lo) / step + 1) > MAX_SWEEP_LANES:  # counted, not allocated
            raise ConfigError(f"an oracle sweep of {count:.3g} slopes is more than "
                              f"{MAX_SWEEP_LANES}; raise oracle.slope_step")
        cfg = cls(settings=settings, preset=preset_name,
                  out_requested=out is not None or "output.dir" in file_entries)
        cfg.descent, cfg.mountainpass = (cfg.options(DescentOptions, "descent"),
                                         cfg.options(MPOptions, "mountainpass"))
        return cfg

    def domain(self) -> DomainSpec:
        kind = self.settings["domain.kind"]
        if kind not in _DOMAIN_KEYS:
            raise ConfigError(f"domain.kind must be interval or rectangle, got {kind!r}")
        lengths, counts = (tuple(self.settings[key] for key in keys)
                           for keys in _DOMAIN_KEYS[kind])
        try:
            return DomainSpec(lengths, counts)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def nonlinearity(self, spec: DomainSpec) -> Nonlinearity:
        try:
            return cubic_nonlinearity(spec, **self.given(lam="nonlinearity.lambda",
                                                         delta="nonlinearity.delta"))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def given(self, **keys: str) -> dict:
        """Keyword arguments {name: settings[keys[name]]} for the keys that are set."""
        return {name: self.settings[key] for name, key in keys.items()
                if key in self.settings}

    def options(self, cls, prefix):
        """An options dataclass filled from the settings under prefix."""
        try:
            return cls(**self.given(**{name: f"{prefix}.{name}"
                                       for name in cls.__dataclass_fields__}))
        except ValueError as exc:
            raise ConfigError(f"{prefix} options: {exc}") from exc

    def output_dir(self) -> Path:
        """The output directory; one that is or lies under a non-directory is refused."""
        out = Path(self.settings["output.dir"])
        if any(path.exists() and not path.is_dir() for path in (out, *out.parents)):
            raise ConfigError(f"output directory {out} is, or lies under, a non-directory")
        return out


# -- serialization ---------------------------------------------------------

def _csv_header(spec: DomainSpec) -> list[str]:
    return ["x", "y"][:spec.ndim] + ["u"]


def _csv_nodes(spec: DomainSpec):
    """Node coordinates, boundary nodes included, last axis varying fastest."""
    return itertools.product(*(np.concatenate(([0.0], axis, [L]))
                               for axis, L in zip(spec.axes(), spec.lengths)))


@functools.lru_cache(maxsize=1)
def _csv_coordinates(spec: DomainSpec) -> list[str]:
    """Every row's coordinate columns, formatted once for a solve's four files."""
    return [("%.17g," * spec.ndim) % point for point in _csv_nodes(spec)]


def write_field_csv(path: Path, spec: DomainSpec, u: Field) -> None:
    """Write a field with boundary rows included and u = 0 there, one row
    per node with the last axis varying fastest."""
    with open(path, "w") as fh:
        fh.write(",".join(_csv_header(spec)) + "\n")
        fh.writelines(point + "%.17g\n" % val for point, val in
                      zip(_csv_coordinates(spec), np.pad(u.reshaped(), 1).ravel().tolist()))


def read_field_csv(path: Path, spec: DomainSpec) -> Field:
    """Reload a field written by write_field_csv; exact for 17-digit output."""
    rows = Path(path).read_text().strip().splitlines()
    header = rows[0].split(",")
    if header != _csv_header(spec):
        raise ValueError(f"unexpected header {header}")
    data = np.array([[float(tok) for tok in row.split(",")] for row in rows[1:]])
    shape = tuple(n + 2 for n in spec.counts)
    if len(data) != np.prod(shape):
        raise ValueError("row count does not match the grid")
    if np.any(np.abs(data[:, :-1] - np.array(list(_csv_nodes(spec))))
              > 1e-12 * np.array(spec.lengths)):
        raise ValueError("node coordinates do not match the grid")
    return Field(spec, data[:, -1].reshape(shape)[(slice(1, -1),) * spec.ndim])


_POINT_FILES = ("u_minus.csv", "u_plus.csv", "u_star.csv", "u_zero.csv")


def report_to_json(report: SolveReport, files: list[str]) -> str:
    body = report.to_dict()
    for entry, name in zip(body["points"], files):
        entry["file"] = name
    body["meta"] = {
        "tool": "trisol",
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    return json.dumps(body, indent=2, sort_keys=True) + "\n"


# -- subcommands -----------------------------------------------------------

def cmd_solve(cfg: RunConfig) -> int:
    spec = cfg.domain()
    nl = cfg.nonlinearity(spec)
    report = run_pipeline(
        spec, nl,
        descent_opts=cfg.descent, mp_opts=cfg.mountainpass,
        preset=cfg.preset,
        **cfg.given(validate_samples="validate.samples", morse_tol="morse.tol"),
    )
    out = cfg.output_dir()
    out.mkdir(parents=True, exist_ok=True)
    for point, name in zip(report.points, _POINT_FILES):
        write_field_csv(out / name, spec, point.u)
    (out / "report.json").write_text(report_to_json(report, list(_POINT_FILES)))
    summary = {"flags": report.flags, "all_ok": report.all_ok,
               "report": str(out / "report.json")}
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0 if report.all_ok else 1


def cmd_eigen(cfg: RunConfig) -> int:
    spec = cfg.domain()
    table = eigenvalue_table(spec, cfg.settings["eigen.count"])
    body = {
        "grid": spec.describe(),
        "eigenvalues": [lam for lam, _ in table],
        "pairs": [{"rank": rank, "lambda": lam, "mode": list(mode)}
                  for rank, (lam, mode) in enumerate(table, start=1)],
    }
    text = json.dumps(body, indent=2, sort_keys=True)
    print(text)
    _maybe_write(cfg, "eigen.json", text)
    return 0


def cmd_validate(cfg: RunConfig) -> int:
    spec = cfg.domain()
    nl = cfg.nonlinearity(spec)
    report = validate_condition_g(nl, spec, **cfg.given(samples="validate.samples"))
    text = json.dumps(dataclasses.asdict(report), indent=2, sort_keys=True)
    print(text)
    _maybe_write(cfg, "validate.json", text)
    return 0 if report.ok else 1


def _scan_edges(endpoints: np.ndarray, blown: np.ndarray) -> np.ndarray:
    """Lanes i with an unblown sign change or a change of blown flag to lane i + 1."""
    return np.flatnonzero((endpoints[:-1] * endpoints[1:] <= 0.0) & ~(blown[:-1] | blown[1:])
                          | (blown[:-1] != blown[1:]))


def cmd_oracle(cfg: RunConfig) -> int:
    spec = cfg.domain()
    if spec.ndim != 1:
        raise ConfigError("the shooting oracle needs an interval domain")
    nl = cfg.nonlinearity(spec)
    (length,) = spec.lengths
    lo, hi, step = (cfg.settings[f"oracle.slope_{end}"] for end in ("min", "max", "step"))
    steps = cfg.settings.get("oracle.steps", STEPS)
    slopes = np.arange(lo, hi + 0.5 * step, step)
    # the scan only places sign changes and blow-ups, so it runs at a sixteenth
    # of the steps; a lane next to one may change side at `steps`, so every
    # lane within one lane of an edge is integrated again at `steps`, together
    # with the two end lanes and the round-1 slopes of the scan's brackets,
    # which `find_branch` takes when `steps` leaves every bracket in place; an
    # edge that then touches a lane not integrated again has moved further (or
    # into the range past an end lane), and every lane is scanned at `steps`
    endpoints, blown = sweep(nl, length, slopes, max(256, steps // 16))
    near = np.union1d(np.clip(_scan_edges(endpoints, blown)[:, None] + np.arange(-1, 3), 0,
                              slopes.size - 1), [0, slopes.size - 1])
    fans = fan_slopes(sign_change_brackets(slopes, endpoints, blown))
    lanes = np.concatenate([slopes[near], fans.ravel()])
    swept = (lanes, *sweep(nl, length, lanes, steps))
    endpoints[near], blown[near] = swept[1][:near.size], swept[2][:near.size]
    if not np.isin(_scan_edges(endpoints, blown)[:, None] + [0, 1], near).all():
        endpoints, blown = sweep(nl, length, slopes, steps)
    brackets = sign_change_brackets(slopes, endpoints, blown)
    branches = []
    for shot in find_branch(nl, length, brackets, steps, swept):
        interior = shot.values[1:-1]
        crossings = int(np.sum(interior[:-1] * interior[1:] < 0.0))
        branches.append({
            "slope": shot.slope,
            "endpoint": shot.endpoint,
            "amplitude": float(np.max(np.abs(shot.values))),
            "interior_sign_changes": crossings,
        })
    body = {
        "slope_range": [float(lo), float(hi)],
        "slope_step": float(step),
        "blown_up": int(np.sum(blown)),
        "branch_count": len(branches),
        "branches": branches,
    }
    text = json.dumps(body, indent=2, sort_keys=True)
    print(text)
    _maybe_write(cfg, "oracle.json", text)
    return 0 if branches else 1


def _maybe_write(cfg: RunConfig, name: str, text: str) -> None:
    if cfg.out_requested:
        out = cfg.output_dir()
        out.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(text + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="trisol",
        description="Three nontrivial solutions of -lap u = g(u) with "
                    "zero Dirichlet data, with verification checks.")
    parser.add_argument("command", choices=["solve", "eigen", "validate", "oracle"])
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--n", type=int, help="interior nodes per axis override")
    parser.add_argument("--preset", help="p1-interval or p2-square")
    args = parser.parse_args(argv)

    try:
        cfg = RunConfig.resolve(args.config, args.preset, args.n, args.out)
        if args.command == "solve" or cfg.out_requested:
            cfg.output_dir()  # refused before any work, made only after it
        handler = {"solve": cmd_solve, "eigen": cmd_eigen,
                   "validate": cmd_validate, "oracle": cmd_oracle}[args.command]
        return handler(cfg)
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, MemoryError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
