"""Experiment driver.

Runs one experiment described by a JSON config file and writes its
artifacts (CSV tables, certificate JSON, a manifest) under an output
directory.  Identical (config, seed) pairs produce byte-identical CSV
artifacts for any worker count: replicas are partitioned into fixed chunks
with one counter-based stream each and reductions are ordered.

Subcommands::

    convexbilliards run --config exp.json --out DIR [--seed N] [--workers N]
    convexbilliards validate-config --config exp.json
    convexbilliards schema

Certificate kinds (``rate.kind``) per scenario: ``chain_rate``,
``couple_chains`` and ``verify_dominance`` take the chain kinds
(``disc_chain``, ``convex_chain``); ``process_rate`` and ``couple_process``
take the process kinds (``disc_process``, ``convex_process``);
``optimize_params`` takes any kind.  A ``disc_*`` kind needs a ``disc``
body.  Both are checked before anything is simulated: a kind the scenario
does not take exits 1, a ``disc_*`` kind on another body exits 2.

Exit codes: 0 success, 1 config or engine error, 2 hypothesis violation,
3 verification failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import numbers
import sys
import time
from pathlib import Path

import jsonschema
import numpy as np

from . import __version__, rng as rngmod
from .coupling import couple_process_convex_batch, couple_process_disc_batch
from .coupling.chains import couple_chains_batch
from .dynamics import (chord_times, guarded_angles, run_chain,
                       sample_process_at)
from .errors import BilliardError, ConfigError, HypothesisViolated, InvalidParams
from .geometry import Disc, body_from_config, point_at, summarize
from .rates import (
    CERTIFICATE_SCHEMA,
    KIND_PARAMS,
    RateCertificate,
    RateParams,
    build_for_kind,
    disc_pair_profile,
    optimize_free_params,
    t2_density_floor,
)
from .reflection import law_from_config
from .stats import dominance_report, empirical_tv_curve, lb_check

SCENARIOS = [
    "simulate_chain", "simulate_process", "chain_rate", "process_rate",
    "couple_chains", "couple_process", "verify_dominance", "verify_lb",
    "optimize_params",
]

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["scenario", "seed", "body", "law"],
    "properties": {
        "scenario": {"enum": SCENARIOS},
        "seed": {"type": "integer", "minimum": 0},
        "body": {"type": "object"},
        "law": {"type": ["string", "object"]},
        "s0": {"type": "number"},
        "s0_alt": {"type": "number"},
        "n_max": {"type": "integer", "minimum": 0},
        "t_max": {"type": "number"},
        "replicas": {"type": "integer", "minimum": 1},
        "bins": {"type": "integer", "minimum": 2},
        "params": {"type": "object"},
        "rate": {"type": "object"},
        "lb_profile": {"enum": ["phi1", "t2", "phi2_t2", "t1"]},
        "inflate": {"type": "number"},
        "grid": {"type": "object"},
        "sample_times": {"type": "array", "items": {"type": "number"}},
        "start": {"type": "array"},
        "start_alt": {"type": "array"},
    },
    "additionalProperties": False,
}
# compiled once; load_config reports the best match, as jsonschema.validate
_CONFIG_VALIDATOR = jsonschema.Draft202012Validator(CONFIG_SCHEMA)

_REQUIRED = {
    "simulate_chain": ["n_max"],
    "simulate_process": ["n_max"],
    "chain_rate": ["rate"],
    "process_rate": ["rate"],
    "couple_chains": ["rate", "n_max", "replicas"],
    "couple_process": ["rate", "t_max", "replicas"],
    "verify_dominance": ["rate", "n_max", "replicas", "bins"],
    "verify_lb": ["lb_profile", "replicas"],
    "optimize_params": ["rate", "grid"],
}


def fmt(x) -> str:
    """17 significant digits, '.' decimal, no locale."""
    # exact-type checks first: the plain Python ints and floats of most rows
    if type(x) is int:
        return str(x)
    if type(x) is float:
        return format(x, ".17g")
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(map(fmt, row)))
    path.write_text("\n".join(lines) + "\n")


def load_config(path: str) -> dict:
    return _checked(_read_config(path))


def _read_config(path: str):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc


def _checked(cfg) -> dict:
    """The config, once it meets the schema and has its scenario's keys."""
    error = jsonschema.exceptions.best_match(
        _CONFIG_VALIDATOR.iter_errors(cfg))
    if error is not None:
        raise ConfigError(
            f"config schema violation: {error.message}") from error
    missing = [k for k in _REQUIRED[cfg["scenario"]] if k not in cfg]
    if missing:
        raise ConfigError(
            f"scenario {cfg['scenario']} requires keys: {', '.join(missing)}")
    return cfg


def _law_floor(cfg, law):
    """Resolve (width, floor, params) from the config and the law."""
    rate = cfg.get("rate", {})
    width = rate.get("width")
    floor = rate.get("floor")
    if width is None or floor is None:
        fc = law.certify_floor(width)
        width = fc.width if width is None else width
        floor = fc.floor if floor is None else floor
    params = RateParams(**cfg.get("params", {}))
    return float(width), float(floor), params


# the certificate axis of each scenario; optimize_params takes any kind
_SCENARIO_AXIS = {
    "chain_rate": "step", "couple_chains": "step", "verify_dominance": "step",
    "process_rate": "time", "couple_process": "time",
}


def _certificate_inputs(cfg, body, law):
    """(kind, fixed inputs of every kind, params) of the configured
    certificate, once its kind suits the scenario and the body."""
    kind = cfg.get("rate", {}).get("kind")
    if kind not in KIND_PARAMS:
        raise ConfigError(f"rate.kind missing or unknown: {kind!r}")
    axis = "step" if kind.endswith("_chain") else "time"
    need = _SCENARIO_AXIS.get(cfg["scenario"], axis)
    if axis != need:
        raise ConfigError(f"{cfg['scenario']} needs a {need}-axis"
                          f" certificate, not {kind}")
    if kind.startswith("disc_") and not isinstance(body, Disc):
        raise HypothesisViolated(f"{kind} certificate needs a disc body")
    width, floor, params = _law_floor(cfg, law)
    fixed = {"width": width, "floor": floor,
             "r": body.r if isinstance(body, Disc) else None,
             "summary": summarize(body), "body": body,
             "x": point_at(body, cfg.get("s0", 0.0)),
             "xt": point_at(body, cfg.get("s0_alt", 0.5 * body.perimeter))}
    return kind, fixed, params


def build_certificate(cfg, body, law) -> RateCertificate:
    return build_for_kind(*_certificate_inputs(cfg, body, law))


# Compiled once: jsonschema.validate checks the schema itself on every call.
# bound_curve is typed as a plain array here; validate_certificate checks its
# rows in one pass (item by item, jsonschema took 6 ms per 256-point curve).
_CERTIFICATE_VALIDATOR = jsonschema.Draft202012Validator(
    {**CERTIFICATE_SCHEMA, "properties": {**CERTIFICATE_SCHEMA["properties"],
                                          "bound_curve": {"type": "array"}}})


def _is_number(v) -> bool:
    """jsonschema's "number": a numbers.Number that is not a bool."""
    return isinstance(v, numbers.Number) and not isinstance(v, bool)


def validate_certificate(data: dict) -> None:
    """Raise jsonschema.ValidationError unless data meets CERTIFICATE_SCHEMA."""
    _CERTIFICATE_VALIDATOR.validate(data)
    for row in data["bound_curve"]:
        if not (isinstance(row, list) and len(row) == 2
                and _is_number(row[0]) and _is_number(row[1])):
            raise jsonschema.ValidationError(
                f"bound_curve row {row!r} is not two numbers")


def _write_certificate(out, cert) -> str:
    data = cert.to_json_dict()
    validate_certificate(data)
    (out / "certificate.json").write_text(json.dumps(data, indent=2,
                                                     sort_keys=True))
    return "certificate.json"


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def _write_trajectory(cfg, body, law, out):
    """Run the configured chain and write it to trajectory.csv."""
    traj = run_chain(body, law, cfg.get("s0", 0.0), cfg["n_max"],
                     rngmod.substream(cfg["seed"], "simulate-chain"))
    rows = zip(traj.step, traj.s, traj.phi, traj.theta, traj.tau, traj.T)
    write_csv(out / "trajectory.csv", ["n", "s", "phi", "theta", "tau", "T"],
              rows)
    return traj


def _scenario_simulate_chain(cfg, body, law, out, workers):
    _write_trajectory(cfg, body, law, out)
    return 0, ["trajectory.csv"]


def _scenario_simulate_process(cfg, body, law, out, workers):
    traj = _write_trajectory(cfg, body, law, out)
    times = cfg.get("sample_times")
    if not times and len(traj):
        times = list(np.linspace(0.0, traj.T[-1], 65))
    dense = []
    for t in times or []:
        st = sample_process_at(traj, body, float(t))
        dense.append((st.clock, st.position[0], st.position[1],
                      st.velocity[0], st.velocity[1]))
    write_csv(out / "dense.csv", ["t", "x", "y", "vx", "vy"], dense)
    return 0, ["trajectory.csv", "dense.csv"]


def _scenario_rate(cfg, body, law, out, workers):
    return 0, [_write_certificate(out, build_certificate(cfg, body, law))]


# outcomes.csv of both coupling scenarios
OUTCOMES_HEADER = ["replica", "coupled", "index_or_time", "attempts",
                   "stage1_successes", "stage2_successes"]


def _scenario_couple_chains(cfg, body, law, out, workers):
    cert = build_certificate(cfg, body, law)
    n0 = cert.constants["n0"]
    res = couple_chains_batch(body, law, cfg.get("s0", 0.0),
                              cfg.get("s0_alt", 0.5 * body.perimeter),
                              cert, cfg["n_max"], cfg["replicas"],
                              cfg["seed"], workers=workers)
    rows = [(i, int(c), k if c else -1,
             k // n0 if c else cfg["n_max"] // n0, int(c), 0)
            for i, (c, k) in enumerate(zip(res.coupled.tolist(),
                                           res.coupling_index.tolist()))]
    write_csv(out / "outcomes.csv", OUTCOMES_HEADER, rows)
    return 0, ["outcomes.csv"]


def _scenario_couple_process(cfg, body, law, out, workers):
    cert = build_certificate(cfg, body, law)
    starts = []
    for key, s in (("start", cfg.get("s0", 0.0)),
                   ("start_alt", cfg.get("s0_alt", 0.5 * body.perimeter))):
        # by default the boundary point at s, launched along its normal
        x, y, nx, ny = body.frame(body.to_native(s))
        start = cfg.get(key) or [[x, y], [nx, ny]]
        starts.append(tuple(np.array(v, float) for v in start))
    args = (law, *starts, cert, cfg["t_max"], cfg["replicas"], cfg["seed"])
    if cert.kind == "disc_process":
        res = couple_process_disc_batch(body.r, *args, workers=workers)
    else:
        res = couple_process_convex_batch(body, *args, workers=workers)
    columns = zip(res.coupled.tolist(), res.coupling_time.tolist(),
                  (res.stage1_attempts + res.stage2_attempts).tolist(),
                  res.stage1_successes.tolist(),
                  res.stage2_successes.tolist())
    rows = [(i, int(c), t if c else -1.0, tries, ok1, ok2)
            for i, (c, t, tries, ok1, ok2) in enumerate(columns)]
    write_csv(out / "outcomes.csv", OUTCOMES_HEADER, rows)
    return 0, ["outcomes.csv"]


def _scenario_verify_dominance(cfg, body, law, out, workers):
    cert = build_certificate(cfg, body, law)
    curve = empirical_tv_curve(body, law, cfg.get("s0", 0.0),
                               cfg.get("s0_alt", 0.5 * body.perimeter),
                               cfg["n_max"], cfg["replicas"], cfg["bins"],
                               cfg["seed"], workers=workers)
    report = dominance_report(curve, cert)
    write_csv(out / "tv_curve.csv",
              ["n", "empirical", "sigma", "bound", "pass"],
              report.rows())
    (out / "report.json").write_text(json.dumps(
        {"passed": bool(report.passed), "points": len(report.points)},
        indent=2))
    files = ["tv_curve.csv", _write_certificate(out, cert), "report.json"]
    return (0 if report.passed else 3), files


def _scenario_verify_lb(cfg, body, law, out, workers):
    profile = cfg["lb_profile"]
    n = cfg["replicas"]
    inflate = cfg.get("inflate", 1.0)
    width, floor, params = _law_floor(cfg, law)
    gen = rngmod.substream(cfg["seed"], f"lb-{profile}")
    if profile == "phi1":
        th = law.sample(gen, n)
        samples = math.pi + 2.0 * np.asarray(th)
        window = (math.pi - width, math.pi + width)
        level = 0.5 * floor
    elif profile == "t2":
        if not isinstance(body, Disc):
            raise HypothesisViolated("t2 profile requires a disc")
        r = body.r
        th = law.sample(gen, (2, n))
        samples = 2.0 * r * (np.cos(th[0]) + np.cos(th[1]))
        eta = params.eta if params.eta is not None \
            else 0.8 * 2.0 * r * (1.0 - math.cos(0.5 * width))
        level = t2_density_floor(r, width, floor, eta)
        window = (4.0 * r * math.cos(0.5 * width) + eta, 4.0 * r - eta)
    elif profile == "phi2_t2":
        if not isinstance(body, Disc):
            raise HypothesisViolated("phi2_t2 profile requires a disc")
        r = body.r
        eps = params.eps if params.eps is not None else 0.02 * width
        prof = disc_pair_profile(r, width, floor, eps)
        th = law.sample(gen, (2, n))
        ang = np.mod(2.0 * (th[0] + th[1]) + math.pi, 2.0 * math.pi) - math.pi
        tt = 2.0 * r * (np.cos(th[0]) + np.cos(th[1]))
        samples = np.stack([ang, tt], axis=1)
        window = ((-prof["angle_halfwidth"], prof["angle_halfwidth"]),
                  (prof["t_lo"], prof["t_hi"]))
        level = prof["level"]
    else:  # t1
        # chord times near 0 need launches near tangency, so the level
        # c * floor holds only for a floor on the whole half-circle
        if width < math.pi:
            raise HypothesisViolated(
                f"t1 profile needs a floor on the full half-circle of launch"
                f" angles; the certified width is {width:.6g}")
        summary = summarize(body)
        samples = chord_times(body, cfg.get("s0", 0.0),
                              guarded_angles(law, gen, n))
        window = (0.0, 2.0 / summary.curvature_max)
        level = summary.curvature_min * floor
    report = lb_check(samples, window, level * inflate)
    payload = {
        "profile": profile, "level": level, "inflate": inflate,
        "passed": bool(report.passed), "worst_z": report.worst_z,
        "n_samples": report.n_samples,
        "n_windows": len(report.windows),
    }
    (out / "lb_report.json").write_text(json.dumps(payload, indent=2))
    return (0 if report.passed else 3), ["lb_report.json"]


def _scenario_optimize(cfg, body, law, out, workers):
    kind, fixed, _ = _certificate_inputs(cfg, body, law)
    params, cert = optimize_free_params(kind, fixed, cfg["grid"])
    (out / "best_params.json").write_text(json.dumps(params.as_dict(),
                                                     indent=2))
    return 0, ["best_params.json", _write_certificate(out, cert)]


_RUNNERS = {
    "simulate_chain": _scenario_simulate_chain,
    "simulate_process": _scenario_simulate_process,
    "chain_rate": _scenario_rate,
    "process_rate": _scenario_rate,
    "couple_chains": _scenario_couple_chains,
    "couple_process": _scenario_couple_process,
    "verify_dominance": _scenario_verify_dominance,
    "verify_lb": _scenario_verify_lb,
    "optimize_params": _scenario_optimize,
}


def run(cfg: dict, out_dir: str, workers: int = 1) -> int:
    """Execute one experiment; returns the process exit code.

    A run that fails before it writes an artifact removes the directories
    it created for ``out_dir``; a directory that existed before stays.
    """
    t_start = time.time()
    try:
        body = body_from_config(cfg["body"])
        law = law_from_config(cfg["law"])
    except (ValueError, KeyError, OSError) as exc:
        raise ConfigError(f"cannot build body or law: {exc!r}") from exc
    out = Path(out_dir)
    # the directories this run creates, deepest first
    made = [d for d in (out.absolute(), *out.absolute().parents)
            if not d.exists()]
    out.mkdir(parents=True, exist_ok=True)
    try:
        code, artifacts = _RUNNERS[cfg["scenario"]](cfg, body, law, out,
                                                    workers)
    except BaseException:
        for d in made:
            if any(d.iterdir()):
                break
            d.rmdir()
        raise
    manifest = {
        "config_sha256": hashlib.sha256(
            json.dumps(cfg, sort_keys=True).encode()).hexdigest(),
        "package_version": __version__,
        "numpy_version": np.__version__,
        "wall_time_s": time.time() - t_start,
        "workers": workers,
        "exit_code": code,
        "artifacts": artifacts,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="convexbilliards",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--workers", type=int, default=1)
    p_run.add_argument("--replicas", type=int, default=None)
    p_run.add_argument("--n-max", type=int, default=None)
    p_run.add_argument("--t-max", type=float, default=None)
    p_val = sub.add_parser("validate-config", help="check a config file")
    p_val.add_argument("--config", required=True)
    sub.add_parser("schema", help="print the config JSON schema")

    args = parser.parse_args(argv)
    if args.command == "schema":
        print(json.dumps(CONFIG_SCHEMA, indent=2))
        return 0
    try:
        # the run flags override the file's keys before the schema check
        cfg = _read_config(args.config)
        for key in ("seed", "replicas", "n_max", "t_max"):
            if getattr(args, key, None) is not None and isinstance(cfg, dict):
                cfg[key] = getattr(args, key)
        cfg = _checked(cfg)
        if args.command == "validate-config":
            print("config OK")
            return 0
        return run(cfg, args.out, workers=args.workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (HypothesisViolated, InvalidParams) as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 2
    except BilliardError as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
