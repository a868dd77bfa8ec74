import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import convexbilliards
from convexbilliards.cli import load_config, main, run, write_csv
from convexbilliards.errors import ConfigError
from convexbilliards.rates import CERTIFICATE_SCHEMA, RateCertificate

PI = math.pi


def _write(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def _base_chain_cfg(**over):
    cfg = {
        "scenario": "simulate_chain",
        "seed": 11,
        "body": {"disc": {"r": 1.0}},
        "law": "cosine",
        "n_max": 4,
    }
    cfg.update(over)
    return cfg


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_validate_ok(tmp_path):
    path = _write(tmp_path, "ok.json", _base_chain_cfg())
    assert main(["validate-config", "--config", path]) == 0


def test_bad_scenario_exit_1(tmp_path):
    path = _write(tmp_path, "bad.json", _base_chain_cfg(scenario="nope"))
    assert main(["validate-config", "--config", path]) == 1


def test_missing_scenario_key_exit_1(tmp_path):
    cfg = _base_chain_cfg(scenario="verify_dominance")
    path = _write(tmp_path, "missing.json", cfg)
    assert main(["validate-config", "--config", path]) == 1


def test_missing_seed_rejected(tmp_path):
    cfg = _base_chain_cfg()
    del cfg["seed"]
    path = _write(tmp_path, "noseed.json", cfg)
    assert main(["validate-config", "--config", path]) == 1


def test_schema_subcommand(capsys):
    assert main(["schema"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["properties"]["seed"]["type"] == "integer"


# ---------------------------------------------------------------------------
# scenarios through the entry point
# ---------------------------------------------------------------------------

def test_simulate_chain_zero_steps_header_only(tmp_path):
    cfg = _base_chain_cfg(n_max=0)
    path = _write(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines == ["n,s,phi,theta,tau,T"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_code"] == 0


def test_simulate_process_writes_dense_samples(tmp_path):
    cfg = _base_chain_cfg(scenario="simulate_process", n_max=20)
    path = _write(tmp_path, "cfg.json", cfg)
    out = tmp_path / "proc"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    rows = (out / "dense.csv").read_text().splitlines()
    assert rows[0] == "t,x,y,vx,vy"
    assert len(rows) == 66
    vals = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    assert np.all(np.hypot(vals[:, 1], vals[:, 2]) <= 1.0 + 1e-9)


def test_process_rate_out_of_range_width_exit_2(tmp_path):
    cfg = _base_chain_cfg(
        scenario="process_rate",
        law={"truncated_uniform": {"theta_star": PI / 3.0}},
        rate={"kind": "disc_process"},
        params={"eta": 0.05, "eps": 0.01})
    del cfg["n_max"]
    path = _write(tmp_path, "cfg.json", cfg)
    assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 2


ELLIPSE = {"ellipse": {"a": 2.0, "b": 1.0}}
TU34 = {"truncated_uniform": {"theta_star": 0.75 * PI}}
DISC_PROCESS = {"rate": {"kind": "disc_process"},
                "params": {"eta": 0.12, "eps": 0.09}}
RUN_KEYS = {"n_max": 4, "t_max": 10.0, "replicas": 8, "bins": 10,
            "grid": {"eta": [0.12], "eps": [0.09]}}

# (scenario, body, certificate keys, exit code): a kind the scenario does
# not take exits 1, a disc kind on another body exits 2
MISMATCHES = [
    ("chain_rate", ELLIPSE, {"rate": {"kind": "disc_chain"}}, 2),
    ("verify_dominance", ELLIPSE, {"rate": {"kind": "disc_chain"}}, 2),
    ("couple_chains", ELLIPSE, {"rate": {"kind": "disc_chain"}}, 2),
    ("optimize_params", ELLIPSE, DISC_PROCESS, 2),
    ("couple_process", ELLIPSE, DISC_PROCESS, 2),
    ("couple_chains", {"disc": {"r": 1.0}}, DISC_PROCESS, 1),
    ("verify_dominance", {"disc": {"r": 1.0}}, DISC_PROCESS, 1),
    ("chain_rate", {"disc": {"r": 1.0}}, DISC_PROCESS, 1),
    ("process_rate", {"disc": {"r": 1.0}}, {"rate": {"kind": "disc_chain"}}, 1),
    ("couple_process", {"disc": {"r": 1.0}}, {"rate": {"kind": "disc_chain"}},
     1),
]


@pytest.mark.parametrize("scenario,body,cert,code", MISMATCHES, ids=[
    f"{s}-{c['rate']['kind']}-{next(iter(b))}" for s, b, c, _ in MISMATCHES])
def test_mismatched_certificate_rejected_before_simulating(
        tmp_path, monkeypatch, capsys, scenario, body, cert, code):
    from convexbilliards import cli

    def simulated(*args, **kwargs):
        raise AssertionError("simulated a mismatched certificate")

    for name in ("empirical_tv_curve", "couple_chains_batch",
                 "couple_process_disc_batch", "couple_process_convex_batch"):
        monkeypatch.setattr(cli, name, simulated)
    cfg = {"scenario": scenario, "seed": 1, "body": body, "law": TU34,
           **cert, **RUN_KEYS}
    path = _write(tmp_path, "cfg.json", cfg)
    assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) \
        == code
    err = capsys.readouterr().err
    assert err.startswith("config error:" if code == 1
                          else "hypothesis violation:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("spec", [
    lambda tmp: {"law": "bogus"},
    lambda tmp: {"body": {"disc": {"r": -1}}},
    lambda tmp: {"body": {"curvature_table": {"path": str(tmp / "no.csv")}}},
    lambda tmp: {"law": {"truncated_uniform": {}}},
], ids=["unknown-law", "negative-radius", "missing-table", "no-theta-star"])
def test_bad_body_or_law_is_a_config_error(tmp_path, capsys, spec):
    path = _write(tmp_path, "cfg.json", _base_chain_cfg(**spec(tmp_path)))
    assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


# a config whose body cannot be built, and one whose certificate does not
# fit its body: (config keys, exit code, start of the error message)
EARLY_FAILURES = [
    ({"body": {"disc": {"r": -1}}}, 1, "config error: cannot build body"),
    ({"scenario": "couple_chains", "body": ELLIPSE, "law": TU34,
      "rate": {"kind": "disc_chain"}, "replicas": 8}, 2,
     "hypothesis violation:"),
]


@pytest.mark.parametrize("spec,code,msg", EARLY_FAILURES,
                         ids=["negative-radius", "mismatched-certificate"])
def test_early_failure_leaves_no_output_directory(tmp_path, capsys, spec,
                                                  code, msg):
    path = _write(tmp_path, "cfg.json", _base_chain_cfg(**spec))
    # a new directory and its new parent are both removed again
    out = tmp_path / "new" / "o"
    assert main(["run", "--config", path, "--out", str(out)]) == code
    assert capsys.readouterr().err.startswith(msg)
    assert not (tmp_path / "new").exists()
    # a directory that existed before the run stays
    out = tmp_path / "kept"
    out.mkdir()
    assert main(["run", "--config", path, "--out", str(out)]) == code
    assert capsys.readouterr().err.startswith(msg)
    assert out.is_dir() and not any(out.iterdir())


def test_chain_rate_certificate_roundtrips(tmp_path):
    cfg = _base_chain_cfg(
        scenario="chain_rate",
        law={"truncated_uniform": {"theta_star": 0.75 * PI}},
        rate={"kind": "disc_chain"})
    del cfg["n_max"]
    path = _write(tmp_path, "cfg.json", cfg)
    out = tmp_path / "cert"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    data = json.loads((out / "certificate.json").read_text())
    import jsonschema
    jsonschema.validate(data, CERTIFICATE_SCHEMA)
    clone = RateCertificate.from_json_dict(data)
    assert abs(clone.constants["alpha"] - 2.0 / 3.0) < 1e-12


def test_verify_lb_negative_control_exit_3(tmp_path):
    cfg = _base_chain_cfg(
        scenario="verify_lb",
        law={"truncated_uniform": {"theta_star": 0.75 * PI}},
        lb_profile="t2", replicas=100_000, inflate=10.0)
    del cfg["n_max"]
    path = _write(tmp_path, "cfg.json", cfg)
    assert main(["run", "--config", path, "--out", str(tmp_path / "neg")]) == 3
    rep = json.loads((tmp_path / "neg" / "lb_report.json").read_text())
    assert not rep["passed"]


def test_verify_lb_positive_exit_0(tmp_path):
    cfg = _base_chain_cfg(
        scenario="verify_lb",
        law={"truncated_uniform": {"theta_star": 0.75 * PI}},
        lb_profile="t2", replicas=100_000)
    del cfg["n_max"]
    path = _write(tmp_path, "cfg.json", cfg)
    assert main(["run", "--config", path, "--out", str(tmp_path / "pos")]) == 0


@pytest.mark.parametrize("body", [{"disc": {"r": 1.3}}, ELLIPSE],
                         ids=["disc", "ellipse"])
@pytest.mark.parametrize("law,code", [(TU34, 2), ("uniform_half", 0)],
                         ids=["truncated", "uniform_half"])
def test_verify_lb_t1_needs_full_width(tmp_path, capsys, body, law, code):
    # the t1 level needs launches near tangency: a law certified on a
    # narrower window is outside the profile's hypothesis (exit 2), and
    # the full half-circle law passes
    cfg = _base_chain_cfg(scenario="verify_lb", seed=13, body=body, law=law,
                          lb_profile="t1", replicas=20_000, s0=0.4)
    del cfg["n_max"]
    path = _write(tmp_path, "cfg.json", cfg)
    assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) \
        == code
    if code == 2:
        assert capsys.readouterr().err.startswith("hypothesis violation:")


def test_write_csv_golden_bytes(tmp_path):
    row = [7, np.int64(-3), True, np.bool_(False), 0.5, np.float64(2.25),
           -1.0, math.nan, math.inf, -0.0, 1e-300, 0.1]
    path = tmp_path / "golden.csv"
    write_csv(path, [f"c{i}" for i in range(len(row))], [row])
    assert path.read_bytes() == (
        b"c0,c1,c2,c3,c4,c5,c6,c7,c8,c9,c10,c11\n"
        b"7,-3,1,0,0.5,2.25,-1,nan,inf,-0,1e-300,0.10000000000000001\n")


def test_couple_chains_outcomes_csv(tmp_path):
    cfg = _base_chain_cfg(
        scenario="couple_chains",
        law={"truncated_uniform": {"theta_star": 0.75 * PI}},
        rate={"kind": "disc_chain"},
        n_max=20, replicas=500, s0=0.0, s0_alt=PI)
    path = _write(tmp_path, "cfg.json", cfg)
    out = tmp_path / "cc"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    rows = (out / "outcomes.csv").read_text().splitlines()
    assert rows[0] == ("replica,coupled,index_or_time,attempts,"
                      "stage1_successes,stage2_successes")
    assert len(rows) == 501


def test_couple_chains_curvature_table(tmp_path):
    # the batch chain coupling runs on the bounce kernel of any body
    from convexbilliards import Ellipse
    e = Ellipse(2.0, 1.0)
    s = np.arange(256) * (e.perimeter / 256)
    curve = tmp_path / "curve.csv"
    np.savetxt(curve, np.stack([s, e.curvature_at(s)], axis=1),
               delimiter=",")
    cfg = _base_chain_cfg(
        scenario="couple_chains", law="uniform_half",
        body={"curvature_table": {"path": str(curve)}},
        rate={"kind": "convex_chain", "width": 2.8, "floor": 1.0 / PI},
        n_max=2, replicas=8)
    path = _write(tmp_path, "cfg.json", cfg)
    out = tmp_path / "table"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    assert len((out / "outcomes.csv").read_text().splitlines()) == 9


def test_couple_chains_block_certificate(tmp_path):
    # a two-bounce certificate: pairs couple at block ends only, and the
    # attempts column counts blocks
    cfg = _base_chain_cfg(
        scenario="couple_chains",
        law={"truncated_uniform": {"theta_star": 0.5 * PI}},
        rate={"kind": "disc_chain"}, params={"eps": PI / 8.0},
        n_max=11, replicas=300, s0=0.0, s0_alt=PI)
    path = _write(tmp_path, "cfg.json", cfg)
    out = tmp_path / "blocks"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    rows = np.loadtxt(out / "outcomes.csv", delimiter=",", skiprows=1,
                      dtype=np.int64, ndmin=2)
    coupled = rows[:, 1] == 1
    assert coupled.any() and not coupled.all()
    assert np.all(rows[coupled, 2] % 2 == 0)
    assert np.all(rows[coupled, 3] == rows[coupled, 2] // 2)
    assert np.all(rows[~coupled, 3] == 11 // 2)


def test_residual_cap_exit_1(tmp_path, monkeypatch, capsys):
    # an always-rejecting residual exhausts the cap of the shared thinning
    # loop: an engine error, exit code 1.  The cap is lowered because 50
    # rows of always-rejected rounds would run for minutes at the full cap.
    from convexbilliards.coupling import base, chains
    real = base.thin_residual

    def always_reject(n, propose, rng):
        def rejecting(rows):
            fields, _ = propose(rows)
            return fields, lambda w: np.ones(w.size, bool)
        return real(n, rejecting, rng)

    monkeypatch.setattr(chains, "thin_residual", always_reject)
    monkeypatch.setattr(base, "MAX_REJECTS", 100)
    cfg = _base_chain_cfg(
        scenario="couple_chains",
        law={"truncated_uniform": {"theta_star": 0.75 * PI}},
        rate={"kind": "disc_chain"}, n_max=3, replicas=50)
    path = _write(tmp_path, "cfg.json", cfg)
    assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 1
    assert "rejection cap" in capsys.readouterr().err


def test_flag_overrides(tmp_path):
    cfg = _base_chain_cfg(n_max=3)
    path = _write(tmp_path, "cfg.json", cfg)
    out = tmp_path / "ovr"
    assert main(["run", "--config", path, "--out", str(out),
                 "--n-max", "6"]) == 0
    rows = (out / "trajectory.csv").read_text().splitlines()
    assert len(rows) == 7


@pytest.mark.parametrize("flag,value", [("--seed", "-1"),
                                        ("--replicas", "0"),
                                        ("--replicas", "-5"),
                                        ("--n-max", "-1")])
def test_flag_overrides_meet_the_schema(tmp_path, capsys, flag, value):
    # the flags are merged into the config before it is checked, so an
    # override the schema refuses is a config error like the same key in
    # the file, and nothing is written
    cfg = _base_chain_cfg(scenario="verify_dominance", law=TU34,
                          rate={"kind": "disc_chain"}, n_max=3,
                          replicas=200, bins=20)
    path = _write(tmp_path, "cfg.json", cfg)
    out = tmp_path / "o"
    assert main(["run", "--config", path, "--out", str(out),
                 flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert not out.exists()


def test_dominance_worker_invariance(tmp_path):
    cfg = _base_chain_cfg(
        scenario="verify_dominance",
        law={"truncated_uniform": {"theta_star": 0.75 * PI}},
        rate={"kind": "disc_chain"},
        s0=0.0, s0_alt=PI, n_max=6, replicas=30_000, bins=100)
    path = _write(tmp_path, "cfg.json", cfg)
    out1 = tmp_path / "w1"
    out2 = tmp_path / "w2"
    assert main(["run", "--config", path, "--out", str(out1),
                 "--workers", "1"]) == 0
    assert main(["run", "--config", path, "--out", str(out2),
                 "--workers", "2"]) == 0
    assert (out1 / "tv_curve.csv").read_bytes() \
        == (out2 / "tv_curve.csv").read_bytes()


# sha256 of the verify_dominance artifacts, recorded before ensembles were
# binned in native coordinates (numpy 2.4, x86_64); any worker count
DOMINANCE_GOLDEN = {
    "ellipse": (
        {"body": {"ellipse": {"a": 2.0, "b": 1.0}}, "law": "uniform_half",
         "rate": {"kind": "convex_chain", "width": 2.8, "floor": 1.0 / PI}},
        {"tv_curve.csv": "37a50b38cb6a10d9e32907cd9e3cb81b"
                         "87c680bde2ef2eb53c7fb57d630e8ed3",
         "report.json": "479781b9de9f88795c9e1cb8dfa9fc20"
                        "7f64dbaa6461e44d83e235a331b0cdab",
         "certificate.json": "5c83be43d6286bc1d57bf6605b45ad2e"
                             "97c7bcf0cc5069d36267e07a83eb2f13"}),
    "disc": (
        {"body": {"disc": {"r": 1.0}},
         "law": {"truncated_uniform": {"theta_star": 0.75 * PI}},
         "rate": {"kind": "disc_chain"}, "s0_alt": PI},
        {"tv_curve.csv": "e6bc7d8b61ddb9f698659edd59a55ece"
                         "f4e4efd653676d78110028c497338c62",
         "report.json": "479781b9de9f88795c9e1cb8dfa9fc20"
                        "7f64dbaa6461e44d83e235a331b0cdab",
         "certificate.json": "99bf7487bfe0a6abaa24fecb6e1789e9"
                             "2de1b3f9f7845485da65c16fbcdfcfe4"}),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", DOMINANCE_GOLDEN)
def test_dominance_artifacts_golden(tmp_path, name, workers):
    import hashlib
    over, digests = DOMINANCE_GOLDEN[name]
    cfg = _base_chain_cfg(scenario="verify_dominance", seed=16, s0=0.0,
                          n_max=8, replicas=10_000, bins=100, **over)
    path = _write(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out),
                 "--workers", str(workers)]) == 0
    assert {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
            for f in digests} == digests


@pytest.mark.parametrize("workers", [1, 2])
def test_couple_chains_ellipse_outcomes_golden(tmp_path, workers):
    # the chain-coupling-ellipse config: one-bounce blocks, whose first
    # chain's free bounce decides each attempt (the rejection form) and
    # whose second chain's residual walks are one bounce each, so their
    # bytes stay fixed for any worker count
    import hashlib
    cfg = _base_chain_cfg(
        scenario="couple_chains", seed=17, body={"ellipse": {"a": 2.0,
                                                          "b": 1.0}},
        law="uniform_half",
        rate={"kind": "convex_chain", "width": 2.8, "floor": 1.0 / PI},
        s0=0.0, n_max=12, replicas=1500)
    path = _write(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out),
                 "--workers", str(workers)]) == 0
    assert hashlib.sha256((out / "outcomes.csv").read_bytes()).hexdigest() \
        == "9a686c989b41ba339ee75a0b65308b705a28866017b8739465b13a248385bb0b"


# sha256 of the artifacts below, recorded before the tick loop dropped its
# per-replica stage flags and the table's diameter search went antipodal
# (numpy 2.4, x86_64); any worker count
@pytest.mark.parametrize("workers", [1, 2])
def test_couple_process_disc_outcomes_golden(tmp_path, workers):
    import hashlib
    cfg = _base_chain_cfg(
        scenario="couple_process",
        law={"truncated_uniform": {"theta_star": 0.75 * PI}},
        rate={"kind": "disc_process"},
        params={"eta": 0.12, "eps": 0.09},
        t_max=1e6, replicas=16,
        start=[[0.3, 0.2], [1.0, 0.4]],
        start_alt=[[-0.5, 0.1], [-0.2, -1.0]])
    del cfg["n_max"]
    path = _write(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out),
                 "--workers", str(workers)]) == 0
    assert hashlib.sha256((out / "outcomes.csv").read_bytes()).hexdigest() \
        == "ec886b53ef9161f69f1ee970e9876c5dab1b2968c0602ba22bd3b7d2394e517f"


@pytest.mark.parametrize("workers", [1, 2])
def test_dominance_curvature_table_artifacts_golden(tmp_path, workers):
    import hashlib
    from convexbilliards import Ellipse
    e = Ellipse(2.0, 1.0)
    s = np.arange(1024) * (e.perimeter / 1024)
    curve = tmp_path / "curve.csv"
    np.savetxt(curve, np.stack([s, e.curvature_at(s)], axis=1),
               delimiter=",")
    cfg = _base_chain_cfg(
        scenario="verify_dominance", seed=16, s0=0.0, n_max=8,
        replicas=10_000, bins=100, law="uniform_half",
        body={"curvature_table": {"path": str(curve)}},
        rate={"kind": "convex_chain", "width": 2.8, "floor": 1.0 / PI})
    path = _write(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out),
                 "--workers", str(workers)]) == 0
    digests = {"certificate.json": "1d34a5684cad287f339d03278bab2bf9"
                                   "85636fdd46fa59490bf4b937d5d028a2",
               "tv_curve.csv": "a0b73c3b26d0479845ec34fda40b3c7c"
                               "1fffbdf1f4e1ff48894fe293517b5fb5"}
    assert {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
            for f in digests} == digests


def test_couple_process_outcomes_csv(tmp_path):
    cfg = _base_chain_cfg(
        scenario="couple_process",
        law={"truncated_uniform": {"theta_star": 0.75 * PI}},
        rate={"kind": "disc_process"},
        params={"eta": 0.12, "eps": 0.09},
        t_max=1e6, replicas=64,
        start=[[0.3, 0.2], [1.0, 0.4]],
        start_alt=[[-0.5, 0.1], [-0.2, -1.0]])
    del cfg["n_max"]
    path = _write(tmp_path, "cfg.json", cfg)
    out = tmp_path / "cp"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    rows = (out / "outcomes.csv").read_text().splitlines()
    assert len(rows) == 65
    coupled = [r.split(",")[1] for r in rows[1:]]
    assert set(coupled) == {"1"}


def test_couple_process_convex_default_starts(tmp_path):
    # convex certificates run through the CLI too; without explicit starts
    # each process leaves its boundary point along the inward normal
    cfg = _base_chain_cfg(
        scenario="couple_process", body={"ellipse": {"a": 2.0, "b": 1.0}},
        law="uniform_half", rate={"kind": "convex_process"},
        params={"eps": 5e-4, "beta": 1.5, "delta": 1.2, "zeta": 0.1},
        t_max=20.0, replicas=12)
    del cfg["n_max"]
    path = _write(tmp_path, "cfg.json", cfg)
    out = tmp_path / "cpc"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    rows = (out / "outcomes.csv").read_text().splitlines()
    assert rows[0] == ("replica,coupled,index_or_time,attempts,"
                      "stage1_successes,stage2_successes")
    assert [r.split(",")[0] for r in rows[1:]] == [str(i) for i in range(12)]


def test_couple_process_convex_curvature_table(tmp_path):
    # the process coupling's first hits are the one use of a table's
    # exit_ray: from each default start, its boundary point's inward normal
    from convexbilliards import Ellipse
    e = Ellipse(2.0, 1.0)
    s = np.arange(256) * (e.perimeter / 256)
    curve = tmp_path / "curve.csv"
    np.savetxt(curve, np.stack([s, e.curvature_at(s)], axis=1),
               delimiter=",")
    cfg = _base_chain_cfg(
        scenario="couple_process",
        body={"curvature_table": {"path": str(curve)}},
        law="uniform_half", rate={"kind": "convex_process"},
        params={"eps": 5e-4, "beta": 1.5, "delta": 1.2, "zeta": 0.1},
        t_max=20.0, replicas=12)
    del cfg["n_max"]
    path = _write(tmp_path, "cfg.json", cfg)
    out = tmp_path / "cpt"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    assert len((out / "outcomes.csv").read_text().splitlines()) == 13


def test_couple_chains_worker_invariance(tmp_path):
    # more replicas than one chunk, so two workers split the chunks
    cfg = _base_chain_cfg(
        scenario="couple_chains",
        law={"truncated_uniform": {"theta_star": 0.75 * PI}},
        rate={"kind": "disc_chain"}, n_max=6, replicas=5000, s0=0.0,
        s0_alt=PI)
    path = _write(tmp_path, "cfg.json", cfg)
    outs = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        assert main(["run", "--config", path, "--out", str(out),
                     "--workers", workers]) == 0
        outs.append((out / "outcomes.csv").read_bytes())
    assert outs[0] == outs[1]
    assert len(outs[0].splitlines()) == 5001


def test_optimize_params_scenario(tmp_path):
    cfg = _base_chain_cfg(
        scenario="optimize_params",
        law={"truncated_uniform": {"theta_star": PI / 2.0}},
        rate={"kind": "disc_chain"},
        grid={"eps": [0.2, PI / 4.0, 0.9]})
    del cfg["n_max"]
    path = _write(tmp_path, "cfg.json", cfg)
    out = tmp_path / "opt"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    best = json.loads((out / "best_params.json").read_text())
    assert abs(best["eps"] - PI / 4.0) < 1e-12
    cert = json.loads((out / "certificate.json").read_text())
    assert abs(cert["constants"]["alpha"] - 0.25) < 1e-12


def test_console_entry_point_runs():
    # the child imports the package from where this process found it, so
    # the test also runs with the package on pytest's path only
    src = str(Path(convexbilliards.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "convexbilliards.cli", "schema"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "scenario" in proc.stdout


# ---------------------------------------------------------------------------
# certificate validation and package import
# ---------------------------------------------------------------------------

MALFORMED_CURVES = {
    "string-item": [[0.0, 1.0], ["1", 0.5]],
    "bool-item": [[0.0, 1.0], [1.0, True]],
    "short-row": [[0.0, 1.0], [1.0]],
    "long-row": [[0.0, 1.0], [1.0, 0.5, 0.25]],
    "not-a-list": {"0": 1.0},
}


def _disc_chain_certificate():
    from convexbilliards.rates import disc_chain_rate
    return disc_chain_rate(1.0, 0.75 * PI, 1.0 / (1.5 * PI)).to_json_dict()


def test_certificate_validation_matches_schema():
    # the certificate's curve rows are checked in one pass; each check
    # must reject what the published schema rejects
    import jsonschema
    from convexbilliards.cli import validate_certificate
    data = _disc_chain_certificate()
    jsonschema.validate(data, CERTIFICATE_SCHEMA)
    validate_certificate(data)
    for curve in MALFORMED_CURVES.values():
        bad = {**data, "bound_curve": curve}
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(bad, CERTIFICATE_SCHEMA)
        with pytest.raises(jsonschema.ValidationError):
            validate_certificate(bad)


def test_config_errors_name_the_best_match(tmp_path):
    # three violations: the message is jsonschema.validate's best match,
    # not the first error found
    import jsonschema
    from convexbilliards.cli import CONFIG_SCHEMA
    cfg = _base_chain_cfg(seed=1.5, body=3, bogus=1)
    with pytest.raises(jsonschema.ValidationError) as ref:
        jsonschema.validate(cfg, CONFIG_SCHEMA)
    with pytest.raises(ConfigError) as exc:
        load_config(_write(tmp_path, "cfg.json", cfg))
    assert str(exc.value) == f"config schema violation: {ref.value.message}"


# small disc configs of the scenarios the benchmark runs, and verify_lb
DISC_IMPORT_GUARD_CONFIGS = [
    _base_chain_cfg(),
    _base_chain_cfg(scenario="verify_dominance", law=TU34,
                    rate={"kind": "disc_chain"}, s0=0.0, s0_alt=PI,
                    n_max=3, replicas=2000, bins=20),
    _base_chain_cfg(scenario="couple_chains", law=TU34,
                    rate={"kind": "disc_chain"}, n_max=5, replicas=20),
    _base_chain_cfg(scenario="couple_process", law=TU34, **DISC_PROCESS,
                    t_max=1e6, replicas=8),
    # the convex certificate's bisector windows and the convex engine
    _base_chain_cfg(scenario="couple_process", law="uniform_half",
                    rate={"kind": "convex_process"},
                    params={"zeta": 0.5, "eps": 5e-4, "beta": 0.6,
                            "delta": 0.4},
                    t_max=20.0, replicas=8),
    _base_chain_cfg(scenario="optimize_params", law=TU34,
                    rate={"kind": "disc_chain"},
                    grid={"eps": [0.2, PI / 4.0]}),
    _base_chain_cfg(scenario="optimize_params", law=TU34, **DISC_PROCESS,
                    grid={"eta": [0.12], "eps": [0.05, 0.09]}),
]
LB_IMPORT_GUARD_CONFIGS = [
    _base_chain_cfg(scenario="verify_lb", law=TU34, lb_profile="t2",
                    replicas=10_000),
]


def test_scenarios_do_not_import_scipy_stats_or_integrate(tmp_path):
    # one fresh interpreter imports the CLI and runs the disc scenarios,
    # which load no scipy at all, then verify_lb, which loads
    # scipy.special and no other scipy subpackage
    groups = [[[_write(tmp_path, f"cfg{g}_{k}.json", cfg),
                str(tmp_path / f"out{g}_{k}")] for k, cfg in enumerate(cfgs)]
              for g, cfgs in enumerate((DISC_IMPORT_GUARD_CONFIGS,
                                        LB_IMPORT_GUARD_CONFIGS))]
    code = (
        "import json, sys\n"
        "from convexbilliards.cli import main\n"
        "out = []\n"
        "for group in json.loads(sys.argv[1]):\n"
        "    codes = [main(['run', '--config', c, '--out', o])"
        " for c, o in group]\n"
        "    scipy = sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'scipy')\n"
        "    public = [m for m in scipy if m.count('.') == 1"
        " and not m.split('.')[1].startswith('_')"
        " and hasattr(sys.modules[m], '__path__')]\n"
        "    out.append([codes, scipy, public])\n"
        "print(json.dumps(out))\n")
    src = str(Path(convexbilliards.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(groups)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    (disc_codes, disc_scipy, _), (lb_codes, _, lb_public) = \
        json.loads(proc.stdout.splitlines()[-1])
    assert disc_codes == [0] * len(DISC_IMPORT_GUARD_CONFIGS)
    assert disc_scipy == []
    assert lb_codes == [0] * len(LB_IMPORT_GUARD_CONFIGS)
    assert lb_public == ["scipy.special"]


def _scipy_imports_outside_functions(tree):
    # line numbers of scipy imports that run when the module is imported:
    # every one not inside a function body
    lines, todo = [], [tree]
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            todo.extend(ast.iter_child_nodes(node))
            continue
        if any(n.split(".")[0] == "scipy" for n in names):
            lines.append(node.lineno)
    return sorted(lines)


def test_package_imports_scipy_only_inside_functions():
    # a run loads each scipy routine only where a body, a table, a gate or
    # a reference integral calls it
    root = Path(convexbilliards.__file__).resolve().parent
    found = {str(path.relative_to(root)): lines
             for path in sorted(root.rglob("*.py"))
             if (lines := _scipy_imports_outside_functions(
                 ast.parse(path.read_text())))}
    assert found == {}


def test_cli_import_loads_no_multiprocessing_or_scipy():
    # a fresh interpreter: importing the CLI loads neither multiprocessing,
    # which only a pool of workers > 1 needs, nor any scipy module
    code = ("import json, sys\n"
            "import convexbilliards.cli\n"
            "print(json.dumps(sorted(m for m in sys.modules"
            " if m.split('.')[0] in ('multiprocessing', 'scipy'))))\n")
    src = str(Path(convexbilliards.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
