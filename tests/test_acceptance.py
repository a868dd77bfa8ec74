"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints one PASS/FAIL line (run pytest with -s to see them inline).  The
expected constants of the worked examples are evaluated independently
inside the tests before being compared against the library.
"""

import json
import math
import time

import numpy as np
import pytest

from convexbilliards import (
    Disc,
    Ellipse,
    ReflectionLaw,
    point_at,
    summarize,
)
from convexbilliards.cli import main as cli_main
from convexbilliards.coupling import couple_process_disc_batch
from convexbilliards.coupling import couple_chains_batch
from convexbilliards.dynamics import (
    chord_times,
    disc_step_exact,
    run_chain,
    run_chain_ensemble,
    transition_row_integral,
)
from convexbilliards.rates import (
    RateParams,
    bisector_window_geometry,
    convex_chain_rate,
    disc_chain_rate,
    disc_pair_profile,
    optimize_free_params,
    t2_density_floor,
    tail_lambda_max,
)
from convexbilliards.rng import stream, substream
from convexbilliards.stats import (
    Histogram,
    dominance_report,
    empirical_tv_curve,
    lb_check,
    survival_report,
    tv_to_probs,
    two_sample_chi2,
)

PI = math.pi
TWO_PI = 2.0 * math.pi


def _verdict(name, ok, detail, t0):
    status = "PASS" if ok else "FAIL"
    print(f"{name} {status} ({time.time() - t0:.1f} s): {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# AC-1: disc oracle equivalence
# ---------------------------------------------------------------------------

def test_ac1_disc_oracle_equivalence():
    t0 = time.time()
    r = 1.7
    body = Disc(r)
    law = ReflectionLaw.cosine()
    n = 100_000
    traj = run_chain(body, law, 0.0, n, stream(1001, 0))
    gen = stream(1001, 0)  # identical angle stream for the recursion
    phi = 0.0
    d_tau = d_phi = 0.0
    for i in range(n):
        theta = float(law.sample(gen))
        phi, tau = disc_step_exact(r, phi, theta)
        d_tau = max(d_tau, abs(tau - traj.tau[i]))
        d_phi = max(d_phi, abs(phi - traj.phi[i]))
    elapsed = time.time() - t0
    ok = d_tau < 1e-9 and d_phi < 1e-9 and elapsed < 10.0
    _verdict("AC-1", ok,
             f"max |dtau| = {d_tau:.2e}, max |dphi| = {d_phi:.2e},"
             f" {n} bounces in {elapsed:.1f} s (< 10 s)", t0)


# ---------------------------------------------------------------------------
# AC-2: kernel stochasticity
# ---------------------------------------------------------------------------

def test_ac2_kernel_stochasticity():
    t0 = time.time()
    bodies = [Disc(1.0), Ellipse(2.0, 1.0)]
    laws = [ReflectionLaw.cosine(),
            ReflectionLaw.truncated_uniform(0.75 * PI)]
    gen = stream(1002, 0)
    worst = 0.0
    for body in bodies:
        xs = gen.random(32) * body.perimeter
        for law in laws:
            for s in xs:
                val = transition_row_integral(body, law, point_at(body, s))
                worst = max(worst, abs(val - 1.0))
    elapsed = time.time() - t0
    ok = worst < 1e-6 and elapsed < 30.0
    _verdict("AC-2", ok,
             f"max |integral - 1| = {worst:.2e} over 128 rows,"
             f" {elapsed:.1f} s (< 30 s)", t0)


# ---------------------------------------------------------------------------
# AC-3: chain dominance, disc case 1
# ---------------------------------------------------------------------------

def test_ac3_chain_dominance_case1():
    t0 = time.time()
    width = 0.75 * PI
    floor = 4.0 / (3.0 * PI)
    assert abs(floor - 1.0 / width) < 1e-15
    alpha = floor * (2.0 * width - PI)  # independent evaluation
    assert abs(alpha - 2.0 / 3.0) < 1e-12
    cert = disc_chain_rate(width, floor)
    law = ReflectionLaw.truncated_uniform(width)
    curve = empirical_tv_curve(Disc(1.0), law, 0.0, PI, 12, 100_000, 100,
                               seed=1003)
    report = dominance_report(curve, cert)
    worst = max(p.empirical - p.bound - p.margin for p in report.points)
    elapsed = time.time() - t0
    ok = report.passed and elapsed < 120.0
    _verdict("AC-3", ok,
             f"TV(n) <= (1/3)^(n-1) + margin for n = 1..12"
             f" (worst slack {worst:.2e}), {elapsed:.1f} s (< 2 min)", t0)


# ---------------------------------------------------------------------------
# AC-4: chain dominance, disc case 2
# ---------------------------------------------------------------------------

def test_ac4_chain_dominance_case2():
    t0 = time.time()
    width, eps = 0.5 * PI, PI / 8.0
    floor = 2.0 / PI
    n0_expected = math.floor((PI - 2 * eps) / (2 * (width - eps))) + 1
    assert n0_expected == 2
    cert = disc_chain_rate(width, floor, eps)
    assert cert.constants["n0"] == 2
    law = ReflectionLaw.truncated_uniform(width)
    curve = empirical_tv_curve(Disc(1.0), law, 0.0, PI, 20, 100_000, 100,
                               seed=1004)
    report = dominance_report(curve, cert)
    multiples = [p for p in report.points if p.x % 2 == 0]
    ok_mult = all(p.passed for p in multiples)
    elapsed = time.time() - t0
    ok = report.passed and ok_mult and len(multiples) == 10 and elapsed < 120.0
    _verdict("AC-4", ok,
             f"dominance at n = 2,4,...,20 with n0 = 2, alpha = 3/16;"
             f" {elapsed:.1f} s (< 2 min)", t0)


# ---------------------------------------------------------------------------
# AC-5: density lower-bound suite
# ---------------------------------------------------------------------------

def test_ac5_lower_bound_suite():
    t0 = time.time()
    n = 100_000
    results = {}

    # first-landing floor, cosine law with its certified window
    law_c = ReflectionLaw.cosine()
    fc = law_c.certify_floor()
    th = law_c.sample(substream(1005, "phi1"), n)
    phi1 = PI + 2.0 * np.asarray(th)
    results["phi1"] = lb_check(phi1, (PI - fc.width, PI + fc.width),
                               0.5 * fc.floor)

    # two-bounce time floor, truncated-uniform law
    r, width = 1.0, 0.75 * PI
    floor = 4.0 / (3.0 * PI)
    law_t = ReflectionLaw.truncated_uniform(width)
    eta = 0.8 * 2.0 * r * (1.0 - math.cos(0.5 * width))
    delta = t2_density_floor(r, width, floor, eta)
    th2 = law_t.sample(substream(1005, "t2"), (2, n))
    t2 = 2.0 * r * (np.cos(th2[0]) + np.cos(th2[1]))
    window_t2 = (4.0 * r * math.cos(0.5 * width) + eta, 4.0 * r - eta)
    results["t2"] = lb_check(t2, window_t2, delta)

    # joint landing-angle/time window
    eps = 0.05
    prof = disc_pair_profile(r, width, floor, eps)
    th3 = law_t.sample(substream(1005, "pair"), (2, n))
    ang = np.mod(2.0 * (th3[0] + th3[1]) + PI, TWO_PI) - PI
    tt = 2.0 * r * (np.cos(th3[0]) + np.cos(th3[1]))
    samples = np.stack([ang, tt], axis=1)
    window_pair = ((-prof["angle_halfwidth"], prof["angle_halfwidth"]),
                   (prof["t_lo"], prof["t_hi"]))
    results["pair"] = lb_check(samples, window_pair, prof["level"])

    # first flight time on the ellipse, full half-circle law
    body = Ellipse(2.0, 1.0)
    summary = summarize(body)
    law_u = ReflectionLaw.uniform_half()
    th4 = law_u.sample(substream(1005, "t1"), n)
    t1 = chord_times(body, 0.0, th4)  # from the sharpest vertex (2, 0)
    results["t1"] = lb_check(
        t1, (0.0, 2.0 / summary.curvature_max),
        summary.curvature_min * (1.0 / PI))

    # negative control: the same two-bounce samples against ten times delta
    control = lb_check(t2, window_t2, 10.0 * delta)

    elapsed = time.time() - t0
    detail = ", ".join(f"{k}: z = {v.worst_z:.2f}" for k, v in results.items())
    ok = all(v.passed for v in results.values()) and not control.passed \
        and elapsed < 180.0
    _verdict("AC-5", ok,
             f"{detail}; 10x-inflated control fails as required;"
             f" {elapsed:.1f} s (< 3 min)", t0)


# ---------------------------------------------------------------------------
# AC-6: process coupling tail on the disc
# ---------------------------------------------------------------------------

def test_ac6_process_tail_disc():
    t0 = time.time()
    width = 0.75 * PI
    floor = 4.0 / (3.0 * PI)
    _, cert = optimize_free_params(
        "disc_process", {"r": 1.0, "width": width, "floor": floor},
        {"eta": (0.02, 0.2, 8), "eps": (0.01, 0.18, 8)})
    for key in ("delta", "h", "alpha", "lambda_M", "C_lambda"):
        assert cert.constants[key] > 0.0
    law = ReflectionLaw.truncated_uniform(width)
    start_a = (np.array([0.3, 0.2]), np.array([1.0, 0.4]))
    start_b = (np.array([-0.5, 0.1]), np.array([-0.2, -1.0]))
    res = couple_process_disc_batch(1.0, law, start_a, start_b, cert,
                                    t_max=1e6, n_replicas=10_000, seed=1006)
    grid = np.linspace(0.0, float(np.nanpercentile(res.coupling_time, 99.5)),
                       20)
    report = survival_report(res.coupling_time, cert, grid)
    inner = cert.constants["inner"]
    rate_ok = res.stage1_rate >= inner - 3.0 * math.sqrt(
        inner / res.stage1_attempts.sum())
    elapsed = time.time() - t0
    ok = report.passed and res.coupled.all() and rate_ok and elapsed < 300.0
    _verdict("AC-6", ok,
             f"survival below C*exp(-lambda*t) on 20 grid points"
             f" (lambda = lambda_M/2 = {cert.lam:.3e}), all of 1e4 replicas"
             f" coupled, {elapsed:.1f} s (< 5 min)", t0)


# ---------------------------------------------------------------------------
# AC-7: convex certificates and pair windows
# ---------------------------------------------------------------------------

def test_ac7_convex_certificates():
    t0 = time.time()
    body = Ellipse(2.0, 1.0)
    summary = summarize(body)
    ok_curv = (abs(summary.curvature_min - 0.25) < 1e-9
               and abs(summary.curvature_max - 2.0) < 1e-9)
    # the full-width law degenerates the printed kernel floor, so the chain
    # constants are certified on the half-width sub-window of the same law
    cert = convex_chain_rate(summary, 0.5 * PI, 1.0 / PI, eps=0.5)
    consts = cert.constants
    ok_cert = (0.0 < consts["q_min"] <= 1.0 and consts["n0"] >= 1
               and 0.0 < consts["alpha"] <= 1.0)

    params = RateParams(eps=5e-4, beta=1.5, delta=1.2)
    gen = stream(1007, 0)
    ok_windows = True
    worst_grad = math.inf
    worst_gap = math.inf
    for _ in range(8):
        sa = float(gen.random()) * body.perimeter
        sb = float(gen.random()) * body.perimeter
        if abs(sa - sb) < 0.05 * body.perimeter:
            sb = float(body.wrap(sb + 0.2 * body.perimeter))
        win = bisector_window_geometry(body, point_at(body, sa),
                                       point_at(body, sb), params)
        worst_grad = min(worst_grad, win.grad_min - win.h)
        worst_gap = min(worst_gap,
                        (win.R2 - win.R1) - win.h * params.eps)
        if win.grad_min < win.h - 1e-9 \
                or win.R2 - win.R1 < win.h * params.eps - 1e-9:
            ok_windows = False
    elapsed = time.time() - t0
    ok = ok_curv and ok_cert and ok_windows and elapsed < 120.0
    _verdict("AC-7", ok,
             f"q_min = {consts['q_min']:.4e}, n0 = {consts['n0']},"
             f" alpha = {consts['alpha']:.4e}; 8 window pairs with slope"
             f" slack >= {worst_grad:.2e}, gap slack >= {worst_gap:.2e};"
             f" {elapsed:.1f} s (< 2 min)", t0)


# ---------------------------------------------------------------------------
# AC-8: marginal preservation
# ---------------------------------------------------------------------------

def test_ac8_marginal_preservation():
    t0 = time.time()
    n = 100_000
    # disc with a one-bounce certificate
    disc = Disc(1.0)
    law_d = ReflectionLaw.truncated_uniform(0.75 * PI)
    cert_d = disc_chain_rate(0.75 * PI, 4.0 / (3.0 * PI))
    res_d = couple_chains_batch(disc, law_d, 0.0, PI, cert_d, 30, n,
                                seed=1008)
    plain_d = run_chain_ensemble(disc, law_d, np.zeros(n), 30,
                                 substream(1008, "plain-d"))[30]
    h1 = Histogram.from_samples(res_d.final_a, 100, 0.0, disc.perimeter,
                                periodic=True)
    h2 = Histogram.from_samples(plain_d, 100, 0.0, disc.perimeter,
                                periodic=True)
    _, p_disc = two_sample_chi2(h1, h2)

    # ellipse with a one-bounce certificate
    body = Ellipse(2.0, 1.0)
    law_e = ReflectionLaw.uniform_half()
    cert_e = convex_chain_rate(summarize(body), 2.8, 1.0 / PI)
    res_e = couple_chains_batch(body, law_e, 0.0, 0.5 * body.perimeter,
                                cert_e, 12, n, seed=1009)
    plain_e = run_chain_ensemble(body, law_e, np.zeros(n), 12,
                                 substream(1009, "plain-e"))[12]
    h3 = Histogram.from_samples(res_e.final_a, 100, 0.0, body.perimeter,
                                periodic=True)
    h4 = Histogram.from_samples(plain_e, 100, 0.0, body.perimeter,
                                periodic=True)
    _, p_ell = two_sample_chi2(h3, h4)

    elapsed = time.time() - t0
    ok = p_disc > 1e-3 and p_ell > 1e-3 and elapsed < 120.0
    _verdict("AC-8", ok,
             f"chi-square p-values: disc {p_disc:.3f}, ellipse {p_ell:.3f}"
             f" (significance 1e-3); {elapsed:.1f} s (< 2 min)", t0)


# ---------------------------------------------------------------------------
# AC-9: stationarity of the cosine chain
# ---------------------------------------------------------------------------

def test_ac9_stationarity_uniform():
    t0 = time.time()
    arcs = run_chain_ensemble(Disc(1.0), ReflectionLaw.cosine(),
                              np.zeros(1), 1_000_000, stream(1010, 0))
    h = Histogram.from_samples(arcs[1:, 0], 100, 0.0, TWO_PI, periodic=True)
    tv = tv_to_probs(h, np.full(100, 0.01))
    elapsed = time.time() - t0
    ok = tv < 0.01 and elapsed < 60.0
    _verdict("AC-9", ok,
             f"TV(1e6-step empirical law, uniform) = {tv:.4f} < 0.01;"
             f" {elapsed:.1f} s (< 1 min)", t0)


# ---------------------------------------------------------------------------
# AC-10: byte-identical artifacts across worker counts
# ---------------------------------------------------------------------------

def test_ac10_reproducibility(tmp_path):
    t0 = time.time()
    cfg = {
        "scenario": "verify_dominance",
        "seed": 1003,
        "body": {"disc": {"r": 1.0}},
        "law": {"truncated_uniform": {"theta_star": 0.75 * PI}},
        "rate": {"kind": "disc_chain"},
        "s0": 0.0, "s0_alt": PI,
        "n_max": 12, "replicas": 100_000, "bins": 100,
    }
    path = tmp_path / "ac3.json"
    path.write_text(json.dumps(cfg))
    outs = {}
    for workers in (1, 4):
        out = tmp_path / f"w{workers}"
        code = cli_main(["run", "--config", str(path), "--out", str(out),
                         "--workers", str(workers)])
        assert code == 0
        outs[workers] = (out / "tv_curve.csv").read_bytes()
    elapsed = time.time() - t0
    ok = outs[1] == outs[4]
    _verdict("AC-10", ok,
             f"tv_curve.csv byte-identical for workers 1 and 4"
             f" ({len(outs[1])} bytes); {elapsed:.1f} s", t0)


# ---------------------------------------------------------------------------
# AC-11: formula regression
# ---------------------------------------------------------------------------

def test_ac11_formula_regression():
    t0 = time.time()
    checks = []

    alpha1 = disc_chain_rate(0.75 * PI, 4.0 / (3.0 * PI)).constants["alpha"]
    checks.append(("alpha case 1", alpha1, 2.0 / 3.0))

    c2 = disc_chain_rate(0.5 * PI, 2.0 / PI, eps=PI / 8.0)
    checks.append(("n0 case 2", float(c2.constants["n0"]), 2.0))
    checks.append(("alpha case 2", c2.constants["alpha"], 3.0 / 16.0))

    q_min = convex_chain_rate(summarize(Disc(1.0)), 0.5 * PI,
                              1.0 / PI).constants["q_min"]
    checks.append(("q_min", q_min, math.sqrt(2.0) / (4.0 * PI)))

    # synthetic exponential-tail rate, evaluated independently
    inner = outer = 0.5
    s2 = (-(1.0 - inner)
          + math.sqrt((1.0 - inner) ** 2 + 4.0 * inner * (1.0 - outer))) \
        / (2.0 * inner * (1.0 - outer))
    lam_direct = min(math.log(1.0 / (1.0 - inner)) / 4.0,
                     math.log(s2) / 4.0)
    checks.append(("lambda_M synthetic", tail_lambda_max(0.5, 0.5, 4.0),
                   lam_direct))

    worst = max(abs(got - want) / abs(want) for _, got, want in checks)
    elapsed = time.time() - t0
    ok = worst < 1e-12 and elapsed < 1.0
    detail = "; ".join(f"{name} rel err {abs(got - want) / abs(want):.1e}"
                       for name, got, want in checks)
    _verdict("AC-11", ok, detail, t0)
