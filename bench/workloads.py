"""The four benchmark workloads and their output checks.

Every workload generates its inputs from the benchmark seed and runs one
operation at a time, single-process (``workers=1``):

* ``dominance-ellipse``       -- ``cli.run`` on a ``verify_dominance`` config;
* ``chain-coupling-ellipse``  -- ``cli.run`` on a ``couple_chains`` config;
* ``process-coupling-disc``   -- ``cli.run`` on a ``couple_process`` config;
* ``general-body-table``      -- ``dynamics.run_chain_ensemble`` on a
                                 ``CurvatureTable`` built from ellipse
                                 curvature.

The checks are statistical, so they hold under any order of random draws,
but they compare against exact oracles or against reference statistics in
``reference.json`` (written by ``make_reference.py``) tightly enough to fail
on a wrong engine.  Each workload also has a negative control (``control``
set): a wrong law, a shifted start or a perturbed coupling plateau, under
which its check must fail.

The package must be importable before this module is imported; ``run.py``
puts the checkout's ``src`` first on the path.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.stats import chi2 as chi2_dist

from convexbilliards import (cli, dynamics, errors, geometry, rates,
                             reflection, stats)

PI = math.pi
N_MAX = 12
ELLIPSE = {"ellipse": {"a": 2.0, "b": 1.0}}
# width 2.8 exceeds C * perimeter / 8 = 2.42 on Ellipse(2, 1), so the
# convex chain certificate couples in one-bounce blocks (n0 = 1)
CONVEX_CHAIN = {"kind": "convex_chain", "width": 2.8, "floor": 1.0 / PI}
REFERENCE = Path(__file__).resolve().parent / "reference.json"


def op_seed(seed: int, i: int) -> int:
    """Config seed of operation i of a run with benchmark seed ``seed``."""
    return seed * 1_000_003 + i


def _read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class Workload:
    """One workload: set-up, generated inputs, one operation, checks.

    ``run_op`` is the timed part.  ``check_op`` inspects one operation's
    outputs and returns the names of the failed sub-checks together with
    the work it completed; ``check_run`` does the checks that need the
    pooled outputs of every operation of the run.
    """

    name = ""
    why = ""

    def __init__(self, seed: int, out_dir: Path, control: bool = False):
        self.seed = seed
        self.out_dir = out_dir
        self.control = control
        self.reference = json.loads(REFERENCE.read_text())[self.name]
        self.pooled = {}   # pooled statistics of the run, set by check_run

    def config(self, i: int) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        """Build body, law and certificate as ``cli.run`` does."""
        cfg = self.config(0)
        self.body = geometry.body_from_config(cfg["body"])
        self.law = reflection.law_from_config(cfg["law"])
        self.cert = cli.build_certificate(cfg, self.body, self.law)

    def inputs(self, i: int):
        return self.config(i)

    def run_op(self, cfg) -> int:
        return cli.run(cfg, str(self.out_dir), workers=1)

    def check_op(self, cfg, code) -> tuple[list[str], dict]:
        raise NotImplementedError

    def check_run(self) -> list[str]:
        return []

    def needs_more(self) -> bool:
        """True while the pooled checks lack the samples they need."""
        return False

    def known_defect(self, exc: Exception) -> bool:
        """True if ``exc`` is a known engine defect that this workload
        measures (in ``completed_ops_frac``) rather than counts as failed."""
        return False


# ---------------------------------------------------------------------------

class DominanceEllipse(Workload):
    name = "dominance-ellipse"
    why = ("vectorised dynamics plus stats histograms and TV do the work and"
           " coupling does none (ROADMAP items 1 and 4)")
    REPLICAS = 25_000
    BINS = 100

    def config(self, i):
        return {"scenario": "verify_dominance", "seed": op_seed(self.seed, i),
                "body": ELLIPSE,
                "law": "cosine" if self.control else "uniform_half",
                "rate": CONVEX_CHAIN, "s0": 0.0, "n_max": N_MAX,
                "replicas": self.REPLICAS, "bins": self.BINS}

    def check_op(self, cfg, code):
        failed = []
        if code != 0:
            failed.append(f"exit code {code}")
        report = json.loads((self.out_dir / "report.json").read_text())
        if not report["passed"]:
            failed.append("report.json not passed")
        rows = _read_csv(self.out_dir / "tv_curve.csv")
        n = rows[:, 0].astype(int)   # the report skips n = 0
        ref = self.reference
        tol = tv_tolerance(np.asarray(ref["probs"])[n], cfg["replicas"],
                           ref["replicas"])
        dev = np.abs(rows[:, 1] - np.asarray(ref["tv"])[n])
        if not np.array_equal(n, np.arange(1, N_MAX + 1)):
            failed.append(f"TV curve steps {n.tolist()}")
        elif np.any(dev > tol):
            k = int(np.argmax(dev - tol))
            failed.append(f"TV curve off the reference at n = {n[k]}:"
                          f" |diff| {dev[k]:.4f} > {tol[k]:.4f}")
        r = cfg["replicas"]
        return failed, {"replicas": r, "pair_steps": r * N_MAX,
                        "bounces": 2 * r * N_MAX}


def tv_tolerance(probs, replicas, ref_replicas, n_sigma=4.0):
    """Allowed |TV_op - TV_ref| per step: bias of both + n_sigma * sd.

    ``probs`` (steps x bins) are the pooled bin probabilities of the two
    starts.  Pooled variances bound the per-start ones, the equal-laws bias
    bounds the estimator's bias at any true TV, and the sd is taken without
    the (1 - 2/pi) factor, which holds only under equal laws.
    """
    out = []
    for p in probs:
        v1 = p * (1.0 - p) * 2.0 / replicas
        v2 = p * (1.0 - p) * 2.0 / ref_replicas
        bias = 0.5 * math.sqrt(2.0 / PI) * (np.sqrt(v1).sum()
                                             + np.sqrt(v2).sum())
        sd = 0.5 * math.sqrt(v1.sum() + v2.sum())
        out.append(bias + n_sigma * sd)
    return np.asarray(out)


# ---------------------------------------------------------------------------

class ChainCouplingEllipse(Workload):
    name = "chain-coupling-ellipse"
    why = ("coupling.chains_batch residual thinning and Ellipse frames"
           " dominate and cli.write_csv shows (ROADMAP item 1, frame once"
           " per s)")
    REPLICAS = 1500
    P_MIN = 1e-6   # chi-square p-value floor of the index histogram

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.index_counts = np.zeros(N_MAX + 1, dtype=np.int64)

    def config(self, i):
        cfg = {"scenario": "couple_chains", "seed": op_seed(self.seed, i),
               "body": ELLIPSE, "law": "uniform_half", "rate": CONVEX_CHAIN,
               "s0": 0.0, "n_max": N_MAX, "replicas": self.REPLICAS}
        if self.control:
            cfg["s0_alt"] = 2.4   # about perimeter/4; the default is half
        return cfg

    def check_op(self, cfg, code):
        failed = []
        if code != 0:
            failed.append(f"exit code {code}")
        rows = _read_csv(self.out_dir / "outcomes.csv")
        r = cfg["replicas"]
        coupled = rows[:, 1] == 1
        index = np.where(coupled, rows[:, 2], N_MAX + 1).astype(int)
        if rows.shape[0] != r:
            failed.append(f"{rows.shape[0]} outcome rows, expected {r}")
        alpha = self.cert.constants["alpha"]
        for n in range(1, N_MAX + 1):
            bound = (1.0 - alpha) ** n
            margin = 4.0 * math.sqrt(bound * (1.0 - bound) / r)
            if np.mean(index > n) > bound + margin:
                failed.append(f"uncoupled fraction after {n} steps above"
                              f" (1 - alpha)^n + noise")
                break
        self.index_counts += np.bincount(index, minlength=N_MAX + 2)[1:]
        return failed, {"replicas": r, "pair_steps": r * N_MAX,
                        "bounces": 2 * r * N_MAX}

    def check_run(self):
        # coupling odds barely depend on where the chains are, so one
        # operation says little; the histogram pooled over the run decides
        counts = self.index_counts
        r = counts.sum()
        p = np.asarray(self.reference["index_probs"])
        expected = r * p
        # the reference's own sampling noise widens each cell's variance
        scale = 1.0 + r / self.reference["replicas"]
        stat = float(np.sum((counts - expected) ** 2 / (expected * scale)))
        pval = float(chi2_dist.sf(stat, p.size - 1))
        self.pooled = {"pairs": int(r), "index_counts": counts.tolist(),
                       "chi2": stat, "p": pval}
        if pval < self.P_MIN:
            return [f"coupling-index histogram off the reference"
                    f" (chi2 {stat:.1f}, p {pval:.1e})"]
        return []


# ---------------------------------------------------------------------------

class ProcessCouplingDisc(Workload):
    name = "process-coupling-disc"
    why = ("the lockstep coupling.process_disc state machine and"
           " reflection.sample in tiny batches do the work (ROADMAP item 1,"
           " long tail)")
    # The slowest replica sets much of an operation's time, so operation
    # times vary with the seed.  64 replicas balance that variation against
    # the number of operations a run takes the median of: in 12.5 s chunks
    # of one long run on two cores, the spread of the median operation time
    # was 28 % with 4 replicas, 14 % with 16 and 9 % with 64.
    REPLICAS = 64
    WIDTH = 0.75 * PI
    Z_MAX = 4.5   # allowed |z| of the pooled statistics against the reference

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.times, self.attempts, self.s1s, self.s2s = [], [], [], []

    def config(self, i):
        # the coupling odds are the certified plateau masses and barely
        # depend on the law, so the control perturbs the plateau margin
        eta = 0.06 if self.control else 0.12286
        return {"scenario": "couple_process", "seed": op_seed(self.seed, i),
                "body": {"disc": {"r": 1.0}},
                "law": {"truncated_uniform": {"theta_star": self.WIDTH}},
                "rate": {"kind": "disc_process", "width": self.WIDTH,
                         "floor": 4.0 / (3.0 * PI)},
                "params": {"eta": eta, "eps": 0.08286},
                "t_max": 1e6, "replicas": self.REPLICAS,
                "start": [[0.3, 0.2], [1.0, 0.4]],
                "start_alt": [[-0.5, 0.1], [-0.2, -1.0]]}

    def check_op(self, cfg, code):
        failed = []
        if code != 0:
            failed.append(f"exit code {code}")
        rows = _read_csv(self.out_dir / "outcomes.csv")
        if rows.shape[0] != cfg["replicas"]:
            failed.append(f"{rows.shape[0]} outcome rows")
        if not np.all(rows[:, 1] == 1):
            failed.append("a replica did not couple")
        self.times.append(rows[:, 2])
        self.attempts.append(rows[:, 3])
        self.s1s.append(rows[:, 4])
        self.s2s.append(rows[:, 5])
        att = int(rows[:, 3].sum())
        return failed, {"replicas": cfg["replicas"], "pair_steps": att,
                        "bounces": 4 * att}

    def check_run(self):
        failed = []
        times = np.concatenate(self.times)
        attempts = np.concatenate(self.attempts).sum()
        s1s = np.concatenate(self.s1s).sum()
        s2s = np.concatenate(self.s2s).sum()
        # every stage-1 success is followed by exactly one stage-2 attempt
        s1a, s2a = attempts - s1s, s1s
        inner = self.cert.constants["inner"]
        if s1s / s1a < inner - 3.0 * math.sqrt(inner / s1a):
            failed.append("stage-1 rate below inner - 3 sigma")
        grid = np.linspace(0.0, float(np.nanpercentile(times, 99.5)), 20)
        if not stats.survival_report(times, self.cert, grid).passed:
            failed.append("survival_report failed")
        ref = self.reference
        for stage, a, s in (("stage1", s1a, s1s), ("stage2", s2a, s2s)):
            ra, rs = ref[f"{stage}_attempts"], ref[f"{stage}_successes"]
            p_ref = rs / ra
            sd = math.sqrt(p_ref * (1.0 - p_ref) * (1.0 / a + 1.0 / ra))
            z = (s / a - p_ref) / sd
            if abs(z) > self.Z_MAX:
                failed.append(f"{stage} success ratio {s / a:.5f} off the"
                              f" reference {p_ref:.5f} (z = {z:.1f})")
        sd = math.sqrt(np.var(times) / times.size
                       + ref["sd_coupling_time"] ** 2 / ref["replicas"])
        z = (np.mean(times) - ref["mean_coupling_time"]) / sd
        self.pooled = {"replicas": int(times.size), "stage1_ratio": s1s / s1a,
                       "stage2_ratio": s2s / s2a,
                       "mean_coupling_time": float(np.mean(times)),
                       "z_mean_coupling_time": z}
        if abs(z) > self.Z_MAX:
            failed.append(f"mean coupling time {np.mean(times):.0f} off the"
                          f" reference {ref['mean_coupling_time']:.0f}"
                          f" (z = {z:.1f})")
        return failed


# ---------------------------------------------------------------------------

class GeneralBodyTable(Workload):
    name = "general-body-table"
    why = ("the paper's general convex body: scalar geometry exit_ray and"
           " arc_of_point do the work, with Ellipse as exact oracle (ROADMAP"
           " item 2)")
    BATCH = 16          # table chains per operation
    STEPS = 4
    ORACLE_PER_START = 8
    ARC_SAMPLES = 1024
    BINS = 24
    P_MIN = 1e-3
    MIN_SAMPLES = 1000  # two_sample_chi2 refuses fewer

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.landings = {"table": ([], []), "oracle": ([], [])}

    def setup(self):
        self.ellipse = geometry.Ellipse(2.0, 1.0)
        s = np.arange(self.ARC_SAMPLES) * (self.ellipse.perimeter
                                           / self.ARC_SAMPLES)
        self.body = geometry.CurvatureTable(s, self.ellipse.curvature_at(s))
        self.law = reflection.law_from_config("uniform_half")
        width, floor = CONVEX_CHAIN["width"], CONVEX_CHAIN["floor"]
        self.cert = rates.convex_chain_rate(geometry.summarize(self.body),
                                            width, floor)
        self.cert_oracle = rates.convex_chain_rate(
            geometry.summarize(self.ellipse), width, floor)
        self.origin = _max_curvature_arc(self.body)
        self.origin_oracle = _max_curvature_arc(self.ellipse)

    def config(self, i):
        return {"body": {"curvature_table": {
                    "from": "Ellipse(2, 1).curvature_at",
                    "arc_samples": self.ARC_SAMPLES}},
                "law": "uniform_half", "steps": self.STEPS,
                "batch": self.BATCH,
                "starts": "uniform on [0, perimeter/8) past the point of"
                          " maximum curvature",
                "seed": op_seed(self.seed, i)}

    def inputs(self, i):
        seed = op_seed(self.seed, i)
        starts = np.random.default_rng(seed).random(self.BATCH) \
            * (0.125 * self.body.perimeter)
        return seed, starts

    def run_op(self, inp):
        seed, starts = inp
        gen = np.random.Generator(np.random.Philox(key=[seed, 1]))
        return dynamics.run_chain_ensemble(self.body, self.law,
                                           self.origin + starts, self.STEPS,
                                           gen)

    def check_op(self, inp, arcs):
        seed, starts = inp
        if arcs.shape != (self.STEPS + 1, self.BATCH):
            return [f"output shape {arcs.shape}"], {}
        shift = 0.125 * self.ellipse.perimeter if self.control else 0.0
        gen = np.random.Generator(np.random.Philox(key=[seed, 2]))
        oracle = dynamics.run_chain_ensemble(
            self.ellipse, self.law,
            np.repeat(self.origin_oracle + starts + shift,
                      self.ORACLE_PER_START), self.STEPS, gen)
        for key, out, origin, body in (
                ("table", arcs, self.origin, self.body),
                ("oracle", oracle, self.origin_oracle, self.ellipse)):
            first, last = self.landings[key]
            first.append(np.mod(out[1] - origin, body.perimeter))
            last.append(np.mod(out[-1] - origin, body.perimeter))
        return [], {"replicas": self.BATCH,
                        "pair_steps": self.BATCH * self.STEPS,
                        "bounces": self.BATCH * self.STEPS}

    def needs_more(self):
        return sum(a.size for a in self.landings["table"][0]) \
            < self.MIN_SAMPLES

    def known_defect(self, exc):
        # On a grazing ray, CurvatureTable._exit_tau's march steps past the
        # short chord, and its bracket starts at the ray's origin, a boundary
        # point where the gauge is rounding noise.  brentq then gets ends of
        # one sign (ValueError) or returns the origin (TangentRay).
        if not ((type(exc) is ValueError and "different signs" in str(exc))
                or (type(exc) is errors.TangentRay
                    and "exit chord degenerates" in str(exc))):
            return False
        tb = exc.__traceback__
        while tb is not None:
            frame = tb.tb_frame
            if (frame.f_code.co_name == "_exit_tau" and isinstance(
                    frame.f_locals.get("self"), geometry.CurvatureTable)):
                return True
            tb = tb.tb_next
        return False

    def check_run(self):
        failed = []
        ratio = self.cert.constants["alpha"] / self.cert_oracle.constants[
            "alpha"]
        if abs(ratio - 1.0) > 1e-3:
            failed.append(f"table certificate alpha off the ellipse's by"
                          f" {ratio - 1.0:.2e}")
        P = self.ellipse.perimeter
        for idx, label in ((0, "first"), (1, f"step {self.STEPS}")):
            hists = [stats.Histogram.from_samples(
                np.concatenate(self.landings[key][idx]), self.BINS, 0.0, P,
                periodic=True) for key in ("table", "oracle")]
            _, pval = stats.two_sample_chi2(*hists)
            self.pooled[f"p_{label.replace(' ', '_')}"] = pval
            self.pooled["table_samples"] = int(hists[0].total)
            if pval <= self.P_MIN:
                failed.append(f"{label} landing histogram differs from the"
                              f" Ellipse oracle (p {pval:.1e})")
        return failed


def _max_curvature_arc(body, grid=4096) -> float:
    s = np.arange(grid) * (body.perimeter / grid)
    return float(s[np.argmax(body.curvature_at(s))])


WORKLOADS = {w.name: w for w in (DominanceEllipse, ChainCouplingEllipse,
                                 ProcessCouplingDisc, GeneralBodyTable)}
