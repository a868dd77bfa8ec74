"""In-memory span tracer for the benchmark's traced run.

The tracer wraps the public functions and query methods of each package
layer (``cli``, ``geometry``, ``reflection``, ``dynamics``, ``coupling``,
``rates``, ``stats``) from outside the package: it replaces every module
attribute that holds an original with a wrapper, so a caller that imported
a function by name (``cli`` and ``stats`` import ``couple_*`` and
``run_chain_ensemble`` that way) goes through the wrapper too.  ``parallel``
and ``rng`` are not layers and are left alone, and so is ``cli.fmt``, the
per-value CSV formatter, whose cost stays inside ``cli.write_csv``.

Each wrapped call records one span: id, parent id, operation id, name,
start, end and self time (duration minus the time covered by child spans).
Spans stay in memory and are written out once, at the end of the run.
Work counts (points queried, angles drawn, rows written, bounces, coupling
attempts) are read from the arguments and results at the same boundaries.

Spans recorded during set-up carry operation id -1.  ``geometry.build_s``
and the ``rates`` metrics sum set-up and operation spans, since body and
certificate construction happen in both; every other metric sums the
operations only.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

from convexbilliards import geometry, reflection
from convexbilliards.errors import BilliardError

LAYERS = ("cli", "geometry", "reflection", "dynamics", "coupling", "rates",
          "stats")
GEOMETRY_QUERIES = ("position_at", "tangent_at", "normal_at", "point_at",
                    "exit_ray", "arc_of_point")
REFLECTION_METHODS = ("sample", "density")
SKIP = {"cli.fmt", "cli.main"}


def _size(x) -> int:
    return int(np.size(x))


def _geometry_points(fn, args, kwargs, result):
    # array queries count their arc coordinates; point queries count one
    if fn.__name__ in ("position_at", "tangent_at", "normal_at"):
        return {"points": _size(args[1] if len(args) > 1 else kwargs["s"])}
    return {"points": 1}


def _sample_draws(fn, args, kwargs, result):
    return {"draws": _size(result)}


def _density_points(fn, args, kwargs, result):
    return {"points": _size(args[1] if len(args) > 1 else kwargs["theta"])}


def _ensemble_bounces(fn, args, kwargs, result):
    steps, replicas = np.shape(result)
    return {"bounces": (steps - 1) * replicas}


def _tv_curve_samples(fn, args, kwargs, result):
    a = inspect.signature(fn).bind(*args, **kwargs).arguments
    return {"samples_binned": 2 * a["replicas"] * (a["n_max"] + 1)}


def _chains_counts(fn, args, kwargs, result):
    cert = inspect.signature(fn).bind(*args, **kwargs).arguments["cert"]
    return {"attempts": result.attempts, "successes": result.successes,
            "certified": cert.constants["alpha"]}


def _process_counts(fn, args, kwargs, result):
    cert = inspect.signature(fn).bind(*args, **kwargs).arguments["cert"]
    return {"stage1_attempts": int(result.stage1_attempts.sum()),
            "stage1_successes": int(result.stage1_successes.sum()),
            "stage2_attempts": int(result.stage2_attempts.sum()),
            "stage2_successes": int(result.stage2_successes.sum()),
            "certified": cert.constants["inner"]}


_COUNTERS = {
    "stats.empirical_tv_curve": _tv_curve_samples,
    "coupling.couple_chains_batch": _chains_counts,
    "coupling.couple_process_disc_batch": _process_counts,
    "dynamics.run_chain_ensemble": _ensemble_bounces,
}


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op_id = -1
        self._stack: list[list] = []   # [span id, accumulated child time]
        self._next_id = 0
        self._patches: list[tuple] = []   # (owner, attribute, original)
        # per span name: work counts of the operations (set-up excluded)
        self.counts = defaultdict(lambda: defaultdict(float))
        self._by_original: dict[int, tuple] = {}   # id -> (original, wrapper)
        self._methods: list[tuple] = []   # (class, name, original, wrapper)
        self._build_wrappers()

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name, fn, counter=None, rows=False):
        tracer = self
        counts = self.counts

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            if rows:
                args = (args[0], args[1], list(args[2]))
                if tracer.op_id >= 0:
                    counts[name]["rows"] += len(args[2])
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if tracer.op_id >= 0:
                    counts[name]["raised." + _error_kind(exc)] += 1
                raise
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                dur = t1 - t0
                if tracer._stack:
                    tracer._stack[-1][1] += dur
                tracer.spans.append((span_id, parent, tracer.op_id, name, t0,
                                     t1, dur - frame[1]))
            if counter is not None and tracer.op_id >= 0:
                for key, val in counter(fn, args, kwargs, result).items():
                    counts[name][key] += val
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _build_wrappers(self):
        for layer in LAYERS:
            for mod in _layer_modules(layer):
                for attr, fn in vars(mod).items():
                    if (attr.startswith("_") or not inspect.isfunction(fn)
                            or fn.__module__ != mod.__name__):
                        continue
                    name = f"{layer}.{attr}"
                    if name in SKIP or id(fn) in self._by_original:
                        continue
                    wrapper = self._wrap(name, fn, _COUNTERS.get(name),
                                         rows=(name == "cli.write_csv"))
                    self._by_original[id(fn)] = (fn, wrapper)
        for cls in (geometry.ConvexBody, geometry.Disc, geometry.Ellipse,
                    geometry.CurvatureTable):
            for meth in GEOMETRY_QUERIES:
                if meth in vars(cls):
                    self._add_method(cls, meth,
                                     f"geometry.{cls.__name__}.{meth}",
                                     _geometry_points)
            if "__init__" in vars(cls):
                self._add_method(cls, "__init__",
                                 f"geometry.build.{cls.__name__}", None)
        for meth, counter in zip(REFLECTION_METHODS,
                                 (_sample_draws, _density_points)):
            self._add_method(reflection.ReflectionLaw, meth,
                             f"reflection.ReflectionLaw.{meth}", counter)

    def _add_method(self, cls, meth, name, counter):
        fn = vars(cls)[meth]
        self._methods.append((cls, meth, fn,
                              self._wrap(name, fn, counter)))

    # -- install / remove -----------------------------------------------------

    def install(self):
        """Point every package-level reference to a wrapped original at its
        wrapper, and wrap the query methods on their classes."""
        for mod in _package_modules():
            for attr, val in list(vars(mod).items()):
                hit = self._by_original.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, val))
        for cls, meth, fn, wrapper in self._methods:
            setattr(cls, meth, wrapper)
            self._patches.append((cls, meth, fn))

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def write(self, path):
        """Write every span as CSV: id, parent, op, name, start, end, self."""
        with open(path, "w") as fh:
            fh.write("span,parent,op,name,start_s,end_s,self_s\n")
            for s in self.spans:
                fh.write(f"{s[0]},{s[1]},{s[2]},{s[3]},{s[4]:.9f},"
                         f"{s[5]:.9f},{s[6]:.9f}\n")

    def summary(self, ops_only: bool) -> dict:
        """Per span name: calls, total (inclusive) and self seconds."""
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for s in self.spans:
            if ops_only and s[2] < 0:
                continue
            rec = out[s[3]]
            rec["calls"] += 1
            rec["total_s"] += s[5] - s[4]
            rec["self_s"] += s[6]
        return out

    def layer_metrics(self) -> dict:
        """The per-layer metrics named in BENCHMARK.json (values only)."""
        agg = self.summary(ops_only=True)
        agg_all = self.summary(ops_only=False)
        cnt = self.counts

        def pick(pred, field, table=agg):
            return sum(v[field] for k, v in table.items() if pred(k))

        def per(a, b):
            return a / b if b > 0 else 0.0

        m = {}
        m["cli.self_s"] = pick(lambda k: k.startswith("cli."), "self_s")
        m["cli.write_csv.self_s"] = agg["cli.write_csv"]["self_s"]
        m["cli.write_csv.rows"] = cnt["cli.write_csv"]["rows"]
        m["cli.write_csv.rows_per_s"] = per(m["cli.write_csv.rows"],
                                            agg["cli.write_csv"]["total_s"])

        m["geometry.build_s"] = pick(
            lambda k: k.startswith("geometry.build."), "total_s", agg_all)
        # method spans are named geometry.<Class>.<query>
        queries = [k for k in agg if k.startswith("geometry.")
                   and k.count(".") == 2
                   and k.split(".")[2] in GEOMETRY_QUERIES]
        m["geometry.calls"] = sum(agg[k]["calls"] for k in queries)
        m["geometry.points"] = sum(cnt[k]["points"] for k in queries)
        m["geometry.self_s"] = sum(agg[k]["self_s"] for k in queries)
        m["geometry.points_per_s"] = per(m["geometry.points"],
                                         m["geometry.self_s"])
        exits = [k for k in queries if k.endswith(".exit_ray")]
        m["geometry.exit_ray.calls"] = sum(agg[k]["calls"] for k in exits)
        m["geometry.exit_ray.self_s"] = sum(agg[k]["self_s"] for k in exits)

        smp = "reflection.ReflectionLaw.sample"
        m["reflection.sample.calls"] = agg[smp]["calls"]
        m["reflection.sample.draws"] = cnt[smp]["draws"]
        m["reflection.sample.self_s"] = agg[smp]["self_s"]
        m["reflection.sample.draws_per_call"] = per(cnt[smp]["draws"],
                                                    agg[smp]["calls"])
        den = "reflection.ReflectionLaw.density"
        m["reflection.density.calls"] = agg[den]["calls"]
        m["reflection.density.points"] = cnt[den]["points"]
        m["reflection.density.self_s"] = agg[den]["self_s"]

        ens = "dynamics.run_chain_ensemble"
        m["dynamics.run_chain_ensemble.calls"] = agg[ens]["calls"]
        m["dynamics.run_chain_ensemble.bounces"] = cnt[ens]["bounces"]
        m["dynamics.run_chain_ensemble.self_s"] = agg[ens]["self_s"]
        m["dynamics.run_chain_ensemble.bounces_per_s"] = per(
            cnt[ens]["bounces"], agg[ens]["total_s"])
        raised = {k[len("raised."):]: v for k, v in cnt[ens].items()
                  if k.startswith("raised.")}
        m["dynamics.failed_ops"] = sum(raised.values())
        for kind in ("ValueError", "BilliardError", "other"):
            m[f"dynamics.failed_ops.{kind}"] = raised.get(kind, 0)

        cc = "coupling.couple_chains_batch"
        m["coupling.chains_batch.self_s"] = agg[cc]["self_s"]
        att, suc = cnt[cc]["attempts"], cnt[cc]["successes"]
        m["coupling.chains_batch.attempts"] = att
        m["coupling.chains_batch.successes"] = suc
        m["coupling.chains_batch.success_ratio"] = per(suc, att)
        m["coupling.chains_batch.observed_over_certified"] = per(
            per(suc, att), _mean_certified(cnt[cc], agg[cc]["calls"]))

        cp = "coupling.couple_process_disc_batch"
        m["coupling.process_disc.self_s"] = agg[cp]["self_s"]
        for stage in ("stage1", "stage2"):
            a = cnt[cp][f"{stage}_attempts"]
            s = cnt[cp][f"{stage}_successes"]
            m[f"coupling.process_disc.{stage}_attempts"] = a
            m[f"coupling.process_disc.{stage}_successes"] = s
            m[f"coupling.process_disc.{stage}_ratio"] = per(s, a)
        m["coupling.process_disc.observed_over_certified"] = per(
            m["coupling.process_disc.stage1_ratio"],
            _mean_certified(cnt[cp], agg[cp]["calls"]))

        m["rates.calls"] = pick(lambda k: k.startswith("rates."), "calls",
                                agg_all)
        m["rates.self_s"] = pick(lambda k: k.startswith("rates."), "self_s",
                                 agg_all)

        m["stats.self_s"] = pick(lambda k: k.startswith("stats."), "self_s")
        m["stats.samples_binned"] = cnt["stats.empirical_tv_curve"][
            "samples_binned"]
        m["stats.samples_per_s"] = per(m["stats.samples_binned"],
                                       m["stats.self_s"])
        m["trace.spans"] = len(self.spans)
        return m


def _mean_certified(counts, calls):
    # every call of one workload carries the same certificate
    return counts["certified"] / calls if calls else 0.0


def _error_kind(exc) -> str:
    if type(exc) is ValueError:
        return "ValueError"
    return "BilliardError" if isinstance(exc, BilliardError) else "other"


def _layer_modules(layer):
    if layer == "coupling":
        names = [n for n in sorted(sys.modules)
                 if n.startswith("convexbilliards.coupling.")]
        return [importlib.import_module(n) for n in names]
    return [importlib.import_module(f"convexbilliards.{layer}")]


def _package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "convexbilliards"
                                  or n.startswith("convexbilliards."))]

