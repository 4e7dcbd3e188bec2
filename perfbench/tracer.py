"""Per-module spans for the traced benchmark run, installed from outside the package.

Tracer.install() replaces the public functions and methods that each
rcbandit module exposes to its caller with wrappers that keep, per span
name, a call count, an inclusive total and a self total (inclusive time
minus the time of nested spans). Nothing is kept per call, so memory stays
bounded however many rounds run. Span names are "<module>.<what>"; policy
and estimator spans carry the policy kind of the enclosing call.
"""

from __future__ import annotations

import functools
import time

POLICY_KINDS = ("rcucb", "ucb", "ts", "klrcucb")
MODULES = ("cli", "oracle", "envs", "policies", "estimators", "sim")


class CountingRng:
    """Generator proxy that counts the normal pairs the rejection sampler draws."""

    __slots__ = ("_rng", "_tracer")

    def __init__(self, rng, tracer):
        self._rng = rng
        self._tracer = tracer

    def standard_normal(self, size=None, *args, **kwargs):
        out = self._rng.standard_normal(size, *args, **kwargs)
        self._tracer.counts["envs.normal_pairs"] += out.shape[0]
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.counts = {"envs.draws": 0, "envs.normal_pairs": 0, "oracle.cells": 0}
        self.kind = "none"  # policy kind of the innermost policy call
        self._stack: list[float] = []  # nested-span time of each open span
        self._restore: list[tuple[object, str, object]] = []

    def add(self, name: str, seconds: float) -> None:
        """Record a root-level span measured by the caller."""
        s = self.stats.setdefault(name, [0, 0.0, 0.0])
        s[0] += 1
        s[1] += seconds
        s[2] += seconds

    def span(self, fn, name: str | None = None, name_of=None):
        """Wrap fn; the span name is fixed or computed from the call's args."""
        stack = self._stack
        stats = self.stats
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = name if name_of is None else name_of(args)
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += dur
                s = stats.get(key)
                if s is None:
                    s = stats[key] = [0, 0.0, 0.0]
                s[0] += 1
                s[1] += dur
                s[2] += dur - nested

        return wrapper

    def _patch(self, owner, attr: str, wrapped) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def _patch_function(self, modules, home, attr: str, wrapped) -> None:
        """Replace home.attr in every module that bound the same function."""
        original = getattr(home, attr)
        for mod in modules:
            if getattr(mod, attr, None) is original:
                self._patch(mod, attr, wrapped)

    def install(self) -> None:
        from rcbandit import cli, envs, estimators, oracle, policies, sim

        modules = (cli, envs, estimators, oracle, policies, sim)

        def policy_name(what):
            def name_of(args):
                self.kind = args[0].kind
                return f"policies.{self.kind}.{what}"
            return name_of

        def nu_table_name(args):
            self.counts["oracle.cells"] += args[0].n * args[0].grid.m
            return "oracle.nu_table"

        def cells_name(args):
            # update_by_index(arm0, k, ...) touches k cells; the naive one touches 1
            key = f"estimators.{self.kind}.cells"
            self.counts[key] = self.counts.get(key, 0) + args[2]
            return f"estimators.{self.kind}.update"

        def naive_name(args):
            key = f"estimators.{self.kind}.cells"
            self.counts[key] = self.counts.get(key, 0) + 1
            return f"estimators.{self.kind}.update"

        fn = self.span
        self._patch_function(modules, cli, "load_config",
                             fn(cli.load_config, "cli.load_config"))
        self._patch_function(modules, cli, "main", fn(cli.main, "cli.main"))
        self._patch_function(modules, oracle, "nu_table",
                             fn(oracle.nu_table, name_of=nu_table_name))
        self._patch_function(modules, envs, "sample_episode",
                             fn(envs.sample_episode, "envs.sample_episode"))
        self._patch_function(modules, sim, "run_episode",
                             fn(sim.run_episode, "sim.run_episode"))
        self._patch_function(modules, sim, "run_experiment",
                             fn(sim.run_experiment, "sim.run_experiment"))
        self._patch_function(modules, sim, "concentration_audit",
                             fn(sim.concentration_audit, "sim.concentration_audit"))
        # argmax_pair is also bound in oracle, where the table's optimum uses it;
        # only the policies' calls belong to the per-round cost
        self._patch(policies, "argmax_pair",
                    fn(policies.argmax_pair,
                       name_of=lambda args: f"policies.{self.kind}.argmax"))

        sample = envs.GaussianArm.__dict__["sample"]

        def counted_sample(arm, rng, size):
            self.counts["envs.draws"] += size
            return sample(arm, CountingRng(rng, self), size)

        self._patch(envs.GaussianArm, "sample", fn(counted_sample, "envs.sample"))

        base = policies.Policy
        self._patch(base, "select", fn(base.__dict__["select"], name_of=policy_name("select")))
        self._patch(base, "update", fn(base.__dict__["update"], name_of=policy_name("update")))
        for cls in (policies.RCUCBPolicy, policies.KLRCUCBPolicy,
                    policies.ModifiedUCBPolicy):
            self._patch(cls, "index_matrix",
                        fn(cls.__dict__["index_matrix"], name_of=policy_name("index")))
        for cls in (estimators.CensoredMomentEstimator, estimators.BetaPosterior):
            self._patch(cls, "update_by_index",
                        fn(cls.__dict__["update_by_index"], name_of=cells_name))
        self._patch(estimators.NaiveEstimator, "update_by_index",
                    fn(estimators.NaiveEstimator.__dict__["update_by_index"],
                       name_of=naive_name))

    def span_cost_s(self, calls: int = 50_000) -> float:
        """Mean time one named-by-args span adds to a call, timed on a no-op."""
        def noop(arg):
            return arg

        wrapped = Tracer().span(noop, name_of=lambda args: "noop")
        clock = time.perf_counter
        start = clock()
        for i in range(calls):
            noop(i)
        bare = clock() - start
        start = clock()
        for i in range(calls):
            wrapped(i)
        return max(0.0, (clock() - start - bare) / calls)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- derived per-module metrics ---------------------------------------

    def _get(self, name: str, field: int) -> float:
        s = self.stats.get(name)
        return s[field] if s is not None else 0.0

    def total(self, name: str) -> float:
        return self._get(name, 1)

    def self_time(self, name: str) -> float:
        return self._get(name, 2)

    def calls(self, name: str) -> int:
        return int(self._get(name, 0))

    def module_self_s(self) -> dict[str, float]:
        """Self time per module prefix, plus the import span."""
        out = {m: 0.0 for m in MODULES + ("import",)}
        for name, (_, _, own) in self.stats.items():
            out[name.split(".", 1)[0]] += own
        return out

    def metrics(self) -> dict[str, float]:
        """Every per-module metric; 0 where the module did not run."""
        out = {
            "cli.load_config_s": self.total("cli.load_config"),
            "oracle.nu_table_s": self.total("oracle.nu_table"),
            "oracle.cells": float(self.counts["oracle.cells"]),
            "envs.sample_s": self.self_time("envs.sample_episode")
            + self.self_time("envs.sample"),
            "envs.draws": float(self.counts["envs.draws"]),
            "envs.accept_ratio": (self.counts["envs.draws"]
                                  / self.counts["envs.normal_pairs"]
                                  if self.counts["envs.normal_pairs"] else 0.0),
        }
        all_rounds = 0
        for kind in POLICY_KINDS:
            rounds = self.calls(f"policies.{kind}.select")
            all_rounds += rounds
            per = 1e6 / rounds if rounds else 0.0
            select = self.total(f"policies.{kind}.select")
            argmax = self.total(f"policies.{kind}.argmax")
            # ts has no index matrix: its index is the Beta posterior draw
            index = select - argmax if kind == "ts" else self.total(f"policies.{kind}.index")
            out[f"policies.{kind}.select_us"] = select * per
            out[f"policies.{kind}.index_us"] = index * per
            out[f"policies.{kind}.argmax_us"] = argmax * per
            out[f"policies.{kind}.update_us"] = self.total(f"policies.{kind}.update") * per
            out[f"estimators.{kind}.update_us"] = (
                self.total(f"estimators.{kind}.update") * per)
            out[f"estimators.{kind}.cells_per_round"] = (
                self.counts.get(f"estimators.{kind}.cells", 0) / rounds if rounds else 0.0)
        audits = self.calls("sim.concentration_audit")
        out.update({
            "sim.episode_s": self.total("sim.run_episode"),
            "sim.loop_self_us": (self.self_time("sim.run_episode") * 1e6 / all_rounds
                                 if all_rounds else 0.0),
            "sim.fold_write_s": self.self_time("sim.run_experiment"),
            "sim.audit_point_s": (self.total("sim.concentration_audit") / audits
                                  if audits else 0.0),
            "sim.audit_self_s": self.self_time("sim.concentration_audit"),
        })
        for module, own in self.module_self_s().items():
            out[f"self.{module}_s"] = own
        # the wall-time difference to an untraced run is noisy on a shared
        # machine; spans x the cost of one span is a steadier estimate
        out["trace.overhead_est_s"] = (sum(s[0] for s in self.stats.values())
                                       * self.span_cost_s())
        return out
