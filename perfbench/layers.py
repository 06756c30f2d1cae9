"""Which gapflow functions the traced run wraps, and the per-layer metrics
derived from their spans and counters.

Layers are gapflow's module names. The spans are recorded from outside the
program: the benchmark swaps each listed function for a timing wrapper while a
traced iteration runs. ``ensemble._PrehitTable`` and
``arrow._profile_extrema_cached`` are private names; their metrics are
recorded only while those names exist, and reported as absent otherwise.

Units: ``*_s`` and ``*_calls`` are per iteration of the workload's command
sequence, ``*_us``/``*_ms`` per call, ``cli.<command>_s`` per command. The
waste counters (``engine.draws_per_hit``, ``engine.gen_cache_hit_ratio``,
``ensemble.replayed_trajectories``) come from the first traced iteration's
public outputs, so they repeat exactly for a given seed.
"""

from __future__ import annotations

import importlib
import os
import statistics
from time import perf_counter

import numpy as np

from fan_out import fan_out
from tracer import Tracer

PRIVATE_PREHIT = ("gapflow.ensemble", "_PrehitTable")
PRIVATE_PROFILE_CACHE = ("gapflow.arrow", "_profile_extrema_cached")

# (module, function, span name); the layer is the span name up to the dot.
SPANS = (
    ("gapflow.model", "load_scenario_file", "model.load"),
    ("gapflow.model", "parse_scenario", "model.parse"),
    ("gapflow.model", "validate_model", "model.validate"),
    ("gapflow.model", "serialize_scenario", "model.serialize"),
    ("gapflow.dynamics", "assemble_generator", "dynamics.assemble"),
    ("gapflow.dynamics", "step", "dynamics.step"),
    ("gapflow.dynamics", "component_currents", "dynamics.currents"),
    ("gapflow.dynamics", "evolve", "dynamics.evolve"),
    ("gapflow.dynamics", "gap_backflow", "dynamics.backflow"),
    ("gapflow.engine", "run_trajectory", "engine.trajectory"),
    ("gapflow.engine", "trajectory_rng", "engine.rng"),
    ("gapflow.engine", "choose_component", "engine.choose"),
    ("gapflow.engine", "apply_collapse", "engine.collapse"),
    ("gapflow.ensemble", "run_ensemble", "ensemble.run"),
    (*PRIVATE_PREHIT, "ensemble.prehit_table"),
    ("gapflow.ensemble", "deterministic_oracle", "ensemble.oracle"),
    ("gapflow.ensemble", "compare", "ensemble.compare"),
    ("gapflow.arrow", "forward_experiment", "arrow.forward"),
    ("gapflow.arrow", "reverse_experiment", "arrow.reverse"),
    ("gapflow.arrow", "suspension_counterfactual", "arrow.counterfactual"),
    ("gapflow.output", "scenario_hash", "output.scenario_hash"),
    ("gapflow.output", "ensemble_report", "output.ensemble_report"),
    ("gapflow.output", "write_manifest", "output.write_manifest"),
    ("gapflow.output", "write_report_json", "output.write_report_json"),
    ("gapflow.output", "write_events_jsonl", "output.write_events_jsonl"),
    ("gapflow.output", "write_trajectory_csv", "output.write_trajectory_csv"),
    ("gapflow.output", "write_segment_csv", "output.write_segment_csv"),
    ("gapflow.output", "write_histogram_csv", "output.write_histogram_csv"),
    ("gapflow.output", "write_survival_csv", "output.write_survival_csv"),
)
COMMANDS = ("validate", "run", "ensemble", "arrow", "currents")
LAYERS = ("model", "dynamics", "engine", "ensemble", "arrow", "output", "cli")
# Derived from array sizes and public outputs, not timed.
COMPUTED = ("dynamics.matvec_flops", "dynamics.matvec_bytes", "engine.draws_per_hit")
PROBE_DIMS = (64, 512, 2048)
# Complex multiply-add: 6 flops for the product, 2 for the sum.
FLOPS_PER_NONZERO = 8
RK4_MATVECS = 4


def _matvec_cost(gen) -> tuple[float, float]:
    """(flops, bytes) of one ``gen.matvec``, computed from nnz or dim^2."""
    vectors = 2 * 16 * gen.dim
    if gen.dense is not None:
        return FLOPS_PER_NONZERO * gen.dim ** 2, 16 * gen.dim ** 2 + vectors
    m = gen.matrix
    index_bytes = m.nnz * (16 + m.indices.itemsize) + m.indptr.nbytes
    return FLOPS_PER_NONZERO * m.nnz, index_bytes + vectors


def _missing(module, attr) -> bool:
    return not hasattr(importlib.import_module(module), attr)


def build_tracer() -> tuple[Tracer, list[str]]:
    """Tracer over SPANS with the hooks that fill its counters; also returns
    the private names that no longer exist."""
    tracer = Tracer()
    c = tracer.counters
    engine = importlib.import_module("gapflow.engine")

    def on_assemble(args, kwargs, gen, parent):
        c["dynamics.dense_generators" if gen.dense is not None
          else "dynamics.csr_generators"] += 1
        if parent == "engine.trajectory":
            c["engine.gen_misses"] += 1

    def on_step(args, kwargs, result, parent):
        flops, nbytes = _matvec_cost(args[1])
        c["dynamics.matvec_flops"] += RK4_MATVECS * flops
        c["dynamics.matvec_bytes"] += RK4_MATVECS * nbytes

    def on_trajectory(args, kwargs, rec, parent):
        c["engine.steps"] += rec.meta["n_steps"]
        c["engine.gen_lookups"] += 1 + len(rec.events)

    def on_ensemble(args, kwargs, stats, parent):
        model, cfg = args[0], args[2]
        grid = engine.step_grid(cfg)
        # The seed engine draws once per step whose end rate is positive, up to
        # and including the hit step; on the star-shaped fixtures used here the
        # rate is positive at every t > 0.
        draws = int(np.searchsorted(grid, stats.hit_times, side="left").sum()) \
            + stats.n_hits + stats.no_collapse * len(grid)
        c["engine.draws"] += draws
        c["engine.hits"] += stats.n_hits
        sources = {g.low for g in model.gaps if g.irreversible}
        c["ensemble.replayed_trajectories"] += int(
            sum(1 for m in stats.hit_components.tolist() if m in sources))

    def on_oracle(args, kwargs, oracle, parent):
        c["ensemble.oracle_steps"] += len(oracle.times) - 1

    def on_write(args, kwargs, result, parent):
        if parent is not None and parent.startswith("output."):
            return
        path = result if isinstance(result, str) else args[0]
        c["output.bytes_written"] += os.path.getsize(path)
        c["output.files_written"] += 1

    hooks = {"dynamics.assemble": on_assemble, "dynamics.step": on_step,
             "engine.trajectory": on_trajectory, "ensemble.run": on_ensemble,
             "ensemble.oracle": on_oracle}
    absent = []
    for module, attr, name in SPANS:
        if _missing(module, attr):
            absent.append(f"{module}.{attr}")
            continue
        hook = hooks.get(name, on_write if name.startswith("output.write_") else None)
        tracer.add(importlib.import_module(module), attr, name, hook)
    if _missing(*PRIVATE_PROFILE_CACHE):
        absent.append(".".join(PRIVATE_PROFILE_CACHE))
    return tracer, absent


def profile_cache_info():
    """(hits, misses) of the arrow profile cache, or None if it is gone."""
    if _missing(*PRIVATE_PROFILE_CACHE):
        return None
    info = getattr(importlib.import_module(PRIVATE_PROFILE_CACHE[0]),
                   PRIVATE_PROFILE_CACHE[1]).cache_info()
    return info.hits, info.misses


def build_sampler() -> Tracer:
    """One outer timer around the sampling calls the CLI and the arrow
    experiments make; nested calls inside ``run_ensemble`` are not patched."""
    sampler = Tracer()
    c = sampler.counters

    def on_ensemble(args, kwargs, stats, parent):
        c["trajectories"] += stats.n

    def on_trajectory(args, kwargs, rec, parent):
        c["trajectories"] += 1

    for module, attr, name, hook in (
            ("gapflow.cli", "run_ensemble", "sample.ensemble", on_ensemble),
            ("gapflow.cli", "run_trajectory", "sample.trajectory", on_trajectory),
            ("gapflow.arrow", "run_trajectory", "sample.trajectory", on_trajectory)):
        sampler.add(importlib.import_module(module), attr, name, hook, everywhere=False)
    return sampler


def _time_per_call(fn, samples=9, min_seconds=0.002) -> float:
    """Median seconds per call over ``samples`` batches of at least min_seconds."""
    reps = 1
    while True:
        t0 = perf_counter()
        for _ in range(reps):
            fn()
        if perf_counter() - t0 >= min_seconds:
            break
        reps *= 2
    per_call = []
    for _ in range(samples):
        t0 = perf_counter()
        for _ in range(reps):
            fn()
        per_call.append((perf_counter() - t0) / reps)
    return statistics.median(per_call)


def matvec_probe(seed: int) -> dict[str, float]:
    """Microseconds per ``dense @ psi`` and ``matrix @ psi`` on fan-out
    generators on both sides of DENSE_DIM_LIMIT."""
    dynamics = importlib.import_module("gapflow.dynamics")
    rules = importlib.import_module("gapflow.rules")
    rng = np.random.default_rng(seed)
    out = {}
    for dim in PROBE_DIMS:
        model = fan_out(dim - 1, seed, 0.01, 1.0)
        gen = dynamics.assemble_generator(model, rules.RuleSet(),
                                          dynamics.GapSemantics.ONE_WAY_FEED)
        dense = gen.dense if gen.dense is not None else gen.matrix.toarray()
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        out[f"dynamics.matvec_dense_us.d{dim}"] = 1e6 * _time_per_call(lambda: dense @ psi)
        out[f"dynamics.matvec_csr_us.d{dim}"] = 1e6 * _time_per_call(lambda: gen.matrix @ psi)
        del dense
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, iterations: int, first: dict, cache_delta,
                  probe: dict, runner_nonzero: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced iterations (see the module docstring)."""
    t, c, n = tracer.totals, tracer.counters, iterations

    def total(name):
        return t[name].total if name in t else 0.0

    def calls(name):
        return t[name].calls if name in t else 0

    def per_iter(value):
        return value / n

    m = {
        "model.load_s": (per_iter(total("model.load")), "s/iter"),
        "model.validate_s": (per_iter(total("model.validate")), "s/iter"),
        "dynamics.assemble_calls": (per_iter(calls("dynamics.assemble")), "calls/iter"),
        "dynamics.assemble_s": (per_iter(total("dynamics.assemble")), "s/iter"),
        "dynamics.step_calls": (per_iter(calls("dynamics.step")), "calls/iter"),
        "dynamics.step_s": (per_iter(total("dynamics.step")), "s/iter"),
        "dynamics.step_us": (1e6 * _ratio(total("dynamics.step"), calls("dynamics.step")),
                             "us"),
        "dynamics.currents_calls": (per_iter(calls("dynamics.currents")), "calls/iter"),
        "dynamics.currents_s": (per_iter(total("dynamics.currents")), "s/iter"),
        "dynamics.currents_us": (1e6 * _ratio(total("dynamics.currents"),
                                              calls("dynamics.currents")), "us"),
        "dynamics.evolve_s": (per_iter(total("dynamics.evolve")), "s/iter"),
        "dynamics.csr_generators": (per_iter(c["dynamics.csr_generators"]), "calls/iter"),
        "dynamics.dense_generators": (per_iter(c["dynamics.dense_generators"]),
                                      "calls/iter"),
        "dynamics.matvec_flops": (_ratio(c["dynamics.matvec_flops"], calls("dynamics.step")),
                                  "flop/step"),
        "dynamics.matvec_bytes": (_ratio(c["dynamics.matvec_bytes"], calls("dynamics.step")),
                                  "B/step"),
        "engine.trajectory_calls": (per_iter(calls("engine.trajectory")), "calls/iter"),
        "engine.trajectory_ms": (1e3 * _ratio(total("engine.trajectory"),
                                              calls("engine.trajectory")), "ms"),
        "engine.steps": (per_iter(c["engine.steps"]), "steps/iter"),
        "engine.rng_calls": (per_iter(calls("engine.rng")), "calls/iter"),
        "engine.rng_s": (per_iter(total("engine.rng")), "s/iter"),
        "engine.choose_calls": (per_iter(calls("engine.choose")), "calls/iter"),
        "engine.choose_s": (per_iter(total("engine.choose")), "s/iter"),
        "engine.collapse_calls": (per_iter(calls("engine.collapse")), "calls/iter"),
        "engine.draws_per_hit": (_ratio(first.get("engine.draws", 0),
                                        first.get("engine.hits", 0)), "draws/hit"),
        "engine.gen_cache_hit_ratio": (
            _ratio(first.get("engine.gen_lookups", 0) - first.get("engine.gen_misses", 0),
                   first.get("engine.gen_lookups", 0)), "ratio"),
        "ensemble.run_s": (per_iter(total("ensemble.run")), "s/iter"),
        "ensemble.run_self_s": (per_iter(t["ensemble.run"].self
                                         if "ensemble.run" in t else 0.0), "s/iter"),
        "ensemble.prehit_table_s": (per_iter(total("ensemble.prehit_table")), "s/iter"),
        "ensemble.replayed_trajectories": (first.get("ensemble.replayed_trajectories", 0),
                                           "count"),
        "ensemble.oracle_s": (per_iter(total("ensemble.oracle")), "s/iter"),
        "ensemble.oracle_steps": (per_iter(c["ensemble.oracle_steps"]), "steps/iter"),
        "ensemble.compare_s": (per_iter(total("ensemble.compare")), "s/iter"),
        "arrow.reverse_ms": (1e3 * _ratio(total("arrow.reverse"), calls("arrow.reverse")),
                             "ms"),
        "arrow.forward_ms": (1e3 * _ratio(total("arrow.forward"), calls("arrow.forward")),
                             "ms"),
        "arrow.profile_cache_hit_ratio": (
            _ratio(cache_delta[0], cache_delta[0] + cache_delta[1]) if cache_delta else 0.0,
            "ratio"),
        "output.write_s": (per_iter(sum(v.self for k, v in t.items()
                                        if k.startswith("output.write_"))), "s/iter"),
        "output.bytes_written": (per_iter(c["output.bytes_written"]), "B/iter"),
        "output.files_written": (per_iter(c["output.files_written"]), "files/iter"),
        "cli.nonzero_exits": (runner_nonzero, "count"),
    }
    for cmd in COMMANDS:
        m[f"cli.{cmd}_s"] = (_ratio(total(f"cli.{cmd}"), calls(f"cli.{cmd}")), "s")
    self_by_layer, errors_by_layer = tracer.by_layer("self"), tracer.by_layer("errors")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (per_iter(self_by_layer.get(layer, 0.0)), "s/iter")
        m[f"{layer}.errors"] = (int(errors_by_layer.get(layer, 0)), "count")
    for name, value in probe.items():
        m[name] = (value, "us")
    return m
