#!/usr/bin/env python3
"""Benchmark divopt's exact solvers on one workload.

    python3 perfbench/run.py --workload maxmin-planar --seed 0 --seconds 40 --trace 0

Run from the root of a checkout; divopt is imported from ``src/`` there.
One process, one caller, closed loop: each operation starts when the
previous one returns.  A pass runs every operation of the workload once.
Passes repeat while the next one is expected to end within --seconds,
and there are at least MIN_PASSES untraced ones.  Every time is scaled to
a reference CPU speed with the calibration kernel of speed.py, sampled
between operations, because the host's speed drifts by up to 1.7x in
spells longer than a run.  An operation's time is the median over the
untraced passes of its scaled time.  Correctness checks run after the
timed phase.

--trace 0 prints the end-to-end metrics; --trace 1 adds one traced pass
after the first MIN_PASSES and prints the per-layer metrics from it.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A full record,
with the environment and (traced) the span dump, goes to perfbench/out/.
The exit code is 0 only when every operation succeeded and every check
passed; 2 when the checkout holds no divopt sources.
"""

import time

_PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

# numpy reads these when it loads; they affect only this process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from checks import (Failures, fingerprint, load_reference,  # noqa: E402
                    outcome_error, reference_mismatches, write_reference)
import speed  # noqa: E402
from measure import (TAIL_BEYOND, environment, middle,  # noqa: E402
                     peak_rss_mb, tail_percentile)
from spans import TRACED, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, fresh, ordered  # noqa: E402

DEFAULT_SEED = 0  # the seed the committed reference was recorded with
SETUPS = 11  # set-ups per run; setup_s is their median
MIN_PASSES = 2  # untraced passes per run, at least; determinism needs two

END_TO_END = {"setup_s": "s", "wall_s": "s", "solve_s_p50": "s",
              "solve_s_tail": "s", "peak_rss_mb": "MiB"}


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read from its name's suffix."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith(("_frac", "_density")):
        return "ratio"
    return "count"


def import_divopt():
    """A fresh import of divopt from this checkout's sources."""
    for name in [k for k in sys.modules if k == "divopt" or k.startswith("divopt.")]:
        del sys.modules[name]
    dv = importlib.import_module("divopt")
    where = Path(dv.__file__).resolve().parent
    if where != SRC / "divopt":
        raise RuntimeError(f"imported divopt from {where}, not {SRC / 'divopt'}")
    return dv


def set_up(workload, seed: int, traced: bool):
    """Import divopt and generate the workload's instances once.

    Returns (divopt module, instances, seconds, generate self seconds).
    """
    tracer = Tracer() if traced else None
    gc.collect()  # start each timed section from the same collector state
    t0 = time.perf_counter()
    dv = import_divopt()
    if tracer:
        tracer.install(dv, [row for row in TRACED if row[2] == "instances.generate"])
    insts = workload.instances(dv, seed)
    elapsed = time.perf_counter() - t0
    gen_s = 0.0
    if tracer:
        tracer.uninstall()
        gen_s = sum(self_times(tracer.spans).values())
    return dv, insts, elapsed, gen_s


@dataclass
class Pass:
    traced: bool
    insts: dict
    op_ids: list = field(default_factory=list)
    times: list = field(default_factory=list)  # raw seconds per operation
    scaled: list = field(default_factory=list)  # at the reference speed
    kernel: list = field(default_factory=list)  # calibration samples
    segment: list = field(default_factory=list)  # kernel sample before each op
    wall: float = 0.0  # raw seconds in operations
    results: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    fingerprints: dict = field(default_factory=dict)


def run_pass(dv, workload, base_insts: dict, seed: int, tracer) -> Pass:
    insts = {k: fresh(dv, v) for k, v in base_insts.items()}
    ops = ordered(workload.blocks(dv, insts, seed), seed) \
        + workload.tail(dv, insts, seed)
    p = Pass(traced=tracer is not None, insts=insts,
             op_ids=[op.op_id for op in ops])
    ctx = p.results
    if tracer:
        tracer.install(dv)
        first = len(tracer.spans)
    gc.collect()
    # segment k of the pass lies between kernel samples k and k + 1
    p.kernel.append(speed.sample())
    mark = time.perf_counter()
    segment = p.segment
    for op in ops:
        if time.perf_counter() - mark >= speed.CAL_EVERY_S:
            p.kernel.append(speed.sample())
            mark = time.perf_counter()
        segment.append(len(p.kernel) - 1)
        t0 = time.perf_counter()
        try:
            if tracer:
                result = tracer.run_op(op.op_id, lambda: op.call(ctx))
            else:
                result = op.call(ctx)
        except Exception as exc:  # an op that raises is a counted failure
            result = None
            p.errors[op.op_id] = f"{type(exc).__name__}: {exc}"
        p.times.append(time.perf_counter() - t0)
        ctx[op.op_id] = result
    p.kernel.append(speed.sample())
    p.wall = sum(p.times)
    p.scaled = speed.scaled(p.times, p.kernel, segment)
    if tracer:
        tracer.uninstall()
        p.spans = tracer.spans[first:]
    for op_id, result in ctx.items():
        if result is None:
            continue
        why = outcome_error(result)
        if why:
            p.errors[op_id] = why
        p.fingerprints[op_id] = fingerprint(result)
    return p


def run_passes(dv, workload, insts: dict, seed: int, seconds: float,
               trace: bool) -> list[Pass]:
    passes: list[Pass] = []

    def one(tracer) -> None:
        if passes:
            # only the last pass keeps its results, for the oracle checks,
            # so peak memory does not grow with the number of passes
            passes[-1].results, passes[-1].insts = {}, {}
        passes.append(run_pass(dv, workload, insts, seed, tracer))

    start = time.perf_counter()
    for plain in itertools.count(1):
        pass_start = time.perf_counter()
        one(None)
        if trace and plain == MIN_PASSES:
            one(Tracer())
        now = time.perf_counter()
        if plain >= MIN_PASSES and now - start + (now - pass_start) > seconds:
            return passes


def judge(dv, workload, passes: list[Pass], seed: int, reference: dict,
          check_reference: bool) -> Failures:
    """Count failed operations: errors, drift, reference and oracle misses."""
    first, last = passes[0], passes[-1]
    fails = Failures(first.op_ids, len(passes))
    for index, p in enumerate(passes):
        for op_id, why in p.errors.items():
            fails.add(op_id, why, index)
        for op_id, fp in p.fingerprints.items():
            if fp != first.fingerprints.get(op_id, fp):
                fails.add(op_id, f"counts drifted between passes: {fp} vs "
                                 f"{first.fingerprints[op_id]}", index)
    if check_reference:
        for op_id, why in reference_mismatches(
                first.fingerprints, reference, require_all=seed == DEFAULT_SEED):
            fails.add(op_id, why)
    if not last.errors:
        try:
            bad = workload.check(dv, last.insts, last.results, seed)
        except Exception as exc:  # a crashing oracle fails the run
            bad = [("oracle", f"oracle check raised {type(exc).__name__}: {exc}")]
        for op_id, why in bad:
            fails.add(op_id, why)
    for index, p in enumerate(passes):
        if p.traced:
            spans_total = sum(self_times(p.spans).values())
            table = layer_metrics(p.spans)
            ops_total = table["trace.ops_total_s"]
            named = sum(v for k, v in table.items()
                        if k.endswith("_s") and k != "trace.ops_total_s")
            for total in (spans_total, named):
                if abs(total - ops_total) > 1e-9 * max(1.0, ops_total):
                    fails.add("trace", f"self times sum to {total!r}, op spans "
                                       f"to {ops_total!r}", index)
    return fails


def op_times(passes: list[Pass], raw: bool = False) -> list[float]:
    """Each operation's time: the median over untraced passes, scaled to
    the reference speed unless raw."""
    plain = [p.times if raw else p.scaled for p in passes if not p.traced]
    return [middle([times[i] for times in plain])
            for i in range(len(plain[0]))]


def end_to_end(passes: list[Pass], setup_times: list[float]) -> tuple[dict, dict]:
    times = op_times(passes)
    tail, pct, count = tail_percentile(times)
    metrics = {
        "setup_s": middle(setup_times),
        "wall_s": sum(times),
        "solve_s_p50": middle(times),
        "solve_s_tail": tail,
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, {"tail_percentile": pct, "tail_samples": count,
                     "tail_beyond": TAIL_BEYOND}


def per_layer(passes: list[Pass], gen_times: list[float]) -> dict:
    traced = [layer_metrics(p.spans) for p in passes if p.traced]
    metrics = {k: middle([t[k] for t in traced]) for k in traced[0]}
    metrics["instances.generate_s"] = middle(gen_times)
    metrics["trace.overhead_frac"] = (
        middle([sum(p.scaled) for p in passes if p.traced])
        / middle([sum(p.scaled) for p in passes if not p.traced]) - 1.0)
    return metrics


def dump_spans(path: Path, passes: list[Pass]) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for index, p in enumerate(passes):
            own = self_times(p.spans)
            for sid, parent, op, layer, start, end, counts in p.spans:
                fh.write(json.dumps({
                    "pass": index, "id": sid, "parent": parent, "op": op,
                    "layer": layer, "start": start, "end": end,
                    "self": own[sid], "counts": counts}) + "\n")


def print_layer_table(metrics: dict, wall: float) -> None:
    print(f"{'per-layer metric':36s} {'value':>14s} {'unit':6s} share of traced wall")
    for name, value in metrics.items():
        share = f"{value / wall:7.1%}" if unit_of(name) == "s" and wall else ""
        print(f"{name:36s} {value:14.6g} {unit_of(name):6s} {share}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record the default seed's fingerprints as the "
                             "committed reference instead of checking them")
    args = parser.parse_args(argv)
    if not (SRC / "divopt" / "__init__.py").is_file():
        print(f"error: no divopt sources under {SRC}", file=sys.stderr)
        return 2
    if args.write_reference and args.seed != DEFAULT_SEED:
        parser.error(f"--write-reference needs --seed {DEFAULT_SEED}")
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)

    setup_raw, setup_kernel, gen_times = [], [], []
    for k in range(SETUPS):
        setup_kernel.append(speed.sample())
        dv, insts, elapsed, gen_s = set_up(workload, args.seed, trace)
        setup_raw.append(elapsed)
        gen_times.append(gen_s)
        if k == 0:
            cold_setup = time.perf_counter() - _PROCESS_T0
    setup_kernel.append(speed.sample())
    setup_times = speed.scaled(setup_raw, setup_kernel, list(range(SETUPS)))
    passes = run_passes(dv, workload, insts, args.seed, args.seconds, trace)

    ref_path = HERE / "reference" / f"{args.workload}.json"
    fails = judge(dv, workload, passes, args.seed, load_reference(ref_path),
                  check_reference=not args.write_reference)
    if args.write_reference and not fails.count:
        write_reference(ref_path, passes[0].fingerprints)
        print(f"wrote {ref_path.relative_to(ROOT)}")

    env = environment(ROOT)
    e2e, tail_info = end_to_end(passes, setup_times)
    if trace:
        metrics = per_layer(passes, gen_times)
    else:
        metrics = e2e
    units = {k: END_TO_END.get(k) or unit_of(k) for k in metrics}

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes of {len(passes[0].op_ids)} operations "
          f"({sum(not p.traced for p in passes)} untraced), "
          f"1 caller, closed loop")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"cold set-up (process start to first operation): {cold_setup:.4f} s")
    kernel = [k for p in passes for k in p.kernel]
    print(f"times at the reference speed: calibration kernel median "
          f"{middle(kernel):.6f} s over {len(kernel)} samples, reference "
          f"{speed.CAL_REF_S} s; raw wall_s {sum(op_times(passes, raw=True)):.6f} s, "
          f"raw setup_s {middle(setup_raw):.6f} s")
    for name in END_TO_END:
        print(f"  {name:14s} {e2e[name]:12.6f} {END_TO_END[name]}")
    print(f"  {'fail_frac':14s} {fails.frac:12.6f} ratio "
          f"({fails.count} of {fails.attempted} operations)")
    print(f"  solve_s_tail is p{tail_info['tail_percentile']:.2f} of "
          f"{tail_info['tail_samples']} operation times, "
          f"{tail_info['tail_beyond']} beyond it")
    if trace:
        traced_wall = middle([p.wall for p in passes if p.traced])
        print_layer_table(metrics, traced_wall)
    for op_id, why in sorted(fails.reasons.items()):
        print(f"FAIL {op_id}: {why}", file=sys.stderr)

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "passes": len(passes),
              "pass_walls_s": [p.wall for p in passes],
              "pass_traced": [p.traced for p in passes],
              "setup_times_s": setup_times, "setup_raw_s": setup_raw,
              "cold_setup_s": cold_setup, "cal_ref_s": speed.CAL_REF_S,
              "kernel_s": [p.kernel for p in passes],
              "segments": [p.segment for p in passes],
              "end_to_end": e2e, "fail_frac": fails.frac, **tail_info,
              "metrics": metrics, "failures": fails.reasons,
              "op_seconds": {op: [p.times[i] for p in passes]
                             for i, op in enumerate(passes[0].op_ids)},
              "op_scaled_s": {op: [p.scaled[i] for p in passes]
                              for i, op in enumerate(passes[0].op_ids)},
              "op_time_s": dict(zip(passes[0].op_ids, op_times(passes)))}
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n",
                                      encoding="utf-8")
    if trace:
        dump_spans(out / f"{stem}-spans.jsonl", passes)

    correct = fails.count == 0
    print(json.dumps({
        "correct": correct, "attempted": fails.attempted, "failed": fails.count,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
