"""The part of the benchmark that runs inside the built package.

run.py starts this script with PYTHONPATH pointing at the build under
test, in one of three modes, and reads one JSON object from its stdout:

  probe  which backend runs each protocol of a workload (from a short traced
         run), the compiled kernel's import error, and the exact
         pure-vs-compiled tally gate
  trace  one untraced and one traced in-process run of a workload; writes
         the spans and reports per-layer times
  rates  isolated per-module rates, for each available kernel backend
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import statistics
import sys
import time

from tracer import Tracer, exclusive_times, span_dicts, union_length
from workloads import WORKLOADS

#: slots per protocol in the probe's traced run and the trace's warm-up
PROBE_SLOTS = 512


def compiled_kernel():
    """(module, None) when the compiled kernel imports, else (None, reason)."""
    try:
        return importlib.import_module("entmac._kernels._fast"), None
    except ImportError as err:
        return None, f"{type(err).__name__}: {err}"


def run_cli(argv: list[str]) -> tuple[int, str, str, float]:
    """entmac's CLI in-process: (exit status, stdout, stderr, wall seconds)."""
    from entmac.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        status = main(argv)
        wall = time.perf_counter() - t0
    return status, out.getvalue(), err.getvalue(), wall


def traced_run(argv: list[str]) -> tuple[Tracer, int, tuple[int, str, str, float]]:
    """Run the CLI under a tracer; returns it, the root span id and the run."""
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.root("trace.root") as root_id:
            result = run_cli(argv)
    finally:
        tracer.restore()
    return tracer, root_id, result


def _children(spans):
    kids = {}
    for s in spans:
        kids.setdefault(s.parent, []).append(s)
    return kids


def _descendants(span, kids):
    out, todo = [], list(kids.get(span.id, ()))
    while todo:
        s = todo.pop()
        out.append(s)
        todo.extend(kids.get(s.id, ()))
    return out


def _outer_protocols(spans):
    by_id = {s.id: s for s in spans}
    outer = []
    for s in spans:
        if s.role != "protocol":
            continue
        p = by_id.get(s.parent)
        while p is not None and p.role != "protocol":
            p = by_id.get(p.parent)
        if p is None:
            outer.append(s)
    return outer


def effective_backends(spans) -> dict[str, list[str]]:
    """Backends whose tallies ran under each protocol's outermost span."""
    kids = _children(spans)
    found: dict[str, set] = {}
    for proto in _outer_protocols(spans):
        backends = {s.backend for s in _descendants(proto, kids) if s.role == "tally"}
        found.setdefault(proto.layer, set()).update(backends)
    return {k: sorted(v) for k, v in sorted(found.items())}


def kernel_cases(n: int, seed: int) -> list[tuple]:
    """(name, pure call, compiled function name, its args) per tally kernel."""
    from entmac._kernels import pure
    from entmac.hyperdense import CoinPairSource, QubitPairSource

    return [
        ("aloha_m2", lambda: pure.aloha_tally(2, 0.5, n, seed), "aloha_tally", (2, 0.5, n, seed)),
        ("aloha_m8", lambda: pure.aloha_tally(8, 0.125, n, seed), "aloha_tally",
         (8, 0.125, n, seed)),
        ("hd_qubit", lambda: pure.hyperdense_tally(n, seed, QubitPairSource()),
         "hyperdense_tally", (n, seed, "qubit")),
        ("hd_coin", lambda: pure.hyperdense_tally(n, seed, CoinPairSource()),
         "hyperdense_tally", (n, seed, "coin")),
    ]


def parity_gate(fast) -> list[dict]:
    """The tallies of both backends on identical seeds over one whole chunk,
    the size of every production call; they must be equal."""
    from entmac._kernels import CHUNK_SLOTS

    return [{"kernel": name, "pure": call(), "compiled": getattr(fast, fn)(*args)}
            for name, call, fn, args in kernel_cases(CHUNK_SLOTS, 12345)]


def probe(args) -> dict:
    import entmac
    from entmac import _kernels

    fast, reason = compiled_kernel()
    w = WORKLOADS[args.workload]
    tracer, _, (status, _, _, _) = traced_run(w.argv(args.seed, PROBE_SLOTS))
    gate = parity_gate(fast) if fast is not None else []
    return {
        "entmac_file": entmac.__file__,
        "entmac_version": entmac.__version__,
        "backend_name": _kernels.backend_name(),
        "compiled_imported": fast is not None,
        "compiled_import_error": reason,
        "effective_backend": effective_backends(tracer.spans),
        "probe_status": status,
        "parity": gate,
        "parity_ok": all(row["pure"] == row["compiled"] for row in gate),
        "missing_boundaries": tracer.missing,
    }


def layer_metrics(spans, root_id: int) -> dict:
    """Per-layer metrics of one traced run, named as in BENCHMARK.json."""
    share = exclusive_times(spans)
    by_id = {s.id: s for s in spans}
    root = by_id[root_id]
    root_s = root.end - root.start
    protocols = _outer_protocols(spans)
    outer = {p.id for p in protocols}
    # self time per layer, split by the protocol it ran under
    self_s: dict[str, float] = {}
    for s in spans:
        key = "untraced" if s.id == root_id else s.layer
        p = s
        while p is not None and p.id not in outer:
            p = by_id.get(p.parent)
        if p is not None and p.layer != s.layer:
            key += f" [{p.layer}]"
        self_s[key] = self_s.get(key, 0.0) + share[s.id]

    def busy(pred):
        return union_length([(s.start, s.end) for s in spans if pred(s)])

    tallies = [s for s in spans if s.role == "tally"]
    slots = sum(s.slots or 0 for s in tallies)
    kernel_busy = busy(lambda s: s.layer == "kernels")
    kids = _children(spans)
    imbalance = 1.0
    for proto in protocols:
        per_slot = [(s.end - s.start) / s.slots for s in _descendants(proto, kids)
                    if s.role == "tally" and s.slots]
        if per_slot:
            imbalance = max(imbalance, max(per_slot) / statistics.fmean(per_slot))
    proto_wall = sum(s.end - s.start for s in protocols)
    proto_cpu = sum(s.cpu_end - s.cpu_start for s in protocols)
    metrics = {
        "kernels.busy_s": kernel_busy,
        "kernels.calls": len(tallies),
        "kernels.slot_rate": slots / kernel_busy if kernel_busy > 0 else 0.0,
        "kernels.chunk_imbalance": imbalance,
        "kernels.parallelism": proto_cpu / proto_wall if proto_wall > 0 else 0.0,
        "stats.busy_s": busy(lambda s: s.layer == "stats"),
        "campaign.self_s": sum(share[s.id] for s in spans if s.layer == "campaign"),
        "campaign.render_s": busy(lambda s: s.role == "render"),
    }
    # 0 s on a workload that never enters the protocol
    for p in ("superdense", "hyperdense", "aloha"):
        metrics[f"{p}.busy_s"] = busy(lambda s, p=p: s.layer == p)
    return {"metrics": metrics,
            "self_s": dict(sorted(self_s.items(), key=lambda kv: -kv[1])),
            "root_s": root_s, "self_sum_s": sum(self_s.values()), "tally_slots": slots,
            "tally_span_sum_s": sum(s.end - s.start for s in tallies)}


def trace(args) -> dict:
    w = WORKLOADS[args.workload]
    argv = w.argv(args.seed)
    run_cli(w.argv(args.seed, PROBE_SLOTS))  # lazy imports and first calls, untimed
    plain = run_cli(argv)
    tracer, root_id, traced = traced_run(argv)
    leftovers = Tracer.leftovers()
    report = layer_metrics(tracer.spans, root_id)
    report["metrics"]["trace.overhead_s"] = report["root_s"] - plain[3]
    with open(args.spans, "w") as f:
        json.dump({"workload": w.name, "argv": argv, "root": root_id,
                   "spans": span_dicts(tracer.spans)}, f)
    report.update({
        "runs": [list(plain[:3]), list(traced[:3])],
        "untraced_wall_s": plain[3],
        "span_count": len(tracer.spans),
        "leftover_wrappers": leftovers,
        "missing_boundaries": tracer.missing,
        "effective_backend": effective_backends(tracer.spans),
    })
    return report


def _rate(fn, batch: int, budget: float) -> float:
    """Median of batch/seconds over repeated calls of fn() within budget."""
    rates = []
    deadline = time.perf_counter() + budget
    while len(rates) < 3 or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        fn()
        rates.append(batch / (time.perf_counter() - t0))
    return statistics.median(rates)


def rate_cases(seed: int, fast):
    """(metric name, zero-argument call, units of work per call) per rate."""
    from entmac import campaign, qubit, stats, superdense
    from entmac.hyperdense import PartyBits, QubitPairSource, SharedOutcome, run_slot
    from entmac.rng import RandomSource, derive_seed

    rng = RandomSource(seed)
    bits = [rng.next_bit() for _ in range(5 * 4096)]
    floats = [rng.next_float() for _ in range(8192)]
    amps = [tuple(complex(rng.next_float(), rng.next_float()) for _ in range(4))
            for _ in range(256)]
    bell = [qubit.bell_state(qubit.BellIndex(k, l)) for k in (0, 1) for l in (0, 1)]
    applies = [(s, op, t) for s in bell for op in qubit.PAULIS.values()
               for t in qubit.QubitId] * 128
    slot_args = [(PartyBits(bits[5 * i], bits[5 * i + 1]), PartyBits(bits[5 * i + 2],
                  bits[5 * i + 3]), SharedOutcome(bits[5 * i + 4])) for i in range(4096)]
    dibits = [superdense.Dibit(bits[2 * i], bits[2 * i + 1]) for i in range(1024)]
    report = campaign.compare(64, seed)
    qsrc = QubitPairSource()

    def repeat(n, f):
        def call():
            for _ in range(n):
                f()
        return call

    def loop(fn, items):
        return lambda: [fn(*x) for x in items]

    cases = [
        ("rng.u64_rate", repeat(20000, RandomSource(seed).next_u64), 20000),
        ("rng.float_rate", repeat(20000, RandomSource(seed).next_float), 20000),
        ("rng.derive_seed_rate", lambda: [derive_seed(seed, f"chunk:{i}") for i in range(4096)],
         4096),
        ("qubit.state_rate", loop(qubit.TwoQubitState, [(a,) for a in amps] * 16), 4096),
        ("qubit.apply_rate", loop(qubit.apply_single_qubit, applies), len(applies)),
        ("qubit.measure_qubit_rate", loop(lambda s: qubit.measure_qubit(s, qubit.QubitId.A, rng),
                                          [(bell[i % 4],) for i in range(2048)]), 2048),
        ("qubit.measure_bell_rate", loop(lambda s: qubit.measure_bell(s, rng),
                                         [(bell[i % 4],) for i in range(2048)]), 2048),
        ("superdense.roundtrip_rate", loop(lambda d: superdense.roundtrip(d, rng),
                                           [(d,) for d in dibits]), len(dibits)),
        ("hyperdense.qubit_draw_rate", repeat(2048, lambda: qsrc.draw(rng)), 2048),
        ("hyperdense.run_slot_rate", loop(run_slot, slot_args), len(slot_args)),
        ("stats.two_valued_rate", lambda: [stats.RunStats.from_two_valued(4096, k, 0.0, 1.0)
                                           for k in range(4096)], 4096),
        ("stats.aggregate_rate", lambda: stats.aggregate(floats), len(floats)),
        ("campaign.render_text_rate", repeat(256, lambda: report.render("text")), 256),
        ("campaign.render_json_rate", repeat(256, lambda: report.render("json")), 256),
        ("campaign.render_csv_rate", repeat(256, lambda: report.render("csv")), 256),
    ]
    for name, call, _, _ in kernel_cases(2048, seed):
        cases.append((f"kernels.pure.{name}_rate", call, 2048))
    cases.append(("kernels.pure.sd_trial_rate",
                  lambda: superdense.count_successes(2048, RandomSource(seed)), 2048))
    if fast is not None:
        for name, _, fn, args in kernel_cases(1 << 16, seed):
            cases.append((f"kernels.compiled.{name}_rate",
                          lambda fn=getattr(fast, fn), args=args: fn(*args), 1 << 16))
    return cases


def rates(args) -> dict:
    fast, reason = compiled_kernel()
    cases = rate_cases(args.seed, fast)
    budget = args.seconds / len(cases)
    out = {name: _rate(fn, n, budget) for name, fn, n in cases}
    if fast is None:
        absent = {"kernels.compiled.*": f"compiled kernel absent: {reason}"}
    else:
        absent = {"kernels.compiled.sd_trial_rate": "the compiled kernel has no superdense tally"}
    return {"rates": out, "absent": absent}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("mode", choices=("probe", "trace", "rates"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--spans", help="where trace writes its spans")
    args = parser.parse_args()
    result = {"probe": probe, "trace": trace, "rates": rates}[args.mode](args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
