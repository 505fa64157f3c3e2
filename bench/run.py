"""The triality benchmark: cold verify, warm library sweep and cold CLI verbs.

Usage:
  python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the children import ``triality`` from the
checkout's ``src`` and nothing else.  Workloads (NAME ``all`` runs the three
in turn and prints a table):

  verify-cold   each operation is a new interpreter running
                ``verify --suite all --format json``
  library-warm  one interpreter imports once, runs an untimed warm-up pass,
                then each operation is one pass of ``triality.cli.main`` over
                the 70 read-only requests, stdout captured
  cli-cold      each operation is a new interpreter running one short verb;
                operations run in whole cycles over the 12 verbs

Every operation's stdout must hash to the digest in ``expected.json``, with
the expected exit code; ``verify`` must also give the expected verdict per
check.  Once per verify-cold run the ``h-sign`` negative control must fail
exactly check 05, and library-warm parses two mapped bases back and
compares them with the emitted ones.  A mismatch counts as a failed
operation.  The seed shuffles the request order of library-warm and
cli-cold.  At most one child process runs at a time.

``--trace 0`` reports, per operation, wall_s and cpu_s: for a cold
workload the median repetition of each request, averaged over the distinct
requests; for library-warm the median pass, its 70 requests' times summed;
peak_rss_mb (median of the children's own peak RSS) and setup_s (the
median cold ``import triality.cli`` measured inside the children: the
operations' own and 30 import-only probes spread over the run, see
``probe_round``).  Every time is taken at the reference speed: each child
samples the host's speed while it runs, and its times are adjusted by
those samples (see pace.py); the raw times go to the record.  ``--trace 1``
is the traced run: the same for every workload, it drives the verify
pipeline stage by stage in one traced child, times each layer's public
calls in another, and reports per-layer metrics, stage times and the
tracing overhead against two untraced cold verifies.  The last line of
stdout is one JSON object; a fuller record and the spans go to
``.bench_out/``.
"""

import argparse
import json
import os
import platform
import random
import sys
import time

from pace import adjust
from workloads import (CLI_VERBS, LIBRARY_REQUESTS, OUT, SRC, VERIFY,
                       VERIFY_FAULT, bench_child, digest, key, load_expected,
                       median, spawn)

WORKLOADS = ("verify-cold", "library-warm", "cli-cold")
SETUP_PROBES = 30
PROBE_ROUND = 5
FLOOR_PROBES = 5
UNTRACED_VERIFIES = 2


class Tally:
    """Attempted and failed operations, with a message per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def verdict_errors(out, want):
    """Differences between a ``verify`` JSON report and the expected verdict."""
    try:
        report = json.loads(out)
        statuses = {r["check_id"]: r["status"] for r in report["results"]}
        summary = report["summary"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc}"]
    errors = []
    if "statuses" in want and statuses != want["statuses"]:
        errors.append(f"statuses {statuses}")
    if "summary" in want and summary != want["summary"]:
        errors.append(f"summary {summary}")
    if "failing" in want:
        failing = sorted(c for c, s in statuses.items() if s == "fail")
        if failing != want["failing"]:
            errors.append(f"failing {failing}")
    return errors


def gate_cold(child, argv, expected, tally):
    """Check one cold request's exit code, verdict and stdout digest."""
    errors = []
    want = {key(VERIFY): expected["verify"],
            key(VERIFY_FAULT): expected["fault"]}.get(key(argv), {"exit": 0})
    if child.code != want["exit"]:
        errors.append(f"exit {child.code}: {child.err.strip()[-300:]}")
    elif argv[0] == "verify":
        errors += verdict_errors(child.out, want)
    if digest(child.out) != expected["digests"].get(key(argv)):
        errors.append("stdout digest mismatch")
    return tally.check(not errors, f"{key(argv)}: {'; '.join(errors)}")


def cold_request(argv, expected, tally, samples):
    child = bench_child("cold_child.py", *argv)
    gate_cold(child, argv, expected, tally)
    child.out = None  # only its digest was needed; do not hoard outputs
    samples.append((key(argv), child))


def probe_round(setups, size=PROBE_ROUND):
    """Add the import times of ``size`` import-only children to ``setups``.

    The probes run in rounds spread over the run, so that setup_s, their
    median, covers the whole run.
    """
    setups += import_times(bench_child("cold_child.py") for _ in range(size))


def first_probe_round():
    """One untimed import (it may compile bytecode), then a timed round."""
    bench_child("cold_child.py")
    setups = []
    probe_round(setups)
    return setups


def import_times(children):
    """The ``@setup_s`` of each child that got as far as printing it."""
    return [s for s in (c.marker("setup_s") for c in children) if s is not None]


def typical(samples):
    """Mean over distinct requests of each request's median repetition."""
    by_request = {}
    for name, value in samples:
        by_request.setdefault(name, []).append(value)
    return sum(median(v) for v in by_request.values()) / len(by_request)


def at_reference_speed(child):
    """A cold child's (wall_s, cpu_s), adjusted by its own pace samples to
    the reference speed (see pace.py); None if it printed no samples."""
    n, total = child.marker("pace_n"), child.marker("pace_sum")
    if not n:
        return None
    return (adjust(child.wall_s, total, total / n),
            adjust(child.cpu_s, total, total / n))


def summarize(samples, setups):
    """End-to-end metrics from (request key, Child) pairs and import times."""
    rss = [c.marker("peak_rss_mb") for _, c in samples]
    timed = [(k, t) for k, t in ((k, at_reference_speed(c))
                                 for k, c in samples) if t]
    return {"wall_s": typical([(k, t[0]) for k, t in timed]),
            "cpu_s": typical([(k, t[1]) for k, t in timed]),
            "peak_rss_mb": median([r for r in rss if r is not None]),
            "setup_s": median(setups)}


def run_cold(cycle, seconds, expected, tally):
    """Whole cycles over ``cycle`` until ``seconds`` have passed, with a
    probe round after each cycle until SETUP_PROBES imports are timed."""
    setups = first_probe_round()
    samples = []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        for argv in cycle:
            cold_request(argv, expected, tally, samples)
        if len(setups) < SETUP_PROBES:
            probe_round(setups)
    setups += import_times(c for _, c in samples)
    return summarize(samples, setups), {
        "operations": len(samples), "setup_samples_s": setups,
        "samples": [{"request": k, "raw_wall_s": c.wall_s,
                     "raw_cpu_s": c.cpu_s,
                     "wall_s": (at_reference_speed(c) or (None,))[0],
                     "pace_n": c.marker("pace_n"),
                     "pace_sum": c.marker("pace_sum"),
                     "peak_rss_mb": c.marker("peak_rss_mb")}
                    for k, c in samples]}


def run_verify_cold(seed, seconds, expected, tally):
    cold_request(VERIFY_FAULT, expected, tally, [])
    return run_cold([VERIFY], seconds, expected, tally)


def run_cli_cold(seed, seconds, expected, tally):
    order = list(CLI_VERBS)
    random.Random(seed).shuffle(order)
    metrics, info = run_cold(order, seconds, expected, tally)
    info["order"] = [key(argv) for argv in order]
    return metrics, info


def run_library_warm(seed, seconds, expected, tally):
    setups = first_probe_round()
    probe_round(setups, SETUP_PROBES // 2 - PROBE_ROUND)
    order = list(range(len(LIBRARY_REQUESTS)))
    random.Random(seed).shuffle(order)
    child = bench_child("warm_child.py", seconds, ",".join(map(str, order)))
    info = {"order": [key(LIBRARY_REQUESTS[i]) for i in order]}
    if not tally.check(child.code == 0, f"warm child exited {child.code}: "
                       f"{child.err.strip()[-300:]}"):
        return {}, info
    result = json.loads(child.out)
    want = [expected["digests"].get(key(LIBRARY_REQUESTS[i])) for i in order]
    for n, p in enumerate(result["passes"]):
        bad = [info["order"][i] for i, (code, sha) in
               enumerate(zip(p["codes"], p["digests"]))
               if code != 0 or sha != want[i]]
        tally.check(not bad, f"pass {n}: wrong exit code or digest for {bad}")
    for cross in result["cross_paths"]:
        tally.check(cross["ok"], f"cross-path check failed: {cross['check']}")
    passes = result["passes"]
    setups.append(result["setup_s"])
    probe_round(setups, SETUP_PROBES // 2)
    # One operation is one pass: the median pass, its requests' times summed.
    metrics = {name: median([sum(p[name]) for p in passes])
               for name in ("wall_s", "cpu_s")}
    metrics.update(peak_rss_mb=result["peak_rss_mb"], setup_s=median(setups))
    info.update(operations=len(passes), warmup_s=result["warmup_s"],
                setup_samples_s=setups,
                samples=[{"raw_wall_s": sum(p["raw_wall_s"]),
                          "wall_s": sum(p["wall_s"]), "cpu_s": sum(p["cpu_s"])}
                         for p in passes])
    return metrics, info


RUNNERS = {"verify-cold": run_verify_cold, "library-warm": run_library_warm,
           "cli-cold": run_cli_cold}
UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def unit_of(name):
    if name in UNITS:
        return UNITS[name]
    if name.endswith(("_solved", "_total")):
        return "count"
    return name.rsplit("_", 1)[1]


def environment(label):
    floor = min(spawn([sys.executable, "-c", "pass"]).wall_s
                for _ in range(FLOOR_PROBES))
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "loadavg_start": os.getloadavg()[0], "python_floor_s": floor}
    print(f"# {label}: python {env['python']}, nproc {env['nproc']}, "
          f"load average {env['loadavg_start']:.2f}, "
          f"interpreter start {floor:.4f} s", flush=True)
    return env


def finish_environment(env):
    env["loadavg_end"] = os.getloadavg()[0]
    print(f"# load average at end {env['loadavg_end']:.2f}")
    if max(env["loadavg_start"], env["loadavg_end"]) > env["nproc"]:
        print(f"# WARNING: load average above nproc={env['nproc']}; "
              "timings are likely inflated", file=sys.stderr)


def self_times(spans):
    """Each span's duration minus the time its child spans cover."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def traced_run(expected, tally, record):
    """Untraced cold verifies, the traced pipeline, then the layer timings."""
    untraced = []
    for _ in range(UNTRACED_VERIFIES):
        cold_request(VERIFY, expected, tally, untraced)
    # Raw walls, less the pace samples' own time: the traced child has none.
    untraced_wall = median([c.wall_s - c.marker("pace_sum")
                            for _, c in untraced if c.marker("pace_sum")])

    child = bench_child("trace_child.py")
    metrics = {}
    subchecks = None
    if tally.check(child.code == 0, f"trace child exited {child.code}: "
                   f"{child.err.strip()[-300:]}"):
        traced = json.loads(child.out)
        tally.check(traced["verify_digest"] == expected["digests"][key(VERIFY)],
                    "traced run_suite report digest mismatch")
        spans = traced["spans"]
        subchecks = traced["subchecks_total"]
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{record['workload']}-seed{record['seed']}.jsonl"
        with open(path, "w") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in spans)
        selfs = self_times(spans)
        root = spans[0]
        total = root["end"] - root["start"]
        stages = [s for s in spans if s["parent"] == root["id"]]
        print(f"# traced total {total:.4f} s (traced child wall "
              f"{child.wall_s:.4f} s); untraced verify wall {untraced_wall:.4f} s")
        for s in stages:
            d = s["end"] - s["start"]
            metrics[f"trace.{s['name']}_s"] = d
            print(f"#   {s['name']:<22} {d:8.4f} s  ({d / total:5.1%}; self "
                  f"{selfs[s['id']]:.4f} s outside its calls)")
        print(f"#   stages sum to {sum(metrics.values()):.4f} s; root self "
              f"time between stages {selfs[root['id']]:.6f} s")
        top = sorted((s for s in spans if s["parent"] not in (None, root["id"])),
                     key=lambda s: -selfs[s["id"]])[:8]
        print("#   heaviest calls (self time): " + ", ".join(
            f"{s['name']} {selfs[s['id']]:.3f} s" for s in top))
        metrics["trace.total_s"] = total
        metrics["trace.overhead_s"] = child.wall_s - untraced_wall
        record["spans_file"] = str(path.relative_to(OUT.parent))

    child = bench_child("layers.py")
    if tally.check(child.code == 0, f"layers child exited {child.code}: "
                   f"{child.err.strip()[-300:]}"):
        layers = json.loads(child.out)
        metrics.update(layers["metrics"])
        # The two counts must repeat exactly: every structure_constants
        # call of a basis solves as many brackets, and the cold run_suite
        # here finds as many sub-checks as the traced one.
        for basis, counts in layers["solve_counts"].items():
            tally.check(len(set(counts)) == 1,
                        f"{basis} brackets solved per call differ: {counts}")
        tally.check(metrics["checks.subchecks_total"] == subchecks,
                    f"sub-checks {metrics['checks.subchecks_total']} "
                    f"here, {subchecks} in the traced run")
    return metrics


def run_workload(args, expected):
    label = f"{args.workload} seed={args.seed} trace={args.trace}"
    env = environment(label)
    tally = Tally()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "environment": env}
    if args.trace:
        metrics = traced_run(expected, tally, record)
        metrics["cli.python_floor_s"] = env["python_floor_s"]
    else:
        metrics, info = RUNNERS[args.workload](args.seed, args.seconds,
                                               expected, tally)
        record.update(info)
        if "order" in info:
            print(f"# seed {args.seed} request order: "
                  + " | ".join(info["order"]))
    finish_environment(env)
    failed = len(tally.failures)
    for msg in tally.failures:
        print(f"# FAIL {msg}", file=sys.stderr)
    share = failed / max(tally.attempted, 1)
    print(f"# {args.workload}: {tally.attempted} attempted, {failed} failed, "
          f"fail_share {share:.4f}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {unit_of(name)}")
    result = {"correct": failed == 0 and bool(metrics),
              "attempted": max(tally.attempted, 1), "failed": failed,
              "metrics": {name: {"value": value, "unit": unit_of(name)}
                          for name, value in metrics.items()}}
    record.update(result, fail_share=share, failures=tally.failures)
    OUT.mkdir(exist_ok=True)
    suffix = "-trace" if args.trace else ""
    with open(OUT / f"{args.workload}-seed{args.seed}{suffix}.json", "w") as fh:
        json.dump(record, fh, indent=2)
    return result, share


def run_all(args, expected):
    """Every workload in turn, then one table of the end-to-end metrics."""
    rows = []
    for name in WORKLOADS:
        args.workload = name
        result, share = run_workload(args, expected)
        rows.append((name, result, share))
    print(f"\n{'workload':<14}{'wall_s':>10}{'cpu_s':>10}{'peak_rss_mb':>13}"
          f"{'setup_s':>10}{'fail_share':>12}")
    print(f"{'':<14}{'(s)':>10}{'(s)':>10}{'(MB)':>13}{'(s)':>10}{'(1)':>12}")
    for name, result, share in rows:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"{name:<14}{m.get('wall_s', float('nan')):>10.4f}"
              f"{m.get('cpu_s', float('nan')):>10.4f}"
              f"{m.get('peak_rss_mb', float('nan')):>13.1f}"
              f"{m.get('setup_s', float('nan')):>10.4f}{share:>12.4f}")
    return {"correct": all(r["correct"] for _, r, _ in rows),
            "attempted": sum(r["attempted"] for _, r, _ in rows),
            "failed": sum(r["failed"] for _, r, _ in rows),
            "metrics": {f"{name}.{k}": v for name, r, _ in rows
                        for k, v in r["metrics"].items()}}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "triality" / "__init__.py").is_file():
        sys.exit(f"run.py: no triality sources under {SRC}; run it from the "
                 "root of a triality checkout")
    expected = load_expected()
    if args.workload == "all":
        result = run_all(args, expected)
    else:
        result, _ = run_workload(args, expected)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
