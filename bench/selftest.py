"""Self-test of the benchmark itself.

Usage: python3 bench/selftest.py      (from the root of a checkout; ~2 min)

1. BENCHMARK.json and metrics.json name the same workloads and per-layer
   metrics.
2. A tiny run of each workload is correct and prints every end-to-end
   metric with its unit; one traced run prints every per-layer metric.
3. A deliberately wrong expected digest, in a copy of the checkout,
   drives fail_share above 0.
4. In a directory that holds only BENCHMARK.json and bench/, the benchmark
   exits non-zero without printing a result.
Exits 1 and lists the problems if any check fails.
"""

import json
import shutil
import subprocess
import sys

from workloads import BENCH, OUT, ROOT, load_expected

problems = []


def run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def result_of(args, proc, lines):
    if proc.returncode != 0 or not lines:
        problems.append(f"{args}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return None
    return json.loads(lines[-1])


def scratch_checkout(name, with_src):
    """A copy of BENCHMARK.json and bench/ under .bench_out/NAME, with the
    checkout's src linked in if ``with_src``."""
    root = OUT / name
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", root)
    shutil.copytree(BENCH, root / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        (root / "src").symlink_to(ROOT / "src", target_is_directory=True)
    return root


def expect_metrics(args, result, wanted):
    got = result["metrics"]
    for m in wanted:
        entry = got.get(m["name"])
        if entry is None or entry["unit"] != m["unit"]:
            problems.append(f"{args}: {m['name']} missing or wrong unit: {entry}")
    if set(got) != {m["name"] for m in wanted}:
        problems.append(f"{args}: unexpected metrics "
                        f"{sorted(set(got) - {m['name'] for m in wanted})}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    doc = json.loads((BENCH / "metrics.json").read_text())
    if set(doc["workloads"]) != {w["name"] for w in spec["workloads"]}:
        problems.append("metrics.json and BENCHMARK.json workloads differ")
    if set(doc["per_layer"]) != {m["name"] for m in spec["per_layer"]}:
        problems.append("metrics.json and BENCHMARK.json per-layer metrics differ")

    for w in spec["workloads"]:
        args = ["--workload", w["name"], "--seed", "1", "--seconds", "0.1",
                "--trace", "0"]
        result = result_of(args, *run(*args))
        if result:
            expect_metrics(args, result, spec["end_to_end"])
            if not result["correct"] or result["failed"]:
                problems.append(f"{args}: not correct: {result}")

    args = ["--workload", "verify-cold", "--seed", "1", "--trace", "1"]
    result = result_of(args, *run(*args))
    if result:
        expect_metrics(args, result, spec["per_layer"])
        if not result["correct"]:
            problems.append(f"{args}: not correct")

    wrong = scratch_checkout("wrong", with_src=True)
    expected = load_expected()
    expected["digests"]["su3"] = "0" * 64
    (wrong / "bench" / "expected.json").write_text(json.dumps(expected))
    args = ["--workload", "cli-cold", "--seed", "1", "--seconds", "0.1"]
    proc, lines = run(*args, cwd=wrong)
    shutil.rmtree(wrong)
    result = result_of(args, proc, lines)
    if result and (result["correct"] or result["failed"] < 1
                   or "fail_share 0.0000" in proc.stdout):
        problems.append(f"wrong digest was not caught: {result}")

    bare = scratch_checkout("bare", with_src=False)
    proc, _ = run("--workload", "cli-cold", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append(f"a directory without sources did not fail: {proc.stdout}")

    for p in problems:
        print(f"FAIL {p}")
    print("selftest: " + ("FAILED" if problems else "ok"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
