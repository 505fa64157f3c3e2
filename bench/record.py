"""Record the stdout digest of every benchmark request into expected.json.

Usage: python3 bench/record.py

Run it only on a commit whose outputs are known to be right: it keeps the
hand-written verdicts in expected.json and replaces the ``digests`` table.
Each request runs twice, in processes with different hash seeds, and
recording stops if the two digests differ.
"""

import json
import os
import sys

from workloads import (CLI_VERBS, EXPECTED_PATH, LIBRARY_REQUESTS, VERIFY,
                       VERIFY_FAULT, bench_child, digest, key, load_expected)


def record_once():
    digests = {}
    for argv in [VERIFY, VERIFY_FAULT] + CLI_VERBS:
        child = bench_child("cold_child.py", *argv)
        if child.code not in (0, 1):
            sys.exit(f"{key(argv)} exited {child.code}:\n{child.err}")
        digests[key(argv)] = digest(child.out)
    order = ",".join(str(i) for i in range(len(LIBRARY_REQUESTS)))
    child = bench_child("warm_child.py", 0, order)
    if child.code != 0:
        sys.exit(f"warm_child exited {child.code}:\n{child.err}")
    last = json.loads(child.out)["passes"][-1]
    for argv, code, sha in zip(LIBRARY_REQUESTS, last["codes"], last["digests"]):
        if code != 0:
            sys.exit(f"{key(argv)} exited {code}")
        if digests.setdefault(key(argv), sha) != sha:
            sys.exit(f"{key(argv)}: cold and in-process stdout differ")
    return digests


def main():
    runs = []
    for hash_seed in ("1", "2"):
        os.environ["PYTHONHASHSEED"] = hash_seed
        runs.append(record_once())
    unstable = [k for k in runs[0] if runs[0][k] != runs[1][k]]
    if unstable:
        sys.exit(f"stdout differs across processes: {unstable}")
    expected = load_expected()
    expected["digests"] = runs[0]
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(runs[0])} digests into {EXPECTED_PATH.name}")


if __name__ == "__main__":
    main()
