#!/usr/bin/env python3
"""Self-test of the benchmark in its tiny mode (--tiny: q=5..9, small sizes).

    python3 perfbench/selftest.py --binary .bench_build/perfbench/perfbench \
        --benchmark-json BENCHMARK.json

Registered as `perfbench_selftest` in perfbench/CMakeLists.txt (run `ctest`
in the benchmark's build directory). Checks, for every workload named in
BENCHMARK.json:
  * `--trace 0` prints every end_to_end metric and `--trace 1` every
    per_layer metric, each with the unit BENCHMARK.json gives, both as a
    `metric` line and in the final JSON result line;
  * the result line has exactly correct/attempted/failed/metrics and reports
    a correct run;
  * `--inject` (one deliberately corrupted gated quantity) makes the
    correctness gate fire: exit code nonzero, correct=false, failed >= 1;
  * the simulated-statistics digest is identical across --threads values;
and that run.py refuses to produce a result without the library sources.
"""
import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(binary, out_dir, *args):
    cmd = [binary, *args, "--tiny", "--seconds", "1", "--out-dir", out_dir]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, lines, result, done.stderr


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--binary", required=True)
    ap.add_argument("--benchmark-json", required=True)
    args = ap.parse_args()
    spec = json.loads(Path(args.benchmark_json).read_text())
    errors = []

    def expect(ok, what):
        if not ok:
            errors.append(what)

    with tempfile.TemporaryDirectory() as out_dir:
        digests = {}
        for wl in spec["workloads"]:
            name = wl["name"]
            for trace, wanted in (("0", spec["end_to_end"]),
                                  ("1", spec["per_layer"])):
                code, lines, result, err = run(args.binary, out_dir,
                                               "--workload", name, "--seed",
                                               "7", "--trace", trace)
                tag = f"{name} --trace {trace}"
                expect(code == 0, f"{tag}: exit {code}: {err.strip()}")
                if result is None:
                    errors.append(f"{tag}: no result line")
                    continue
                expect(set(result) == RESULT_KEYS,
                       f"{tag}: result keys {sorted(result)}")
                expect(result.get("correct") is True, f"{tag}: not correct")
                expect(result.get("attempted", 0) >= 1 and
                       result.get("failed") == 0,
                       f"{tag}: attempted/failed {result.get('attempted')}"
                       f"/{result.get('failed')}")
                metrics = result.get("metrics", {})
                expect(set(metrics) == {m["name"] for m in wanted},
                       f"{tag}: metric names differ from BENCHMARK.json: "
                       f"{sorted(set(metrics) ^ {m['name'] for m in wanted})}")
                printed = {}
                for line in lines:
                    parts = line.split()
                    if len(parts) == 4 and parts[0] == "metric":
                        printed[parts[1]] = parts[2]
                    if len(parts) == 3 and parts[0] == "digest":
                        digests[name] = parts[2]
                for m in wanted:
                    got = metrics.get(m["name"], {})
                    expect(got.get("unit") == m["unit"],
                           f"{tag}: {m['name']} unit {got.get('unit')!r} "
                           f"!= {m['unit']!r}")
                    expect(isinstance(got.get("value"), (int, float)),
                           f"{tag}: {m['name']} value {got.get('value')!r}")
                    expect(printed.get(m["name"]) == m["unit"],
                           f"{tag}: {m['name']} not printed with its unit")

            code, _, result, _ = run(args.binary, out_dir, "--workload", name,
                                     "--seed", "7", "--trace", "0", "--inject")
            expect(code != 0, f"{name} --inject: exit code 0")
            expect(result is not None and result["correct"] is False and
                   result["failed"] >= 1,
                   f"{name} --inject: gate did not fire: {result}")

            _, lines, _, _ = run(args.binary, out_dir, "--workload", name,
                                 "--seed", "7", "--trace", "0", "--threads",
                                 "2")
            other = [l.split()[2] for l in lines if l.startswith("digest ")]
            expect(other == [digests.get(name)],
                   f"{name}: digest differs across --threads: "
                   f"{digests.get(name)} vs {other}")

    # run.py in a tree holding only BENCHMARK.json and perfbench/ must fail
    # without printing a result.
    here = Path(__file__).resolve().parent
    with tempfile.TemporaryDirectory() as bare:
        shutil.copytree(here, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(args.benchmark_json, Path(bare) / "BENCHMARK.json")
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "bulk_quiet",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
        expect(done.returncode != 0, "run.py without sources exited 0")
        expect('"correct"' not in done.stdout,
               "run.py without sources printed a result")

    for e in errors:
        print("FAIL:", e)
    print(f"perfbench selftest: {len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
