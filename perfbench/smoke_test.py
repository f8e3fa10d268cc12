#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload on a tiny window.

    python3 perfbench/smoke_test.py

Run from the repository root. For each workload, with tracing off and
on, it checks that the last output line is the result object with
exactly the declared metrics, each with its unit and a finite value,
that the run passed every correctness gate with `fail_ratio` 0, and
that all eight end-to-end metrics appear in the report. It then checks
that a seeded `fleet8_rel` schedule, and the simulated outputs built on
it, reproduce exactly, and that another seed changes them. The
benchmark's Rust unit tests run first.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
E2E_ALL = ["setup_s", "sim_mcps", "peak_rss_mb", "goodput_gbps",
           "rx_lat_p50_us", "rx_lat_p99_us", "drop_ratio", "fail_ratio"]
SIMULATED = ["goodput_gbps", "rx_lat_p50_us", "rx_lat_p99_us"]


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--smoke"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    assert p.returncode == 0, f"{cmd} exited {p.returncode}:\n{p.stdout}\n{p.stderr}"
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = next(json.loads(l)["report"] for l in lines if l.startswith('{"report"'))
    return result, report


def check_metrics(got, declared, where):
    assert set(got) == {m["name"] for m in declared}, f"{where}: metric names differ"
    for m in declared:
        entry = got[m["name"]]
        assert set(entry) == {"value", "unit"}, f"{where}: {m['name']} keys"
        assert entry["unit"] == m["unit"], f"{where}: {m['name']} unit {entry['unit']}"
        v = entry["value"]
        assert isinstance(v, (int, float)) and math.isfinite(v), f"{where}: {m['name']}={v}"


def main():
    manifest = os.path.join(HERE, "Cargo.toml")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    subprocess.run(["cargo", "test", "--release", "--offline", "--quiet",
                    "--manifest-path", manifest], cwd=ROOT, env=env, check=True)

    for w in BENCH["workloads"]:
        name = w["name"]
        for trace, declared in ((0, BENCH["end_to_end"]), (1, BENCH["per_layer"])):
            where = f"{name} trace={trace}"
            result, report = run(name, 1, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
            assert result["correct"] is True and result["failed"] == 0, where
            assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
            check_metrics(result["metrics"], declared, where)
            assert all(g["ok"] for g in report["gates"]), f"{where}: {report['gates']}"
            if trace == 0:
                for m in E2E_ALL:
                    v = report["metrics"][m]["value"]
                    assert math.isfinite(v), f"{where}: {m}={v}"
                assert report["metrics"]["fail_ratio"]["value"] == 0, where
        print(f"ok {name}")

    a = run("fleet8_rel", 7, 0)
    b = run("fleet8_rel", 7, 0)
    c = run("fleet8_rel", 8, 0)
    digest = lambda r: r[1]["info"]["schedule_digest"]
    assert digest(a) == digest(b), "seeded fleet schedule does not reproduce"
    assert digest(a) != digest(c), "fleet schedule ignores the seed"
    for m in SIMULATED:
        assert a[0]["metrics"][m]["value"] == b[0]["metrics"][m]["value"], m
    print("ok fleet8_rel schedule reproduces")


if __name__ == "__main__":
    main()
