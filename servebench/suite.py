#!/usr/bin/env python3
"""The serving benchmark: one command that builds the servebench binary, runs
the named workloads and prints every metric as `name value unit`.

  python3 servebench/suite.py [run] [--workload NAME] [--seed S]
      [--seconds N] [--trace 0|1 | --traced] [--repeat N] [--out DIR]
  python3 servebench/suite.py compare BASE_DIR CAND_DIR
  python3 servebench/suite.py smoke

`run` (the default) builds servebench/ into $CARGO_TARGET_DIR (default
.bench_build at the repository root) with CMake, then runs the
`servebench` binary once per workload and repeat. With --trace 0 a run
reports the end-to-end metrics of BENCHMARK.json, with --trace 1 (or
--traced) the per-layer ones. The last stdout line of a run is its
result as one JSON object: correct, attempted, failed, metrics. With
--out DIR each result is also saved there for `compare`.

`compare` applies the bounds of BENCHMARK.json to two directories of
saved untraced results, one row per workload and metric. A metric whose
spread over the BASE runs (interquartile range over median) exceeds its
bound is reported as unresolved, not as unchanged. It exits 1 on any
regression.

`smoke` runs every workload for one second in both passes and checks
every metric name, that no op failed and that outputs were correct.

The environment cannot change a run: CACHEKV_* variables are cleared
for servebench, whose settings are all fixed in its sources.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 42
# A run must end within 180 s; an up-to-date build check takes ~1 s.
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print(f"suite.py: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        die(f"cannot read {path}: {e}")


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build():
    """Configures and builds servebench (both no-ops when up to date);
    returns its path."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    steps = [["cmake", "-S", str(HERE), "-B", str(out),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(out), "-j4", "--target", "servebench"]]
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode:
                f.flush()
                tail = log.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                die(f"build failed: {' '.join(cmd)} (log: {log})")
    return out / "servebench"


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("CACHEKV_")}


def run_once(binary, spec, workload, seed, seconds, trace):
    """Runs one measurement; returns (result dict, servebench exit code)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, env=clean_env(), stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload}: servebench did not finish in time", 1)
    lines = proc.stdout.strip().splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        die(f"{workload}: servebench exited {proc.returncode} without a result",
            1)
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if proc.returncode == 0 and set(raw["metrics"]) != set(units):
        die(f"{workload}: metric names differ from BENCHMARK.json {kind}: "
            f"{sorted(set(raw['metrics']) ^ set(units))}", 1)
    result = {
        "correct": bool(raw["correct"]) and proc.returncode == 0,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {name: {"value": raw["metrics"][name], "unit": units[name]}
                    for name in units if name in raw["metrics"]},
    }
    return result, proc.returncode


def cmd_run(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload in (None, "all") else [args.workload]
    for w in workloads:
        if w not in names:
            die(f"unknown workload {w}; one of {', '.join(names)}")
    trace = 1 if args.traced else args.trace
    seconds = args.seconds or spec["run_seconds"]
    binary = build()
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    status = 0
    for i in range(args.repeat):
        seed = args.seed + i
        for w in workloads:
            result, code = run_once(binary, spec, w, seed, seconds, trace)
            print(f"# workload {w} seed {seed} trace {trace}")
            for name, m in result["metrics"].items():
                print(f"{name} {m['value']} {m['unit']}")
            print(json.dumps(result), flush=True)
            if args.out:
                saved = dict(result, workload=w, seed=seed, trace=trace)
                (Path(args.out) / f"{w}.t{trace}.s{seed}.json").write_text(
                    json.dumps(saved) + "\n")
            if code != 0 or not result["correct"]:
                status = 1
    return status


def quartile_spread(values):
    """(q3 - q1) / median, as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def load_results(directory):
    runs = {}
    for path in sorted(Path(directory).glob("*.t0.s*.json")):
        r = json.loads(path.read_text())
        runs.setdefault(r["workload"], []).append(r)
    return runs


def failed_share(runs):
    """Failed ops over attempted ops; a run that was not correct (wrong
    output or a failed health gate) counts as wholly failed."""
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] if r["correct"] else r["attempted"] for r in runs)
    return failed / attempted if attempted else 1.0


def cmd_compare(args):
    spec = load_spec()
    base, cand = load_results(args.base), load_results(args.cand)
    regressions = 0
    print(f"{'workload':14} {'metric':10} {'base':>12} {'cand':>12} "
          f"{'gain':>8} {'spread':>7} {'bound':>6}  verdict")
    for w in [w["name"] for w in spec["workloads"]]:
        if w not in base or w not in cand:
            print(f"{w:14} (missing runs)")
            continue
        # Any increase in failed ops is a regression.
        bf, cf = failed_share(base[w]), failed_share(cand[w])
        verdict = "REGRESSION" if cf > bf else "within bound"
        regressions += cf > bf
        print(f"{w:14} {'failed':10} {bf:12.4g} {cf:12.4g} {'':>8} {'':>7} "
              f"{0:6.0%}  {verdict}")
        good_b = [r for r in base[w] if r["correct"]]
        good_c = [r for r in cand[w] if r["correct"]]
        if not good_b or not good_c:
            continue
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            b = [r["metrics"][name]["value"] for r in good_b]
            c = [r["metrics"][name]["value"] for r in good_c]
            bm, cm = statistics.median(b), statistics.median(c)
            lower = m["better"] == "lower"
            worse = ((cm - bm) if lower else (bm - cm)) / bm if bm else 0.0
            spread = quartile_spread(b)
            all_better = (max(c) < min(b)) if lower else (min(c) > max(b))
            if worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            elif spread > bound and not all_better:
                verdict = "unresolved"
            elif worse < -bound:
                verdict = "better"
            else:
                verdict = "within bound"
            print(f"{w:14} {name:10} {bm:12.4g} {cm:12.4g} {-worse:+8.1%} "
                  f"{spread:7.1%} {bound:6.0%}  {verdict}")
    return 1 if regressions else 0


def cmd_smoke(_args):
    spec = load_spec()
    binary = build()
    bad = []
    for w in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            result, code = run_once(binary, spec, w, DEFAULT_SEED, 1, trace)
            kind = "per_layer" if trace else "end_to_end"
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in spec[kind]}
            ok = (code == 0 and result["correct"] and result["failed"] == 0
                  and got == want)
            print(f"{w} trace {trace}: {'ok' if ok else 'FAILED'} "
                  f"({result['attempted']} ops, {result['failed']} failed)",
                  flush=True)
            if not ok:
                bad.append(f"{w}/trace{trace}")
    if bad:
        die(f"smoke failed: {', '.join(bad)}", 1)
    return 0


def main():
    argv = sys.argv[1:]
    if not argv or argv[0] not in ("run", "compare", "smoke"):
        argv = ["run"] + argv
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload")
    r.add_argument("--seed", type=int, default=DEFAULT_SEED)
    r.add_argument("--seconds", type=int)
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--traced", action="store_true")
    r.add_argument("--repeat", type=int, default=1)
    r.add_argument("--out")
    c = sub.add_parser("compare")
    c.add_argument("base")
    c.add_argument("cand")
    sub.add_parser("smoke")
    args = p.parse_args(argv)
    handler = {"run": cmd_run, "compare": cmd_compare, "smoke": cmd_smoke}
    sys.exit(handler[args.command](args))


if __name__ == "__main__":
    main()
