#!/usr/bin/env python3
"""Stage-attributed benchmark runner for the elastic-circuits workspace.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {mc_sweep,mc_deep,faults,converge}
        --seed N --seconds S --trace {0,1} [--threads T]

Builds the `perfbench` package (its own Cargo workspace, depending on the
repository's crates by path) into `$CARGO_TARGET_DIR` (default
`.bench_build`), runs one workload, adds the checks against committed data
and the run manifest, and prints as its last line one JSON object with
`correct`, `attempted`, `failed` and `metrics` (end-to-end metrics with
`--trace 0`, per-layer metrics with `--trace 1`). See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mc_sweep", "mc_deep", "faults", "converge")
# The seed the workloads were tuned on, and one never used while choosing
# systems or sizes (see README.md, "Held-out seed").
DEFAULT_SEED = 1
HELD_OUT_SEED = 90001
# Every run must finish within 180 s; the first run in a checkout may
# spend up to 900 s building.
BUILD_TIMEOUT = 840
RUN_TIMEOUT = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_checked(cmd, timeout, **kw):
    """Runs `cmd` to completion (killing and reaping it on timeout)."""
    with subprocess.Popen(cmd, **kw) as p:
        try:
            out, _ = p.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()
            raise
        return p.returncode, out


def build(env):
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    code, _ = run_checked(cmd, BUILD_TIMEOUT, cwd=ROOT, env=env, stdout=sys.stderr)
    if code != 0:
        log(f"build failed (exit {code})")
        sys.exit(1)
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")


def load_json(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def command_output(cmd):
    try:
        code, out = run_checked(cmd, 30, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        return out.decode().strip() if code == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def source_digest():
    """SHA-256 over the sources the benchmark builds (the checkout need not
    be a git repository, so the git revision may be unknown)."""
    h = hashlib.sha256()
    tops = ["Cargo.toml", "Cargo.lock", "crates", "perfbench/src", "perfbench/Cargo.toml"]
    for top in tops:
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else []
        for d, dirs, files in os.walk(base):
            dirs[:] = sorted(x for x in dirs if x != "target")
            paths += [os.path.join(d, f) for f in sorted(files)]
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def manifest(doc, args):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rev = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        rev = command_output(["git", "rev-parse", "HEAD"])
    return {
        "cpu_model": cpu,
        "machine": platform.machine(),
        "available_parallelism": doc["available_parallelism"],
        "worker_threads": doc["threads"],
        "git_revision": rev,
        "source_sha256": source_digest(),
        "rustc": command_output(["rustc", "-V"]),
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "systems": doc["systems"],
    }


def check(name, ok, detail=""):
    return {"name": name, "ok": bool(ok), "detail": detail}


def committed_checks(doc, args):
    """Checks against data committed to the repository."""
    out = []
    table = load_json(os.path.join(HERE, "expected", "digests.json")) or {}
    per = table.get(args.workload, {})
    want = per.get("*", per.get(str(args.seed)))
    if want is not None:
        out.append(check("digest_committed", doc["digest"] == want, f"{doc['digest']} vs committed {want}"))
    attach = doc.get("attach", {})
    if args.workload == "converge":
        want = load_json(os.path.join(HERE, "expected", "verdicts.json"))
        got = attach.get("verdicts")
        out.append(check("verdicts_expected", want is not None and got == want, "verdict list vs expected/verdicts.json"))
    if args.workload == "faults":
        out += campaign_checks(attach)
    return out


def campaign_checks(attach):
    """Per-class statistics against BENCH_pr7.json / BENCH_pr9.json when
    the workload's options match the committed campaign's."""
    out = []
    opts = attach.get("options", {})
    pr7 = load_json(os.path.join(ROOT, "BENCH_pr7.json"))
    keys7 = ("topologies", "cycles", "lanes", "window_len", "recovery_tail", "seed")
    if pr7 and all(pr7.get(k) == opts.get(k) for k in keys7):
        got = [json.loads(s)["classes"][0] for s in attach.get("fault_campaign", [])]
        out.append(check("bench_pr7_classes", got == pr7["classes"], "per-class recovery statistics vs BENCH_pr7.json"))
    pr9 = load_json(os.path.join(ROOT, "BENCH_pr9.json"))
    keys9 = ("topologies", "cycles", "lanes", "period", "intensities", "recovery_tail", "seed")
    if pr9 and all(pr9.get(k) == opts.get(k) for k in keys9) and attach.get("stabilization_campaign"):
        got = json.loads(attach["stabilization_campaign"])
        named = [m for m in pr9["mc"] if not m["system"].startswith("topology_")]
        ok = got["classes"] == pr9["classes"] and got["mc"] == named
        out.append(check("bench_pr9_classes", ok, "per-class stabilization statistics and named verdicts vs BENCH_pr9.json"))
    return out


def layer_split(doc, workload):
    """Whether the workload keeps its intended heavy layer (traced runs)."""
    m = {k: v["value"] for k, v in doc["metrics"].items()}
    if workload == "mc_sweep":
        return m["verify.stim_share"] > 0.5
    if workload == "mc_deep":
        return m["verify.stim_share"] < 0.5
    if workload == "faults":
        job_layers = ["compile.busy_s", "opt.busy_s", "levelize.busy_s", "verify.stim_busy_s",
                      "wide.busy_s", "protocol.busy_s", "fault.busy_s", "network.busy_s",
                      "bench.reduce_busy_s"]
        return max(job_layers, key=lambda k: m[k]) == "compile.busy_s"
    busy = [v for k, v in m.items() if k.endswith("busy_s")]
    return m["mc.explore_busy_s"] > 0.5 * sum(busy)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int, default=0, help="worker threads (default: min(2, cores))")
    args = ap.parse_args()

    t0 = time.monotonic()
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    exe = build(env)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.threads > 0:
        cmd += ["--threads", str(args.threads)]
    # The build does not count against the run's time limit; the first
    # run in a checkout may take longer because of it.
    try:
        code, out = run_checked(cmd, RUN_TIMEOUT, cwd=ROOT, stdout=subprocess.PIPE)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT} s")
        sys.exit(1)
    if code != 0:
        log(f"{args.workload} failed (exit {code})")
        sys.exit(1)
    doc = json.loads(out.decode().strip().splitlines()[-1])

    checks = doc["checks"] + committed_checks(doc, args)
    committed_failed = sum(1 for c in checks[len(doc["checks"]):] if not c["ok"])
    attempted = doc["attempted"] + len(checks) - len(doc["checks"])
    failed = doc["failed"] + committed_failed
    detail = dict(doc["detail"])
    detail["error_rate"] = failed / attempted
    detail["checks"] = checks
    if args.trace:
        detail["layer_split_ok"] = layer_split(doc, args.workload)
    if args.workload == "converge" and not args.trace:
        detail["verdict_s_unit"] = "s"
        detail["states_per_s_unit"] = "1/s"
    detail["run_py_s"] = time.monotonic() - t0

    man = manifest(doc, args)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": doc["metrics"],
    }
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as f:
        json.dump({"manifest": man, "detail": detail, "result": result}, f, indent=1)
        f.write("\n")
    print(json.dumps({"manifest": man}))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
