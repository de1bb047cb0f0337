#!/usr/bin/env python3
"""fixedlen benchmark launcher.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. Builds the `fixedlen` CLI and the
measuring program (perfbench/perfbench.exe) from source with dune, then
runs one workload in a fresh process, which:

  * times set-up from process start in several child processes of its
    own (for serve-mixed each a whole daemon spawn + warm-up) and
    reports a median as `setup_s`;
  * measures for `--seconds` and checks every output;
  * with `--trace 0` reports the end-to-end metrics of BENCHMARK.json,
    with `--trace 1` the per-layer ones from a separate traced pass.

Prints an environment record, then, as the last line of stdout, one
JSON object: {"correct", "attempted", "failed", "metrics"}. Exits
non-zero without a result when the tree cannot be built or run.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".perfbench-work"
MEASURER = os.path.join("_build", "default", "perfbench", "perfbench.exe")
FIXEDLEN = os.path.join("_build", "default", "bin", "main.exe")
WORKLOADS = ("figure-paper", "serve-mixed")
DEADLINE_S = 170.0


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build():
    """Build the measuring program and the CLI from source (the first run in a
    fresh tree compiles everything)."""
    for path in ("dune-project", os.path.join("bin", "main.ml"), "lib"):
        if not os.path.exists(path):
            fail("%s is missing: run from the root of a fixedlen source tree" % path, 2)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--display", "quiet",
           "./perfbench/perfbench.exe", "./bin/main.exe"]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=700)
    except FileNotFoundError:
        fail("dune is not on PATH")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0:
        fail("build failed (dune exit %d)" % r.returncode)


def run_child(args, timeout):
    """Run the measuring program in its own process group, so a timed-out run takes
    its serve daemon down with it. Returns the parsed last stdout line."""
    p = subprocess.Popen([MEASURER] + args, stdout=subprocess.PIPE, text=True,
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail("perfbench.exe timed out: %s" % " ".join(args))
    finally:
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    if p.returncode != 0 or not lines:
        fail("perfbench.exe failed (exit %d): %s" % (p.returncode, " ".join(args)))
    try:
        return json.loads(lines[-1])
    except ValueError:
        fail("perfbench.exe printed no result: %s" % lines[-1][:200])


def cpu_ticks():
    """Aggregate /proc/stat CPU counters (user ... steal), or None."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def source_identity():
    """The git commit when there is one, plus a digest of the sources
    (a benchmark checkout need not be a git repository)."""
    commit = "unknown"
    if os.path.isdir(".git"):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for d, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(d, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return commit, h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if not os.path.exists("BENCHMARK.json"):
        fail("BENCHMARK.json is missing: run from the root of the source tree", 2)
    bench = load_json("BENCHMARK.json")
    settings = load_json(os.path.join(HERE, "settings.json"))
    build()
    started = time.time()  # the build may take long on a fresh tree
    os.makedirs(WORK_DIR, exist_ok=True)

    nproc = os.cpu_count() or 1
    load_before = os.getloadavg()
    ticks_before = cpu_ticks()
    r = run_child(["--workload", a.workload, "--seed", str(a.seed), "--work-dir", WORK_DIR,
                   "--fixedlen", FIXEDLEN, "--seconds", repr(a.seconds),
                   "--trace", str(a.trace)],
                  DEADLINE_S - (time.time() - started))
    ticks_after = cpu_ticks()
    attempted, failed, notes = r["attempted"], r["failed"], r["notes"]

    digest = r["info"].get("csv_digest")
    want = settings["csv_digests"].get(a.workload)
    if digest is not None and a.seed == settings["recorded_seed"]:
        attempted += 1
        if digest != want:
            failed += 1
            notes.append("CSV digest %s differs from the recorded %s" % (digest, want))

    measured = r["metrics"]
    declared = bench["end_to_end"] if a.trace == 0 else bench["per_layer"]
    metrics, unmeasured = {}, []
    for m in declared:
        v = measured.get(m["name"])
        if v is None:
            if a.trace == 0:
                fail("perfbench.exe did not report %s" % m["name"])
            unmeasured.append(m["name"])
            v = 0.0
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}

    commit, source = source_identity()
    load_after = os.getloadavg()
    env = {
        "workload": a.workload,
        "seed": a.seed,
        "trace": a.trace,
        "nproc": nproc,
        "ocaml_version": r["info"].get("ocaml_version"),
        "git_commit": commit,
        "source_digest": source,
        "fixedlen_jobs": os.environ.get("FIXEDLEN_JOBS", ""),
        "load_before": load_before,
        "load_after": load_after,
        "loaded_at_start": load_before[0] > nproc,
        # Share of CPU time the hypervisor gave to other guests while
        # the measuring process ran.
        "steal_frac": (None if not (ticks_before and ticks_after) else
                       (ticks_after[7] - ticks_before[7])
                       / max(1, sum(ticks_after) - sum(ticks_before))),
        "info": r["info"],
        "other_metrics": {k: v for k, v in measured.items()
                          if k not in metrics},
        "not_measured_on_this_workload": unmeasured,
        "notes": notes,
    }
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
