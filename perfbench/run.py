"""sketchmap benchmark: three seeded mapping workloads, end to end and per layer.

    python3 perfbench/run.py --workload {lut64,carry14,dsp52} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout.  Each workload runs in a fresh interpreter
(worker.py) with the checkout's ``src`` on PYTHONPATH, single-process, with
the default portfolio: the bundled solver as one subprocess per query.

--trace 0 prints the end-to-end figures: wall_s and cpu_s (median per pass
over the workload), design_s.p50/.p80 (time to verdict per design, pooled
over passes), setup_s (median of several fresh set-ups: import,
architecture load, input generation) and peak_rss_mb.  --trace 1 maps
every design once plain and once traced, prints the per-layer figures of
the traced mappings (see worker.per_layer) and writes their spans to
.perfbench/spans-<workload>-<seed>.jsonl.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  A wrong verdict, a simulation mismatch, a digest
mismatch or a replay disagreement makes correct false and the exit status
non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5            # fresh set-ups per run; setup_s is their median
WORKER_LIMIT = 170.0      # seconds; the whole run must end within 180


def _worker(args: list[str], env: dict) -> tuple[int, list[str]]:
    """Run worker.py in its own session; kill the session if it overruns,
    so no solver subprocess outlives the run."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")] + args, cwd=ROOT, env=env,
        stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_LIMIT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"worker overran {WORKER_LIMIT:.0f}s")
    return proc.returncode, out.splitlines()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("lut64", "carry14", "dsp52"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = ROOT / "src"
    if not (src / "sketchmap" / "__init__.py").is_file():
        print(f"error: no sketchmap sources under {src}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    setups = []
    if not args.trace:
        for _ in range(SETUP_RUNS - 1):
            code, lines = _worker(common + ["--setup-only"], env)
            if code != 0 or not lines:
                print("error: set-up failed", file=sys.stderr)
                return 2
            setups.append(json.loads(lines[-1])["setup_s"])

    code, lines = _worker(common + ["--seconds", str(args.seconds),
                                    "--trace", str(args.trace)], env)
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"error: worker exited {code} without a result",
              file=sys.stderr)
        return code or 2
    metrics = report["metrics"]
    if "setup_s" in metrics:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"passes {report['passes']}  designs {report['attempted']}  "
          f"failed {report['failed']}  "
          f"fail_rate {report['failed'] / report['attempted']:.4f}")
    if "design_samples" in report:
        print(f"design_s samples: {report['design_samples']}")
    if "digest" in report:
        print(f"output digest (sha256): {report['digest']}")
    for name, m in metrics.items():
        print(f"{name:24s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: report[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if report["correct"] and code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
