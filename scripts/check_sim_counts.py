#!/usr/bin/env python3
"""Zero-noise semantic gate over the repository benchmark.

    python3 scripts/check_sim_counts.py

For every seed in scripts/sim_counts.json, runs a short traced
design_loop (`perfbench/run.py --workload design_loop --seed <s>
--seconds 2 --trace 1`) and compares its seed-determined simulated
counts — PIL cycles per step, ARQ retries and timeouts, CAN frames,
arbitration losses, hop retries and worst delivery — exactly against
the golden values. These counts are a pure function of the seed, so any
difference is a change of simulated behaviour, never noise. Exits
non-zero on the first mismatch or a failed run.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "scripts" / "sim_counts.json"


def counts(seed):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "design_loop",
           "--seed", str(seed), "--seconds", "2", "--trace", "1"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"check_sim_counts: seed {seed}: the benchmark exited {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"check_sim_counts: seed {seed}: {result['failed']} failed operations")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    golden = json.loads(GOLDEN.read_text())
    bad = 0
    for seed, want in golden.items():
        got = counts(int(seed))
        for name, value in want.items():
            if got.get(name) != value:
                print(f"check_sim_counts: seed {seed}: {name} = {got.get(name)}, golden {value}",
                      file=sys.stderr)
                bad += 1
    if bad:
        sys.exit(f"check_sim_counts: {bad} simulated counts differ from {GOLDEN.name}")
    print(f"check_sim_counts: {sum(map(len, golden.values()))} counts over seeds "
          f"{', '.join(golden)} equal the golden values")


if __name__ == "__main__":
    main()
