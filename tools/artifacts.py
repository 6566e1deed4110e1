"""Write a fixed set of CLI artifacts, to compare two checkouts byte for byte.

Usage: python tools/artifacts.py OUT_DIR

Runs this checkout's CLI (``src/`` on ``PYTHONPATH``), one subprocess per
command, each into ``OUT_DIR/<command>-<config>``:

* ``spectrum`` and ``export-matrix`` on the benchmark's ring6-composites and
  ring8-atoms configs and on both demo configs;
* ``verify --max-n 5`` and ``--max-n 6`` on the benchmark's oracle-verify
  config, generated from the acceptance seed as the benchmark generates it;
* ``verify --max-n 4`` and ``spectrum --max-n 6`` on the ring6 demo config.

The generated configs are written to ``OUT_DIR/configs``.  Timings go to
stderr, which is not kept, so two runs of the same code give outputs that
``diff -r`` finds identical.  Exits 1 if a command fails or ``OUT_DIR``
already exists.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _runs(configs: Path) -> list[tuple[str, list[str]]]:
    demos = ROOT / "demos" / "configs"
    runs = [
        (f"{command}-{config.stem}", [command, "--config", str(config)])
        for config in (
            configs / "ring6-composites.json",
            configs / "ring8-atoms.json",
            demos / "two_site.json",
            demos / "ring6.json",
        )
        for command in ("spectrum", "export-matrix")
    ]
    oracle, ring6 = configs / "oracle-verify.json", demos / "ring6.json"
    for command, config, max_n in (
        ("verify", oracle, 5),
        ("verify", oracle, 6),
        ("verify", ring6, 4),
        ("spectrum", ring6, 6),
    ):
        argv = [command, "--config", str(config), "--max-n", str(max_n)]
        runs.append((f"{command}-max-n-{max_n}-{config.stem}", argv))
    return runs


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        sys.stderr.write(__doc__)
        return 1
    out = Path(argv[0])
    if out.exists():
        sys.stderr.write(f"error: {out} already exists\n")
        return 1
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    configs = out / "configs"
    workloads.generate(workloads.accepted_seed(workloads.ACCEPTANCE_SEED), configs)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for name, args in _runs(configs):
        command = [sys.executable, "-m", "composite_bosons.cli", *args, "--out-dir", str(out / name)]
        done = subprocess.run(command, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            sys.stderr.write(f"error: {name} exited {done.returncode}\n")
            return 1
        print(f"{name}: {len(list((out / name).iterdir()))} files")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
