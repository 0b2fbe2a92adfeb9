#!/usr/bin/env python3
"""`nvpcli serve --metrics-json` writes the daemon's run manifest on drain.

Starts a daemon on an ephemeral port with --metrics-json, sends it one
remote analyze and a shutdown, and checks that the manifest exists once the
daemon has exited and that it counts the daemon's own solve in the
markov.solver.* backend counters.

Usage: serve_manifest_test.py <path to nvpcli>
"""

import json
import os
import re
import subprocess
import sys
import tempfile


def main() -> int:
    nvpcli = sys.argv[1]
    env = {k: v for k, v in os.environ.items() if not k.startswith("NVP_")}
    with tempfile.TemporaryDirectory() as tmp:
        manifest_path = os.path.join(tmp, "m.json")
        daemon = subprocess.Popen(
            [nvpcli, "serve", "--port", "0", "--metrics-json", manifest_path],
            stderr=subprocess.PIPE, text=True, env=env)
        try:
            line = daemon.stderr.readline()
            match = re.search(r"listening on (\S+:\d+)", line)
            if match is None:
                print(f"FAIL: no listening line from the daemon: {line!r}")
                return 1
            remote = match.group(1)
            subprocess.run(
                [nvpcli, "analyze", "--paper", "6v", "--remote", remote],
                check=True, env=env, stdout=subprocess.DEVNULL, timeout=60)
            subprocess.run([nvpcli, "shutdown", "--remote", remote],
                           check=True, env=env, stdout=subprocess.DEVNULL,
                           timeout=60)
            status = daemon.wait(timeout=60)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()
        if status != 0:
            print(f"FAIL: daemon exited with status {status}")
            return 1
        if not os.path.exists(manifest_path):
            print("FAIL: the daemon wrote no manifest")
            return 1
        with open(manifest_path, encoding="utf-8") as f:
            manifest = json.load(f)
    counters = manifest.get("metrics", {}).get("counters", {})
    solves = sum(counters.get(f"markov.solver.{backend}_solves", 0)
                 for backend in ("dense", "sparse", "mfree"))
    if solves < 1:
        print(f"FAIL: no backend solve counted in the manifest: {counters}")
        return 1
    if not manifest.get("command", "").startswith("serve"):
        print(f"FAIL: manifest command is {manifest.get('command')!r}")
        return 1
    print(f"OK: manifest written after drain, {solves} backend solve(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
