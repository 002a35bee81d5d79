#!/usr/bin/env python3
"""End-to-end smoke of the live introspection plane (DESIGN.md §15).

Phase 0 — a numeric flag or --explain field whose value is not a finite
number at or above its minimum and in range (inf, nan, negative, junk, a
zero window, a byte budget past 2^64) is a usage error: the CLI exits 2
before running anything.

Phase 1 — replay the Fig. 10 scenario with the HTTP plane on and assert
every endpoint answers with a schema-valid body while windows close:
/metrics (validated by check_prom_format, carrying the collector, online
and obs stages), /version, /readyz, /windows, and /explain?top=3&json=1
with live provenance.

Phase 2 — rerun with --max-retained 2 so backpressure drops batches, and
poll /healthz through the storm: it must answer 503 ("unhealthy") while
drops are landing and recover to 200 ("ok") once the replay drains. The
windows are short, so both phases poll rather than sleep at fixed points.

Usage: endpoint_smoke.py <path-to-microscope_cli>
"""

import json
import re
import subprocess
import sys
import time
import urllib.error
import urllib.request

CLI = sys.argv[1] if len(sys.argv) > 1 else "./build/examples/microscope_cli"
CHECKER = __file__.rsplit("/", 1)[0] + "/check_prom_format.py"


def fail(msg: str) -> None:
    print(f"endpoint_smoke: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def start_cli(extra_args, linger_ms=15000):
    """Launch the CLI with the plane on an ephemeral port; return
    (process, port) once the stderr banner names the port."""
    proc = subprocess.Popen(
        [CLI, "--follow", "--http", "127.0.0.1:0",
         "--http-linger", str(linger_ms), *extra_args],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    deadline = time.time() + 30
    banner = ""
    while time.time() < deadline:
        line = proc.stderr.readline()
        if not line:
            break
        banner = line.strip()
        m = re.search(r"http://[0-9.]+:(\d+)", banner)
        if m:
            return proc, int(m.group(1))
    proc.kill()
    fail(f"no introspection banner from CLI (last stderr: {banner!r})")


def get(port, path, want_status=200, retries=50):
    """GET with retries (the server races the first windows closing);
    returns the body. Non-matching statuses retry, then fail."""
    last = None
    for _ in range(retries):
        try:
            with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}{path}", timeout=5) as resp:
                if resp.status == want_status:
                    return resp.read().decode()
                last = resp.status
        except urllib.error.HTTPError as e:
            if e.code == want_status:
                return e.read().decode()
            last = e.code
        except OSError as e:
            last = str(e)
        time.sleep(0.1)
    fail(f"GET {path}: wanted {want_status}, last saw {last}")


def get_status(port, path):
    """One GET, returning just the status code (no retries)."""
    try:
        with urllib.request.urlopen(
                f"http://127.0.0.1:{port}{path}", timeout=5) as resp:
            return resp.status
    except urllib.error.HTTPError as e:
        return e.code
    except OSError:
        return None


def phase0():
    for args in (["--health-lag-ms", "inf,inf"],
                 ["--health-lag-ms", "100,nan"],
                 ["--health-drops", "-1,50"],
                 ["--health-drops", "1,5x"],
                 ["--follow", "--window", "0"],
                 ["--max-retained", "abc"],
                 ["--sample-every", "-1"],
                 ["--pace", "5x"],
                 ["--agg-memory-budget", "nan"],
                 ["--agg-memory-budget", "1e30"],
                 ["--explain", "top=2x"],
                 ["--explain", "victim=abc"]):
        shown = " ".join(args)
        try:
            done = subprocess.run([CLI] + args, capture_output=True,
                                  text=True, timeout=60)
        except subprocess.TimeoutExpired:
            fail(f"{shown} was accepted (the run did not stop)")
        if done.returncode != 2:
            fail(f"{shown}: wanted exit 2, got {done.returncode}")
    print("endpoint_smoke: phase 0 OK (bad numeric flags rejected)")


def phase1():
    proc, port = start_cli(["--interrupt", "nf=nat1,t=60,len=800",
                            "--pace", "5", "--sample-every", "50"])
    try:
        # Wait for the engine to close a window, then hit everything.
        get(port, "/readyz")

        prom = get(port, "/metrics")
        subprocess.run([sys.executable, CHECKER],
                       input=prom.encode(), check=True)
        if "microscope_online_windows_closed_total" not in prom:
            fail("/metrics missing online window counters")
        names = [line.split(" ", 3)[2] for line in prom.splitlines()
                 if line.startswith("# TYPE ")]
        for stage in ("microscope_collector_", "microscope_online_",
                      "microscope_obs_"):
            if not any(n.startswith(stage) for n in names):
                fail(f"/metrics missing the {stage}* stage")

        version = json.loads(get(port, "/version"))
        for key in ("git_hash", "build_type"):
            if key not in version:
                fail(f"/version missing {key!r}")

        windows = json.loads(get(port, "/windows"))
        if windows["published"] < 1 or not windows["windows"]:
            fail(f"/windows published nothing: {windows}")
        for key in ("index", "start_ns", "end_ns", "journeys", "diagnoses"):
            if key not in windows["windows"][0]:
                fail(f"/windows entry missing {key!r}")

        # Fig. 10 injects an interrupt at nat1: a diagnosed window must
        # eventually publish live explain provenance.
        explain = json.loads(get(port, "/explain?top=3&json=1"))
        if not explain.get("explanations"):
            fail(f"/explain has no explanations: {explain}")
        first = explain["explanations"][0]
        for key in ("victim", "found_period"):
            if key not in first:
                fail(f"/explain provenance missing {key!r}: {first}")
        print(f"endpoint_smoke: phase 1 OK on port {port} "
              f"({windows['published']} windows, "
              f"{explain['victims']} victims explained)")
    finally:
        proc.kill()
        proc.wait()


def phase2():
    # Tiny retained-batch budget + paced replay = backpressure drops, which
    # must flip /healthz to 503 and back to 200 once the storm drains.
    proc, port = start_cli(
        ["--pace", "15", "--max-retained", "2", "--sample-every", "80",
         "--health-recover-ticks", "2", "--health-drops", "1,5"],
        linger_ms=20000)
    try:
        saw_unhealthy = False
        recovered = False
        deadline = time.time() + 60
        while time.time() < deadline:
            status = get_status(port, "/healthz")
            if status == 503:
                saw_unhealthy = True
            elif status == 200 and saw_unhealthy:
                recovered = True
                break
            elif status is None:
                break  # server exited (linger elapsed)
            time.sleep(0.05)
        if not saw_unhealthy:
            fail("/healthz never reported 503 despite forced drops")
        if not recovered:
            fail("/healthz never recovered to 200 after the storm")
        body = json.loads(get(port, "/healthz"))
        if body["state"] not in ("ok", "degraded"):
            fail(f"post-recovery state is {body['state']!r}")
        if not any(s["name"] == "drop_rate" and s["flips"] >= 2
                   for s in body["signals"]):
            fail(f"drop_rate signal never flipped: {body['signals']}")
        print("endpoint_smoke: phase 2 OK (healthz 200 -> 503 -> 200)")
    finally:
        proc.kill()
        proc.wait()


if __name__ == "__main__":
    phase0()
    phase1()
    phase2()
    print("endpoint_smoke: all phases OK")
