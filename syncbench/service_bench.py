"""The service workload: one closed-loop client against a real daemon.

Each segment of a run spawns ``python -m repro.service serve`` (default
workers, fresh cache directory, port 0), times spawn-to-ready-line as
one set-up sample, caches a seeded hot set, then sends a seeded mix
until the segment's time is up: half the requests repeat a hot-set
entry (cache hits through the HTTP front end), half are distinct
requests never sent before (misses through orchestration, worker IPC,
one engine measurement and a cache put).  The daemon closes every
connection after its reply, so the client opens one connection per
request and never has more than one request outstanding.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from common import ROOT, kill_after, pid_alive, proc_hwm_mb, program_env
from tracing import ROOT as ROOT_SPAN, per_op

#: Requests cached during set-up that the hit half repeats.
HOT_SET = 16
#: Every n-th miss is re-measured in-process and must match.
CHECK_EVERY = 20
DTYPES = ("int", "ull", "float", "double")
TIMEOUT_S = 60.0


class RequestSource:
    """Seeded request stream: a hot set plus never-repeated misses."""

    def __init__(self, seed: int) -> None:
        from repro.cpu.presets import cpu_preset
        from repro.service.catalog import CATALOG
        self.rng = random.Random(seed)
        self.substrate = {name: entry.substrate
                          for name, entry in CATALOG.items()}
        self.primitives = sorted(CATALOG)
        self.max_threads = {s: cpu_preset(s).max_threads for s in (1, 2, 3)}
        self.sent: set[str] = set()

    def fresh(self) -> dict:
        """A request no earlier call returned."""
        while True:
            rng = self.rng
            primitive = rng.choice(self.primitives)
            system = rng.randint(1, 3)
            payload = {"primitive": primitive, "system": system,
                       "dtype": rng.choice(DTYPES)}
            if self.substrate[primitive] == "cpu":
                payload["threads"] = rng.randint(
                    2, self.max_threads[system])
            else:
                payload["threads"] = rng.randint(1, 1024)
                payload["blocks"] = rng.randint(1, 64)
            key = json.dumps(payload, sort_keys=True)
            if key not in self.sent:
                self.sent.add(key)
                return payload


class Daemon:
    """One daemon process; started in its own session so every worker
    it forks can be stopped with it."""

    def __init__(self, cache_dir: Path, spans_out: Path | None) -> None:
        args = ["serve", "--port", "0", "--cache-dir", str(cache_dir)]
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro.service", *args]
        else:
            cmd = [sys.executable, str(ROOT / "syncbench" /
                                       "serve_traced.py"),
                   str(spans_out), *args]
        self.worker_pids: list[int] = []
        self.err = tempfile.TemporaryFile("w+")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self.err,
            env=program_env(), cwd=ROOT, text=True,
            start_new_session=True)
        timer = kill_after(self.proc, TIMEOUT_S)
        line = self.proc.stdout.readline()  # blocks until ready
        self.setup_s = time.perf_counter() - start
        timer.cancel()
        if "http://" not in line:
            self.stop()
            self.err.seek(0)
            raise RuntimeError(f"daemon did not start: {line!r} "
                               f"{self.err.read()[-2000:]}")
        self.port = int(line.split("http://", 1)[1].split()[0]
                        .rsplit(":", 1)[1])

    def get(self, path: str) -> str:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=TIMEOUT_S)
        try:
            conn.request("GET", path)
            return conn.getresponse().read().decode()
        finally:
            conn.close()

    def post(self, body: bytes) -> dict | None:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=TIMEOUT_S)
        try:
            conn.request("POST", "/measure", body=body,
                         headers={"Content-Type": "application/json"})
            return json.loads(conn.getresponse().read())
        except (OSError, ValueError):
            return None
        finally:
            conn.close()

    def requests(self) -> float:
        """The daemon's ``service.requests`` counter, from ``/metrics``."""
        for line in self.get("/metrics").splitlines():
            name, _, value = line.rpartition(" ")
            if name == "syncperf_service_requests":
                return float(value)
        return 0.0

    def peak_rss_mb(self) -> float:
        """Peak RSS of the daemon plus each of its workers."""
        health = json.loads(self.get("/healthz"))
        self.worker_pids = [w["pid"] for w in health["workers_detail"]]
        return proc_hwm_mb(self.proc.pid) + sum(
            proc_hwm_mb(pid) for pid in self.worker_pids)

    def stop(self) -> None:
        """SIGINT (clean shutdown), then wait for daemon and workers."""
        if self.proc.poll() is None and not self.worker_pids:
            try:
                health = json.loads(self.get("/healthz"))
                self.worker_pids = [w["pid"]
                                    for w in health["workers_detail"]]
            except (OSError, ValueError):
                pass  # the process-group kill below still covers them
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
        deadline = time.monotonic() + 10
        while any(pid_alive(p) for p in self.worker_pids):
            if time.monotonic() > deadline:
                try:
                    os.killpg(self.proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                break
            time.sleep(0.02)
        self.proc.stdout.close()
        self.err.close()


def setup_sample(cache_dir: Path) -> float:
    """Start a daemon, take its set-up time, stop it."""
    daemon = Daemon(cache_dir, None)
    daemon.stop()
    return daemon.setup_s


def segment(source: RequestSource, seconds: float, run_dir: Path,
            index: int, traced: bool) -> dict:
    """One daemon lifetime: set-up, hot-set fill, timed mix, checks."""
    cache_dir = run_dir / f"cache-{index}"
    spans_out = run_dir / f"spans-{index}.json" if traced else None
    daemon = Daemon(cache_dir, spans_out)
    out = {"setup_s": daemon.setup_s, "failed": 0, "hit_ms": [],
           "miss_ms": [], "checks": []}
    try:
        hot = []
        for _ in range(HOT_SET):
            payload = source.fresh()
            response = daemon.post(json.dumps(payload).encode())
            if not response or response.get("status") != "served":
                raise RuntimeError(f"hot-set fill failed: {response!r}")
            hot.append((payload, response["result"]))
            out["checks"].append((payload, response["result"]))
        before = daemon.requests()
        rng, records, misses = source.rng, [], 0
        start = time.perf_counter()
        stop_at = start + seconds
        while time.perf_counter() < stop_at:
            t0 = time.perf_counter_ns()
            if rng.random() < 0.5:
                payload, expected = hot[rng.randrange(HOT_SET)]
                kind = "hit"
            else:
                payload, expected, kind = source.fresh(), None, "miss"
            body = json.dumps(payload).encode()
            t1 = time.perf_counter_ns()
            response = daemon.post(body)
            t2 = time.perf_counter_ns()
            ok = bool(response) and response.get("status") == "served" \
                and response.get("cache") == kind
            if ok and kind == "hit" and response["result"] != expected:
                ok = False
            if ok and kind == "miss":
                misses += 1
                if misses % CHECK_EVERY == 0:
                    out["checks"].append((payload, response["result"]))
            t3 = time.perf_counter_ns()
            records.append((kind, ok, t0, t1, t2, t3))
        out["mix_s"] = time.perf_counter() - start
        out["requests"] = daemon.requests() - before
        out["rss_mb"] = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    out["op_ms"] = [(r[5] - r[2]) / 1e6 for r in records]
    for kind, ok, _t0, t1, t2, _t3 in records:
        latency = (t2 - t1) / 1e6
        if not ok:
            out["failed"] += 1
            latency = float("inf")  # a failure misses every limit
        out[f"{kind}_ms"].append(latency)
    out["latencies"] = out["hit_ms"] + out["miss_ms"]
    out["attempted"] = len(records)
    if traced:
        dump = json.loads(spans_out.read_text())
        out["trace"] = {"self_ns": _join_spans(records, dump["spans"]),
                        "ops": len(records), "counters": dump["counters"],
                        "calls": dump["calls"]}
    return out


def _join_spans(records: list, spans: list) -> dict[str, int]:
    """Join client spans to the daemon's per-submission spans; returns
    self time per span name over the mix, ns.

    The single closed-loop client makes submission ``HOT_SET + k`` the
    ``k``-th mix request.  Per request: ``op`` (client root) self time =
    client wall minus the HTTP round trip; ``service.http`` = round trip
    minus the daemon's ``submit`` wall; then the daemon-side self times.
    """
    by_op = per_op(spans)
    self_ns: dict[str, int] = {}
    for k, (_kind, _ok, t0, t1, t2, t3) in enumerate(records):
        submit_wall, server = by_op.get(HOT_SET + k, (0, {}))
        parts = {ROOT_SPAN: (t3 - t0) - (t2 - t1),
                 "service.http": (t2 - t1) - submit_wall, **server}
        for name, ns in parts.items():
            self_ns[name] = self_ns.get(name, 0) + ns
    return self_ns


def check_in_process(checks: list) -> int:
    """Re-measure sampled misses in this process; returns mismatches."""
    from repro.service.catalog import MeasureRequest, execute_request
    wrong = 0
    for payload, served in checks:
        local = execute_request(MeasureRequest.from_json(payload))
        if json.loads(json.dumps(local)) != served:
            wrong += 1
    return wrong
