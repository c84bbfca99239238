"""Benchmark worker: imports quadferm once, then runs CLI jobs on request.

Protocol: one JSON object per line on stdin, one reply per line on stdout.
The first line written is the ready message.  Requests:

    {"op": "env"}                 -> versions, nproc and thread settings
    {"op": "job", "id": k, "argv": [...], "out": path}
        -> {"exit": code, "job_s": s, "sha256": hex, "bytes": b}
    {"op": "calibrate"}           -> {"cal_s": s}
    {"op": "trace_on"}            -> {"missing": [...]}
    {"op": "trace_dump", "path": p} -> {}
    {"op": "rss"}                 -> {"peak_rss_mb": mb}

The runner starts it with BLAS and OpenMP pinned to one thread and with the
checkout's ``src`` on PYTHONPATH.  End of input ends the worker.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import traceback


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "scipy_blas": f"{scipy_blas.get('name')} {scipy_blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _run_job(cli, req: dict) -> dict:
    start = time.perf_counter()
    try:
        code = cli.main(list(req["argv"]))
    except Exception:  # a crash is a failed job, not a dead worker
        traceback.print_exc()
        code = None
    job_s = time.perf_counter() - start
    try:
        with open(req["out"], "rb") as fh:
            body = fh.read()
    except OSError:
        body = b""
    return {"exit": code, "job_s": job_s,
            "sha256": hashlib.sha256(body).hexdigest(), "bytes": len(body)}


def main() -> int:
    protocol = sys.stdout
    sys.stdout = sys.stderr          # nothing but replies on the protocol pipe
    src = os.path.join(os.getcwd(), "src")
    import quadferm
    import quadferm.cli as cli
    if not os.path.abspath(quadferm.__file__).startswith(src + os.sep):
        raise SystemExit(f"quadferm imported from {quadferm.__file__}, not {src}")

    def reply(obj: dict) -> None:
        protocol.write(json.dumps(obj) + "\n")
        protocol.flush()

    reply({"ready": True})
    # Imported only now, so setup_s counts only what `import quadferm` loads.
    from calibration import Calibration
    calibrate = Calibration()
    recorder = None
    for line in sys.stdin:
        req = json.loads(line)
        op = req["op"]
        if op == "env":
            reply(_environment())
        elif op == "job":
            if recorder is not None:
                recorder.job = req["id"]
            reply(_run_job(cli, req))
        elif op == "calibrate":
            reply({"cal_s": calibrate()})
        elif op == "trace_on":
            from spans import Recorder
            recorder = Recorder()
            recorder.install()
            reply({"missing": recorder.missing})
        elif op == "trace_dump":
            recorder.uninstall()
            recorder.dump(req["path"])
            recorder = None
            reply({})
        elif op == "rss":
            kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            reply({"peak_rss_mb": kib / 1024.0})
        else:
            raise SystemExit(f"unknown request {op!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
