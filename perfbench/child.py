"""One workload process: cold import and set-up, passes, output checks.

Run as ``python3 perfbench/child.py SPEC.json``; ``run.py`` writes the spec
and reads the result file back.  Modes:

- ``timed``: set up, then run passes until ``seconds`` have passed and at
  least ``MIN_TIMED_PASSES`` passes (one cold, the rest warm) are done.  The
  host-speed reference task (``reference.py``) samples every pass.
- ``fixed``: set up and run exactly ``FIXED_PASSES`` passes, traced or not,
  so that counts repeat exactly.
- ``setup``: set up and stop; another sample of the set-up time.

The set-up clock starts before ``import asrnoise``; everything imported
before it is standard library.
"""
from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from tracer import MissingBindingError, Tracer, layer_metrics
from workloads import FIXED_PASSES, MIN_TIMED_PASSES, WORKLOADS, Check

EXIT_FATAL = 2
EXIT_UNTRACEABLE = 3


def peak_rss_mb() -> float:
    """Peak resident set of this process image.

    ``ru_maxrss`` survives ``exec``, so in a process forked from a large
    parent it reports the parent's size; ``VmHWM`` belongs to this image.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _done(mode: str, passes: int, elapsed: float, seconds: float) -> bool:
    if mode == "fixed":
        return passes >= FIXED_PASSES
    return passes >= MIN_TIMED_PASSES and elapsed >= seconds


def _run_passes(workload, mode: str, seconds: float) -> list[dict]:
    reference = sampler = None
    if mode == "timed":
        import reference

        sampler = reference.Sampler(workload.reference)
    passes = []
    started = time.perf_counter()
    while True:
        with sampler or contextlib.nullcontext():
            t0 = time.perf_counter()
            failed = workload.run_pass(len(passes))
            elapsed = time.perf_counter() - t0
        sampled = {}
        if sampler is not None:
            elapsed -= sampler.spent
            # a pass shorter than the sampling interval gets one sample after it
            sampled = {"reference_s": sampler.samples or [reference.run(workload.reference)]}
        ops = workload.ops_per_pass()
        passes.append({"seconds": elapsed, "ops": ops, "failed": failed, **sampled})
        if failed >= ops:
            break  # nothing came out of this pass, and the next would repeat it
        workload.digest_pass(len(passes) - 1)
        if _done(mode, len(passes), time.perf_counter() - started, seconds):
            break
    return passes


def run(spec: dict) -> tuple[int, dict]:
    inputs = json.loads(Path(spec["inputs"]).read_text(encoding="utf-8"))
    workload = WORKLOADS[spec["workload"]](inputs, spec["workdir"])
    result: dict = {"workload": spec["workload"], "mode": spec["mode"]}
    tracer = None

    started = time.perf_counter()
    sys.path.insert(0, spec["src"])
    try:
        import asrnoise

        if spec["trace"]:
            tracer = Tracer(spec["run_id"])
            tracer.install()
        workload.setup()
    except MissingBindingError as exc:
        result["fatal"] = str(exc)
        return EXIT_UNTRACEABLE, result
    except Exception:  # the set-up carried every operation; report why it failed
        result["fatal"] = traceback.format_exc()
        return EXIT_FATAL, result
    result["setup_s"] = time.perf_counter() - started
    if spec["mode"] == "setup":
        result["peak_rss_mb"] = peak_rss_mb()
        return 0, result

    result["passes"] = _run_passes(workload, spec["mode"], spec["seconds"])
    checks = []
    try:
        workload.finish()
    except Exception as exc:
        checks.append(Check("finish", False, f"{type(exc).__name__}: {exc}"))
    if tracer is not None:
        tracer.uninstall()
    checks += workload.checks()

    import numpy
    import scipy

    result.update(
        peak_rss_mb=peak_rss_mb(),
        checks=[c.as_dict() for c in checks],
        errors=workload.errors[:20],
        counts=workload.counts(),
        output_digest=workload.output_digest(),
        versions={"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__},
        asrnoise_file=asrnoise.__file__,
    )
    if tracer is not None:
        tracer.write(spec["trace_out"])
        fired = {span[0] for span in tracer.spans}
        silent = [name for name in workload.spans if name not in fired]
        if silent:
            result["fatal"] = (
                f"traced spans never fired on workload {spec['workload']}: {', '.join(silent)}; "
                "their bindings exist but the workload no longer calls them"
            )
            return EXIT_UNTRACEABLE, result
        result["layers"] = layer_metrics(tracer, overhead_pct=0.0)
    return 0, result


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    code, result = run(spec)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
