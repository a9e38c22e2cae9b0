"""asrnoise benchmark: one command for every workload, timed from outside.

    python3 perfbench/run.py --workload train --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout.  Each workload runs in a fresh process,
in a closed loop with one caller: it sets up, runs a cold pass, then warm
passes until ``--seconds`` are spent, while a host-speed reference task
(``reference.py``) samples every pass.  Two more fresh processes
only set up, for more samples of the set-up time.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs a fixed schedule twice, untraced and
traced, and prints the per-layer metrics with the tracing overhead.
The last line of standard output is one JSON object.  See README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import reference
import tracer
from child import EXIT_UNTRACEABLE
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"

# fresh processes per timed run that set up: the first also runs the passes
SETUP_SAMPLES = 3
# every process of one run must be done within this many seconds
RUN_BUDGET_S = 170.0

# end-to-end metrics, and what each one is called on each workload
END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("norm_ops_per_s", "ops/s"))
ALIASES = {
    "train": {"norm_ops_per_s": "train_items_per_s (items/s)"},
    "corrupt": {"norm_ops_per_s": "corrupt_sentences_per_s (sentences/s)"},
    "prep": {"norm_ops_per_s": "prep_pairs_per_s, eval included (pairs/s)"},
}


def _sha_file(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _spawn(spec: dict, rundir: Path, tag: str, deadline: float) -> tuple[int, dict]:
    """Run one workload process to completion and read its result file."""
    spec = dict(spec, result=str(rundir / f"{tag}.result.json"), trace_out=str(rundir / f"{tag}.spans.tsv"))
    spec_path = rundir / f"{tag}.spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    # the load is one caller in one thread: keep BLAS from adding threads
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(spec_path)],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return 124, {"fatal": f"{tag} process exceeded the run budget and was killed"}
    result_path = Path(spec["result"])
    if not result_path.is_file():
        return proc.returncode or 1, {"fatal": f"{tag} process exited {proc.returncode} without a result"}
    return proc.returncode, json.loads(result_path.read_text(encoding="utf-8"))


def _checks_and_counts(res: dict) -> tuple[list[dict], int, int]:
    passes = res.get("passes", [])
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return list(res.get("checks", [])), attempted, failed


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """Make the inputs, run the workload's processes, return its report."""
    rundir = WORKDIR / f"{name}-s{seed}-t{int(trace)}-{size}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    report = {"workload": name, "seed": seed, "trace": int(trace), "size": size,
              "commit": _commit(), "source_digest": inputs.source_digest(SRC / "asrnoise"),
              "nproc": len(os.sched_getaffinity(0))}
    try:
        data = inputs.make_inputs(name, seed, size, SRC / "asrnoise", WORKDIR / "cache")
    except Exception as exc:  # the program failed while preparing inputs
        report["fatal"] = f"input preparation failed: {type(exc).__name__}: {exc}"
        return report
    inputs_path = rundir / "inputs.json"
    inputs_path.write_text(json.dumps(data), encoding="utf-8")
    extra = [Path(data["checkpoint"])] if "checkpoint" in data else []
    report["input_digest"] = _sha_file(inputs_path, *extra)

    deadline = time.monotonic() + RUN_BUDGET_S
    spec = {"workload": name, "inputs": str(inputs_path), "src": str(SRC), "workdir": str(rundir),
            "seconds": seconds, "run_id": f"{name}-s{seed}-{os.getpid()}-{time.time_ns()}"}

    if trace:
        code, base = _spawn(dict(spec, mode="fixed", trace=False), rundir, "untraced", deadline)
        if code == 0:
            code, traced = _spawn(dict(spec, mode="fixed", trace=True), rundir, "traced", deadline)
        else:
            traced = base
        if code != 0:
            report["fatal"] = traced.get("fatal", f"exit {code}")
            report["untraceable"] = code == EXIT_UNTRACEABLE
            return report
        checks, attempted, failed = _checks_and_counts(traced)
        base_failed = [c["name"] for c in base["checks"] if not c["ok"]]
        same = traced["output_digest"] == base["output_digest"]
        checks += [
            {"name": "untraced_checks", "ok": not base_failed,
             "detail": f"failed: {', '.join(base_failed)}" if base_failed else "all passed"},
            {"name": "trace_preserves_outputs", "ok": same,
             "detail": "traced and untraced output digests " + ("match" if same else "differ")},
        ]
        seconds_of = lambda res: sum(p["seconds"] for p in res["passes"])  # noqa: E731
        overhead = seconds_of(traced) / seconds_of(base) - 1.0
        metrics = dict(traced["layers"], **{"trace.overhead_pct": 100.0 * overhead})
        main, errors = traced, traced["errors"]
    else:
        code, main = _spawn(dict(spec, mode="timed", trace=False), rundir, "timed", deadline)
        results = [main]
        while code == 0 and len(results) < SETUP_SAMPLES:
            code, res = _spawn(dict(spec, mode="setup", trace=False), rundir, f"setup{len(results)}", deadline)
            results.append(res)
        if code != 0:
            report["fatal"] = results[-1].get("fatal", f"exit {code}")
            return report
        setups = [res["setup_s"] for res in results]
        errors = main["errors"]
        checks, attempted, failed = _checks_and_counts(main)
        warm = [p for p in main["passes"][1:] if not p["failed"]]
        kind = WORKLOADS[name].reference
        nominal = reference.NOMINAL_S[kind]
        metrics = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": main["peak_rss_mb"],
            "norm_ops_per_s": statistics.median(
                p["ops"] / p["seconds"] * statistics.mean(p["reference_s"]) / nominal
                for p in warm
            ) if warm else 0.0,
        }
        # wall-clock figures, reported but not gated: they move with the host
        report["wall"] = {
            "ops_per_s": statistics.median(p["ops"] / p["seconds"] for p in warm) if warm else 0.0,
            "first_pass_s": main["passes"][0]["seconds"],
            "reference": kind,
            "reference_s": statistics.median(r for p in warm for r in p["reference_s"]) if warm else 0.0,
        }
        report.update(setup_samples=setups, pass_seconds=[p["seconds"] for p in main["passes"]],
                      reference_s=[statistics.mean(p["reference_s"]) for p in main["passes"]])

    ok = failed == 0 and all(c["ok"] for c in checks)
    report.update(
        checks=checks, attempted=attempted,
        # a failed output check fails every operation of the run
        failed=failed if failed or ok else attempted,
        correct=ok, metrics=metrics, counts=main["counts"], errors=errors,
        output_digest=main["output_digest"], versions=main["versions"],
    )
    return report


def print_report(report: dict, units: dict[str, str]) -> None:
    name = report["workload"]
    print(f"== perfbench {name}  seed={report['seed']}  trace={report['trace']}  size={report['size']}")
    print(f"   commit {report['commit']}  source {report['source_digest'][:16]}  nproc {report['nproc']}")
    if "fatal" in report:
        print(f"   FAILED: {report['fatal']}")
        return
    versions = report["versions"]
    print(f"   python {versions['python']}  numpy {versions['numpy']}  scipy {versions['scipy']}")
    print(f"   inputs sha256 {report['input_digest']}")
    print(f"   outputs sha256 {report['output_digest']}")
    print("   counts " + "  ".join(f"{k}={v}" for k, v in report["counts"].items()))
    for check in report["checks"]:
        print(f"   check {check['name']}: {'PASS' if check['ok'] else 'FAIL'} ({check['detail']})")
    for error in report["errors"][:5]:
        print(f"   error: {error}")
    print(f"   operations attempted {report['attempted']}  failed {report['failed']}")
    aliases = ALIASES.get(name, {})
    for metric, value in report["metrics"].items():
        alias = f"   = {aliases[metric]}" if metric in aliases else ""
        print(f"   {metric:<36} {value:>14.6g} {units[metric]}{alias}")
    wall = report.get("wall", {})
    if wall:
        print(f"   wall clock, not gated: ops_per_s {wall['ops_per_s']:.6g} ops/s, first_pass_s "
              f"{wall['first_pass_s']:.6g} s" + (" (train_first_epoch_s)" if name == "train" else "")
              + f", {wall['reference']} reference task {wall['reference_s'] * 1e3:.4g} ms"
              f" (nominal {reference.NOMINAL_S[wall['reference']] * 1e3:g})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(inputs.SIZES), default="full",
                        help="tiny is a smoke-test size for the harness tests")
    args = parser.parse_args(argv)
    if not (SRC / "asrnoise" / "__init__.py").is_file():
        print(f"perfbench: no asrnoise package under {SRC}; run from the root of a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    units = dict(END_TO_END) if not args.trace else {n: u for n, u, _ in tracer.metric_spec()}
    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    reports = []
    for name in names:
        report = run_workload(name, args.seed, args.seconds, bool(args.trace), args.size)
        (WORKDIR / f"{name}-s{args.seed}-t{args.trace}-{args.size}" / "report.json").write_text(
            json.dumps(report, indent=1), encoding="utf-8")
        print_report(report, units)
        reports.append(report)

    if any(r.get("untraceable") for r in reports):
        print("perfbench: the traced run lost a span; see the FAILED line above", file=sys.stderr)
        return EXIT_UNTRACEABLE
    if any("fatal" in r for r in reports) and len(reports) == 1:
        print(f"perfbench: {reports[0]['fatal']}", file=sys.stderr)
        return 2
    done = [r for r in reports if "fatal" not in r]
    if len(reports) == 1:
        metrics = {k: {"value": v, "unit": units[k]} for k, v in done[0]["metrics"].items()}
    else:
        metrics = {f"{r['workload']}.{k}": {"value": v, "unit": units[k]}
                   for r in done for k, v in r["metrics"].items()}
    correct = len(done) == len(reports) and all(r["correct"] for r in done)
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, sum(r["attempted"] for r in done)),
        "failed": sum(r["failed"] for r in done) + (len(reports) - len(done)),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
