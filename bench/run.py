"""End-to-end and per-layer benchmark of the novelty pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. One run generates the workload's inputs from
the seed, times the set-up in fresh interpreters, then starts one client
process (``worker.py``) that runs passes back to back (a closed loop with
one client) for S seconds. A pass loads both corpora, ranks, renders and
writes the report; on kettle-cli a pass is one whole CLI process. Every pass
is checked against independent oracles (``checks.py``, ``oracle.py``).
Every time it reports is scaled to a nominal machine speed by reference
work timed in the same run (``reference.py``).

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced passes and prints the per-layer metrics
and the tracing overhead, and writes the spans to ``bench/.out/traces/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every pass was correct.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import reference  # noqa: E402
from oracle import GATE_TOLERANCE, gate_count  # noqa: E402

WORKER = BENCH / "worker.py"
PROBE = BENCH / "probe.py"
OUT = BENCH / ".out"

SETUP_REPEATS = 7
IMPORT_REPEATS = 5
SIMILARITY_SAMPLES = 40
CHILD_TIMEOUT_S = 150


def _child_env() -> dict:
    env = dict(os.environ)
    # numpy's BLAS would otherwise start a thread per CPU in every process;
    # the benchmark's load is one client (plus the stub), one thread each.
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def expectations(inputs, seed: int) -> dict:
    """Gate-count bounds and a seeded sample of oracle similarities.

    Each unique action pair is scored by the oracle once.
    """
    oracle = inputs.oracle()
    actions = [[r["constructs"]["action"] for r in side] for side in (inputs.past, inputs.current)]
    action_similarity = {
        (a, b): oracle(a, b) for a in set(actions[0]) for b in set(actions[1])
    }
    gate = gate_count(*actions, lambda a, b: action_similarity[a, b], gen.THRESHOLD)
    gated = [
        (past, current)
        for past in inputs.past
        for current in inputs.current
        if action_similarity[past["constructs"]["action"], current["constructs"]["action"]]
        >= gen.THRESHOLD + GATE_TOLERANCE
    ]
    rng = random.Random(seed)
    samples = []
    for past, current in rng.sample(gated, min(SIMILARITY_SAMPLES, len(gated))):
        shared = [level for level in past["constructs"] if level in current["constructs"]]
        level = rng.choice(shared)
        a, b = past["constructs"][level], current["constructs"][level]
        samples.append([past["id"], current["id"], level, oracle(a, b)])
    return {"gate": list(gate), "samples": samples}


def highest_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples above it."""
    if len(samples) < 20:
        return None
    p = math.floor(100 * (1 - 10 / len(samples)))
    return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def _run_child(script: Path, args: list[str]) -> str:
    done = subprocess.run(
        [sys.executable, str(script), *args],
        env=_child_env(), stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise SystemExit(f"{script.name} {args[0]} exited with {done.returncode}")
    return done.stdout


def _probes(args: list[str], repeats: int) -> dict:
    """Median scaled seconds of ``repeats`` fresh-interpreter probes, by key.

    The reference work is timed before each probe, on the CPU the probe
    runs on; ``scale`` is the factor applied.
    """
    references, probes = [], []
    for _ in range(repeats):
        references += reference.reps()
        probes.append(json.loads(_run_child(PROBE, args)))
    scale = reference.scale(references)
    medians = {key: statistics.median(p[key] for p in probes) * scale for key in probes[0]}
    return {"scale": scale, **medians}


class Stub:
    """The embedding stub in its own single-threaded process."""

    def __enter__(self) -> "Stub":
        self.process = subprocess.Popen(
            [sys.executable, str(BENCH / "stub.py")], stdout=subprocess.PIPE, text=True,
            env=_child_env(),
        )
        self.url = f"http://127.0.0.1:{int(self.process.stdout.readline())}/embed"
        return self

    def __exit__(self, *exc) -> None:
        self.process.terminate()
        self.process.wait(timeout=30)
        self.process.stdout.close()


def measure(args, work: Path) -> tuple[dict, dict, dict]:
    """Generate, set up and run the worker; returns (properties, setup, result)."""
    inputs = gen.generate(args.workload, args.seed, work)
    expect = expectations(inputs, args.seed)
    spec = {
        "workload": args.workload,
        "seed": args.seed,
        "work": str(work),
        "backend": inputs.spec.backend,
        "command": inputs.spec.command,
        "format": inputs.spec.format,
        "past": str(inputs.past_path),
        "current": str(inputs.current_path),
        "vectors": str(inputs.vectors_path) if inputs.vectors_path else None,
        "expect": expect,
        "trace_file": str(
            OUT / "traces" / f"{args.workload}-seed{args.seed}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json.gz"
        ),
    }
    properties = gen.properties(inputs, expect["gate"])
    del inputs
    with Stub() if spec["backend"] == "remote" else contextlib.nullcontext() as stub:
        spec["endpoint"] = stub.url if stub else None
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(spec))
        backend_arg = spec["vectors"] or spec["endpoint"]
        setup = _probes(["setup", spec["backend"], *filter(None, [backend_arg])], SETUP_REPEATS)
        if args.trace:
            setup["import_s"] = _probes(["import-cli"], IMPORT_REPEATS)["total_s"]
        _run_child(WORKER, ["passes", str(spec_path), str(args.seconds), str(int(args.trace))])
    result = json.loads((work / "result.json").read_text())
    return properties, setup, result


def report(args, properties: dict, setup: dict, result: dict, declared: dict) -> dict:
    """Print the human-readable lines; return the result object for the JSON line.

    The metrics and their units are the ones BENCHMARK.json declares: the
    end-to-end ones untraced, the per-layer ones traced.
    """
    passes = result["passes"]
    failed = [p for p in passes if p["failures"]]
    scale = reference.scale(result["reference_s"])
    times = [p["seconds"] * scale for p in passes if not p["traced"]]
    pairs = properties["past_problems"] * properties["current_problems"]
    measured = {
        "setup_s": setup["total_s"],
        "assess_s": statistics.median(times),
        "pairs_per_s": pairs * len(times) / sum(times),
        "peak_rss_mb": result["peak_rss_kib"] / 1024,
        "failed_frac": len(failed) / len(passes),
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} fresh-interpreter set-ups; scale {setup['scale']:.4g}",
        "assess_s": _pass_note(times) + f"; scale {scale:.4g}",
        "failed_frac": f"{len(failed)} of {len(passes)} passes failed",
    }
    units = {"failed_frac": "ratio"}
    shown = [m["name"] for m in declared["end_to_end"]] + ["failed_frac"]
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    units.update((m["name"], m["unit"]) for m in declared["end_to_end"] + declared["per_layer"])
    if args.trace:
        # Times from the passes are scaled like assess_s, set-up times like setup_s.
        measured.update(
            (name, value * scale if units[name] == "s" else value)
            for name, value in result["layers"].items()
        )
        measured["similarity.backend_build_s"] = setup["build_s"]
        measured["cli.import_s"] = setup["import_s"]
        shown += [m["name"] for m in wanted]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("inputs: " + json.dumps(properties))
    for p in failed[:5]:
        print("FAILED pass: " + "; ".join(p["failures"][:5]))
    for name in shown:
        print(f"  {name:34s} {measured[name]:14.6g} {units[name]:10s} {notes.get(name, '')}".rstrip())
    if args.trace:
        print(f"  spans and self times: {result['trace_file']}")
    return {
        "correct": not failed,
        "attempted": len(passes),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def _pass_note(times: list[float]) -> str:
    note = f"median of {len(times)} passes"
    tail = highest_percentile(times)
    if tail is None:
        return note + "; under 20 passes, so no percentile has 10 beyond it"
    return note + f"; p{tail[0]} {tail[1]:.6g} s"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the novelty pipeline.")
    parser.add_argument("--workload", choices=sorted(gen.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sapphire_novelty" / "__init__.py").is_file():
        print(f"no sapphire_novelty package under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    # Every process of the run shares one CPU: the client's wake-ups of the
    # stub (and of CLI children) then stay on that CPU instead of waiting for
    # the hypervisor to schedule the other one; unpinned, remote-stub-csv
    # passes varied about twice as much from run to run.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        properties, setup, result = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    outcome = report(args, properties, setup, result, declared)
    print(json.dumps(outcome))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
