"""The benchmark's client process; ``run.py`` starts it, one mode per call.

* ``passes SPEC SECONDS TRACE``: the closed loop. Passes run back to back
  until the time budget is spent, each checked after its timer stops, with
  the reference work (``reference.py``) timed between passes; writes a
  JSON result next to SPEC. Times in the result are unscaled.
* ``cli-traced SPANS -- ARGS``: one traced CLI process (kettle-cli).

Set-up is timed by ``probe.py``, in interpreters that load nothing else.
"""

from __future__ import annotations

import gc
import gzip
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import urllib.request
import warnings
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402


def cli_args(spec: dict, out: Path) -> list[str]:
    """The CLI arguments equivalent to one pass of the workload."""
    past, current = spec["past"], spec["current"]
    backend_flags = {
        "lexical": [],
        "wordvec": ["--vectors", spec.get("vectors")],
        "remote": ["--endpoint", spec.get("endpoint")],
    }.get(spec["backend"])
    if backend_flags is None:
        from sapphire_novelty import data

        past, current = data.past_corpus_path(), data.current_corpus_path()
        backend_flags = ["--fixtures", str(data.fixture_similarities_path())]
    return [
        spec["command"], "--past", str(past), "--current", str(current),
        "--backend", spec["backend"], *backend_flags,
        "--format", spec["format"], "--out", str(out),
    ]


def _stub_stats(spec: dict) -> dict:
    url = spec["endpoint"].rsplit("/", 1)[0] + "/stats"
    with urllib.request.urlopen(url, timeout=10) as response:
        return json.loads(response.read())


class Loop:
    """State shared by the passes of one run: checks, reference hash, spans."""

    def __init__(self, spec: dict, trace: bool) -> None:
        self.spec = spec
        self.out = Path(spec["work"]) / "report.out"
        self.passes: list[dict] = []
        self.sha256: str | None = None
        self.peak_rss_kib = 0
        self.tracer = None
        if trace:
            from tracing import Tracer

            self.tracer = Tracer()

    def stop_clock(self, started: float, rusage: int) -> float:
        """Seconds since ``started``; the first pass also reads the peak RSS.

        The peak is read after the first pass and before any check runs, so
        the checks' own allocations (a parsed copy of the report) cannot set
        it. ``rusage`` names the process that ran the pass.
        """
        seconds = perf_counter() - started
        if not self.passes:
            self.peak_rss_kib = resource.getrusage(rusage).ru_maxrss
        return seconds

    def record(self, seconds: float, traced: bool, text: str | None, failures: list[str]) -> None:
        if text is not None:
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            self.sha256 = self.sha256 or digest
            if digest != self.sha256:
                failures.append(f"report sha256 {digest} differs from the first pass's {self.sha256}")
        self.passes.append({"seconds": seconds, "traced": traced, "failures": failures})

    def in_process_pass(self, backend, traced: bool) -> None:
        import sapphire_novelty as sn
        from checks import check_rendered, check_report

        spec = self.spec
        layers = sn
        if traced:
            from tracing import TracedLayers

            self.tracer.pass_id = len(self.passes)
            layers = TracedLayers(self.tracer)
            before = _stub_stats(spec) if spec["backend"] == "remote" else None

        def one_pass():
            past = layers.load_corpus(spec["past"], sn.Provenance.PAST, strict=False)
            current = layers.load_corpus(spec["current"], sn.Provenance.CURRENT, strict=False)
            report = layers.rank_current_problems(past, current, backend)
            text = layers.render_report(report, spec["format"], spec["command"] == "rank")
            with open(self.out, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
            return report, text

        report = text = None
        failures: list[str] = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            started = perf_counter()
            try:
                if traced:
                    with layers.patched():
                        report, text = self.tracer.wrap("pass", one_pass)()
                else:
                    report, text = one_pass()
            except Exception as error:  # a failed pass is counted, not fatal
                failures.append(f"{type(error).__name__}: {error}")
            seconds = self.stop_clock(started, resource.RUSAGE_SELF)
        if traced:
            self.tracer.count("oov_warnings", sum(issubclass(w.category, sn.OovWarning) for w in caught))
            if before is not None:
                after = _stub_stats(spec)
                for key in after:
                    self.tracer.count(f"stub_{key}", after[key] - before[key])
        if report is not None:
            failures += _checked(check_report, report, spec["expect"])
            failures += _checked(check_rendered, text, spec["format"], report)
        self.record(seconds, traced, text, failures)

    def cli_pass(self, traced: bool) -> None:
        from checks import check_kettle

        argv = cli_args(self.spec, self.out)
        spans = Path(self.spec["work"]) / "spans.json"
        if traced:
            command = [sys.executable, str(BENCH / "worker.py"), "cli-traced", str(spans), "--", *argv]
        else:
            command = [sys.executable, "-m", "sapphire_novelty.cli", *argv]
        self.out.unlink(missing_ok=True)
        spans.unlink(missing_ok=True)
        started = perf_counter()
        done = subprocess.run(command, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        seconds = self.stop_clock(started, resource.RUSAGE_CHILDREN)
        text, failures = None, []
        if done.returncode != 0:
            failures.append(f"CLI exited {done.returncode}: {done.stderr.strip()[-500:]}")
        else:
            text = self.out.read_text(encoding="utf-8")
            failures += _checked(check_kettle, text)
        if traced and spans.exists():
            self._merge_child_spans(json.loads(spans.read_text()))
        self.record(seconds, traced, text, failures)

    def _merge_child_spans(self, child: dict) -> None:
        pass_id, offset = len(self.passes), len(self.tracer.spans)
        for name, start, end, parent, _ in child["spans"]:
            self.tracer.spans.append([name, start, end, parent + offset if parent >= 0 else -1, pass_id])
        for key, value in child["counts"].items():
            self.tracer.counts[pass_id][key] += value

    def cli_process(self) -> tuple[float, str | None]:
        """Wall time of one real CLI process on the workload, and its report hash."""
        out = Path(self.spec["work"]) / "cli.out"
        command = [sys.executable, "-m", "sapphire_novelty.cli", *cli_args(self.spec, out)]
        started = perf_counter()
        done = subprocess.run(command, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        seconds = perf_counter() - started
        if done.returncode != 0:
            return seconds, None
        return seconds, hashlib.sha256(out.read_bytes()).hexdigest()


def _checked(check, *args) -> list[str]:
    """Run one output check; output it cannot parse is a failure too."""
    try:
        return check(*args)
    except Exception as error:  # malformed output is a failed pass, not a crash
        return [f"{check.__name__} could not read the output: {type(error).__name__}: {error}"]


def run_passes(spec: dict, seconds: float, trace: bool) -> dict:
    loop = Loop(spec, trace)
    is_cli = spec["workload"] == "kettle-cli"
    backend = None
    if not is_cli:
        import sapphire_novelty
        from probe import build_backend, check_source

        check_source(sapphire_novelty)
        backend = build_backend(spec["backend"], spec["vectors"] or spec["endpoint"])
    deadline = perf_counter() + seconds
    references = reference.reps()
    # Traced runs alternate untraced and traced passes, so the tracing
    # overhead is measured against passes made under the same conditions.
    while not loop.passes or perf_counter() < deadline or (trace and len(loop.passes) < 2):
        traced = trace and len(loop.passes) % 2 == 1
        # Every pass starts from a collected heap, so the cyclic collector's
        # work on the previous pass's garbage is not charged to this one.
        gc.collect()
        if is_cli:
            loop.cli_pass(traced)
        else:
            loop.in_process_pass(backend, traced)
        references += reference.reps(loop.passes[-1]["seconds"])
    result = {
        "passes": loop.passes,
        "reference_s": references,
        "peak_rss_kib": loop.peak_rss_kib,
        "sha256": loop.sha256,
    }
    if trace:
        result["layers"] = _layer_metrics(loop, spec)
        result["trace_file"] = spec["trace_file"]
    return result


def _layer_metrics(loop: Loop, spec: dict) -> dict:
    from tracing import SPAN_FIELDS, layers_by_pass, median_by_key

    tracer = loop.tracer
    by_pass = layers_by_pass(tracer.spans)
    rows = []
    for pass_id, layers in sorted(by_pass.items()):
        counts = tracer.counts[pass_id]

        def total(name, key="total_s"):
            return layers.get(name, {}).get(key, 0.0)

        tokenize_calls = total("tokenize", "calls")
        texts_sent = counts.get("stub_texts", 0)
        processed = tokenize_calls + texts_sent or 2 * total("similarity", "calls")
        posts = counts.get("stub_posts", 0)
        rows.append({
            "corpus_store.load_s": total("load_corpus"),
            "corpus_store.records": counts.get("records", 0),
            "similarity.calls": total("similarity", "calls"),
            "similarity.busy_s": total("similarity"),
            "similarity.self_s": total("similarity", "self_s"),
            "similarity.tokenize_calls": tokenize_calls,
            "similarity.tokenize_s": total("tokenize"),
            "similarity.unique_texts": counts.get("unique_texts", 0),
            "similarity.reuse_ratio": counts.get("unique_texts", 0) / processed if processed else 0.0,
            "similarity.oov_warnings": counts.get("oov_warnings", 0),
            "similarity.remote.posts": posts,
            "similarity.remote.texts_sent": texts_sent,
            "similarity.remote.texts_per_post": texts_sent / posts if posts else 0.0,
            "similarity.remote.wait_s": total("embed_texts"),
            "similarity.remote.server_busy_s": counts.get("stub_busy_s", 0.0),
            "similarity.remote.failed_posts": counts.get("stub_failed_posts", 0),
            "novelty.rank_s": total("rank_current_problems"),
            "novelty.self_s": total("rank_current_problems", "self_s"),
            "novelty.pairs_considered": counts.get("pairs_considered", 0),
            "novelty.pairs_gated": counts.get("pairs_gated", 0),
            "novelty.gate_pass_ratio": (
                counts.get("pairs_gated", 0) / counts["pairs_considered"]
                if counts.get("pairs_considered") else 0.0
            ),
            "novelty.pairs_no_comparable": counts.get("pairs_no_comparable", 0),
            "report.render_s": total("render_report"),
            "report.bytes": counts.get("report_bytes", 0),
        })
    metrics = median_by_key(rows)

    def median_s(traced: bool) -> float:
        return statistics.median(p["seconds"] for p in loop.passes if p["traced"] == traced)

    metrics["trace.overhead_s"] = median_s(True) - median_s(False)
    if spec["workload"] == "kettle-cli":
        metrics["cli.process_s"] = median_s(False)
    else:
        metrics["cli.process_s"], digest = loop.cli_process()
        if digest != loop.sha256:
            loop.passes[-1]["failures"].append("the CLI's report differs from the in-process report")
    self_s = median_by_key([
        {name: layer["self_s"] for name, layer in layers.items()} for layers in by_pass.values()
    ])
    trace_file = Path(spec["trace_file"])
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(trace_file, "wt", encoding="utf-8") as handle:
        json.dump({
            "workload": spec["workload"],
            "seed": spec["seed"],
            "span_fields": SPAN_FIELDS,
            "spans": tracer.spans,
            "counts": {str(k): dict(v) for k, v in tracer.counts.items()},
            "self_s_per_pass": self_s,
            "per_layer": metrics,
        }, handle)
    return metrics


def cli_traced(spans_path: str, argv: list[str]) -> int:
    """Run the real CLI in this fresh interpreter with its layer calls traced."""
    import sapphire_novelty.cli as cli
    from sapphire_novelty import OovWarning
    from tracing import TracedLayers, Tracer

    tracer = Tracer()
    layers = TracedLayers(tracer)

    def count_warning(message, category, *args, **kwargs):
        if issubclass(category, OovWarning):
            tracer.count("oov_warnings")

    warnings.showwarning = count_warning
    with layers.patched(cli):
        root = tracer.open("cli.main")
        code = cli.main(argv)
        tracer.close(root)
    Path(spans_path).write_text(json.dumps({"spans": tracer.spans, "counts": tracer.counts[0]}))
    return code


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "cli-traced":
        return cli_traced(argv[1], argv[argv.index("--") + 1 :])
    if mode == "passes":
        spec = json.loads(Path(argv[1]).read_text())
        result = run_passes(spec, float(argv[2]), argv[3] == "1")
        Path(spec["work"], "result.json").write_text(json.dumps(result))
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
