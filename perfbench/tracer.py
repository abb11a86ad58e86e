"""Traced in-process run: per-layer times from outside the program.

The workload's commands run twice in one interpreter through
``modkit.cli.main`` (and ``bert_prep.main``): first untraced, then with
every public function of the measured modules wrapped. Wrapping replaces
the attribute in every module that bound the function at import, so
``models.run_pipeline``, ``models.fit`` or ``corpus.shuffled`` are timed
too. Per-character and per-token predicates stay unwrapped; their time
is their caller's self time.

Coarse calls (commands, cycles' split/fit/train/evaluate, loads and
saves) are kept as spans with their parent; every call, per-document
ones included, feeds aggregate counters keyed by (command, caller,
function): calls, inclusive seconds and self seconds (inclusive minus
wrapped children). The tracer's own bookkeeping is subtracted from the
enclosing calls; what remains of its cost shows as
``trace.overhead_frac``, traced over untraced wall of the same commands.
``trace.unattributed_frac`` is the share of a command's subprocess wall
time that ``cli.import_s`` plus the layers' self times leave unexplained;
it goes negative when the traced run is slower than the subprocess.

Run as a script by run.py: ``python3 tracer.py PLAN.json OUT.json``.
"""

from __future__ import annotations

import collections
import io
import json
import statistics
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

import workloads

MODULES = ("corpus", "_rng", "textprep", "analytics", "vectorize", "models", "evaluate", "wordpiece", "cli")
#: Called once per character or token: wrapping them would measure the tracer.
UNWRAPPED = frozenset({"is_emoji_char", "is_emoji_token", "is_alias_placeholder"})
SPANS = frozenset({
    "main", "cmd_ingest", "cmd_balance", "cmd_analyze", "cmd_train", "cmd_eval", "run",
    "parse_comment_tree", "load_dataset", "save_dataset", "load_labels", "lexicon_flag", "balance",
    "run_cycles", "split", "fit", "train_nb", "train_lr", "evaluate_on", "ngram_counts", "emoji_stats",
    "length_histogram", "save_tfidf", "load_tfidf", "save_model", "load_model", "fragmentation_rate",
})

#: Which end-to-end metric each layer metric should move, and where.
MOVES = {
    "cli": "every *_s by a constant; largest share of balance_s; cli.cpu_s explains wall_s changes",
    "corpus": "ingest_s, balance_s on corpus_analytics; corpus.load_s also eval_full_*_s on score_full; "
    "corpus.split_s train_*_s on train_cycles",
    "textprep": "eval_full_*_s on score_full; analyze_s, bert_prep_s on corpus_analytics; train_*_s on "
    "train_cycles; redundancy ~5 on train_cycles, 1.0 on score_full",
    "analytics": "analyze_s on corpus_analytics",
    "vectorize": "train_*_s on train_cycles; eval_full_*_s on score_full",
    "models": "train_lr_s and peak_rss_mb on train_cycles; train_nb_s; eval_full_*_s on score_full",
    "evaluate": "eval_full_*_s on score_full",
    "wordpiece": "bert_prep_s on corpus_analytics",
    "trace": "none; bounds how far the per-layer numbers can be trusted",
}

#: Per-layer metrics in the last output line: the times are non-zero on
#: every workload, the counts and ratios are 0 where a layer is not run.
PER_LAYER = (
    "cli.import_s", "cli.cpu_s", "corpus.load_s", "corpus.comments", "corpus.unique", "corpus.labeled",
    "textprep.pipeline_s", "textprep.pipeline_calls", "textprep.us_per_doc", "textprep.tokenize_s",
    "textprep.emoji_s", "textprep.punct_s", "textprep.stopword_s", "textprep.lemma_s",
    "textprep.pipeline_self_s", "textprep.redundancy", "vectorize.transform_calls", "vectorize.vocab_size",
    "vectorize.density", "vectorize.oov_frac", "vectorize.empty_docs", "models.predict_calls",
    "models.model_kb", "wordpiece.words", "wordpiece.pieces_per_word_base", "wordpiece.pieces_per_word_aug",
    "cli.self_s", "corpus.self_s", "textprep.self_s", "trace.overhead_frac", "trace.unattributed_frac",
)


class Tracer:
    def __init__(self):
        self.command = ""
        self.stack: list[list] = []  # [key, child seconds, excluded seconds]
        self.span_stack: list[int] = []
        self.stats: dict[tuple[str, str, str], list[float]] = {}
        self.spans: list[list] = []  # [name, command, start, end, parent]
        self.counters: collections.Counter = collections.Counter()
        self.lists: dict[str, list] = collections.defaultdict(list)
        self.pairs: set = set()
        self.layer_of: dict[str, str] = {}
        self.origin = time.perf_counter()

    def wrap(self, fn, key: str):
        stack, stats, spans, span_stack = self.stack, self.stats, self.spans, self.span_stack
        clock = time.perf_counter
        observe = OBSERVERS.get(fn.__name__)
        is_span = fn.__name__ in SPANS

        def wrapper(*args, **kwargs):
            entered = clock()
            caller = stack[-1] if stack else None
            frame = [key, 0.0, 0.0]
            stack.append(frame)
            if is_span:
                span_id = len(spans)
                spans.append([key, self.command, entered - self.origin, 0.0, span_stack[-1] if span_stack else -1])
                span_stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if is_span:
                    span_stack.pop()
                    spans[span_id][3] = end - self.origin
                elapsed = end - start - frame[2]
                entry = (self.command, caller[0] if caller else "", key)
                row = stats.get(entry)
                if row is None:
                    row = stats[entry] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - frame[1]
            if observe is not None:
                observe(self, args, kwargs, result)
            if caller is not None:
                caller[1] += elapsed
                caller[2] += frame[2] + (start - entered) + (clock() - end)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, extra_modules=()) -> None:
        """Wrap every public function of MODULES wherever it is bound."""
        targets = {}
        for name in MODULES:
            module = sys.modules[f"modkit.{name}"]
            layer = "corpus" if name == "_rng" else name
            for attr, value in vars(module).items():
                if callable(value) and getattr(value, "__module__", None) == module.__name__ and not attr.startswith("_") \
                        and attr not in UNWRAPPED and type(value).__name__ == "function":
                    key = f"{layer}.{attr}"
                    targets[id(value)] = self.wrap(value, key)
                    self.layer_of[key] = layer
        for module in extra_modules:
            key = f"driver.{module.run.__name__}"
            targets[id(module.run)] = self.wrap(module.run, key)
            self.layer_of[key] = "driver"
        holders = [m for n, m in sys.modules.items() if n == "modkit" or n.startswith("modkit.")]
        for module in [*holders, *extra_modules]:
            for attr, value in list(vars(module).items()):
                if id(value) in targets:
                    setattr(module, attr, targets[id(value)])


# ---------------------------------------------------------------------------
# Observers: counts taken from arguments and results, outside the timings


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _observe_pipeline(t, args, kwargs, result):
    t.pairs.add((t.command, _arg(args, kwargs, 0, "text"), _arg(args, kwargs, 1, "config")))


def _observe_transform(t, args, kwargs, result):
    model, stream = _arg(args, kwargs, 0, "model"), _arg(args, kwargs, 1, "stream")
    t.counters["tokens"] += len(stream.tokens)
    t.counters["oov"] += sum(1 for token in stream.tokens if token not in model.vocabulary)
    t.counters["nnz"] += len(result.entries)
    t.counters["cells"] += model.vocab_size
    t.counters["empty_docs"] += not result.entries


def _observe_fragmentation(t, args, kwargs, result):
    texts, vocab = _arg(args, kwargs, 0, "corpus"), _arg(args, kwargs, 1, "vocab")
    words = sum(len(text.split()) for text in texts)
    t.counters["wordpiece_words_processed"] += words
    t.lists["fragmentation"].append((len(vocab), result.pieces_per_word, words))


def _observe_encode(t, args, kwargs, result):
    t.counters["wordpiece_words_processed"] += len(_arg(args, kwargs, 0, "text").split())


def _observe_model_file(index, name):
    def observe(t, args, kwargs, result):
        t.lists["model_kb"].append(Path(_arg(args, kwargs, index, name)).stat().st_size / 1024)

    return observe


OBSERVERS = {
    "run_pipeline": _observe_pipeline,
    "flatten": lambda t, a, k, r: t.counters.update({"comments": len(r)}),
    "dedupe": lambda t, a, k, r: t.counters.update({"unique": len(r)}),
    "apply_labels": lambda t, a, k, r: t.counters.update({"labeled": len(r[0])}),
    "fit": lambda t, a, k, r: t.lists["vocab_size"].append(r.vocab_size),
    "load_tfidf": lambda t, a, k, r: t.lists["vocab_size"].append(r.vocab_size),
    "transform": _observe_transform,
    "train_lr": lambda t, a, k, r: t.counters.update({"lr_epochs": r.epochs}),
    "save_model": _observe_model_file(1, "path"),
    "load_model": _observe_model_file(0, "path"),
    "fragmentation_rate": _observe_fragmentation,
    "wordpiece_encode": _observe_encode,
}


# ---------------------------------------------------------------------------
# In-process driver (runs in its own interpreter)


def _run_phase(wl, inp, out: Path, tracer: Tracer | None) -> dict:
    import bert_prep
    import modkit._resources
    import modkit.cli

    modkit._resources._cache.clear()  # both phases load the data tables again
    phase = {"walls": {}, "codes": {}, "stdout": {}}
    for cmd in wl.commands:
        if tracer is not None:
            tracer.command = cmd.name
        buf = io.StringIO()
        started = time.perf_counter()
        try:
            with redirect_stdout(buf):
                argv = cmd.argv(inp, out)
                if cmd.driver:
                    bert_prep.main(argv)
                    code = 0
                else:
                    code = modkit.cli.main(argv)
        except Exception:  # a crash is a failed command, reported with its traceback
            code, buf = 1, io.StringIO(traceback.format_exc())
        phase["walls"][cmd.name] = time.perf_counter() - started
        phase["codes"][cmd.name] = code
        phase["stdout"][cmd.name] = buf.getvalue()
    return phase


def _main(plan_path: str, out_path: str) -> None:
    import bert_prep
    import modkit.cli  # noqa: F401  (imported before the first timing)

    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    wl = workloads.WORKLOADS[plan["workload"]]
    inp = workloads.Inputs(
        seed=plan["seed"], corpus=Path(plan["corpus"]), meta=plan["meta"], setup_dir=Path(plan["setup_dir"])
    )
    result = {"untraced": _run_phase(wl, inp, Path(plan["out"]["untraced"]), None)}
    tracer = Tracer()
    tracer.install(extra_modules=[bert_prep])
    result["traced"] = _run_phase(wl, inp, Path(plan["out"]["traced"]), tracer)
    result["stats"] = [[*key, *row] for key, row in tracer.stats.items()]
    result["spans"] = tracer.spans
    result["counters"] = dict(tracer.counters)
    result["lists"] = dict(tracer.lists)
    result["distinct_pairs"] = len(tracer.pairs)
    result["layer_of"] = tracer.layer_of
    Path(out_path).write_text(json.dumps(result), encoding="utf-8")


# ---------------------------------------------------------------------------
# Parent side: run the traced process, check its outputs, derive metrics


def run_traced(runner, wl, inp) -> dict:
    plan = {
        "workload": wl.name, "seed": inp.seed, "corpus": str(inp.corpus), "meta": inp.meta,
        "setup_dir": str(inp.setup_dir), "out": {},
    }
    for phase in ("untraced", "traced"):
        plan["out"][phase] = str(runner.work / f"inproc_{phase}")
        Path(plan["out"][phase]).mkdir()
    plan_path, out_path = runner.work / "plan.json", runner.work / "traced.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    code, log, _sample = runner.spawn(
        [sys.executable, str(Path(__file__).resolve()), str(plan_path), str(out_path)], runner.work / "tracer.log"
    )
    if code != 0:
        raise RuntimeError(f"traced run failed: {log[-2000:]}")
    traced = json.loads(out_path.read_text(encoding="utf-8"))
    for phase in ("untraced", "traced"):
        out = Path(plan["out"][phase])
        for cmd in wl.commands:
            if traced[phase]["codes"][cmd.name] != 0:
                runner.tally.record([f"{phase} {cmd.name}: {traced[phase]['stdout'][cmd.name][-300:]}"])
            else:
                runner.tally.record(workloads.check_outputs(cmd, inp, out, traced[phase]["stdout"][cmd.name]))
    return traced


def span_summary(spans: list[list]) -> dict:
    """Per command: self seconds by span name (span minus child spans)
    and the duration of each training cycle (from one split to the next)."""
    children = collections.Counter()
    for _name, _command, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    out: dict = {}
    for i, (name, command, start, end, parent) in enumerate(spans):
        entry = out.setdefault(command, {"self_s": collections.Counter(), "cycles_s": []})
        entry["self_s"][name] += end - start - children[i]
        if name == "models.run_cycles":
            bounds = [s[2] for s in spans if s[0] == "corpus.split" and s[4] == i] + [end]
            entry["cycles_s"] += [b - a for a, b in zip(bounds, bounds[1:])]
    return out


def layer_metrics(traced: dict, walls: dict, import_s: float) -> dict:
    """Every per-layer metric as {name: (value, unit, samples)}."""
    rows = traced["stats"]  # [command, caller, key, calls, inclusive, self]
    layer_of = traced["layer_of"]
    counters = collections.Counter(traced["counters"])
    lists = traced["lists"]

    def incl(names, caller=None, outside=None):
        keys = set(names)
        return sum(
            r[4] for r in rows
            if r[2] in keys and (caller is None or r[1] == caller)
            and (outside is None or layer_of.get(r[1]) != outside)
        )

    def calls(names):
        return sum(r[3] for r in rows if r[2] in set(names))

    def self_time(name):
        return sum(r[5] for r in rows if r[2] == name)

    def layer_keys(layer):
        return [k for k, v in layer_of.items() if v == layer]

    n_pipeline = calls(["textprep.run_pipeline"])
    pipeline_s = incl(["textprep.run_pipeline"])
    in_pipe = "textprep.run_pipeline"
    lr_s = incl(["models.train_lr"])
    segment_s, encode_s = incl(["wordpiece.fragmentation_rate"]), incl(["wordpiece.wordpiece_encode"])
    frag = sorted(lists.get("fragmentation", []))
    vocab_sizes = lists.get("vocab_size", [])
    model_kb = lists.get("model_kb", [])
    cpu = sum(s.cpu_s for s in walls.values())
    m = {
        "cli.import_s": (import_s, "s"),
        "cli.cpu_s": (cpu, "s"),
        "corpus.parse_s": (incl(["corpus.parse_comment_tree", "corpus.flatten", "corpus.load_labels"]), "s"),
        "corpus.dedupe_s": (incl(["corpus.dedupe", "corpus.apply_labels"]), "s"),
        "corpus.lexicon_s": (incl(["corpus.load_lexicon", "corpus.lexicon_flag"]), "s"),
        "corpus.save_s": (incl(["corpus.save_dataset"]), "s"),
        "corpus.load_s": (incl(["corpus.load_dataset"]), "s"),
        "corpus.balance_s": (incl(["corpus.balance"]), "s"),
        "corpus.split_s": (incl(["corpus.split"]), "s"),
        "corpus.comments": (counters["comments"], "count"),
        "corpus.unique": (counters["unique"], "count"),
        "corpus.labeled": (counters["labeled"], "count"),
        "textprep.pipeline_s": (pipeline_s, "s"),
        "textprep.pipeline_calls": (n_pipeline, "count"),
        "textprep.us_per_doc": (pipeline_s / n_pipeline * 1e6 if n_pipeline else 0.0, "us"),
        "textprep.tokenize_s": (incl(["textprep.tokenize"], caller=in_pipe), "s"),
        "textprep.emoji_s": (incl(["textprep.normalize_emoticons", "textprep.encode_emojis"], caller=in_pipe), "s"),
        "textprep.punct_s": (incl(["textprep.remove_punctuation"], caller=in_pipe), "s"),
        "textprep.stopword_s": (incl(["textprep.remove_stopwords"], caller=in_pipe), "s"),
        "textprep.lemma_s": (incl(["textprep.lemmatize"], caller=in_pipe), "s"),
        "textprep.pipeline_self_s": (self_time(in_pipe), "s"),
        "textprep.redundancy": (n_pipeline / traced["distinct_pairs"] if n_pipeline else 0.0, "ratio"),
        "analytics.ngram_s": (incl(["analytics.ngram_counts"]), "s"),
        "analytics.emoji_s": (incl(["analytics.emoji_stats", "analytics.emoji_frequency", "analytics.emoji_presence",
                                    "analytics.contains_emoji"], outside="analytics"), "s"),
        "analytics.length_s": (incl(["analytics.length_histogram"]), "s"),
        "analytics.export_s": (incl(["analytics.export_chart_data"]), "s"),
        "vectorize.fit_s": (incl(["vectorize.fit"]), "s"),
        "vectorize.transform_s": (incl(["vectorize.transform", "vectorize.transform_all"], outside="vectorize"), "s"),
        "vectorize.transform_calls": (calls(["vectorize.transform"]), "count"),
        "vectorize.io_s": (incl(["vectorize.save_tfidf", "vectorize.load_tfidf"]), "s"),
        "vectorize.vocab_size": (statistics.median(vocab_sizes) if vocab_sizes else 0, "count"),
        "vectorize.density": (counters["nnz"] / counters["cells"] if counters["cells"] else 0.0, "ratio"),
        "vectorize.oov_frac": (counters["oov"] / counters["tokens"] if counters["tokens"] else 0.0, "ratio"),
        "vectorize.empty_docs": (counters["empty_docs"], "count"),
        "models.train_nb_s": (incl(["models.train_nb"]), "s"),
        "models.train_lr_s": (lr_s, "s"),
        "models.lr_epoch_ms": (lr_s / counters["lr_epochs"] * 1e3 if counters["lr_epochs"] else 0.0, "ms"),
        "models.predict_s": (incl(["models.predict_nb", "models.predict_lr"]), "s"),
        "models.predict_calls": (calls(["models.predict_nb", "models.predict_lr"]), "count"),
        "models.io_s": (incl(["models.save_model", "models.load_model"]), "s"),
        "models.model_kb": (statistics.mean(model_kb) if model_kb else 0.0, "KB"),
        "evaluate.s": (incl(layer_keys("evaluate"), outside="evaluate"), "s"),
        "wordpiece.segment_s": (segment_s, "s"),
        "wordpiece.encode_s": (encode_s, "s"),
        "wordpiece.us_per_word": ((segment_s + encode_s) / counters["wordpiece_words_processed"] * 1e6
                                  if counters["wordpiece_words_processed"] else 0.0, "us"),
        "wordpiece.words": (frag[0][2] if frag else 0, "count"),
        "wordpiece.pieces_per_word_base": (frag[0][1] if frag else 0.0, "ratio"),
        "wordpiece.pieces_per_word_aug": (frag[-1][1] if frag else 0.0, "ratio"),
    }
    layers = sorted(set(layer_of.values()))
    for layer in layers:
        m[f"{layer}.self_s"] = (sum(r[5] for r in rows if layer_of[r[2]] == layer), "s")
    untraced = sum(traced["untraced"]["walls"].values())
    m["trace.overhead_frac"] = (sum(traced["traced"]["walls"].values()) / untraced - 1, "ratio")
    total_wall = sum(s.wall_s for s in walls.values())
    unattributed = 0.0
    for command, sample in walls.items():
        attributed = sum(r[5] for r in rows if r[0] == command)
        left = sample.wall_s - import_s - attributed
        unattributed += left
        m[f"trace.unattributed_frac.{command}"] = (left / sample.wall_s, "ratio")
    m["trace.unattributed_frac"] = (unattributed / total_wall, "ratio")
    return {name: (value, unit, 1) for name, (value, unit) in m.items()}


if __name__ == "__main__":
    _main(sys.argv[1], sys.argv[2])
