"""Traced execution of one ventureval CLI stage, and span analysis.

Run as a program, this file stands in for ``python -m ventureval.cli``:
it imports the CLI inside a ``cli.import`` span, wraps the public
functions of each layer by replacing module attributes (the CLI and the
layers call each other through module attributes, so every call goes
through the wrapper), runs the stage in-process inside a ``cli.<stage>``
span, and writes the spans and counters to a JSON file when the stage ends.

    python3 perfbench/tracer.py --out spans.json --run-id r1 -- ingest --data-dir d --out o

Spans are ``(name, start, end, parent, thread)`` tuples kept in memory;
``parent`` indexes the enclosing span (-1 for a root). A span opened on a
worker thread with no open span of its own is parented to the innermost
span open on the main thread, which is the call that is waiting for it.
Times come from ``time.perf_counter``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
import traceback
from collections import defaultdict

# module -> functions recorded as spans named "<layer>.<function>".
SPANNED = {
    "ventureval.synth": ("generate",),
    "ventureval.ingest": ("load_table", "build_store", "write_table"),
    "ventureval.features": (
        "derive_profiles", "write_profiles_csv", "write_profiles_jsonl",
        "read_profiles_jsonl", "corpus_stats", "split_dataset", "balance_dataset",
    ),
    "ventureval.prompts": ("render_prompt", "enforce_budget", "emit_jsonl", "read_records_jsonl"),
    "ventureval.gbdt": ("fit", "predict_many", "save_model"),
    "ventureval._kernels": ("scan_split",),
    "ventureval.client": ("run_eval", "chat_complete", "parse_response", "score_audit_log"),
    "ventureval.metrics": ("confusion", "report"),
}
# Functions called once per token count or per record: counted, not timed,
# so that tracing them costs no more than an increment.
COUNTED = {
    "ventureval.prompts": ("load_template", "count_tokens"),
}


def layer_of(module_name: str) -> str:
    return module_name.rsplit(".", 1)[1].lstrip("_")


def _count_nodes(node) -> int:
    if node is None:
        return 0
    return 1 + _count_nodes(node.left) + _count_nodes(node.right)


class Tracer:
    """In-memory span recorder plus named counters."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self._local = threading.local()
        self._main_stack = []
        self._lock = threading.Lock()

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, threading.get_ident()])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def add(self, name: str, amount=1) -> None:
        with self._lock:
            self.counters[name] += amount

    def spanned(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._lock:
                self.counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _observe_load_table(tracer, args, kwargs, result):
    rows, errors = result
    tracer.add("ingest.load_table.rows", len(rows))
    tracer.add("ingest.load_table.row_errors", len(errors))


def _observe_derive_profiles(tracer, args, kwargs, result):
    tracer.add("features.profiles", len(result[0]))


def _observe_enforce_budget(tracer, args, kwargs, result):
    record = args[0] if args else kwargs["record"]
    if result is not record:
        tracer.add("prompts.truncated")


def _observe_fit(tracer, args, kwargs, result):
    tracer.add("gbdt.nodes", sum(_count_nodes(tree) for tree in result.trees))


def _observe_scan_split(tracer, args, kwargs, result):
    tracer.add("kernels.scan_split_calls")
    tracer.add("kernels.scan_rows", len(args[0]))


def _observe_run_eval(tracer, args, kwargs, result):
    tracer.add("client.attempts", sum(o.attempts for o in result.outcomes))
    tracer.add("client.transport_failures", result.transport_failures)
    for outcome in result.outcomes:
        tracer.add("client.parse_status." + outcome.response.parse_status)


_OBSERVERS = {
    "ingest.load_table": _observe_load_table,
    "features.derive_profiles": _observe_derive_profiles,
    "prompts.enforce_budget": _observe_enforce_budget,
    "gbdt.fit": _observe_fit,
    "kernels.scan_split": _observe_scan_split,
    "client.run_eval": _observe_run_eval,
}


def install(tracer: Tracer) -> None:
    """Replace each listed module attribute with its traced wrapper."""
    for module_name, names in SPANNED.items():
        module = importlib.import_module(module_name)
        for fn_name in names:
            span = f"{layer_of(module_name)}.{fn_name}"
            wrapped = tracer.spanned(span, getattr(module, fn_name), _OBSERVERS.get(span))
            setattr(module, fn_name, wrapped)
    for module_name, names in COUNTED.items():
        module = importlib.import_module(module_name)
        for fn_name in names:
            counter = f"{layer_of(module_name)}.{fn_name}_calls"
            setattr(module, fn_name, tracer.counted(counter, getattr(module, fn_name)))


def run_stage(cli_args, out_path, run_id) -> int:
    """Run one CLI stage in this process under tracing; returns its exit code."""
    tracer = Tracer()
    stage = cli_args[0]
    index = tracer.begin("cli.import")
    cli = importlib.import_module("ventureval.cli")
    tracer.end(index)
    install(tracer)
    backend = importlib.import_module("ventureval._kernels").BACKEND

    exit_code = 0
    index = tracer.begin("cli." + stage)
    try:
        cli.main.main(args=list(cli_args), prog_name="ventureval", standalone_mode=False)
    except SystemExit as exc:
        exit_code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the stage's own failure, reported via the exit code
        traceback.print_exc()
        exit_code = 1
    finally:
        tracer.end(index)

    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "run_id": run_id,
                "stage": stage,
                "exit_code": exit_code,
                "backend": backend,
                "spans": tracer.spans,
                "counters": tracer.counters,
            },
            fh,
        )
    return exit_code


def attributed_self_times(spans) -> dict:
    """Self time per span name, summed over spans.

    A span's self time is the part of its interval not covered by its open
    child spans. When spans on several threads are open at once (the eval
    client's workers), each instant is shared equally among the innermost
    open spans, so the self times of one process never add up to more than
    the time its spans cover.
    """
    events = []
    for index, (_, start, end, _, _) in enumerate(spans):
        events.append((start, 1, index))
        events.append((end, 0, index))
    events.sort()
    open_children = defaultdict(int)
    is_open = set()
    leaves = set()
    totals = defaultdict(float)
    previous = None
    for t, is_start, index in events:
        if previous is not None and leaves and t > previous:
            share = (t - previous) / len(leaves)
            for leaf in leaves:
                totals[spans[leaf][0]] += share
        previous = t
        parent = spans[index][3]
        if is_start:
            is_open.add(index)
            leaves.add(index)
            if parent in is_open:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            is_open.discard(index)
            leaves.discard(index)
            if parent in is_open:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return dict(totals)


def inclusive_times(spans) -> dict:
    totals = defaultdict(float)
    for name, start, end, _, _ in spans:
        totals[name] += end - start
    return dict(totals)


def main(argv) -> int:
    if len(argv) < 6 or argv[0] != "--out" or argv[2] != "--run-id" or argv[4] != "--":
        print("usage: tracer.py --out FILE --run-id ID -- <cli args>", file=sys.stderr)
        return 2
    return run_stage(argv[5:], argv[1], argv[3])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
