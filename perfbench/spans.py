"""In-process tracer for the phraselab package.

The tracer wraps public functions of the ``phraselab`` modules from the
outside: it replaces every module-level binding of each wrapped
function (``encode`` is bound in ``text``, ``model`` and ``cli``, for
example) and methods on their class, records one span per call (name,
start, end, parent) in memory, and restores every original binding on
``uninstall``. Nothing under ``src/`` is changed.

A span's self time is its duration minus the durations of its child
spans.
"""

from __future__ import annotations

import functools
import gzip
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

# (module, attribute path) of every traced callable; the metric prefix is
# "<module>.<attribute path>"
TARGETS = (
    ("cli", "main"),
    ("corpus", "load_dataset"),
    ("corpus", "compute_eda"),
    ("corpus", "export_eda"),
    ("lexical", "levenshtein_distance"),
    ("lexical", "run_baseline"),
    ("text", "encode"),
    ("text", "build_vocab"),
    ("text", "save_vocab"),
    ("text", "load_vocab"),
    ("attention", "forward_batched"),
    ("attention", "backward_batched"),
    ("model", "forward_batch"),
    ("model", "forward"),
    ("model", "predict"),
    ("model", "train"),
    ("model", "loss_and_grads"),
    ("model", "clip_global_norm"),
    ("model", "AdamState.update"),
    ("model", "init_params"),
    ("model", "save_checkpoint"),
    ("model", "load_checkpoint"),
    ("evaluation", "cross_validate"),
    ("evaluation", "stratified_kfold"),
    ("evaluation", "pearson"),
    ("reporting", "write_text"),
    ("reporting", "sha256_of"),
)

PACKAGE = "phraselab"
WRAPPED_MARK = "__perfbench_wrapped__"
NO_PARENT = -1


def _file_bytes(path) -> float:
    return float(os.stat(path).st_size)


def _arg(args, kwargs, index: int, name: str):
    """Argument ``index`` of a call, whether passed by position or name."""
    return args[index] if len(args) > index else kwargs[name]


def _attention_flops(args, kwargs, result) -> float:
    """Multiply-add flops of one batched disentangled-attention forward.

    Counts the three content projections, the two projections of the
    relative table, the four score terms, the probability-weighted
    values and the output projection, at 2 flops per multiply-add.
    """
    h, cfg = _arg(args, kwargs, 0, "h"), _arg(args, kwargs, 2, "cfg")
    b, length, d = h.shape
    heads, dh, buckets = cfg.n_heads, cfg.d_head, cfg.n_buckets
    proj = 4 * b * length * d * d + 2 * buckets * d * d
    scores = heads * dh * (b * length * length + 2 * b * length * buckets)
    if cfg.include_p2p:
        scores += heads * dh * buckets * buckets
    mix = b * heads * length * length * dh
    return 2.0 * (proj + scores + mix)


# extra quantity per traced callable: (metric suffix, extractor, reduce)
# where reduce is "sum" or "max" over the calls of one repetition
QUANTITIES: dict[str, tuple[str, Callable, str]] = {
    "attention.forward_batched": ("flops", _attention_flops, "sum"),
    "model.save_checkpoint": ("bytes", lambda a, k, r: _file_bytes(r), "sum"),
    "model.load_checkpoint": ("bytes", lambda a, k, r: _file_bytes(_arg(a, k, 0, "path")), "sum"),
    "reporting.sha256_of": ("bytes", lambda a, k, r: _file_bytes(_arg(a, k, 0, "path")), "sum"),
    "reporting.write_text": (
        "bytes", lambda a, k, r: float(len(_arg(a, k, 1, "text").encode("utf-8"))), "sum"
    ),
    "text.build_vocab": ("tokens", lambda a, k, r: float(len(r)), "max"),
    "corpus.load_dataset": ("records", lambda a, k, r: float(len(r)), "sum"),
}


@dataclass
class SpanLog:
    """Spans of one traced stretch and the extra quantities of their calls.

    ``spans`` holds one (name, start, end, parent index) per call, in
    call order; ``parent`` is ``NO_PARENT`` for a root.
    """

    spans: list = field(default_factory=list)
    quantities: dict[str, list[float]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.spans)


def write_spans(path, logs) -> None:
    """Write the spans of several logs as one gzip'd CSV, one row per span."""
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
        handle.write("log,index,name,start,end,parent\n")
        for n, log in enumerate(logs):
            for i, (name, start, end, parent) in enumerate(log.spans):
                handle.write(f"{n},{i},{name},{start!r},{end!r},{parent}\n")


def self_times(spans) -> list[float]:
    """Self time of each span in a list of (name, start, end, parent).

    A span's duration counts once as its own and is taken off its
    parent's; a stack tracer nests every child inside its parent.
    """
    out = [end - start for _name, start, end, _parent in spans]
    for duration, (_name, _start, _end, parent) in zip(list(out), spans):
        if parent != NO_PARENT:
            out[parent] -= duration
    return out


def aggregate(log: SpanLog) -> dict[str, dict[str, float]]:
    """Per traced name: calls, summed self time and its extra quantity."""
    out: dict[str, dict[str, float]] = {}
    for (name, *_rest), s in zip(log.spans, self_times(log.spans)):
        row = out.setdefault(name, {"calls": 0.0, "self_s": 0.0})
        row["calls"] += 1.0
        row["self_s"] += s
    for name, values in log.quantities.items():
        suffix, _, reduce = QUANTITIES[name]
        if values:
            out.setdefault(name, {"calls": 0.0, "self_s": 0.0})[suffix] = (
                max(values) if reduce == "max" else sum(values)
            )
    return out


def below_entry_s(log: SpanLog) -> float:
    """Self time of the spans that have a traced parent.

    This is the time attributed to a layer below the entry points (the
    root spans), so it leaves out the entry points' own work and every
    stretch no span covers.
    """
    return sum(
        s for (_name, _start, _end, parent), s in zip(log.spans, self_times(log.spans))
        if parent != NO_PARENT
    )


class Tracer:
    """Installs span-recording wrappers around the ``TARGETS`` callables."""

    def __init__(self) -> None:
        self.log = SpanLog()
        self._stack: list[int] = [NO_PARENT]
        # (owner object, attribute, original value) for every replaced binding
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise

    def _install(self) -> None:
        modules = [mod for _name, mod in _package_modules()]
        for mod_name, attr_path in TARGETS:
            module = sys.modules[f"{PACKAGE}.{mod_name}"]
            name = f"{mod_name}.{attr_path}"
            if "." in attr_path:
                cls_name, meth = attr_path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._replace(owner, meth, original, self._wrap(name, original))
                continue
            original = getattr(module, attr_path)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, attr, original, wrapper)

    def _replace(self, owner, attr, original, wrapper) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans = self.log.spans
        stack = self._stack
        quantity: Optional[Callable] = None
        if name in QUANTITIES:
            quantity = QUANTITIES[name][1]
            values = self.log.quantities.setdefault(name, [])
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1]
            spans.append(None)  # keeps call order; filled in on return
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if quantity is not None:
                values.append(quantity(args, kwargs, result))
            return result

        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper


def _package_modules():
    """(name, module) of every imported module of the traced package."""
    return [
        (name, mod) for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def leftover_wrappers() -> list[str]:
    """Names of bindings in the package that still hold a tracer wrapper."""
    found = []
    for name, mod in _package_modules():
        for attr, value in vars(mod).items():
            if getattr(value, WRAPPED_MARK, False):
                found.append(f"{name}.{attr}")
            if isinstance(value, type) and value.__module__ == name:
                for meth, member in vars(value).items():
                    if getattr(member, WRAPPED_MARK, False):
                        found.append(f"{name}.{attr}.{meth}")
    return found
