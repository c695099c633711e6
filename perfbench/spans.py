"""Span tracer that times tinytsfm's layers from outside the package.

`Tracer.install()` replaces every public function and public method of the
nine layer modules with a timing wrapper, and rebinds each name wherever a
tinytsfm module holds it (so `cli.load_csv`, `tasks.model_forward` and
`estimator.embed_series` are traced like `data.load_csv`). Nothing under
`src/` changes; `uninstall()` puts the originals back.

Each call records a span `[name id, start ns, end ns, parent span, op id]`
in memory. Self time is a span's duration minus the durations of its direct
children; the process is single-threaded, so children never overlap.
"""

import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("numcore", "model", "pretrain", "tasks", "data", "cli", "metrics",
          "baselines", "estimator")

# Span names folded into one per-layer metric group; every other span is
# its own group.
GROUPS = {
    **{f"numcore.{n}": "numcore.elementwise"
       for n in ("add", "sub", "neg", "mul", "relu", "scale_norm", "sum_", "mean_")},
    **{f"numcore.{n}": "numcore.layout"
       for n in ("reshape", "transpose", "gather_rows")},
    "numcore.global_norm": "numcore.clip_global_norm",
    "pretrain.pretrain": "pretrain.loop",
    "pretrain.linear_probe": "pretrain.loop",
    "estimator.MaskedSeriesModel.forecast": "estimator.forecast",
    "estimator.MaskedSeriesModel.transform": "estimator.transform",
    **{f"metrics.{n}": "metrics.pointwise"
       for n in ("mse", "mae", "smape_m4", "accuracy")},
}

# The tape primitives: the calls a fused kernel would remove.
PRIMITIVES = frozenset(
    f"numcore.{n}" for n in (
        "add", "sub", "neg", "mul", "matmul", "relu", "softmax_lastdim",
        "scale_norm", "reshape", "transpose", "sum_", "mean_", "gather_rows",
    )
)


def is_entry(name, parent):
    """An entry span: one the benchmark calls directly (no parent span), or
    the CLI's dispatcher, command functions and `map_series` (which runs a
    command's per-series closure). What they do outside any other span is
    work no layer function accounts for."""
    return (parent < 0 or name in ("cli.dispatch", "cli.map_series")
            or name.startswith("cli.cmd_"))


def _public_callables(module):
    """(owner, attribute, original, span name) for each public function and
    public method defined in `module`."""
    layer = module.__name__.rsplit(".", 1)[-1]
    found = []
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            found.append((module, name, obj, f"{layer}.{name}"))
        elif inspect.isclass(obj):
            for meth, raw in sorted(vars(obj).items()):
                if meth.startswith("_"):
                    continue
                if inspect.isfunction(raw) or isinstance(raw, (classmethod, staticmethod)):
                    found.append((obj, meth, raw, f"{layer}.{name}.{meth}"))
    return found


class Tracer:
    """Records spans and counts while installed; derives per-layer figures."""

    def __init__(self):
        self.names = []
        # one column per span field; arrays keep a span at 40 bytes
        self._cols = tuple(array("q") for _ in range(5))
        self.counts = Counter()  # (count name, op id) -> total
        self.op = -1
        self._stack = []
        self._patches = []  # (owner, attribute, original, wrapper)
        self._step_params = None

    # ------------------------------------------------------------ wrapping

    def _wrap(self, name, fn, after=None):
        """fn timed as span `name`; after(args, result) runs once it returns."""
        nid = len(self.names)
        self.names.append(name)
        names, starts, ends, parents, ops = self._cols
        stack, clock = self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counters(self):
        """Per-span hooks that record the per-layer counts after each call."""
        counts = self.counts

        def backward(args, _):
            counts["numcore.tape.nodes", self.op] += len(args[1])

        def zero_grads(args, _):
            # pretrain and linear_probe clear every parameter of the model
            # at the start of each step; keep them to see which got a grad
            self._step_params = args[0]

        def adamw_step(args, _):
            counts["pretrain.updated_tensors", self.op] += len(args[0])
            params = self._step_params
            values = params.values() if isinstance(params, dict) else params or ()
            counts["pretrain.grad_tensors", self.op] += sum(
                p.grad is not None for p in values)

        def model_forward(args, _):
            x = np.asarray(args[1])
            counts["model.model_forward.rows", self.op] += 1 if x.ndim == 1 else x.shape[0]

        def load_csv(_, result):
            counts["data.load_csv.cells", self.op] += sum(len(s) for s in result)

        return {
            "numcore.backward": backward,
            "numcore.zero_grads": zero_grads,
            "numcore.adamw_step": adamw_step,
            "model.model_forward": model_forward,
            "data.load_csv": load_csv,
        }

    def install(self):
        """Wrap every public callable of the nine layers and rebind it in
        every loaded tinytsfm module and in the CLI's command table. The
        wrappers are built once; later installs re-apply them."""
        if not self._patches:
            self._build()
        for owner, attr, _, wrapped in self._patches:
            _set(owner, attr, wrapped)
        return self

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._patches):
            _set(owner, attr, original)

    def _build(self):
        modules = {m: sys.modules[f"tinytsfm.{m}"] for m in LAYERS}
        hooks = self._counters()
        replaced = {}
        for module in modules.values():
            for owner, attr, raw, name in _public_callables(module):
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw, hooks.get(name))
                    replaced[id(raw)] = (raw, wrapped)
                self._patches.append((owner, attr, raw, wrapped))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "tinytsfm" and not mod_name.startswith("tinytsfm."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value and hit[1] is not value:
                    self._patches.append((module, attr, value, hit[1]))
        commands = modules["cli"].COMMANDS
        for key, fn in list(commands.items()):
            hit = replaced.get(id(fn))
            if hit is not None:
                self._patches.append((commands, key, fn, hit[1]))

    # ------------------------------------------------------------ analysis

    def __len__(self):
        return len(self._cols[0])

    def arrays(self):
        """Spans as parallel arrays: name id, start, end, parent, op."""
        return tuple(np.frombuffer(c, dtype=np.int64).copy() if len(c)
                     else np.zeros(0, dtype=np.int64) for c in self._cols)

    def self_times(self):
        """Per-span self time in ns (duration minus direct children)."""
        _, start, end, parent, _ = self.arrays()
        dur = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        return dur - covered.astype(np.int64)

    def count(self, key, ops=None):
        """Sum of a recorded count over the op ids in `ops` (all when None)."""
        return sum(v for (k, op), v in self.counts.items()
                   if k == key and (ops is None or op in ops))

    def group_self_ms(self, ops=None):
        """Self time in ms and call counts by metric group, over spans whose
        op id is in `ops` (all spans when None). Layer totals are keyed
        '<layer>.self_ms'; every other key is a group name."""
        nid, _, _, _, op = self.arrays()
        own = self.self_times()
        if ops is not None:
            keep = np.isin(op, list(ops))
            nid, own = nid[keep], own[keep]
        per_name = np.bincount(nid, weights=own, minlength=len(self.names))
        calls = np.bincount(nid, minlength=len(self.names))
        totals, n_calls = Counter(), Counter()
        for i, name in enumerate(self.names):
            if not calls[i]:
                continue
            group = GROUPS.get(name, name)
            ms = per_name[i] / 1e6
            totals[group] += ms
            totals[name.split(".", 1)[0] + ".self_ms"] += ms
            n_calls[group] += int(calls[i])
            if name in PRIMITIVES:
                n_calls["numcore.primitive"] += int(calls[i])
        return totals, n_calls

    def entry_self_ms(self, ops):
        """Self time in ms of the entry spans whose op id is in `ops`."""
        nid, _, _, parent, op = self.arrays()
        own = self.self_times()
        cli_entry = np.array([is_entry(n, 0) for n in self.names], dtype=bool)
        entry = (parent < 0) | cli_entry[nid]
        return float(own[entry & np.isin(op, list(ops))].sum()) / 1e6

    def save(self, path):
        """Write the spans and the name table (numpy .npz)."""
        nid, start, end, parent, op = self.arrays()
        np.savez_compressed(path, name=nid, start=start, end=end, parent=parent,
                            op=op, names=np.asarray(self.names))


def _set(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)
