"""Per-layer spans and counts, recorded from outside the program.

The tracer replaces selected public functions and methods of the aircast
modules with wrappers that time each call and note the span that caused
it, and undoes the replacement on exit. Each layer metric is the sum, per
op, of its spans or counts; ``cli.self_s`` is the op time that no span
directly under the op covers. Autodiff primitives (matmul, add, ...) are
not wrapped: they run hundreds of thousands of times per op and a wrapper
would cost more than most of them; only Tensor construction is counted.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

# metric name -> (unit, span or counter it sums)
LAYER_METRICS = {
    "data.parse_readings_s": ("s", "data.parse_readings"),
    "data.impute_missing_s": ("s", "data.impute_missing"),
    "data.resample_3h_s": ("s", "data.resample_3h"),
    "data.save_dataset_s": ("s", "data.save_dataset"),
    "data.load_dataset_s": ("s", "data.load_dataset"),
    "data.make_windows_s": ("s", "data.make_windows"),
    "graph.from_stations_s": ("s", "graph.from_stations"),
    "graph.scaled_laplacian_s": ("s", "graph.scaled_laplacian"),
    "model.encode_s": ("s", "model.encode"),
    "model.decode_s": ("s", "model.decode"),
    "model.forward_train_s": ("s", "model.forward_train"),
    "model.forward_infer_s": ("s", "model.forward_infer"),
    "physics.rhs_s": ("s", "physics.rhs"),
    "physics.rhs_calls": ("count", "#physics.rhs"),
    "physics.cheb_diff_s": ("s", "physics.cheb_diff"),
    "physics.cheb_adv_s": ("s", "physics.cheb_adv"),
    "physics.gate_s": ("s", "physics.gate"),
    "physics.flow_laplacian_s": ("s", "physics.flow_laplacian"),
    "odeint.solve_s": ("s", "odeint.solve"),
    "odeint.nfe_per_solve": ("count", None),
    "odeint.accepted_steps": ("count", "#odeint.accepted"),
    "odeint.rejected_steps": ("count", "#odeint.rejected"),
    "autodiff.backward_s": ("s", "autodiff.backward"),
    "autodiff.tape_entries": ("count", "#autodiff.tape_entries"),
    "autodiff.tensors_created": ("count", "#autodiff.tensors"),
    "training.train_loop_s": ("s", "training.train_loop"),
    "training.clip_s": ("s", "training.clip"),
    "training.adam_s": ("s", "training.adam"),
    "cli.self_s": ("s", "cli.self"),
}


class Tracer:
    """Spans of the ops run while installed. Use as a context manager."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op_totals: list[dict] = []
        self._totals = None          # the running op's totals, or None
        self._stack: list[int] = []  # open spans, innermost last
        self._covered: float = 0.0   # time of spans directly under the op
        self._op_span = -1
        self.tensors = 0             # Tensor constructions so far
        self._tensors_before = 0
        self._undo: list = []

    # ------------------------------------------------------------ spans

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        t = perf_counter()
        self.end[idx] = t
        self._stack.pop()
        dur = t - self.start[idx]
        self._totals[self.names[idx]] += dur
        if self.parent[idx] == self._op_span:
            self._covered += dur

    def span(self, name, fn, on_result=None, on_call=None):
        """Wrapper of fn that records a span called name (or name(*args)
        when name is callable) while an op runs."""
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._totals is None:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(tracer._totals)
            idx = tracer._open(name(*args, **kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if on_result is not None:
                on_result(tracer._totals, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def begin_op(self) -> None:
        self._totals = defaultdict(float)
        self._covered = 0.0
        self._tensors_before = self.tensors
        self._op_span = self._open("cli.op")

    def end_op(self) -> None:
        op = self._op_span
        self._close(op)
        totals = self._totals
        totals["cli.self"] = (self.end[op] - self.start[op]) - self._covered
        totals["#autodiff.tensors"] = self.tensors - self._tensors_before
        self.op_totals.append(dict(totals))
        self._totals = None

    def layer_metrics(self) -> dict:
        """Each layer metric per op: the median over the run's ops for a
        time, the last op's value for a count. Counts repeat exactly from
        the second op on; the README says why the first can differ."""
        from statistics import median

        out = {}
        for metric, (unit, key) in LAYER_METRICS.items():
            if metric == "odeint.nfe_per_solve":
                values = [t.get("#physics.rhs", 0) / t["#odeint.solves"]
                          if t.get("#odeint.solves") else 0
                          for t in self.op_totals]
            else:
                values = [t.get(key, 0) for t in self.op_totals]
            value = median(values) if unit == "s" else values[-1]
            out[metric] = {"value": float(value), "unit": unit}
        return out

    def write(self, path, header: dict) -> None:
        t0 = self.start[0] if self.start else 0.0
        doc = dict(header, ops=self.op_totals, spans={
            "name": self.names,
            "start_s": [round(t - t0, 7) for t in self.start],
            "end_s": [round(t - t0, 7) for t in self.end],
            "parent": self.parent,
        })
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))

    # -------------------------------------------------------- patching

    def _replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_function(self, module, attr: str, name, **hooks) -> None:
        """Wrap module.attr everywhere an aircast module holds it by name."""
        import sys

        original = getattr(module, attr)
        wrapped = self.span(name, original, **hooks)
        for modname, mod in list(sys.modules.items()):
            if (modname == "aircast" or modname.startswith("aircast.")) \
                    and mod.__dict__.get(attr) is original:
                self._replace(mod, attr, wrapped)

    def __enter__(self):
        from aircast import autodiff, data, graph, model, odeint, physics, training

        def count(key):
            def hook(totals):
                totals[key] += 1
            return hook

        def tape(totals):
            totals["#autodiff.tape_entries"] += autodiff.tape_size()

        def steps(totals, result):
            totals["#odeint.accepted"] += result[1].accepted
            totals["#odeint.rejected"] += result[1].rejected

        def branch(lap, h0, params):
            prefix = params.thetas[0][0].name.split(".")[0]
            return "physics.cheb_diff" if prefix == "diff" else "physics.cheb_adv"

        def forward(self_, samples, mode, *_a, **_k):
            return f"model.forward_{mode}"

        for attr in ("parse_readings", "impute_missing", "resample_3h",
                     "save_dataset", "load_dataset", "make_windows",
                     "chronological_split"):
            self._replace_function(data, attr, f"data.{attr}")
        self._replace_function(graph, "load_stations", "graph.load_stations")
        self._replace_function(graph, "scaled_laplacian", "graph.scaled_laplacian")
        from_stations = graph.SensorGraph.__dict__["from_stations"].__func__
        self._replace(graph.SensorGraph, "from_stations", classmethod(
            self.span("graph.from_stations", from_stations)))
        for attr, name in (("encode_history", "model.encode"),
                           ("decode_trajectory", "model.decode"),
                           ("load_checkpoint", "model.load_checkpoint"),
                           ("save_checkpoint", "model.save_checkpoint"),
                           ("model_from_checkpoint", "model.from_checkpoint")):
            self._replace_function(model, attr, name)
        self._replace(model.Model, "__init__",
                      self.span("model.init", model.Model.__init__))
        self._replace(model.Model, "forward_batch",
                      self.span(forward, model.Model.forward_batch))
        self._replace(physics.DEFunction, "__call__", self.span(
            "physics.rhs", physics.DEFunction.__call__,
            on_call=count("#physics.rhs")))
        self._replace_function(physics, "cheb_branch", branch)
        self._replace_function(physics, "gate_alpha", "physics.gate")
        self._replace_function(physics, "flow_scaled_laplacian",
                               "physics.flow_laplacian")
        self._replace_function(odeint, "ode_solve", "odeint.solve",
                               on_call=count("#odeint.solves"))
        self._replace_function(odeint, "dopri5_integrate_stats", "odeint.dopri5",
                               on_result=steps)
        self._replace_function(autodiff, "backward", "autodiff.backward",
                               on_call=tape)
        self._replace_function(training, "train_loop", "training.train_loop")
        self._replace_function(training, "clip_gradients", "training.clip")
        self._replace(training.Adam, "step",
                      self.span("training.adam", training.Adam.step))
        init = autodiff.Tensor.__init__
        tracer = self

        def counted_init(self_, values, requires_grad=False):
            tracer.tensors += 1
            init(self_, values, requires_grad)

        self._replace(autodiff.Tensor, "__init__", counted_init)
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        return False
