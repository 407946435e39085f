"""In-memory span recorder that wraps privsynth's layer entry points at run time.

Nothing under ``src/`` is edited: :meth:`Tracer.install` replaces each entry
point in the namespace its caller looks it up in (for example
``pipeline.run_smote`` or ``KnnClassifier.predict``) with a wrapper that
records a span, and :meth:`Tracer.uninstall` puts the originals back. Timed
runs never install the wrappers.

A span is ``(name, start, end, parent, op)``. The layer of a span is the
first component of its name, which is the ``privsynth`` module it belongs
to. Work counts are taken at the same boundaries:

- ``*.rows``, ``*.pairs``, ``*.classes`` and ``classifiers.dt.nodes`` are read
  from the arguments and results of the call;
- ``*.matrix_bytes`` is the tracemalloc peak of the memory allocated inside
  a distance-kernel call (``smote.nearest_neighbors``,
  ``KnnClassifier.predict``). It is what the call materialises (distance
  matrix, sort keys and temporaries), measured, not a formula, so a
  streaming kernel would lower it. It is rounded down to whole 64 KiB
  blocks, because a few dozen bytes of interpreter bookkeeping inside the
  call vary with call history and the count must repeat exactly.
  tracemalloc runs only inside those calls: left on for the whole pass, it
  slows the allocation-heavy layers (CSV parsing, tree growing) several
  times over and distorts the profile.
"""

from __future__ import annotations

import functools
import gc
import json
import time
import tracemalloc
import weakref
from collections import defaultdict

_BLOCK = 64 * 1024


def _tree_nodes(root) -> int:
    count, stack = 0, [root]
    while stack:
        node = stack.pop()
        count += 1
        if node.left is not None:
            stack.extend((node.left, node.right))
    return count


class Tracer:
    """Records spans and counts while installed; one instance per traced run."""

    def __init__(self, privsynth_modules):
        self.m = privsynth_modules
        self.spans: list[tuple] = []  # (name, start, end, parent, op)
        self.counts: list[tuple] = []  # (span index, name, value)
        self.op = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._train_rows = weakref.WeakKeyDictionary()

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, count=None, bytes_metric=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer.spans.append(None)
            tracer._stack.append(index)
            if bytes_metric:
                gc_enabled = gc.isenabled()
                gc.disable()  # collections run at history-dependent times
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if bytes_metric:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    if gc_enabled:
                        gc.enable()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.op)
            if bytes_metric:
                tracer.counts.append((index, bytes_metric, peak - peak % _BLOCK))
            if count is not None:
                for metric, value in count(args, kwargs, result):
                    tracer.counts.append((index, metric, value))
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def _targets(self):
        """(namespace, attribute, span name, count function, bytes metric)."""
        m = self.m
        data, smote, noise, anonymity = m["data"], m["smote"], m["noise"], m["anonymity"]
        classifiers, metrics, pipeline, cli = (
            m["classifiers"], m["metrics"], m["pipeline"], m["cli"])
        knn, nb, dt = (classifiers.KnnClassifier, classifiers.NaiveBayesClassifier,
                       classifiers.DecisionTreeClassifier)
        train_rows = self._train_rows

        def rows_in(metric):
            return lambda args, kwargs, result: [(metric, len(args[0]))]

        def rows_out(metric):
            return lambda args, kwargs, result: [(metric, len(result))]

        def classes(args, kwargs, result):
            return [("anonymity.equivalence_classes.rows", len(args[0])),
                    ("anonymity.equivalence_classes.classes", len(result.sizes()))]

        def self_pairs(args, kwargs, result):
            return [("smote.nearest_neighbors.pairs", len(args[0]) ** 2)]

        def remember_train(args, kwargs, result):
            train_rows[args[0]] = len(args[1])
            return []

        def cross_pairs(args, kwargs, result):
            return [("classifiers.knn.pairs", len(args[1]) * train_rows[args[0]])]

        def tree_nodes(args, kwargs, result):
            return [("classifiers.dt.nodes", _tree_nodes(args[0].model.root))]

        load = ("data.load_csv", rows_out("data.load_csv.rows"), None)
        groups = ("anonymity.equivalence_classes", classes, None)
        risk = ("anonymity.risk_report", None, None)
        evaluate = ("metrics.evaluate", None, None)
        return [
            (cli, "main", "cli.main", None, None),
            (cli, "run_pipeline", "pipeline.run_pipeline", None, None),
            (cli, "run_sweep", "pipeline.run_sweep", None, None),
            (cli, "load_csv", *load),
            (cli, "equivalence_classes", *groups),
            (cli, "risk_report", *risk),
            (cli, "evaluate", *evaluate),
            (pipeline, "run_sweep", "pipeline.run_sweep", None, None),
            (pipeline, "run_stages", "pipeline.run_stages", None, None),
            (pipeline, "load_csv", *load),
            (pipeline, "write_csv", "data.write_csv", rows_in("data.write_csv.rows"), None),
            (pipeline, "stratified_split", "data.stratified_split", None, None),
            (pipeline, "run_smote", "smote.run_smote", None, None),
            (pipeline, "perturb", "noise.perturb", rows_out("noise.perturb.rows"), None),
            (pipeline, "equivalence_classes", *groups),
            (pipeline, "risk_report", *risk),
            (pipeline, "evaluate", *evaluate),
            (data, "load_csv", *load),
            (anonymity, "equivalence_classes", *groups),
            (anonymity, "risk_report", *risk),
            (smote, "nearest_neighbors", "smote.nearest_neighbors", self_pairs,
             "smote.nearest_neighbors.matrix_bytes"),
            (smote, "generate_synthetic", "smote.generate_synthetic",
             rows_out("smote.generate_synthetic.rows"), None),
            (knn, "fit", "classifiers.knn.fit", remember_train, None),
            (knn, "predict", "classifiers.knn.predict", cross_pairs,
             "classifiers.knn.matrix_bytes"),
            (nb, "fit", "classifiers.nb.fit", None, None),
            (nb, "predict", "classifiers.nb.predict", None, None),
            (dt, "fit", "classifiers.dt.fit", tree_nodes, None),
            (dt, "predict", "classifiers.dt.predict", None, None),
        ]

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, count, bytes_metric in self._targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, count, bytes_metric))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- summaries -------------------------------------------------------------

    def self_times(self, ops=None) -> dict:
        """Per span name: (total duration, total self time, calls)."""
        child_time = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals = defaultdict(lambda: [0.0, 0.0, 0])
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            if ops is not None and op not in ops:
                continue
            entry = totals[name]
            entry[0] += end - start
            entry[1] += end - start - child_time[index]
            entry[2] += 1
        return {name: tuple(v) for name, v in totals.items()}

    def root_time(self, ops=None) -> float:
        return sum(end - start for name, start, end, parent, op in self.spans
                   if parent is None and (ops is None or op in ops))

    def counts_by_op(self) -> dict:
        """op -> list of (span name, count name, value) in call order."""
        out = defaultdict(list)
        for index, name, value in self.counts:
            out[self.spans[index][4]].append((self.spans[index][0], name, value))
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
