"""Per-layer spans taken around the package's public functions.

The package itself is not instrumented.  ``Tracer.installed()`` replaces
every reference the package resolves at run time to a traced function
(module attributes such as ``fockent.entanglement.reduced_density_matrix``,
which ``mode_entanglement`` looks up on each call, and dispatch tables such
as ``fockent.verification.CRITERIA``) with a wrapper that records a span,
and puts the originals back on exit.

A span is (name, start, end, parent, pass id), kept in memory.  A layer's
self time is a span's duration minus the time its direct child spans
cover; spans nest strictly because the benchmark is single-threaded.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import sys
import time
from dataclasses import dataclass

# metric name -> unit, in the order of the report
LAYER_METRICS = {
    "fock_core.enumerate_s": "s",
    "fock_core.sector_dim": "count",
    "states.build_s": "s",
    "states.terms": "count",
    "states.kept_ratio": "ratio",
    "dynamics.assemble_s": "s",
    "dynamics.propagate_s": "s",
    "dynamics.matrix_bytes": "B",
    "entanglement.rdm_s": "s",
    "entanglement.rdm_calls": "count",
    "entanglement.rdm_bytes": "B",
    "entanglement.entropy_s": "s",
    "analytic.closed_form_s": "s",
    "verification.criteria_s": "s",
    "cli.emit_s": "s",
    "cli.fermi_s": "s",
    "cli.exciton_s": "s",
    "cli.qh_s": "s",
    "cli.bcs_s": "s",
    "cli.bogoliubov_s": "s",
    "cli.dynamics_s": "s",
    "cli.verify_s": "s",
    "bench.trace_overhead_s": "s",
    "bench.layer_share": "ratio",
}

CLI_SCENARIOS = ("fermi", "exciton", "qh", "bcs", "bogoliubov", "dynamics", "verify")

STATE_BUILDERS = (
    "fermi_sea",
    "exciton_spinless",
    "exciton_spinful",
    "bcs_unprojected",
    "bcs_projected",
    "bogoliubov_unprojected",
    "bogoliubov_projected",
    "uniform_filling_state",
    "single_particle_superposition",
    "project_particle_number",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    pass_id: int


class PassCounters:
    """Work counts of one traced pass, recorded at the same boundaries."""

    def __init__(self) -> None:
        self.sector_dim = 0
        self.terms = 0
        self.visited = 0
        self.matrix_bytes = 0
        self.rdm_calls = 0
        self.rdm_bytes = 0


def _visited_patterns(fockent, name: str, bound: inspect.BoundArguments, terms: int) -> int:
    """Occupation patterns a constructor enumerates before pruning.

    Only the two condensate constructors walk a pattern grid that can hold
    zero amplitudes; every other constructor keeps what it visits.
    """
    args = bound.arguments
    if name == "bogoliubov_unprojected":
        registry, table = args["registry"], args["table"]
        cutoff = args.get("cutoff")
        condensate = registry.index_of(fockent.boson(0))
        visited = registry.cutoffs[condensate] // 2 + 1
        for u, v in table.values.values():
            n_max = cutoff if cutoff is not None else fockent.default_pair_cutoff(abs(v / u))
            visited *= n_max + 1
        return visited
    if name == "bogoliubov_projected":
        pairs = len(args["table"].values)
        return math.comb(args["total_number"] // 2 + pairs, pairs)
    return terms


class Tracer:
    def __init__(self, fockent) -> None:
        self.fockent = fockent
        self.spans: list[Span] = []
        self.counters: list[PassCounters] = []
        self.pass_id = -1
        self._stack: list[int] = []
        self._targets = self._collect_targets()

    # -- what is traced -------------------------------------------------

    def _collect_targets(self) -> list[tuple[object, str, str]]:
        """(original function, span name, metric) for every traced function."""
        fe = self.fockent
        targets = [
            (fe.fock_core.enumerate_sector, "fock_core.enumerate_s"),
            (fe.fock_core.sector_dimension, "fock_core.enumerate_s"),
            (fe.dynamics.hamiltonian_matrix, "dynamics.assemble_s"),
            (fe.dynamics.evolve_many, "dynamics.propagate_s"),
            (fe.dynamics.eigenstates, "dynamics.propagate_s"),
            (fe.entanglement.reduced_density_matrix, "entanglement.rdm_s"),
            (fe.entanglement.von_neumann_entropy, "entanglement.entropy_s"),
            (fe.cli.emit_table, "cli.emit_s"),
        ]
        targets += [(getattr(fe.states, name), "states.build_s") for name in STATE_BUILDERS]
        targets += [(getattr(fe.cli, f"run_{s}"), f"cli.{s}_s") for s in CLI_SCENARIOS]
        targets += [(f, "verification.criteria_s") for f in fe.verification.CRITERIA.values()]
        for name, obj in vars(fe.analytic).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == fe.analytic.__name__
                and not name.startswith("_")
                and not inspect.isgeneratorfunction(obj)
            ):
                targets.append((obj, "analytic.closed_form_s"))
        return [(f, f"{f.__module__.rsplit('.', 1)[-1]}.{f.__name__}", m) for f, m in targets]

    def _references(self):
        """(namespace, key, value) for every binding in the package's modules."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "fockent" or mod_name.startswith("fockent.")):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                yield namespace, key, value
                if isinstance(value, dict) and not key.startswith("__"):
                    for inner_key, inner in list(value.items()):
                        yield value, inner_key, inner

    @contextlib.contextmanager
    def installed(self):
        """Trace one pass: swap in the wrappers, then restore the originals."""
        self.pass_id += 1
        self.counters.append(PassCounters())
        wrappers = {id(f): self._wrap(f, span, metric) for f, span, metric in self._targets}
        swapped = []
        for namespace, key, value in self._references():
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                namespace[key] = wrapper
                swapped.append((namespace, key, value))
        try:
            yield
        finally:
            for namespace, key, value in swapped:
                namespace[key] = value

    def _wrap(self, func, span_name: str, metric: str):
        tracer = self
        counters = self.counters[-1]
        signature = inspect.signature(func)
        count = self._counter_for(func.__name__, metric, counters, signature)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            spans = tracer.spans
            index = len(spans)
            spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                spans[index] = Span(span_name, start, end, parent, tracer.pass_id)
            if count is not None:
                count(args, kwargs, result)
            return result

        return traced

    def _counter_for(self, name: str, metric: str, counters: PassCounters, signature):
        fe = self.fockent
        if name == "enumerate_sector":
            def count(args, kwargs, result):
                counters.sector_dim = max(counters.sector_dim, len(result))
        elif name == "hamiltonian_matrix":
            def count(args, kwargs, result):
                counters.matrix_bytes = max(counters.matrix_bytes, 16 * result.dimension**2)
        elif name == "reduced_density_matrix":
            def count(args, kwargs, result):
                counters.rdm_calls += 1
                counters.rdm_bytes += 16 * result.dimension**2
        elif metric == "states.build_s":
            def count(args, kwargs, result):
                terms = result.num_terms
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counters.terms += terms
                counters.visited += _visited_patterns(fe, name, bound, terms)
        else:
            return None
        return count

    # -- what is reported -----------------------------------------------

    def pass_metrics(self) -> list[tuple[dict[str, float], float]]:
        """Per traced pass: layer metrics, and the self time of all its spans.

        Layer times are self times, except ``cli.<scenario>_s``: a
        scenario's time is what its command costs, children included.
        """
        metric_of = {span: metric for _, span, metric in self._targets}
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.end - span.start
        out = []
        for pass_id, counters in enumerate(self.counters):
            values = {m: 0.0 for m, unit in LAYER_METRICS.items() if unit == "s"}
            self_total = 0.0
            for i, span in enumerate(self.spans):
                if span.pass_id != pass_id:
                    continue
                duration = span.end - span.start
                self_time = duration - covered[i]
                self_total += self_time
                metric = metric_of[span.name]
                inclusive = metric.startswith("cli.") and metric != "cli.emit_s"
                values[metric] += duration if inclusive else self_time
            values["fock_core.sector_dim"] = counters.sector_dim
            values["states.terms"] = counters.terms
            values["states.kept_ratio"] = (
                counters.terms / counters.visited if counters.visited else 1.0
            )
            values["dynamics.matrix_bytes"] = counters.matrix_bytes
            values["entanglement.rdm_calls"] = counters.rdm_calls
            values["entanglement.rdm_bytes"] = counters.rdm_bytes
            out.append((values, self_total))
        return out

    def span_records(self) -> list[list]:
        return [[s.name, s.start, s.end, s.parent, s.pass_id] for s in self.spans]
