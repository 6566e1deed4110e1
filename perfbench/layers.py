"""Which library names the traced run wraps, and the per-layer metrics.

Each layer is a module of ``composite_bosons``.  A metric reads the spans
of one traced CLI command.  When a name it depends on no longer exists in
the library, the metric is left out rather than reported as zero.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

from spans import Span, Tracer, self_times

TERMS = ("SS", "SSSS", "CC", "CSS", "SSC", "SCSC", "CCCC")
DOMAINS = ("hamiltonian", "oracle")
ROOT = "cli.main"


def _composites(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs["composites"] = result.n_composites


def _states(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs["states"] = result.dim


def _term(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs["term"] = args[0].value
    span.attrs["nnz"] = result.nnz


def _bytes(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs["bytes"] = len(args[1].encode("utf-8"))


@dataclass(frozen=True)
class Target:
    dotted: str
    span: str
    aggregate: bool = False
    count_only: bool = False
    domain: str | None = None
    on_return: Callable | None = None


TARGETS = (
    Target("composite_bosons.cli.build_mode_space", "models.build"),
    Target("composite_bosons.modespace.ModeSpace.solve_composites", "modespace.solve",
           on_return=_composites),
    Target("composite_bosons.cli.enumerate_sector", "fock.enumerate", on_return=_states),
    Target("composite_bosons.oracle.enumerate_sector", "fock.enumerate", on_return=_states),
    Target("composite_bosons.hamiltonian.apply_ladder", "fock.ladder", count_only=True),
    Target("composite_bosons.algebra.ElementEngine.element", "algebra.element", aggregate=True),
    Target("composite_bosons.algebra.labeled_matrix_element", "algebra.contract", aggregate=True),
    Target("composite_bosons.cli.assemble_hamiltonian", "hamiltonian.assemble"),
    Target("composite_bosons.hamiltonian.build_term", "hamiltonian.build_term",
           domain="hamiltonian", on_return=_term),
    Target("composite_bosons.oracle.build_term", "hamiltonian.build_term",
           domain="hamiltonian", on_return=_term),
    Target("composite_bosons.numerics.SparseMatrix.from_triples", "numerics.canonicalize"),
    Target("composite_bosons.cli.sparse_lowest_eigen", "numerics.eig"),
    Target("composite_bosons.cli.verify_sectors", "oracle.verify", domain="oracle"),
    Target("composite_bosons.oracle.expand_basis_state", "oracle.expand"),
    Target("composite_bosons.oracle.apply_projected_term", "oracle.apply", domain="oracle"),
    Target("composite_bosons.oracle.formal_inner_product", "oracle.inner", aggregate=True),
    Target("composite_bosons.cli.dump_json", "cli.serialize"),
    Target("composite_bosons.cli._write_text", "cli.write", on_return=_bytes),
)

# Names that are only checked for existence: the hamiltonian side of the
# algebra split means nothing once hamiltonian stops using the engine.
PROBES = {"hamiltonian": "composite_bosons.hamiltonian.ElementEngine"}


def install(tracer: Tracer) -> None:
    for t in TARGETS:
        tracer.wrap(t.dotted, t.span, aggregate=t.aggregate, count_only=t.count_only,
                    domain=t.domain, on_return=t.on_return)
    for dotted in PROBES.values():
        tracer.probe(dotted)


class _View:
    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.own = self_times(tracer.spans)
        self.by_name: dict[str, list[Span]] = defaultdict(list)
        for s in tracer.spans:
            self.by_name[s.name].append(s)

    def select(self, name: str, domain: str | None = None) -> list[Span]:
        return [s for s in self.by_name[name] if domain is None or s.domain == domain]

    def total(self, name: str, domain: str | None = None) -> float:
        return sum(s.duration for s in self.select(name, domain))

    def own_time(self, name: str) -> float:
        return sum(self.own[s.id] for s in self.by_name[name])

    def calls(self, name: str, domain: str | None = None) -> int:
        return sum(s.calls for s in self.select(name, domain))

    def attr_sum(self, name: str, key: str, term: str | None = None) -> float:
        return sum(
            s.attrs.get(key, 0) for s in self.by_name[name]
            if term is None or s.attrs.get("term") == term
        )

    def hit_ratio(self, domain: str | None = None) -> float:
        lookups = self.calls("algebra.element", domain)
        if lookups == 0:
            return 0.0
        return 1.0 - self.calls("algebra.contract", domain) / lookups

    def under_verify(self, name: str) -> float:
        verify_ids = {s.id for s in self.by_name["oracle.verify"]}
        return sum(s.duration for s in self.by_name[name] if s.parent in verify_ids)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    reads: tuple[str, ...]  # span names (and probe keys) the value is read from
    value: Callable[[_View], float]


def _algebra_metrics() -> list[Metric]:
    out = [Metric("algebra.lookup_s", "s", ("algebra.element",),
                  lambda v: v.own_time("algebra.element"))]
    for domain in (None, *DOMAINS):
        suffix = "" if domain is None else f".{domain}"
        needs = ("algebra.element", "algebra.contract") + ((domain,) if domain in PROBES else ())
        out += [
            Metric(f"algebra.element_calls{suffix}", "count", needs,
                   lambda v, d=domain: v.calls("algebra.element", d)),
            Metric(f"algebra.contractions{suffix}", "count", needs,
                   lambda v, d=domain: v.calls("algebra.contract", d)),
            Metric(f"algebra.hit_ratio{suffix}", "ratio", needs,
                   lambda v, d=domain: v.hit_ratio(d)),
            Metric(f"algebra.contract_s{suffix}", "s", needs,
                   lambda v, d=domain: v.total("algebra.contract", d)),
        ]
    return out


METRICS: tuple[Metric, ...] = (
    Metric("models.build_s", "s", ("models.build",), lambda v: v.own_time("models.build")),
    Metric("modespace.solve_s", "s", ("modespace.solve",),
           lambda v: v.own_time("modespace.solve")),
    Metric("modespace.composites", "count", ("modespace.solve",),
           lambda v: v.attr_sum("modespace.solve", "composites")),
    Metric("fock.enumerate_s", "s", ("fock.enumerate",), lambda v: v.own_time("fock.enumerate")),
    Metric("fock.states", "count", ("fock.enumerate",),
           lambda v: v.attr_sum("fock.enumerate", "states")),
    Metric("fock.ladder_calls", "count", ("fock.ladder",),
           lambda v: v.tracer.counts["fock.ladder"]),
    *_algebra_metrics(),
    *(
        Metric(f"hamiltonian.term_s.{t}", "s", ("hamiltonian.build_term",),
               lambda v, t=t: sum(s.duration for s in v.by_name["hamiltonian.build_term"]
                                  if s.attrs.get("term") == t))
        for t in TERMS
    ),
    Metric("hamiltonian.term_self_s", "s", ("hamiltonian.build_term",),
           lambda v: v.own_time("hamiltonian.build_term")),
    Metric("hamiltonian.assemble_self_s", "s", ("hamiltonian.assemble",),
           lambda v: v.own_time("hamiltonian.assemble")),
    *(
        Metric(f"hamiltonian.nnz.{t}", "count", ("hamiltonian.build_term",),
               lambda v, t=t: v.attr_sum("hamiltonian.build_term", "nnz", t))
        for t in TERMS
    ),
    Metric("numerics.eig_s", "s", ("numerics.eig",), lambda v: v.own_time("numerics.eig")),
    Metric("numerics.canonicalize_s", "s", ("numerics.canonicalize",),
           lambda v: v.own_time("numerics.canonicalize")),
    Metric("numerics.canonicalize_calls", "count", ("numerics.canonicalize",),
           lambda v: v.calls("numerics.canonicalize")),
    Metric("oracle.expand_s", "s", ("oracle.expand",), lambda v: v.own_time("oracle.expand")),
    Metric("oracle.apply_self_s", "s", ("oracle.apply",),
           lambda v: v.own_time("oracle.apply")),
    Metric("oracle.inner_s", "s", ("oracle.inner",), lambda v: v.own_time("oracle.inner")),
    Metric("oracle.inner_calls", "count", ("oracle.inner",), lambda v: v.calls("oracle.inner")),
    Metric("oracle.sq_build_s", "s", ("oracle.verify", "hamiltonian.build_term"),
           lambda v: v.under_verify("hamiltonian.build_term")),
    Metric("oracle.sweep_self_s", "s", ("oracle.verify",),
           lambda v: v.own_time("oracle.verify")),
    Metric("cli.write_s", "s", ("cli.serialize", "cli.write"),
           lambda v: v.own_time("cli.serialize") + v.own_time("cli.write")),
    Metric("cli.bytes_written", "bytes", ("cli.write",),
           lambda v: v.attr_sum("cli.write", "bytes")),
    Metric("cli.self_s", "s", (),
           lambda v: v.own_time(ROOT)),
)


def _unavailable(tracer: Tracer) -> set[str]:
    """Span names and probe keys whose library name has gone."""
    gone = {t.span for t in TARGETS if t.dotted in tracer.missing}
    gone |= {key for key, dotted in PROBES.items() if dotted in tracer.missing}
    return gone


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced command; absent where a name is gone."""
    view = _View(tracer)
    gone = _unavailable(tracer)
    return {m.name: float(m.value(view)) for m in METRICS if not gone.intersection(m.reads)}


# Together these cover every span, so they sum to the traced wall time.
SELF_TIME_METRICS = (
    "cli.self_s",
    "cli.write_s",
    "models.build_s",
    "modespace.solve_s",
    "fock.enumerate_s",
    "algebra.lookup_s",
    "algebra.contract_s",
    "hamiltonian.term_self_s",
    "hamiltonian.assemble_self_s",
    "numerics.canonicalize_s",
    "numerics.eig_s",
    "oracle.expand_s",
    "oracle.apply_self_s",
    "oracle.inner_s",
    "oracle.sweep_self_s",
)
