"""Declarative scenario descriptions for dissemination experiments.

A :class:`ScenarioSpec` is a frozen, JSON-serialisable description of
one dissemination workload: network size, scheme, code length, channel
imperfections (globally or per receiver), churn schedule, number of
content sources, cache warm-up, peer-sampling configuration, for
graph-shaped workloads an embedded
:class:`~repro.topology.spec.TopologySpec` that compiles into a
topology-aware sampler and channel, and for multi-content workloads an
embedded :class:`~repro.content.spec.CatalogueSpec` (demand model,
node caches, generation striping).  It compiles down to a fully
configured :class:`~repro.gossip.simulator.EpidemicSimulator` (or
:class:`~repro.content.simulator.CatalogueSimulator`) via
:meth:`build`, so a trial is reproducible from nothing but the spec
dict and an integer seed — which is exactly what the
:class:`~repro.scenarios.fleet.FleetRunner` ships to its workers (as
a :class:`~repro.scenarios.runner.TrialSpec`).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace

from repro.content.spec import CatalogueSpec
from repro.errors import SimulationError
from repro.gossip.channel import ChannelModel, ChurnPhase, HeterogeneousChannel
from repro.gossip.peer_sampling import PeerSampler, ViewSampler
from repro.gossip.simulator import EpidemicSimulator, Feedback
from repro.obs.spans import SpanRecorder
from repro.obs.spec import ObsSpec
from repro.rng import derive
from repro.schemes import resolve
from repro.topology.spec import TopologySpec

__all__ = ["ScenarioSpec"]

_FEEDBACKS = tuple(f.value for f in Feedback)
_SAMPLERS = ("uniform", "view", "topology")


@dataclass(frozen=True)
class ScenarioSpec:
    """One dissemination workload, declaratively.

    Every field is a plain JSON type (or a tuple of them), so a spec
    round-trips losslessly through :meth:`to_dict` / :meth:`from_dict`
    and :meth:`to_json` / :meth:`from_json`.
    """

    name: str
    scheme: str = "ltnc"
    n_nodes: int = 32
    k: int = 64
    feedback: str = "binary"
    source_pushes: int = 4
    n_sources: int = 1
    max_rounds: int = 200_000
    # -- channel imperfections ----------------------------------------
    loss_rate: float = 0.0
    duplicate_rate: float = 0.0
    churn_rate: float = 0.0
    node_loss: tuple[float, ...] = ()
    churn_phases: tuple[ChurnPhase, ...] = ()
    # -- cache warm-up (edge-cache workloads) -------------------------
    warm_fraction: float = 0.0
    warm_packets: int = 0
    # -- peer sampling ------------------------------------------------
    sampler: str = "uniform"
    view_size: int = 8
    renewal_period: int = 1
    # -- structured overlay (graph-shaped workloads) ------------------
    topology: TopologySpec | None = None
    # -- multi-content catalogue (demand + cache workloads) -----------
    content: CatalogueSpec | None = None
    # -- scheme-specific node knobs -----------------------------------
    node_kwargs: dict[str, object] = field(default_factory=dict)
    # -- observability (host-local; never part of workload identity) --
    obs: ObsSpec | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise SimulationError("scenario name must be non-empty")
        # Friendly error on unknown names; descriptors normalise to
        # their name so the spec stays a plain-JSON value.
        scheme = resolve(self.scheme)
        object.__setattr__(self, "scheme", scheme.name)
        if self.feedback not in _FEEDBACKS:
            raise SimulationError(
                f"feedback must be one of {_FEEDBACKS}, got {self.feedback!r}"
            )
        if (
            self.feedback == Feedback.FULL.value
            and not scheme.supports_full_feedback
        ):
            raise SimulationError(
                "feedback 'full' requires a scheme with smart-construction "
                f"support (supports_full_feedback), and {self.scheme!r} "
                "has none"
            )
        if self.sampler not in _SAMPLERS:
            raise SimulationError(
                f"sampler must be one of {_SAMPLERS}, got {self.sampler!r}"
            )
        if self.n_nodes < 2:
            raise SimulationError(f"n_nodes must be >= 2, got {self.n_nodes}")
        if self.k < 1:
            raise SimulationError(f"k must be >= 1, got {self.k}")
        if self.node_loss and len(self.node_loss) != self.n_nodes:
            raise SimulationError(
                f"node_loss must list one rate per node "
                f"({self.n_nodes}), got {len(self.node_loss)}"
            )
        if not 0.0 <= self.warm_fraction <= 1.0:
            raise SimulationError(
                f"warm_fraction must be in [0, 1], got {self.warm_fraction}"
            )
        if self.warm_packets < 0:
            raise SimulationError(
                f"warm_packets must be >= 0, got {self.warm_packets}"
            )
        # Tuple-ify sequence fields so equality and hashing behave even
        # when callers pass lists (e.g. straight out of JSON).
        object.__setattr__(self, "node_loss", tuple(float(r) for r in self.node_loss))
        object.__setattr__(
            self,
            "churn_phases",
            tuple(
                p if isinstance(p, ChurnPhase) else ChurnPhase(**p)
                for p in self.churn_phases
            ),
        )
        if self.topology is not None and not isinstance(
            self.topology, TopologySpec
        ):
            object.__setattr__(
                self, "topology", TopologySpec.from_dict(self.topology)
            )
        if self.sampler == "topology" and self.topology is None:
            raise SimulationError(
                "sampler 'topology' requires a topology field"
            )
        if self.topology is not None and self.topology.root >= self.n_nodes:
            raise SimulationError(
                f"topology root {self.topology.root} outside node range "
                f"[0, {self.n_nodes})"
            )
        if self.content is not None and not isinstance(
            self.content, CatalogueSpec
        ):
            object.__setattr__(
                self, "content", CatalogueSpec.from_dict(self.content)
            )
        if self.obs is not None and not isinstance(self.obs, ObsSpec):
            object.__setattr__(self, "obs", ObsSpec.from_dict(self.obs))
        if self.content is not None:
            if self.feedback == Feedback.FULL.value:
                raise SimulationError(
                    "catalogue workloads support feedback 'none' or "
                    "'binary' (full-feedback smart construction is "
                    "single-content only)"
                )
            if self.warm_fraction or self.warm_packets:
                raise SimulationError(
                    "catalogue workloads model caches through the "
                    "content field; warm_fraction/warm_packets apply "
                    "to single-content scenarios only"
                )
            if self.content.cache_at_root and self.topology is None:
                raise SimulationError(
                    "cache_at_root requires a topology field"
                )
        # Spec-time knob validation: node_kwargs must satisfy the knob
        # schema of every scheme that will consume them — the
        # scenario's own scheme, or each content's scheme in a
        # catalogue workload (resolving the catalogue here also makes
        # bad pins/schemes fail at spec time, not mid-trial).
        where = f"scenario {self.name!r} node_kwargs"
        if self.content is not None:
            for content in self.content.resolve(self.k, self.scheme):
                resolve(content.scheme).validate_node_kwargs(
                    self.node_kwargs, where=where
                )
        else:
            scheme.validate_node_kwargs(self.node_kwargs, where=where)

    # -- compilation ---------------------------------------------------
    def channel(self) -> ChannelModel:
        """The channel model this spec describes."""
        if self.node_loss or self.churn_phases:
            return HeterogeneousChannel(
                loss_rate=self.loss_rate,
                duplicate_rate=self.duplicate_rate,
                churn_rate=self.churn_rate,
                node_loss=self.node_loss,
                churn_phases=self.churn_phases,
            )
        return ChannelModel(
            loss_rate=self.loss_rate,
            duplicate_rate=self.duplicate_rate,
            churn_rate=self.churn_rate,
        )

    def _sampler(self, seed: int) -> PeerSampler | None:
        if self.sampler != "view":
            return None  # uniform default, or topology (built with its graph)
        return ViewSampler(
            self.n_nodes,
            view_size=self.view_size,
            renewal_period=self.renewal_period,
            rng=derive(seed, "sampler", self.name),
        )

    def build(self, seed: int, metrics=None):
        """Compile the spec into a ready-to-run simulator.

        The same ``(spec, seed)`` pair always builds a bit-identical
        simulator, including the cache warm-up and any topology graph
        (grown from a seed derived off the trial seed), so any trial
        of a parallel sweep can be reproduced standalone.  Returns an
        :class:`EpidemicSimulator`, or a
        :class:`~repro.content.simulator.CatalogueSimulator` when the
        spec carries a ``content`` catalogue.

        *metrics* is an optional
        :class:`~repro.obs.metrics.MetricsCollector` the simulator
        records its mergeable telemetry into after the run; like the
        tracer, it is never part of the workload identity.
        """
        sampler = self._sampler(seed)
        channel = self.channel()
        graph = None
        if self.topology is not None:
            graph, topo_sampler, channel = self.topology.build(
                self.n_nodes,
                channel,
                seed,
                label=f"topology:{self.name}",
            )
            if self.sampler == "topology":
                sampler = topo_sampler
        tracer = None
        profiler = None
        if self.obs is not None and self.obs.enabled:
            tracer = self.obs.build_tracer(self.name, seed)
            profiler = self.obs.build_profiler()
        # With tracing off this is the shared null recorder path: the
        # wrap() below returns a singleton no-op context, no clock reads.
        spans = SpanRecorder(tracer)
        if self.content is not None:
            with spans.wrap("build", scenario=self.name):
                return self._build_catalogue(
                    seed, sampler, channel, graph, tracer, metrics
                )
        with spans.wrap("build", scenario=self.name):
            sim = EpidemicSimulator(
                self.scheme,
                self.n_nodes,
                self.k,
                feedback=Feedback(self.feedback),
                source_pushes=self.source_pushes,
                n_sources=self.n_sources,
                max_rounds=self.max_rounds,
                seed=seed,
                node_kwargs=dict(self.node_kwargs),
                sampler=sampler,
                channel=channel,
                tracer=tracer,
                profiler=profiler,
                metrics=metrics,
            )
            n_warm = int(round(self.warm_fraction * self.n_nodes))
            if n_warm and self.warm_packets:
                warm_rng = derive(seed, "prewarm", self.name)
                warm_ids = [
                    int(i)
                    for i in warm_rng.choice(
                        self.n_nodes, size=n_warm, replace=False
                    )
                ]
                sim.prewarm(warm_ids, self.warm_packets)
        return sim

    def _build_catalogue(
        self, seed, sampler, channel, graph, tracer=None, metrics=None
    ):
        """Compile the ``content`` field into a CatalogueSimulator.

        All catalogue randomness (demand assignment, cache placement,
        per-endpoint rngs) lives in :func:`repro.rng.derive` streams
        keyed under ``"content"``, so it cannot perturb the
        single-content master-draw layout and stays worker-count
        invariant.
        """
        from repro.content.demand import DemandModel
        from repro.content.simulator import CatalogueSimulator

        cat = self.content
        catalogue = cat.resolve(self.k, self.scheme)
        demand = DemandModel(len(catalogue), kind=cat.demand, s=cat.zipf_s)
        interests = demand.assign_interests(
            self.n_nodes,
            cat.interests_per_node,
            rng=derive(seed, "content", "demand", self.name),
        )
        cache_policy = None
        cache_nodes: tuple[int, ...] = ()
        pinned: frozenset[int] = frozenset()
        n_cache = int(round(cat.cache_fraction * self.n_nodes))
        if cat.cache_policy != "none" and n_cache:
            cache_policy = cat.cache_policy
            if cat.cache_at_root:
                # The nodes nearest the overlay root become the edge
                # caches — the origin feeds them first by construction.
                hops = graph.hops_from(self.topology.root)
                ranked = sorted(range(self.n_nodes), key=lambda i: (hops[i], i))
                cache_nodes = tuple(sorted(ranked[:n_cache]))
            else:
                cache_rng = derive(seed, "content", "caches", self.name)
                cache_nodes = tuple(
                    sorted(
                        int(i)
                        for i in cache_rng.choice(
                            self.n_nodes, size=n_cache, replace=False
                        )
                    )
                )
            name_to_index = {c.name: i for i, c in enumerate(catalogue)}
            pinned = frozenset(
                name_to_index[n] for n in cat.pin_contents
            )
        return CatalogueSimulator(
            catalogue,
            self.n_nodes,
            demand,
            interests,
            cache_policy=cache_policy,
            cache_capacity=cat.cache_capacity,
            cache_nodes=cache_nodes,
            pinned=pinned,
            binary_feedback=self.feedback == Feedback.BINARY.value,
            source_pushes=self.source_pushes,
            n_sources=self.n_sources,
            source_schedule=cat.source_schedule,
            max_rounds=self.max_rounds,
            seed=seed,
            node_kwargs=dict(self.node_kwargs),
            sampler=sampler,
            channel=channel,
            tracer=tracer,
            metrics=metrics,
        )

    def run(self, seed: int):
        """Build and run one trial.

        Returns the :class:`~repro.gossip.metrics.DisseminationResult`
        — or a :class:`~repro.content.metrics.CatalogueResult` for
        catalogue workloads; both expose the ``key_metrics()`` the
        aggregation layer consumes.
        """
        return self.build(seed).run()

    # -- serialisation -------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        """A plain-JSON dict (tuples become lists) that round-trips.

        The ``obs`` field is deliberately excluded: observability is a
        host-local concern (trace directories on this machine), not part
        of the workload's identity.  Aggregate JSON and fleet checkpoint
        fingerprints therefore stay byte-identical whether or not
        tracing is enabled.
        """
        payload = asdict(self)
        payload.pop("obs", None)
        payload["node_loss"] = list(self.node_loss)
        payload["churn_phases"] = [asdict(p) for p in self.churn_phases]
        payload["topology"] = (
            self.topology.to_dict() if self.topology is not None else None
        )
        payload["content"] = (
            self.content.to_dict() if self.content is not None else None
        )
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output (lists accepted)."""
        data = dict(payload)
        data["node_loss"] = tuple(data.get("node_loss") or ())
        data["churn_phases"] = tuple(data.get("churn_phases") or ())
        return cls(**data)  # type: ignore[arg-type]

    def to_json(self, **kwargs: object) -> str:
        kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **kwargs)  # type: ignore[arg-type]

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    def with_(self, **changes: object) -> "ScenarioSpec":
        """A copy with some fields replaced (profile rescaling etc.)."""
        return replace(self, **changes)  # type: ignore[arg-type]
