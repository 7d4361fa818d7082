"""Outside-in trace of one job, layer by layer.

The traced job composes the pipeline that ``run_experiment`` runs from each
module's public functions and records a span around every call into a layer,
plus work counts at the same boundaries. Nothing inside ``evokernel`` is
patched. Alignment has no public function of its own, so its time is derived:
``distance_matrix`` minus the embedding and cross-distance calls that do the
same embedding and cross work outside it.

The composition must reproduce the program: the worker checks its episodes
against ``generate_episode`` and its fold accuracies against the untraced
report, and counts any mismatch as a failed operation.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np

from evokernel import augment, embedding, experiment, gdtw, graphs, heat, kernel, svm, tu_io

# Every public name the composition calls. A missing one fails the run.
TRACED_CALLS = (
    (tu_io, "load_tu_dataset"),
    (graphs, "Graph"),
    (graphs, "normalized_laplacian"),
    (heat, "spectral_decompose"),
    (heat, "select_heat_method"),
    (heat, "compute_heat_kernel"),
    (heat, "propagate_heat"),
    (augment, "heat_distribution"),
    (augment, "snapshot_rng"),
    (augment, "drop_node"),
    (augment, "generate_episode"),
    (augment, "TemporalEpisode"),
    (embedding, "wl_embed"),
    (gdtw, "cross_distances"),
    (kernel, "distance_matrix"),
    (kernel, "evolution_kernel"),
    (kernel, "clip_psd"),
    (kernel, "EvolutionKernelMatrix"),
    (experiment, "stratified_folds"),
    (svm, "svm_train"),
    (svm, "svm_predict"),
)


def missing_calls() -> list[str]:
    return [
        f"{module.__name__}.{name}"
        for module, name in TRACED_CALLS
        if not callable(getattr(module, name, None))
    ]


class Tracer:
    """Spans (job, id, parent, name, start, end) and per-job counters, in memory.

    Span ids are unique within the tracer; every span of one job carries that
    job's id, and the job's root span is the ancestor of all of them.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[int, dict[str, float]] = {}
        self._job = -1
        self._stack: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((self._job, sid, parent, name, start, end))

    def count(self, name: str, value: float = 1) -> None:
        job = self.counts[self._job]
        job[name] = job.get(name, 0) + value

    def job(self, job_id: int):
        self._job = job_id
        self.counts[job_id] = {}
        return self.span("job")

    def write_jsonl(self, path) -> None:
        keys = ("job", "id", "parent", "name", "start", "end")
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(dict(zip(keys, record))) + "\n")

    def layer_metrics(self, job_id: int) -> dict[str, float]:
        """Per-layer metrics of one job, from its spans and counters.

        ``trace.overhead_s`` needs the untraced time and is left to the caller.
        """
        t: dict[str, float] = {}
        for job, _, _, name, start, end in self.spans:
            if job == job_id:
                t[name] = t.get(name, 0.0) + (end - start)
        c = self.counts[job_id]
        embed, cross, dm = t["embedding.embed"], t["gdtw.cross"], t["kernel.distance_matrix"]
        align = dm - embed - cross
        return {
            "tu_io.load_s": t["tu_io.load"],
            "tu_io.nodes": c["tu_io.nodes"],
            "tu_io.edges": c["tu_io.edges"],
            "heat.spectral_s": t["heat.spectral"],
            "heat.kernel_s": t["heat.kernel"],
            "heat.eigh_calls": c["heat.eigh_calls"],
            "heat.method.exact": c.get("heat.method.exact", 0),
            "heat.method.taylor2": c.get("heat.method.taylor2", 0),
            "heat.method.fiedler": c.get("heat.method.fiedler", 0),
            "augment.draw_s": t["augment.draw"],
            "augment.snapshots": c["augment.snapshots"],
            "augment.keep_rate": c["augment.kept"] / c["augment.offered"],
            "augment.empty_snapshots": c.get("augment.empty_snapshots", 0),
            "embedding.embed_s": embed,
            "embedding.node_rounds": c["embedding.node_rounds"],
            "embedding.ns_per_node_round": embed / c["embedding.node_rounds"] * 1e9,
            "gdtw.cross_s": cross,
            "gdtw.cross_bytes": c["gdtw.cross_bytes"],
            "gdtw.align_s": align,
            "gdtw.pairs": c["gdtw.pairs"],
            "gdtw.cells": c["gdtw.cells"],
            "gdtw.ns_per_cell": align / c["gdtw.cells"] * 1e9,
            "kernel.distance_matrix_s": dm,
            "kernel.exp_s": t["kernel.exp"],
            "kernel.clip_s": t.get("kernel.clip", 0.0),
            "kernel.neg_eigs": c["kernel.neg_eigs"],
            "kernel.neg_mass": c["kernel.neg_mass"],
            "svm.train_s": t["svm.train"],
            "svm.predict_s": t["svm.predict"],
            "svm.machines": c["svm.machines"],
            "svm.updates": c["svm.updates"],
            "svm.cap_hits": c["svm.cap_hits"],
            "svm.support_vectors": c["svm.support_vectors"],
        }


def traced_job(tr: Tracer, job_id: int, configs) -> tuple[list[list[float]], list[list]]:
    """One traced job: one traced run per config, as ``sweep_time_length`` does.

    Returns the fold accuracies and the composed episodes of every run.
    """
    folds, episodes = [], []
    with tr.job(job_id):
        for cfg in configs:
            with tr.span("run"):
                accuracies, run_episodes = _traced_run(tr, cfg)
            folds.append(accuracies)
            episodes.append(run_episodes)
    return folds, episodes


def _traced_run(tr: Tracer, cfg):
    with tr.span("tu_io.load"):
        dataset = tu_io.load_tu_dataset(cfg.dataset_dir, cfg.dataset_name)
    tr.count("tu_io.nodes", sum(g.node_count for g in dataset.graphs))
    tr.count("tu_io.edges", sum(g.edge_count for g in dataset.graphs))

    times = cfg.time_grid()
    with tr.span("episodes"):
        episodes = [_traced_episode(tr, g, times, cfg, i) for i, g in enumerate(dataset.graphs)]

    metric = cfg.metric_config()
    # Graphs cache their neighbour lists; embed fresh copies so that this
    # call, like the one inside distance_matrix, starts with cold caches.
    snapshots = [graphs.Graph(s.node_count, s.edges, s.node_labels) for e in episodes for s in e.snapshots]
    with tr.span("embedding.embed"):
        embeddings = np.stack([embedding.wl_embed(s, metric).vector for s in snapshots])
    tr.count("embedding.node_rounds", sum(s.node_count for s in snapshots) * (metric.wl_iterations + 1))
    with tr.span("gdtw.cross"):
        gdtw.cross_distances(embeddings, embeddings)
    rows = len(snapshots)
    tr.count("gdtw.cross_bytes", rows * rows * 8)

    with tr.span("kernel.distance_matrix"):
        d = kernel.distance_matrix(episodes, metric)
    n, steps = len(episodes), len(times)
    tr.count("gdtw.pairs", n * (n - 1) // 2)
    tr.count("gdtw.cells", n * (n - 1) // 2 * steps * steps)

    with tr.span("kernel.exp"):
        raw = kernel.evolution_kernel(d, cfg.gamma_scale, "none")
    k = raw.k
    if cfg.psd_repair == "clip":
        with tr.span("kernel.clip"):
            k = kernel.clip_psd(raw.k)
    eigenvalues = np.linalg.eigvalsh(raw.k)
    negative = eigenvalues[eigenvalues < 0]
    tr.count("kernel.neg_eigs", int(negative.size))
    tr.count("kernel.neg_mass", float(-negative.sum()))
    ek = kernel.EvolutionKernelMatrix(k=k, sigma=raw.sigma, psd_repair=cfg.psd_repair)

    labels = dataset.labels
    accuracies = []
    with tr.span("cv"):
        for train, test in experiment.stratified_folds(labels, cfg.folds, cfg.seed):
            with tr.span("svm.train"):
                model = svm.svm_train(ek, labels, train, cfg.c)
            with tr.span("svm.predict"):
                predictions = [svm.svm_predict(model, ek.k[t, train]) for t in test]
            hits = sum(int(p == labels[t]) for p, t in zip(predictions, test))
            accuracies.append(hits / len(test))
            tr.count("svm.machines", len(model.machines))
            tr.count("svm.updates", sum(m.updates for m in model.machines))
            tr.count("svm.cap_hits", sum(int(m.cap_hit) for m in model.machines))
            tr.count("svm.support_vectors", sum(len(m.support) for m in model.machines))
    return accuracies, episodes


def _traced_episode(tr: Tracer, g, times, cfg, index: int):
    """The episode ``generate_episode`` draws, built from the heat and augment layers."""
    boltzmann = cfg.boltzmann_config()
    snapshots, masks = [], []
    if not cfg.cumulative:
        lap, spec = _spectral(tr, g)
        for k, t in enumerate(times):
            snap, keep = _draw(tr, g, lap, spec, float(t), cfg, boltzmann, index, k)
            snapshots.append(snap)
            masks.append(keep)
    else:
        current = g
        src_ids = np.arange(g.node_count)
        for k, t in enumerate(times):
            dt = float(t if k == 0 else t - times[k - 1])
            if current.node_count == 0:
                snapshots.append(current)
                masks.append(np.zeros(g.node_count, dtype=bool))
                continue
            lap, spec = _spectral(tr, current)
            snap, keep_local = _draw(tr, current, lap, spec, dt, cfg, boltzmann, index, k)
            src_ids = src_ids[keep_local]
            mask = np.zeros(g.node_count, dtype=bool)
            mask[src_ids] = True
            snapshots.append(snap)
            masks.append(mask)
            current = snap
    tr.count("augment.snapshots", len(snapshots))
    tr.count("augment.empty_snapshots", sum(1 for s in snapshots if s.node_count == 0))
    return augment.TemporalEpisode(
        source=g, times=times, snapshots=snapshots, seed=int(cfg.seed), kept_masks=masks
    )


def _spectral(tr: Tracer, g):
    with tr.span("heat.spectral"):
        lap = graphs.normalized_laplacian(g)
        spec = heat.spectral_decompose(lap)
    tr.count("heat.eigh_calls")
    return lap, spec


def _draw(tr: Tracer, g, lap, spec, t: float, cfg, boltzmann, index: int, k: int):
    with tr.span("heat.kernel"):
        method = cfg.heat_method
        if method == heat.METHOD_AUTO:
            method = heat.select_heat_method(spec, t)
        hk = heat.compute_heat_kernel(lap, spec, t, method)
        dist = augment.heat_distribution(heat.propagate_heat(hk, cfg.u0), boltzmann)
    tr.count(f"heat.method.{method}")
    with tr.span("augment.draw"):
        snap, keep = augment.drop_node(g, dist, augment.snapshot_rng(cfg.seed, index, k))
    tr.count("augment.offered", g.node_count)
    tr.count("augment.kept", snap.node_count)
    return snap, keep


def episodes_match(composed, cfg) -> bool:
    """Whether composed episodes equal ``generate_episode`` on the same inputs."""
    times = cfg.time_grid()
    for i, ep in enumerate(composed):
        ref = augment.generate_episode(
            ep.source,
            times,
            cfg.boltzmann_config(),
            cfg.u0,
            cfg.seed,
            graph_index=i,
            method=cfg.heat_method,
            cumulative=cfg.cumulative,
        )
        if (
            not np.array_equal(ep.times, ref.times)
            or ep.snapshots != ref.snapshots
            or len(ep.kept_masks) != len(ref.kept_masks)
            or not all(np.array_equal(a, b) for a, b in zip(ep.kept_masks, ref.kept_masks))
        ):
            return False
    return True
