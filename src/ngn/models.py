"""Classifier assembly, training loop, and experiment model builders."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .batched import (
    EdgePlan,
    GcnPlan,
    build_plain_gcn,
    gcn2_layer_numpy,
    gcn2_layer_tensor,
    gcn_forward_numpy,
    init_message_net_params,
    node_attrs_to_buffer,
)
from .errors import GenerationError
from .message_net import GcnMessageNet, _glorot, build_gcn_net

# Two graphs' embeddings are dissimilar when they differ by more than this
# times the mean embedding norm.
DISSIMILAR_EPS = 1e-3


@dataclass
class Gcn2Config:
    ngn_layers: int = 3
    msg_layers: int = 2
    hidden: int = 16
    classes: int = 2
    aggregation: str = "sum"
    dtype: type = np.float64


def init_classifier_params(
    rng: np.random.Generator, c_in: int, cfg: Gcn2Config
) -> dict[str, ad.Tensor]:
    params: dict[str, ad.Tensor] = {}
    width_in = c_in
    for layer in range(cfg.ngn_layers):
        params.update(
            init_message_net_params(
                rng,
                cfg.msg_layers,
                cfg.hidden,
                data_in=width_in,
                c_out=cfg.hidden,
                dtype=cfg.dtype,
                prefix=f"ngn{layer}",
            )
        )
        width_in = cfg.hidden
    params["head/w"] = ad.param(_glorot(rng, cfg.hidden, cfg.classes), dtype=cfg.dtype)
    params["head/b"] = ad.param(np.zeros(cfg.classes), dtype=cfg.dtype)
    return params


def classifier_logits(
    plan: EdgePlan, params: dict[str, ad.Tensor], x0: np.ndarray, cfg: Gcn2Config
) -> ad.Tensor:
    """Class logits of a batch; taped when any param requires a gradient."""
    x = ad.constant(x0.astype(cfg.dtype))
    for layer in range(cfg.ngn_layers):
        x = gcn2_layer_tensor(plan, params, x, prefix=f"ngn{layer}", aggregation=cfg.aggregation)
        if layer < cfg.ngn_layers - 1:
            x = ad.relu_(x)
    return ad.add(ad.matmul(_mean_pool(plan, x), params["head/w"]), params["head/b"])


def classifier_logits_numpy(
    plan: EdgePlan, params: dict[str, ad.Tensor], x0: np.ndarray, cfg: Gcn2Config
) -> np.ndarray:
    """``classifier_logits`` on constants that share the params' buffers, so
    that no tape is built."""
    constants = {name: ad.constant(p.data) for name, p in params.items()}
    return classifier_logits(plan, constants, x0, cfg).data


def _mean_pool(plan: EdgePlan, x: ad.Tensor) -> ad.Tensor:
    """Node features (mean over each block), then graph features (mean over
    nodes), each by the plan's kept scatter."""
    n_nodes, n_graphs = plan.n_nodes_total, len(plan.graphs)
    node_feats = ad.segment_mean(x, plan.node_seg, n_nodes, plan.scatter("node_seg", n_nodes, x.dtype))
    return ad.segment_mean(node_feats, plan.graph_of_node, n_graphs, plan.scatter("graph_of_node", n_graphs, x.dtype))


@dataclass
class TrainResult:
    losses: list[float]
    train_accuracy: float
    epochs_run: int
    diverged: bool = False


def train_classifier(
    plans: list[EdgePlan],
    inputs: list[np.ndarray],
    labels: list[np.ndarray],
    params: dict[str, ad.Tensor],
    cfg: Gcn2Config,
    epochs: int,
    rate: float,
    seed: int,
    decay: float = 0.97,
) -> TrainResult:
    """Adam over pre-batched plans; batch order reshuffles per epoch.

    The step size decays by ``decay`` per epoch, which keeps late-training
    minibatch steps from kicking the model out of its minimum.
    """
    rng = np.random.default_rng(seed)
    state = ad.AdamState(rate=rate)
    losses: list[float] = []
    for epoch in range(epochs):
        state.rate = rate * (decay**epoch)
        order = rng.permutation(len(plans))
        epoch_loss = 0.0
        for b in order:
            logits = classifier_logits(plans[b], params, inputs[b], cfg)
            loss = ad.softmax_cross_entropy(logits, labels[b])
            if not np.isfinite(loss.data):
                return TrainResult(losses, 0.0, epoch, diverged=True)
            grads = ad.grads_of(loss, params)
            ad.adam_step(state, params, grads)
            epoch_loss += float(loss.data) * len(labels[b])
        losses.append(epoch_loss / sum(len(l) for l in labels))
    return TrainResult(losses, accuracy(plans, inputs, labels, params, cfg), epochs)


def accuracy(plans: list[EdgePlan], inputs: list[np.ndarray], labels: list[np.ndarray], params, cfg: Gcn2Config) -> float:
    """The share of the batches' graphs whose largest logit is their label."""
    pred = [classifier_logits_numpy(plan, params, x0, cfg).argmax(axis=1) for plan, x0 in zip(plans, inputs)]
    return float((np.concatenate(pred) == np.concatenate(labels)).mean())


def make_batches(n: int, batch_size: int, rng: np.random.Generator) -> list[np.ndarray]:
    order = rng.permutation(n)
    return [order[i : i + batch_size] for i in range(0, n, batch_size)]


# ---------------------------------------------------------------------------
# Random-weight embedding models for the expressiveness experiment
# ---------------------------------------------------------------------------


@dataclass
class EmbeddingConfig:
    """Random-weight embedding models of the expressiveness experiment.

    On the strongly regular suite the distance between two embeddings is
    a random-feature estimate of a fixed structural difference. Depth
    raises that difference relative to the 1e-3 dissimilarity threshold:
    the median pair margin (distance / threshold) is about 1.3 with one
    NGN layer, 2.0 with two and 2.6 with three. Width does not raise the
    median; it narrows the spread of the estimate across weight seeds, so
    that the worst seed stays above the threshold (at width 32 about one
    seed in twenty leaves a pair below it). ``hidden = out = 128`` with
    three NGN layers keeps every pair above the threshold on weight seeds
    0-299.
    """

    ngn_layers: int = 3    # stacked NGN layers for the GCN² model
    layers: int = 2        # message-net depth (and baseline depth per block)
    hidden: int = 128
    out: int = 128
    dtype: type = np.float32


def gcn2_embeddings(
    plan: EdgePlan, attrs: list[np.ndarray], seed: int, cfg: EmbeddingConfig
) -> np.ndarray:
    """Graph embeddings from a random-weight stacked GCN², mean-pooled.

    Every product runs in ``cfg.dtype`` (float32 by default). One NGN layer
    alone separates structurally close graphs (strongly regular pairs) only
    marginally relative to the dissimilarity threshold; stacking amplifies
    the structural signal, and the default width of 128 channels keeps the
    random-weight estimate of that signal from dipping below the threshold
    at unlucky seeds (see ``EmbeddingConfig``).
    """
    rng = np.random.default_rng(seed)
    widths = [attrs[0].shape[1]] + [cfg.hidden] * (cfg.ngn_layers - 1) + [cfg.out]
    nets = [build_gcn_net(rng, cfg.layers, cfg.hidden, a, b, dtype=cfg.dtype) for a, b in zip(widths, widths[1:])]
    x = stacked_gcn2_numpy(plan, nets, node_attrs_to_buffer(plan, attrs, dtype=cfg.dtype))
    return _mean_pool(plan, ad.constant(x)).data


def stacked_gcn2_numpy(plan: EdgePlan, nets: list[GcnMessageNet], x: np.ndarray) -> np.ndarray:
    """One ``gcn2_layer_numpy`` per net, off the tape, rectified in place between layers."""
    for layer, net in enumerate(nets):
        x = gcn2_layer_numpy(plan, net, x)
        if layer < len(nets) - 1:
            np.maximum(x, 0, out=x)
    return x


def gcn_embeddings(
    plan: GcnPlan, attrs: list[np.ndarray], seed: int, cfg: EmbeddingConfig
) -> np.ndarray:
    """Baseline invariant-message-passing embeddings at matching total depth."""
    rng = np.random.default_rng(seed)
    depth = cfg.ngn_layers * cfg.layers
    net = build_plain_gcn(
        rng, depth, cfg.hidden, c_in=attrs[0].shape[1], c_out=cfg.out, dtype=cfg.dtype
    )
    x0 = np.vstack([d.astype(cfg.dtype) for d in attrs])
    x = gcn_forward_numpy(plan, net, x0)
    pool = plan.scatter("graph_of_node", len(plan.graphs), x.dtype)
    return ad.segment_mean(ad.constant(x), plan.graph_of_node, len(plan.graphs), pool).data


def dissimilar_pair_rate(embeddings: np.ndarray) -> float:
    """Fraction of graph pairs whose embeddings differ by more than
    ``DISSIMILAR_EPS`` times the mean embedding norm."""
    return pair_rate_and_margins(embeddings)[0]


def pair_rate_and_margins(embeddings: np.ndarray) -> tuple[float, np.ndarray]:
    """``dissimilar_pair_rate``, and each pair's margin: its distance divided
    by the threshold (``DISSIMILAR_EPS`` times the mean embedding norm), so
    that a pair is dissimilar when its margin is above 1. A pair at distance
    0 has margin 0, even when the threshold is 0 too."""
    n = embeddings.shape[0]
    if n < 2:
        raise GenerationError("need at least two graphs to compare")
    e64 = embeddings.astype(np.float64)
    threshold = DISSIMILAR_EPS * np.linalg.norm(e64, axis=1).mean()
    dist = np.linalg.norm(e64[:, None, :] - e64[None, :, :], axis=2)[np.triu_indices(n, k=1)]
    margins = np.divide(dist, threshold, out=np.zeros_like(dist), where=dist > 0)
    return float((dist > threshold).mean()), margins
