"""The dualvae layer boundaries that the traced run wraps, and the
per-layer metrics derived from their spans.

Every target is reached through the attribute or table entry the program
itself looks up at call time: module globals, class attributes
(``InteractionMatrix.densify_*``, ``Tape.backward``, ``Adam.step``) and the
CLI's ``_HANDLERS`` dict. ``dualvae.gradcheck`` is an audit command, not a
user path, and is not wrapped.
"""

from __future__ import annotations

from dualvae import (aspects, cli, contrast, data, encoder, evaluation, generation, model,
                     synth, tensor, trainer)

from spans import Tracer, self_times, under


def _megabytes(args, result):
    return result.nbytes / 1e6


def _tape_nodes(args, result):
    return len(args[0].nodes)


def _rows(args, result):
    return result.shape[0]


FIT = "trainer.fit"
SAVE = "trainer.save_checkpoint"
AUDIT = ("trainer.frozen_audit", trainer, "_assert_frozen_untouched", None)
EPOCH = ("trainer.epoch", trainer, "train_epoch_pair", None)

TARGETS = [
    ("synth.generate", synth, "generate", None),
    ("data.read_pairs", data, "read_pairs", None),
    ("data.kcore", data, "kcore_filter", None),
    ("data.ingest", data, "ingest", None),
    ("data.split", data, "split", None),
    ("data.digest", data.InteractionMatrix, "digest", None),
    ("data.densify", data.InteractionMatrix, "densify_users", _megabytes),
    ("data.densify", data.InteractionMatrix, "densify_items", _megabytes),
    ("encoder.mask", encoder, "mask_interactions", None),
    ("encoder.encode", encoder, "encode", None),
    ("aspects.live_probs", aspects, "aspect_probs_live", None),
    ("aspects.refresh_probs", aspects, "item_aspect_probs", None),
    ("aspects.refresh_probs", aspects, "user_aspect_probs", None),
    ("generation.side_loss", generation, "side_loss", None),
    ("generation.decode", generation, "decode", None),
    ("contrast.neighborhood", contrast, "batch_neighborhood_reprs", None),
    ("contrast.infonce", contrast, "batch_contrast", None),
    ("tensor.backward", tensor.Tape, "backward", _tape_nodes),
    (FIT, trainer, "fit", None),
    ("trainer.phase", trainer, "train_phase", None),
    ("trainer.adam", trainer.Adam, "step", None),
    AUDIT,
    (SAVE, trainer, "save_checkpoint", None),
    ("trainer.load_checkpoint", trainer, "load_checkpoint", None),
    ("model.refresh", model, "refresh", None),
    ("model.compute_side_state", model, "compute_side_state", None),
    ("evaluation.score_block", evaluation, "score_block", None),
    ("evaluation.score_all", evaluation, "score_all", None),
    ("evaluation.top_n", evaluation, "top_n", _rows),
    ("evaluation.evaluate_ranking", evaluation, "evaluate_ranking", None),
    ("cli.recommend", cli._HANDLERS, "recommend", None),
    ("cli.evaluate", cli._HANDLERS, "evaluate", None),
]

# metric -> (span name, statistic, unit); statistics: total and self seconds,
# calls, the sum of measured values, or their mean per call
PER_LAYER = {
    "data.densify_s": ("data.densify", "total", "s"),
    "data.densify_calls": ("data.densify", "calls", "count"),
    "data.densify_mb": ("data.densify", "sum", "MB"),
    "data.read_pairs_s": ("data.read_pairs", "total", "s"),
    "data.kcore_s": ("data.kcore", "total", "s"),
    "data.ingest_self_s": ("data.ingest", "self", "s"),
    "data.split_s": ("data.split", "total", "s"),
    "data.digest_s": ("data.digest", "total", "s"),
    "synth.generate_s": ("synth.generate", "total", "s"),
    "encoder.mask_s": ("encoder.mask", "total", "s"),
    "encoder.encode_s": ("encoder.encode", "total", "s"),
    "encoder.encode_calls": ("encoder.encode", "calls", "count"),
    "aspects.live_probs_s": ("aspects.live_probs", "total", "s"),
    "aspects.refresh_probs_s": ("aspects.refresh_probs", "total", "s"),
    "generation.side_loss_self_s": ("generation.side_loss", "self", "s"),
    "generation.decode_s": ("generation.decode", "total", "s"),
    "contrast.neighborhood_s": ("contrast.neighborhood", "total", "s"),
    "contrast.infonce_s": ("contrast.infonce", "total", "s"),
    "tensor.backward_s": ("tensor.backward", "total", "s"),
    "tensor.tape_nodes_per_step": ("tensor.backward", "mean", "count"),
    "trainer.phase_self_s": ("trainer.phase", "self", "s"),
    "trainer.adam_s": ("trainer.adam", "total", "s"),
    "trainer.adam_steps": ("trainer.adam", "calls", "count"),
    "trainer.frozen_audits": ("trainer.frozen_audit", "calls", "count"),
    "trainer.save_checkpoint_s": ("trainer.save_checkpoint", "total", "s"),
    "trainer.load_checkpoint_s": ("trainer.load_checkpoint", "total", "s"),
    "model.refresh_self_s": ("model.refresh", "self", "s"),
    "model.compute_side_state_s": ("model.compute_side_state", "total", "s"),
    "model.refresh_calls": ("model.refresh", "calls", "count"),
    "evaluation.score_block_s": ("evaluation.score_block", "total", "s"),
    "evaluation.mask_self_s": ("evaluation.score_all", "self", "s"),
    "evaluation.top_n_s": ("evaluation.top_n", "total", "s"),
    "evaluation.metrics_self_s": ("evaluation.evaluate_ranking", "self", "s"),
    "evaluation.users_ranked": ("evaluation.top_n", "sum", "count"),
    "cli.recommend_self_s": ("cli.recommend", "self", "s"),
    "cli.evaluate_self_s": ("cli.evaluate", "self", "s"),
}


def per_layer_metrics(tracer: Tracer) -> dict:
    """``{metric: (value, unit)}`` over every span the tracer recorded."""
    selfs = self_times(tracer.spans)
    out = {}
    for metric, (name, stat, unit) in PER_LAYER.items():
        picked = [k for k, s in enumerate(tracer.spans) if s.name == name]
        if stat == "total":
            value = sum(tracer.spans[k].duration for k in picked)
        elif stat == "self":
            value = sum(selfs[k] for k in picked)
        elif stat == "calls":
            value = len(picked)
        else:
            values = [tracer.spans[k].value for k in picked]
            value = sum(values) if stat == "sum" else sum(values) / max(len(values), 1)
        out[metric] = (value, unit)
    return out


def fit_layer_seconds(tracer: Tracer) -> float:
    """Self time of all spans inside ``trainer.fit``, and the checkpoint saves:
    what the layers account for of the fit and save that ``epoch_s`` times."""
    selfs = self_times(tracer.spans)
    return sum(t for t, span, inside in zip(selfs, tracer.spans, under(tracer.spans, FIT))
               if inside or span.name == SAVE)
