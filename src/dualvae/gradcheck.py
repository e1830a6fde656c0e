"""Finite-difference verification of the full training objective.

Builds a small random instance, fixes the reparameterization noise, and
compares tape gradients of each side's total objective (reconstruction, KL
and contrastive terms) against central differences, group by group. The
frozen side is held fixed while a live parameter is perturbed, matching what
the alternating optimizer differentiates.
"""

from __future__ import annotations

import numpy as np

from . import model as model_mod, synth, trainer
from .data import InteractionMatrix
from .tensor import RngState, Tape


def _side_objective(side, matrix, params, snap, cfg, eps):
    """Closure computing one side's full-batch objective, ``trainer.batch_loss``."""
    enc, dec, protos, _ = params.side(side)
    side_rows = matrix.rows(side)
    rows = side_rows.select(np.arange(len(side_rows)), params.dtype)
    frozen = snap.frozen(model_mod.OTHER_SIDE[side])

    def build(tape):
        return trainer.batch_loss(rows, rows, enc, dec, protos, frozen, cfg, cfg.beta,
                                  eps[side], tape)[0]

    return build


def finite_difference(loss_fn, params, h=1e-6):
    """Central-difference gradient of ``loss_fn()`` wrt each Parameter.

    ``loss_fn`` is a zero-argument callable returning a float that reads
    the parameter values at call time.
    """
    grads = []
    for p in params:
        g = np.zeros_like(p.value)
        flat, gflat = p.value.reshape(-1), g.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            up = loss_fn()
            flat[k] = orig - h
            down = loss_fn()
            flat[k] = orig
            gflat[k] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def _max_rel_err(analytic, numeric, zero_floor=1e-7):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.abs(a), np.abs(n))
        big = denom > zero_floor
        if np.any(big):
            worst = max(worst, float((np.abs(a - n)[big] / denom[big]).max()))
        small = ~big
        if np.any(small):
            worst = max(worst, float(np.abs(a - n)[small].max() / zero_floor))
    return worst


def run_gradcheck(seed: int, num_users: int = 8, num_items: int = 12,
                  aspects: int = 3, dim: int = 4, hidden: int = 8,
                  h: float = 1e-5, inject_fault: bool = False) -> dict:
    """Max relative error per parameter group; smaller is better.

    ``inject_fault`` flips the sign of one analytic gradient block, a hook
    that proves the comparison actually detects wrong gradients.
    """
    cfg = trainer.TrainConfig(aspects=aspects, dim=dim, hidden=hidden, temp=0.5,
                              seed=seed).validate()
    matrix, _ = synth.generate(num_users, num_items, aspects, density=0.3, seed=seed)
    # entities with no interactions put their posterior mean exactly on the
    # cosine-normalization kink where the objective is not differentiable;
    # guarantee coverage like k-core-filtered real data has: pairs (u, u % n)
    # and (i % m, i)
    users, items = matrix._coords()
    u, i = np.arange(num_users), np.arange(num_items)
    matrix = InteractionMatrix(num_users, num_items, np.concatenate([users, u, i % num_users]),
                               np.concatenate([items, u % num_items, i]))
    rng = RngState(seed)
    params = model_mod.ModelParams(num_users, num_items, aspects, dim, hidden,
                                   rng.derive(0), np.float64)
    snap = model_mod.bootstrap(matrix, params)
    snap = model_mod.refresh(matrix, params, snap.C, snap.P, cfg.temp)

    eps = {
        "user": rng.derive(1).standard_normal(aspects * num_users, dim),
        "item": rng.derive(2).standard_normal(aspects * num_items, dim),
    }

    # group name -> (its side's objective, its parameters, their tape gradients)
    groups = {}
    for side in ("user", "item"):
        enc, dec, protos, _ = params.side(side)
        build = _side_objective(side, matrix, params, snap, cfg, eps)
        params.user.zero_grad()
        params.item.zero_grad()
        tape = Tape()
        tape.backward(build(tape))
        for part, plist in (("encoder", enc.params()), ("decoder", dec.params()),
                            ("prototypes", [protos])):
            groups[f"{part}_{side}"] = (build, plist, [p.grad.copy() for p in plist])

    if inject_fault:
        build, plist, grads = groups["encoder_user"]
        groups["encoder_user"] = (build, plist, [-g for g in grads])

    report = {}
    for name, (build, plist, analytic) in groups.items():
        numeric = finite_difference(lambda: build(Tape()).item(), plist, h)
        report[name] = _max_rel_err(analytic, numeric)
    return report


def format_report(report: dict, tol: float) -> str:
    lines = ["group\tmax_rel_err\tstatus"]
    for name in sorted(report):
        status = "ok" if report[name] < tol else "FAIL"
        lines.append(f"{name}\t{report[name]:.3e}\t{status}")
    return "\n".join(lines)
