"""Online target-specific metric learning and tracklet refinement.

Each tracklet gets its own Mahalanobis metric M = W W^T learned from
absolute feature-difference vectors: positives from same-tracklet sample
pairs, negatives from other tracklets passing the spatio-temporal /
exit relevance constraints.  W is built one orthogonal column at a time;
each column minimises a summed logistic relative-distance loss plus a
ridge penalty on W, solved to a gradient tolerance by damped Newton
steps on the column's d x d Hessian (d <= 32, the feature size).
Columns stop once the same Hessian at w = 0 has a Cholesky factor, which
proves that no further column can lower the total: along any ray t * w
the total is convex in u = t^2, with slope w^T H w / 2 at u = 0, so a
positive definite Hessian makes w = 0 the column's minimum and its solve
is skipped.  The learned metrics then refine the tracklets: a run of
``split_run`` consecutive frames too far from the tracklet's probe
splits it.  The probe is the tracklet's first strongest sample: the rule
that picks the samples a tracklet learns from also picks its appearance
anchor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from tracklink.model import Detection, ExitMap, RunConfig, Tracklet

_COLUMN_TOL = 1e-4  # relative fall of the penalised total below this stops adding columns
_RIDGE = 0.05  # mu: the penalty is mu * (matched-pair count) * ||W||_F^2
# per matched pair: a column's damped Newton solve runs to gradient
# max-norm 1e-6 * m, with no test on the fall of the total, so that no
# column stops short of it
_GTOL = 1e-6
_MAX_NEWTON_STEPS = 100  # bounds a solve; columns take about 6 steps
_ARMIJO_C = 1e-4  # sufficient-decrease constant of the backtracking
_MAX_HALVINGS = 50  # a step below 2^-50 of Newton's lowers nothing above rounding
_MAX_SHIFTS = 12  # Levenberg shifts tried; the last is at least ||H||_F
_SCALE_STEPS = 4  # Newton steps of the scale search along the start ray
# the scale search shrinks the start by at most half: where the ray's
# minimum lies at u = 0, an unfloored search parks the start next to the
# saddle at w = 0
_SCALE_FLOOR = 0.25
_PAIR_CAP = 2000


@dataclass(frozen=True)
class TargetMetric:
    """Learned projection for one tracklet; distance(x) = ||W^T x||^2.

    ``initial_loss`` is the training loss before any column exists;
    ``column_curves[k]`` holds column k's penalised total loss at its
    start (the initial column, rescaled along its ray) and after each
    damped Newton step.  Within a column the curve is non-increasing, and
    the per-column final losses are non-increasing across columns."""

    tracklet_id: int
    W: np.ndarray  # (dim, r), columns pairwise orthogonal
    initial_loss: float = 0.0
    column_curves: tuple[tuple[float, ...], ...] = ()

    @property
    def rank(self) -> int:
        return self.W.shape[1]


@dataclass(frozen=True)
class PairSet:
    """Absolute difference vectors for one target tracklet."""

    target_id: int
    positives: np.ndarray  # (n_p, dim)
    negatives: np.ndarray  # (n_n, dim)


def _strongest_samples(t: Tracklet, phase: str, cfg: RunConfig) -> list[Detection]:
    """The q strongest detections; initial phase restricts candidates to
    the first probe_window frames."""
    if phase == "initial":
        pool = [d for d in t.detections if d.frame < t.start + cfg.probe_window]
    else:
        pool = list(t.detections)
    for d in pool:
        if d.feature is None:
            raise ValueError(f"tracklet {t.id} has a detection without features")
    pool.sort(key=lambda d: (-d.score, d.frame))
    return pool[: cfg.strongest_q]


def collect_pairs(
    target: Tracklet,
    others: list[Tracklet],
    phase: str,
    cfg: RunConfig,
    exit_map: ExitMap | None = None,
) -> PairSet:
    """Build the training difference vectors for one target tracklet.

    A candidate negative source is admitted when it temporally overlaps
    the target, or when it has not exited the scene before the target
    starts (ends inside the frame interior, or ends after the target's
    start).
    """
    if phase not in ("initial", "reliable"):
        raise ValueError(f"unknown phase {phase!r}")
    feats = _sample_features(target, phase, cfg)
    i, j = np.triu_indices(len(feats), k=1)
    admitted = [
        _sample_features(other, phase, cfg)
        for other in sorted(others, key=lambda t: t.id)
        if other.id != target.id and _negative_source_admissible(target, other, exit_map)
    ]
    sources = np.concatenate(admitted) if admitted else np.empty((0, feats.shape[1]))
    # one row per (source sample, target sample), source-major
    negatives = np.abs(sources[:, None, :] - feats[None, :, :])
    return PairSet(
        target_id=target.id,
        positives=np.abs(feats[i] - feats[j]),
        negatives=negatives.reshape(-1, feats.shape[1]),
    )


def _sample_features(t: Tracklet, phase: str, cfg: RunConfig) -> np.ndarray:
    """Features of t's strongest samples, one read-only row each; selected
    once per phase and sampling setting and kept in the tracklet's memo, so
    a segment's pair sets select each tracklet's samples once, not once
    per target."""
    key = ("strongest_features", phase, cfg.probe_window, cfg.strongest_q)
    if key not in t.memo:
        # never empty: the pool always holds t's first detection
        feats = np.array([d.feature for d in _strongest_samples(t, phase, cfg)], dtype=float)
        feats.flags.writeable = False
        t.memo[key] = feats
    return t.memo[key]


def _negative_source_admissible(
    target: Tracklet, other: Tracklet, exit_map: ExitMap | None
) -> bool:
    if other.end < target.start and exit_map is not None:
        # exited before the target started -> irrelevant for learning
        return not exit_map.exited(other)
    return True


def _logistic_loss(a: np.ndarray) -> tuple[float, np.ndarray]:
    """(sum of log(1 + exp(a_k)), e) for margins ``a``: each term is summed
    as ``max(a_k, 0) + log1p(e_k)`` with ``e = exp(-|a|)``, which
    ``_sigmoid`` takes on for the gradient."""
    e = np.abs(a)
    np.negative(e, out=e)
    np.exp(e, out=e)
    terms = np.log1p(e)
    terms += np.maximum(a, 0.0)
    return float(terms.sum()), e


def _sigmoid(a: np.ndarray, e: np.ndarray) -> np.ndarray:
    # with e = exp(-|a|): 1 / (1 + exp(-a)) for a >= 0 and exp(a) / (1 +
    # exp(a)) below; never overflows, and equals those two forms bit for bit
    return np.where(a >= 0, 1.0, e) / (1.0 + e)


def learn_metric(pairs: PairSet, cfg: RunConfig) -> TargetMetric:
    """Greedy orthogonal-column minimization of the penalised logistic loss

        sum over matched (x_p, x_n) of log(1 + exp(||W^T x_p||^2 - ||W^T x_n||^2))
            + mu * m * ||W||_F^2

    over a capped Cartesian pairing of the positive and negative
    difference vectors, with m the number of matched pairs and mu =
    ``_RIDGE``.  Without the ridge term the loss has no minimiser on
    separable pairs (scaling W up drives it toward 0); with it every
    column is a well-posed problem, so W's scale is set by the data.
    Column k is initialized with the dominant eigenvector of the
    pair-weighted second-moment difference, projected onto the orthogonal
    complement of columns 1..k-1 and rescaled toward the minimum along its
    ray, then solved by damped Newton steps (``_solve_column``) to a
    gradient max-norm of 1e-6 * m, with its gradient and Hessian
    projected onto that complement.  Column 0 is kept whatever its loss,
    even one above the loss of the empty metric; each later column is
    kept only when it lowers the penalised total by at least 1e-4
    relative.  The first column that falls short of that (column 0
    included) is the last one tried, and at most r_max are kept.  A
    column whose loss or Hessian is not finite raises ValueError.

    Before each column after the first, ``_zero_column_optimal`` stops
    adding columns without a solve when w = 0 is provably the column's
    minimum.  Along a ray t * w in the complement, with u = t^2, the
    column's total is sum_k softplus(c_k + u * d_k) + mu * m * u * ||w||^2,
    with c_k the current margins and d_k = (x_p . w)^2 - (x_n . w)^2.
    That is convex in u, with slope w^T H w at u = 0, where
    H = P^T diag(s_p) P - N^T diag(s_n) N + mu * m * I and s_p, s_n are
    the per-row sums of the current margins' sigmoids; 2 H is the column
    Hessian at w = 0 (``_column_hessian``).  When H is positive definite
    on the complement, no column lowers the total, and the solve would
    have been rejected.  Rejected columns leave no trace in the metric,
    so skipping them changes no bit of it.
    """
    pos = np.asarray(pairs.positives, dtype=float)
    neg = np.asarray(pairs.negatives, dtype=float)
    if pos.size == 0:
        raise ValueError(f"tracklet {pairs.target_id}: no positive pairs to learn from")
    if neg.size == 0:
        raise ValueError(f"tracklet {pairs.target_id}: no negative pairs to learn from")
    n_p, n_d = pos.shape
    n_n = neg.shape[0]
    ip, iN = _matched_pairs(n_p, n_n, cfg.rng_seed, pairs.target_id)

    # pair-weighted init matrix: each matched pair contributes its own
    # x_n x_n^T - x_p x_p^T, which balances unequal class counts
    wp = np.bincount(ip, minlength=n_p).astype(float)
    wn = np.bincount(iN, minlength=n_n).astype(float)
    init_matrix = (neg * wn[:, None]).T @ neg - (pos * wp[:, None]).T @ pos
    dominant = np.linalg.eigh(init_matrix)[1][:, -1]

    r_max = min(n_d, 32)
    ridge = _RIDGE * len(ip)
    cols: list[np.ndarray] = []
    base_p = np.zeros(n_p)
    base_n = np.zeros(n_n)
    penalty = 0.0  # ridge * ||W||_F^2 of the kept columns
    current_loss, _ = _logistic_loss(np.zeros(len(ip)))
    initial_loss = current_loss
    curves: list[tuple[float, ...]] = []

    for k in range(r_max):
        basis = None
        if cols:
            q = np.stack(cols, axis=1)
            basis = q / np.linalg.norm(q, axis=0)
            if _zero_column_optimal(pos, neg, base_p, base_n, ip, iN, basis, ridge):
                break
        w = _init_column(dominant, basis)
        if w is None:
            break
        w, col_loss, curve = _solve_column(
            w, pos, neg, base_p, base_n, ip, iN, basis, ridge, penalty
        )
        if not math.isfinite(col_loss):
            raise ValueError(f"tracklet {pairs.target_id}: metric loss became non-finite")
        improvement = (current_loss - col_loss) / max(abs(current_loss), 1e-12)
        if improvement < _COLUMN_TOL and k > 0:
            break
        if basis is not None:
            w = w - basis @ (basis.T @ w)
        cols.append(w)
        curves.append(curve)
        current_loss = min(current_loss, col_loss)
        base_p += (pos @ w) ** 2
        base_n += (neg @ w) ** 2
        penalty += ridge * float(w @ w)
        if improvement < _COLUMN_TOL:
            break
    return TargetMetric(
        tracklet_id=pairs.target_id,
        W=np.stack(cols, axis=1),
        initial_loss=initial_loss,
        column_curves=tuple(curves),
    )


def _matched_pairs(n_p: int, n_n: int, rng_seed: int, target_id: int):
    total = n_p * n_n
    if total <= _PAIR_CAP:
        return np.repeat(np.arange(n_p), n_n), np.tile(np.arange(n_n), n_p)
    rng = np.random.default_rng(np.random.SeedSequence([rng_seed, target_id & 0x7FFFFFFF]))
    flat = rng.choice(total, _PAIR_CAP, replace=False)
    flat.sort()
    return flat // n_n, flat % n_n


def _init_column(dominant: np.ndarray, basis: np.ndarray | None):
    w = dominant.copy()
    if basis is not None:
        w = w - basis @ (basis.T @ w)
    norm = np.linalg.norm(w)
    if norm < 1e-10:
        return None
    w = w / norm
    # deterministic sign
    pivot = np.argmax(np.abs(w))
    if w[pivot] < 0:
        w = -w
    return w


def _zero_column_optimal(pos, neg, base_p, base_n, ip, iN, basis, ridge) -> bool:
    """True when w = 0 is the global minimum of the next column's problem:
    the column Hessian at w = 0, twice the sigmoid-weighted second-moment
    difference at the current margins plus 2 * ridge * I, is positive
    definite on the complement of ``basis`` (the argument is in
    ``learn_metric``)."""
    a = base_p[ip] - base_n[iN]
    s = _sigmoid(a, np.exp(-np.abs(a)))
    curvature = _column_hessian(
        pos, neg, np.zeros(len(pos)), np.zeros(len(neg)), s, ip, iN, basis, ridge
    )
    # a non-finite H is left to the solve, which reports a non-finite loss
    return bool(np.isfinite(curvature).all()) and _cholesky(curvature) is not None


def _column_hessian(pos, neg, up, un, s, ip, iN, basis, ridge):
    """Hessian in w of the column's penalised total at projections ``up``
    = P w, ``un`` = N w and margin sigmoids ``s``:

        P^T diag(4 dp up^2 + 2 cp) P + N^T diag(4 dn un^2 - 2 cn) N
            - 4 (X + X^T) + 2 ridge I,

    with cp, cn (dp, dn) the per-row sums of s (of s (1 - s)) over the
    matched pairs and X = (P o up)^T C (N o un), C[i, j] the s (1 - s) of
    pair (i, j).  The data terms are projected onto the complement of
    ``basis``; the basis directions get 2 * ridge * I."""
    n_p, n_n = len(pos), len(neg)
    ds = s * (1.0 - s)
    coef_p = 4.0 * np.bincount(ip, weights=ds, minlength=n_p) * up**2
    coef_p += 2.0 * np.bincount(ip, weights=s, minlength=n_p)
    coef_n = 4.0 * np.bincount(iN, weights=ds, minlength=n_n) * un**2
    coef_n -= 2.0 * np.bincount(iN, weights=s, minlength=n_n)
    pair_ds = np.bincount(ip * n_n + iN, weights=ds, minlength=n_p * n_n).reshape(n_p, n_n)
    cross = (pos.T * up) @ ((pair_ds * un) @ neg)
    hess = (pos.T * coef_p) @ pos + (neg.T * coef_n) @ neg
    hess -= 4.0 * (cross + cross.T)
    if basis is not None:
        off_basis = np.eye(len(basis)) - basis @ basis.T
        hess = off_basis @ hess @ off_basis
    hess += np.eye(len(hess)) * (2.0 * ridge)
    return hess


def _cholesky(matrix):
    """Lower Cholesky factor of a finite symmetric matrix, or None when
    the matrix is not positive definite."""
    lower, info = dpotrf(matrix, lower=1)
    return lower if info == 0 else None


def _newton_step(hess, grad):
    """-(H + tau I)^-1 grad for the first tau in 0, 1e-3 ||H||_F, 2e-3
    ||H||_F, 4e-3 ||H||_F, ... for which H + tau I has a Cholesky factor.
    ||H||_F bounds every eigenvalue's magnitude, so the last of the
    ``_MAX_SHIFTS`` shifts, 1.024 ||H||_F, always has one for a finite H."""
    shifted = hess.copy()
    scale = 1e-3 * float(np.linalg.norm(hess))
    for k in range(_MAX_SHIFTS):
        lower = _cholesky(shifted)
        if lower is not None:
            return -dpotrs(lower, grad, lower=1)[0]
        np.fill_diagonal(shifted, hess.diagonal() + scale * 2.0**k)
    return -grad  # not reached for a finite H


def _scale_start(w, pos, neg, base_p, base_n, ip, iN, ridge):
    """w rescaled to t * w by at most ``_SCALE_STEPS`` Newton steps on the
    column's total along its ray, a convex function of u = t^2 (see
    ``learn_metric``), with u kept at or above ``_SCALE_FLOOR``."""
    c = base_p[ip] - base_n[iN]
    d = ((pos @ w) ** 2)[ip] - ((neg @ w) ** 2)[iN]
    u = 1.0
    for _ in range(_SCALE_STEPS):
        a = c + u * d
        s = _sigmoid(a, np.exp(-np.abs(a)))
        curvature = float((s * (1.0 - s)) @ (d * d))
        if not curvature > 0.0:  # flat, or not finite
            break
        u = max(_SCALE_FLOOR, u - (float(s @ d) + ridge * float(w @ w)) / curvature)
    return math.sqrt(u) * w


def _solve_column(w, pos, neg, base_p, base_n, ip, iN, basis, ridge, penalty):
    """(w, final total, curve) of one column's damped Newton solve from
    ``w``, first rescaled along its ray by ``_scale_start``.  Each step
    solves the column Hessian, shifted until it has a Cholesky factor,
    against the gradient, both projected off ``basis``, and backtracks
    by Armijo (Nocedal & Wright, Numerical Optimization, 3.4).  The solve
    stops at gradient max-norm ``_GTOL`` * m.  The curve is the total at
    the rescaled start and after each accepted step.  A non-finite total
    or Hessian ends the solve at once with a non-finite total."""

    def evaluate(vec):
        up = pos @ vec
        un = neg @ vec
        a = (base_p + up**2)[ip] - (base_n + un**2)[iN]
        loss, e = _logistic_loss(a)
        return loss + penalty + ridge * float(vec @ vec), up, un, a, e

    w = _scale_start(w, pos, neg, base_p, base_n, ip, iN, ridge)
    total, up, un, a, e = evaluate(w)
    curve = [total]
    gtol = _GTOL * len(ip)
    for _ in range(_MAX_NEWTON_STEPS):
        if not math.isfinite(total):
            break
        s = _sigmoid(a, e)
        coef_p = np.bincount(ip, weights=s, minlength=len(base_p))
        coef_n = np.bincount(iN, weights=s, minlength=len(base_n))
        grad = 2.0 * (pos.T @ (coef_p * up) - neg.T @ (coef_n * un) + ridge * w)
        if basis is not None:
            grad -= basis @ (basis.T @ grad)
        if np.max(np.abs(grad)) <= gtol:
            break
        hess = _column_hessian(pos, neg, up, un, s, ip, iN, basis, ridge)
        if not np.isfinite(hess).all():
            return w, math.inf, tuple(curve)
        step = _newton_step(hess, grad)
        slope = float(grad @ step)
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = evaluate(w + t * step)
            if trial[0] <= total + _ARMIJO_C * t * slope:
                break
            t *= 0.5
        else:
            break  # no decrease left above rounding
        w = w + t * step
        total, up, un, a, e = trial
        curve.append(total)
    return w, total, tuple(curve)


def identity_metric(tracklet_id: int, dim: int) -> TargetMetric:
    """Fallback metric (plain squared Euclidean) for tracklets that have
    no admissible training pairs, e.g. a lone tracklet in its segment."""
    return TargetMetric(tracklet_id=tracklet_id, W=np.eye(dim))


def metric_distance(metric: TargetMetric, a: np.ndarray, b: np.ndarray) -> float:
    """||W^T |a - b|||^2 -- the learned relative appearance distance."""
    if a.shape != b.shape or a.shape[0] != metric.W.shape[0]:
        raise ValueError(
            f"feature dimensions do not match metric: {a.shape}, {b.shape}, W {metric.W.shape}"
        )
    proj = metric.W.T @ np.abs(a - b)
    return float(proj @ proj)


def probe(t: Tracklet, cfg: RunConfig) -> np.ndarray:
    """t's appearance anchor: the feature of its first strongest sample,
    the highest-scoring detection of its first probe_window frames (ties
    go to the earliest frame)."""
    return _sample_features(t, "initial", cfg)[0]


def learn_segment_metrics(
    tracklets: list[Tracklet],
    phase: str,
    cfg: RunConfig,
    exit_map: ExitMap | None = None,
) -> tuple[dict[int, TargetMetric], dict[int, PairSet]]:
    """Learn one metric per tracklet of a segment, falling back to the
    identity metric when a tracklet has no admissible pairs."""
    pairsets: dict[int, PairSet] = {}
    for t in tracklets:
        pairs = collect_pairs(t, tracklets, phase, cfg, exit_map=exit_map)
        if len(pairs.positives) and len(pairs.negatives):
            pairsets[t.id] = pairs
    learned = {tid: learn_metric(pairs, cfg) for tid, pairs in pairsets.items()}
    metrics = {
        t.id: learned.get(t.id) or identity_metric(t.id, t.detections[0].feature.size)
        for t in tracklets
    }
    return metrics, pairsets


def split_threshold(
    metrics: dict[int, TargetMetric], pairsets: dict[int, PairSet]
) -> float:
    """Segment-level refinement threshold: median positive-pair distance
    plus three times the interquartile range."""
    dists = np.concatenate(
        [np.sum((pairs.positives @ metrics[tid].W) ** 2, axis=1) for tid, pairs in pairsets.items()]
        or [np.empty(0)]
    )
    if not dists.size:
        return math.inf
    q1, med, q3 = np.percentile(dists, [25.0, 50.0, 75.0])
    return float(med + 3.0 * (q3 - q1))


def _first_split_frame(
    t: Tracklet, metric: TargetMetric, cfg: RunConfig, omega: float
) -> int | None:
    """Frame index starting the first run of ``split_run`` consecutive
    distances to t's probe above omega, or None."""
    anchor = probe(t, cfg)
    streak = 0
    for d in t.detections:
        dist = metric_distance(metric, d.feature, anchor)
        if dist > omega:
            streak += 1
            if streak == cfg.split_run:
                return d.frame - cfg.split_run + 1
        else:
            streak = 0
    return None


def refine_tracklets(
    tracklets: list[Tracklet],
    cfg: RunConfig,
    exit_map: ExitMap | None = None,
    next_id: int | None = None,
) -> list[Tracklet]:
    """Split appearance-inconsistent tracklets in up to cfg.refine_iters
    passes; each pass learns initial-phase metrics on the current
    tracklets, measures each one's detections against its probe and
    takes its split threshold from the same pairsets.  Split parts
    shorter than 2 frames are dropped; splitting never merges tracklets
    or adds detections.
    """
    current = list(tracklets)
    if next_id is None:
        next_id = max((t.id for t in current), default=0) + 1
    for _ in range(cfg.refine_iters):
        metrics, pairsets = learn_segment_metrics(current, "initial", cfg, exit_map)
        omega = cfg.distance_threshold
        if omega is None:
            omega = split_threshold(metrics, pairsets)
        refined: list[Tracklet] = []
        changed = False
        for t in current:
            split_at = _first_split_frame(t, metrics[t.id], cfg, omega)
            if split_at is None or split_at <= t.start:
                refined.append(t)
                continue
            changed = True
            head = t.detections[: split_at - t.start]
            tail = t.detections[split_at - t.start :]
            if len(head) >= 2:
                refined.append(Tracklet(id=t.id, detections=head))
            if len(tail) >= 2:
                refined.append(Tracklet(id=next_id, detections=tail))
                next_id += 1
        current = refined
        if not changed:
            break
    return current
