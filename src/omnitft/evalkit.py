"""Forecast evaluation: error metrics, interval diagnostics, importance.

Point metrics run on the P50 track; interval metrics on the sorted
(non-crossing) quantile view. MAPE and the relative mean bias error exclude
near-zero actuals and report the exclusion count; when they are undefined
outright the table renders the ">1" sentinel instead of a number.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

_NEAR_ZERO = 1e-8
REPORTED_LEVELS = (0.1, 0.5, 0.9)  # the P10/P50/P90 tracks every report names


class EvalError(Exception):
    pass


class EmptySeries(EvalError):
    pass


class AllNearZeroActuals(EvalError):
    pass


def _check(pred, actual):
    pred = np.asarray(pred, dtype=np.float64).ravel()
    actual = np.asarray(actual, dtype=np.float64).ravel()
    if pred.size == 0 or actual.size == 0:
        raise EmptySeries("empty series")
    if pred.size != actual.size:
        raise EvalError(f"length mismatch: {pred.size} vs {actual.size}")
    return pred, actual


def mae(pred, actual) -> float:
    pred, actual = _check(pred, actual)
    return float(np.mean(np.abs(pred - actual)))


def mape(pred, actual) -> float:
    """Mean absolute percentage error (%); near-zero actuals are excluded."""
    pred, actual = _check(pred, actual)
    keep = np.abs(actual) >= _NEAR_ZERO
    if not keep.any():
        raise AllNearZeroActuals("all actuals below the near-zero cutoff")
    return float(100.0 * np.mean(np.abs(pred[keep] - actual[keep]) / np.abs(actual[keep])))


def mape_excluded_count(actual) -> int:
    actual = np.asarray(actual, dtype=np.float64).ravel()
    return int(np.sum(np.abs(actual) < _NEAR_ZERO))


def rmse(pred, actual) -> float:
    pred, actual = _check(pred, actual)
    return float(np.sqrt(np.mean((pred - actual) ** 2)))


def rmbe(pred, actual) -> float:
    """Relative mean bias error (%): 100 * mean(pred - actual) / mean(actual).

    Signed; positive means systematic over-prediction.
    """
    pred, actual = _check(pred, actual)
    denom = float(np.mean(actual))
    if abs(denom) < _NEAR_ZERO:
        raise AllNearZeroActuals("mean of actuals is near zero")
    return float(100.0 * np.mean(pred - actual) / denom)


def pinball_at(q: float, preds_q, actuals) -> float:
    """Pinball loss of a single quantile track."""
    preds_q, actuals = _check(preds_q, actuals)
    e = actuals - preds_q
    return float(np.mean(np.maximum(q * e, (q - 1.0) * e)))


def coverage_below(q: float, preds_q, actuals) -> float:
    """Fraction of actuals at or below the quantile track (ideal ~ q)."""
    preds_q, actuals = _check(preds_q, actuals)
    return float(np.mean(actuals <= preds_q))


@dataclass
class MetricReport:
    target: str
    mae: float
    mape: float | None  # None = undefined, rendered as the ">1" sentinel
    rmse: float
    rmbe: float | None
    p10_coverage: float
    p10_pinball: float
    p90_coverage: float
    p90_pinball: float
    n_points: int
    mape_excluded: int = 0
    notes: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "mae": self.mae,
            "mape_pct": self.mape,
            "rmse": self.rmse,
            "rmbe_pct": self.rmbe,
            "p10_coverage": self.p10_coverage,
            "p10_pinball": self.p10_pinball,
            "p90_coverage": self.p90_coverage,
            "p90_pinball": self.p90_pinball,
            "n_points": self.n_points,
            "mape_excluded": self.mape_excluded,
            "notes": self.notes,
        }


def compute_report(target: str, p10, p50, p90, actuals) -> MetricReport:
    """Pool per-point quantile tracks into the full metric battery.

    The caller passes the sorted quantile view; rmbe here is the signed
    relative mean bias, a definition recorded in the report notes.
    """
    p50_arr, actual = _check(p50, actuals)
    try:
        mape_v = mape(p50_arr, actual)
    except AllNearZeroActuals:
        mape_v = None
    try:
        rmbe_v = rmbe(p50_arr, actual)
    except AllNearZeroActuals:
        rmbe_v = None
    return MetricReport(
        target=target,
        mae=mae(p50_arr, actual),
        mape=mape_v,
        rmse=rmse(p50_arr, actual),
        rmbe=rmbe_v,
        p10_coverage=coverage_below(0.1, p10, actual),
        p10_pinball=pinball_at(0.1, p10, actual),
        p90_coverage=coverage_below(0.9, p90, actual),
        p90_pinball=pinball_at(0.9, p90, actual),
        n_points=int(actual.size),
        mape_excluded=mape_excluded_count(actual),
        notes={"rmbe_definition": "100*mean(pred-actual)/mean(actual), signed"},
    )


def format_cell(mae_value: float, mape_value) -> str:
    """Table cell in the 'MAE (MAPE%)' layout; undefined MAPE renders '>1'."""
    if mape_value is None:
        return f"{mae_value:.2f} (>1)"
    return f"{mae_value:.2f} ({mape_value:.2f})"


def render_table(reports: list) -> str:
    """Aligned-text summary, one row per target."""
    rows = [("Label", "MAE (MAPE%)", "RMSE", "RMBE%", "P10 cov", "P90 cov")]
    for r in reports:
        rows.append(
            (
                r.target,
                format_cell(r.mae, r.mape),
                f"{r.rmse:.4f}",
                "(>1)" if r.rmbe is None else f"{r.rmbe:.2f}",
                f"{r.p10_coverage:.3f}",
                f"{r.p90_coverage:.3f}",
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# interpretability exports


@dataclass
class ImportanceRow:
    feature: str
    score: float  # normalized, per-target scores sum to 1
    rank: int
    cv: float  # std/mean across runs; 0 for a single run


@dataclass
class ImportanceTable:
    target: str
    rows: list

    def to_csv_rows(self):
        yield ["target", "feature", "score", "rank", "cv"]
        for r in self.rows:
            yield [self.target, r.feature, repr(r.score), r.rank, repr(r.cv)]


def _run_scores(abar: np.ndarray, w_hist: np.ndarray, enc_len: int) -> np.ndarray:
    """Attention-mass-weighted mean selection score per feature, one run.

    abar (n, T, T) and w_hist (n, E, N) hold the run's n windows.
    """
    mass = abar[:, enc_len:, :enc_len].sum(axis=1)  # decoder rows onto encoder steps
    total = mass.sum(axis=1, keepdims=True)
    mass = np.divide(mass, total, out=np.full_like(mass, 1.0 / enc_len), where=total > 0)
    # per-window (1, E) @ (E, N) products summed in window order round as a
    # window-at-a-time loop does; an einsum over both axes rounds differently
    acc = (mass[:, None, :] @ w_hist)[:, 0].sum(axis=0) / len(abar)
    s = acc.sum()
    return acc / s if s > 0 else np.full(acc.size, 1.0 / acc.size)


def aggregate_importance(
    runs: list, feature_names: list, enc_len: int, target: str = ""
) -> ImportanceTable:
    """Composite feature importance across windows, and across runs if
    several runs are supplied.

    runs: one (abar, w_hist) array pair per run, the head-averaged attention
    (n, T, T) and historical selection weights (n, E, N) of its n windows.
    Scores are the selection weights averaged under the attention mass
    decoder rows place on each encoder step, normalized per target; cv is the
    across-run std/mean of each feature's normalized score.
    """
    if not runs or not all(len(abar) for abar, _ in runs):
        raise EvalError("need at least one window in every run")
    n = len(feature_names)
    per_run = np.stack([_run_scores(abar, w_hist, enc_len) for abar, w_hist in runs])
    score = per_run.mean(axis=0)
    score = score / score.sum()
    means = per_run.mean(axis=0)
    stds = per_run.std(axis=0)
    cvs = np.where(means > 0, stds / np.where(means > 0, means, 1.0), 0.0)
    order = np.argsort(-score, kind="stable")
    rows = [None] * n
    for rank_pos, j in enumerate(order, start=1):
        rows[j] = ImportanceRow(
            feature=feature_names[j],
            score=float(score[j]),
            rank=rank_pos,
            cv=float(cvs[j]) if len(runs) > 1 else 0.0,
        )
    return ImportanceTable(target=target, rows=rows)


# ---------------------------------------------------------------------------
# trajectory export


def select_typical_window(maes) -> int:
    """Index of the window whose MAE sits nearest the cohort mean."""
    maes = np.asarray(maes, dtype=np.float64)
    if maes.size == 0:
        raise EmptySeries("no windows")
    return int(np.argmin(np.abs(maes - maes.mean())))


def quantile_columns(levels) -> tuple:
    """Columns of the P10, P50 and P90 tracks in a strictly increasing level set."""
    levels = list(levels)
    missing = [q for q in REPORTED_LEVELS if q not in levels]
    if missing:
        raise EvalError(f"quantile set {levels} lacks the reported level(s) {missing}")
    return tuple(levels.index(q) for q in REPORTED_LEVELS)


def export_trajectories(q_sorted, history, actual_future, levels=REPORTED_LEVELS) -> list:
    """Plot-ready rows: encoder history then forecast vs actual future.

    Steps run -E+1..0 for history and 1..H for the horizon. q_sorted is the
    window's (H, n_q) sorted, non-crossing quantile view, whose columns are
    picked by level.
    """
    history = np.asarray(history, dtype=np.float64).ravel()
    actual_future = np.asarray(actual_future, dtype=np.float64).ravel()
    lo, mid, hi = quantile_columns(levels)
    q = np.asarray(q_sorted)
    E, H = history.size, actual_future.size
    rows = []
    for i in range(E):
        rows.append(
            {"t": i - E + 1, "history": float(history[i]), "actual_future": "",
             "p10": "", "p50": "", "p90": ""}
        )
    for i in range(H):
        rows.append(
            {"t": i + 1, "history": "", "actual_future": float(actual_future[i]),
             "p10": float(q[i, lo]), "p50": float(q[i, mid]), "p90": float(q[i, hi])}
        )
    return rows


def write_reports_json(path, reports: list):
    with open(path, "w") as fh:
        json.dump([r.to_dict() for r in reports], fh, indent=2, sort_keys=True)
        fh.write("\n")
