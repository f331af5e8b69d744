"""Sliding-window enumeration and class-balanced epoch draws.

Windows of length encoder+horizon are enumerated at stride 1 and labeled
stable or volatile from the fluctuation of their future target segment.
Each training epoch undersamples the majority class down to the minority
count, so both regimes appear in equal number; a single-class pool degrades
to the full pool with a warning flag rather than failing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import PatientSeries
from .labeler import STABLE, VOLATILE, fluctuation_score, threshold_label
from .schema import DatasetSchema


class SamplerError(Exception):
    pass


class SeriesTooShort(SamplerError):
    pass


@dataclass
class WindowSample:
    patient_id: str
    start: int
    target_name: str
    target_idx: int  # position among the schema's target features
    enc_past: np.ndarray  # (E, n_past) past-side variables, schema order
    fut_known: np.ndarray  # (H, n_future) known-future variables
    fut_target: np.ndarray  # (H,) the target's future segment
    statics: np.ndarray  # (n_static,)
    label: str
    score: float

    @property
    def is_volatile(self) -> bool:
        return self.label == VOLATILE


def enumerate_windows(
    series: PatientSeries,
    schema: DatasetSchema,
    delta: float,
    target: str | None = None,
) -> list:
    """One labeled window per start index."""
    targets = schema.target_features
    spec = schema.feature(target) if target else targets[0]
    if spec.role != "target":
        raise SamplerError(f"{spec.name!r} is not a target feature")
    target_idx = [f.name for f in targets].index(spec.name)

    E, H, T = schema.encoder_len, schema.horizon_len, schema.window_len
    n = series.n_steps
    if n < T:
        raise SeriesTooShort(f"series of {n} steps cannot hold a window of {T}")

    # one gather per array kind cuts every window of the series at once, into
    # fresh buffers of the kept columns only; each window holds views of them
    def cut(rows, specs):
        return series.values[rows[..., None], np.array([schema.column(f.name) for f in specs],
                                                        dtype=int)]

    starts = np.arange(n - T + 1)
    past_rows = starts[:, None] + np.arange(E)  # (W, E)
    fut_rows = starts[:, None] + np.arange(E, T)  # (W, H)
    enc_past = cut(past_rows, schema.past_features)
    fut_known = cut(fut_rows, schema.future_features)
    fut_target = cut(fut_rows, [spec])[..., 0]
    statics = cut(starts, schema.static_features)
    scores = fluctuation_score(fut_target)
    labels = threshold_label(scores, delta)
    return [
        WindowSample(
            patient_id=series.patient_id,
            start=t,
            target_name=spec.name,
            target_idx=target_idx,
            enc_past=enc_past[t],
            fut_known=fut_known[t],
            fut_target=fut_target[t],
            statics=statics[t],
            label=label,
            score=score,
        )
        for t, label, score in zip(starts.tolist(), labels, scores.tolist())
    ]


@dataclass
class EpochSample:
    windows: list
    single_class: bool  # true when one regime was empty and balance degraded


def balanced_epoch(windows: list, seed: int = 0) -> EpochSample:
    """Draw an equal number of stable and volatile windows, shuffled.

    With m = min(#stable, #volatile), m windows are drawn uniformly without
    replacement from each class. An empty class returns every window
    unbalanced, flagged single_class.
    """
    rng = np.random.default_rng(seed)
    stable = [w for w in windows if w.label == STABLE]
    volatile = [w for w in windows if w.label == VOLATILE]
    if not stable or not volatile:
        out = list(windows)
        rng.shuffle(out)
        return EpochSample(out, single_class=True)
    m = min(len(stable), len(volatile))
    picked = [stable[i] for i in rng.choice(len(stable), size=m, replace=False)]
    picked += [volatile[i] for i in rng.choice(len(volatile), size=m, replace=False)]
    rng.shuffle(picked)
    return EpochSample(picked, single_class=False)
