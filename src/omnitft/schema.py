"""Feature roles, dataset layout, and the fixed variable-group assignment.

A schema declares, for every feature, whether it is static, observed only in
the past, known into the future, or a forecast target, and fixes the time
grid plus encoder/horizon lengths. Past-side variables are additionally
partitioned into the three selection groups (unknown / known / observed)
that the group-entropy penalty aggregates over.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

ROLES = ("static", "observed_past", "known_future", "target")
_ROLE_TO_GROUP = {"target": 0, "known_future": 1, "observed_past": 2}


class SchemaError(Exception):
    pass


class DuplicateFeatureName(SchemaError):
    pass


class NoTarget(SchemaError):
    pass


class CategoricalTarget(SchemaError):
    pass


class ZeroLengthWindow(SchemaError):
    pass


@dataclass(frozen=True)
class FeatureSpec:
    name: str
    role: str
    dtype: str = "continuous"  # "continuous" or "categorical"
    vocab: tuple[str, ...] | None = None  # category names, index = position
    vocab_size: int | None = None
    unit: str = ""

    def __post_init__(self):
        if self.role not in ROLES:
            raise SchemaError(f"unknown role {self.role!r} for feature {self.name!r}")
        if self.dtype not in ("continuous", "categorical"):
            raise SchemaError(f"unknown dtype {self.dtype!r} for feature {self.name!r}")
        if self.dtype == "categorical":
            size = self.vocab_size if self.vocab is None else len(self.vocab)
            if size is None or size < 1:
                raise SchemaError(f"categorical feature {self.name!r} needs vocab_size >= 1")
            object.__setattr__(self, "vocab_size", int(size))
        elif self.vocab_size is not None or self.vocab is not None:
            raise SchemaError(f"continuous feature {self.name!r} cannot carry a vocabulary")

    @property
    def is_categorical(self) -> bool:
        return self.dtype == "categorical"

    def category_index(self, label: str) -> int:
        if self.vocab is None:
            raise SchemaError(f"feature {self.name!r} has no named vocabulary")
        try:
            return self.vocab.index(label)
        except ValueError:
            raise SchemaError(f"unknown category {label!r} for feature {self.name!r}") from None


@dataclass(frozen=True)
class DatasetSchema:
    features: tuple[FeatureSpec, ...]
    grid_step_min: float
    encoder_len: int
    horizon_len: int

    def __post_init__(self):
        object.__setattr__(self, "features", tuple(self.features))

    # derived layout -------------------------------------------------------
    @property
    def window_len(self) -> int:
        return self.encoder_len + self.horizon_len

    def by_role(self, *roles: str) -> tuple[FeatureSpec, ...]:
        return tuple(f for f in self.features if f.role in roles)

    @property
    def past_features(self) -> tuple[FeatureSpec, ...]:
        """Variables visible on the encoder side, in schema order."""
        return self.by_role("observed_past", "known_future", "target")

    @property
    def future_features(self) -> tuple[FeatureSpec, ...]:
        return self.by_role("known_future")

    @property
    def static_features(self) -> tuple[FeatureSpec, ...]:
        return self.by_role("static")

    @property
    def target_features(self) -> tuple[FeatureSpec, ...]:
        return self.by_role("target")

    @property
    def n_past(self) -> int:
        return len(self.past_features)

    @property
    def n_future(self) -> int:
        return len(self.future_features)

    def feature(self, name: str) -> FeatureSpec:
        for f in self.features:
            if f.name == name:
                return f
        raise SchemaError(f"no feature named {name!r}")

    def column(self, name: str) -> int:
        """Column of `name` in the full per-step value matrix (schema order)."""
        for i, f in enumerate(self.features):
            if f.name == name:
                return i
        raise SchemaError(f"no feature named {name!r}")


def validate_schema(schema: DatasetSchema) -> DatasetSchema:
    """Check all structural invariants; idempotent, returns the schema."""
    names = [f.name for f in schema.features]
    seen = set()
    for n in names:
        if n in seen:
            raise DuplicateFeatureName(n)
        seen.add(n)
    targets = schema.target_features
    if not targets:
        raise NoTarget("schema declares no target feature")
    for t in targets:
        if t.is_categorical:
            raise CategoricalTarget(t.name)
    if schema.encoder_len < 1 or schema.horizon_len < 1:
        raise ZeroLengthWindow(
            f"encoder_len={schema.encoder_len}, horizon_len={schema.horizon_len}"
        )
    if schema.grid_step_min <= 0:
        raise SchemaError("grid_step_min must be positive")
    return schema


@dataclass(frozen=True)
class GroupAssignment:
    """Binary 3 x N_past matrix: rows unknown/known/observed, one-hot columns."""

    matrix: np.ndarray
    columns: tuple[str, ...] = field(default=())

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != 3:
            raise SchemaError(f"group matrix must be 3 x N, got {m.shape}")
        if not np.all((m == 0.0) | (m == 1.0)):
            raise SchemaError("group matrix entries must be 0 or 1")
        if not np.all(m.sum(axis=0) == 1.0):
            raise SchemaError("every variable must belong to exactly one group")
        object.__setattr__(self, "matrix", m)


def build_group_assignment(schema: DatasetSchema) -> GroupAssignment:
    """Map past-side variables to selection groups.

    Targets are future-unknown, known-future covariates are known, and
    everything observed only historically lands in the observed group.
    """
    feats = schema.past_features
    m = np.zeros((3, len(feats)))
    for j, f in enumerate(feats):
        m[_ROLE_TO_GROUP[f.role], j] = 1.0
    return GroupAssignment(m, tuple(f.name for f in feats))


# ---------------------------------------------------------------------------
# JSON round-trip


def schema_to_dict(schema: DatasetSchema) -> dict:
    feats = []
    for f in schema.features:
        d = {"name": f.name, "role": f.role, "dtype": f.dtype, "unit": f.unit}
        if f.is_categorical:
            d["vocab_size"] = f.vocab_size
            if f.vocab is not None:
                d["vocab"] = list(f.vocab)
        feats.append(d)
    return {
        "features": feats,
        "grid_step_min": schema.grid_step_min,
        "encoder_len": schema.encoder_len,
        "horizon_len": schema.horizon_len,
    }


def is_number(v) -> bool:
    """A finite int or float, not a bool."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


# JSON key -> (required, test of its value, what the value must be)
_INT = (lambda v: type(v) is int, "an integer")
_STR = (lambda v: isinstance(v, str), "a string")
_SCHEMA_KEYS = {
    "features": (True, lambda v: isinstance(v, list), "a list of feature objects"),
    "grid_step_min": (True, is_number, "a number"),
    "encoder_len": (True, *_INT),
    "horizon_len": (True, *_INT),
}
_FEATURE_KEYS = {
    "name": (True, *_STR),
    "role": (True, *_STR),
    "dtype": (False, *_STR),
    "unit": (False, *_STR),
    "vocab_size": (False, *_INT),
    "vocab": (False, lambda v: isinstance(v, list) and all(isinstance(c, str) for c in v),
              "a list of strings"),
}


def _check_keys(doc, keys: dict, where: str):
    """SchemaError naming the key unless `doc` is an object whose keys are
    all known, present when required and of the right type."""
    if not isinstance(doc, dict):
        what = where or "the schema"
        raise SchemaError(f"{what} must be a JSON object, got a {type(doc).__name__}")
    prefix = f"{where}." if where else ""
    for key in doc:
        if key not in keys:
            raise SchemaError(f"unknown schema key '{prefix}{key}'")
    for key, (required, ok, need) in keys.items():
        if key not in doc:
            if required:
                raise SchemaError(f"schema key '{prefix}{key}' is missing")
        elif not ok(doc[key]):
            raise SchemaError(f"schema key '{prefix}{key}' must be {need}, got {doc[key]!r}")


def schema_from_dict(doc: dict) -> DatasetSchema:
    """The validated schema a JSON object describes; a missing, unknown or
    mistyped key raises SchemaError naming it."""
    _check_keys(doc, _SCHEMA_KEYS, "")
    feats = []
    for i, d in enumerate(doc["features"]):
        _check_keys(d, _FEATURE_KEYS, f"features[{i}]")
        feats.append(
            FeatureSpec(
                name=d["name"],
                role=d["role"],
                dtype=d.get("dtype", "continuous"),
                vocab=tuple(d["vocab"]) if d.get("vocab") else None,
                vocab_size=d.get("vocab_size"),
                unit=d.get("unit", ""),
            )
        )
    return validate_schema(
        DatasetSchema(
            features=tuple(feats),
            grid_step_min=float(doc["grid_step_min"]),
            encoder_len=doc["encoder_len"],
            horizon_len=doc["horizon_len"],
        )
    )


def save_schema(schema: DatasetSchema, path):
    with open(path, "w") as fh:
        json.dump(schema_to_dict(schema), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_schema(path) -> DatasetSchema:
    with open(path) as fh:
        doc = json.load(fh)
    try:
        return schema_from_dict(doc)
    except SchemaError as e:  # name the file too
        raise type(e)(f"{path}: {e}") from None
