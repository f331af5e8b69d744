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
import numbers
from dataclasses import dataclass, field

import numpy as np

ROLES = ("static", "observed_past", "known_future", "target")
STABLE, VOLATILE = "stable", "volatile"  # regime labels of a step or window
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
    """A finite real number, not a bool."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


def _has_type(v, kind) -> bool:
    if kind is int:  # a bool is neither an int nor a number
        return isinstance(v, numbers.Integral) and not isinstance(v, bool)
    if kind is float:
        return is_number(v)
    return isinstance(v, (list, tuple) if kind is list else kind)


def check(doc, rules: dict, error=SchemaError, kind: str = "", prefix: str = "") -> dict:
    """`doc` itself if it is a dict whose keys all have a rule, whose required
    keys are present and whose values pass their rules; else `error` naming the
    first key that fails, as "<key> must be <need>, got <value>".

    A rule is key -> (required, type, range test or None, need). `int` admits
    integers and `float` finite numbers, neither a bool; `list` admits a tuple.
    A dict type holds a nested object's rules; a "*" rule covers any key.
    `kind` ("schema key") words and quotes keys; `prefix` places nested ones.
    """
    if not isinstance(doc, dict):
        what = prefix[:-1] or "the " + kind.split(" ")[0]
        raise error(f"{what} must be a JSON object, got a {type(doc).__name__}")

    def name(key):
        return f"{kind} '{prefix}{key}'" if kind else f"{prefix}{key}"

    for key, (required, *_) in rules.items():
        if required and key not in doc:
            raise error(f"{name(key)} is missing")
    for key, value in doc.items():
        rule = rules.get(key, rules.get("*"))
        if rule is None:
            raise error(f"unknown {name(key)}")
        _, typ, ok, need = rule
        if isinstance(typ, dict):
            check(value, typ, error, kind, f"{prefix}{key}.")
        elif not (_has_type(value, typ) and (ok is None or ok(value))):
            raise error(f"{name(key)} must be {need}, got {value!r}")
    return doc


# rules shared by several tables
INT_AT_LEAST_0 = (False, int, lambda v: v >= 0, "an integer >= 0")
INT_AT_LEAST_1 = (False, int, lambda v: v >= 1, "an integer >= 1")
NUMBER_AT_LEAST_0 = (False, float, lambda v: v >= 0, "a number >= 0")
NUMBER_ABOVE_0 = (False, float, lambda v: v > 0, "a number > 0")

_STR = (False, str, None, "a string")
SCHEMA_RULES = {
    "features": (True, list, None, "a list of feature objects"),
    "grid_step_min": (True, float, None, "a number"),
    "encoder_len": (True, int, None, "an integer"),
    "horizon_len": (True, int, None, "an integer"),
}
FEATURE_RULES = {
    "name": (True, str, None, "a string"),
    "role": (True, str, None, "a string"),
    "dtype": _STR,
    "unit": _STR,
    "vocab_size": (False, int, None, "an integer"),
    "vocab": (False, list, lambda v: all(isinstance(c, str) for c in v), "a list of strings"),
}


def schema_from_dict(doc: dict) -> DatasetSchema:
    """The validated schema a JSON object describes; a missing, unknown or
    mistyped key raises SchemaError naming it."""
    check(doc, SCHEMA_RULES, SchemaError, "schema key")
    feats = []
    for i, d in enumerate(doc["features"]):
        check(d, FEATURE_RULES, SchemaError, "schema key", f"features[{i}].")
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
    try:
        with open(path, encoding="utf-8") as fh:
            return schema_from_dict(json.load(fh))
    except SchemaError as e:  # name the file too
        raise type(e)(f"{path}: {e}") from None
    except ValueError as e:  # not JSON, or not UTF-8
        raise SchemaError(f"{path}: {e}") from None
