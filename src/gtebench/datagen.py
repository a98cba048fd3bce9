"""Synthetic dataset generation.

Three dataset families share one machinery:

* ``loan`` -- a small hand-specified grid of loan-underwriting instances
  labeled by a closed-form scoring rule;
* ``time`` / ``distance`` -- travel-energy datasets where each class is a
  "variation" (scalar multiplies / exponentiations applied to the base
  equation's variables).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from . import artifacts
from .errors import ConfigError, NumericFailure
from .numerics import make_rng, truncated_normal


# ---------------------------------------------------------------------------
# Schema


@dataclass(frozen=True)
class Feature:
    """One column of a dataset.

    ``lo``/``hi`` bound every stored value (variations are clamped to them);
    ``trunc_lo``/``trunc_hi`` bound the base-class sampling range, which may
    be much narrower.
    """

    name: str
    kind: str  # "ordinal" | "continuous" | "mode"
    lo: float
    hi: float
    precision: int = 3
    mu: float | None = None
    sigma: float | None = None
    trunc_lo: float | None = None
    trunc_hi: float | None = None
    mode_values: tuple[int, ...] = ()

    def round_clamp(self, values: np.ndarray) -> np.ndarray:
        v = np.clip(values, self.lo, self.hi)
        if self.kind == "continuous":
            return np.round(v, self.precision)
        return np.round(v)


@dataclass(frozen=True)
class FeatureSchema:
    features: tuple[Feature, ...]

    @property
    def names(self) -> list[str]:
        return [f.name for f in self.features]

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ConfigError(f"unknown feature {name!r}; schema has {self.names}") from None

    def round_clamp(self, X: np.ndarray) -> np.ndarray:
        X = np.array(X, dtype=float, copy=True)
        for j, f in enumerate(self.features):
            X[..., j] = f.round_clamp(X[..., j])
        return X

    def to_dict(self) -> list[dict]:
        return [{k: (list(v) if isinstance(v, tuple) else v) for k, v in vars(f).items()}
                for f in self.features]

    @staticmethod
    def from_dict(items: list[dict]) -> "FeatureSchema":
        """Checks that there is at least one feature, that each name is a
        non-empty string that can head a dataset CSV column (once, not
        ``label`` or ``variation_id``, no ',', '\\r' or '\\n'), each
        feature's ``kind``, and that its ``precision`` is an integer that
        leaves a field room for a digit before the point. A key that is not a
        field of ``Feature`` is a TypeError naming it."""
        if not items:
            raise ConfigError("the schema lists no feature")
        features = tuple(Feature(**{**it, "mode_values": tuple(it.get("mode_values") or ())})
                         for it in items)
        header = _csv_columns(FeatureSchema(features))[0]
        for name in header[:len(features)]:
            if not isinstance(name, str) or not name:
                raise ConfigError(f"feature name {name!r} must be a non-empty string")
            artifacts.check_text_cell(name, "feature name")
            if header.count(name) > 1:
                raise ConfigError(f"feature name {name!r} would head two columns of the "
                                  f"dataset CSV {header}")
        for f in features:
            if (f.kind not in ("continuous", "ordinal", "mode") or type(f.precision) is not int
                    or not 0 <= f.precision < artifacts.MAX_DIGITS):
                raise ConfigError(f"feature {f.name!r} needs kind continuous, ordinal or mode and "
                                  f"an integer precision in [0, {artifacts.MAX_DIGITS - 1}], got "
                                  f"{f.kind!r} and {f.precision!r}")
        return FeatureSchema(features)


@dataclass
class Dataset:
    schema: FeatureSchema
    X: np.ndarray  # n x d
    labels: np.ndarray  # n, int class ids contiguous from 0
    n_classes: int
    seed: int
    config_hash: str
    equation: str  # "loan" | "time" | "distance"

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    def save_csv(self, path: str | Path) -> dict[Path, str]:
        """Write the rows and the sidecar; returns the sha256 of each file
        written. A value off its column's grid is a ConfigError."""
        # an equation dataset's variation is its class; loan has none
        variation_ids = np.zeros_like(self.labels) if self.equation == "loan" else self.labels
        meta = {
            "equation": self.equation,
            "seed": self.seed,
            "config_hash": self.config_hash,
            "n_classes": self.n_classes,
            "schema": self.schema.to_dict(),
            "rows": len(self),
        }
        return artifacts.write_fixed_csv(path, *_csv_columns(self.schema),
                                         [*self.X.T, self.labels, variation_ids], meta)

    @staticmethod
    def load_csv(path: str | Path) -> "Dataset":
        """The rows and the sidecar; the CSV must hold the sidecar's number of
        rows, at least 1, as ``save_csv`` writes them, every label a class id
        below n_classes and every variation id what ``save_csv`` writes. ``X``
        is a C-contiguous (n, d) float array and ``labels`` an int array."""
        def build(doc):
            fields = artifacts.typed(doc, equation=str, seed=int, config_hash=str, n_classes=int,
                                     schema=list, rows=int)
            if fields["rows"] < 1:
                raise ConfigError(f"rows must be positive, got {fields['rows']}")
            return {**fields, "schema": FeatureSchema.from_dict(fields["schema"])}

        fields = artifacts.read_json(artifacts.sidecar_path(path), build)
        rows = fields.pop("rows")
        X, ids = artifacts.read_fixed_csv(path, *_csv_columns(fields["schema"]),
                                          len(fields["schema"].features))
        if len(X) != rows:
            raise ConfigError(f"{path}: {len(X)} rows, sidecar records {rows}")
        # the parser reads integers only in these columns
        labels, variation_ids, n = ids[:, 0], ids[:, 1], fields["n_classes"]
        bad = np.flatnonzero(~((labels >= 0) & (labels < n)))
        if bad.size:
            raise ConfigError(f"{path}: label {labels[bad[0]]:g} of data row {bad[0] + 1} is "
                              f"not in [0, {n})")
        loan = fields["equation"] == "loan"
        bad = np.flatnonzero(variation_ids != (0 if loan else labels))
        if bad.size:
            raise ConfigError(f"{path}: variation_id {variation_ids[bad[0]]:g} of data row "
                              f"{bad[0] + 1} is not {'0' if loan else 'its label'}")
        return Dataset(X=X, labels=labels.astype(int), **fields)


def _csv_columns(schema: FeatureSchema) -> tuple[list[str], list[int]]:
    """The header of a dataset CSV and each column's number of decimals: a
    continuous feature's precision, 0 for any other column."""
    return (schema.names + ["label", "variation_id"],
            [f.precision if f.kind == "continuous" else 0 for f in schema.features] + [0, 0])


def config_hash(obj) -> str:
    """Stable short hash of any JSON-serializable config."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Loan

LOAN_SCHEMA = FeatureSchema(
    (
        Feature("x1", "ordinal", 2, 5, precision=0),
        Feature("x2", "ordinal", 0, 3, precision=0),
        Feature("x3", "ordinal", 0, 3, precision=0),
    )
)


LOAN_GRID = tuple(product(range(2, 6), range(0, 4), range(0, 4)))  # (x1, x2, x3), row order


def load_loan_removals(path: str | Path) -> frozenset[tuple[int, int, int]]:
    """The grid points a loan config's ``removals`` leave out: each three JSON
    integers on ``LOAN_GRID``, and not all of them. The shipped ``loan_default.json``
    removes the implausible ones: no job (x1=2) with the two top credit tiers,
    and a >3-year job (x1=5) with the worst credit tier at low debt."""
    def build(doc):
        removals = artifacts.typed(doc, removals=list)["removals"]
        for r in removals:
            if type(r) is not list or len(r) != 3 or any(type(v) is not int for v in r):
                raise ConfigError(f"removal entry {r!r} is not three integers")
            if tuple(r) not in LOAN_GRID:
                raise ConfigError(f"removal entry {tuple(r)} outside the 4x4x4 grid")
        removed = frozenset(map(tuple, removals))
        if len(removed) == len(LOAN_GRID):
            raise ConfigError("the removal list eliminates every instance of the 4x4x4 grid")
        return removed

    return artifacts.read_json(path, build)


def loan_score(x1: int, x2: int, x3: int) -> float:
    """Loan applicant score at a point of the 4x4x4 grid; the no-job tier
    (x1 = 2) uses its own branch."""
    if x1 == 2:
        return 3 * x2**3 + x3**4 + 12
    return 8 * (x1 - 2) ** 2 + 3 * x2**3 - x3**4 + 4


def loan_label(score: float) -> int:
    """1 = Accepted iff score >= 32 (boundary inclusive), else 0 = Rejected."""
    return 1 if score >= 32 else 0


def generate_loan(removals: frozenset[tuple[int, int, int]], seed: int = 0) -> Dataset:
    """The points of ``LOAN_GRID`` less ``removals``, as ``load_loan_removals`` reads them."""
    kept = [g for g in LOAN_GRID if g not in removals]
    X = np.array(kept, dtype=float)
    labels = np.array([loan_label(loan_score(*g)) for g in kept], dtype=int)
    return Dataset(
        schema=LOAN_SCHEMA,
        X=X,
        labels=labels,
        n_classes=2,
        seed=seed,
        config_hash=config_hash({"loan_removals": sorted(removals)}),
        equation="loan",
    )


# ---------------------------------------------------------------------------
# Energy equations

# the variables of each base equation, which its schema must have: the travel
# energy TT * Speed * FE from time, and TF * TD / TO * EI from distance
EQUATION_VARIABLES = {"time": ("TT", "Speed", "FE"), "distance": ("TF", "TD", "TO", "EI")}


# ---------------------------------------------------------------------------
# Variations

_OPS = ("mul", "pow")


@dataclass(frozen=True)
class VariationSpec:
    class_id: int
    ops: tuple[tuple[str, str, float], ...]  # (variable, "mul"|"pow", parameter)

    def __post_init__(self):
        for var, op, param in self.ops:
            if op not in _OPS:
                raise ConfigError(f"unknown op {op!r}; expected one of {_OPS}")
            if not np.isfinite(param) or param == 0:
                raise ConfigError(f"op parameter must be finite and nonzero, got {param}")
        if self.class_id != 0 and not self.ops:
            raise ConfigError("non-base variation must define at least one op")


def apply_variation_raw(X: np.ndarray, spec: VariationSpec, schema: FeatureSchema) -> np.ndarray:
    """Apply the variation's ops in listed order to raw (unrounded) rows."""
    X = np.array(X, dtype=float, copy=True)
    for var, op, param in spec.ops:
        j = schema.index(var)
        if op == "mul":
            X[..., j] = X[..., j] * param
        else:
            X[..., j] = np.power(X[..., j], param)
        if not np.all(np.isfinite(X[..., j])):
            raise NumericFailure(f"variation op ({var}, {op}, {param}) produced non-finite values")
    return X


# ---------------------------------------------------------------------------
# Equation dataset generation


@dataclass
class EquationConfig:
    equation: str  # "time" | "distance"
    schema: FeatureSchema
    variations: tuple[VariationSpec, ...]
    rows_per_class: int

    def to_dict(self) -> dict:
        return {
            "equation": self.equation,
            "schema": self.schema.to_dict(),
            "variations": [
                {"class_id": v.class_id, "ops": [list(op) for op in v.ops]}
                for v in self.variations
            ],
            "rows_per_class": self.rows_per_class,
        }

    @staticmethod
    def from_dict(d: dict) -> "EquationConfig":
        """Checks that there is at least one variation, each an integer
        ``class_id`` and ``ops`` of [variable, op, number], that the schema
        has every variable of the equation and of the ops, that every number
        of every feature is finite, that ``lo <= hi``, that every mode code
        is an integer, and that every feature but the mode has numbers
        ``mu``, ``sigma >= 0`` and ``trunc_lo <= trunc_hi``, with ``mu`` in
        that range at ``sigma`` 0. The config, each variation and each feature
        hold only the keys ``to_dict`` writes: any other is a TypeError."""
        f = artifacts.typed(d, equation=str, schema=list, variations=list, rows_per_class=int)
        if f["equation"] not in EQUATION_VARIABLES:
            raise ConfigError(f"equation must be one of {sorted(EQUATION_VARIABLES)}: "
                              f"{f['equation']!r}")
        variations = []
        for doc in f["variations"]:
            class_id, ops = artifacts.typed(doc, class_id=int, ops=list).values()
            if not all(type(op) is list and [*map(type, op)] in ([str, str, int], [str, str, float])
                       for op in ops):
                raise TypeError(f"variation {class_id}: each op must be [variable, op, number], "
                                f"got {ops!r}")
            variations.append(VariationSpec(class_id, tuple((a, b, float(c)) for a, b, c in ops)))
        f["variations"] = tuple(variations)
        ids = sorted(v.class_id for v in f["variations"])
        if not ids or ids != list(range(len(ids))):
            raise ConfigError(f"variation class ids must be contiguous from 0, at least one, "
                              f"got {ids}")
        if f["rows_per_class"] < 1:
            raise ConfigError("rows_per_class must be >= 1")
        f["schema"] = FeatureSchema.from_dict(f["schema"])
        missing = [v for v in EQUATION_VARIABLES[f["equation"]] if v not in f["schema"].names]
        if missing:
            raise ConfigError(f"the {f['equation']} equation needs {missing}, not in the schema")
        for var, _, _ in (op for spec in f["variations"] for op in spec.ops):
            f["schema"].index(var)  # ConfigError for a variable outside the schema
        for feat in f["schema"].features:
            keys = ("lo", "hi") + (("mu", "sigma", "trunc_lo", "trunc_hi") if feat.kind != "mode"
                                   else ())
            numbers = artifacts.typed({k: getattr(feat, k) for k in keys},
                                      **dict.fromkeys(keys, float))
            for key, v in numbers.items():
                if not math.isfinite(v):
                    raise ConfigError(f"feature {feat.name!r}: {key} must be finite, got {v}")
            if not all(type(v) is int for v in feat.mode_values):
                raise ConfigError(f"feature {feat.name!r}: mode_values must be integers, got "
                                  f"{list(feat.mode_values)}")
            if not feat.lo <= feat.hi:
                raise ConfigError(f"feature {feat.name!r} needs lo <= hi: {feat.lo}, {feat.hi}")
            mu, sigma, lo, hi = feat.mu, feat.sigma, feat.trunc_lo, feat.trunc_hi
            if feat.kind != "mode" and not (sigma >= 0 and lo <= hi and (sigma or lo <= mu <= hi)):
                raise ConfigError(f"feature {feat.name!r} needs sigma >= 0, trunc_lo <= trunc_hi "
                                  f"and, at sigma 0, mu between them: sigma {sigma}, mu {mu}, "
                                  f"trunc_lo {lo}, trunc_hi {hi}")
        return EquationConfig(**f)

    @staticmethod
    def load(path: str | Path) -> "EquationConfig":
        return artifacts.read_json(path, EquationConfig.from_dict)


def _draw_base_rows(cfg: EquationConfig, rng: np.random.Generator) -> np.ndarray:
    """Raw (unrounded) base-class rows, drawn feature by feature in schema
    order: truncated-normal values per continuous variable, uniform mode codes."""
    n = cfg.rows_per_class
    return np.column_stack([
        rng.choice(np.asarray(f.mode_values, dtype=float), size=n) if f.kind == "mode"
        else truncated_normal(f.mu, f.sigma, f.trunc_lo, f.trunc_hi, rng, size=n)
        for f in cfg.schema.features
    ])


def generate_equation_dataset(cfg: EquationConfig, seed: int) -> Dataset:
    base_raw = _draw_base_rows(cfg, make_rng(seed, 0))
    # the distance equation divides by TO, so it is undefined on a base row where TO is 0
    if cfg.equation == "distance" and not base_raw[:, cfg.schema.index("TO")].all():
        raise NumericFailure("transportation occupancy must be nonzero")

    # rounding is elementwise, so the stacked classes are rounded and clamped at once
    specs = sorted(cfg.variations, key=lambda v: v.class_id)
    raw = np.vstack([apply_variation_raw(base_raw, spec, cfg.schema) for spec in specs])
    return Dataset(
        schema=cfg.schema,
        X=cfg.schema.round_clamp(raw),
        labels=np.repeat([spec.class_id for spec in specs], len(base_raw)),
        n_classes=len(cfg.variations),
        seed=seed,
        config_hash=config_hash({**cfg.to_dict(), "seed": seed}),
        equation=cfg.equation,
    )
