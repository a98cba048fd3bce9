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
import warnings
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
    mode_table: tuple[float, ...] = ()

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
        return [
            {k: (list(v) if isinstance(v, tuple) else v) for k, v in vars(f).items()}
            for f in self.features
        ]

    @staticmethod
    def from_dict(items: list[dict]) -> "FeatureSchema":
        feats = []
        for it in items:
            it = dict(it)
            it["mode_values"] = tuple(it.get("mode_values") or ())
            it["mode_table"] = tuple(it.get("mode_table") or ())
            feats.append(Feature(**it))
        return FeatureSchema(tuple(feats))


@dataclass
class Dataset:
    schema: FeatureSchema
    X: np.ndarray  # n x d
    labels: np.ndarray  # n, int class ids contiguous from 0
    variation_ids: np.ndarray  # n, int
    n_classes: int
    seed: int
    config_hash: str
    equation: str  # "loan" | "time" | "distance"
    # generation diagnostics for base-class rows (pre-rounding values and the
    # energy computed from them); not serialized to CSV
    base_raw: np.ndarray | None = None
    base_energy: np.ndarray | None = None

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    def save_csv(self, path: str | Path) -> list[Path]:
        """Write the rows and the sidecar; returns the paths written."""
        fmts = [f"%.{f.precision}f" if f.kind == "continuous" else "%d"
                for f in self.schema.features]
        cols = [self.X[:, j] if f.kind == "continuous" else np.round(self.X[:, j])
                for j, f in enumerate(self.schema.features)]
        meta = {
            "equation": self.equation,
            "seed": self.seed,
            "config_hash": self.config_hash,
            "n_classes": self.n_classes,
            "schema": self.schema.to_dict(),
        }
        return artifacts.write_csv(path, self.schema.names + ["label", "variation_id"],
                                   fmts + ["%d", "%d"], cols + [self.labels, self.variation_ids],
                                   meta)

    @staticmethod
    def load_csv(path: str | Path) -> "Dataset":
        meta = artifacts.read_meta(path)
        schema = FeatureSchema.from_dict(meta["schema"])
        data = artifacts.read_csv(path, schema.names + ["label", "variation_id"])
        d = len(schema.features)
        return Dataset(
            schema=schema,
            X=data[:, :d],
            labels=data[:, d].astype(int),
            variation_ids=data[:, d + 1].astype(int),
            n_classes=int(meta["n_classes"]),
            seed=int(meta["seed"]),
            config_hash=meta["config_hash"],
            equation=meta["equation"],
        )


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

# Implausible combinations excluded from the 4x4x4 grid: no job (x1=2) paired
# with the two top credit tiers, and a >3-year job (x1=5) with the worst
# credit tier at low debt.  Any 10-entry list may be supplied instead.
DEFAULT_LOAN_REMOVALS: tuple[tuple[int, int, int], ...] = (
    (2, 3, 0),
    (2, 3, 1),
    (2, 3, 2),
    (2, 3, 3),
    (2, 2, 0),
    (2, 2, 1),
    (2, 2, 2),
    (2, 2, 3),
    (5, 0, 0),
    (5, 0, 1),
)


def loan_score(x1: int, x2: int, x3: int) -> float:
    """Loan applicant score; the no-job tier (x1 = 2) uses its own branch."""
    for name, v, lo, hi in (("x1", x1, 2, 5), ("x2", x2, 0, 3), ("x3", x3, 0, 3)):
        if not (float(v).is_integer() and lo <= v <= hi):
            raise ConfigError(f"{name}={v} outside integer interval [{lo}, {hi}]")
    if x1 == 2:
        return 3 * x2**3 + x3**4 + 12
    return 8 * (x1 - 2) ** 2 + 3 * x2**3 - x3**4 + 4


def loan_label(score: float) -> int:
    """1 = Accepted iff score >= 32 (boundary inclusive), else 0 = Rejected."""
    return 1 if score >= 32 else 0


def generate_loan(
    removals: tuple[tuple[int, int, int], ...] = DEFAULT_LOAN_REMOVALS,
    seed: int = 0,
) -> Dataset:
    grid = list(product(range(2, 6), range(0, 4), range(0, 4)))
    removal_set = {tuple(int(v) for v in r) for r in removals}
    for r in removal_set:
        if r not in grid:
            raise ConfigError(f"removal entry {r} outside the 4x4x4 grid")
    kept = [g for g in grid if g not in removal_set]
    if not kept:
        warnings.warn("removal list eliminated every instance", stacklevel=2)
    X = np.array(kept, dtype=float).reshape(len(kept), 3)
    labels = np.array([loan_label(loan_score(*g)) for g in kept], dtype=int)
    return Dataset(
        schema=LOAN_SCHEMA,
        X=X,
        labels=labels,
        variation_ids=np.zeros(len(kept), dtype=int),
        n_classes=2,
        seed=seed,
        config_hash=config_hash({"loan_removals": sorted(removal_set)}),
        equation="loan",
    )


# ---------------------------------------------------------------------------
# Energy equations

def base_energy_distance(TF, TD, TO, EI):
    """Travel energy from distance: TF * TD / TO * EI."""
    TO = np.asarray(TO, dtype=float)
    if np.any(TO == 0):
        raise NumericFailure("transportation occupancy must be nonzero")
    return np.asarray(TF, dtype=float) * np.asarray(TD, dtype=float) / TO * np.asarray(EI, dtype=float)


def base_energy_time(TT, Speed, FE):
    """Travel energy from time: TT * Speed * FE."""
    return np.asarray(TT, dtype=float) * np.asarray(Speed, dtype=float) * np.asarray(FE, dtype=float)


_ENERGY_FNS = {
    "time": (base_energy_time, ("TT", "Speed", "FE")),
    "distance": (base_energy_distance, ("TF", "TD", "TO", "EI")),
}


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
    grid_mode: bool = False
    grid_points: int = 8  # per continuous variable, when grid_mode is set

    def to_dict(self) -> dict:
        return {
            "equation": self.equation,
            "schema": self.schema.to_dict(),
            "variations": [
                {"class_id": v.class_id, "ops": [list(op) for op in v.ops]}
                for v in self.variations
            ],
            "rows_per_class": self.rows_per_class,
            "grid_mode": self.grid_mode,
            "grid_points": self.grid_points,
        }

    @staticmethod
    def from_dict(d: dict) -> "EquationConfig":
        if d.get("equation") not in _ENERGY_FNS:
            raise ConfigError(f"equation must be one of {sorted(_ENERGY_FNS)}, got {d.get('equation')!r}")
        variations = tuple(
            VariationSpec(int(v["class_id"]), tuple((str(a), str(b), float(c)) for a, b, c in v["ops"]))
            for v in d["variations"]
        )
        ids = sorted(v.class_id for v in variations)
        if ids != list(range(len(ids))):
            raise ConfigError(f"variation class ids must be contiguous from 0, got {ids}")
        rows = int(d["rows_per_class"])
        if rows < 1:
            raise ConfigError("rows_per_class must be >= 1")
        return EquationConfig(
            equation=d["equation"],
            schema=FeatureSchema.from_dict(d["schema"]),
            variations=variations,
            rows_per_class=rows,
            grid_mode=bool(d.get("grid_mode", False)),
            grid_points=int(d.get("grid_points", 8)),
        )

    @staticmethod
    def load(path: str | Path) -> "EquationConfig":
        try:
            return EquationConfig.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
        except (KeyError, TypeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"invalid equation config {path}: {exc}") from exc


def _draw_base_rows(cfg: EquationConfig, rng: np.random.Generator) -> np.ndarray:
    """Raw (unrounded) base-class rows: truncated-normal draws per continuous
    variable, uniform mode codes, optional per-mode scaling tables."""
    n = cfg.rows_per_class
    cols = []
    mode_col = None
    for f in cfg.schema.features:
        if f.kind == "mode":
            mode_col = rng.choice(np.asarray(f.mode_values, dtype=float), size=n)
            cols.append(mode_col)
        else:
            cols.append(
                truncated_normal(f.mu, f.sigma, f.trunc_lo, f.trunc_hi, rng, size=n)
            )
    X = np.column_stack(cols)
    if mode_col is not None:
        mode_values = [float(m) for m in _mode_feature(cfg.schema).mode_values]
        mode_idx = np.searchsorted(mode_values, mode_col)
        for j, f in enumerate(cfg.schema.features):
            if f.mode_table and f.kind != "mode":
                if len(f.mode_table) != len(mode_values):
                    raise ConfigError(
                        f"mode_table for {f.name} has {len(f.mode_table)} entries, "
                        f"expected {len(mode_values)}"
                    )
                X[:, j] = X[:, j] * np.asarray(f.mode_table)[mode_idx]
    return X


def _grid_base_rows(cfg: EquationConfig) -> np.ndarray:
    axes = []
    for f in cfg.schema.features:
        if f.kind == "mode":
            axes.append(np.asarray(f.mode_values, dtype=float))
        else:
            axes.append(np.linspace(f.trunc_lo, f.trunc_hi, cfg.grid_points))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


def _mode_feature(schema: FeatureSchema) -> Feature:
    for f in schema.features:
        if f.kind == "mode":
            return f
    raise ConfigError("schema has no mode feature")


def generate_equation_dataset(cfg: EquationConfig, seed: int) -> Dataset:
    rng = make_rng(seed, 0)
    if cfg.grid_mode:
        base_raw = _grid_base_rows(cfg)
    else:
        base_raw = _draw_base_rows(cfg, rng)
    energy_fn, var_names = _ENERGY_FNS[cfg.equation]
    idx = [cfg.schema.index(v) for v in var_names]
    base_energy = energy_fn(*(base_raw[:, j] for j in idx))

    blocks, labels, variation_ids = [], [], []
    for spec in sorted(cfg.variations, key=lambda v: v.class_id):
        transformed = apply_variation_raw(base_raw, spec, cfg.schema)
        blocks.append(cfg.schema.round_clamp(transformed))
        labels.append(np.full(base_raw.shape[0], spec.class_id, dtype=int))
        variation_ids.append(np.full(base_raw.shape[0], spec.class_id, dtype=int))
    return Dataset(
        schema=cfg.schema,
        X=np.vstack(blocks),
        labels=np.concatenate(labels),
        variation_ids=np.concatenate(variation_ids),
        n_classes=len(cfg.variations),
        seed=seed,
        config_hash=config_hash(cfg.to_dict()),
        equation=cfg.equation,
        base_raw=base_raw,
        base_energy=base_energy,
    )


# ---------------------------------------------------------------------------
# Diagnostics


def class_overlap_report(dataset: Dataset) -> np.ndarray:
    """Symmetric matrix of per-class-pair overlap fractions.

    For classes (a, b): the fraction of their pooled instances that lie inside
    the intersection of both classes' empirical bounding boxes.
    """
    if len(dataset) == 0 or dataset.n_classes < 2:
        raise ConfigError("overlap report needs a non-empty dataset with >= 2 classes")
    C = dataset.n_classes
    boxes = []
    members = []
    for c in range(C):
        Xc = dataset.X[dataset.labels == c]
        members.append(Xc)
        boxes.append((Xc.min(axis=0), Xc.max(axis=0)) if len(Xc) else None)
    out = np.zeros((C, C))
    np.fill_diagonal(out, 1.0)
    for a in range(C):
        for b in range(a + 1, C):
            if boxes[a] is None or boxes[b] is None:
                continue
            lo = np.maximum(boxes[a][0], boxes[b][0])
            hi = np.minimum(boxes[a][1], boxes[b][1])
            pooled = np.vstack([members[a], members[b]])
            inside = np.all((pooled >= lo) & (pooled <= hi), axis=1)
            out[a, b] = out[b, a] = inside.mean()
    return out
