import json
from itertools import product

import numpy as np
import pytest

from gtebench.datagen import (
    Dataset,
    LOAN_GRID,
    EquationConfig,
    VariationSpec,
    apply_variation_raw,
    config_hash,
    generate_equation_dataset,
    generate_loan,
    load_loan_removals,
    loan_label,
    loan_score,
)
from gtebench.errors import ConfigError, NumericFailure
from conftest import LOAN_REMOVALS

from importlib import resources

TIME_CFG = EquationConfig.load(resources.files("gtebench.configs") / "time_desk.json")
DIST_CFG = EquationConfig.load(resources.files("gtebench.configs") / "distance_desk.json")


class TestLoanScore:
    def test_employed_branch(self):
        assert loan_score(5, 3, 0) == 157

    def test_no_job_branch(self):
        assert loan_score(2, 3, 0) == 93

    def test_negative_score(self):
        assert loan_score(3, 0, 3) == -69  # 8*1 + 0 - 81 + 4

    def test_label_boundary(self):
        assert loan_label(157) == 1
        assert loan_label(32) == 1  # boundary inclusive
        assert loan_label(31.999) == 0


class TestGenerateLoan:
    def test_default_count(self):
        assert len(generate_loan(LOAN_REMOVALS)) == 54

    def test_empty_removals(self):
        assert len(generate_loan(())) == 64

    @staticmethod
    def _load(tmp_path, removals):
        """``load_loan_removals`` of a loan config with these ``removals``."""
        (tmp_path / "loan.json").write_text(json.dumps({"removals": removals}))
        return load_loan_removals(tmp_path / "loan.json")

    def test_full_removal_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="loan.json: .*every instance"):
            self._load(tmp_path, LOAN_GRID)

    def test_invalid_removal(self, tmp_path):
        with pytest.raises(ConfigError, match=r"loan.json: .*\(9, 9, 9\) outside the 4x4x4 grid"):
            self._load(tmp_path, [[9, 9, 9]])

    @pytest.mark.parametrize("entry", [[2.9, 3, 0], [2.0, 3, 0], ["2", 3, 0], [True, 3, 0],
                                       [None, 3, 0], [2, 3], [2, 3, 0, 0], 5])
    def test_removal_not_three_ints(self, tmp_path, entry):
        """A removal is three JSON integers: 2.9 and 2.0 are not read as 2,
        nor a bool, a string or a null as an int."""
        with pytest.raises(ConfigError, match="loan.json: .* is not three integers"):
            self._load(tmp_path, [entry])

    def test_removals_are_grid_points(self, tmp_path):
        assert self._load(tmp_path, [[2, 3, 3], [2, 3, 3], [5, 0, 3]]) == {(2, 3, 3), (5, 0, 3)}

    def test_labels_match_brute_force(self, loan_dataset):
        # re-evaluate the scoring rule independently over the full grid
        for x1, x2, x3 in product(range(2, 6), range(0, 4), range(0, 4)):
            if x1 == 2:
                score = 3 * x2**3 + x3**4 + 12
            else:
                score = 8 * (x1 - 2) ** 2 + 3 * x2**3 - x3**4 + 4
            expected = 1 if score >= 32 else 0
            mask = np.all(loan_dataset.X == [x1, x2, x3], axis=1)
            if mask.any():
                assert loan_dataset.labels[mask][0] == expected

    def test_schema_respected(self, loan_dataset):
        X = loan_dataset.X
        assert np.all(X == np.round(X))
        assert np.all((X[:, 0] >= 2) & (X[:, 0] <= 5))
        assert np.all((X[:, 1:] >= 0) & (X[:, 1:] <= 3))


def _vary(row, spec):
    """One row through the generator's path: ops on the raw row, then the schema."""
    return DIST_CFG.schema.round_clamp(apply_variation_raw(np.array(row), spec, DIST_CFG.schema))


class TestVariations:
    def test_single_op(self):
        out = _vary([1.0, 3.0, 2.0, 1.0, 1.0], VariationSpec(3, (("TD", "pow", 2.0),)))
        assert out[DIST_CFG.schema.index("TD")] == 9.0

    def test_identity_variation(self):
        row = np.array([1.0, 3.0, 2.0, 1.0, 1.0])
        assert np.array_equal(_vary(row, VariationSpec(0, ())), row)

    def test_ops_in_listed_order(self):
        # (3 * 2) ** 2 = 36, not 3**2 * 2 = 18
        spec = VariationSpec(1, (("TO", "mul", 2.0), ("TO", "pow", 2.0)))
        out = _vary([1.0, 1.0, 3.0, 1.0, 1.0], spec)
        assert out[DIST_CFG.schema.index("TO")] == 36.0

    def test_bad_op_rejected(self):
        with pytest.raises(ConfigError):
            VariationSpec(1, (("TD", "sqrt", 2.0),))
        with pytest.raises(ConfigError):
            VariationSpec(1, (("TD", "mul", 0.0),))
        with pytest.raises(ConfigError):
            VariationSpec(1, ())


class TestGenerateEquationDataset:
    def test_desk_counts(self):
        cfg = EquationConfig(
            TIME_CFG.equation, TIME_CFG.schema, TIME_CFG.variations, rows_per_class=100
        )
        ds = generate_equation_dataset(cfg, seed=3)
        assert len(ds) == 700
        assert ds.n_classes == 7
        counts = np.bincount(ds.labels)
        assert np.all(counts == 100)

    def test_full_scale_count_arithmetic(self):
        # full configs are too large to materialize here; check the arithmetic
        time_full = EquationConfig.load(resources.files("gtebench.configs") / "time_full.json")
        dist_full = EquationConfig.load(resources.files("gtebench.configs") / "distance_full.json")
        assert time_full.rows_per_class * len(time_full.variations) == 504_000
        assert dist_full.rows_per_class * len(dist_full.variations) == 2_600_000

    def test_reproducible(self):
        cfg = EquationConfig(
            DIST_CFG.equation, DIST_CFG.schema, DIST_CFG.variations, rows_per_class=50
        )
        a = generate_equation_dataset(cfg, seed=9)
        b = generate_equation_dataset(cfg, seed=9)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.labels, b.labels)

    def test_zero_occupancy_rejected(self):
        # generate evaluates the base equation on every base row, and the
        # distance equation is undefined where TO is 0
        doc = DIST_CFG.to_dict()
        doc["rows_per_class"] = 20
        occupancy = doc["schema"][DIST_CFG.schema.index("TO")]
        occupancy.update(mu=0.0, sigma=0.0, trunc_lo=0.0, trunc_hi=0.0)
        with pytest.raises(NumericFailure, match="occupancy"):
            generate_equation_dataset(EquationConfig.from_dict(doc), seed=4)

    def test_schema_interval_and_precision(self):
        cfg = EquationConfig(TIME_CFG.equation, TIME_CFG.schema, TIME_CFG.variations, 100)
        ds = generate_equation_dataset(cfg, seed=1)
        for j, f in enumerate(cfg.schema.features):
            col = ds.X[:, j]
            assert np.all((col >= f.lo) & (col <= f.hi))
            assert np.array_equal(col, np.round(col, f.precision))

    def test_hash_covers_the_seed(self):
        """Rows drawn at another seed are another dataset: the hash covers
        everything ``generate_equation_dataset`` reads."""
        cfg = EquationConfig(
            TIME_CFG.equation, TIME_CFG.schema, TIME_CFG.variations, rows_per_class=5
        )
        hashes = [generate_equation_dataset(cfg, seed=s).config_hash for s in (1, 2)]
        assert hashes == [config_hash({**cfg.to_dict(), "seed": s}) for s in (1, 2)]
        assert hashes[0] != hashes[1]

    @pytest.mark.parametrize("name, expected", [
        ("time_desk", "8ce91bed3b572f01"),
        ("time_full", "13f77116f2e01312"),
        ("distance_desk", "a7b36b2c5daf1758"),
        ("distance_full", "484e4977e19f6c8d"),
    ], ids=["time_desk", "time_full", "distance_desk", "distance_full"])
    def test_shipped_config_hash(self, name, expected):
        # a dataset generated from a shipped config at seed 0 carries this hash:
        # that of the config file's document, exactly as written, and the seed
        path = resources.files("gtebench.configs") / f"{name}.json"
        assert config_hash({**EquationConfig.load(path).to_dict(), "seed": 0}) == expected
        assert expected == config_hash({**json.loads(path.read_text()), "seed": 0})


class TestCsvRoundTrip:
    def test_loan(self, loan_dataset, tmp_path):
        p = tmp_path / "loan.csv"
        loan_dataset.save_csv(p)
        back = Dataset.load_csv(p)
        assert np.array_equal(back.X, loan_dataset.X)
        assert np.array_equal(back.labels, loan_dataset.labels)
        assert back.config_hash == loan_dataset.config_hash

    def test_equation(self, tmp_path):
        cfg = EquationConfig(TIME_CFG.equation, TIME_CFG.schema, TIME_CFG.variations, 30)
        ds = generate_equation_dataset(cfg, seed=2)
        p = tmp_path / "t.csv"
        ds.save_csv(p)
        back = Dataset.load_csv(p)
        assert np.array_equal(back.X, ds.X)
        assert back.n_classes == 7

    def test_byte_identical(self, tmp_path):
        cfg = EquationConfig(TIME_CFG.equation, TIME_CFG.schema, TIME_CFG.variations, 30)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        generate_equation_dataset(cfg, seed=2).save_csv(p1)
        generate_equation_dataset(cfg, seed=2).save_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_only(self, loan_dataset, tmp_path):
        """A dataset of no row is written as its header alone, and refused
        where it is read."""
        empty = Dataset(loan_dataset.schema, np.empty((0, 3)), np.empty(0, int), 2, 0, "h", "loan")
        p = tmp_path / "empty.csv"
        empty.save_csv(p)
        assert p.read_text() == "x1,x2,x3,label,variation_id\n"
        with pytest.raises(ConfigError, match="rows must be positive, got 0"):
            Dataset.load_csv(p)

