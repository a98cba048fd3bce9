import sys
import time
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from gtebench.datagen import generate_loan, load_loan_removals
from gtebench.model import TrainedModel
import reference_run

# Every property test draws the same examples on every run, with no time limit
# and no example database.
settings.register_profile("gtebench", deadline=None, derandomize=True, database=None)
settings.load_profile("gtebench")

# the removals of the shipped loan config, which leave the 54-row grid
LOAN_REMOVALS = load_loan_removals(resources.files("gtebench.configs") / "loan_default.json")


@pytest.fixture(scope="session")
def reference(tmp_path_factory):
    """The reference run, once: its output directory ``out``, its ``digests``
    as ``reference_run.run`` returns them and its wall time ``elapsed``."""
    out = tmp_path_factory.mktemp("reference") / "out"
    t0 = time.perf_counter()
    digests = reference_run.run(out)
    return dict(out=out, digests=digests, elapsed=time.perf_counter() - t0)


@pytest.fixture(scope="session")
def loan_dataset():
    return generate_loan(LOAN_REMOVALS)


# both default architectures, trained to 100% on Loan by the reference run
@pytest.fixture(scope="session")
def loan_nn1(reference):
    return TrainedModel.load(reference["out"] / "nn1.json")


@pytest.fixture(scope="session")
def loan_nn2(reference):
    return TrainedModel.load(reference["out"] / "nn2.json")
