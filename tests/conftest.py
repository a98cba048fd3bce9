import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from gtebench.datagen import generate_loan, load_loan_removals
from gtebench.model import ModelConfig, TrainConfig, train

# Every property test draws the same examples on every run, with no time limit
# and no example database.
settings.register_profile("gtebench", deadline=None, derandomize=True, database=None)
settings.load_profile("gtebench")

# the removals of the shipped loan config, which leave the 54-row grid
LOAN_REMOVALS = load_loan_removals(resources.files("gtebench.configs") / "loan_default.json")

# Training settings that take both default architectures to 100% on Loan.
LOAN_NN1 = dict(
    mcfg=ModelConfig((3, 16, 16, 2), "relu"),
    tcfg=TrainConfig(epochs=400, learning_rate=0.3, batch_size=16, seed=11),
)
LOAN_NN2 = dict(
    mcfg=ModelConfig((3, 32, 2), "tanh"),
    tcfg=TrainConfig(epochs=800, learning_rate=0.5, batch_size=16, seed=12),
)


@pytest.fixture(scope="session")
def loan_dataset():
    return generate_loan(LOAN_REMOVALS)


@pytest.fixture(scope="session")
def loan_nn1(loan_dataset):
    return train(loan_dataset, 1.0, LOAN_NN1["mcfg"], LOAN_NN1["tcfg"])


@pytest.fixture(scope="session")
def loan_nn2(loan_dataset):
    return train(loan_dataset, 1.0, LOAN_NN2["mcfg"], LOAN_NN2["tcfg"])
