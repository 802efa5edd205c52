"""Shared fixtures. The helpers live in `instances`, a module name of
its own, so that test modules import them unambiguously when another test
directory with its own conftest is collected in the same run."""

from __future__ import annotations

import numpy as np
import pytest

from instances import TinyInstance, make_random_instance


@pytest.fixture
def tiny() -> TinyInstance:
    return make_random_instance(seed=12345)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(2024)
