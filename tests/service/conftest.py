"""Shared fixtures for the service suite: a synthetic database of six
signs (two views each) and a query set of near-matches plus random
walks."""

import numpy as np
import pytest

from repro.sax.database import SignDatabase


@pytest.fixture(scope="module")
def database() -> SignDatabase:
    rng = np.random.default_rng(0)
    db = SignDatabase()
    for index in range(6):
        base = np.cumsum(rng.standard_normal(64))
        for view in range(2):
            db.add(
                f"sign_{index}",
                base + 0.05 * np.cumsum(rng.standard_normal(64)),
                view=f"v{view}",
            )
    return db


@pytest.fixture(scope="module")
def queries(database) -> list[np.ndarray]:
    rng = np.random.default_rng(1)
    near = [
        database.entry(label).series + 0.02 * rng.standard_normal(64)
        for label in database.labels
    ]
    far = [np.cumsum(rng.standard_normal(64)) for _ in range(6)]
    return near + far
