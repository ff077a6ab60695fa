import numpy as np
import pytest
from hypothesis import settings

from gsteady.restitution import constant, power_law, viscoelastic

# Property tests draw the same examples on every run, so the suite's
# outcome does not depend on the run.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture
def models():
    """The four restitution laws exercised by every battery."""
    return {
        "constant_0.3": constant(0.3),
        "constant_0.8": constant(0.8),
        "power_law": power_law(1.0, 0.2),
        "viscoelastic": viscoelastic(1.0),
    }


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_unit(rng, n=None):
    shape = (3,) if n is None else (n, 3)
    raw = rng.normal(size=shape)
    return raw / np.linalg.norm(raw, axis=-1, keepdims=True)
