import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import scatsplit as ss


def pytest_addoption(parser):
    parser.addoption(
        "--fuzz-seeds", type=int, default=1, metavar="N",
        help="run the CLI fuzz of tests/test_refusals.py over seeds 1 .. N (default 1); "
             "its per-cause refusal bounds hold at seed 1 only")


@pytest.fixture(scope="session")
def canonical_barrier():
    """Rectangular bump, height 2, on [0, 1]: tunneling regime at k = 1."""
    return ss.make_rectangular(0.0, 1.0, 2.0)


@pytest.fixture(scope="session")
def free_barrier():
    return ss.make_rectangular(0.0, 2.0, 0.0)


@pytest.fixture(scope="session")
def canonical_fam(canonical_barrier):
    """The one-k family at k = 1 on the canonical barrier."""
    return ss.solve_family(canonical_barrier, [1.0])


@pytest.fixture(scope="session")
def canonical_packet(canonical_barrier):
    """Shared packet; modest spectral resolution keeps the suite fast."""
    return ss.make_gaussian_packet(-40.0, 8.0, 1.0, barrier=canonical_barrier, n=384)


def random_symmetric_barrier(rng, max_segments=3, allow_wells=False):
    """Draw a mirror-symmetric piecewise barrier with sane numerics."""
    n_half = rng.integers(1, max_segments + 1)
    widths = rng.uniform(0.2, 1.5, size=n_half)
    lo = -2.0 if allow_wells else 0.1
    heights = rng.uniform(lo, 6.0, size=n_half)
    a = rng.uniform(-3.0, 1.0)
    return ss.make_symmetric(a, list(zip(widths, heights)))


# relative offsets of k from sqrt(2V) at which the planted grids sit
PLANTED_EPS = (0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6)


def planted_ks(heights, eps=PLANTED_EPS):
    """k = sqrt(2V) (1 + e) for every positive height V and every e in eps,
    ascending: E within about 2e of each step's V, and on it for e = 0."""
    return np.array(sorted({math.sqrt(2 * v) * (1 + e)
                            for v in set(np.asarray(heights, dtype=float).tolist()) if v > 0
                            for e in eps}))
