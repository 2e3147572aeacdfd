import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from resbvp import Order, ProblemSpec, build_section4, cumulative_integral, evaluate, frac_integral

PERFBENCH = Path(__file__).parent.parent / "perfbench"


def load_benchmark_module(stem: str):
    """The benchmark's module ``perfbench/<stem>.py``, loaded from its file
    and registered as ``perfbench_<stem>``: its dataclasses look their
    module up.  ``workloads`` writes the seeded affine inputs."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{stem}", PERFBENCH / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def make_resonant_spec(
    rng: np.random.Generator,
    n: int,
    dim_ker: int,
    alpha: float = 1.5,
    xi: float = 0.25,
    grid_n: int = 64,
) -> ProblemSpec:
    """Random problem whose resonance matrix has a prescribed kernel.

    Draw R = U diag(s) V^T with dim_ker zero singular values and recover
    the boundary operator from A = xi^(1-alpha) (I - R).
    """
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.concatenate([rng.uniform(0.5, 2.0, size=n - dim_ker), np.zeros(dim_ker)])
    r_mat = (u * s) @ v.T
    a_op = xi ** (1.0 - alpha) * (np.eye(n) - r_mat)

    def rhs(t, u_vec, v_vec):
        return np.zeros_like(u_vec)

    return ProblemSpec(ord=Order(alpha), xi=xi, a_op=a_op, rhs=rhs, grid_n=grid_n)


@pytest.fixture(scope="session")
def sec4_spec():
    return build_section4(1, 256)


@pytest.fixture(scope="session")
def sec4_rdata(sec4_spec):
    from resbvp import build_resonance

    return build_resonance(sec4_spec)


def element_samples(x, ord):
    """Grid samples (x, D^(alpha-1) x) of a domain element, through ``evaluate``."""
    iv, iy = frac_integral(x.source, ord.alpha).values, cumulative_integral(x.source).values
    return evaluate(iv, iy, x.coef, ord)


SQRT_PI = math.sqrt(math.pi)
