"""Workload definitions: the CLI flow each workload runs and its inputs.

Nothing here imports numpy or resbvp at module level, so a child process
can time ``import resbvp.cli`` before touching either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    """One CLI flow; BENCHMARK.json records why each workload was chosen."""

    name: str
    command: str
    builtin: str | None = None
    k: int = 1
    grid_n: int | None = None
    max_iter: int = 200
    generated: bool = False  # inputs written from the seed before timing

    def run_config(self, seed: int, out_dir: Path, input_dir: Path):
        """The ``RunConfig`` of one flow of this workload."""
        from resbvp.cli import RunConfig

        return RunConfig(
            command=self.command,
            builtin=self.builtin,
            k=self.k,
            config_path=str(input_dir / AFFINE_CONFIG) if self.generated else None,
            grid_n=self.grid_n,
            max_iter=self.max_iter,
            seed=seed,
            out_dir=str(out_dir),
        )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("solve-s4", "solve", builtin="section4", k=4, grid_n=4096),
        Workload("analyze-fine", "analyze", builtin="section4", k=1, grid_n=16384),
        Workload("hypotheses", "check-hypotheses", builtin="section4", k=1, grid_n=256),
        # 173 iterations on every seed; the CLI default cap of 200 is too close.
        Workload("solve-affine", "solve", max_iter=400, generated=True),
    )
}

# --- seeded inputs of solve-affine -------------------------------------------

AFFINE_CONFIG = "problem.cfg"
AFFINE_DIM = 6
AFFINE_KERNEL_DIM = 2
AFFINE_GRID = 1024
AFFINE_ALPHA = 1.5  # with xi = 1/4, xi^(alpha-1) = 1/2
AFFINE_D_DIAG = -0.2
AFFINE_NOISE = 0.05
# Angle between the forcing direction (the all-ones vector, fixed by the
# CLI's affine rhs) and the kernel.  Fixing it fixes the forcing the kernel
# block sees, and with it the iteration count, on every seed.
AFFINE_FORCING_ANGLE = math.pi / 4


def write_affine_inputs(seed: int, input_dir: Path) -> dict:
    """Write the operator, the rhs matrices and the config of solve-affine.

    alpha = 3/2 and xi = 1/4, so R = I - A/2.  R = sum_i lam_i q_i q_i^T
    over a seeded orthonormal range basis q_3..q_6 with lam_i in
    [0.5, 1.5], so R is symmetric, its kernel span(q_1, q_2) equals its
    cokernel and the splitting is a direct sum.  C and the noise in D act
    only on the range (P C = C P = 0 for the kernel projector P), so the
    kernel block of the iteration is D = -0.2 I on every seed: the kernel
    feedback contracts by construction, at the same rate on every seed.
    Returns the matrices for the output checks.
    """
    import numpy as np
    from resbvp.linops import save_matrix_csv

    n = AFFINE_DIM
    rng = np.random.default_rng(seed)
    ones = np.ones(n) / math.sqrt(n)
    # q1 = cos(t) ones + sin(t) p and q2, both orthonormal to each other.
    basis = np.linalg.qr(np.column_stack([ones, rng.standard_normal((n, n - 1))]))[0]
    basis[:, 0] = ones  # qr may flip the sign
    p, q2 = basis[:, 1], basis[:, 2]
    q1 = math.cos(AFFINE_FORCING_ANGLE) * ones + math.sin(AFFINE_FORCING_ANGLE) * p
    kernel = np.column_stack([q1, q2])
    full = np.linalg.qr(np.column_stack([kernel, rng.standard_normal((n, n - 2))]))[0]
    rng_basis = full[:, AFFINE_KERNEL_DIM:]
    lam = rng.uniform(0.5, 1.5, n - AFFINE_KERNEL_DIM)
    r_mat = (rng_basis * lam) @ rng_basis.T
    a_op = 2.0 * (np.eye(n) - r_mat)
    p_range = rng_basis @ rng_basis.T
    c_mat = p_range @ (AFFINE_NOISE * rng.standard_normal((n, n))) @ p_range
    d_mat = AFFINE_D_DIAG * np.eye(n) + p_range @ (AFFINE_NOISE * rng.standard_normal((n, n))) @ p_range

    input_dir.mkdir(parents=True, exist_ok=True)
    save_matrix_csv(input_dir / "A.csv", a_op)
    save_matrix_csv(input_dir / "C.csv", c_mat)
    save_matrix_csv(input_dir / "D.csv", d_mat)
    (input_dir / AFFINE_CONFIG).write_text(
        "[problem]\n"
        f"alpha = {AFFINE_ALPHA}\n"
        "xi = 0.25\n"
        f"grid_n = {AFFINE_GRID}\n"
        "\n[operator]\n"
        "csv = A.csv\n"
        "\n[rhs]\n"
        "c_matrix = C.csv\n"
        "d_matrix = D.csv\n"
        "g_profile = sqrt\n",
        encoding="utf-8",
    )
    return {"a_op": a_op, "c": c_mat, "d": d_mat, "grid_n": AFFINE_GRID, "alpha": AFFINE_ALPHA}
