"""Seeded input generator for the scaled workloads.

Each person draws one latent match quality shared by all modalities, and
each modality adds its own noise, so the modality scores correlate the way
real matchers do.  Clients centre the latent term on +LATENT_MEAN and
impostors on -LATENT_MEAN; the unit-variance latent term plus the modality
noise makes the classes overlap, so the EER is neither 0 nor trivial.
Scores are the logistic squash of latent + noise, which keeps them in
[0, 1].

Only numpy is used here: the inputs never depend on the code under test.
"""

from __future__ import annotations

import numpy as np

LATENT_MEAN = 1.5
# Noise standard deviation of modality j; later modalities are weaker matchers.
NOISE_SD = (0.8, 1.0, 1.2, 1.5)


def scores(seed: int, n_clients: int, n_impostors: int, n_modalities: int):
    """(client, impostor) score matrices, full-precision floats in [0, 1]."""
    if not 1 <= n_modalities <= len(NOISE_SD):
        raise ValueError(f"n_modalities must lie in [1, {len(NOISE_SD)}]")
    rng = np.random.default_rng(seed)
    sd = np.asarray(NOISE_SD[:n_modalities])

    def block(n: int, mean: float) -> np.ndarray:
        latent = rng.normal(mean, 1.0, size=(n, 1))
        noise = rng.normal(0.0, 1.0, size=(n, n_modalities)) * sd
        return 1.0 / (1.0 + np.exp(-(latent + noise)))

    return block(n_clients, LATENT_MEAN), block(n_impostors, -LATENT_MEAN)


def write_csv_3dp(path, clients: np.ndarray, impostors: np.ndarray) -> int:
    """Write the package CSV schema with scores at 3 decimals; returns bytes.

    Written here rather than through ``choqfuse.write_csv`` so the input
    bytes stay the same whatever the program under test does.  Rounding to
    3 decimals gives the heavy score ties real matchers report.
    """
    n = clients.shape[1]
    lines = ["person_id,label," + ",".join(f"m{j + 1}" for j in range(n))]
    pid = 0
    for label, block in (("client", clients), ("impostor", impostors)):
        for row in block:
            pid += 1
            lines.append(f"P{pid},{label}," + ",".join(f"{v:.3f}" for v in row))
    data = ("\n".join(lines) + "\n").encode("ascii")
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)
