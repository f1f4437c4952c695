import numpy as np
from hypothesis import HealthCheck, settings

from navit_pack.vet import VisualEmbeddingTable, VisualHead, head_forward, vet_embed

settings.register_profile(
    "stable",
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("stable")


def finite_difference(f, x, h=1e-6):
    """Central-difference gradient of scalar f, independent of library code."""
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        up = f(x)
        x[idx] = orig - h
        down = f(x)
        x[idx] = orig
        grad[idx] = (up - down) / (2.0 * h)
        it.iternext()
    return grad


def rel_err(analytic, numeric):
    """Worst elementwise |a - n| / max(|a|, |n|, 1)."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    return float((np.abs(a - n) / np.maximum(np.maximum(np.abs(a), np.abs(n)), 1.0)).max())


def vet_loss(features, projection, table, upstream):
    """sum_i upstream . vet_embed(head_forward(features)_i), one token at a time."""
    head = VisualHead(projection=projection)
    vet_table = VisualEmbeddingTable(table=table)
    return float(
        sum(vet_embed(t, vet_table) @ upstream for t in head_forward(features, head))
    )
