import pytest

from qisflow import verify
from qisflow.verify import gradient_suite

# Seeds on which a central difference at step 1e-5 exceeded the 1e-6 relative
# bound through round-off alone.
ROUND_OFF_SEEDS = [1200014, 3300010, 3300053, 3600027, 3800037, 2800008, 3800058]


@pytest.mark.parametrize("seed", ROUND_OFF_SEEDS)
def test_gradient_suite_passes_on_round_off_seeds(seed):
    results = gradient_suite(seed)
    assert all(r.passed for r in results), results


@pytest.mark.parametrize("name, label", [
    ("grad_K", "matrix_gradient_fd_relative"),
    ("grad_kappa", "simplex_gradient_fd_relative"),
])
def test_scaled_gradient_fails(monkeypatch, name, label):
    exact = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda *args: (1.0 + 1e-5) * exact(*args))
    for seed in range(10):
        result = {r.label: r for r in gradient_suite(seed)}[label]
        assert not result.passed, (seed, result)

