import numpy as np
import pytest

from potentops import sampling
from potentops.sampling import SELECTION_FLOOR, random_selection, random_state


def _redraw_until(dim, rng, floor):
    """random_selection's draw loop alone, with no refusal in front of it."""
    while True:
        psi, phi = random_state(dim, rng), random_state(dim, rng)
        if abs(np.vdot(phi, psi)) >= floor:
            return psi, phi


@pytest.mark.parametrize("dim, floor", [
    (256, 0.3),            # accepted with probability 3.6e-11
    (148, 0.3),            # 9.5e-7, just below MIN_ACCEPTANCE
    (2, float("nan")),     # |<phi|psi>| >= nan is always False
    (1, float("nan")),
    (2, 1.0),              # met with probability 0
    (5, 1.0),
    (3, 1.5),              # above every |<phi|psi>|
    (1, 1.5),
])
def test_unreachable_floor_refused_before_any_draw(dim, floor):
    rng = np.random.default_rng(7)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=rf"dim {dim}\b.*floor {floor}"):
        random_selection(dim, rng, floor)
    assert rng.bit_generator.state == before


def test_floor_at_the_acceptance_bound_is_drawn(monkeypatch):
    # 0.91**146 = 1.05e-6: dim 147 at floor 0.3 is accepted; a stub state
    # meets the floor at once, so the test does not wait a million draws
    monkeypatch.setattr(sampling, "random_state", lambda dim, rng: np.ones(dim) / np.sqrt(dim))
    psi, phi = random_selection(147, np.random.default_rng(0), 0.3)
    assert abs(np.vdot(phi, psi)) >= 0.3


@pytest.mark.parametrize("dim, floor", [(2, 0.3), (3, 0.3), (8, 0.3), (40, 0.3),
                                        (16, SELECTION_FLOOR), (1, 0.0), (4, -1.0)])
def test_accepted_draws_are_the_loop_alone(dim, floor):
    for seed in range(5):
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn, expected = random_selection(dim, rng, floor), _redraw_until(dim, reference, floor)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(drawn, expected))
        assert rng.bit_generator.state == reference.bit_generator.state
