from fractions import Fraction

import numpy as np
import pytest

from conftest import uniform_graph
from packgraph import reductions as red
from packgraph.graph import (
    KCyclePacking,
    generate_instance,
    packing_weight,
)
from packgraph.oracles import optimal_k_packing, run_algorithm


def exact(kind, k):
    """The exact oracle as a {0,1} solver."""
    return lambda h: optimal_k_packing(h, k, kind)[0]


def test_lift_constant_graphs():
    g1 = uniform_graph(6, 1, class_tag="one_two")
    assert (red.lift_12_to_01(g1).w == 0).all()
    g2 = uniform_graph(6, 2, class_tag="one_two")
    lifted = red.lift_12_to_01(g2)
    assert lifted.class_tag == "zero_one"
    off = ~np.eye(6, dtype=bool)
    assert (lifted.w[off] == 1).all()


def test_lift_rejects_other_weights():
    with pytest.raises(ValueError):
        red.lift_12_to_01(uniform_graph(6, 3))


def test_reduction_offset():
    assert red.reduction_offset(12, 3, "cycle") == 12
    assert red.reduction_offset(12, 4, "path") == 9


def test_weight_identity_random():
    for seed in range(5):
        g = generate_instance(9, "one_two", seed=seed)
        lifted = red.lift_12_to_01(g)
        packing, _ = optimal_k_packing(lifted, 3, "cycle")
        on_g, on_lift = packing_weight(g, packing), packing_weight(lifted, packing)
        assert on_g == on_lift + red.reduction_offset(9, 3, "cycle")


def test_solve_12_via_01_validates_plug():
    g = generate_instance(6, "one_two", seed=1)

    def bad_solve(h):
        return KCyclePacking(k=3, cycles=((0, 1, 2), (3, 4, 4)))

    with pytest.raises(ValueError):
        red.solve_12_via_01(g, 3, bad_solve)


def test_three_cp_constant_graphs_are_optimal():
    for c in (1, 2):
        g = uniform_graph(9, c, class_tag="one_two")
        packing = red.three_cp_9_11(g, exact("cycle", 3))
        assert packing_weight(g, packing) == 9 * c


def test_three_cp_argument_checks():
    g = generate_instance(10, "one_two", seed=0)
    with pytest.raises(ValueError):
        red.three_cp_9_11(g, exact("cycle", 3))  # n not % 3
    g = generate_instance(9, "one_two", seed=0)
    # a path solver's packing is not a 3-cycle packing of the lift
    with pytest.raises(ValueError, match="expected a cycle packing, got a path packing"):
        red.three_cp_9_11(g, exact("path", 3))


def test_three_cp_ratio():
    for seed in range(5):
        g = generate_instance(9, "one_two", seed=seed)
        packing, _ = run_algorithm(g, "3cp911", 3)
        _, opt = optimal_k_packing(g, 3, "cycle")
        assert Fraction(packing_weight(g, packing), opt) >= Fraction(9, 11)
