"""The named ideal catalog and the seeded random generators."""

import random

import pytest

from dgares.corpus import (
    catalog_ideals,
    cone_lattice_ideal,
    cycle_ideal,
    path_ideal,
    random_cone_complex,
    random_monomial_ideal,
    strongly_generic_ideal,
    tagged_four_cycle_ideal,
    taylor_equals_scarf_ideal,
)
from dgares.ideals import MonomialIdeal, is_strongly_generic
from dgares.simplicial import is_cone


def test_catalog_labels_and_order():
    labels = [label for label, _ in catalog_ideals()]
    assert labels == ["3.2", "3.3", "3.8", "4.3", "5.1", "6.8"]
    for _, ideal in catalog_ideals():
        assert isinstance(ideal, MonomialIdeal)


def test_named_ideal_shapes():
    i32 = tagged_four_cycle_ideal()
    assert (i32.num_vars, i32.k) == (6, 4) and i32.is_squarefree()
    i33 = taylor_equals_scarf_ideal()
    assert (i33.num_vars, i33.k) == (3, 3) and not i33.is_squarefree()
    assert path_ideal(6).k == 5
    assert cycle_ideal(6).k == 6
    i51 = strongly_generic_ideal()
    assert i51.k == 5 and is_strongly_generic(i51)
    i68 = cone_lattice_ideal()
    assert (i68.num_vars, i68.k) == (19, 5) and i68.is_squarefree()


def test_family_edge_cases():
    assert path_ideal(2).k == 1
    assert cycle_ideal(3).k == 3
    with pytest.raises(ValueError, match="n >= 2"):
        path_ideal(1)
    with pytest.raises(ValueError, match="n >= 3"):
        cycle_ideal(2)


def test_random_ideals_deterministic_and_valid():
    a = [random_monomial_ideal(random.Random(5)) for _ in range(4)]
    b = [random_monomial_ideal(random.Random(5)) for _ in range(4)]
    assert a == b
    rng = random.Random(11)
    seen = set()
    for _ in range(30):
        ideal = random_monomial_ideal(rng)
        # constructor re-checks the antichain invariants
        assert MonomialIdeal(ideal.num_vars, ideal.generators) == ideal
        assert 1 <= ideal.k <= 5 and 2 <= ideal.num_vars <= 6
        seen.add(ideal)
    assert len(seen) > 10
    for _ in range(10):
        assert random_monomial_ideal(rng, squarefree=True).is_squarefree()


def test_random_cone_complexes_are_cones():
    rng = random.Random(3)
    for _ in range(12):
        delta = random_cone_complex(rng)
        assert is_cone(delta) is not None
        # the fresh apex is always the last vertex
        apex = delta.num_vertices - 1
        faces = {tuple(sorted(f)) for f in delta.faces}
        for f in delta.faces:
            assert tuple(sorted(f | {apex})) in faces
