"""
Transporting products along lcm lattice isomorphisms
====================================================

"""

from dgares.corpus import taylor_equals_scarf_ideal
from dgares.complexes import is_minimal, is_resolution
from dgares.ideals import MonomialIdeal, polarize
from dgares.lattices import atom_isomorphism, atom_sets
from dgares.multiplication import check_dga_axioms, is_supportive
from dgares.structure import relabel, supportive_multiplication

# a multiplication is supportive when every product stays inside the
# join of its factors' degrees; such products only see the lcm
# lattice, so they move along any lattice isomorphism
src = MonomialIdeal(2, ((1, 0), (0, 1)))
tgt = MonomialIdeal(2, ((2, 0), (0, 3)))
iso = atom_isomorphism(atom_sets(src), atom_sets(tgt))
print("lattice isomorphism:", iso)

sm = supportive_multiplication(src)
relabeled, moved = relabel(sm.complex, sm.multiplication, iso, tgt)
assert is_resolution(relabeled, tgt) and is_minimal(relabeled)
print("transported product axioms:", check_dga_axioms(moved).summary())

# for a non-squarefree ideal the supportive product is found on its
# squarefree copy: polarization replaces x^e by e fresh variables and
# keeps the lcm lattice
ideal = taylor_equals_scarf_ideal()
pol = polarize(ideal)
print("polarized generators:", pol.ideal.generators)
print("variable blocks:", pol.var_blocks)

sm = supportive_multiplication(ideal)
print("came back through %d squarefree variables"
      % sm.polarization.ideal.num_vars)
assert is_resolution(sm.complex, ideal) and is_minimal(sm.complex)
sup, _ = is_supportive(sm.multiplication)
print("supportive:", sup)
print("axioms:", check_dga_axioms(sm.multiplication, associativity=False).summary())

# contrast: on the same resolution, the product at parameter 0 of the
# solution space escapes the join of its factors
from dgares.complexes import taylor_complex
from dgares.solve import leibniz_solution_space

modified = leibniz_solution_space(taylor_complex(ideal)).particular()
sup, witnesses = is_supportive(modified)
print("modified product supportive:", sup, "witness:", witnesses[:1])
