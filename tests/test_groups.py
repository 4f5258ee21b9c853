import dataclasses
import hashlib

import numpy as np
import pytest

from gerbes import groups
from gerbes.errors import (
    ClosureExceedsBound,
    GerbesError,
    InputError,
    InvalidHomomorphism,
    InvalidSubgroup,
    NoIdentity,
    NoInverse,
    NonAssociative,
)
from gerbes.groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    abelian_structure,
    abelianization,
    alternating_group,
    build_group,
    commutator_subgroup,
    cyclic_group,
    cyclic_subgroups,
    dihedral_group,
    direct_product,
    from_permutations,
    klein_four_group,
    quaternion_group,
    quotient_group,
    sl2_f5,
    spanning_tree,
    symmetric_group,
)

# Identity and two-sided inverses, but not associative.
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def _right_closure(table, gens):
    reached = {0}
    while True:
        new = {table[x][g] for x in reached for g in gens} - reached
        if not new:
            return reached
        reached |= new


def test_trivial_group_from_table():
    g = build_group({"table": [[0]]})
    assert g.order == 1


def test_single_three_cycle_generates_z3():
    g = from_permutations([[1, 2, 0]])
    assert g.order == 3
    assert g.element_order(1) == 3


def test_a5_from_generators_order_and_simplicity():
    g = from_permutations([[1, 2, 3, 4, 0], [1, 2, 0, 3, 4]])
    assert g.order == 60
    # Brute-force simplicity: every nontrivial normal closure is everything.
    for x in range(1, g.order):
        gens = {g.conjugate(a, x) for a in range(g.order)}
        assert Subgroup.generated_by(g, gens).order == 60


def test_table_validation_errors():
    with pytest.raises(NoIdentity):
        FiniteGroup([[1, 0], [0, 1]])
    with pytest.raises(NoInverse):
        FiniteGroup([[0, 1], [1, 1]])
    # Identity and inverses hold but associativity fails.
    with pytest.raises((NonAssociative, NoInverse)):
        FiniteGroup(LOOP5)


def _swapped_z128():
    """Z/128 with the intercalate at rows 5, 69 and columns 20, 84 swapped."""
    table = [[(a + b) % 128 for b in range(128)] for a in range(128)]
    table[5][20], table[5][84] = table[5][84], table[5][20]
    table[69][20], table[69][84] = table[69][84], table[69][20]
    return table


@pytest.mark.parametrize(
    "table, error, message",
    [
        ([[0, 1, 2], [1, 2, 0], [2, 0]], InputError, "row 2 has length 2, expected 3"),
        ([[0, 1, 2], [1, 2, -1], [2, 0, 3]], InputError, "table entry -1 out of range [0, 3)"),
        ([[0, 7], [1]], InputError, "table entry 7 out of range [0, 2)"),
        ([[0, 1], [1, 2**64]], InputError, "table entry 18446744073709551616 out of range [0, 2)"),
        ([[1, 0], [0, 1]], NoIdentity, "index 0 is not a two-sided identity at element 0"),
        ([[0, 1, 2], [1, 2, 0], [1, 0, 2]], NoIdentity, "index 0 is not a two-sided identity at element 2"),
        (LOOP5, NonAssociative, "(1*1)*2 != 1*(1*2)"),
        (_swapped_z128(), NonAssociative, "(4*1)*20 != 4*(1*20)"),
        ([[0, 1, 2], [1, 2, 2], [2, 2, 2]], NoInverse, "element 1 has no two-sided inverse"),
    ],
    ids=[
        "row-length", "out-of-range", "range-before-length", "past-int64", "no-identity-row",
        "no-identity-column", "non-associative", "non-associative-128", "no-inverse",
    ],
)
def test_table_validation_messages(table, error, message):
    """The first failure in the order of the element-by-element checks:
    rows, then entries in row order; the identity; Light's test by
    generator s, then a, then c; inverses."""
    with pytest.raises(error) as info:
        FiniteGroup(table)
    assert str(info.value) == message


def test_spanning_tree_greedy_generators_reach_everything():
    s4 = symmetric_group(4)
    for table in (s4.table, LOOP5):
        n = len(table)
        gens, steps = spanning_tree(table)
        assert sorted(y for y, _, _ in steps) == list(range(1, n))
        reached = {0}
        for y, x, i in steps:
            assert x in reached and table[x][gens[i]] == y
            reached.add(y)
        for k, g in enumerate(gens):
            assert g == min(set(range(n)) - _right_closure(table, gens[:k]))
    # In a group the right-product closure is the generated subgroup.
    gens, _ = spanning_tree(s4.table)
    for k in range(len(gens) + 1):
        assert _right_closure(s4.table, gens[:k]) == set(Subgroup.generated_by(s4, gens[:k]).elements)


def test_associativity_is_exact_above_order_64():
    table = [[(a + b) % 128 for b in range(128)] for a in range(128)]
    # Swap the intercalate at rows 5, 69 and columns 20, 84: still a Latin
    # square with identity 0 and two-sided inverses, but not associative.
    table[5][20], table[5][84] = table[5][84], table[5][20]
    table[69][20], table[69][84] = table[69][84], table[69][20]
    with pytest.raises(NonAssociative):
        FiniteGroup(table)
    assert FiniteGroup(sl2_f5().table).order == 120


def test_inverse_antihomomorphism():
    g = symmetric_group(3)
    for a in range(6):
        for b in range(6):
            assert g.inv[g.table[a][b]] == g.table[g.inv[b]][g.inv[a]]


def test_closure_bound():
    with pytest.raises(ClosureExceedsBound):
        from_permutations([[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]], max_order=30)


def test_abelianization_examples():
    assert abelianization(symmetric_group(3)).target.factors == (2,)
    assert abelianization(alternating_group(5)).target.factors == ()
    ab = abelianization(cyclic_group(4))
    assert ab.target.factors == (4,)
    assert [ab.coords[x] for x in range(4)] == [(0,), (1,), (2,), (3,)]


def test_abelianization_order_agreement():
    for g in (symmetric_group(4), quaternion_group(), dihedral_group(6), sl2_f5()):
        ab = abelianization(g)
        comm = commutator_subgroup(g)
        assert ab.target.order * comm.order == g.order


def test_abelianization_coordinates_are_pinned():
    """The invariant factors, the coordinates of every element and the
    generator preimages of H^ab, which every gerbe command starts from."""
    c2, c6 = cyclic_group(2), cyclic_group(6)
    family = [
        cyclic_group(12),
        direct_product(cyclic_group(4), c6),
        direct_product(direct_product(c2, c2), c2),
        direct_product(c6, c2),
        symmetric_group(3),
        dihedral_group(4),
        dihedral_group(6),
        quaternion_group(),
        alternating_group(4),
        symmetric_group(4),
        alternating_group(5),
        sl2_f5(),
    ]
    digest = hashlib.sha256()
    for g in family:
        ab = abelianization(g)
        digest.update(repr((ab.target.factors, ab.coords, ab.generator_preimages)).encode())
    assert digest.hexdigest() == "b001b63a701d3c4a6ca1d7163357bb95482b364cfd8c3afb2de4606096732f69"


def test_abelian_structure_check_catches_a_corrupted_coordinate():
    g = direct_product(cyclic_group(4), cyclic_group(6))
    res = abelian_structure(g)
    groups._check_abelian_structure(res)
    for x in range(g.order):
        coords = list(res.coords)
        coords[x] = ((coords[x][0] + 1) % res.target.factors[0], *coords[x][1:])
        with pytest.raises(GerbesError):
            groups._check_abelian_structure(dataclasses.replace(res, coords=tuple(coords)))


def test_cyclic_subgroups_examples():
    z4 = cyclic_group(4)
    subs = cyclic_subgroups(z4)
    assert [s.elements for s in subs] == [(0,), (0, 1, 2, 3), (0, 2)]
    assert len(cyclic_subgroups(klein_four_group())) == 4
    assert len(cyclic_subgroups(symmetric_group(3))) == 5
    for s in subs:
        assert s.generator is not None
        assert Subgroup.generated_by(z4, [s.generator]).elements == s.elements


def test_subgroup_validation():
    z4 = cyclic_group(4)
    with pytest.raises(InvalidSubgroup):
        Subgroup(z4, (1, 2))
    with pytest.raises(InvalidSubgroup):
        Subgroup(z4, (0, 1))


def test_hom_validation_and_order_division():
    s3 = symmetric_group(3)
    z2 = cyclic_group(2)
    ab = abelianization(s3)
    sign = GroupHom(s3, z2, [ab.coords[x][0] for x in range(6)])
    for x in range(6):
        assert s3.element_order(x) % z2.element_order(sign(x)) == 0
    with pytest.raises(InvalidHomomorphism):
        GroupHom(s3, z2, [1, 0, 0, 0, 0, 0])
    with pytest.raises(InvalidHomomorphism):
        GroupHom(z2, z2, [0, 0, 0])


def test_quotient_group():
    q8 = quaternion_group()
    quot, proj = quotient_group(q8, Subgroup(q8, (0, 1)))
    assert quot.order == 4 and quot.is_abelian
    assert proj[0] == 0
    with pytest.raises(InvalidSubgroup):
        quotient_group(symmetric_group(3), Subgroup.generated_by(symmetric_group(3), [1]))


def test_direct_product_and_named_groups():
    v4 = klein_four_group()
    assert v4.order == 4 and all(v4.element_order(x) <= 2 for x in range(4))
    d4 = dihedral_group(4)
    assert d4.order == 8 and not d4.is_abelian
    q8 = quaternion_group()
    assert sorted(q8.element_order(x) for x in range(8)) == [1, 2, 4, 4, 4, 4, 4, 4]
    sl = sl2_f5()
    assert sl.order == 120
    assert commutator_subgroup(sl).order == 120
    g = direct_product(cyclic_group(2), cyclic_group(3))
    assert g.order == 6 and g.is_abelian


def test_non_integer_inputs_are_refused_not_truncated():
    """Floats, bools, strings and None are refused wherever the group layer
    takes integers, and so are shapes that are not lists of them; numpy
    integers and integers past int64 take the same paths as Python ints."""
    from gerbes.document import parse_document
    from gerbes.finab import FinAb, QmodZ
    from gerbes.modules import GModule, cyclic_module, trivial_module

    c2, c4 = cyclic_group(2), cyclic_group(4)
    probes = [
        lambda: FiniteGroup([[0, 1], [1, 0.5]]),
        lambda: FiniteGroup([[0, "1"], ["1", 0]]),
        lambda: FiniteGroup([[0, 1], [True, 0]]),
        lambda: FiniteGroup([[0, 1], [1, None]]),
        lambda: FiniteGroup(np.array([[0.0, 1.0], [1.0, 0.0]])),
        lambda: build_group({"table": [[0, 1], [1, 0.0]]}, name="G"),
        lambda: from_permutations([[1.0, 0]]),
        lambda: from_permutations([[True, 0]]),
        lambda: from_permutations([["1", 0]]),
        lambda: FinAb((2.5,)),
        lambda: FinAb((4.0,)),
        lambda: FinAb(("4",)),
        lambda: FinAb((2, None)),
        lambda: trivial_module(c4, (2.0,)),
        lambda: QmodZ.make(0.5, 2),
        lambda: QmodZ.make(1, True),
        lambda: GroupHom(c4, c4, [0, 1.5, 2, 3]),
        lambda: GroupHom(c2, c2, [False, True]),
        lambda: GroupHom(c2, c2, ["0", "1"]),
        lambda: Subgroup(c4, (0, 2.7)),
        lambda: Subgroup(c4, (False, 2)),
        lambda: Subgroup(c4, ("0",)),
        lambda: cyclic_module(c4, "4"),
        lambda: cyclic_module(c4, 4.0),
        lambda: FiniteGroup([{0: 0}]),
        lambda: FiniteGroup("ab"),
        lambda: FiniteGroup([5]),
        lambda: from_permutations([5]),
        lambda: Subgroup(c4, 3),
        lambda: FinAb(4),
        lambda: FiniteGroup(np.array([0])),
        lambda: FiniteGroup(5),
        lambda: GroupHom(c4, c4, 5),
        lambda: GModule(c4, FinAb((4,)), 5),
        lambda: from_permutations(5),
        lambda: cyclic_module(c4, 4, [1, 3, 1, 3]),
    ]
    for i, probe in enumerate(probes):
        with pytest.raises(InputError):
            probe()
            pytest.fail(f"probe {i} was accepted")
    with pytest.raises(InputError, match="group 'G': table entries must be integers, got 0.0"):
        parse_document({"groups": {"G": {"table": [[0, 1], [1, 0.0]]}}})

    z2 = FiniteGroup(np.array([[0, 1], [1, 0]]))
    assert z2.table == ((0, 1), (1, 0)) and type(z2.table[1][0]) is int
    assert FiniteGroup([[np.int64(0), np.int64(1)], [np.int64(1), np.int64(0)]]).table == z2.table
    with pytest.raises(InputError, match="table entry 1180591620717411303424 out of range"):
        FiniteGroup([[0, 1], [1, 2**70]])
    with pytest.raises(InvalidSubgroup):
        Subgroup(c4, (0, 2**70))
    with pytest.raises(InvalidHomomorphism, match="out of range"):
        GroupHom(c2, c2, [0, 2**70])
    assert Subgroup(c4, (np.int64(2), 0)).elements == (0, 2)
    assert GroupHom(c2, c2, np.array([0, 1])).images == (0, 1)
    assert from_permutations([np.array([1, 0])]).order == 2
    factors = FinAb((np.int64(4),)).factors
    assert factors == (4,) and type(factors[0]) is int
    assert FinAb([2, 4]).factors == (2, 4) and hash(FinAb([2, 4])) == hash(FinAb((2, 4)))
    assert FinAb((2**70,)).factors == (2**70,)
    assert QmodZ.make(np.int64(3), 2) == QmodZ(1, 2)
    assert cyclic_module(c2, np.int64(4)).carrier == FinAb((4,))


def test_a_mapping_is_not_read_as_its_keys():
    """An image table, factor list or subgroup given as a dict is refused:
    iterating it would read its keys and drop what it maps them to."""
    from gerbes.finab import FinAb
    from gerbes.modules import GModule

    c2, c4 = cyclic_group(2), cyclic_group(4)
    probes = [
        lambda: GroupHom(c4, c4, {0: 0, 1: 3, 2: 2, 3: 1}),  # inversion, not the identity
        lambda: GroupHom(c2, c2, {0: 0, 1: 0}),  # the trivial map, not the identity
        lambda: FinAb({4: "x"}),
        lambda: Subgroup(c4, {0: 1, 2: 3}),
    ]
    for i, probe in enumerate(probes):
        with pytest.raises(InputError, match="must be a list of integers"):
            probe()
            pytest.fail(f"probe {i} was accepted")
    # A module's action is a Mapping from elements to matrices, read as one.
    inversion = GModule(c4, FinAb((4,)), {1: [[3]], 3: [[3]]})
    assert inversion.action[:, 0, 0].tolist() == [1, 3, 1, 3]
