import pytest
from hypothesis import given
from hypothesis import strategies as st

from gerbes.errors import InputError
from gerbes.finab import FinAb, QmodZ
from gerbes.groups import abelian_structure, abelian_table_group, cyclic_group, direct_product

fractions = st.builds(
    QmodZ.make,
    st.integers(min_value=-500, max_value=500),
    st.integers(min_value=1, max_value=500),
)


def test_finab_validation():
    FinAb(())
    FinAb((2, 4, 8))
    with pytest.raises(InputError):
        FinAb((1,))
    with pytest.raises(InputError):
        FinAb((4, 2))
    with pytest.raises(InputError):
        FinAb((2, 3))


def test_finab_arithmetic():
    a = FinAb((2, 4))
    assert a.order == 8 and a.exponent == 4 and a.rank == 2
    assert a.add((1, 3), (1, 2)) == (0, 1)
    assert len(list(a.elements())) == 8


@given(fractions, fractions, fractions)
def test_qmodz_associative(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a - a == QmodZ.zero()


def test_qmodz_torsion():
    for n in range(1, 1001):
        total = QmodZ.zero()
        step = QmodZ.make(1, n)
        for _ in range(n):
            total = total + step
        assert total.is_zero()


def test_qmodz_parse_and_str():
    assert str(QmodZ.make(3, 6)) == "1/2"
    assert QmodZ.make(1, 3).order == 3
    with pytest.raises(InputError):
        QmodZ(2, 4)


@pytest.mark.parametrize(
    "factors",
    [(2,), (3,), (4,), (2, 2), (2, 4), (6,), (2, 2, 2), (3, 3), (8,), (2, 6)],
)
def test_abelian_structure_recovers_factors(factors):
    group = abelian_table_group(FinAb(factors))
    res = abelian_structure(group)
    assert res.target.factors == factors


def test_abelian_structure_on_scrambled_product():
    g = direct_product(cyclic_group(6), cyclic_group(2))
    res = abelian_structure(g)
    assert res.target.factors == (2, 6)
    for x in range(g.order):
        for y in range(g.order):
            assert res.coords[g.table[x][y]] == res.target.add(res.coords[x], res.coords[y])
