import json
import random
from importlib import resources

import pytest

from gerbes.cochain import Cochain, cohomology
from gerbes.errors import (
    GlobalH3Obstruction,
    InputError,
    NotLocallyNeutral,
)
from gerbes.fixtures import (
    galois_c4,
    h3_obstruction_model,
    klein_extension_of_z2,
    mh_witness_extension,
    mh_witness_small_extension,
    pairing_model,
    q8_over_v4_gerbe,
    q8_product_gerbe,
    q8_semidirect_gerbe,
    s3_gerbe,
    split_z8_extension,
    thm41_fixture_matrix,
    witness_model,
    witness_model_mu4,
    z4_extension_of_z2,
)
from gerbes.gerbe import (
    GerbeExtension,
    LocalSection,
    abelianize_gerbe,
    abelianized_data,
    brauer_a,
    brauer_manin,
    class_2cocycle,
    extension_from_cocycle,
    gerbe_dual,
    induced_conj_perms,
    local_pairing,
    local_sections,
    picard_geom,
    random_bm_choices,
    semidirect_extension,
    splitting_images,
    torsor_difference,
    verify_factorization,
)
from gerbes.groups import GroupHom, Subgroup, cyclic_group
from gerbes.modules import cyclic_module, trivial_module


def test_extension_validation():
    z1 = cyclic_group(1)
    z2 = cyclic_group(2)
    z4 = cyclic_group(4)
    # Image of the kernel group differs from ker(projection).
    with pytest.raises(InputError):
        GerbeExtension(GroupHom(z4, z2, [0, 1, 0, 1]), GroupHom(z1, z4, [0]))
    # Projection not surjective.
    with pytest.raises(InputError):
        GerbeExtension(GroupHom(z2, z4, [0, 2]), GroupHom(z1, z2, [0]))
    # Inclusion not injective.
    with pytest.raises(InputError):
        GerbeExtension(GroupHom(z4, z4, list(range(4))), GroupHom(z2, z4, [0, 0]))


def test_class_of_split_extension_is_zero():
    cls = class_2cocycle(s3_gerbe())
    assert cls.cochain.is_zero()


def test_class_of_z4_extension():
    cls = class_2cocycle(z4_extension_of_z2())
    h2 = cohomology(cls.module, 2)
    assert h2.reduce(cls.cochain) == (1,)


def test_q8_over_v4_class_nonzero_and_unsplit():
    ext = q8_over_v4_gerbe()
    cls = class_2cocycle(ext)
    h2 = cohomology(cls.module, 2)
    assert any(h2.reduce(cls.cochain))
    assert splitting_images(ext, Subgroup.whole(ext.quotient)) == []


def test_extension_from_cocycle_roundtrip():
    c4 = galois_c4()
    m = trivial_module(c4, (4,))
    h2 = cohomology(m, 2)
    for coords in [(1,), (2,), (3,)]:
        z = h2.cochain_from_coords(coords)
        ext = extension_from_cocycle(z)
        cls = class_2cocycle(ext)
        h2b = cohomology(cls.module, 2)
        assert h2b.reduce(cls.cochain) == coords


def test_abelianize_identity_on_abelian_kernel():
    ext = mh_witness_extension()
    assert abelianize_gerbe(ext) is ext


def _transport_class(ext):
    data = abelianized_data(ext)
    cls_e = class_2cocycle(ext)
    cls_ab = class_2cocycle(data.extension)
    ab_e, ab_ab = cls_e.abelianized, cls_ab.abelianized
    assert ab_e.target.factors == ab_ab.target.factors
    cols = [ab_ab.coords[data.kernel_map[h]] for h in ab_e.generator_preimages]
    car = cls_ab.module.carrier

    def phi(v):
        return tuple(sum(vi * col[r] for vi, col in zip(v, cols)) % d for r, d in enumerate(car.factors))

    transported = Cochain(cls_ab.module, 2, [phi(v) for v in cls_e.cochain.values])
    h2 = cohomology(cls_ab.module, 2)
    assert h2.reduce(transported) == h2.reduce(cls_ab.cochain)


def test_pushout_class_matches_projection():
    for ext in (s3_gerbe(), q8_semidirect_gerbe(), q8_product_gerbe(), q8_over_v4_gerbe()):
        _transport_class(ext)


def test_pushout_kernels():
    assert abelianize_gerbe(s3_gerbe()).kernel_group.order == 2
    q8_ab = abelianize_gerbe(q8_product_gerbe())
    assert q8_ab.kernel_group.order == 4
    assert q8_ab.kernel_group.is_abelian


def test_induced_action_independent_of_section():
    ext = q8_semidirect_gerbe()
    data = abelianized_data(ext)
    ab = class_2cocycle(data.extension).abelianized
    base = None
    import itertools

    fibers = [data.extension.fiber(g) for g in range(ext.quotient.order)]
    count = 0
    for combo in itertools.product(*fibers):
        if combo[0] != 0:
            continue
        perms = induced_conj_perms(data.extension, combo)
        mats = tuple(
            tuple(ab.coords[perm[h]] for h in ab.generator_preimages) for perm in perms
        )
        if base is None:
            base = mats
        assert mats == base
        count += 1
    assert count >= 8


def test_local_sections_counts():
    model = witness_model()
    secs = local_sections(mh_witness_extension(), model)
    assert {k: len(v) for k, v in secs.items()} == {"p1": 2, "p2": 2, "p3": 1}
    split = local_sections(split_z8_extension(), model)
    assert all(split[p.name] for p in model.places)
    z2 = cyclic_group(2)
    assert splitting_images(z4_extension_of_z2(), Subgroup.whole(z2)) == []
    assert len(splitting_images(klein_extension_of_z2(), Subgroup.whole(z2))) == 2


def test_torsor_difference_examples():
    model = pairing_model()
    ext = klein_extension_of_z2()
    p = model.places[0]
    imgs = splitting_images(ext, p.subgroup)
    s1 = LocalSection(p, ext, imgs[0])
    s2 = LocalSection(p, ext, imgs[1])
    assert torsor_difference(s1, s1).is_trivial
    diff = torsor_difference(s1, s2)
    assert not diff.is_trivial
    assert diff.class_count == 2
    # Conjugate splittings give the trivial class.
    h = ext.incl(1)
    conj = tuple(
        ext.total.table[ext.total.table[h][im]][ext.total.inv[h]] for im in imgs[0]
    )
    s3 = LocalSection(p, ext, conj)
    assert torsor_difference(s1, s3).is_trivial


def test_torsor_pairing_additivity():
    model = witness_model()
    ext = s3_gerbe()
    p = model.places[0]
    imgs = splitting_images(ext, p.subgroup)
    assert len(imgs) == 4
    secs = [LocalSection(p, ext, im) for im in imgs]
    dd = gerbe_dual(abelianize_gerbe(ext), model.mu)
    h_loc = dd.dual.restrict(p.subgroup)
    b = Cochain(h_loc, 1, [(1,)])
    for i in range(4):
        for j in range(4):
            for k in range(4):
                z_ik = torsor_difference(secs[i], secs[k]).abelianized
                z_ij = torsor_difference(secs[i], secs[j]).abelianized
                z_jk = torsor_difference(secs[j], secs[k]).abelianized
                lhs = local_pairing(model, dd, p, z_ik, b)
                rhs = local_pairing(model, dd, p, z_ij, b) + local_pairing(model, dd, p, z_jk, b)
                assert lhs == rhs


def test_brauer_a_and_picard_examples():
    from gerbes.fixtures import a5_gerbe

    mu = witness_model().mu
    assert brauer_a(a5_gerbe(), mu).factors == ()
    assert picard_geom(a5_gerbe(), mu).carrier.factors == ()
    assert picard_geom(s3_gerbe(), mu).carrier.factors == (2,)
    # Central Z/n kernel: characters are Hom(Z/n, mu) = Z/gcd(n, m).
    assert picard_geom(mh_witness_extension(), mu).carrier.factors == (8,)
    z2 = cyclic_group(2)
    triv_kernel = semidirect_extension(cyclic_group(1), z2)
    assert brauer_a(triv_kernel, cyclic_module(z2, 2)).factors == ()
    with pytest.raises(InputError):
        brauer_a(mh_witness_extension(), cyclic_module(galois_c4(), 4))


def test_mh_witness_matches_frozen_fixture():
    expected = json.loads(
        resources.files("gerbes.data").joinpath("mh_witness_expected.json").read_text()
    )
    from gerbes.document import functional_json, load_document

    with resources.as_file(
        resources.files("gerbes.data").joinpath("witness_document.json")
    ) as path:
        docobj = load_document(str(path))
    functional = brauer_manin(docobj.extension("E"), docobj.require_model(), keep_trace=True)
    assert functional_json(functional, certificates=True) == expected["functional"]
    assert [str(v) for v in functional.values] == expected["values"]
    assert list(functional.sha.factors) == expected["sha_factors"]


def test_mh_never_builds_the_global_h2():
    """When the axioms hold, A2 is a membership test: m_H and the search for
    consistent invariants leave the global H^2(G, mu) unbuilt, which only
    an axiom report needs."""
    from gerbes.arith import check_axioms, search_inv_assignments
    from gerbes.cochain import CohomologyGroup
    from gerbes.document import load_document

    with resources.as_file(
        resources.files("gerbes.data").joinpath("witness_document.json")
    ) as path:
        docobj = load_document(str(path))
    model = docobj.require_model()
    assert [str(v) for v in brauer_manin(docobj.extension("E"), model).values] == ["1/2"]
    assert (CohomologyGroup, 2) not in model.mu._memo
    assert len(search_inv_assignments(model.group, model.mu, [p.subgroup for p in model.places])) == 2
    assert (CohomologyGroup, 2) not in model.mu._memo
    check_axioms(model)
    assert (CohomologyGroup, 2) in model.mu._memo


def test_mh_nonzero_witnesses():
    f1 = brauer_manin(mh_witness_extension(), witness_model())
    assert [str(v) for v in f1.values] == ["1/2"]
    f2 = brauer_manin(mh_witness_small_extension(), witness_model_mu4())
    assert [str(v) for v in f2.values] == ["1/2"]


def test_mh_value_orders_divide_generator_orders():
    for _, ext, model in thm41_fixture_matrix():
        f = brauer_manin(ext, model)
        for d, v in zip(f.sha.factors, f.values):
            assert d % v.order == 0


def test_mh_choice_independence_small():
    rng = random.Random(99)
    ext, model = mh_witness_small_extension(), witness_model_mu4()
    base = brauer_manin(ext, model)
    for _ in range(10):
        assert base.same_functional(
            brauer_manin(ext, model, choices=random_bm_choices(ext, model, rng))
        )
    assert base.same_functional(brauer_manin(ext, model, trivialization="solver"))


def test_h3_obstruction_and_enlargement():
    ext = z4_extension_of_z2()
    model = h3_obstruction_model()
    with pytest.raises(GlobalH3Obstruction) as info:
        brauer_manin(ext, model)
    assert info.value.certificate.degree == 3
    out = brauer_manin(ext, model, mu_enlarge_bound=2)
    assert out.modulus == 4 and out.is_zero()


def test_not_locally_neutral():
    with pytest.raises(NotLocallyNeutral):
        brauer_manin(z4_extension_of_z2(), pairing_model())


def test_verify_factorization_matrix():
    seen_nonzero = False
    for name, ext, model in thm41_fixture_matrix():
        rep = verify_factorization(ext, model)
        assert rep.equal, name
        if not rep.via_extension.is_zero():
            seen_nonzero = True
    assert seen_nonzero


def test_verify_factorization_computes_sha_once():
    """Both sides pair against Sha^1 of one dual module, computed once."""
    for name, ext, model in thm41_fixture_matrix():
        rep = verify_factorization(ext, model)
        assert rep.via_extension.sha is rep.via_pushout.sha, name


def test_mh_requires_valid_model():
    from gerbes.errors import ModelAxiomFailure
    from gerbes.fixtures import bad_reciprocity_model

    with pytest.raises(ModelAxiomFailure):
        brauer_manin(klein_extension_of_z2(), bad_reciprocity_model())
