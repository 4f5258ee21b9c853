import json
from importlib import resources

from gerbes.document import group_json, model_json
from witness_search import find_mh_witness, find_sha_module_witness


def test_sha_witness_search_is_reproducible():
    w = find_sha_module_witness()
    assert w.module.carrier.factors == (8,)
    assert [w.module.action[g][0][0] for g in range(4)] == [1, 3, 5, 7]
    assert w.result.factors == (2,)


def test_mh_witness_search_matches_frozen_document():
    w = find_mh_witness()
    frozen = json.loads(
        resources.files("gerbes.data").joinpath("witness_document.json").read_text()
    )
    assert group_json(w.extension.total) == frozen["groups"]["T"]
    assert group_json(w.extension.kernel_group) == frozen["groups"]["H"]
    assert list(w.extension.proj.images) == frozen["extensions"]["E"]["projection"]
    assert list(w.extension.incl.images) == frozen["extensions"]["E"]["injection"]
    assert model_json(w.model) == frozen["model"]
    assert [str(v) for v in w.functional.values] == ["1/2"]
