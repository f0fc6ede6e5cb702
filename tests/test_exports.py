import rankrange


def test_every_exported_name_resolves():
    assert len(set(rankrange.__all__)) == len(rankrange.__all__)
    for name in rankrange.__all__:
        assert hasattr(rankrange, name), name


def test_star_import_binds_the_export_list():
    namespace = {}
    exec("from rankrange import *", namespace)
    assert set(rankrange.__all__) <= set(namespace)
    for name in ("brute_force_contains", "vector_from_triangle",
                 "BarycentricWeights", "subspectrum_margin"):
        assert name not in rankrange.__all__ and name not in namespace
