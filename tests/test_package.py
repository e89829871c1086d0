def test_every_public_name_resolves():
    """``from spbe import *`` binds every name in ``spbe.__all__``, so a
    public name cannot be removed while its entry stays behind."""
    import spbe

    namespace = {}
    exec("from spbe import *", namespace)
    assert set(spbe.__all__) <= set(namespace)
