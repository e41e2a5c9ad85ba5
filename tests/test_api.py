"""The package's public names."""
import tradepost


def test_all_names_resolve_once():
    """Every name in ``__all__`` exists and is listed once, so ``from tradepost import *`` works."""
    names = tradepost.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(tradepost, name)] == []
    namespace: dict[str, object] = {}
    exec("from tradepost import *", namespace)
    assert set(names) <= namespace.keys()
