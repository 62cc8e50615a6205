"""The package's public names."""

from collections import Counter

import dmncheck


def test_all_names_resolve_once():
    repeated = [name for name, n in Counter(dmncheck.__all__).items()
                if n > 1]
    assert repeated == []
    missing = [name for name in dmncheck.__all__
               if not hasattr(dmncheck, name)]
    assert missing == []
    namespace: dict = {}
    exec("from dmncheck import *", namespace)
    assert set(dmncheck.__all__) <= set(namespace)
