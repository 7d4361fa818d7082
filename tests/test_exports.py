from __future__ import annotations

import evokernel


def test_all_names_resolve_once_in_sorted_order():
    names = evokernel.__all__
    assert [name for name in names if not hasattr(evokernel, name)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)
