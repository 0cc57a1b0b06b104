"""The package's public namespace."""

import spanmin


def test_every_exported_name_resolves():
    # a stale entry breaks only `from spanmin import *`, so check each one
    missing = [name for name in spanmin.__all__
               if getattr(spanmin, name, None) is None]
    assert missing == []
    assert len(set(spanmin.__all__)) == len(spanmin.__all__)
