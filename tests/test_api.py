"""The package's public names."""

import telegate


def test_every_exported_name_resolves():
    missing = [name for name in telegate.__all__ if not hasattr(telegate, name)]
    assert missing == []
