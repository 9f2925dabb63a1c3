"""The package's export list."""

import fstrands

#: Second entry points deleted in favour of ``*``, ``~`` and the methods
#: they wrapped, and functions deleted for want of a caller; none may come
#: back as an export.
DELETED = ("f_mul", "f_inv", "vertex_point", "require_df", "caret_count",
           "contract_slice")


def test_every_export_resolves():
    missing = [name for name in fstrands.__all__ if not hasattr(fstrands, name)]
    assert missing == []


def test_no_deleted_name_is_exported():
    assert [name for name in DELETED if name in fstrands.__all__] == []
    assert [name for name in DELETED if hasattr(fstrands, name)] == []
