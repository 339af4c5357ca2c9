"""Test helper for dakit's frozen records."""


def replace(record, **changes):
    """A copy of record with the given fields changed, built through its
    class's checking constructor (what dataclasses.replace does for a
    dataclass)."""
    fields = {name: getattr(record, name) for name in record._fields}
    fields.update(changes)
    return type(record)(**fields)
