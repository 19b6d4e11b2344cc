"""The catalog's raw configuration documents, for tests that write them to
files or edit them into malformed configs."""

import copy

from nilchar.config import _CATALOG


def catalog_document(name: str) -> dict:
    """A deep copy of the catalog entry's document, free to edit."""
    return copy.deepcopy(_CATALOG[name])
