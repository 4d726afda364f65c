"""Mutations of valid JSON documents, shared by the loader fuzz tests: every
place in a document a mutation can reach, the values it may write there, and
the mutated copy."""

import copy

from hypothesis import strategies as st

DELETE = object()
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.from_regex(r"[aAbBsS.0-9]{0,12}", fullmatch=True),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6)


def doc_paths(node, path=()):
    yield path
    keys = node.keys() if isinstance(node, dict) else range(len(node)) \
        if isinstance(node, list) else ()
    for key in keys:
        yield from doc_paths(node[key], path + (key,))


def mutated(doc, path, value):
    """A copy of `doc` with the value at `path` set to `value`, or deleted
    when `value` is DELETE; the empty path replaces the whole document."""
    if not path:
        return {} if value is DELETE else value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc
