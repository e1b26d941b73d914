"""``Connection`` and ``Node`` behave as immutable values.

Both store the hash of their field tuple, so sets, dicts and the bounded
caches keyed by them see the same hashes whichever way an equal value was
built.
"""

import copy
import pickle

import pytest

from catlattice import states as S
from catlattice import trees as T


def _same(a, b):
    assert a == b and not a != b
    assert hash(a) == hash(b)


def test_equal_states_from_every_constructor_are_equal_values():
    for C in S.enumerate_catalan(2, 3):
        _same(C, S.parse_state(S.render_state(C)))
        _same(C, S.rotate_pi(S.rotate_pi(C)))
        _same(C, S._relabel(C, 0, C.m, C.n_t, C.n_b))
        assert C is not S.rotate_pi(S.rotate_pi(C))
    states = list(S.enumerate_catalan(2, 3)) + list(S.enumerate_catalan(3, 2))
    assert len(set(states)) == len(states)
    assert {S.rotate_pi(S.rotate_pi(C)) for C in states} == set(states)


def test_connection_hash_is_the_field_tuple_hash():
    for C in S.enumerate_catalan(3, 2):
        assert hash(C) == hash((C.m, C.n_t, C.n_b, C.mate))
    C = S.tau_shift(S.parse_state("cat(2,1): T1-L1, L2-B1, R1-R2"), 1)
    assert not C.is_catalan
    assert hash(C) == hash((C.m, C.n_t, C.n_b, C.mate))


def test_shapes_with_one_word_length_differ():
    # (1, 2, 2) and (2, 1, 1) both have six points
    a = S._from_mate(1, 2, 2, (1, 0, 3, 2, 5, 4))
    b = S._from_mate(2, 1, 1, (1, 0, 3, 2, 5, 4))
    assert a.mate == b.mate and a != b


def test_node_hash_is_the_field_tuple_hash():
    for text in ["()", "():4", "(()())", "((():3)(():2))", "(((()))())"]:
        t = T.parse_tree(text)
        assert hash(t) == hash((t.children, t.delay))
        _same(t, T.parse_tree(text))
    assert T.parse_tree("(():2())") != T.parse_tree("(()():2)")
    assert T.parse_tree("():2") != T.parse_tree("()")


def test_fields_cannot_be_assigned_or_deleted():
    C = S.parse_state("cat(1,1): T1-L1, R1-B1")
    t = T.parse_tree("(()())")
    fields = [(C, "m"), (C, "mate"), (t, "children"), (t, "delay"), (t, "size")]
    for obj, field in fields:
        with pytest.raises(AttributeError):
            setattr(obj, field, 0)
        with pytest.raises(AttributeError):
            delattr(obj, field)
    with pytest.raises(AttributeError):
        C.extra = 1
    assert C.m == 1 and t.delay == 1 and t.size == 3


def test_pickle_and_deepcopy_round_trips():
    C = S.parse_state("cat(2,2): T1-L1, T2-R1, L2-B1, R2-B2")
    C.pairs  # derived from mate on each read: only the fields travel
    t = T.parse_tree("((():3)(():2))")
    for obj in (C, t):
        copies = (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj), copy.copy(obj))
        for other in copies:
            assert type(other) is type(obj)
            _same(obj, other)
    again = pickle.loads(pickle.dumps(C))
    assert again.pairs == C.pairs
    assert pickle.loads(pickle.dumps(t)).size == t.size == 5


def test_comparison_with_other_types():
    C = S.parse_state("cat(1,1): T1-L1, R1-B1")
    t = T.Node()
    assert (C == object()) is False and (C != object()) is True
    assert (t == object()) is False
    assert C != (C.m, C.n_t, C.n_b, C.mate)
    assert t != ((), 1)
    assert C != t


def test_node_defaults_and_errors():
    leaf = T.Node()
    assert (leaf.children, leaf.delay) == ((), 1)
    assert T.Node(delay=3).delay == 3
    assert T.Node(children=(leaf, leaf)) == T.parse_tree("(()())")
    with pytest.raises(ValueError, match="^delay must be at least 1$"):
        T.Node((), 0)
    with pytest.raises(ValueError, match="^only leaves carry a delay$"):
        T.Node((leaf,), 2)


def test_node_repr_is_its_text():
    t = T.parse_tree("((():3)(()))")
    assert repr(t) == "Node('((():3)(()))')"
    assert repr(T.Node()) == "Node('()')"
