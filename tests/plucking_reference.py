"""The plucking polynomial by its recursive definition, for the tests.

Q(T) sums q^(right count of v) * Q(T - v) over the pluckable leaves v, with
Q(single vertex) = 1.  The library's ``trees.plucking`` factors at
splitting subtrees instead; this copy never does, so identities such as
Q(T) = Q(T') Q(T'') are checked against the definition rather than against
the evaluator that uses them.  It has its own memo, keyed on the rendered
tree.
"""

from catlattice.laurent import ONE, ZERO, add, monomial_shift
from catlattice.trees import pluck, pluckable_leaves, render_tree, right_count

_MEMO = {}


def plucking_by_definition(t):
    key = render_tree(t)
    got = _MEMO.get(key)
    if got is not None:
        return dict(got)
    if not t.children:
        out = dict(ONE)
    else:
        out = dict(ZERO)
        for path in pluckable_leaves(t):
            term = monomial_shift(
                plucking_by_definition(pluck(t, path)), right_count(t, path)
            )
            out = add(out, term)
    _MEMO[key] = dict(out)
    return out
