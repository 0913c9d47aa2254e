"""The tests' one conversion from a degree vector to a relation, written
as the package first had it: a key sort, then one unknown name per label,
and the member's name read off its family and params.

``hypdiv.families.relations`` reaches the same forms and names from the
genus-free template patterns; the tests check the two against each other.
"""

from hypdiv import basis as B
from hypdiv import families as F


def unknown(label):
    """``families.unknown`` as it was, through int(marking[0]) and repeated ``.kind`` reads."""
    if label == F.PSI_SUM or label.kind == B.PSI:
        return "d"
    if label.kind == B.ETA_IRR:
        return "c"
    if label.kind == B.DELTA_0_2:
        return "a_0_2"
    prefix = "a" if label.kind == B.DELTA else "b"
    return f"{prefix}_{label.index}_{int(label.marking[0])}"


def solver_key(label):
    """The solver-order key as it was, the kind's position found by ``tuple.index``."""
    if label == F.PSI_SUM:
        return (0,)
    kind, index, marking = label
    return ((B.PSI, B.ETA_IRR, B.DELTA_0_2, B.DELTA, B.ETA).index(kind), index, marking)


def pairing_degree(dv):
    """The form (unknown -> coefficient, in solver order) pairing the unknowns with
    ``dv``: degrees of labels sharing an unknown add up, and a zero sum is dropped."""
    form = {}
    for label in sorted(dv.degrees, key=solver_key):
        name = unknown(label)
        acc = form.get(name, 0) + dv.degrees[label]
        if acc:
            form[name] = acc
        else:
            form.pop(name, None)
    return form


def provenance(dv):
    """``DegreeVector.provenance`` as it was, sorting the params of every member."""
    if dv.params:
        inner = ",".join(f"{k}={v}" for k, v in sorted(dv.params.items()))
        return f"{dv.family}[{inner}]"
    return dv.family
