"""The builtin model library, pinned name by name.

Each accepted name is pinned by the stdout of ``print builtin:NAME`` and by
the name and description of the parsed model; each refused name by the exact
text of its ``ValueError``.  The names cover every family at two or more
parameter values, nested and refused ``trivial-fibration:`` wrappers, and the
malformed forms of each family.
"""

import pytest

from dgtangent.cli import main
from dgtangent.models import builtin

PRINTED = {
    "ah:sphere:2": """\
name ah:sphere:2
description loop-space model of the 2-sphere
flavor associative
grading homological
gen x : 1
d x = 0
""",
    "ah:sphere:3": """\
name ah:sphere:3
description loop-space model of the 3-sphere
flavor associative
grading homological
gen x : 2
d x = 0
""",
    "ah:sphere:+3": """\
name ah:sphere:+3
description loop-space model of the 3-sphere
flavor associative
grading homological
gen x : 2
d x = 0
""",
    "ah:wedge:2,2": """\
name ah:wedge:2,2
description loop-space model of a wedge of a 2- and a 2-sphere
flavor associative
grading homological
gen a : 1
gen b : 1
d a = 0
d b = 0
""",
    "ah:wedge:3,5": """\
name ah:wedge:3,5
description loop-space model of a wedge of a 3- and a 5-sphere
flavor associative
grading homological
gen a : 2
gen b : 4
d a = 0
d b = 0
""",
    "sullivan:sphere:odd:3": """\
name sullivan:sphere:odd:3
description minimal model of the odd 3-sphere
flavor commutative
grading cohomological
gen x : 3
d x = 0
""",
    "sullivan:sphere:odd:5": """\
name sullivan:sphere:odd:5
description minimal model of the odd 5-sphere
flavor commutative
grading cohomological
gen x : 5
d x = 0
""",
    "sullivan:sphere:even:2": """\
name sullivan:sphere:even:2
description minimal model of the even 2-sphere
flavor commutative
grading cohomological
gen x : 2
gen y : 3
d x = 0
d y = x^2
""",
    "sullivan:sphere:even:4": """\
name sullivan:sphere:even:4
description minimal model of the even 4-sphere
flavor commutative
grading cohomological
gen x : 4
gen y : 7
d x = 0
d y = x^2
""",
    "sullivan:cpn:1": """\
name sullivan:cpn:1
description minimal model of complex projective 1-space
flavor commutative
grading cohomological
gen x : 2
gen y : 3
d x = 0
d y = x^2
""",
    "sullivan:cpn:3": """\
name sullivan:cpn:3
description minimal model of complex projective 3-space
flavor commutative
grading cohomological
gen x : 2
gen y : 7
d x = 0
d y = x^4
""",
    "sullivan:hopf": """\
name sullivan:hopf
description circle bundle over the even 2-sphere with total space the 3-sphere
flavor commutative
grading cohomological
gen x : 2 base
gen y : 3 base
gen z : 1
d x = 0
d y = x^2
d z = x
""",
    "trivial-fibration:sullivan:hopf": """\
name trivial-fibration:sullivan:hopf
description sullivan:hopf as the fiber of a fibration over a point
flavor commutative
grading cohomological
gen x : 2
gen y : 3
gen z : 1
d x = 0
d y = x^2
d z = x
""",
    "trivial-fibration:sullivan:cpn:2": """\
name trivial-fibration:sullivan:cpn:2
description sullivan:cpn:2 as the fiber of a fibration over a point
flavor commutative
grading cohomological
gen x : 2
gen y : 5
d x = 0
d y = x^3
""",
    "trivial-fibration:trivial-fibration:sullivan:sphere:even:2": """\
name trivial-fibration:trivial-fibration:sullivan:sphere:even:2
description trivial-fibration:sullivan:sphere:even:2 as the fiber of a fibration over a point
flavor commutative
grading cohomological
gen x : 2
gen y : 3
d x = 0
d y = x^2
""",
}

REFUSED = {
    "ah:sphere:": "bad parameter '' in builtin 'ah:sphere:'",
    "ah:sphere:1": "builtin 'ah:sphere:1' requires parameter >= 2",
    "ah:sphere:x": "bad parameter 'x' in builtin 'ah:sphere:x'",
    "ah:sphere:2,3": "bad parameter '2,3' in builtin 'ah:sphere:2,3'",
    "ah:wedge:2": "builtin 'ah:wedge:2' requires two parameters n,m",
    "ah:wedge:2,3,4": "builtin 'ah:wedge:2,3,4' requires two parameters n,m",
    "ah:wedge:1,3": "builtin 'ah:wedge:1,3' requires parameter >= 2",
    "ah:wedge:2,y": "bad parameter 'y' in builtin 'ah:wedge:2,y'",
    "sullivan:sphere:odd:4": "builtin 'sullivan:sphere:odd:4' requires an odd degree",
    "sullivan:sphere:odd:1": "builtin 'sullivan:sphere:odd:1' requires parameter >= 3",
    "sullivan:sphere:even:3": "builtin 'sullivan:sphere:even:3' requires an even degree",
    "sullivan:sphere:even:0": "builtin 'sullivan:sphere:even:0' requires parameter >= 2",
    "sullivan:cpn:0": "builtin 'sullivan:cpn:0' requires parameter >= 1",
    "sullivan:cpn:": "bad parameter '' in builtin 'sullivan:cpn:'",
    "sullivan:hopf:1": "unknown builtin model 'sullivan:hopf:1'",
    "ah:torus:2": "unknown builtin model 'ah:torus:2'",
    "ah:sphere": "unknown builtin model 'ah:sphere'",
    "": "unknown builtin model ''",
    "trivial-fibration:ah:sphere:3": "trivial-fibration wrappers apply to sullivan builtins only",
    "trivial-fibration:foo": "unknown builtin model 'foo'",
    "trivial-fibration:trivial-fibration:ah:wedge:2,2": (
        "trivial-fibration wrappers apply to sullivan builtins only"
    ),
}


@pytest.mark.parametrize("name", PRINTED)
def test_builtin_prints_its_pinned_text(name, capsys):
    assert main(["print", f"builtin:{name}"]) == 0
    assert capsys.readouterr().out == PRINTED[name]
    mf = builtin(name)
    assert mf.name == name
    assert f"description {mf.description}\n" in PRINTED[name]


@pytest.mark.parametrize("name", REFUSED)
def test_builtin_refusal_message(name):
    with pytest.raises(ValueError) as exc:
        builtin(name)
    assert str(exc.value) == REFUSED[name]
