"""Public refusals that no other test reaches: each one's exact exception
type and its whole message."""

import re

import pytest

from qsheaf import (FanError, GroebnerBasis, Ideal, IncompleteFan, LatticeError,
                    NonFanoEnumerationUnbounded, NonSquare, PolyError, Polynomial,
                    build_fan, class_lattice, det, effective_window, find_anchor,
                    locate_cone, parse_polynomial, standard_monomials)

from conftest import hirzebruch, p2_fan


def f1():
    return class_lattice(hirzebruch(1))


REFUSALS = [
    ("ray in no cone", lambda: build_fan(2, [(1, 0), (0, 1), (-1, -1), (1, 1)],
                                         [(0, 1), (1, 2), (0, 2)]),
     IncompleteFan, "rays [3] appear in no maximal cone"),
    ("short point", lambda: locate_cone(p2_fan(), (1,)),
     FanError, "point must have 2 coordinates"),
    ("short coordinates", lambda: f1().curve_from_coords((1,)),
     LatticeError, "curve coordinates must have length 2"),
    ("short d-vector", lambda: f1().curve_from_d((1, 0)),
     LatticeError, "d-vector length must equal the number of rays"),
    ("non-relation", lambda: f1().curve_from_d((1, 0, 0, 0)),
     LatticeError, "(1, 0, 0, 0) is not a relation among the rays"),
    ("anchor of nothing", lambda: find_anchor(f1(), []),
     LatticeError, "anchor search requires at least one sector"),
    ("unbounded non-Fano window", lambda: effective_window(class_lattice(hirzebruch(2)), 2),
     NonFanoEnumerationUnbounded, "non-Fano window needs an explicit coefficient bound"),
    ("lead of zero", lambda: Polynomial.zero(2).leading_monomial(),
     PolyError, "zero polynomial has no leading monomial"),
    ("linear coefficients of a square",
     lambda: (Polynomial.variable(2, 0) ** 2).linear_coefficients(),
     PolyError, "not a linear form in the psi variables"),
    ("with_q on a Novikov polynomial", lambda: Polynomial.novikov(1, 1, (1,)).with_q(2),
     PolyError, "polynomial already carries Novikov exponents"),
    ("zero generator", lambda: Ideal((Polynomial.zero(1),)),
     PolyError, "ideal generators must be nonzero"),
    ("empty basis without nv", lambda: standard_monomials(GroebnerBasis(()), 1),
     PolyError, "Groebner basis does not record its variable count"),
    ("empty determinant", lambda: det([]),
     NonSquare, "empty matrix"),
    ("no symbols", lambda: parse_polynomial("D1", []),
     PolyError, "no divisor symbols supplied"),
]


@pytest.mark.parametrize("call, error, message", [r[1:] for r in REFUSALS],
                         ids=[r[0] for r in REFUSALS])
def test_public_refusal_type_and_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is error
