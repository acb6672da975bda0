"""Closed-form relators of a filled hexatangle, kept as a test oracle.

``artin.gen_from_hex`` builds the presentation through the surgery
correspondence (``gen_from_params(to_surgery(h))``).  This module
writes the collapsed exponent formula out directly, so the tests can check
the two routes agree word for word.  Not collected by pytest (no ``test_``
prefix); test modules import it.
"""

from artinhexa.hexa import HexFilling
from artinhexa.words import Word, concat, generator, invert, power

_X1 = generator(1)
_X2 = generator(2)
_X3 = generator(3)
_X23 = concat(_X2, _X3)
_X123 = concat(_X1, _X2, _X3)


def closed_form_relators(h: HexFilling) -> tuple[Word, Word, Word]:
    """The relators

        r1 = x1^-alpha                 K^-delta (x1 x2 x3)^-eta
        r2 = x2^-beta  (x2 x3)^-gamma  K^-delta (x1 x2 x3)^-eta
        r3 = x3^-epsilon (x2 x3)^-gamma          (x1 x2 x3)^-eta

    with ``K = x1 (x2 x3)^gamma x2 (x2 x3)^-gamma``.
    """
    x23_g = power(_X23, h.gamma)
    block = concat(_X1, x23_g, _X2, invert(x23_g))
    block_d = power(block, -h.delta)
    tail = power(_X123, -h.eta)
    x23_ng = invert(x23_g)
    r1 = concat(power(_X1, -h.alpha), block_d, tail)
    r2 = concat(power(_X2, -h.beta), x23_ng, block_d, tail)
    r3 = concat(power(_X3, -h.epsilon), x23_ng, tail)
    return r1, r2, r3
