"""Reference implementations kept as test oracles.

The program does not need these: ``classify`` reads a braid's closure from
the cyclic canonical form of its block word, and a conjugacy class is
decided by comparing canonical forms.  The tests check the program against
these plainer constructions: block merging, the literal letter expansion of
a braid, the Z2 * Z3 torus criterion and right conjugation.  Not collected
by pytest (no ``test_`` prefix); test modules import it.
"""

from artinhexa.braids import BraidError, PureBraid
from artinhexa.freeprod import EvenPowerForm, FPWord, fp_concat, fp_is_even_power_form, fp_power, rho
from artinhexa.words import Word, concat, invert


def conjugate(w: Word, g: Word) -> Word:
    """Right conjugation ``g^-1 * w * g`` (fixed convention)."""
    return concat(invert(g), w, g)


def normalize(b: PureBraid) -> PureBraid:
    """Merge blocks across zero exponents and drop all-zero blocks.

    ``(e,0),(e',f')`` becomes ``(e+e',f')`` and ``(e,f),(0,f')`` becomes
    ``(e,f+f')``; the expanded braid word is unchanged up to free
    cancellation.
    """
    out: list[list[int]] = []
    for e, f in b.blocks:
        if out and out[-1][1] == 0:
            out[-1] = [out[-1][0] + e, f]
        elif out and e == 0:
            out[-1][1] += f
        else:
            out.append([e, f])
        if out[-1] == [0, 0]:
            out.pop()
    return PureBraid(tuple((e, f) for e, f in out), b.twist)


def to_braid_word(b: PureBraid) -> tuple[int, ...]:
    """Literal letter expansion, with the half twist spelled as
    sigma1 sigma2 sigma1; length is ``sum(2|e_i| + 2|f_i|) + 6|e|``."""
    letters: list[int] = []
    for e, f in b.blocks:
        letters.extend([1 if e > 0 else -1] * (2 * abs(e)))
        letters.extend([2 if f > 0 else -2] * (2 * abs(f)))
    half = (1, 2, 1) if b.twist > 0 else (-1, -2, -1)
    letters.extend(half * (2 * abs(b.twist)))
    return tuple(letters)


_S1 = rho([1])
_S2 = rho([2])


def rho_torus_witness(b: PureBraid) -> EvenPowerForm | None:
    """Independent torus oracle: image of the block product in Z2 * Z3 is an
    even power of y^2*D or D*y exactly for the all-(1,1) / all-(-1,-1)
    braids.  The full twist is ignored (it dies under the quotient).

    Requires every block exponent nonzero; normalize the braid differently
    first if not.
    """
    parts: list[FPWord] = []
    for e, f in b.blocks:
        if e == 0 or f == 0:
            raise BraidError(f"block ({e},{f}) has a zero exponent")
        parts.append(fp_power(_S1, 2 * e))
        parts.append(fp_power(_S2, 2 * f))
    return fp_is_even_power_form(fp_concat(*parts))
