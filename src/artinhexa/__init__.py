"""artinhexa: exact symbolic toolkit for Artin 3-presentations of the
trivial group from integer fillings of the hexatangle, and the
hyperbolicity classification of closed pure 3-braids."""

from .artin import (
    ArtinCheck,
    Presentation,
    gen_from_hex,
    gen_from_params,
    verify_artin,
)
from .braids import BraidClass, PureBraid, classify
from .freeprod import FPWord, fp_concat, fp_invert, rho, serialize_fp_word
from .hexa import (
    HexFilling,
    HexSymmetry,
    LinearCell,
    ParamRow,
    SurgeryParams,
    instantiate_row,
    orbit,
    parse_cell,
    serialize_cell,
    tetrahedral_control,
    to_surgery,
    validate_symmetry_table,
)
from .triviality import TrivialityVerdict, abelian_invariants, replay, simplify
from .words import (
    Word,
    abelianize,
    concat,
    cyclic_reduce,
    generator,
    invert,
    parse_word,
    power,
    reduce_word,
    serialize_word,
)

__version__ = "0.1.0"
