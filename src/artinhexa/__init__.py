"""artinhexa: exact symbolic toolkit for Artin 3-presentations of the
trivial group from integer fillings of the hexatangle, and the
hyperbolicity classification of closed pure 3-braids."""

from .artin import (
    ArtinCheck,
    Presentation,
    gen_from_hex,
    gen_from_params,
    rat_group,
    verify_artin,
)
from .braids import BraidClass, PureBraid, classify, normalize, rho_torus_witness, to_braid_word
from .freeprod import (
    FPWord,
    fp_concat,
    fp_cyclic_reduce,
    fp_invert,
    fp_is_conjugate,
    fp_is_even_power_form,
    fp_reduce,
    parse_fp_word,
    rho,
    serialize_fp_word,
)
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
    conjugate,
    cyclic_reduce,
    generator,
    invert,
    is_conjugate,
    parse_word,
    power,
    reduce_word,
    serialize_word,
)

__version__ = "0.1.0"
