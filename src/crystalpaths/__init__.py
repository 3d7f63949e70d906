"""Exact combinatorics for level-zero affine sl2 crystals.

Path-model realizations of the limit crystals and the crystal of the
level-zero modified quantum algebra, with exact integer Kashiwara operators,
the star involution, extremal-vector detection, and a desk-scale verifier of
the Peter-Weyl type decomposition.
"""

from .weights import CLW, DELTA, L0, L1, Weight, classical, orbit_canonical, simple_root
from .core import CrystalElement, bfs_component, check_axioms, graphs_isomorphic
from .halfpath import (HalfPath, from_word, left_path, right_path,
                       string_factorization, u_inf, u_minus_inf)
from .seqreal import (SeqElement, image_check, path_to_seq, seq_to_path,
                      block_transform)
from .levelpath import (LevelPath, ModElement, ground_path, is_extremal_by_walls,
                        level_path, lp_join, lp_split, path_from_window, u_lambda)
from .star import (star_binf, star_bminf, star_extremal_closed,
                   star_half_closed, star_mod, starred_e, starred_f)
from .extremal import (bmax_contains, bmax_seed, enum_bmax, enum_bminus_star,
                       extremal_cert, is_extremal, weyl_op, weyl_orbit)
from .peterweyl import (decompose, pw_report, pw_verify, slice_invariant_under_reflection,
                        slice_keys, verify_component)
