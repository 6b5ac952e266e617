(** Run-time reordering transformations: the inspector library.

    Data reorderings (always legal — Section 4): {!Cpack},
    {!Gpart_reorder}, {!Rcm_reorder}, {!Tile_pack}.
    Iteration reorderings over dependence-free subspaces: {!Lexgroup},
    {!Lexsort}, {!Bucket_tile}.
    Iteration reorderings that traverse dependences: {!Sparse_tile}
    (full sparse tiling and cache blocking), realized through
    {!Schedule}.
    {!Perm} and {!Access} are the run-time representations of
    reordering functions and data mappings. *)

module Perm = Perm
module Access = Access
module Cpack = Cpack
module Gpart_reorder = Gpart_reorder
module Rcm_reorder = Rcm_reorder
module Multilevel_reorder = Multilevel_reorder
module Lexgroup = Lexgroup
module Lexsort = Lexsort
module Bucket_tile = Bucket_tile
module Sparse_tile = Sparse_tile
module Schedule = Schedule
module Tile_pack = Tile_pack
module Wavefront = Wavefront
module Tile_par = Tile_par
module Sfc_reorder = Sfc_reorder
