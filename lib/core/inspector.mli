(** The composed run-time inspector (Section 5, Figures 11 and 15):
    runs each transformation's inspector against the data mappings and
    dependences as modified by the previously planned inspectors. *)

(** Section 6's remap trade-off: [Remap_each] remaps the kernel after
    every transformation (Figure 15); [Remap_once] adjusts only the
    index arrays along the way and remaps the data arrays a single
    time at the end (Figure 11); [Fused] goes one step further and
    defers the index and schedule updates too — inspectors traverse a
    *view* of the original access through the composed (sigma, delta)
    accumulators (updated in place with {!Reorder.Perm.compose_into}),
    so a composition performs one pass over the access per
    transformation and one final remap. Results are identical across
    all three (bit for bit); only the inspector cost differs
    (Figure 16). *)
type strategy = Remap_each | Remap_once | Fused

type result = {
  kernel : Kernels.Kernel.t; (** transformed kernel for the executor *)
  schedule : Reorder.Schedule.t option;
      (** tile schedule when the plan sparse-tiles *)
  sigma_total : Reorder.Perm.t; (** composed data reordering *)
  delta_total : Reorder.Perm.t; (** composed interaction reordering *)
  inspector_seconds : float;
  n_data_remaps : int; (** full data-array remap passes performed *)
  reordering_fns : (string * Reorder.Perm.t) list;
      (** each generated reordering function, named as the symbolic
          layer names it (sigma_cp, delta_lg, sigma_cp2, ...), so
          compile-time formulas can be evaluated against run-time
          output *)
}

(** The plan-cache key for an inspection: a stable hash of the
    kernel's shape and access pattern, the plan's transformations and
    parameters, the remap strategy, and the symmetric-dependence flag.
    Defaults match {!run}'s defaults. The plan name is excluded — two
    differently-named plans with the same transforms share a key, and
    [Fused] fingerprints as [Remap_once] (their results are
    bit-identical, so cache entries interchange; the agreement is
    verified when a fused run stores over an existing entry). *)
val fingerprint :
  ?strategy:strategy ->
  ?share_symmetric_deps:bool ->
  Plan.t ->
  Kernels.Kernel.t ->
  Rtrt_plancache.Fingerprint.t

(** [run ?strategy ?share_symmetric_deps plan kernel] validates the
    plan and executes the composed inspector. The kernel is copied
    first; the caller's arrays are never aliased.
    [share_symmetric_deps] enables the Section 6 symmetric-dependence
    elision during sparse-tile growth (default true). Default strategy
    is [Remap_once]. When [pool] is given (and has more than one
    domain), the inspector hot paths — CPACK, lexGroup, Gpart,
    multilevel, graph construction, tile growth (which then walks only
    the predecessor dependence set, reconstructing the successor
    direction by scatter-min), legality checking, tilePack, and the
    fused view materialization — run on the pool; their output is
    bit-identical to the serial algorithms, so results never depend on
    the domain count.

    When [cache] is given, the inspection is keyed by {!fingerprint}:
    a hit skips every per-transformation inspector and replays the
    cached reordering functions onto a fresh kernel copy (bit-identical
    to the cold run, since both remap strategies reduce to applying
    the composed delta then sigma); a miss runs the inspectors and
    stores the result. *)
val run :
  ?cache:Rtrt_plancache.Cache.t ->
  ?pool:Rtrt_par.Pool.t ->
  ?strategy:strategy ->
  ?share_symmetric_deps:bool ->
  Plan.t ->
  Kernels.Kernel.t ->
  result
