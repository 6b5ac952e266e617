(** Gauss-Seidel smoothing over an irregular mesh — the computation
    sparse tiling was originally developed for (Section 2.3). Tiles
    grow across convergence sweeps; the tiled executor is bitwise
    identical to the plain smoother when {!check_constraints} reports
    no violations. *)

type t = {
  graph : Irgraph.Csr.t;
  u : float array;
  f : float array;
}

val create : graph:Irgraph.Csr.t -> f:float array -> t
val copy : t -> t

(** One in-place update of node [v]. *)
val update : t -> int -> unit

(** Plain smoother: [sweeps] sweeps in numbering order. *)
val run_plain : t -> sweeps:int -> unit

(** A tile function across sweeps: [theta.(s).(v)] is node [v]'s tile
    at sweep [s]. *)
type tiling = {
  n_tiles : int;
  sweeps : int;
  theta : int array array;
}

(** Grow a tiling from a seed partitioning at [seed_sweep]
    (min-backward / max-forward over closed neighborhoods, then
    within-sweep repair). The seed should be monotone among adjacent
    nodes — renumber with {!renumber_by_partition} first. *)
val grow :
  Irgraph.Csr.t ->
  seed:Reorder.Sparse_tile.tile_fn ->
  seed_sweep:int ->
  sweeps:int ->
  tiling

(** All violations of the Gauss-Seidel dependence constraints C1/C2/C3
    (see the implementation header); empty means the tiled execution
    is exactly the plain smoother. *)
val check_constraints :
  Irgraph.Csr.t ->
  tiling ->
  ([ `C1 | `C2 | `C3 ] * int * int * int) list

(** The tiling as a flat executor schedule (sweep [s] is chain
    position [s]; member nodes ascending within each row). *)
val schedule : tiling -> Reorder.Schedule.t

(** Execute the tiling's sweeps, tiles atomically in order. *)
val run_tiled : t -> tiling -> unit

(** Walk a flat schedule directly (tiles, then chain positions, then
    member nodes in row order); [run_tiled] is [run_sched] of
    [schedule tiling]. *)
val run_sched : t -> Reorder.Schedule.t -> unit

(** The graph's CSR arrays [(ptr, adj)] with adjacency in
    [iter_neighbors] order, for the Tier B executor emitter. *)
val csr_arrays : Irgraph.Csr.t -> int array * int array

(** Execute [total_sweeps] as consecutive slabs of [tiling.sweeps]
    (temporal blocking); raises if not a multiple. *)
val run_tiled_slabbed : t -> tiling -> total_sweeps:int -> unit

(** Levelized tile dependence DAG of the tiling (C1/C2/C3 edges);
    same-level tiles are fully independent. Raises [Invalid_argument]
    on an illegal tiling. *)
val tile_dag : Irgraph.Csr.t -> tiling -> Reorder.Tile_par.t

(** Execute the tiling with same-level tiles concurrent; bitwise equal
    to {!run_tiled}. *)
val run_tiled_par :
  pool:Rtrt_par.Pool.t -> t -> tiling -> Reorder.Tile_par.t -> unit

(** Dependences of one sweep for wavefront scheduling: each node
    depends on its lower-numbered neighbors. *)
val wavefront_preds : Irgraph.Csr.t -> Reorder.Access.t

(** [sweeps] sweeps with each wavefront level's nodes updated
    concurrently; bitwise equal to {!run_plain}. *)
val run_wavefront_par :
  pool:Rtrt_par.Pool.t -> t -> Reorder.Wavefront.t -> sweeps:int -> unit

val run_traced :
  t -> sweeps:int -> layout:Cachesim.Layout.t -> access:(int -> unit) -> unit

val run_tiled_traced :
  ?slabs:int ->
  t ->
  tiling ->
  layout:Cachesim.Layout.t ->
  access:(int -> unit) ->
  unit

(** Grouped u/f layout for the cache model. *)
val layout : t -> Cachesim.Layout.t

(** Renumber the mesh so the partition's blocks are consecutive;
    returns the permuted graph and right-hand side, the permutation,
    and the seed tile function (monotone by construction). *)
val renumber_by_partition :
  Irgraph.Csr.t ->
  f:float array ->
  partition:Irgraph.Partition.t ->
  Irgraph.Csr.t * float array * Reorder.Perm.t * Reorder.Sparse_tile.tile_fn
