(** The uniform executor interface over the benchmarks.

    A kernel owns its data and index arrays; the composition framework
    transforms it through [relabel], which applies a data reordering R
    ([sigma]) and an iteration reordering T of the interaction loop
    ([delta]) in one pass that writes every array once.
    {!apply_data_perm} and {!apply_iter_perm} are one-reordering
    helpers over it. Executors come in plain (Figure 13) and
    sparse-tiled (Figure 14) forms, each with a traced twin feeding
    the cache model. *)

(** A parallel tiled executor instance: the level-major renumbered
    schedule it executes (the serial twin for comparison) and the
    run function. *)
type par_exec = {
  par_sched : Reorder.Schedule.t;
  par_run :
    ?batch:int ->
    ?tier:Rtrt_par.Exec.tier ->
    ?profile:bool ->
    steps:int ->
    unit ->
    unit;
      (** [batch] steps per pool dispatch (default 1); [tier] the
          execution strategy (default [Parallel]); [profile] forces
          pool accounting for the run. *)
  par_decide :
    serial_ns_per_step:float -> batch:int -> Rtrt_par.Exec.decision;
      (** The engine's auto-fallback tier model, for selecting [tier]. *)
}

type t = {
  name : string;
  n_nodes : int;
  n_inter : int;
  node_array_names : string list;
  inter_array_names : string list;
  access : Reorder.Access.t;
      (** the interaction loop's access to the node space (current) *)
  loop_sizes : int array;
  seed_loop : int; (** the interaction loop's position in the chain *)
  chain_of_access : Reorder.Access.t -> Reorder.Sparse_tile.chain;
  wrap_conn_of_access : Reorder.Access.t -> Reorder.Access.t;
      (** cross-time-step connectivity: for each first-loop iteration at
          step s+1, the last-loop iterations at step s it shares data
          with — lets sparse tiling grow across the outer loop *)
  symmetric_backward : (int * int) list;
      (** [(backward_loop, conn_index)]: the successor connectivity for
          growing [backward_loop] equals [chain.conn.(conn_index)]
          (Section 6 symmetric dependences) *)
  relabel : ?sigma:Reorder.Perm.t -> ?delta:Reorder.Perm.t -> unit -> t;
      (** The kernel under data reordering [sigma] and interaction
          reordering [delta] (each absent = identity), in one pass:
          [left'.(delta j) = sigma (left.(j))], node arrays scattered
          through [sigma], per-interaction arrays through [delta], and
          the access built alongside. Always fresh arrays, so the
          result never aliases (nor, when run, mutates) the source.
          Raises [Invalid_argument] on a size mismatch. *)
  run : steps:int -> unit;
  run_tiled : Reorder.Schedule.t -> steps:int -> unit;
      (** The interpreted walk of a flat-CSR schedule: the default
          executor, and the reference that compiled (Tier B) and
          parallel executors are checked against bitwise. *)
  exec_arrays : unit -> int array array * float array array;
      (** The kernel's index arrays and float arrays (not copies) in
          the Tier B emitter's documented order; see
          [Compose.Specialize]. *)
  run_traced :
    steps:int -> layout:Cachesim.Layout.t -> access:(int -> unit) -> unit;
  run_tiled_traced :
    Reorder.Schedule.t ->
    steps:int ->
    layout:Cachesim.Layout.t ->
    access:(int -> unit) ->
    unit;
  plan_par :
    pool:Rtrt_par.Pool.t ->
    Reorder.Schedule.t ->
    level_of:int array ->
    par_exec;
      (** Build a parallel executor for a tiled schedule from the tile
          DAG levelization [level_of]; [par_run] is bitwise identical
          to [run_tiled] on [par_sched]. *)
  snapshot : unit -> (string * float array) list;
  copy : unit -> t;  (** [relabel ()]: a deep copy. *)
}

(** [relabel ~sigma ()]: one data reordering (the per-transformation
    remap of the Remap_each baseline). *)
val apply_data_perm : t -> Reorder.Perm.t -> t

(** [relabel ~delta ()]: one interaction reordering. *)
val apply_iter_perm : t -> Reorder.Perm.t -> t

(** The index-array half of [relabel] for kernels whose interaction
    loop touches the pair [(left.(j), right.(j))]: fresh
    [(left', right', access)] under the optional reorderings, written
    in one pass. *)
val relabel_pairs :
  n_data:int ->
  ?sigma:Reorder.Perm.t ->
  ?delta:Reorder.Perm.t ->
  int array ->
  int array ->
  int array * int array * Reorder.Access.t

(** A fresh copy of a float array moved through an optional
    permutation ([out.(forward p i) = a.(i)]). *)
val scatter : Reorder.Perm.t option -> float array -> float array

val endpoint_scan_skipped : unit -> unit
(** Bump the [plancache.endpoint_scan_skips] counter: a kernel skipped
    its endpoint-range scan because the same state already passed it. *)

(** The paper's memory layout: inter-array regrouping over the node
    arrays; index arrays separate. *)
val layout : t -> Cachesim.Layout.t

(** No regrouping (each array separate), for the regrouping ablation. *)
val layout_separate : t -> Cachesim.Layout.t

(** Bytes of node data per node (72 for moldyn, as the paper quotes). *)
val bytes_per_node : t -> int

(** Relative comparison of snapshots (reductions are reassociated by
    the transformations, so bitwise equality is not expected). *)
val snapshots_close :
  ?rtol:float ->
  (string * float array) list ->
  (string * float array) list ->
  bool

(** Bitwise snapshot equality (NaN-safe: compares IEEE bit patterns),
    for checking that parallel execution reproduces serial execution
    exactly. *)
val snapshots_equal_bits :
  (string * float array) list -> (string * float array) list -> bool

(** Un-permute a snapshot taken after data reordering [sigma] back to
    original numbering. *)
val unpermute_snapshot :
  Reorder.Perm.t -> (string * float array) list -> (string * float array) list
