(* The uniform executor interface over the benchmarks (moldyn, nbf,
   irreg, cg).

   A kernel instance owns its data arrays and index arrays. The
   composition framework transforms it through one [relabel ?sigma
   ?delta ()]: a data reordering R (sigma: permute every node array,
   remap index-array values — and implicitly reorder the
   identity-mapped node loops) and an iteration reordering T of the
   interaction loop (delta: permute the index arrays and any
   per-interaction data), both applied in a single pass that writes
   every array once — the paper's remap-once overhead reduction.
   [apply_data_perm] / [apply_iter_perm] are one-reordering helpers
   over it (the per-transformation Remap_each baseline).

   Host storage is the layout the cache model simulates ([layout]):
   moldyn, nbf and irreg keep their k node arrays regrouped (Ding &
   Kennedy inter-array regrouping) in one interleaved float array of
   length k*n, node i's field f at [k*i + f] with f in
   [node_array_names] order; per-interaction arrays stay separate.
   [scatter_group] and [ungroup] are the shared relabel and snapshot
   halves of that layout. cg keeps one array per field.

   Executors come in four flavors: plain (Figure 13-style: the code is
   unchanged, only the arrays moved) and sparse-tiled (Figure 14-style:
   tiles outermost), each with a traced twin that reports every memory
   reference to a cache model. The traced twins duplicate the loop
   bodies deliberately: the plain executors must stay allocation- and
   closure-free for wall-clock measurements. *)

(* A parallel tiled executor instance: the level-major renumbered
   schedule it executes (the serial twin for comparison) plus the run
   function, built by [plan_par] over an Exec engine. [par_run] takes
   the engine's batching/tier/profiling knobs; [par_decide] evaluates
   the auto-fallback tier model against a measured serial step time. *)
type par_exec = {
  par_sched : Reorder.Schedule.t;
  par_run :
    ?batch:int ->
    ?tier:Rtrt_par.Exec.tier ->
    ?profile:bool ->
    steps:int ->
    unit ->
    unit;
  par_decide :
    serial_ns_per_step:float -> batch:int -> Rtrt_par.Exec.decision;
}

type t = {
  name : string;
  n_nodes : int;
  n_inter : int;
  (* Node field names in layout order (the regrouped record's field
     order; one array of length n_nodes each in snapshots). *)
  node_array_names : string list;
  (* Per-interaction arrays (index arrays and e.g. edge weights). *)
  inter_array_names : string list;
  (* The interaction loop's access to the node space (current). *)
  access : Reorder.Access.t;
  (* Loop chain for sparse tiling, with the interaction loop's position.
     [chain_of_access] builds the chain from any (possibly transformed)
     access so composed inspectors can work on pending reorderings. *)
  loop_sizes : int array;
  seed_loop : int;
  chain_of_access : Reorder.Access.t -> Reorder.Sparse_tile.chain;
  (* Cross-time-step connectivity: for each iteration of the chain's
     FIRST loop at step s+1, the iterations of the LAST loop at step s
     it shares data with. Lets sparse tiling grow across the outer
     time-stepping loop (Section 2.3: "across an outer loop"). *)
  wrap_conn_of_access : Reorder.Access.t -> Reorder.Access.t;
  (* [(backward_loop, conn_index)] pairs recording that the successor
     connectivity needed to grow loop [backward_loop] backward equals
     [chain.conn.(conn_index)] — the paper's symmetric-dependence
     observation (Section 6), letting the inspector traverse one set. *)
  symmetric_backward : (int * int) list;
  (* Both reorderings in one pass; fresh arrays even when both are
     absent (which is [copy]). *)
  relabel : ?sigma:Reorder.Perm.t -> ?delta:Reorder.Perm.t -> unit -> t;
  (* Executors; [run*] mutate the kernel's arrays in place. *)
  run : steps:int -> unit;
  run_tiled : Reorder.Schedule.t -> steps:int -> unit;
  (* Tier B handshake: the kernel's index arrays and float arrays in
     the executor-emitter's documented order (Compose.Specialize);
     the arrays themselves, not copies. *)
  exec_arrays : unit -> int array array * float array array;
  run_traced :
    steps:int -> layout:Cachesim.Layout.t -> access:(int -> unit) -> unit;
  run_tiled_traced :
    Reorder.Schedule.t ->
    steps:int ->
    layout:Cachesim.Layout.t ->
    access:(int -> unit) ->
    unit;
  (* Parallel executor over a tiled schedule; [par_run] is bitwise
     identical to [run_tiled] on the renumbered [par_sched]. *)
  plan_par :
    pool:Rtrt_par.Pool.t ->
    Reorder.Schedule.t ->
    level_of:int array ->
    par_exec;
  (* Current node arrays, for correctness comparison. *)
  snapshot : unit -> (string * float array) list;
  (* Deep copy (fresh arrays, same values). *)
  copy : unit -> t;
}

let apply_data_perm k sigma = k.relabel ~sigma ()
let apply_iter_perm k delta = k.relabel ~delta ()

(* The index-array half of [relabel] for the pair kernels:
   [left'.(delta j) = sigma (left.(j))] (likewise [right]), with the
   interaction access written in the same pass. The access skips
   [Access.make]'s range scan: the source endpoints were validated
   when the kernel was built, and sigma (size checked below) is a
   bijection on the same node range. *)
let relabel_pairs ~n_data ?sigma ?delta left right =
  let m = Array.length left in
  let check who p n =
    if Reorder.Perm.size p <> n then
      invalid_arg ("Kernel.relabel: " ^ who ^ " size mismatch")
  in
  Option.iter (fun s -> check "sigma" s n_data) sigma;
  Option.iter (fun d -> check "delta" d m) delta;
  let left' = Array.make m 0 and right' = Array.make m 0 in
  let dat = Array.make (2 * m) 0 in
  for j = 0 to m - 1 do
    let j' = match delta with None -> j | Some d -> Reorder.Perm.forward d j in
    let l = left.(j) and r = right.(j) in
    let l = match sigma with None -> l | Some s -> Reorder.Perm.forward s l in
    let r = match sigma with None -> r | Some s -> Reorder.Perm.forward s r in
    left'.(j') <- l;
    right'.(j') <- r;
    dat.(2 * j') <- l;
    dat.((2 * j') + 1) <- r
  done;
  let ptr = Array.init (m + 1) (fun j -> 2 * j) in
  (left', right', Reorder.Access.unsafe_make ~n_iter:m ~n_data ~ptr ~dat)

(* A fresh copy of a node array (under sigma) or per-interaction
   array (under delta) moved to its new positions. *)
let scatter p a =
  match p with
  | None -> Array.copy a
  | Some p -> Reorder.Perm.apply_to_float_array p a

(* A fresh copy of a regrouped node array ([fields] doubles per node)
   with node i's record moved to [fields * sigma(i)]. One inline copy
   loop: a per-node [Array.blit] pays a C call per record. *)
let scatter_group ~fields p a =
  match p with
  | None -> Array.copy a
  | Some p ->
    let n = Reorder.Perm.size p in
    if Array.length a <> fields * n then
      invalid_arg "Kernel.scatter_group: size mismatch";
    let out = Array.create_float (fields * n) in
    for i = 0 to n - 1 do
      let src = fields * i and dst = fields * Reorder.Perm.forward p i in
      for f = 0 to fields - 1 do
        Array.unsafe_set out (dst + f) (Array.unsafe_get a (src + f))
      done
    done;
    out

(* The regrouped node array de-interleaved into one fresh array per
   field name (the snapshot view), with plain loops in one sequential
   pass over the records. *)
let ungroup ~names a =
  let fields = List.length names in
  let n = Array.length a / fields in
  let outs = Array.init fields (fun _ -> Array.create_float n) in
  for i = 0 to n - 1 do
    let b = fields * i in
    for f = 0 to fields - 1 do
      Array.unsafe_set (Array.unsafe_get outs f) i (Array.unsafe_get a (b + f))
    done
  done;
  List.mapi (fun f name -> (name, outs.(f))) names

(* Endpoint scans (each kernel's index-array range validation) are
   memoized per kernel state; replays of a cache-hit schedule on the
   same kernel skip the O(m) scan and count it here. *)
let c_endpoint_skips = Rtrt_obs.Metrics.counter "plancache.endpoint_scan_skips"
let endpoint_scan_skipped () = Rtrt_obs.Metrics.incr c_endpoint_skips

(* The memory layout used by the paper's experiments: inter-array data
   regrouping over the node arrays, index/interaction arrays
   separate. *)
let layout k =
  let node_group = List.map (fun n -> (n, k.n_nodes)) k.node_array_names in
  let inter_group = List.map (fun n -> (n, k.n_inter)) k.inter_array_names in
  Cachesim.Layout.grouped ~groups:(node_group :: List.map (fun a -> [ a ]) inter_group) ()

(* Layout without regrouping (each array separate) for the regrouping
   ablation. *)
let layout_separate k =
  let node_arrays = List.map (fun n -> (n, k.n_nodes)) k.node_array_names in
  let inter_arrays = List.map (fun n -> (n, k.n_inter)) k.inter_array_names in
  Cachesim.Layout.separate (node_arrays @ inter_arrays)

(* Bytes of node data per node (the paper quotes 72 B for moldyn). *)
let bytes_per_node k = 8 * List.length k.node_array_names

(* Relative comparison of two snapshots; reductions are reassociated by
   the transformations, so exact equality is not expected. *)
let snapshots_close ?(rtol = 1e-9) s1 s2 =
  List.for_all2
    (fun (n1, a1) (n2, a2) ->
      String.equal n1 n2
      && Array.length a1 = Array.length a2
      && Array.for_all2
           (fun x y ->
             let scale = max (abs_float x) (abs_float y) in
             abs_float (x -. y) <= rtol *. max scale 1.0)
           a1 a2)
    s1 s2

(* Bitwise equality via IEEE bit patterns, so NaN payloads and signed
   zeros also have to match — the standard parallel executions claim. *)
let snapshots_equal_bits s1 s2 =
  List.length s1 = List.length s2
  && List.for_all2
       (fun (n1, a1) (n2, a2) ->
         String.equal n1 n2
         && Array.length a1 = Array.length a2
         && Array.for_all2
              (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
              a1 a2)
       s1 s2

(* Un-permute a snapshot taken after a data reordering [sigma] back to
   original numbering, for comparison against an untransformed run. *)
let unpermute_snapshot sigma s =
  List.map
    (fun (name, a) ->
      (name, Reorder.Perm.apply_to_float_array (Reorder.Perm.invert sigma) a))
    s
