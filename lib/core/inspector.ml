(* The composed run-time inspector (Section 5 / Figures 11 and 15).

   Given a plan and a kernel, run each transformation's inspector
   against the data mappings and dependences *as modified by the
   previously planned inspectors*, producing the composed reordering
   functions, the transformed kernel for the executor, and (when the
   plan sparse-tiles) the tile schedule.

   Three remap strategies realize the Section 6 overhead trade-off:
   - [Remap_each] (Figure 15): every transformation immediately
     remaps the kernel's data and index arrays, so later inspectors
     traverse plain arrays;
   - [Remap_once] (Figure 11): inspectors traverse a working copy of
     the index arrays (adjusted after every transformation, which the
     paper found cheapest) while the data arrays are remapped a single
     time, at the very end, through the composed sigma;
   - [Fused]: inspectors traverse a *view* of the original index
     arrays through the composed (sigma, delta) accumulators, so a
     composition performs one pass over the access per transformation,
     one in-place pointer update per reordering function
     ([Perm.compose_into] over scratch-backed accumulators), and one
     final data remap. Even the schedule's identity-loop renames are
     deferred and applied once through the composed post-tiling
     rename.

   All strategies produce identical results; only the inspector cost
   differs (Figure 16 measures the difference). *)

open Reorder

type strategy = Remap_each | Remap_once | Fused

type result = {
  kernel : Kernels.Kernel.t; (* transformed kernel for the executor *)
  schedule : Schedule.t option;
  sigma_total : Perm.t; (* composed data reordering *)
  delta_total : Perm.t; (* composed interaction-loop reordering *)
  inspector_seconds : float;
  n_data_remaps : int; (* full data-array remap passes performed *)
  (* Each generated reordering function, named exactly as the symbolic
     layer names it (sigma_cp, delta_lg, sigma_cp2, ...), so the
     compile-time formulas can be evaluated against the run-time
     output. *)
  reordering_fns : (string * Perm.t) list;
}

let invalid fmt = Fmt.kstr invalid_arg fmt

let c_data_remaps = Rtrt_obs.Metrics.counter "inspector.data_remaps"
let c_perms_composed = Rtrt_obs.Metrics.counter "inspector.permutations_composed"

(* Fused-path accounting: in-place compositions performed and view
   materializations that could not be avoided (transforms with no view
   traversal, or the sparse-tiling chain build). *)
let c_fused_compositions = Rtrt_obs.Metrics.counter "inspector.fused_compositions"
let c_fused_materializations =
  Rtrt_obs.Metrics.counter "inspector.fused_materializations"

(* Mutable walk state shared by all strategies. *)
type walk = {
  mutable kern : Kernels.Kernel.t; (* original (Remap_once/Fused) or current *)
  base : Access.t; (* the kernel's original access (the Fused basis) *)
  (* Remap_each/Remap_once: the access under all reorderings so far,
     always present. Fused: a lazily materialized cache of the
     (sigma, delta) view, invalidated by every composition. *)
  mutable work_access : Access.t option;
  sigma_acc : int array; (* composed data forward; live prefix n_nodes *)
  delta_acc : int array; (* composed iteration forward; prefix n_inter *)
  delta_inv : int array; (* inverse of [delta_acc]; prefix n_inter *)
  (* Fused: snapshot of [sigma_acc] when the schedule was created, so
     the identity-loop renames can be applied once at the end through
     the composed post-tiling rename. *)
  mutable sigma_at_tiling : int array option;
  mutable schedule : Schedule.t option;
  mutable remaps : int;
  mutable fns : (string * Perm.t) list; (* reverse order *)
  mutable counters : (string * int) list;
}

(* Fresh reordering-function names matching Symbolic.fresh_fn. *)
let fresh_fn walk base =
  let n =
    match List.assoc_opt base walk.counters with Some n -> n | None -> 0
  in
  walk.counters <- (base, n + 1) :: List.remove_assoc base walk.counters;
  if n = 0 then base else Fmt.str "%s%d" base (n + 1)

(* Returns the generated function's name so the enclosing span can
   record it. *)
let record_fn walk base perm =
  let name = fresh_fn walk base in
  walk.fns <- (name, perm) :: walk.fns;
  name

(* Serial twin of [Rtrt_par.Inspect.materialize]: the composed view as
   a concrete access, bit-identical to
   [Access.reorder_iters delta (Access.map_data sigma base)]. *)
let materialize_serial (base : Access.t) ~sigma ~delta_inv =
  let n_iter = Access.n_iter base and n_data = Access.n_data base in
  let bptr = base.Access.ptr and bdat = base.Access.dat in
  let ptr = Array.make (n_iter + 1) 0 in
  for cur = 0 to n_iter - 1 do
    let r = delta_inv.(cur) in
    ptr.(cur + 1) <- ptr.(cur) + (bptr.(r + 1) - bptr.(r))
  done;
  let dat = Array.make ptr.(n_iter) 0 in
  for cur = 0 to n_iter - 1 do
    let src = bptr.(delta_inv.(cur)) and dst = ptr.(cur) in
    for k = 0 to ptr.(cur + 1) - dst - 1 do
      dat.(dst + k) <- sigma.(bdat.(src + k))
    done
  done;
  Access.unsafe_make ~n_iter ~n_data ~ptr ~dat

(* The access under all reorderings so far. Remap strategies keep it
   eagerly materialized; Fused materializes the view on demand and
   caches it until the next composition invalidates it. *)
let current ?pool walk =
  match walk.work_access with
  | Some a -> a
  | None ->
    Rtrt_obs.Metrics.incr c_fused_materializations;
    let a =
      match pool with
      | Some pool ->
        Rtrt_par.Inspect.materialize ~pool walk.base ~sigma:walk.sigma_acc
          ~delta_inv:walk.delta_inv
      | None ->
        materialize_serial walk.base ~sigma:walk.sigma_acc
          ~delta_inv:walk.delta_inv
    in
    walk.work_access <- Some a;
    a

let data_perm walk strategy sigma_new =
  Rtrt_obs.Metrics.incr c_perms_composed;
  let prev = walk.work_access in
  Perm.compose_into sigma_new walk.sigma_acc;
  match strategy with
  | Fused ->
    (* Defer everything: later inspectors traverse the view through
       the updated accumulator; the schedule's identity loops are
       renamed once at finalization. *)
    Rtrt_obs.Metrics.incr c_fused_compositions;
    walk.work_access <- None
  | Remap_each | Remap_once ->
    let work = match prev with Some a -> a | None -> assert false in
    walk.work_access <- Some (Access.map_data sigma_new work);
    (match walk.schedule with
    | None -> ()
    | Some sched ->
      (* Identity-mapped loops are renamed by the data reordering
         (T_{I3->I4}); the interaction loop's ids are untouched. *)
      let seed = walk.kern.Kernels.Kernel.seed_loop in
      let sched' =
        List.fold_left
          (fun acc l ->
            if l = seed then acc else Schedule.remap_loop acc ~loop:l sigma_new)
          sched
          (List.init (Schedule.n_loops sched) Fun.id)
      in
      walk.schedule <- Some sched');
    (match strategy with
    | Remap_each ->
      walk.kern <- Kernels.Kernel.apply_data_perm walk.kern sigma_new;
      walk.remaps <- walk.remaps + 1;
      Rtrt_obs.Metrics.incr c_data_remaps
    | _ -> ())

let iter_perm walk strategy delta_new =
  Rtrt_obs.Metrics.incr c_perms_composed;
  let prev = walk.work_access in
  Perm.compose_into delta_new walk.delta_acc;
  let n = Perm.size delta_new in
  for i = 0 to n - 1 do
    walk.delta_inv.(walk.delta_acc.(i)) <- i
  done;
  match strategy with
  | Fused ->
    Rtrt_obs.Metrics.incr c_fused_compositions;
    walk.work_access <- None
  | Remap_each | Remap_once ->
    let work = match prev with Some a -> a | None -> assert false in
    walk.work_access <- Some (Access.reorder_iters delta_new work);
    (match strategy with
    | Remap_each ->
      walk.kern <- Kernels.Kernel.apply_iter_perm walk.kern delta_new
    | _ -> ())

let seed_tiles_of ?pool walk (seed : Transform.seed_partition) ~seed_loop ~work
    =
  let kern = walk.kern in
  let n_seed = kern.Kernels.Kernel.loop_sizes.(seed_loop) in
  match seed with
  | Transform.Seed_block { part_size } ->
    Sparse_tile.tile_fn_of_partition
      (Irgraph.Partition.block ~n:n_seed ~part_size)
  | Transform.Seed_gpart { part_size } ->
    (* Partition the data-affinity graph and key each seed-loop
       iteration by the partition of its first touch (for identity
       loops that *is* its datum). *)
    let g =
      match pool with
      | Some pool -> Rtrt_par.Inspect.to_graph ~pool work
      | None -> Access.to_graph work
    in
    let p = Irgraph.Partition.gpart g ~part_size in
    let assign = Irgraph.Partition.assignment p in
    let tile_of =
      if seed_loop = kern.Kernels.Kernel.seed_loop then
        Array.init n_seed (fun it -> assign.(Access.first_touch work it))
      else Array.init n_seed (fun v -> assign.(v))
    in
    { Sparse_tile.n_tiles = Irgraph.Partition.n_parts p; tile_of }

let sparse_tile ?pool walk strategy ~share_symmetric_deps growth seed =
  let kern = walk.kern in
  if walk.schedule <> None then invalid "Inspector: already sparse tiled";
  (* The chain build is the one fused stage that needs a concrete
     access (it is a kernel closure); the lazy cache makes it a single
     materialization. *)
  let work = current ?pool walk in
  let chain = kern.Kernels.Kernel.chain_of_access work in
  let tiles =
    match (growth : Transform.tile_growth) with
    | Transform.Full -> (
      let seed_loop = kern.Kernels.Kernel.seed_loop in
      let seed_tiles = seed_tiles_of ?pool walk seed ~seed_loop ~work in
      match (pool, strategy) with
      | Some pool, _ ->
        (* Pooled growth walks only the predecessor dependence set
           (scatter-min reconstructs the successor direction on the
           fly), so neither a transpose nor the shared symmetric twin
           is needed, whatever [share_symmetric_deps] says. *)
        Sparse_tile.full
          ~grow_backward:(Rtrt_par.Inspect.grow_backward ~pool)
          ~grow_forward:(Rtrt_par.Inspect.grow_forward ~pool)
          ~chain ~seed:seed_loop ~seed_tiles ()
      | None, Fused ->
        Sparse_tile.full ~grow_backward:Sparse_tile.grow_backward_scatter
          ~chain ~seed:seed_loop ~seed_tiles ()
      | None, (Remap_each | Remap_once) ->
        let shared_succ =
          if share_symmetric_deps then
            List.map
              (fun (l, conn_idx) -> (l, chain.Sparse_tile.conn.(conn_idx)))
              kern.Kernels.Kernel.symmetric_backward
          else []
        in
        Sparse_tile.full ~shared_succ ~chain ~seed:seed_loop ~seed_tiles ())
    | Transform.Cache_block ->
      let seed_tiles = seed_tiles_of ?pool walk seed ~seed_loop:0 ~work in
      Sparse_tile.cache_block ~chain ~seed_tiles
  in
  let violations =
    match pool with
    | Some pool -> Rtrt_par.Inspect.check_legality ~pool ~chain ~tiles
    | None -> Sparse_tile.check_legality ~chain ~tiles
  in
  (match violations with
  | [] -> ()
  | (l, a, b) :: _ ->
    invalid "Inspector: illegal tile function (loop pair %d, %d -> %d)" l a b);
  walk.schedule <- Some (Schedule.of_tile_fns tiles);
  if strategy = Fused then
    walk.sigma_at_tiling <-
      Some (Array.sub walk.sigma_acc 0 (Access.n_data work))

let strategy_name = function
  | Remap_each -> "remap_each"
  | Remap_once -> "remap_once"
  | Fused -> "fused"

(* [Fused] produces bit-identical results to [Remap_once] (it defers
   the same work instead of skipping it), so both share the
   "remap_once" fingerprint ingredient: entries written by either
   strategy replay for the other, and pre-existing caches keep
   hitting. The run-time agreement is verified at store time. *)
let fingerprint_strategy = function
  | Remap_each -> "remap_each"
  | Remap_once | Fused -> "remap_once"

(* Everything that determines the inspection outcome goes into the
   cache key: the kernel's shape and access pattern (the run-time
   data), the plan's transformations with their parameters (via
   [Transform.pp], which prints every parameter), the remap strategy
   (it changes [n_data_remaps]), and the symmetric-dependence flag (it
   changes tile growth). The plan *name* is deliberately excluded —
   two differently-named plans with the same transforms inspect
   identically. *)
let fingerprint ?(strategy = Remap_once) ?(share_symmetric_deps = true) plan
    (kernel : Kernels.Kernel.t) =
  let module F = Rtrt_plancache.Fingerprint in
  let b = F.create () in
  F.add_string b kernel.Kernels.Kernel.name;
  F.add_int b kernel.Kernels.Kernel.n_nodes;
  F.add_int b kernel.Kernels.Kernel.n_inter;
  F.add_int_array b kernel.Kernels.Kernel.loop_sizes;
  F.add_int b kernel.Kernels.Kernel.seed_loop;
  List.iter
    (fun (l, conn_idx) ->
      F.add_int b l;
      F.add_int b conn_idx)
    kernel.Kernels.Kernel.symmetric_backward;
  let access = kernel.Kernels.Kernel.access in
  F.add_int_array b access.Access.ptr;
  F.add_int_array b access.Access.dat;
  List.iter
    (fun t -> F.add_string b (Fmt.str "%a" Transform.pp t))
    (Plan.transforms plan);
  F.add_string b (fingerprint_strategy strategy);
  F.add_bool b share_symmetric_deps;
  F.value b

(* The remap-once tail shared by Remap_once, Fused and every replay:
   one relabel of [kernel] through the composed delta and (unless it
   is the identity, which is not counted as a data remap) the composed
   sigma. [relabel] builds fresh arrays, so the caller's kernel is
   never aliased. Returns the kernel and the data remaps performed. *)
let final_remap (kernel : Kernels.Kernel.t) ~sigma_total ~delta_total =
  if Perm.is_id sigma_total then
    (kernel.Kernels.Kernel.relabel ~delta:delta_total (), 0)
  else begin
    Rtrt_obs.Metrics.incr c_data_remaps;
    (kernel.Kernels.Kernel.relabel ~sigma:sigma_total ~delta:delta_total (), 1)
  end

(* A warm hit skips every per-transformation inspector and performs
   only Remap_once's tail. All strategies produce exactly this kernel,
   so the replayed result is bit-identical to the cold run's. *)
let replay (entry : Rtrt_plancache.Cache.entry) (kernel : Kernels.Kernel.t) =
  Rtrt_obs.Span.with_span ~name:"inspector.replay" @@ fun span ->
  let t0 = Rtrt_obs.Clock.now_s () in
  let k, remaps =
    final_remap kernel ~sigma_total:entry.sigma_total
      ~delta_total:entry.delta_total
  in
  let seconds = Rtrt_obs.Clock.now_s () -. t0 in
  Rtrt_obs.Span.set_attr span "inspector_seconds" (Rtrt_obs.Json.Float seconds);
  {
    kernel = k;
    schedule = entry.schedule;
    sigma_total = entry.sigma_total;
    delta_total = entry.delta_total;
    inspector_seconds = seconds;
    n_data_remaps = remaps;
    reordering_fns = entry.reordering_fns;
  }

let run ?cache ?pool ?(strategy = Remap_once) ?(share_symmetric_deps = true)
    plan (kernel : Kernels.Kernel.t) =
  (* Pool-backed substitutions are bit-identical to the serial
     algorithms, so inspector output never depends on the domain
     count. *)
  let pool = match pool with
    | Some p when Rtrt_par.Pool.size p > 1 -> Some p
    | _ -> None
  in
  (match Plan.validate plan with
  | Ok () -> ()
  | Error msg -> invalid "Inspector: %s" msg);
  let inspect () =
  (* Remap_each works on a private copy: a plan without reorderings
     never relabels, and the result must not alias (nor its executor
     mutate) the caller's arrays. Remap_once and Fused only read the
     caller's kernel until their final relabel, which builds fresh
     arrays. *)
  let kernel =
    match strategy with
    | Remap_each -> kernel.Kernels.Kernel.copy ()
    | Remap_once | Fused -> kernel
  in
  Rtrt_obs.Span.with_span ~name:"inspector.run"
    ~attrs:
      [
        ("plan", Rtrt_obs.Json.String (Plan.name plan));
        ("strategy", Rtrt_obs.Json.String (strategy_name strategy));
      ]
  @@ fun root_span ->
  let t0 = Rtrt_obs.Clock.now_s () in
  let n_nodes = kernel.Kernels.Kernel.n_nodes in
  let n_inter = kernel.Kernels.Kernel.n_inter in
  (* The composed forward accumulators (and delta's inverse) live in
     scratch backing stores: repeated inspections reuse them, and
     [Perm.compose_into] updates them in place — one pointer update
     per index array per transformation, no allocation. *)
  Irgraph.Scratch.with_buf @@ fun sigma_buf ->
  Irgraph.Scratch.with_buf @@ fun delta_buf ->
  Irgraph.Scratch.with_buf @@ fun delta_inv_buf ->
  Irgraph.Scratch.ensure sigma_buf n_nodes;
  Irgraph.Scratch.ensure delta_buf n_inter;
  Irgraph.Scratch.ensure delta_inv_buf n_inter;
  let sigma_acc = Irgraph.Scratch.data sigma_buf in
  let delta_acc = Irgraph.Scratch.data delta_buf in
  let delta_inv = Irgraph.Scratch.data delta_inv_buf in
  for i = 0 to n_nodes - 1 do
    sigma_acc.(i) <- i
  done;
  for i = 0 to n_inter - 1 do
    delta_acc.(i) <- i;
    delta_inv.(i) <- i
  done;
  let walk =
    {
      kern = kernel;
      base = kernel.Kernels.Kernel.access;
      work_access = Some kernel.Kernels.Kernel.access;
      sigma_acc;
      delta_acc;
      delta_inv;
      sigma_at_tiling = None;
      schedule = None;
      remaps = 0;
      fns = [];
      counters = [];
    }
  in
  (* The fused view of the original access under the composed
     reorderings: current iteration [cur] touches [sigma_acc.(d)] for
     each [d] in base row [delta_inv.(cur)]. *)
  let view = (walk.sigma_acc, walk.delta_inv) in
  let apply (t : Transform.t) =
    Rtrt_obs.Span.with_span ~name:"inspector.transform"
      ~attrs:[ ("kind", Rtrt_obs.Json.String (Transform.name t)) ]
    @@ fun span ->
    match t with
    | Transform.Data_reorder alg ->
      let sigma_new =
        match alg with
        | Transform.Cpack -> (
          match (strategy, pool) with
          | Fused, Some pool -> Rtrt_par.Inspect.cpack ~pool ~view walk.base
          | Fused, None ->
            Cpack.run_view walk.base ~sigma:walk.sigma_acc
              ~delta_inv:walk.delta_inv
          | _, Some pool -> Rtrt_par.Inspect.cpack ~pool (current walk)
          | _, None -> Cpack.run (current walk))
        | Transform.Gpart { part_size } -> (
          match (strategy, pool) with
          | Fused, Some pool ->
            let graph = Rtrt_par.Inspect.to_graph ~pool ~view walk.base in
            Rtrt_par.Inspect.gpart ~pool ~graph walk.base ~part_size
          | Fused, None ->
            Gpart_reorder.run (current walk) ~part_size
          | _, Some pool ->
            let work = current walk in
            let graph = Rtrt_par.Inspect.to_graph ~pool work in
            Rtrt_par.Inspect.gpart ~pool ~graph work ~part_size
          | _, None -> Gpart_reorder.run (current walk) ~part_size)
        | Transform.Multilevel { part_size } -> (
          match (strategy, pool) with
          | Fused, Some pool ->
            let graph = Rtrt_par.Inspect.to_graph ~pool ~view walk.base in
            Rtrt_par.Inspect.multilevel ~pool ~graph walk.base ~part_size
          | _, Some pool ->
            let work = current walk in
            let graph = Rtrt_par.Inspect.to_graph ~pool work in
            Rtrt_par.Inspect.multilevel ~pool ~graph work ~part_size
          | _, None -> Multilevel_reorder.run (current ?pool walk) ~part_size)
        | Transform.Rcm -> Rcm_reorder.run (current ?pool walk)
        | Transform.Tile_pack -> (
          match walk.schedule with
          | None -> invalid "Inspector: tilePack without schedule"
          | Some sched -> (
            let seed_loop = walk.kern.Kernels.Kernel.seed_loop in
            (* tilePack is CPACK over the tiled execution order of the
               seed loop (whose schedule rows data perms never touch,
               so the deferred Fused schedule is already correct
               here). *)
            match (strategy, pool) with
            | Fused, Some pool ->
              let order = Schedule.loop_order sched seed_loop in
              Rtrt_par.Inspect.cpack ~pool ~order ~view walk.base
            | Fused, None ->
              let order = Schedule.loop_order sched seed_loop in
              Cpack.run_view ~order walk.base ~sigma:walk.sigma_acc
                ~delta_inv:walk.delta_inv
            | _, Some pool ->
              let order = Schedule.loop_order sched seed_loop in
              Rtrt_par.Inspect.cpack ~pool ~order (current walk)
            | _, None ->
              Tile_pack.run ~schedule:sched
                ~accesses:[ (seed_loop, current walk) ]
                ~n_data:(Access.n_data (current walk))))
      in
      let base =
        match alg with
        | Transform.Cpack -> "sigma_cp"
        | Transform.Gpart _ -> "sigma_gp"
        | Transform.Multilevel _ -> "sigma_ml"
        | Transform.Rcm -> "sigma_rcm"
        | Transform.Tile_pack -> "sigma_tp"
      in
      let fn = record_fn walk base sigma_new in
      Rtrt_obs.Span.set_attr span "fn" (Rtrt_obs.Json.String fn);
      data_perm walk strategy sigma_new
    | Transform.Iter_reorder alg ->
      let delta_new =
        match alg with
        | Transform.Lexgroup -> (
          match (strategy, pool) with
          | Fused, Some pool -> Rtrt_par.Inspect.lexgroup ~pool ~view walk.base
          | Fused, None ->
            Lexgroup.run_view walk.base ~sigma:walk.sigma_acc
              ~delta_inv:walk.delta_inv
          | _, Some pool -> Rtrt_par.Inspect.lexgroup ~pool (current walk)
          | _, None -> Lexgroup.run (current walk))
        | Transform.Lexsort -> Lexsort.run (current ?pool walk)
        | Transform.Bucket_tile { bucket_size } ->
          (Bucket_tile.run (current ?pool walk) ~bucket_size).Bucket_tile.delta
      in
      let base =
        match alg with
        | Transform.Lexgroup -> "delta_lg"
        | Transform.Lexsort -> "delta_ls"
        | Transform.Bucket_tile _ -> "delta_bt"
      in
      let fn = record_fn walk base delta_new in
      Rtrt_obs.Span.set_attr span "fn" (Rtrt_obs.Json.String fn);
      iter_perm walk strategy delta_new
    | Transform.Sparse_tile { growth; seed } ->
      sparse_tile ?pool walk strategy ~share_symmetric_deps growth seed
  in
  List.iter apply (Plan.transforms plan);
  let sigma_total = Perm.unsafe_of_forward (Array.sub sigma_acc 0 n_nodes) in
  let delta_total = Perm.unsafe_of_forward (Array.sub delta_acc 0 n_inter) in
  (* Fused: the schedule's identity loops have seen none of the data
     reorderings applied after tiling; rename them once through the
     composed post-tiling rename sigma_total . sigma_at_tiling^-1
     (remap_loop re-sorts each row, so one composed rename is
     bit-identical to the per-transformation renames). *)
  (match (strategy, walk.schedule, walk.sigma_at_tiling) with
  | Fused, Some sched, Some sig_tile ->
    let n = Array.length sig_tile in
    let inv_tile = Array.make n 0 in
    for d = 0 to n - 1 do
      inv_tile.(sig_tile.(d)) <- d
    done;
    let rename = Array.init n (fun x -> sigma_acc.(inv_tile.(x))) in
    let is_identity = ref true in
    for x = 0 to n - 1 do
      if rename.(x) <> x then is_identity := false
    done;
    if not !is_identity then begin
      let rperm = Perm.unsafe_of_forward rename in
      let seed = walk.kern.Kernels.Kernel.seed_loop in
      let sched' =
        List.fold_left
          (fun acc l ->
            if l = seed then acc else Schedule.remap_loop acc ~loop:l rperm)
          sched
          (List.init (Schedule.n_loops sched) Fun.id)
      in
      walk.schedule <- Some sched'
    end
  | _ -> ());
  (* Remap_once/Fused: one data remap at the very end (plus the
     index-array adjustment that every strategy pays). *)
  let kern =
    match strategy with
    | Remap_each -> walk.kern
    | Remap_once | Fused ->
      let span_name =
        match strategy with
        | Fused -> "inspector.fused_final_remap"
        | _ -> "inspector.final_remap"
      in
      Rtrt_obs.Span.with_ ~name:span_name @@ fun () ->
      let k, remaps = final_remap walk.kern ~sigma_total ~delta_total in
      walk.remaps <- walk.remaps + remaps;
      k
  in
  let seconds = Rtrt_obs.Clock.now_s () -. t0 in
  Rtrt_obs.Span.set_attr root_span "inspector_seconds"
    (Rtrt_obs.Json.Float seconds);
  Rtrt_obs.Span.set_attr root_span "n_data_remaps"
    (Rtrt_obs.Json.Int walk.remaps);
  {
    kernel = kern;
    schedule = walk.schedule;
    sigma_total;
    delta_total;
    inspector_seconds = seconds;
    n_data_remaps = walk.remaps;
    reordering_fns = List.rev walk.fns;
  }
  in
  match cache with
  | None -> inspect ()
  | Some cache -> (
    let key = fingerprint ~strategy ~share_symmetric_deps plan kernel in
    match
      Rtrt_plancache.Cache.find cache ~key
        ~n_data:kernel.Kernels.Kernel.n_nodes
        ~n_iter:kernel.Kernels.Kernel.n_inter
        ~loop_sizes:kernel.Kernels.Kernel.loop_sizes
    with
    | Some entry -> replay entry kernel
    | None ->
      let r = inspect () in
      (* Fused shares Remap_once's fingerprint; if an entry appeared
         under the key meanwhile (e.g. stored by another domain), the
         fused result must agree with it — verify before (re)storing
         rather than silently shadowing. *)
      (match strategy with
      | Fused -> (
        match Rtrt_plancache.Cache.peek cache ~key with
        | Some entry ->
          if
            not
              (Perm.equal entry.Rtrt_plancache.Cache.sigma_total r.sigma_total
              && Perm.equal entry.Rtrt_plancache.Cache.delta_total
                   r.delta_total)
          then invalid "Inspector: fused result disagrees with cached entry"
        | None -> ())
      | _ -> ());
      Rtrt_plancache.Cache.store cache ~key
        {
          Rtrt_plancache.Cache.sigma_total = r.sigma_total;
          delta_total = r.delta_total;
          schedule = r.schedule;
          reordering_fns = r.reordering_fns;
          n_data_remaps = r.n_data_remaps;
          cold_inspector_seconds = r.inspector_seconds;
        };
      r)
