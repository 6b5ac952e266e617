(* The moldyn benchmark (non-bonded force molecular dynamics, Figure 1
   of the paper generalized to 3-D): 9 node fields of doubles — 72
   bytes per molecule, the figure the paper quotes when explaining why
   data reordering alone saturates on a 64-byte-line machine.

   The fields are regrouped as the paper's executors store them (and
   as [Kernel.layout] models them): molecule i's record
   x y z vx vy vz fx fy fz sits at [nodes.(9i) .. nodes.(9i + 8)].

   Loop chain per time step:
     S1 (i loop): position update     x += vx + fx        (writes x)
     S2/S3 (j loop): pairwise forces  fx[l] += g, fx[r] -= g
     S4 (k loop): velocity update     vx += fx            (reads fx) *)

type state = {
  n : int;
  m : int;
  left : int array;
  right : int array;
  nodes : float array; (* 9 * n, regrouped *)
  (* Endpoint-scan memo: left/right are never mutated in place within
     one state (transformations build new states), so one successful
     scan validates every later executor run on this state. *)
  mutable endpoints_ok : bool;
}

let dt = 0.0001

let node_array_names = [ "x"; "y"; "z"; "vx"; "vy"; "vz"; "fx"; "fy"; "fz" ]
let inter_array_names = [ "left"; "right" ]
let fields = 9

let run_plain st ~steps =
  let n = st.n and m = st.m in
  let nd = st.nodes in
  let left = st.left and right = st.right in
  for _s = 1 to steps do
    for i = 0 to n - 1 do
      let b = 9 * i in
      nd.(b) <- nd.(b) +. (dt *. (nd.(b + 3) +. nd.(b + 6)));
      nd.(b + 1) <- nd.(b + 1) +. (dt *. (nd.(b + 4) +. nd.(b + 7)));
      nd.(b + 2) <- nd.(b + 2) +. (dt *. (nd.(b + 5) +. nd.(b + 8)))
    done;
    for j = 0 to m - 1 do
      let l = 9 * left.(j) and r = 9 * right.(j) in
      let dx = nd.(l) -. nd.(r) in
      let dy = nd.(l + 1) -. nd.(r + 1) in
      let dz = nd.(l + 2) -. nd.(r + 2) in
      let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) +. 1.0 in
      let g = 1.0 /. r2 in
      nd.(l + 6) <- nd.(l + 6) +. (g *. dx);
      nd.(r + 6) <- nd.(r + 6) -. (g *. dx);
      nd.(l + 7) <- nd.(l + 7) +. (g *. dy);
      nd.(r + 7) <- nd.(r + 7) -. (g *. dy);
      nd.(l + 8) <- nd.(l + 8) +. (g *. dz);
      nd.(r + 8) <- nd.(r + 8) -. (g *. dz)
    done;
    for k = 0 to n - 1 do
      let b = 9 * k in
      nd.(b + 3) <- nd.(b + 3) +. (dt *. nd.(b + 6));
      nd.(b + 4) <- nd.(b + 4) +. (dt *. nd.(b + 7));
      nd.(b + 5) <- nd.(b + 5) +. (dt *. nd.(b + 8))
    done
  done

(* The tiled executor interprets a schedule whose loop count is any
   multiple of the 3-loop chain: chain position c executes the body of
   loop (c mod 3). A 3-loop schedule is the Figure 14 executor; a
   3S-loop schedule executes S whole time steps per [steps] (time-step
   sparse tiling across the outer loop).

   Validated-once-then-unsafe: [Schedule.check_fits] plus the
   endpoint-range scan below guarantee every index the loop bodies
   compute is in bounds (node ids in [0, n), so [9 * id + f] in
   [0, 9n)), so the steady state streams the flat schedule and the
   data arrays with [Array.unsafe_get]/[unsafe_set]. *)

let check_endpoints ~who ~n ~m left right =
  if Array.length left <> m || Array.length right <> m then
    invalid_arg (who ^ ": endpoint array size mismatch");
  for j = 0 to m - 1 do
    let l = left.(j) and r = right.(j) in
    if l < 0 || l >= n || r < 0 || r >= n then
      invalid_arg (who ^ ": interaction endpoint out of range")
  done

let check_endpoints_cached st ~who =
  if st.endpoints_ok then Kernel.endpoint_scan_skipped ()
  else begin
    check_endpoints ~who ~n:st.n ~m:st.m st.left st.right;
    st.endpoints_ok <- true
  end

(* Unsafe loop bodies, shared by the serial and parallel tiled
   executors; sound only after [check_fits] and the endpoint scan. *)
let[@inline] update_i nd i =
  let b = 9 * i in
  Array.unsafe_set nd b
    (Array.unsafe_get nd b
    +. (dt *. (Array.unsafe_get nd (b + 3) +. Array.unsafe_get nd (b + 6))));
  Array.unsafe_set nd (b + 1)
    (Array.unsafe_get nd (b + 1)
    +. (dt *. (Array.unsafe_get nd (b + 4) +. Array.unsafe_get nd (b + 7))));
  Array.unsafe_set nd (b + 2)
    (Array.unsafe_get nd (b + 2)
    +. (dt *. (Array.unsafe_get nd (b + 5) +. Array.unsafe_get nd (b + 8))))

let[@inline] force_j nd left right j =
  let l = 9 * Array.unsafe_get left j and r = 9 * Array.unsafe_get right j in
  let dx = Array.unsafe_get nd l -. Array.unsafe_get nd r in
  let dy = Array.unsafe_get nd (l + 1) -. Array.unsafe_get nd (r + 1) in
  let dz = Array.unsafe_get nd (l + 2) -. Array.unsafe_get nd (r + 2) in
  let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) +. 1.0 in
  let g = 1.0 /. r2 in
  Array.unsafe_set nd (l + 6) (Array.unsafe_get nd (l + 6) +. (g *. dx));
  Array.unsafe_set nd (r + 6) (Array.unsafe_get nd (r + 6) -. (g *. dx));
  Array.unsafe_set nd (l + 7) (Array.unsafe_get nd (l + 7) +. (g *. dy));
  Array.unsafe_set nd (r + 7) (Array.unsafe_get nd (r + 7) -. (g *. dy));
  Array.unsafe_set nd (l + 8) (Array.unsafe_get nd (l + 8) +. (g *. dz));
  Array.unsafe_set nd (r + 8) (Array.unsafe_get nd (r + 8) -. (g *. dz))

let[@inline] update_k nd k =
  let b = 9 * k in
  Array.unsafe_set nd (b + 3)
    (Array.unsafe_get nd (b + 3) +. (dt *. Array.unsafe_get nd (b + 6)));
  Array.unsafe_set nd (b + 4)
    (Array.unsafe_get nd (b + 4) +. (dt *. Array.unsafe_get nd (b + 7)));
  Array.unsafe_set nd (b + 5)
    (Array.unsafe_get nd (b + 5) +. (dt *. Array.unsafe_get nd (b + 8)))

let run_tiled_st st (sched : Reorder.Schedule.t) ~steps =
  if not (Reorder.Schedule.check_fits sched ~loop_sizes:[| st.n; st.m; st.n |])
  then invalid_arg "Moldyn.run_tiled: schedule does not fit the kernel";
  check_endpoints_cached st ~who:"Moldyn.run_tiled";
  let nd = st.nodes in
  let left = st.left and right = st.right in
  let n_tiles = Reorder.Schedule.n_tiles sched in
  let n_chain = Reorder.Schedule.n_loops sched in
  let rp = Reorder.Schedule.row_ptr sched in
  let fl = Reorder.Schedule.flat_items sched in
  for _s = 1 to steps do
    for t = 0 to n_tiles - 1 do
      for c = 0 to n_chain - 1 do
        let r = (t * n_chain) + c in
        let lo = Array.unsafe_get rp r and hi = Array.unsafe_get rp (r + 1) in
        match c mod 3 with
        | 0 ->
          for idx = lo to hi - 1 do
            update_i nd (Array.unsafe_get fl idx)
          done
        | 1 ->
          for idx = lo to hi - 1 do
            force_j nd left right (Array.unsafe_get fl idx)
          done
        | _ ->
          for idx = lo to hi - 1 do
            update_k nd (Array.unsafe_get fl idx)
          done
      done
    done
  done

(* Parallel tiled executor: chain positions with c mod 3 = 1 are the
   pairwise-force reductions. [stash] computes each interaction's
   contribution g*dx (etc.) into per-interaction scratch — a pure
   function of x/y/z, which are read-only during the position — and
   [apply] folds the contributions into fx/fy/fz per datum in the
   serial order, so the result is bitwise the serial executor's. *)
let plan_par_st st ~pool sched ~level_of =
  if not (Reorder.Schedule.check_fits sched ~loop_sizes:[| st.n; st.m; st.n |])
  then invalid_arg "Moldyn.plan_par: schedule does not fit the kernel";
  check_endpoints_cached st ~who:"Moldyn.plan_par";
  let nd = st.nodes in
  let left = st.left and right = st.right in
  let gx = Array.make st.m 0.0 in
  let gy = Array.make st.m 0.0 in
  let gz = Array.make st.m 0.0 in
  let exec =
    Rtrt_par.Exec.make ~pool ~sched ~level_of
      ~is_reduction:(fun c -> c mod 3 = 1)
      ~left ~right ~n_data:st.n
  in
  let body ~pos items lo hi =
    match pos mod 3 with
    | 0 ->
      for idx = lo to hi - 1 do
        update_i nd (Array.unsafe_get items idx)
      done
    | 1 ->
      for idx = lo to hi - 1 do
        force_j nd left right (Array.unsafe_get items idx)
      done
    | _ ->
      for idx = lo to hi - 1 do
        update_k nd (Array.unsafe_get items idx)
      done
  in
  let stash ~pos:_ items lo hi =
    for idx = lo to hi - 1 do
      let j = Array.unsafe_get items idx in
      let l = 9 * Array.unsafe_get left j and r = 9 * Array.unsafe_get right j in
      let dx = Array.unsafe_get nd l -. Array.unsafe_get nd r in
      let dy = Array.unsafe_get nd (l + 1) -. Array.unsafe_get nd (r + 1) in
      let dz = Array.unsafe_get nd (l + 2) -. Array.unsafe_get nd (r + 2) in
      let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) +. 1.0 in
      let g = 1.0 /. r2 in
      Array.unsafe_set gx j (g *. dx);
      Array.unsafe_set gy j (g *. dy);
      Array.unsafe_set gz j (g *. dz)
    done
  in
  let apply ~pos:_ ~datum refs lo hi =
    let f = (9 * datum) + 6 in
    for k = lo to hi - 1 do
      let rv = refs.(k) in
      let j = rv lsr 1 in
      if rv land 1 = 0 then begin
        nd.(f) <- nd.(f) +. gx.(j);
        nd.(f + 1) <- nd.(f + 1) +. gy.(j);
        nd.(f + 2) <- nd.(f + 2) +. gz.(j)
      end
      else begin
        nd.(f) <- nd.(f) -. gx.(j);
        nd.(f + 1) <- nd.(f + 1) -. gy.(j);
        nd.(f + 2) <- nd.(f + 2) -. gz.(j)
      end
    done
  in
  {
    Kernel.par_sched = Rtrt_par.Exec.schedule exec;
    par_run =
      (fun ?batch ?tier ?profile ~steps () ->
        Rtrt_par.Exec.run ?batch ?tier ?profile exec ~steps ~body ~stash
          ~apply);
    par_decide =
      (fun ~serial_ns_per_step ~batch ->
        Rtrt_par.Exec.decide exec ~serial_ns_per_step ~batch);
  }

(* Traced executors: the reference stream is data-independent given the
   index arrays, so no arithmetic is performed. One touch per distinct
   array-element reference in the loop body. *)
let trace_i ~touch i =
  touch 0 i; touch 1 i; touch 2 i;     (* x y z *)
  touch 3 i; touch 4 i; touch 5 i;     (* vx vy vz *)
  touch 6 i; touch 7 i; touch 8 i      (* fx fy fz *)

let trace_j ~touch ~touch_inter left right j =
  touch_inter 0 j;
  touch_inter 1 j;
  let l = left.(j) and r = right.(j) in
  touch 0 l; touch 1 l; touch 2 l;
  touch 0 r; touch 1 r; touch 2 r;
  touch 6 l; touch 7 l; touch 8 l;
  touch 6 r; touch 7 r; touch 8 r

let trace_k ~touch k =
  touch 3 k; touch 4 k; touch 5 k;
  touch 6 k; touch 7 k; touch 8 k

let make_touch ~layout ~access names =
  let addr =
    Array.of_list (List.map (Cachesim.Layout.addresser layout) names)
  in
  fun a i -> access (addr.(a) i)

let run_traced_st st ~steps ~layout ~access =
  let touch = make_touch ~layout ~access node_array_names in
  let touch_inter = make_touch ~layout ~access inter_array_names in
  for _s = 1 to steps do
    for i = 0 to st.n - 1 do
      trace_i ~touch i
    done;
    for j = 0 to st.m - 1 do
      trace_j ~touch ~touch_inter st.left st.right j
    done;
    for k = 0 to st.n - 1 do
      trace_k ~touch k
    done
  done

(* Traced twin of [run_tiled_st]: walks the same flat rows but keeps
   every access bounds-checked — the non-unsafe twin path. *)
let run_tiled_traced_st st sched ~steps ~layout ~access =
  let touch = make_touch ~layout ~access node_array_names in
  let touch_inter = make_touch ~layout ~access inter_array_names in
  let n_tiles = Reorder.Schedule.n_tiles sched in
  let n_chain = Reorder.Schedule.n_loops sched in
  let rp = Reorder.Schedule.row_ptr sched in
  let fl = Reorder.Schedule.flat_items sched in
  for _s = 1 to steps do
    for t = 0 to n_tiles - 1 do
      for c = 0 to n_chain - 1 do
        let r = (t * n_chain) + c in
        let lo = rp.(r) and hi = rp.(r + 1) in
        match c mod 3 with
        | 0 -> for i = lo to hi - 1 do trace_i ~touch fl.(i) done
        | 1 ->
          for i = lo to hi - 1 do
            trace_j ~touch ~touch_inter st.left st.right fl.(i)
          done
        | _ -> for i = lo to hi - 1 do trace_k ~touch fl.(i) done
      done
    done
  done

let rec make ~access st =
  (* The chain's two dependence sets are symmetric (both constrained by
     left/right, Section 6): conn.(1) is the transpose that backward
     growth of loop 0 also needs. *)
  let chain_of_access acc =
    Reorder.Sparse_tile.make_chain
      ~loop_sizes:[| st.n; st.m; st.n |]
      ~conn:[| acc; Reorder.Access.transpose acc |]
  in
  let relabel ?sigma ?delta () =
    let left, right, access =
      Kernel.relabel_pairs ~n_data:st.n ?sigma ?delta st.left st.right
    in
    make ~access
      {
        st with
        endpoints_ok = false;
        left;
        right;
        nodes = Kernel.scatter_group ~fields sigma st.nodes;
      }
  in
  {
    Kernel.name = "moldyn";
    n_nodes = st.n;
    n_inter = st.m;
    node_array_names;
    inter_array_names;
    access;
    loop_sizes = [| st.n; st.m; st.n |];
    seed_loop = 1;
    chain_of_access;
    wrap_conn_of_access = (fun _acc -> Reorder.Access.identity st.n);
    symmetric_backward = [ (0, 1) ];
    relabel;
    run = (fun ~steps -> run_plain st ~steps);
    run_tiled = (fun sched ~steps -> run_tiled_st st sched ~steps);
    exec_arrays = (fun () -> ([| st.left; st.right |], [| st.nodes |]));
    run_traced =
      (fun ~steps ~layout ~access -> run_traced_st st ~steps ~layout ~access);
    run_tiled_traced =
      (fun sched ~steps ~layout ~access ->
        run_tiled_traced_st st sched ~steps ~layout ~access);
    plan_par =
      (fun ~pool sched ~level_of -> plan_par_st st ~pool sched ~level_of);
    snapshot =
      (fun () -> Kernel.ungroup ~names:node_array_names st.nodes);
    copy = (fun () -> relabel ());
  }

(* Deterministic initial conditions derived from node ids, so two runs
   on permuted data remain comparable after un-permuting. *)
let init_value ~salt i =
  let h = ((i + 1) * 2654435761) land 0xFFFFFF in
  float_of_int ((h lxor salt) land 0xFFFF) /. 65536.0

let of_dataset (d : Datagen.Dataset.t) =
  let n = d.Datagen.Dataset.n_nodes in
  let m = Datagen.Dataset.n_interactions d in
  let left = d.Datagen.Dataset.left and right = d.Datagen.Dataset.right in
  (* Forces start at zero. *)
  let nodes = Array.make (fields * n) 0.0 in
  for i = 0 to n - 1 do
    let b = fields * i in
    nodes.(b) <- init_value ~salt:1 i;
    nodes.(b + 1) <- init_value ~salt:2 i;
    nodes.(b + 2) <- init_value ~salt:3 i;
    nodes.(b + 3) <- init_value ~salt:4 i;
    nodes.(b + 4) <- init_value ~salt:5 i;
    nodes.(b + 5) <- init_value ~salt:6 i
  done;
  make ~access:(Reorder.Access.of_pairs ~n_data:n left right)
    {
      n;
      m;
      left = Array.copy left;
      right = Array.copy right;
      nodes;
      endpoints_ok = false;
    }
