(* The irreg benchmark (irregular CFD-style edge/node kernel from the
   Han-Tseng suite): only 2 node fields (16 bytes per node) and a
   per-edge weight array, so spatial reordering has the most room to
   help (many nodes per cache line).

   The node fields are regrouped as [Kernel.layout] models them: node
   i's pair x y sits at [nodes.(2i)], [nodes.(2i + 1)]; the weights
   stay a separate per-edge array.

   Loop chain per time step:
     loop 0 (j): edge flux    y[l] += w*(x[l]-x[r]); y[r] += w*(x[r]-x[l])
     loop 1 (k): node update  x[k] += c * y[k] *)

type state = {
  n : int;
  m : int;
  left : int array;
  right : int array;
  w : float array; (* per-edge weights: follow iteration reorderings *)
  nodes : float array; (* 2 * n, regrouped *)
  (* Endpoint-scan memo: one successful scan validates every later
     executor run on this state (index arrays are replaced, never
     mutated in place, by transformations). *)
  mutable endpoints_ok : bool;
}

let relax = 0.001

let node_array_names = [ "x"; "y" ]
let inter_array_names = [ "left"; "right"; "w" ]
let fields = 2

let flux_j st j =
  let nd = st.nodes in
  let l = 2 * st.left.(j) and r = 2 * st.right.(j) in
  let d = st.w.(j) *. (nd.(l) -. nd.(r)) in
  nd.(l + 1) <- nd.(l + 1) +. d;
  nd.(r + 1) <- nd.(r + 1) -. d

let update_k st k =
  let nd = st.nodes and b = 2 * k in
  nd.(b) <- nd.(b) +. (relax *. nd.(b + 1))

let run_plain st ~steps =
  for _s = 1 to steps do
    for j = 0 to st.m - 1 do
      flux_j st j
    done;
    for k = 0 to st.n - 1 do
      update_k st k
    done
  done

let check_endpoints ~who st =
  if Array.length st.w <> st.m then
    invalid_arg (who ^ ": weight array size mismatch");
  for j = 0 to st.m - 1 do
    let l = st.left.(j) and r = st.right.(j) in
    if l < 0 || l >= st.n || r < 0 || r >= st.n then
      invalid_arg (who ^ ": interaction endpoint out of range")
  done

let check_endpoints_cached st ~who =
  if st.endpoints_ok then Kernel.endpoint_scan_skipped ()
  else begin
    check_endpoints ~who st;
    st.endpoints_ok <- true
  end

(* Unsafe twins of the loop bodies, sound only after [check_fits] and
   the endpoint scan have validated every index source (node ids in
   [0, n), so [2 * id + f] in [0, 2n)). *)
let[@inline] flux_j_u nd w left right j =
  let l = 2 * Array.unsafe_get left j and r = 2 * Array.unsafe_get right j in
  let d =
    Array.unsafe_get w j *. (Array.unsafe_get nd l -. Array.unsafe_get nd r)
  in
  Array.unsafe_set nd (l + 1) (Array.unsafe_get nd (l + 1) +. d);
  Array.unsafe_set nd (r + 1) (Array.unsafe_get nd (r + 1) -. d)

let[@inline] update_k_u nd k =
  let b = 2 * k in
  Array.unsafe_set nd b
    (Array.unsafe_get nd b +. (relax *. Array.unsafe_get nd (b + 1)))

(* Chain position c executes loop (c mod 2): a 2-loop schedule is one
   time step, a 2S-loop schedule is S time steps (time-step tiling).
   Validated-once-then-unsafe: [check_fits] + the endpoint scan, then
   the flat schedule streams with [Array.unsafe_get]. *)
let run_tiled_st st (sched : Reorder.Schedule.t) ~steps =
  if not (Reorder.Schedule.check_fits sched ~loop_sizes:[| st.m; st.n |]) then
    invalid_arg "Irreg.run_tiled: schedule does not fit the kernel";
  check_endpoints_cached st ~who:"Irreg.run_tiled";
  let nd = st.nodes and w = st.w and left = st.left and right = st.right in
  let n_tiles = Reorder.Schedule.n_tiles sched in
  let n_chain = Reorder.Schedule.n_loops sched in
  let rp = Reorder.Schedule.row_ptr sched in
  let fl = Reorder.Schedule.flat_items sched in
  for _s = 1 to steps do
    for t = 0 to n_tiles - 1 do
      for c = 0 to n_chain - 1 do
        let r = (t * n_chain) + c in
        let lo = Array.unsafe_get rp r and hi = Array.unsafe_get rp (r + 1) in
        if c mod 2 = 0 then
          for idx = lo to hi - 1 do
            flux_j_u nd w left right (Array.unsafe_get fl idx)
          done
        else
          for idx = lo to hi - 1 do
            update_k_u nd (Array.unsafe_get fl idx)
          done
      done
    done
  done

(* Parallel tiled executor: the flux positions (c mod 2 = 0) are
   reductions over y. The stashed flux w*(x[l]-x[r]) is a pure
   function of w and x, read-only during the position, so the ordered
   apply reproduces the serial float operations bit for bit. *)
let plan_par_st st ~pool sched ~level_of =
  if not (Reorder.Schedule.check_fits sched ~loop_sizes:[| st.m; st.n |]) then
    invalid_arg "Irreg.plan_par: schedule does not fit the kernel";
  check_endpoints_cached st ~who:"Irreg.plan_par";
  let nd = st.nodes and w = st.w and left = st.left and right = st.right in
  let dj = Array.make st.m 0.0 in
  let exec =
    Rtrt_par.Exec.make ~pool ~sched ~level_of
      ~is_reduction:(fun c -> c mod 2 = 0)
      ~left ~right ~n_data:st.n
  in
  let body ~pos items lo hi =
    if pos mod 2 = 0 then
      for idx = lo to hi - 1 do
        flux_j_u nd w left right (Array.unsafe_get items idx)
      done
    else
      for idx = lo to hi - 1 do
        update_k_u nd (Array.unsafe_get items idx)
      done
  in
  let stash ~pos:_ items lo hi =
    for idx = lo to hi - 1 do
      let j = Array.unsafe_get items idx in
      let l = 2 * Array.unsafe_get left j and r = 2 * Array.unsafe_get right j in
      Array.unsafe_set dj j
        (Array.unsafe_get w j *. (Array.unsafe_get nd l -. Array.unsafe_get nd r))
    done
  in
  let apply ~pos:_ ~datum refs lo hi =
    let y = (2 * datum) + 1 in
    for k = lo to hi - 1 do
      let rv = refs.(k) in
      let j = rv lsr 1 in
      if rv land 1 = 0 then nd.(y) <- nd.(y) +. dj.(j)
      else nd.(y) <- nd.(y) -. dj.(j)
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

let trace_j ~touch ~touch_inter left right j =
  touch_inter 0 j;
  touch_inter 1 j;
  touch_inter 2 j;
  let l = left.(j) and r = right.(j) in
  touch 0 l; touch 0 r;
  touch 1 l; touch 1 r

let trace_k ~touch k =
  touch 0 k;
  touch 1 k

let make_touch ~layout ~access names =
  let addr = Array.of_list (List.map (Cachesim.Layout.addresser layout) names) in
  fun a i -> access (addr.(a) i)

let run_traced_st st ~steps ~layout ~access =
  let touch = make_touch ~layout ~access node_array_names in
  let touch_inter = make_touch ~layout ~access inter_array_names in
  for _s = 1 to steps do
    for j = 0 to st.m - 1 do
      trace_j ~touch ~touch_inter st.left st.right j
    done;
    for k = 0 to st.n - 1 do
      trace_k ~touch k
    done
  done

(* Traced twin: same flat walk, every access bounds-checked. *)
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
        if c mod 2 = 0 then
          for i = lo to hi - 1 do
            trace_j ~touch ~touch_inter st.left st.right fl.(i)
          done
        else for i = lo to hi - 1 do trace_k ~touch fl.(i) done
      done
    done
  done

let rec make ~access st =
  (* Chain [j; k]: k-iterations depend on the j-iterations touching
     their node, i.e. the transpose of the j access. *)
  let chain_of_access acc =
    Reorder.Sparse_tile.make_chain
      ~loop_sizes:[| st.m; st.n |]
      ~conn:[| Reorder.Access.transpose acc |]
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
        w = Kernel.scatter delta st.w;
        nodes = Kernel.scatter_group ~fields sigma st.nodes;
      }
  in
  {
    Kernel.name = "irreg";
    n_nodes = st.n;
    n_inter = st.m;
    node_array_names;
    inter_array_names;
    access;
    loop_sizes = [| st.m; st.n |];
    seed_loop = 0;
    chain_of_access;
    wrap_conn_of_access = (fun acc -> acc);
    symmetric_backward = [];
    relabel;
    run = (fun ~steps -> run_plain st ~steps);
    run_tiled = (fun sched ~steps -> run_tiled_st st sched ~steps);
    exec_arrays =
      (fun () -> ([| st.left; st.right |], [| st.w; st.nodes |]));
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

let init_value ~salt i =
  let h = ((i + 1) * 2654435761) land 0xFFFFFF in
  float_of_int ((h lxor salt) land 0xFFFF) /. 65536.0

let of_dataset (d : Datagen.Dataset.t) =
  let n = d.Datagen.Dataset.n_nodes in
  let m = Datagen.Dataset.n_interactions d in
  let left = d.Datagen.Dataset.left and right = d.Datagen.Dataset.right in
  (* y starts at zero. *)
  let nodes = Array.make (fields * n) 0.0 in
  for i = 0 to n - 1 do
    nodes.(fields * i) <- init_value ~salt:22 i
  done;
  make ~access:(Reorder.Access.of_pairs ~n_data:n left right)
    {
      n;
      m;
      left = Array.copy left;
      right = Array.copy right;
      w = Array.init m (init_value ~salt:21);
      nodes;
      endpoints_ok = false;
    }
