(* The irreg benchmark (irregular CFD-style edge/node kernel from the
   Han-Tseng suite): only 2 node arrays (16 bytes per node) and a
   per-edge weight array, so spatial reordering has the most room to
   help (many nodes per cache line).

   Loop chain per time step:
     loop 0 (j): edge flux    y[l] += w*(x[l]-x[r]); y[r] += w*(x[r]-x[l])
     loop 1 (k): node update  x[k] += c * y[k] *)

type state = {
  n : int;
  m : int;
  left : int array;
  right : int array;
  w : float array; (* per-edge weights: follow iteration reorderings *)
  x : float array;
  y : float array;
  (* Endpoint-scan memo: one successful scan validates every later
     executor run on this state (index arrays are replaced, never
     mutated in place, by transformations). *)
  mutable endpoints_ok : bool;
}

let relax = 0.001

let node_array_names = [ "x"; "y" ]
let inter_array_names = [ "left"; "right"; "w" ]

let flux_j st j =
  let l = st.left.(j) and r = st.right.(j) in
  let d = st.w.(j) *. (st.x.(l) -. st.x.(r)) in
  st.y.(l) <- st.y.(l) +. d;
  st.y.(r) <- st.y.(r) -. d

let update_k st k =
  st.x.(k) <- st.x.(k) +. (relax *. st.y.(k))

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
   the endpoint scan have validated every index source. *)
let flux_j_u st j =
  let l = Array.unsafe_get st.left j and r = Array.unsafe_get st.right j in
  let d =
    Array.unsafe_get st.w j
    *. (Array.unsafe_get st.x l -. Array.unsafe_get st.x r)
  in
  Array.unsafe_set st.y l (Array.unsafe_get st.y l +. d);
  Array.unsafe_set st.y r (Array.unsafe_get st.y r -. d)

let update_k_u st k =
  Array.unsafe_set st.x k
    (Array.unsafe_get st.x k +. (relax *. Array.unsafe_get st.y k))

(* Chain position c executes loop (c mod 2): a 2-loop schedule is one
   time step, a 2S-loop schedule is S time steps (time-step tiling).
   Validated-once-then-unsafe: [check_fits] + the endpoint scan, then
   the flat schedule streams with [Array.unsafe_get]. *)
let run_tiled_st st (sched : Reorder.Schedule.t) ~steps =
  if not (Reorder.Schedule.check_fits sched ~loop_sizes:[| st.m; st.n |]) then
    invalid_arg "Irreg.run_tiled: schedule does not fit the kernel";
  check_endpoints_cached st ~who:"Irreg.run_tiled";
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
            flux_j_u st (Array.unsafe_get fl idx)
          done
        else
          for idx = lo to hi - 1 do
            update_k_u st (Array.unsafe_get fl idx)
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
  let dj = Array.make st.m 0.0 in
  let exec =
    Rtrt_par.Exec.make ~pool ~sched ~level_of
      ~is_reduction:(fun c -> c mod 2 = 0)
      ~left:st.left ~right:st.right ~n_data:st.n
  in
  let body ~pos items lo hi =
    if pos mod 2 = 0 then
      for idx = lo to hi - 1 do
        flux_j_u st (Array.unsafe_get items idx)
      done
    else
      for idx = lo to hi - 1 do
        update_k_u st (Array.unsafe_get items idx)
      done
  in
  let stash ~pos:_ items lo hi =
    for idx = lo to hi - 1 do
      let j = Array.unsafe_get items idx in
      let l = Array.unsafe_get st.left j and r = Array.unsafe_get st.right j in
      Array.unsafe_set dj j
        (Array.unsafe_get st.w j
        *. (Array.unsafe_get st.x l -. Array.unsafe_get st.x r))
    done
  in
  let apply ~pos:_ ~datum refs lo hi =
    let y = st.y in
    for k = lo to hi - 1 do
      let rv = refs.(k) in
      let j = rv lsr 1 in
      if rv land 1 = 0 then y.(datum) <- y.(datum) +. dj.(j)
      else y.(datum) <- y.(datum) -. dj.(j)
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
        x = Kernel.scatter sigma st.x;
        y = Kernel.scatter sigma st.y;
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
      (fun () -> ([| st.left; st.right |], [| st.w; st.x; st.y |]));
    run_traced =
      (fun ~steps ~layout ~access -> run_traced_st st ~steps ~layout ~access);
    run_tiled_traced =
      (fun sched ~steps ~layout ~access ->
        run_tiled_traced_st st sched ~steps ~layout ~access);
    plan_par =
      (fun ~pool sched ~level_of -> plan_par_st st ~pool sched ~level_of);
    snapshot =
      (fun () -> [ ("x", Array.copy st.x); ("y", Array.copy st.y) ]);
    copy = (fun () -> relabel ());
  }

let init_value ~salt i =
  let h = ((i + 1) * 2654435761) land 0xFFFFFF in
  float_of_int ((h lxor salt) land 0xFFFF) /. 65536.0

let of_dataset (d : Datagen.Dataset.t) =
  let n = d.Datagen.Dataset.n_nodes in
  let m = Datagen.Dataset.n_interactions d in
  let left = d.Datagen.Dataset.left and right = d.Datagen.Dataset.right in
  make ~access:(Reorder.Access.of_pairs ~n_data:n left right)
    {
      n;
      m;
      left = Array.copy left;
      right = Array.copy right;
      w = Array.init m (init_value ~salt:21);
      x = Array.init n (init_value ~salt:22);
      y = Array.make n 0.0;
      endpoints_ok = false;
    }
