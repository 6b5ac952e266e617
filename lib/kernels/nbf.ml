(* The nbf benchmark (non-bonded force kernel, CHARMM-style, from the
   Han-Tseng suite): 6 node arrays (48 bytes per node) and a heavier
   Lennard-Jones-like force expression than moldyn's.

   Loop chain per time step:
     loop 0 (i): position integration  x += c * fx   (writes x, reads fx)
     loop 1 (j): pairwise LJ forces    fx[l] += g, fx[r] -= g *)

type state = {
  n : int;
  m : int;
  left : int array;
  right : int array;
  x : float array;
  y : float array;
  z : float array;
  fx : float array;
  fy : float array;
  fz : float array;
  (* Endpoint-scan memo: one successful scan validates every later
     executor run on this state (left/right are replaced, never
     mutated in place, by transformations). *)
  mutable endpoints_ok : bool;
}

let dt = 0.0001

let node_array_names = [ "x"; "y"; "z"; "fx"; "fy"; "fz" ]
let inter_array_names = [ "left"; "right" ]

let force_j st j =
  let l = st.left.(j) and r = st.right.(j) in
  let dx = st.x.(l) -. st.x.(r) in
  let dy = st.y.(l) -. st.y.(r) in
  let dz = st.z.(l) -. st.z.(r) in
  let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) +. 1.0 in
  let ir2 = 1.0 /. r2 in
  let ir6 = ir2 *. ir2 *. ir2 in
  (* Lennard-Jones 12-6 shape. *)
  let g = ((2.0 *. ir6 *. ir6) -. ir6) *. ir2 in
  st.fx.(l) <- st.fx.(l) +. (g *. dx);
  st.fx.(r) <- st.fx.(r) -. (g *. dx);
  st.fy.(l) <- st.fy.(l) +. (g *. dy);
  st.fy.(r) <- st.fy.(r) -. (g *. dy);
  st.fz.(l) <- st.fz.(l) +. (g *. dz);
  st.fz.(r) <- st.fz.(r) -. (g *. dz)

let update_i st i =
  st.x.(i) <- st.x.(i) +. (dt *. st.fx.(i));
  st.y.(i) <- st.y.(i) +. (dt *. st.fy.(i));
  st.z.(i) <- st.z.(i) +. (dt *. st.fz.(i))

let run_plain st ~steps =
  for _s = 1 to steps do
    for i = 0 to st.n - 1 do
      update_i st i
    done;
    for j = 0 to st.m - 1 do
      force_j st j
    done
  done

let check_endpoints ~who st =
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
let update_i_u st i =
  Array.unsafe_set st.x i
    (Array.unsafe_get st.x i +. (dt *. Array.unsafe_get st.fx i));
  Array.unsafe_set st.y i
    (Array.unsafe_get st.y i +. (dt *. Array.unsafe_get st.fy i));
  Array.unsafe_set st.z i
    (Array.unsafe_get st.z i +. (dt *. Array.unsafe_get st.fz i))

let force_j_u st j =
  let l = Array.unsafe_get st.left j and r = Array.unsafe_get st.right j in
  let dx = Array.unsafe_get st.x l -. Array.unsafe_get st.x r in
  let dy = Array.unsafe_get st.y l -. Array.unsafe_get st.y r in
  let dz = Array.unsafe_get st.z l -. Array.unsafe_get st.z r in
  let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) +. 1.0 in
  let ir2 = 1.0 /. r2 in
  let ir6 = ir2 *. ir2 *. ir2 in
  let g = ((2.0 *. ir6 *. ir6) -. ir6) *. ir2 in
  Array.unsafe_set st.fx l (Array.unsafe_get st.fx l +. (g *. dx));
  Array.unsafe_set st.fx r (Array.unsafe_get st.fx r -. (g *. dx));
  Array.unsafe_set st.fy l (Array.unsafe_get st.fy l +. (g *. dy));
  Array.unsafe_set st.fy r (Array.unsafe_get st.fy r -. (g *. dy));
  Array.unsafe_set st.fz l (Array.unsafe_get st.fz l +. (g *. dz));
  Array.unsafe_set st.fz r (Array.unsafe_get st.fz r -. (g *. dz))

(* Chain position c executes loop (c mod 2): a 2-loop schedule is one
   time step, a 2S-loop schedule is S time steps (time-step tiling).
   Validated-once-then-unsafe: [check_fits] + the endpoint scan, then
   the flat schedule streams with [Array.unsafe_get]. *)
let run_tiled_st st (sched : Reorder.Schedule.t) ~steps =
  if not (Reorder.Schedule.check_fits sched ~loop_sizes:[| st.n; st.m |]) then
    invalid_arg "Nbf.run_tiled: schedule does not fit the kernel";
  check_endpoints_cached st ~who:"Nbf.run_tiled";
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
            update_i_u st (Array.unsafe_get fl idx)
          done
        else
          for idx = lo to hi - 1 do
            force_j_u st (Array.unsafe_get fl idx)
          done
      done
    done
  done

(* Parallel tiled executor: the force positions (c mod 2 = 1) are
   reductions over fx/fy/fz. The stashed contribution g*dx is a pure
   function of x/y/z, read-only during the position, so the ordered
   apply reproduces the serial float operations bit for bit. *)
let plan_par_st st ~pool sched ~level_of =
  if not (Reorder.Schedule.check_fits sched ~loop_sizes:[| st.n; st.m |]) then
    invalid_arg "Nbf.plan_par: schedule does not fit the kernel";
  check_endpoints_cached st ~who:"Nbf.plan_par";
  let gx = Array.make st.m 0.0 in
  let gy = Array.make st.m 0.0 in
  let gz = Array.make st.m 0.0 in
  let exec =
    Rtrt_par.Exec.make ~pool ~sched ~level_of
      ~is_reduction:(fun c -> c mod 2 = 1)
      ~left:st.left ~right:st.right ~n_data:st.n
  in
  let body ~pos items lo hi =
    if pos mod 2 = 0 then
      for idx = lo to hi - 1 do
        update_i_u st (Array.unsafe_get items idx)
      done
    else
      for idx = lo to hi - 1 do
        force_j_u st (Array.unsafe_get items idx)
      done
  in
  let stash ~pos:_ items lo hi =
    for idx = lo to hi - 1 do
      let j = Array.unsafe_get items idx in
      let l = Array.unsafe_get st.left j and r = Array.unsafe_get st.right j in
      let dx = Array.unsafe_get st.x l -. Array.unsafe_get st.x r in
      let dy = Array.unsafe_get st.y l -. Array.unsafe_get st.y r in
      let dz = Array.unsafe_get st.z l -. Array.unsafe_get st.z r in
      let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) +. 1.0 in
      let ir2 = 1.0 /. r2 in
      let ir6 = ir2 *. ir2 *. ir2 in
      let g = ((2.0 *. ir6 *. ir6) -. ir6) *. ir2 in
      Array.unsafe_set gx j (g *. dx);
      Array.unsafe_set gy j (g *. dy);
      Array.unsafe_set gz j (g *. dz)
    done
  in
  let apply ~pos:_ ~datum refs lo hi =
    let fx = st.fx and fy = st.fy and fz = st.fz in
    for k = lo to hi - 1 do
      let rv = refs.(k) in
      let j = rv lsr 1 in
      if rv land 1 = 0 then begin
        fx.(datum) <- fx.(datum) +. gx.(j);
        fy.(datum) <- fy.(datum) +. gy.(j);
        fz.(datum) <- fz.(datum) +. gz.(j)
      end
      else begin
        fx.(datum) <- fx.(datum) -. gx.(j);
        fy.(datum) <- fy.(datum) -. gy.(j);
        fz.(datum) <- fz.(datum) -. gz.(j)
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

let trace_i ~touch i =
  touch 0 i; touch 1 i; touch 2 i;
  touch 3 i; touch 4 i; touch 5 i

let trace_j ~touch ~touch_inter left right j =
  touch_inter 0 j;
  touch_inter 1 j;
  let l = left.(j) and r = right.(j) in
  touch 0 l; touch 1 l; touch 2 l;
  touch 0 r; touch 1 r; touch 2 r;
  touch 3 l; touch 4 l; touch 5 l;
  touch 3 r; touch 4 r; touch 5 r

let make_touch ~layout ~access names =
  let addr = Array.of_list (List.map (Cachesim.Layout.addresser layout) names) in
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
          for i = lo to hi - 1 do trace_i ~touch fl.(i) done
        else
          for i = lo to hi - 1 do
            trace_j ~touch ~touch_inter st.left st.right fl.(i)
          done
      done
    done
  done

let rec make ~access st =
  let chain_of_access acc =
    Reorder.Sparse_tile.make_chain ~loop_sizes:[| st.n; st.m |] ~conn:[| acc |]
  in
  let relabel ?sigma ?delta () =
    let left, right, access =
      Kernel.relabel_pairs ~n_data:st.n ?sigma ?delta st.left st.right
    in
    let node = Kernel.scatter sigma in
    make ~access
      {
        st with
        endpoints_ok = false;
        left;
        right;
        x = node st.x;
        y = node st.y;
        z = node st.z;
        fx = node st.fx;
        fy = node st.fy;
        fz = node st.fz;
      }
  in
  {
    Kernel.name = "nbf";
    n_nodes = st.n;
    n_inter = st.m;
    node_array_names;
    inter_array_names;
    access;
    loop_sizes = [| st.n; st.m |];
    seed_loop = 1;
    chain_of_access;
    wrap_conn_of_access = Reorder.Access.transpose;
    symmetric_backward = [];
    relabel;
    run = (fun ~steps -> run_plain st ~steps);
    run_tiled = (fun sched ~steps -> run_tiled_st st sched ~steps);
    exec_arrays =
      (fun () ->
        ( [| st.left; st.right |],
          [| st.x; st.y; st.z; st.fx; st.fy; st.fz |] ));
    run_traced =
      (fun ~steps ~layout ~access -> run_traced_st st ~steps ~layout ~access);
    run_tiled_traced =
      (fun sched ~steps ~layout ~access ->
        run_tiled_traced_st st sched ~steps ~layout ~access);
    plan_par =
      (fun ~pool sched ~level_of -> plan_par_st st ~pool sched ~level_of);
    snapshot =
      (fun () ->
        [
          ("x", Array.copy st.x);
          ("y", Array.copy st.y);
          ("z", Array.copy st.z);
          ("fx", Array.copy st.fx);
          ("fy", Array.copy st.fy);
          ("fz", Array.copy st.fz);
        ]);
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
      x = Array.init n (init_value ~salt:11);
      y = Array.init n (init_value ~salt:12);
      z = Array.init n (init_value ~salt:13);
      fx = Array.make n 0.0;
      fy = Array.make n 0.0;
      fz = Array.make n 0.0;
      endpoints_ok = false;
    }
