(* The nbf benchmark (non-bonded force kernel, CHARMM-style, from the
   Han-Tseng suite): 6 node fields (48 bytes per node) and a heavier
   Lennard-Jones-like force expression than moldyn's.

   The fields are regrouped as [Kernel.layout] models them: node i's
   record x y z fx fy fz sits at [nodes.(6i) .. nodes.(6i + 5)].

   Loop chain per time step:
     loop 0 (i): position integration  x += c * fx   (writes x, reads fx)
     loop 1 (j): pairwise LJ forces    fx[l] += g, fx[r] -= g *)

type state = {
  n : int;
  m : int;
  left : int array;
  right : int array;
  nodes : float array; (* 6 * n, regrouped *)
  (* Endpoint-scan memo: one successful scan validates every later
     executor run on this state (left/right are replaced, never
     mutated in place, by transformations). *)
  mutable endpoints_ok : bool;
}

let dt = 0.0001

let node_array_names = [ "x"; "y"; "z"; "fx"; "fy"; "fz" ]
let inter_array_names = [ "left"; "right" ]
let fields = 6

let force_j st j =
  let nd = st.nodes in
  let l = 6 * st.left.(j) and r = 6 * st.right.(j) in
  let dx = nd.(l) -. nd.(r) in
  let dy = nd.(l + 1) -. nd.(r + 1) in
  let dz = nd.(l + 2) -. nd.(r + 2) in
  let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) +. 1.0 in
  let ir2 = 1.0 /. r2 in
  let ir6 = ir2 *. ir2 *. ir2 in
  (* Lennard-Jones 12-6 shape. *)
  let g = ((2.0 *. ir6 *. ir6) -. ir6) *. ir2 in
  nd.(l + 3) <- nd.(l + 3) +. (g *. dx);
  nd.(r + 3) <- nd.(r + 3) -. (g *. dx);
  nd.(l + 4) <- nd.(l + 4) +. (g *. dy);
  nd.(r + 4) <- nd.(r + 4) -. (g *. dy);
  nd.(l + 5) <- nd.(l + 5) +. (g *. dz);
  nd.(r + 5) <- nd.(r + 5) -. (g *. dz)

let update_i st i =
  let nd = st.nodes and b = 6 * i in
  nd.(b) <- nd.(b) +. (dt *. nd.(b + 3));
  nd.(b + 1) <- nd.(b + 1) +. (dt *. nd.(b + 4));
  nd.(b + 2) <- nd.(b + 2) +. (dt *. nd.(b + 5))

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
   the endpoint scan have validated every index source (node ids in
   [0, n), so [6 * id + f] in [0, 6n)). *)
let[@inline] update_i_u nd i =
  let b = 6 * i in
  Array.unsafe_set nd b
    (Array.unsafe_get nd b +. (dt *. Array.unsafe_get nd (b + 3)));
  Array.unsafe_set nd (b + 1)
    (Array.unsafe_get nd (b + 1) +. (dt *. Array.unsafe_get nd (b + 4)));
  Array.unsafe_set nd (b + 2)
    (Array.unsafe_get nd (b + 2) +. (dt *. Array.unsafe_get nd (b + 5)))

let[@inline] force_j_u nd left right j =
  let l = 6 * Array.unsafe_get left j and r = 6 * Array.unsafe_get right j in
  let dx = Array.unsafe_get nd l -. Array.unsafe_get nd r in
  let dy = Array.unsafe_get nd (l + 1) -. Array.unsafe_get nd (r + 1) in
  let dz = Array.unsafe_get nd (l + 2) -. Array.unsafe_get nd (r + 2) in
  let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) +. 1.0 in
  let ir2 = 1.0 /. r2 in
  let ir6 = ir2 *. ir2 *. ir2 in
  let g = ((2.0 *. ir6 *. ir6) -. ir6) *. ir2 in
  Array.unsafe_set nd (l + 3) (Array.unsafe_get nd (l + 3) +. (g *. dx));
  Array.unsafe_set nd (r + 3) (Array.unsafe_get nd (r + 3) -. (g *. dx));
  Array.unsafe_set nd (l + 4) (Array.unsafe_get nd (l + 4) +. (g *. dy));
  Array.unsafe_set nd (r + 4) (Array.unsafe_get nd (r + 4) -. (g *. dy));
  Array.unsafe_set nd (l + 5) (Array.unsafe_get nd (l + 5) +. (g *. dz));
  Array.unsafe_set nd (r + 5) (Array.unsafe_get nd (r + 5) -. (g *. dz))

(* Chain position c executes loop (c mod 2): a 2-loop schedule is one
   time step, a 2S-loop schedule is S time steps (time-step tiling).
   Validated-once-then-unsafe: [check_fits] + the endpoint scan, then
   the flat schedule streams with [Array.unsafe_get]. *)
let run_tiled_st st (sched : Reorder.Schedule.t) ~steps =
  if not (Reorder.Schedule.check_fits sched ~loop_sizes:[| st.n; st.m |]) then
    invalid_arg "Nbf.run_tiled: schedule does not fit the kernel";
  check_endpoints_cached st ~who:"Nbf.run_tiled";
  let nd = st.nodes and left = st.left and right = st.right in
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
            update_i_u nd (Array.unsafe_get fl idx)
          done
        else
          for idx = lo to hi - 1 do
            force_j_u nd left right (Array.unsafe_get fl idx)
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
  let nd = st.nodes and left = st.left and right = st.right in
  let gx = Array.make st.m 0.0 in
  let gy = Array.make st.m 0.0 in
  let gz = Array.make st.m 0.0 in
  let exec =
    Rtrt_par.Exec.make ~pool ~sched ~level_of
      ~is_reduction:(fun c -> c mod 2 = 1)
      ~left ~right ~n_data:st.n
  in
  let body ~pos items lo hi =
    if pos mod 2 = 0 then
      for idx = lo to hi - 1 do
        update_i_u nd (Array.unsafe_get items idx)
      done
    else
      for idx = lo to hi - 1 do
        force_j_u nd left right (Array.unsafe_get items idx)
      done
  in
  let stash ~pos:_ items lo hi =
    for idx = lo to hi - 1 do
      let j = Array.unsafe_get items idx in
      let l = 6 * Array.unsafe_get left j and r = 6 * Array.unsafe_get right j in
      let dx = Array.unsafe_get nd l -. Array.unsafe_get nd r in
      let dy = Array.unsafe_get nd (l + 1) -. Array.unsafe_get nd (r + 1) in
      let dz = Array.unsafe_get nd (l + 2) -. Array.unsafe_get nd (r + 2) in
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
    let f = (6 * datum) + 3 in
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
    nodes.(b) <- init_value ~salt:11 i;
    nodes.(b + 1) <- init_value ~salt:12 i;
    nodes.(b + 2) <- init_value ~salt:13 i
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
