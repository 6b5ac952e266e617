(* The moldyn benchmark (non-bonded force molecular dynamics, Figure 1
   of the paper generalized to 3-D): 9 node arrays of doubles — 72
   bytes per molecule, the figure the paper quotes when explaining why
   data reordering alone saturates on a 64-byte-line machine.

   Loop chain per time step:
     S1 (i loop): position update     x += vx + fx        (writes x)
     S2/S3 (j loop): pairwise forces  fx[l] += g, fx[r] -= g
     S4 (k loop): velocity update     vx += fx            (reads fx) *)

type state = {
  n : int;
  m : int;
  left : int array;
  right : int array;
  x : float array;
  y : float array;
  z : float array;
  vx : float array;
  vy : float array;
  vz : float array;
  fx : float array;
  fy : float array;
  fz : float array;
  (* Endpoint-scan memo: left/right are never mutated in place within
     one state (transformations build new states), so one successful
     scan validates every later executor run on this state. *)
  mutable endpoints_ok : bool;
}

let dt = 0.0001

let node_array_names = [ "x"; "y"; "z"; "vx"; "vy"; "vz"; "fx"; "fy"; "fz" ]
let inter_array_names = [ "left"; "right" ]

let run_plain st ~steps =
  let n = st.n and m = st.m in
  let x = st.x and y = st.y and z = st.z in
  let vx = st.vx and vy = st.vy and vz = st.vz in
  let fx = st.fx and fy = st.fy and fz = st.fz in
  let left = st.left and right = st.right in
  for _s = 1 to steps do
    for i = 0 to n - 1 do
      x.(i) <- x.(i) +. (dt *. (vx.(i) +. fx.(i)));
      y.(i) <- y.(i) +. (dt *. (vy.(i) +. fy.(i)));
      z.(i) <- z.(i) +. (dt *. (vz.(i) +. fz.(i)))
    done;
    for j = 0 to m - 1 do
      let l = left.(j) and r = right.(j) in
      let dx = x.(l) -. x.(r) in
      let dy = y.(l) -. y.(r) in
      let dz = z.(l) -. z.(r) in
      let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) +. 1.0 in
      let g = 1.0 /. r2 in
      fx.(l) <- fx.(l) +. (g *. dx);
      fx.(r) <- fx.(r) -. (g *. dx);
      fy.(l) <- fy.(l) +. (g *. dy);
      fy.(r) <- fy.(r) -. (g *. dy);
      fz.(l) <- fz.(l) +. (g *. dz);
      fz.(r) <- fz.(r) -. (g *. dz)
    done;
    for k = 0 to n - 1 do
      vx.(k) <- vx.(k) +. (dt *. fx.(k));
      vy.(k) <- vy.(k) +. (dt *. fy.(k));
      vz.(k) <- vz.(k) +. (dt *. fz.(k))
    done
  done

(* The tiled executor interprets a schedule whose loop count is any
   multiple of the 3-loop chain: chain position c executes the body of
   loop (c mod 3). A 3-loop schedule is the Figure 14 executor; a
   3S-loop schedule executes S whole time steps per [steps] (time-step
   sparse tiling across the outer loop).

   Validated-once-then-unsafe: [Schedule.check_fits] plus the
   endpoint-range scan below guarantee every index the loop bodies
   compute is in bounds, so the steady state streams the flat schedule
   and the data arrays with [Array.unsafe_get]/[unsafe_set]. *)

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

let run_tiled_st st (sched : Reorder.Schedule.t) ~steps =
  if not (Reorder.Schedule.check_fits sched ~loop_sizes:[| st.n; st.m; st.n |])
  then invalid_arg "Moldyn.run_tiled: schedule does not fit the kernel";
  check_endpoints_cached st ~who:"Moldyn.run_tiled";
  let x = st.x and y = st.y and z = st.z in
  let vx = st.vx and vy = st.vy and vz = st.vz in
  let fx = st.fx and fy = st.fy and fz = st.fz in
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
            let i = Array.unsafe_get fl idx in
            Array.unsafe_set x i
              (Array.unsafe_get x i
              +. (dt *. (Array.unsafe_get vx i +. Array.unsafe_get fx i)));
            Array.unsafe_set y i
              (Array.unsafe_get y i
              +. (dt *. (Array.unsafe_get vy i +. Array.unsafe_get fy i)));
            Array.unsafe_set z i
              (Array.unsafe_get z i
              +. (dt *. (Array.unsafe_get vz i +. Array.unsafe_get fz i)))
          done
        | 1 ->
          for idx = lo to hi - 1 do
            let j = Array.unsafe_get fl idx in
            let l = Array.unsafe_get left j and r = Array.unsafe_get right j in
            let dx = Array.unsafe_get x l -. Array.unsafe_get x r in
            let dy = Array.unsafe_get y l -. Array.unsafe_get y r in
            let dz = Array.unsafe_get z l -. Array.unsafe_get z r in
            let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) +. 1.0 in
            let g = 1.0 /. r2 in
            Array.unsafe_set fx l (Array.unsafe_get fx l +. (g *. dx));
            Array.unsafe_set fx r (Array.unsafe_get fx r -. (g *. dx));
            Array.unsafe_set fy l (Array.unsafe_get fy l +. (g *. dy));
            Array.unsafe_set fy r (Array.unsafe_get fy r -. (g *. dy));
            Array.unsafe_set fz l (Array.unsafe_get fz l +. (g *. dz));
            Array.unsafe_set fz r (Array.unsafe_get fz r -. (g *. dz))
          done
        | _ ->
          for idx = lo to hi - 1 do
            let k = Array.unsafe_get fl idx in
            Array.unsafe_set vx k
              (Array.unsafe_get vx k +. (dt *. Array.unsafe_get fx k));
            Array.unsafe_set vy k
              (Array.unsafe_get vy k +. (dt *. Array.unsafe_get fy k));
            Array.unsafe_set vz k
              (Array.unsafe_get vz k +. (dt *. Array.unsafe_get fz k))
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
  let x = st.x and y = st.y and z = st.z in
  let vx = st.vx and vy = st.vy and vz = st.vz in
  let fx = st.fx and fy = st.fy and fz = st.fz in
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
        let i = Array.unsafe_get items idx in
        Array.unsafe_set x i
          (Array.unsafe_get x i
          +. (dt *. (Array.unsafe_get vx i +. Array.unsafe_get fx i)));
        Array.unsafe_set y i
          (Array.unsafe_get y i
          +. (dt *. (Array.unsafe_get vy i +. Array.unsafe_get fy i)));
        Array.unsafe_set z i
          (Array.unsafe_get z i
          +. (dt *. (Array.unsafe_get vz i +. Array.unsafe_get fz i)))
      done
    | 1 ->
      for idx = lo to hi - 1 do
        let j = Array.unsafe_get items idx in
        let l = Array.unsafe_get left j and r = Array.unsafe_get right j in
        let dx = Array.unsafe_get x l -. Array.unsafe_get x r in
        let dy = Array.unsafe_get y l -. Array.unsafe_get y r in
        let dz = Array.unsafe_get z l -. Array.unsafe_get z r in
        let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) +. 1.0 in
        let g = 1.0 /. r2 in
        Array.unsafe_set fx l (Array.unsafe_get fx l +. (g *. dx));
        Array.unsafe_set fx r (Array.unsafe_get fx r -. (g *. dx));
        Array.unsafe_set fy l (Array.unsafe_get fy l +. (g *. dy));
        Array.unsafe_set fy r (Array.unsafe_get fy r -. (g *. dy));
        Array.unsafe_set fz l (Array.unsafe_get fz l +. (g *. dz));
        Array.unsafe_set fz r (Array.unsafe_get fz r -. (g *. dz))
      done
    | _ ->
      for idx = lo to hi - 1 do
        let k = Array.unsafe_get items idx in
        Array.unsafe_set vx k
          (Array.unsafe_get vx k +. (dt *. Array.unsafe_get fx k));
        Array.unsafe_set vy k
          (Array.unsafe_get vy k +. (dt *. Array.unsafe_get fy k));
        Array.unsafe_set vz k
          (Array.unsafe_get vz k +. (dt *. Array.unsafe_get fz k))
      done
  in
  let stash ~pos:_ items lo hi =
    for idx = lo to hi - 1 do
      let j = Array.unsafe_get items idx in
      let l = Array.unsafe_get left j and r = Array.unsafe_get right j in
      let dx = Array.unsafe_get x l -. Array.unsafe_get x r in
      let dy = Array.unsafe_get y l -. Array.unsafe_get y r in
      let dz = Array.unsafe_get z l -. Array.unsafe_get z r in
      let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) +. 1.0 in
      let g = 1.0 /. r2 in
      Array.unsafe_set gx j (g *. dx);
      Array.unsafe_set gy j (g *. dy);
      Array.unsafe_set gz j (g *. dz)
    done
  in
  let apply ~pos:_ ~datum refs lo hi =
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
        vx = node st.vx;
        vy = node st.vy;
        vz = node st.vz;
        fx = node st.fx;
        fy = node st.fy;
        fz = node st.fz;
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
    exec_arrays =
      (fun () ->
        ( [| st.left; st.right |],
          [| st.x; st.y; st.z; st.vx; st.vy; st.vz; st.fx; st.fy; st.fz |] ));
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
          ("vx", Array.copy st.vx);
          ("vy", Array.copy st.vy);
          ("vz", Array.copy st.vz);
          ("fx", Array.copy st.fx);
          ("fy", Array.copy st.fy);
          ("fz", Array.copy st.fz);
        ]);
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
  make ~access:(Reorder.Access.of_pairs ~n_data:n left right)
    {
      n;
      m;
      left = Array.copy left;
      right = Array.copy right;
      x = Array.init n (init_value ~salt:1);
      y = Array.init n (init_value ~salt:2);
      z = Array.init n (init_value ~salt:3);
      vx = Array.init n (init_value ~salt:4);
      vy = Array.init n (init_value ~salt:5);
      vz = Array.init n (init_value ~salt:6);
      fx = Array.make n 0.0;
      fy = Array.make n 0.0;
      fz = Array.make n 0.0;
      endpoints_ok = false;
    }
