(* A CG-style dependent-reduction kernel (after Yang et al.,
   "Simplifying Dependent Reductions in the Polyhedral Model"): each
   step applies the sparse operator and folds a dot product whose
   value feeds the next step's vector updates.

   Loop chain per step over nodes (n) and interactions (m):
     S1 (i loop): diagonal SpMV        q[i]  = diag[i] * p[i]
     S2 (j loop): off-diagonal scatter q[l] += w*p[r], q[r] += w*p[l]
     S3 (k loop): dot partials + update
                  dot[k] = p[k]*q[k]
                  x[k] += alpha*p[k];  r[k] -= alpha*q[k]
                  p[k]  = r[k] + beta*p[k]
     epilogue (scalar, serial): pap = fold of dot[k] in execution
                  order; alpha = rho / (1 + |pap|)

   The dot product is the dependent reduction: its partials are
   produced inside the tiles (S3), but the scalar it feeds (alpha)
   is consumed by every tile of the *next* step, so the reduction
   genuinely crosses tile boundaries. Executors therefore fold the
   per-node partials serially after each whole schedule walk, in
   schedule order — the same float additions in the same order for the
   interpreted and parallel executors, which keeps the two bitwise
   identical on a given schedule. (Like every reduction here,
   *different* schedules reassociate the folds, so cross-plan
   comparisons use [snapshots_close].)

   Because alpha must be refreshed between consecutive chain walks,
   time-step sparse tiling is illegal for this kernel: the tiled
   executors require a schedule whose loop count is exactly the 3-loop
   chain and raise otherwise. *)

type state = {
  n : int;
  m : int;
  left : int array;
  right : int array;
  w : float array; (* per-interaction off-diagonal weight *)
  p : float array;
  q : float array;
  x : float array;
  r : float array;
  diag : float array;
  dot : float array; (* per-node dot-product partial, S3's stash *)
  mutable alpha : float;
  mutable endpoints_ok : bool;
}

let beta = 0.5
let rho = 0.25

let node_array_names = [ "p"; "q"; "x"; "r"; "diag"; "dot" ]
let inter_array_names = [ "left"; "right"; "w" ]

(* The serial scalar epilogue shared by every executor: fold the dot
   partials in the given order and refresh alpha. *)
let fold_alpha st pap = st.alpha <- rho /. (1.0 +. Float.abs pap)

let run_plain st ~steps =
  let n = st.n and m = st.m in
  let left = st.left and right = st.right and w = st.w in
  let p = st.p and q = st.q and x = st.x and r = st.r in
  let diag = st.diag and dot = st.dot in
  for _s = 1 to steps do
    let alpha = st.alpha in
    for i = 0 to n - 1 do
      q.(i) <- diag.(i) *. p.(i)
    done;
    for j = 0 to m - 1 do
      let l = left.(j) and rr = right.(j) in
      q.(l) <- q.(l) +. (w.(j) *. p.(rr));
      q.(rr) <- q.(rr) +. (w.(j) *. p.(l))
    done;
    for k = 0 to n - 1 do
      dot.(k) <- p.(k) *. q.(k);
      x.(k) <- x.(k) +. (alpha *. p.(k));
      r.(k) <- r.(k) -. (alpha *. q.(k));
      p.(k) <- r.(k) +. (beta *. p.(k))
    done;
    let pap = ref 0.0 in
    for k = 0 to n - 1 do
      pap := !pap +. dot.(k)
    done;
    fold_alpha st !pap
  done

let check_chain ~who (sched : Reorder.Schedule.t) =
  if Reorder.Schedule.n_loops sched <> 3 then
    invalid_arg
      (who
     ^ ": the dependent reduction needs its scalar refreshed between \
        chain walks, so time-step tiling (n_loops > 3) is illegal")

let check_endpoints_cached st ~who =
  if st.endpoints_ok then Kernel.endpoint_scan_skipped ()
  else begin
    if Array.length st.left <> st.m || Array.length st.right <> st.m then
      invalid_arg (who ^ ": endpoint array size mismatch");
    for j = 0 to st.m - 1 do
      let l = st.left.(j) and r = st.right.(j) in
      if l < 0 || l >= st.n || r < 0 || r >= st.n then
        invalid_arg (who ^ ": interaction endpoint out of range")
    done;
    st.endpoints_ok <- true
  end

(* Fold the dot partials in tiled execution order (the S3 rows of the
   schedule, tile-major): the serial epilogue every tiled executor —
   interpreted, parallel — shares bitwise. *)
let pap_of_schedule st (sched : Reorder.Schedule.t) =
  let rp = Reorder.Schedule.row_ptr sched in
  let fl = Reorder.Schedule.flat_items sched in
  let dot = st.dot in
  let n_tiles = Reorder.Schedule.n_tiles sched in
  let pap = ref 0.0 in
  for t = 0 to n_tiles - 1 do
    let r = (t * 3) + 2 in
    let lo = Array.unsafe_get rp r and hi = Array.unsafe_get rp (r + 1) in
    for idx = lo to hi - 1 do
      pap := !pap +. Array.unsafe_get dot (Array.unsafe_get fl idx)
    done
  done;
  !pap

let run_tiled_st st (sched : Reorder.Schedule.t) ~steps =
  check_chain ~who:"Cg.run_tiled" sched;
  if not (Reorder.Schedule.check_fits sched ~loop_sizes:[| st.n; st.m; st.n |])
  then invalid_arg "Cg.run_tiled: schedule does not fit the kernel";
  check_endpoints_cached st ~who:"Cg.run_tiled";
  let left = st.left and right = st.right and w = st.w in
  let p = st.p and q = st.q and x = st.x and r = st.r in
  let diag = st.diag and dot = st.dot in
  let n_tiles = Reorder.Schedule.n_tiles sched in
  let rp = Reorder.Schedule.row_ptr sched in
  let fl = Reorder.Schedule.flat_items sched in
  for _s = 1 to steps do
    let alpha = st.alpha in
    for t = 0 to n_tiles - 1 do
      for c = 0 to 2 do
        let row = (t * 3) + c in
        let lo = Array.unsafe_get rp row
        and hi = Array.unsafe_get rp (row + 1) in
        match c with
        | 0 ->
          for idx = lo to hi - 1 do
            let i = Array.unsafe_get fl idx in
            Array.unsafe_set q i
              (Array.unsafe_get diag i *. Array.unsafe_get p i)
          done
        | 1 ->
          for idx = lo to hi - 1 do
            let j = Array.unsafe_get fl idx in
            let l = Array.unsafe_get left j and rr = Array.unsafe_get right j in
            let wj = Array.unsafe_get w j in
            Array.unsafe_set q l
              (Array.unsafe_get q l +. (wj *. Array.unsafe_get p rr));
            Array.unsafe_set q rr
              (Array.unsafe_get q rr +. (wj *. Array.unsafe_get p l))
          done
        | _ ->
          for idx = lo to hi - 1 do
            let k = Array.unsafe_get fl idx in
            let pk = Array.unsafe_get p k and qk = Array.unsafe_get q k in
            Array.unsafe_set dot k (pk *. qk);
            Array.unsafe_set x k (Array.unsafe_get x k +. (alpha *. pk));
            let rk = Array.unsafe_get r k -. (alpha *. qk) in
            Array.unsafe_set r k rk;
            Array.unsafe_set p k (rk +. (beta *. pk))
          done
      done
    done;
    fold_alpha st (pap_of_schedule st sched)
  done

(* Parallel tiled executor: chain position 1 is the SpMV scatter
   reduction. [stash] computes each interaction's two contributions
   (w*p[r] toward the left slot, w*p[l] toward the right slot) — pure
   reads of p, which only S3 writes — and [apply] folds them into q
   per datum in serial order, so parallel execution is bitwise the
   serial walk. The dependent-reduction epilogue forces one pool
   dispatch per step: alpha must be refreshed (serially, in schedule
   order) between consecutive chain walks, so steps cannot be batched
   inside the engine. *)
let plan_par_st st ~pool sched ~level_of =
  check_chain ~who:"Cg.plan_par" sched;
  if not (Reorder.Schedule.check_fits sched ~loop_sizes:[| st.n; st.m; st.n |])
  then invalid_arg "Cg.plan_par: schedule does not fit the kernel";
  check_endpoints_cached st ~who:"Cg.plan_par";
  let left = st.left and right = st.right and w = st.w in
  let p = st.p and q = st.q and x = st.x and r = st.r in
  let diag = st.diag and dot = st.dot in
  let gl = Array.make st.m 0.0 in
  let gr = Array.make st.m 0.0 in
  let exec =
    Rtrt_par.Exec.make ~pool ~sched ~level_of
      ~is_reduction:(fun c -> c mod 3 = 1)
      ~left ~right ~n_data:st.n
  in
  let par_sched = Rtrt_par.Exec.schedule exec in
  let body ~pos items lo hi =
    match pos mod 3 with
    | 0 ->
      for idx = lo to hi - 1 do
        let i = Array.unsafe_get items idx in
        Array.unsafe_set q i (Array.unsafe_get diag i *. Array.unsafe_get p i)
      done
    | 1 ->
      for idx = lo to hi - 1 do
        let j = Array.unsafe_get items idx in
        let l = Array.unsafe_get left j and rr = Array.unsafe_get right j in
        let wj = Array.unsafe_get w j in
        Array.unsafe_set q l
          (Array.unsafe_get q l +. (wj *. Array.unsafe_get p rr));
        Array.unsafe_set q rr
          (Array.unsafe_get q rr +. (wj *. Array.unsafe_get p l))
      done
    | _ ->
      let alpha = st.alpha in
      for idx = lo to hi - 1 do
        let k = Array.unsafe_get items idx in
        let pk = Array.unsafe_get p k and qk = Array.unsafe_get q k in
        Array.unsafe_set dot k (pk *. qk);
        Array.unsafe_set x k (Array.unsafe_get x k +. (alpha *. pk));
        let rk = Array.unsafe_get r k -. (alpha *. qk) in
        Array.unsafe_set r k rk;
        Array.unsafe_set p k (rk +. (beta *. pk))
      done
  in
  let stash ~pos:_ items lo hi =
    for idx = lo to hi - 1 do
      let j = Array.unsafe_get items idx in
      let l = Array.unsafe_get left j and rr = Array.unsafe_get right j in
      let wj = Array.unsafe_get w j in
      Array.unsafe_set gl j (wj *. Array.unsafe_get p rr);
      Array.unsafe_set gr j (wj *. Array.unsafe_get p l)
    done
  in
  let apply ~pos:_ ~datum refs lo hi =
    for k = lo to hi - 1 do
      let rv = refs.(k) in
      let j = rv lsr 1 in
      if rv land 1 = 0 then q.(datum) <- q.(datum) +. gl.(j)
      else q.(datum) <- q.(datum) +. gr.(j)
    done
  in
  {
    Kernel.par_sched;
    par_run =
      (fun ?batch ?tier ?profile ~steps () ->
        (* One engine dispatch per step: the scalar epilogue is a
           cross-tile dependence the step batching may not elide. *)
        ignore batch;
        for _s = 1 to steps do
          Rtrt_par.Exec.run ?tier ?profile exec ~steps:1 ~body ~stash ~apply;
          fold_alpha st (pap_of_schedule st par_sched)
        done);
    par_decide =
      (fun ~serial_ns_per_step ~batch:_ ->
        (* Batching is unavailable (see par_run), so the decision is
           always evaluated at batch 1. *)
        Rtrt_par.Exec.decide exec ~serial_ns_per_step ~batch:1);
  }

(* Traced twins: one touch per distinct array-element reference,
   including the epilogue's serial read-back of the dot partials. *)
let trace_i ~touch i =
  touch 4 i; (* diag *)
  touch 0 i; (* p *)
  touch 1 i (* q *)

let trace_j ~touch ~touch_inter left right j =
  touch_inter 0 j;
  touch_inter 1 j;
  touch_inter 2 j;
  let l = left.(j) and r = right.(j) in
  touch 0 l; touch 0 r;
  touch 1 l; touch 1 r

let trace_k ~touch k =
  touch 0 k; touch 1 k;
  touch 2 k; touch 3 k;
  touch 5 k (* dot *)

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
    done;
    for k = 0 to st.n - 1 do
      touch 5 k (* epilogue dot fold *)
    done
  done

let run_tiled_traced_st st sched ~steps ~layout ~access =
  check_chain ~who:"Cg.run_tiled_traced" sched;
  let touch = make_touch ~layout ~access node_array_names in
  let touch_inter = make_touch ~layout ~access inter_array_names in
  let n_tiles = Reorder.Schedule.n_tiles sched in
  let rp = Reorder.Schedule.row_ptr sched in
  let fl = Reorder.Schedule.flat_items sched in
  for _s = 1 to steps do
    for t = 0 to n_tiles - 1 do
      for c = 0 to 2 do
        let row = (t * 3) + c in
        let lo = rp.(row) and hi = rp.(row + 1) in
        match c with
        | 0 -> for i = lo to hi - 1 do trace_i ~touch fl.(i) done
        | 1 ->
          for i = lo to hi - 1 do
            trace_j ~touch ~touch_inter st.left st.right fl.(i)
          done
        | _ -> for i = lo to hi - 1 do trace_k ~touch fl.(i) done
      done
    done;
    for t = 0 to n_tiles - 1 do
      let row = (t * 3) + 2 in
      for i = rp.(row) to rp.(row + 1) - 1 do
        touch 5 fl.(i) (* epilogue dot fold, schedule order *)
      done
    done
  done

let rec make ~access st =
  (* Same chain shape as moldyn: both dependence sets of the 3-loop
     chain are constrained by left/right (Section 6 symmetric
     dependences), so conn.(1) doubles as loop 0's successor set. *)
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
        w = Kernel.scatter delta st.w;
        p = node st.p;
        q = node st.q;
        x = node st.x;
        r = node st.r;
        diag = node st.diag;
        dot = node st.dot;
      }
  in
  {
    Kernel.name = "cg";
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
          [| st.p; st.q; st.x; st.r; st.diag; st.dot; st.w |] ));
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
          ("p", Array.copy st.p);
          ("q", Array.copy st.q);
          ("x", Array.copy st.x);
          ("r", Array.copy st.r);
          ("diag", Array.copy st.diag);
          ("dot", Array.copy st.dot);
        ]);
    copy = (fun () -> relabel ());
  }

(* Deterministic initial conditions derived from ids (same scheme as
   the other kernels), with the diagonal dominating the off-diagonal
   weights so the iteration contracts instead of overflowing. *)
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
      w = Array.init m (fun j -> 0.01 *. init_value ~salt:11 j);
      p = Array.init n (init_value ~salt:1);
      q = Array.make n 0.0;
      x = Array.make n 0.0;
      r = Array.init n (init_value ~salt:2);
      diag = Array.init n (fun i -> 1.0 +. init_value ~salt:7 i);
      dot = Array.make n 0.0;
      alpha = 0.1;
      endpoints_ok = false;
    }
