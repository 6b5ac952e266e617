(* Staged executor specialization over a frozen schedule (ROADMAP
   item 2). The default executor is the kernels' interpreted flat-CSR
   walk ([run_tiled]); one tier sits above it:

   - Tier B (Codegen, opt-in via [--specialize] / RTRT_SPECIALIZE):
     {!Codegen.specialized_source} emits a straight-line OCaml module
     for the exact (kernel, schedule) pair, compiled out-of-process
     with ocamlopt -shared and loaded with [Dynlink]. Compiled [.cmxs]
     files are cached on disk keyed by a fingerprint over the schedule
     content and the compiler identity, plus an in-process memo, so a
     plan-cache hit never recompiles.

   The key hashes the whole schedule, so it is computed on demand:
   when Tier B is wanted, or when a caller asks for it through [key]
   (memoized). An [Interp] specialization never pays for it.

   The dynlinked module references only [Stdlib] and publishes its
   executor through [Callback.register "rtrt.spec.<key>"]; the host
   reads the same registry back through a C stub around
   [caml_named_value] (see specialize_stubs.c). The executor takes the
   kernel's arrays as arguments — int arrays first (index arrays in
   [Kernels.Kernel.exec_arrays] order, then the schedule's flat items),
   float arrays second — so one compiled module can drive any state
   copy of the kernel, which is how the bitwise verification below
   runs it against the interpreted walk without disturbing the real
   state.

   The compiled executor is bitwise identical to [run_tiled]; [make]
   asserts this on two-step copies by default, the same way rtrt_par
   asserts parallel-vs-serial equivalence. Every downgrade (no
   toolchain, compile failure, source-budget overflow, a handed-off
   array of the wrong length) is graceful and counted in
   [specialize.fallbacks]. *)

type tier = Interp | Shaped | Codegen

let tier_name = function
  | Interp -> "interp"
  | Shaped -> "shaped"
  | Codegen -> "codegen"

let tier_level = function Interp -> 0. | Shaped -> 1. | Codegen -> 2.

type t = {
  tier : tier;
  run : steps:int -> unit;
  compile_seconds : float;
      (** Tier B out-of-process compile time; 0 on a cache hit or for
          [Interp]. *)
  cmxs_cache_hit : bool;
  lazy_key : string Lazy.t;  (** forced by [key] *)
}

let key t = Lazy.force t.lazy_key

(* -------------------------------------------------------------- *)
(* Observability *)

let g_tier = Rtrt_obs.Metrics.gauge "specialize.tier"
let g_compile_ns = Rtrt_obs.Metrics.gauge "specialize.compile_ns"
let c_compiles = Rtrt_obs.Metrics.counter "specialize.compiles"
let c_cmxs_hits = Rtrt_obs.Metrics.counter "specialize.cmxs_cache_hits"
let c_memo_hits = Rtrt_obs.Metrics.counter "specialize.memo_hits"
let c_fallbacks = Rtrt_obs.Metrics.counter "specialize.fallbacks"

(* -------------------------------------------------------------- *)
(* Enabling Tier B *)

let override = ref None
let set_enabled b = override := Some b

let enabled () =
  match !override with
  | Some b -> b
  | None -> Rtrt_obs.Config.env_bool ~name:"RTRT_SPECIALIZE" ~default:false ()

(* -------------------------------------------------------------- *)
(* Compiled-executor plumbing *)

type exec = int array array -> float array array -> int -> unit

external get_named : string -> Obj.t option = "rtrt_specialize_get_named"

(* Keep the Callback registry linked into the host so plugin-side
   [Callback.register] and the stub's [caml_named_value] meet in the
   same table. *)
let () = Callback.register "rtrt.spec.host" (fun () -> ())

let fetch_exec key : exec option =
  match get_named ("rtrt.spec." ^ key) with
  | Some o -> Some (Obj.obj o : exec)
  | None -> None

(* Compiler discovery: RTRT_SPECIALIZE_OCAMLOPT overrides (probed, so
   pointing it at a nonexistent binary simulates a toolchain-free
   host); otherwise the first of ocamlfind ocamlopt / ocamlopt.opt /
   ocamlopt that answers [-version]. *)
let probe cmd = Sys.command (cmd ^ " -version >/dev/null 2>&1") = 0

let find_compiler () =
  match Sys.getenv_opt "RTRT_SPECIALIZE_OCAMLOPT" with
  | Some cmd when String.trim cmd <> "" ->
    let cmd = String.trim cmd in
    if probe cmd then Some cmd else None
  | _ -> List.find_opt probe [ "ocamlfind ocamlopt"; "ocamlopt.opt"; "ocamlopt" ]

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Compiled modules live next to the plan cache when one is configured
   (same locality story: the fingerprint names both), else under the
   system temp dir. *)
let cache_dir () =
  match Rtrt_obs.Config.env_dir ~name:"RTRT_PLAN_CACHE_DIR" () with
  | Some d -> Filename.concat d "spec"
  | None -> Filename.concat (Filename.get_temp_dir_name ()) "rtrt-spec"

(* Bumped whenever the emitted code changes meaning, so stale cached
   .cmxs never survive an emitter upgrade (2: moldyn/nbf/irreg node
   arrays regrouped into one float array). *)
let emitter_version = 2

let schedule_key ~kernel ~n_nodes ~n_inter (sched : Reorder.Schedule.t) =
  let b = Rtrt_plancache.Fingerprint.create () in
  Rtrt_plancache.Fingerprint.add_string b kernel;
  Rtrt_plancache.Fingerprint.add_int b n_nodes;
  Rtrt_plancache.Fingerprint.add_int b n_inter;
  Rtrt_plancache.Fingerprint.add_int b (Reorder.Schedule.n_loops sched);
  Rtrt_plancache.Fingerprint.add_int_array b (Reorder.Schedule.row_ptr sched);
  Rtrt_plancache.Fingerprint.add_int_array b (Reorder.Schedule.flat_items sched);
  Rtrt_plancache.Fingerprint.add_string b Sys.ocaml_version;
  Rtrt_plancache.Fingerprint.add_int b Sys.word_size;
  Rtrt_plancache.Fingerprint.add_string b Sys.os_type;
  Rtrt_plancache.Fingerprint.add_int b emitter_version;
  Rtrt_plancache.Fingerprint.to_hex (Rtrt_plancache.Fingerprint.value b)

let memo : (string, exec) Hashtbl.t = Hashtbl.create 16
let memo_mutex = Mutex.create ()
let with_memo f = Mutex.protect memo_mutex f

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let load_cmxs cmxs key =
  try
    Dynlink.loadfile_private cmxs;
    fetch_exec key
  with Dynlink.Error _ | Sys_error _ -> None

let remove_quietly path = try Sys.remove path with Sys_error _ -> ()

(* Compile [source] (or reuse the cached .cmxs) and return the
   executor with its compile time and whether the disk cache hit. *)
let compile_and_load ~kernel ~key source : (exec * float * bool) option =
  match with_memo (fun () -> Hashtbl.find_opt memo key) with
  | Some f ->
    Rtrt_obs.Metrics.incr c_memo_hits;
    Some (f, 0., true)
  | None -> (
    let dir = cache_dir () in
    mkdir_p dir;
    let stem = Filename.concat dir (Printf.sprintf "spec_%s_%s" kernel key) in
    let cmxs = stem ^ ".cmxs" in
    let from_disk =
      if Sys.file_exists cmxs then
        match load_cmxs cmxs key with
        | Some f ->
          Rtrt_obs.Metrics.incr c_cmxs_hits;
          Some (f, 0., true)
        | None -> None
      else None
    in
    match from_disk with
    | Some (f, _, _) as r ->
      with_memo (fun () -> Hashtbl.replace memo key f);
      r
    | None -> (
      match find_compiler () with
      | None -> None
      | Some cc -> (
        (* Every file the compile writes is private to this process
           (pid suffix; ocamlopt also drops .cmx/.cmi/.o next to the
           source), and only the finished .cmxs is renamed onto the
           shared name, so concurrent processes never load a partly
           written module. *)
        let scratch = Printf.sprintf "%s_%d" stem (Unix.getpid ()) in
        let ml = scratch ^ ".ml" and tmp = scratch ^ ".tmp.cmxs" in
        let log = scratch ^ ".log" in
        write_file ml source;
        let cmd =
          Printf.sprintf "%s -shared -w -a -o %s %s >%s 2>&1" cc
            (Filename.quote tmp) (Filename.quote ml) (Filename.quote log)
        in
        let rc, secs = Rtrt_obs.Clock.time (fun () -> Sys.command cmd) in
        List.iter remove_quietly
          [ ml; log; scratch ^ ".cmx"; scratch ^ ".cmi"; scratch ^ ".o" ];
        if rc <> 0 then begin
          remove_quietly tmp;
          None
        end
        else begin
          (try Sys.rename tmp cmxs with Sys_error _ -> remove_quietly tmp);
          Rtrt_obs.Metrics.incr c_compiles;
          Rtrt_obs.Metrics.set g_compile_ns (secs *. 1e9);
          match load_cmxs cmxs key with
          | None -> None
          | Some f ->
            with_memo (fun () -> Hashtbl.replace memo key f);
            Some (f, secs, false)
        end)))

(* -------------------------------------------------------------- *)
(* Host-side validation: the emitted bodies use unsafe accesses, so
   before ever running compiled code we prove every index in bounds —
   [check_fits] covers the iteration ids ([of_tile_fns] builds each
   loop's items as a permutation, so total = size implies id < size),
   a one-time endpoint scan covers the kernel's own index arrays, and
   every handed-off array must have the length the emitter assumes
   ([Codegen.float_lengths]; index arrays one entry per
   interaction). *)

let float_lengths_match ~kernel ~n_nodes ~n_inter (fa : float array array) =
  match Codegen.float_lengths ~kernel ~n_nodes ~n_inter with
  | None -> false
  | Some lens ->
    List.length lens = Array.length fa
    && List.for_all2 (fun len a -> Array.length a = len) lens (Array.to_list fa)

let endpoints_in_range ~n (arrs : int array array) =
  let ok = ref true in
  Array.iter
    (fun arr ->
      for i = 0 to Array.length arr - 1 do
        let v = Array.unsafe_get arr i in
        if v < 0 || v >= n then ok := false
      done)
    arrs;
  !ok

let bits_equal (a : float array) (b : float array) =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  for i = 0 to Array.length a - 1 do
    if Int64.bits_of_float a.(i) <> Int64.bits_of_float b.(i) then ok := false
  done;
  !ok

(* -------------------------------------------------------------- *)
(* Tier choice *)

(* Verification steps: enough to cover every chain class and catch
   order-of-visit divergence, cheap enough to run by default. *)
let verify_steps = 2

(* The tier choice shared by every kernel: [interp] is the reference
   walk on the live state; [source key] the Tier B module, if the
   emitter accepts the pair; [bind exec] runs a compiled executor on
   the live state; [check key exec] runs it on a state copy and raises
   on any bitwise divergence from the reference walk. [lazy_key] is
   forced only on the Tier B path. *)
let select ?tier_b ~verify ~kernel ~lazy_key ~interp ~source ~bind ~check () =
  let want_b = match tier_b with Some b -> b | None -> enabled () in
  let compiled =
    if want_b then
      let key = Lazy.force lazy_key in
      Option.bind (source key) (compile_and_load ~kernel ~key)
    else None
  in
  let result =
    match compiled with
    | Some (exec, compile_seconds, cmxs_cache_hit) ->
      if verify then check (Lazy.force lazy_key) exec;
      {
        tier = Codegen;
        run = bind exec;
        compile_seconds;
        cmxs_cache_hit;
        lazy_key;
      }
    | None ->
      if want_b then Rtrt_obs.Metrics.incr c_fallbacks;
      {
        tier = Interp;
        run = interp;
        compile_seconds = 0.;
        cmxs_cache_hit = false;
        lazy_key;
      }
  in
  Rtrt_obs.Metrics.set g_tier (tier_level result.tier);
  result

let diverged ~kernel ~key ~reference =
  failwith
    (Printf.sprintf "Specialize: codegen tier diverged bitwise from %s (%s/%s)"
       reference kernel key)

(* -------------------------------------------------------------- *)
(* Kernel.t kernels (moldyn / nbf / irreg) *)

let exec_args (kernel : Kernels.Kernel.t) sched =
  let ia, fa = kernel.Kernels.Kernel.exec_arrays () in
  (Array.append ia [| Reorder.Schedule.flat_items sched |], fa)

let kernel_key (kernel : Kernels.Kernel.t) sched =
  schedule_key ~kernel:kernel.Kernels.Kernel.name
    ~n_nodes:kernel.Kernels.Kernel.n_nodes
    ~n_inter:kernel.Kernels.Kernel.n_inter sched

let make ?tier_b ?(verify = true) (kernel : Kernels.Kernel.t)
    (sched : Reorder.Schedule.t) =
  let name = kernel.Kernels.Kernel.name in
  let source key =
    let ia, fa = kernel.Kernels.Kernel.exec_arrays () in
    let n_inter = kernel.Kernels.Kernel.n_inter in
    if
      Array.for_all (fun a -> Array.length a = n_inter) ia
      && float_lengths_match ~kernel:name
           ~n_nodes:kernel.Kernels.Kernel.n_nodes ~n_inter fa
      && Reorder.Schedule.check_fits sched
           ~loop_sizes:kernel.Kernels.Kernel.loop_sizes
      && endpoints_in_range ~n:kernel.Kernels.Kernel.n_nodes ia
    then Codegen.specialized_source ~kernel:name ~key sched
    else None
  in
  let run_on (k : Kernels.Kernel.t) exec ~steps =
    let ia, fa = exec_args k sched in
    exec ia fa steps
  in
  let check key exec =
    let reference = kernel.Kernels.Kernel.copy () in
    let candidate = kernel.Kernels.Kernel.copy () in
    reference.Kernels.Kernel.run_tiled sched ~steps:verify_steps;
    run_on candidate exec ~steps:verify_steps;
    if
      not
        (Kernels.Kernel.snapshots_equal_bits
           (reference.Kernels.Kernel.snapshot ())
           (candidate.Kernels.Kernel.snapshot ()))
    then diverged ~kernel:name ~key ~reference:"run_tiled"
  in
  select ?tier_b ~verify ~kernel:name
    ~lazy_key:(lazy (kernel_key kernel sched))
    ~interp:(fun ~steps -> kernel.Kernels.Kernel.run_tiled sched ~steps)
    ~source ~bind:(run_on kernel) ~check ()

(* -------------------------------------------------------------- *)
(* Gauss-Seidel (separate state type; a schedule walk is the tiling's
   [sweeps] sweeps, so [run ~steps] executes [steps] whole schedule
   walks). *)

let make_gs ?tier_b ?(verify = true) (t : Kernels.Gauss_seidel.t)
    (sched : Reorder.Schedule.t) =
  let n = Irgraph.Csr.num_nodes t.Kernels.Gauss_seidel.graph in
  let lazy_key =
    lazy
      (schedule_key ~kernel:"gs" ~n_nodes:n
         ~n_inter:(Irgraph.Csr.num_arcs t.Kernels.Gauss_seidel.graph)
         sched)
  in
  let interp_walk st ~steps =
    for _s = 1 to steps do
      Kernels.Gauss_seidel.run_sched st sched
    done
  in
  let source key =
    if
      float_lengths_match ~kernel:"gs" ~n_nodes:n
        ~n_inter:(Irgraph.Csr.num_arcs t.Kernels.Gauss_seidel.graph)
        [| t.Kernels.Gauss_seidel.u; t.Kernels.Gauss_seidel.f |]
      && Reorder.Schedule.check_fits sched ~loop_sizes:[| n |]
    then Codegen.specialized_source ~kernel:"gs" ~key sched
    else None
  in
  let run_on st exec =
    let ptr, adj = Kernels.Gauss_seidel.csr_arrays st.Kernels.Gauss_seidel.graph in
    let ia = [| ptr; adj; Reorder.Schedule.flat_items sched |] in
    let fa = [| st.Kernels.Gauss_seidel.u; st.Kernels.Gauss_seidel.f |] in
    fun ~steps -> exec ia fa steps
  in
  let check key exec =
    let reference = Kernels.Gauss_seidel.copy t in
    let candidate = Kernels.Gauss_seidel.copy t in
    interp_walk reference ~steps:verify_steps;
    run_on candidate exec ~steps:verify_steps;
    if
      not
        (bits_equal reference.Kernels.Gauss_seidel.u
           candidate.Kernels.Gauss_seidel.u
        && bits_equal reference.Kernels.Gauss_seidel.f
             candidate.Kernels.Gauss_seidel.f)
    then diverged ~kernel:"gs" ~key ~reference:"run_sched"
  in
  select ?tier_b ~verify ~kernel:"gs" ~lazy_key ~interp:(interp_walk t)
    ~source ~bind:(run_on t) ~check ()

(* -------------------------------------------------------------- *)
(* Source dump for [rtrt codegen --plan]: the exact Tier B module that
   would be compiled, independent of whether a toolchain exists. *)

let dump_source (kernel : Kernels.Kernel.t) (sched : Reorder.Schedule.t) =
  Codegen.specialized_source ~kernel:kernel.Kernels.Kernel.name
    ~key:(kernel_key kernel sched) sched
