(* Tests for staged executor specialization: the Tier B compiled
   executors, bitwise identical to the interpreted walk on hand-built
   schedule shapes (one contiguous block, single-run rows, alternating
   stride-2 rows, ragged tiles) and on random schedules, for every pair
   kernel and Gauss-Seidel; the interpreted default; graceful fallback
   without a toolchain or on a failing compile; and the validated-once
   memos that let plan-cache hits skip the O(rows) re-validation
   scans. *)

module Schedule = Reorder.Schedule
module Specialize = Compose.Specialize

let tf n_tiles tile_of = { Reorder.Sparse_tile.n_tiles; tile_of }

(* Counters are no-ops while tracing is disabled; counter-asserting
   tests run under a throwaway memory sink. *)
let with_metrics f =
  let sink, _events = Rtrt_obs.Sink.memory () in
  Rtrt_obs.set_sink sink;
  Fun.protect ~finally:Rtrt_obs.disable f

let have_toolchain () =
  Sys.command "ocamlfind ocamlopt -version >/dev/null 2>&1" = 0
  || Sys.command "ocamlopt.opt -version >/dev/null 2>&1" = 0
  || Sys.command "ocamlopt -version >/dev/null 2>&1" = 0

(* Without a compiler, Tier B must degrade to the interpreted walk;
   with one, it must be reached. Either way the result is bitwise the
   interpreted walk's. *)
let expected_tier = lazy (if have_toolchain () then "codegen" else "interp")

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
       a b

let kernels_under_test =
  [
    ("moldyn", Kernels.Moldyn.of_dataset);
    ("nbf", Kernels.Nbf.of_dataset);
    ("irreg", Kernels.Irreg.of_dataset);
  ]

(* A schedule over every loop of [loop_sizes], each loop's tile
   assignment drawn from [tile_of ~size i]. *)
let sched_of ~n_tiles tile_of loop_sizes =
  Schedule.of_tile_fns
    (Array.map
       (fun size -> tf n_tiles (Array.init size (tile_of ~size)))
       loop_sizes)

(* Tier B on [sched] for [kernel] vs [run_tiled], three steps on
   separate copies. [Specialize.make] additionally runs its own
   two-step bitwise verification internally. *)
let codegen_matches_interp (k : Kernels.Kernel.t) sched =
  let k_interp = k.Kernels.Kernel.copy () in
  let k_spec = k.Kernels.Kernel.copy () in
  let r = Specialize.make ~tier_b:true k_spec sched in
  r.Specialize.run ~steps:3;
  k_interp.Kernels.Kernel.run_tiled sched ~steps:3;
  ( Specialize.tier_name r.Specialize.tier,
    Kernels.Kernel.snapshots_equal_bits
      (k_interp.Kernels.Kernel.snapshot ())
      (k_spec.Kernels.Kernel.snapshot ()) )

let gs_codegen_matches_interp graph f sched =
  let t_interp = Kernels.Gauss_seidel.create ~graph ~f in
  let t_spec = Kernels.Gauss_seidel.create ~graph ~f in
  let r = Specialize.make_gs ~tier_b:true t_spec sched in
  r.Specialize.run ~steps:3;
  for _ = 1 to 3 do
    Kernels.Gauss_seidel.run_sched t_interp sched
  done;
  ( Specialize.tier_name r.Specialize.tier,
    bits_equal t_interp.Kernels.Gauss_seidel.u t_spec.Kernels.Gauss_seidel.u
    && bits_equal t_interp.Kernels.Gauss_seidel.f t_spec.Kernels.Gauss_seidel.f
  )

let gs_problem ~scale =
  let d = Datagen.Generators.foil ~scale () in
  let graph = Datagen.Dataset.to_graph d in
  let n = Irgraph.Csr.num_nodes graph in
  let f = Array.init n (fun i -> 1.0 +. float_of_int (i mod 17)) in
  (graph, f)

(* ------------------------------------------------------------------ *)
(* Schedule shapes: each drives the emitter down one of its branches
   (rows of at most 8 runs become literal range loops, denser rows an
   items-driven loop) for every kernel. *)

let check_shape ~n_tiles tile_of () =
  let d = Datagen.Generators.foil ~scale:512 () in
  let expected = Lazy.force expected_tier in
  List.iter
    (fun (name, of_dataset) ->
      let k : Kernels.Kernel.t = of_dataset d in
      let sched = sched_of ~n_tiles tile_of k.Kernels.Kernel.loop_sizes in
      Alcotest.(check string)
        (name ^ " interpreted by default")
        "interp"
        (Specialize.tier_name (Specialize.make ~tier_b:false k sched).Specialize.tier);
      let tier, bitwise = codegen_matches_interp k sched in
      Alcotest.(check string) (name ^ " tier") expected tier;
      Alcotest.(check bool) (name ^ " codegen bitwise") true bitwise)
    kernels_under_test;
  let graph, f = gs_problem ~scale:512 in
  let sched = sched_of ~n_tiles tile_of [| Irgraph.Csr.num_nodes graph |] in
  let tier, bitwise = gs_codegen_matches_interp graph f sched in
  Alcotest.(check string) "gs tier" expected tier;
  Alcotest.(check bool) "gs codegen bitwise" true bitwise

(* One tile holding every loop in order: one run per row. *)
let test_shape_identity = check_shape ~n_tiles:1 (fun ~size:_ _ -> 0)

(* Four contiguous blocks: every row is a single run. *)
let test_shape_single_run_rows =
  check_shape ~n_tiles:4 (fun ~size i -> i * 4 / size)

(* Stride-2 rows: every item its own run, far past the inline budget. *)
let test_shape_adversarial_alternating =
  check_shape ~n_tiles:2 (fun ~size:_ i -> i mod 2)

(* Ragged tiles: a one-item first and last tile around a large one. *)
let test_shape_ragged =
  check_shape ~n_tiles:3 (fun ~size i ->
      if i = 0 then 0 else if i = size - 1 then 2 else 1)

(* ------------------------------------------------------------------ *)
(* Random schedules over a kernel's loop chain *)

let arb_dataset =
  QCheck.make
    ~print:(fun (n, e) -> Printf.sprintf "n=%d m=%d" n (Array.length e))
    QCheck.Gen.(
      let* n = int_range 8 60 in
      let* m = int_range 4 150 in
      let* pairs =
        array_repeat m (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
      in
      let pairs =
        Array.map
          (fun (a, b) -> if a = b then (a, (b + 1) mod n) else (a, b))
          pairs
      in
      return (n, pairs))

let dataset_of (n, pairs) =
  {
    Datagen.Dataset.name = "rand";
    n_nodes = n;
    left = Array.map fst pairs;
    right = Array.map snd pairs;
    coords = None;
  }

(* A random but valid schedule: every loop gets an arbitrary tile
   assignment (coverage holds by construction). *)
let random_sched rng loop_sizes =
  let n_tiles = 1 + Datagen.Rng.int rng 5 in
  sched_of ~n_tiles (fun ~size:_ _ -> Datagen.Rng.int rng n_tiles) loop_sizes

let prop_codegen_random =
  QCheck.Test.make ~name:"codegen bitwise (random schedules)"
    ~count:20 arb_dataset (fun spec ->
      let d = dataset_of spec in
      let rng = Datagen.Rng.create 42 in
      let expected = Lazy.force expected_tier in
      let ok (tier, bitwise) = tier = expected && bitwise in
      List.for_all
        (fun (_, of_dataset) ->
          let k : Kernels.Kernel.t = of_dataset d in
          ok (codegen_matches_interp k (random_sched rng k.Kernels.Kernel.loop_sizes)))
        kernels_under_test
      &&
      let graph = Datagen.Dataset.to_graph d in
      let n = Irgraph.Csr.num_nodes graph in
      let f = Array.init n (fun i -> 1.0 +. float_of_int (i mod 5)) in
      ok (gs_codegen_matches_interp graph f (random_sched rng [| n |])))

(* ------------------------------------------------------------------ *)
(* Tier B on inspector-produced schedules *)

let test_codegen_bitwise () =
  let d = Datagen.Generators.foil ~scale:256 () in
  let plan =
    Compose.Plan.with_fst ~seed_part_size:32 Compose.Plan.cpack_lexgroup
  in
  List.iter
    (fun (name, of_dataset) ->
      let result = Harness.Experiment.inspect plan (of_dataset d) in
      match result.Compose.Inspector.schedule with
      | None -> Alcotest.fail "plan produced no schedule"
      | Some sched ->
        let tier, bitwise =
          codegen_matches_interp result.Compose.Inspector.kernel sched
        in
        Alcotest.(check string)
          (name ^ " reaches the expected tier")
          (Lazy.force expected_tier) tier;
        Alcotest.(check bool) (name ^ " codegen bitwise") true bitwise)
    kernels_under_test

let test_codegen_gs_bitwise () =
  let graph, f = gs_problem ~scale:192 in
  let n = Irgraph.Csr.num_nodes graph in
  let sched =
    Schedule.of_tile_fns [| tf 3 (Array.init n (fun i -> i * 3 / n)) |]
  in
  let tier, bitwise = gs_codegen_matches_interp graph f sched in
  Alcotest.(check string) "gs reaches the expected tier"
    (Lazy.force expected_tier) tier;
  Alcotest.(check bool) "gs codegen bitwise" true bitwise

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

(* The emitted source is printable without a toolchain and carries the
   registration footer the host looks up. *)
let test_codegen_source_dump () =
  let d = Datagen.Generators.foil ~scale:128 () in
  let k = Kernels.Irreg.of_dataset d in
  let rng = Datagen.Rng.create 7 in
  let sched = random_sched rng k.Kernels.Kernel.loop_sizes in
  match Specialize.dump_source k sched with
  | None -> Alcotest.fail "emitter declined a small schedule"
  | Some src ->
    Alcotest.(check bool)
      "has exec" true
      (contains src "let exec (ia : int array array)");
    Alcotest.(check bool) "registers" true (contains src "Callback.register")

(* Run [f] with environment variable [name] set to [value], restoring
   the previous value (empty counts as unset for these variables). *)
let with_env name value f =
  let old = Option.value (Sys.getenv_opt name) ~default:"" in
  Unix.putenv name value;
  Fun.protect ~finally:(fun () -> Unix.putenv name old) f

let fallback_to_interp ~seed k =
  let fallbacks = Rtrt_obs.Metrics.counter "specialize.fallbacks" in
  let before = Rtrt_obs.Metrics.value fallbacks in
  let rng = Datagen.Rng.create seed in
  let sched = random_sched rng k.Kernels.Kernel.loop_sizes in
  let r = Specialize.make ~tier_b:true k sched in
  Alcotest.(check string)
    "interpreted walk" "interp"
    (Specialize.tier_name r.Specialize.tier);
  Alcotest.(check bool)
    "fallback counted" true
    (Rtrt_obs.Metrics.value fallbacks > before)

(* Pointing the compiler override at a nonexistent binary simulates a
   toolchain-free host: Tier B must degrade, not raise. *)
let test_no_toolchain_fallback () =
  with_metrics (fun () ->
      let k = Kernels.Irreg.of_dataset (Datagen.Generators.foil ~scale:96 ()) in
      with_env "RTRT_SPECIALIZE_OCAMLOPT" "/nonexistent/ocamlopt" (fun () ->
          fallback_to_interp ~seed:11 k))

(* A compiler that answers [-version] but fails every compile, after
   writing a partial output file: Tier B degrades to the interpreted
   walk and leaves no scratch file (partial .cmxs, log, source) in the
   spec cache dir. *)
let test_compile_failure_cleans_up () =
  with_metrics (fun () ->
      let dir = Filename.temp_file "rtrt_spec_fail" "" in
      Sys.remove dir;
      Unix.mkdir dir 0o755;
      let cc = Filename.concat dir "fake-ocamlopt" in
      Out_channel.with_open_bin cc (fun oc ->
          output_string oc
            "#!/bin/sh
             if [ \"$1\" = -version ]; then echo 5.1.1; exit 0; fi
             while [ $# -gt 0 ]; do
            \  if [ \"$1\" = -o ]; then shift; printf partial > \"$1\"; fi
            \  shift
             done
             exit 1
");
      Unix.chmod cc 0o755;
      let k = Kernels.Irreg.of_dataset (Datagen.Generators.foil ~scale:96 ()) in
      with_env "RTRT_PLAN_CACHE_DIR" dir (fun () ->
          with_env "RTRT_SPECIALIZE_OCAMLOPT" cc (fun () ->
              fallback_to_interp ~seed:17 k));
      let spec_dir = Filename.concat dir "spec" in
      let leftovers =
        if Sys.file_exists spec_dir then Array.to_list (Sys.readdir spec_dir)
        else []
      in
      Alcotest.(check (list string)) "no scratch files left" [] leftovers)

(* ------------------------------------------------------------------ *)
(* Validated-once memos (satellite: skip O(rows) re-validation on
   plan-cache hits) *)

let test_check_fits_memo () =
  with_metrics (fun () ->
      let n = 40 in
      let s = Schedule.of_tile_fns [| tf 2 (Array.init n (fun i -> i mod 2)) |] in
      let skips = Rtrt_obs.Metrics.counter "plancache.schedule_check_skips" in
      Alcotest.(check bool)
        "first scan" true
        (Schedule.check_fits s ~loop_sizes:[| n |]);
      let before = Rtrt_obs.Metrics.value skips in
      Alcotest.(check bool)
        "memoized" true
        (Schedule.check_fits s ~loop_sizes:[| n |]);
      Alcotest.(check int)
        "skip counted" (before + 1)
        (Rtrt_obs.Metrics.value skips);
      (* Different claimed sizes must not reuse the memo (and must
         fail). *)
      Alcotest.(check bool)
        "different sizes rescan" false
        (Schedule.check_fits s ~loop_sizes:[| n / 2 |]))

let test_coverage_memo_from_construction () =
  with_metrics (fun () ->
      let n = 40 in
      let s = Schedule.of_tile_fns [| tf 4 (Array.init n (fun i -> i / 10)) |] in
      let skips = Rtrt_obs.Metrics.counter "plancache.coverage_check_skips" in
      let before = Rtrt_obs.Metrics.value skips in
      (* of_tile_fns proved coverage by construction; the first
         explicit check is already a skip. *)
      Alcotest.(check bool)
        "covered" true
        (Schedule.check_coverage s ~loop_sizes:[| n |]);
      Alcotest.(check int)
        "constructed coverage skips" (before + 1)
        (Rtrt_obs.Metrics.value skips))

let test_endpoint_scan_memo () =
  with_metrics (fun () ->
      let d = Datagen.Generators.foil ~scale:128 () in
      let k = Kernels.Irreg.of_dataset d in
      let rng = Datagen.Rng.create 3 in
      let sched = random_sched rng k.Kernels.Kernel.loop_sizes in
      let skips = Rtrt_obs.Metrics.counter "plancache.endpoint_scan_skips" in
      k.Kernels.Kernel.run_tiled sched ~steps:1;
      let before = Rtrt_obs.Metrics.value skips in
      k.Kernels.Kernel.run_tiled sched ~steps:1;
      Alcotest.(check bool)
        "endpoint rescan skipped" true
        (Rtrt_obs.Metrics.value skips > before);
      (* A data permutation rebuilds the index arrays: the memo must
         not survive it. *)
      let k' =
        Kernels.Kernel.apply_data_perm k
          (Reorder.Perm.id k.Kernels.Kernel.n_nodes)
      in
      let mid = Rtrt_obs.Metrics.value skips in
      let sched' = random_sched rng k'.Kernels.Kernel.loop_sizes in
      k'.Kernels.Kernel.run_tiled sched' ~steps:1;
      k'.Kernels.Kernel.run_tiled sched' ~steps:1;
      Alcotest.(check bool)
        "fresh state scans then skips" true
        (Rtrt_obs.Metrics.value skips > mid))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "specialize"
    [
      ( "shape",
        [
          Alcotest.test_case "identity block" `Quick test_shape_identity;
          Alcotest.test_case "single-run rows" `Quick test_shape_single_run_rows;
          Alcotest.test_case "adversarial alternating" `Quick
            test_shape_adversarial_alternating;
          Alcotest.test_case "ragged tiles" `Quick test_shape_ragged;
        ] );
      ( "tier-b",
        [
          Alcotest.test_case "codegen bitwise (pair kernels)" `Quick
            test_codegen_bitwise;
          Alcotest.test_case "codegen bitwise (gauss-seidel)" `Quick
            test_codegen_gs_bitwise;
          Alcotest.test_case "source dump" `Quick test_codegen_source_dump;
          Alcotest.test_case "no-toolchain fallback" `Quick
            test_no_toolchain_fallback;
          Alcotest.test_case "compile failure cleans up" `Quick
            test_compile_failure_cleans_up;
        ]
        @ qsuite [ prop_codegen_random ] );
      ( "memos",
        [
          Alcotest.test_case "check_fits memo" `Quick test_check_fits_memo;
          Alcotest.test_case "coverage memo from construction" `Quick
            test_coverage_memo_from_construction;
          Alcotest.test_case "endpoint scan memo" `Quick test_endpoint_scan_memo;
        ] );
    ]
