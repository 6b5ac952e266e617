(* Tests for the plan-cache subsystem: fingerprint stability and
   sensitivity, memory-tier hit/miss accounting, bit-identical warm
   replay (the headline guarantee), the on-disk tier including
   corruption recovery, LRU eviction, metrics visibility, and the
   Experiment.measure integration. *)

module F = Rtrt_plancache.Fingerprint
module Cache = Rtrt_plancache.Cache
open Compose

let with_memory_sink f =
  let sink, events = Rtrt_obs.Sink.memory () in
  Rtrt_obs.set_sink sink;
  Fun.protect ~finally:Rtrt_obs.disable f;
  events ()

let test_kernel ?(name = "moldyn") () =
  let scale = 512 in
  let d =
    match name with
    | "moldyn" -> Datagen.Generators.mol1 ~scale ()
    | _ -> Datagen.Generators.foil ~scale ()
  in
  (Option.get (Kernels.by_name name)) d

let tiled_plan = Plan.with_fst ~seed_part_size:24 Plan.cpack_lexgroup

(* A fresh empty directory under the system temp dir. *)
let fresh_dir () =
  let f = Filename.temp_file "rtrt_plancache" "" in
  Sys.remove f;
  f

let key_of_string s =
  let b = F.create () in
  F.add_string b s;
  F.value b

let dummy_entry n =
  {
    Cache.sigma_total = Reorder.Perm.id n;
    delta_total = Reorder.Perm.id n;
    schedule = None;
    reordering_fns = [];
    n_data_remaps = 0;
    cold_inspector_seconds = 0.5;
  }

(* ------------------------------------------------------------------ *)
(* Fingerprints                                                        *)

let test_fingerprint_stable () =
  let kernel = test_kernel () in
  let a = Inspector.fingerprint tiled_plan kernel in
  let b = Inspector.fingerprint tiled_plan kernel in
  Alcotest.(check bool) "same inputs, same key" true (F.equal a b);
  Alcotest.(check string) "same hex" (F.to_hex a) (F.to_hex b);
  Alcotest.(check int) "hex is 16 chars" 16 (String.length (F.to_hex a))

let test_fingerprint_sensitive () =
  let kernel = test_kernel () in
  let base = Inspector.fingerprint tiled_plan kernel in
  let distinct =
    [
      ("plan", Inspector.fingerprint Plan.cpack_lexgroup kernel);
      ( "plan parameter",
        Inspector.fingerprint
          (Plan.with_fst ~seed_part_size:32 Plan.cpack_lexgroup)
          kernel );
      ( "strategy",
        Inspector.fingerprint ~strategy:Inspector.Remap_each tiled_plan kernel
      );
      ( "symmetric-deps flag",
        Inspector.fingerprint ~share_symmetric_deps:false tiled_plan kernel );
      ("kernel", Inspector.fingerprint tiled_plan (test_kernel ~name:"irreg" ()));
    ]
  in
  List.iter
    (fun (what, k) ->
      Alcotest.(check bool) (what ^ " changes the key") false (F.equal base k))
    distinct

let test_fingerprint_ignores_plan_name () =
  let kernel = test_kernel () in
  let renamed = Plan.make ~name:"other-name" (Plan.transforms tiled_plan) in
  Alcotest.(check bool) "same transforms, same key" true
    (F.equal
       (Inspector.fingerprint tiled_plan kernel)
       (Inspector.fingerprint renamed kernel))

(* Golden values: plan-cache files and Tier B .cmxs files are named by
   these hashes, so any change to the byte stream (tags, widths,
   endianness, sign extension) would orphan every cache on disk. *)
let golden_fingerprints =
  let h ingredients =
    let b = F.create () in
    List.iter (fun add -> add b) ingredients;
    F.to_hex (F.value b)
  in
  [
    ("empty", h [], "cbf29ce484222325");
    ("int 0", h [ (fun b -> F.add_int b 0) ], "529a2cdc8ff533ac");
    ("int -1", h [ (fun b -> F.add_int b (-1)) ], "685cd83ad34b3424");
    ("int max_int", h [ (fun b -> F.add_int b max_int) ], "685d183ad34ba0e4");
    ("int min_int", h [ (fun b -> F.add_int b min_int) ], "5299ecdc8ff4c6ec");
    ( "int array",
      h
        [
          (fun b ->
            F.add_int_array b [| 0; 1; -1; 255; 256; 123456789; max_int; min_int |]);
        ],
      "c565e1435d9a3f32" );
    ("empty int array", h [ (fun b -> F.add_int_array b [||]) ], "985b2cc3d2245173");
    ("string", h [ (fun b -> F.add_string b "rtrt plan-cache \xff\x00") ], "f8baf2888dcc8f37");
    ("empty string", h [ (fun b -> F.add_string b "") ], "796ed797b92b1fd2");
    ("bool true", h [ (fun b -> F.add_bool b true) ], "08395307b4f1348c");
    ("bool false", h [ (fun b -> F.add_bool b false) ], "08395407b4f1363f");
    ("float 1.5", h [ (fun b -> F.add_float b 1.5) ], "05af56663e2b5c35");
    ("float -0.", h [ (fun b -> F.add_float b (-0.)) ], "04f157663d8a34e0");
    ("float -inf", h [ (fun b -> F.add_float b Float.neg_infinity) ], "059396663e134e3d");
    ( "mixed",
      h
        [
          (fun b -> F.add_string b "moldyn");
          (fun b -> F.add_int b 4096);
          (fun b -> F.add_int_array b (Array.init 100 (fun i -> (i * 7919) - 300)));
          (fun b -> F.add_bool b true);
          (fun b -> F.add_float b 0.1);
        ],
      "4d283a9fdfd6cfe8" );
  ]

let test_fingerprint_golden () =
  List.iter
    (fun (what, got, expected) -> Alcotest.(check string) what expected got)
    golden_fingerprints;
  Alcotest.(check string) "inspector key (moldyn, CL+FST)" "9e7c9cee0d937263"
    (F.to_hex (Inspector.fingerprint tiled_plan (test_kernel ())))

(* ------------------------------------------------------------------ *)
(* Memory tier: hit/miss and bit-identical replay                      *)

let check_results_identical label (cold : Inspector.result)
    (warm : Inspector.result) =
  Alcotest.(check bool) (label ^ ": sigma identical") true
    (Reorder.Perm.equal cold.Inspector.sigma_total warm.Inspector.sigma_total);
  Alcotest.(check bool) (label ^ ": delta identical") true
    (Reorder.Perm.equal cold.Inspector.delta_total warm.Inspector.delta_total);
  Alcotest.(check bool) (label ^ ": schedule identical") true
    (match (cold.Inspector.schedule, warm.Inspector.schedule) with
    | None, None -> true
    | Some a, Some b -> Reorder.Schedule.equal a b
    | _ -> false);
  List.iter2
    (fun (n1, p1) (n2, p2) ->
      Alcotest.(check string) (label ^ ": fn name") n1 n2;
      Alcotest.(check bool) (label ^ ": fn perm") true (Reorder.Perm.equal p1 p2))
    cold.Inspector.reordering_fns warm.Inspector.reordering_fns;
  Alcotest.(check bool) (label ^ ": transformed kernel bit-identical") true
    (Kernels.Kernel.snapshots_equal_bits
       (cold.Inspector.kernel.Kernels.Kernel.snapshot ())
       (warm.Inspector.kernel.Kernels.Kernel.snapshot ()));
  (* And the executors driven by the two results stay bit-identical. *)
  let run (r : Inspector.result) =
    let k = r.Inspector.kernel.Kernels.Kernel.copy () in
    (match r.Inspector.schedule with
    | None -> k.Kernels.Kernel.run ~steps:2
    | Some sched -> k.Kernels.Kernel.run_tiled sched ~steps:2);
    k.Kernels.Kernel.snapshot ()
  in
  Alcotest.(check bool) (label ^ ": executor output bit-identical") true
    (Kernels.Kernel.snapshots_equal_bits (run cold) (run warm))

let test_memory_hit_roundtrip () =
  let kernel = test_kernel () in
  let cache = Cache.create () in
  let cold = Inspector.run ~cache tiled_plan kernel in
  let s1 = Cache.stats cache in
  Alcotest.(check int) "first run misses" 1 s1.Cache.misses;
  Alcotest.(check int) "first run stores" 1 s1.Cache.stores;
  Alcotest.(check int) "no hit yet" 0 s1.Cache.hits;
  let warm = Inspector.run ~cache tiled_plan kernel in
  let s2 = Cache.stats cache in
  Alcotest.(check int) "second run hits" 1 s2.Cache.hits;
  Alcotest.(check int) "no new miss" 1 s2.Cache.misses;
  check_results_identical "memory tier" cold warm;
  (* The replay performed at most the one final remap. *)
  Alcotest.(check bool) "replay remaps at most once" true
    (warm.Inspector.n_data_remaps <= 1)

let test_cache_isolation () =
  (* A warm result must not alias cached state: mutating its kernel
     must not corrupt later replays. *)
  let kernel = test_kernel () in
  let cache = Cache.create () in
  let cold = Inspector.run ~cache tiled_plan kernel in
  let warm1 = Inspector.run ~cache tiled_plan kernel in
  warm1.Inspector.kernel.Kernels.Kernel.run ~steps:3;
  let warm2 = Inspector.run ~cache tiled_plan kernel in
  check_results_identical "after mutation" cold warm2

let test_validation_rejects_shape_mismatch () =
  (* An entry stored for one kernel shape must not serve another, even
     under a colliding key. *)
  let cache = Cache.create () in
  let key = key_of_string "shape" in
  Cache.store cache ~key (dummy_entry 8);
  Alcotest.(check bool) "matching shape hits" true
    (Cache.find cache ~key ~n_data:8 ~n_iter:8 ~loop_sizes:[| 8 |] <> None);
  Alcotest.(check bool) "mismatched shape misses" true
    (Cache.find cache ~key ~n_data:9 ~n_iter:8 ~loop_sizes:[| 8 |] = None)

let test_lru_eviction () =
  let cache = Cache.create ~mem_budget_bytes:1 () in
  Cache.store cache ~key:(key_of_string "a") (dummy_entry 16);
  Cache.store cache ~key:(key_of_string "b") (dummy_entry 16);
  let s = Cache.stats cache in
  Alcotest.(check int) "one entry resident" 1 s.Cache.entries;
  Alcotest.(check bool) "evicted at least once" true (s.Cache.evictions >= 1);
  Alcotest.(check bool) "older key evicted" true
    (Cache.peek cache ~key:(key_of_string "a") = None);
  Alcotest.(check bool) "newer key resident" true
    (Cache.peek cache ~key:(key_of_string "b") <> None)

(* ------------------------------------------------------------------ *)
(* Disk tier                                                           *)

(* When RTRT_PLAN_CACHE_DIR is set (the CI cold/warm leg), the test
   reuses it so a second `dune runtest` in the same job starts from
   populated files and exercises the load-validate path for real. *)
let disk_dir () =
  match Cache.dir_from_env () with
  | Some d -> Filename.concat d "test-disk-tier"
  | None -> fresh_dir ()

let test_disk_roundtrip () =
  let kernel = test_kernel () in
  let dir = disk_dir () in
  let cold = Inspector.run ~cache:(Cache.create ~dir ()) tiled_plan kernel in
  let hex = F.to_hex (Inspector.fingerprint tiled_plan kernel) in
  Alcotest.(check bool) "entry file written" true
    (Sys.file_exists (Filename.concat dir (hex ^ ".json")));
  (* A brand-new cache (fresh process, in spirit) must hit via disk. *)
  let cache2 = Cache.create ~dir () in
  let warm = Inspector.run ~cache:cache2 tiled_plan kernel in
  let s = Cache.stats cache2 in
  Alcotest.(check int) "disk hit" 1 s.Cache.disk_hits;
  Alcotest.(check int) "hit" 1 s.Cache.hits;
  Alcotest.(check int) "no disk error" 0 s.Cache.disk_errors;
  check_results_identical "disk tier" cold warm

(* Entry files written before the executor shape analysis was retired
   carry a "shape" member after "schedule"; the loader ignores it, so
   such a file is still a hit and replays bit-identically. *)
let test_disk_ignores_legacy_shape () =
  let kernel = test_kernel () in
  let dir = fresh_dir () in
  let cold = Inspector.run ~cache:(Cache.create ~dir ()) tiled_plan kernel in
  let hex = F.to_hex (Inspector.fingerprint tiled_plan kernel) in
  let path = Filename.concat dir (hex ^ ".json") in
  let module J = Rtrt_obs.Json in
  let sched = Option.get cold.Inspector.schedule in
  let legacy_shape =
    J.Obj
      [
        ( "rows",
          J.Int (Reorder.Schedule.n_tiles sched * Reorder.Schedule.n_loops sched)
        );
        ("total_items", J.Int (Reorder.Schedule.total_iterations sched));
        ("runs", J.Int 10);
        ("identity_rows", J.Int 2);
        ("max_run", J.Int 40);
        ("single_loop", J.Bool false);
        ("uniform_tile_items", J.Null);
        ("avg_run_len", J.Float 10.0);
      ]
  in
  let with_shape =
    match J.of_string_exn (In_channel.with_open_bin path In_channel.input_all) with
    | J.Obj members ->
      J.Obj
        (List.concat_map
           (fun ((name, _) as m) ->
             if name = "schedule" then [ m; ("shape", legacy_shape) ] else [ m ])
           members)
    | _ -> Alcotest.fail "entry file is not a JSON object"
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (J.to_string with_shape));
  let cache = Cache.create ~dir () in
  let warm = Inspector.run ~cache tiled_plan kernel in
  let s = Cache.stats cache in
  Alcotest.(check int) "disk hit" 1 s.Cache.disk_hits;
  Alcotest.(check int) "no disk error" 0 s.Cache.disk_errors;
  check_results_identical "legacy shape member" cold warm

let test_disk_corruption_degrades_to_miss () =
  let kernel = test_kernel () in
  let dir = fresh_dir () in
  let reference = Inspector.run tiled_plan kernel in
  ignore (Inspector.run ~cache:(Cache.create ~dir ()) tiled_plan kernel);
  let hex = F.to_hex (Inspector.fingerprint tiled_plan kernel) in
  let path = Filename.concat dir (hex ^ ".json") in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "{ not json at all");
  let cache = Cache.create ~dir () in
  let r = Inspector.run ~cache tiled_plan kernel in
  let s = Cache.stats cache in
  Alcotest.(check int) "corrupt file is a miss" 1 s.Cache.misses;
  Alcotest.(check int) "disk error counted" 1 s.Cache.disk_errors;
  check_results_identical "after corruption" reference r;
  (* The miss re-inspected and re-stored a good entry. *)
  let cache2 = Cache.create ~dir () in
  let warm = Inspector.run ~cache:cache2 tiled_plan kernel in
  Alcotest.(check int) "rewritten entry hits again" 1
    (Cache.stats cache2).Cache.hits;
  check_results_identical "after rewrite" reference warm

let test_disk_rejects_non_bijective_perm () =
  (* Well-formed JSON whose sigma is not a permutation must degrade to
     a miss, never produce a bogus reordering. *)
  let dir = fresh_dir () in
  let cache0 = Cache.create ~dir () in
  ignore cache0;
  let key = key_of_string "bad-perm" in
  let path = Filename.concat dir (F.to_hex key ^ ".json") in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        (Fmt.str
           {|{"version":2,"key":"%s","sigma":[0,0],"delta":[0,1],"schedule":null,"fns":[],"n_data_remaps":0,"cold_inspector_seconds":0.0}|}
           (F.to_hex key)));
  let cache = Cache.create ~dir () in
  Alcotest.(check bool) "non-bijective sigma is a miss" true
    (Cache.find cache ~key ~n_data:2 ~n_iter:2 ~loop_sizes:[| 2 |] = None);
  Alcotest.(check int) "disk error counted" 1
    (Cache.stats cache).Cache.disk_errors

let test_disk_rejects_stale_format_version () =
  (* A version-1 file (nested "tiles" schedule shape, from before the
     flat-CSR migration) must degrade to a miss, never crash — the
     re-inspection then overwrites it in the v2 flat shape. *)
  let dir = fresh_dir () in
  let key = key_of_string "stale-v1" in
  let path = Filename.concat dir (F.to_hex key ^ ".json") in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        (Fmt.str
           {|{"version":1,"key":"%s","sigma":[0,1],"delta":[0,1],"schedule":{"n_tiles":1,"n_loops":1,"tiles":[[[0,1]]]},"fns":[],"n_data_remaps":0,"cold_inspector_seconds":0.0}|}
           (F.to_hex key)));
  let cache = Cache.create ~dir () in
  Alcotest.(check bool) "v1 entry is a miss" true
    (Cache.find cache ~key ~n_data:2 ~n_iter:2 ~loop_sizes:[| 2 |] = None);
  Alcotest.(check int) "disk error counted" 1
    (Cache.stats cache).Cache.disk_errors;
  (* Storing through the current code writes the flat v2 shape. *)
  Cache.store cache ~key (dummy_entry 2);
  let contents = In_channel.with_open_bin path In_channel.input_all in
  let has_sub s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "rewritten as version 2" true
    (has_sub contents {|"version":2|})

(* ------------------------------------------------------------------ *)
(* Metrics and Experiment integration                                  *)

let test_metrics_visible () =
  ignore
    (with_memory_sink (fun () ->
         Rtrt_obs.Metrics.reset ();
         let kernel = test_kernel () in
         let cache = Cache.create () in
         ignore (Inspector.run ~cache tiled_plan kernel);
         ignore (Inspector.run ~cache tiled_plan kernel);
         let dump = Rtrt_obs.Metrics.dump () in
         let v name = List.assoc_opt name dump in
         Alcotest.(check (option (float 0.0))) "plancache.hit" (Some 1.0)
           (v "plancache.hit");
         Alcotest.(check (option (float 0.0))) "plancache.miss" (Some 1.0)
           (v "plancache.miss");
         Alcotest.(check (option (float 0.0))) "plancache.store" (Some 1.0)
           (v "plancache.store");
         Alcotest.(check bool) "plancache.bytes gauge set" true
           (match v "plancache.bytes" with Some b -> b > 0.0 | None -> false)))

let test_measure_reports_traffic () =
  let kernel = test_kernel () in
  let cache = Cache.create () in
  let machine = Cachesim.Machine.pentium4 in
  let m1 =
    Harness.Experiment.measure ~cache ~trace_steps_n:1 ~wall_steps:1 ~machine
      ~plan:tiled_plan kernel
  in
  let m2 =
    Harness.Experiment.measure ~cache ~trace_steps_n:1 ~wall_steps:1 ~machine
      ~plan:tiled_plan kernel
  in
  (match (m1.Harness.Experiment.plancache, m2.Harness.Experiment.plancache) with
  | Some pc1, Some pc2 ->
    Alcotest.(check bool) "first is a miss" false
      pc1.Harness.Experiment.pc_hit;
    Alcotest.(check bool) "second is a hit" true pc2.Harness.Experiment.pc_hit;
    Alcotest.(check int) "one hit total" 1 pc2.Harness.Experiment.pc_hits;
    Alcotest.(check int) "one miss total" 1 pc2.Harness.Experiment.pc_misses;
    Alcotest.(check (float 0.0)) "cold cost carried over"
      pc1.Harness.Experiment.pc_cold_inspector_seconds
      pc2.Harness.Experiment.pc_cold_inspector_seconds;
    Alcotest.(check bool) "replay cheaper than or equal to cold" true
      (m2.Harness.Experiment.inspector_seconds
      <= pc2.Harness.Experiment.pc_cold_inspector_seconds)
  | _ -> Alcotest.fail "expected plancache reports");
  (* Cached-vs-uncached break-even: with a positive saving, the cached
     side never needs more steps than the uncached side. *)
  let base =
    { m2 with Harness.Experiment.executor_seconds_per_step = 1.0 }
  in
  let faster =
    { m2 with Harness.Experiment.executor_seconds_per_step = 0.5 }
  in
  match Harness.Experiment.amortization_cached ~base faster with
  | Some (uncached, cached) ->
    Alcotest.(check bool) "cached pays off no later" true (cached <= uncached)
  | None -> Alcotest.fail "expected a break-even pair"

let () =
  Alcotest.run "plancache"
    [
      ( "fingerprint",
        [
          Alcotest.test_case "stable" `Quick test_fingerprint_stable;
          Alcotest.test_case "sensitive" `Quick test_fingerprint_sensitive;
          Alcotest.test_case "ignores plan name" `Quick
            test_fingerprint_ignores_plan_name;
          Alcotest.test_case "golden values" `Quick test_fingerprint_golden;
        ] );
      ( "memory tier",
        [
          Alcotest.test_case "hit roundtrip" `Quick test_memory_hit_roundtrip;
          Alcotest.test_case "isolation" `Quick test_cache_isolation;
          Alcotest.test_case "shape validation" `Quick
            test_validation_rejects_shape_mismatch;
          Alcotest.test_case "lru eviction" `Quick test_lru_eviction;
        ] );
      ( "disk tier",
        [
          Alcotest.test_case "roundtrip" `Quick test_disk_roundtrip;
          Alcotest.test_case "corruption -> miss" `Quick
            test_disk_corruption_degrades_to_miss;
          Alcotest.test_case "non-bijective perm -> miss" `Quick
            test_disk_rejects_non_bijective_perm;
          Alcotest.test_case "stale v1 format -> miss" `Quick
            test_disk_rejects_stale_format_version;
          Alcotest.test_case "legacy shape member -> hit" `Quick
            test_disk_ignores_legacy_shape;
        ] );
      ( "integration",
        [
          Alcotest.test_case "metrics visible" `Quick test_metrics_visible;
          Alcotest.test_case "measure reports traffic" `Quick
            test_measure_reports_traffic;
        ] );
    ]
