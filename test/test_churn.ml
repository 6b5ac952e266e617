(* Plan repair under graph churn must be a pure cost optimization:
   after rewiring k% of interactions, [Compose.Repair.repair] must be
   bit-identical — schedule, reordering functions, and executor
   results — to regrowing the frozen plan from scratch over the
   churned access, on every kernel, serial and pooled, across chained
   churn rounds. The churn itself must preserve the degree multiset
   and be deterministic under the figure RNG, and repaired plans must
   interoperate with the plan cache and the staged specializer without
   replaying anything stale. *)

open Compose

let dataset_of (n, pairs) =
  {
    Datagen.Dataset.name = "rand";
    n_nodes = n;
    left = Array.map fst pairs;
    right = Array.map snd pairs;
    coords = None;
  }

let kernels_under_test =
  [
    ("moldyn", Kernels.Moldyn.of_dataset);
    ("nbf", Kernels.Nbf.of_dataset);
    ("irreg", Kernels.Irreg.of_dataset);
    ("cg", Kernels.Cg.of_dataset);
  ]

(* ------------------------------------------------------------------ *)
(* Random full-sparse-tiling plans (repair's supported growth). *)

let gen_prefix_transform =
  QCheck.Gen.(
    let* pick = int_range 0 5 in
    let* sz = int_range 4 16 in
    return
      (match pick with
      | 0 -> Transform.(Data_reorder Cpack)
      | 1 -> Transform.(Data_reorder (Gpart { part_size = sz }))
      | 2 -> Transform.(Data_reorder Rcm)
      | 3 -> Transform.(Iter_reorder Lexgroup)
      | _ -> Transform.(Iter_reorder Lexsort)))

let gen_fst_plan =
  QCheck.Gen.(
    let* prefix_len = int_range 1 2 in
    let* prefix = list_repeat prefix_len gen_prefix_transform in
    let* seed_sz = int_range 4 16 in
    let* seed =
      oneofl
        Transform.
          [
            Seed_block { part_size = seed_sz };
            Seed_gpart { part_size = seed_sz };
          ]
    in
    let* tile_pack = bool in
    let tail =
      Transform.Sparse_tile { growth = Transform.Full; seed }
      ::
      (if tile_pack then [ Transform.(Data_reorder Tile_pack) ] else [])
    in
    return (Plan.make ~name:"rand-fst" (prefix @ tail)))

let arb_case =
  QCheck.make
    ~print:(fun ((n, e, churn_seed), plan) ->
      Fmt.str "n=%d m=%d churn_seed=%d plan=%a" n (Array.length e) churn_seed
        Plan.pp plan)
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
      let* churn_seed = int_range 0 10_000 in
      let* plan = gen_fst_plan in
      return ((n, pairs, churn_seed), plan))

(* ------------------------------------------------------------------ *)
(* Bit-identity of two inspector results, including executor output *)

let schedules_equal a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> Reorder.Schedule.equal a b
  | _ -> false

let exec_bits (r : Inspector.result) =
  let k = r.kernel.Kernels.Kernel.copy () in
  (match r.schedule with
  | Some s -> k.Kernels.Kernel.run_tiled s ~steps:2
  | None -> k.Kernels.Kernel.run ~steps:2);
  k.Kernels.Kernel.snapshot ()

let results_equal (a : Inspector.result) (b : Inspector.result) =
  Reorder.Perm.equal a.sigma_total b.sigma_total
  && Reorder.Perm.equal a.delta_total b.delta_total
  && schedules_equal a.schedule b.schedule
  && Kernels.Kernel.snapshots_equal_bits
       (a.kernel.Kernels.Kernel.snapshot ())
       (b.kernel.Kernels.Kernel.snapshot ())
  && Kernels.Kernel.snapshots_equal_bits (exec_bits a) (exec_bits b)

(* ------------------------------------------------------------------ *)
(* Churn invariants: degree multiset preserved, deterministic *)

let degrees (d : Datagen.Dataset.t) =
  let deg = Array.make d.n_nodes 0 in
  Array.iter (fun v -> deg.(v) <- deg.(v) + 1) d.left;
  Array.iter (fun v -> deg.(v) <- deg.(v) + 1) d.right;
  deg

let prop_churn_degree_preserving =
  QCheck.Test.make ~name:"churn preserves the degree multiset" ~count:100
    arb_case (fun ((n, pairs, seed), _) ->
      let d = dataset_of (n, pairs) in
      let churned, damage =
        Datagen.Churn.rewire ~rng:(Datagen.Rng.create seed) ~fraction:0.1 d
      in
      degrees churned = degrees d
      && Array.length churned.Datagen.Dataset.left = Array.length d.left
      && Datagen.Churn.damaged_edges damage
         <= damage.Datagen.Churn.requested_edges * 2)

let prop_churn_deterministic =
  QCheck.Test.make ~name:"churn is deterministic under the figure RNG"
    ~count:50 arb_case (fun ((n, pairs, seed), _) ->
      let d = dataset_of (n, pairs) in
      let c1, g1 =
        Datagen.Churn.rewire ~rng:(Datagen.Rng.create seed) ~fraction:0.05 d
      in
      let c2, g2 =
        Datagen.Churn.rewire ~rng:(Datagen.Rng.create seed) ~fraction:0.05 d
      in
      c1.Datagen.Dataset.left = c2.Datagen.Dataset.left
      && c1.Datagen.Dataset.right = c2.Datagen.Dataset.right
      && g1.Datagen.Churn.rewired = g2.Datagen.Churn.rewired
      && g1.Datagen.Churn.touched_nodes = g2.Datagen.Churn.touched_nodes)

(* ------------------------------------------------------------------ *)
(* The contract: repair(churn(d, k)) == frozen regrowth, bit for bit,
   on every kernel, at k in {1, 5, 10}%, across two chained rounds. *)

let repair_matches_regrow ?pool ~fraction ~rounds plan of_dataset d seed =
  let kernel = of_dataset d in
  let cold = Inspector.run ?pool plan kernel in
  let state = Repair.prepare plan cold in
  (match Repair.supported state with
  | Ok () -> ()
  | Error r -> QCheck.Test.fail_reportf "unsupported FST plan: %s" r);
  let rng = Datagen.Rng.create seed in
  let rec go d round =
    round > rounds
    ||
    let churned, damage = Datagen.Churn.rewire ~rng ~fraction d in
    let kernel' = of_dataset churned in
    let repaired, info =
      Repair.repair ?pool ~policy:`Repair ~verify:true state kernel' ~damage
    in
    let reference = Repair.regrow ?pool state kernel' in
    (not info.Repair.fell_back)
    && info.Repair.verified = Some true
    && results_equal repaired reference
    && go churned (round + 1)
  in
  go d 1

let prop_repair_bit_identical =
  QCheck.Test.make
    ~name:"repair = frozen regrowth (all kernels, 1/5/10%, chained)"
    ~count:20 arb_case (fun ((n, pairs, seed), plan) ->
      QCheck.assume (Result.is_ok (Plan.validate plan));
      let d = dataset_of (n, pairs) in
      List.for_all
        (fun (_, of_dataset) ->
          List.for_all
            (fun fraction ->
              repair_matches_regrow ~fraction ~rounds:2 plan of_dataset d seed)
            [ 0.01; 0.05; 0.10 ])
        kernels_under_test)

let prop_repair_pooled =
  QCheck.Test.make ~name:"pooled repair/regrow = serial" ~count:8 arb_case
    (fun ((n, pairs, seed), plan) ->
      QCheck.assume (Result.is_ok (Plan.validate plan));
      let d = dataset_of (n, pairs) in
      List.for_all
        (fun domains ->
          Rtrt_par.Pool.with_pool ~domains (fun pool ->
              repair_matches_regrow ~pool ~fraction:0.05 ~rounds:1 plan
                Kernels.Moldyn.of_dataset d seed))
        [ 1; 2; 4 ])

(* Plans without sparse tiling repair by pure frozen replay. *)
let prop_repair_pure_replay =
  QCheck.Test.make ~name:"pure-replay repair (no tiling)" ~count:15 arb_case
    (fun ((n, pairs, seed), _) ->
      let d = dataset_of (n, pairs) in
      repair_matches_regrow ~fraction:0.05 ~rounds:1 Plan.cpack_lexgroup
        Kernels.Nbf.of_dataset d seed)

(* ------------------------------------------------------------------ *)
(* Fallback paths *)

let fst_plan = Plan.with_fst ~seed_part_size:16 Plan.cpack_lexgroup

let mol1 () = Option.get (Datagen.Generators.by_name ~scale:512 "mol1")

let churn ?(fraction = 0.05) ?(seed = 7) d =
  Datagen.Churn.rewire ~rng:(Datagen.Rng.create seed) ~fraction d

(* Heavy damage takes the cold path and re-seeds the state; the result
   must be a genuine fresh inspection. *)
let test_auto_fallback () =
  let d = mol1 () in
  let kernel = Kernels.Moldyn.of_dataset d in
  let cold = Inspector.run fst_plan kernel in
  let state = Repair.prepare fst_plan cold in
  let churned, damage = churn ~fraction:0.6 d in
  let kernel' = Kernels.Moldyn.of_dataset churned in
  let repaired, info = Repair.repair state kernel' ~damage in
  Alcotest.(check bool) "fell back" true info.Repair.fell_back;
  Alcotest.(check bool)
    "matches a cold inspection" true
    (results_equal repaired (Inspector.run fst_plan kernel'));
  (* ... and the re-seeded state repairs incrementally again. *)
  let churned2, damage2 = churn ~seed:8 churned in
  let kernel2 = Kernels.Moldyn.of_dataset churned2 in
  let repaired2, info2 =
    Repair.repair ~policy:`Repair ~verify:true state kernel2 ~damage:damage2
  in
  Alcotest.(check bool) "second round incremental" false info2.Repair.fell_back;
  Alcotest.(check bool)
    "second round = regrowth" true
    (results_equal repaired2 (Repair.regrow state kernel2))

(* Cache-block growth is not incrementally repairable: the state says
   so and every repair is a (correct) cold fallback. *)
let test_cache_block_unsupported () =
  let d = mol1 () in
  let plan = Plan.with_cache_block ~seed_part_size:16 Plan.cpack in
  let kernel = Kernels.Moldyn.of_dataset d in
  let cold = Inspector.run plan kernel in
  let state = Repair.prepare plan cold in
  Alcotest.(check bool)
    "unsupported" true
    (Result.is_error (Repair.supported state));
  let churned, damage = churn d in
  let kernel' = Kernels.Moldyn.of_dataset churned in
  let repaired, info = Repair.repair ~policy:`Repair state kernel' ~damage in
  Alcotest.(check bool) "falls back" true info.Repair.fell_back;
  Alcotest.(check bool)
    "fallback is a cold inspection" true
    (results_equal repaired (Inspector.run plan kernel'))

(* ------------------------------------------------------------------ *)
(* The repair adjacency under a hand-built batch *)

(* A ring over 16 nodes plus chords; node 0 starts with degree 3. *)
let ring_dataset () =
  dataset_of
    ( 16,
      [|
        (0, 1); (0, 2); (0, 3); (3, 4); (5, 6); (6, 7); (7, 8); (8, 9);
        (9, 10); (10, 11); (11, 12); (12, 13); (13, 14); (14, 15); (15, 1);
        (2, 5); (4, 9); (1, 12);
      |] )

(* Apply hand-written rewires [(j, (old_l, old_r), (new_l, new_r))];
   every endpoint of a rewire counts as touched (recomputing an
   unchanged node is harmless). *)
let hand_churn (d : Datagen.Dataset.t) rewired =
  let left = Array.copy d.Datagen.Dataset.left in
  let right = Array.copy d.Datagen.Dataset.right in
  Array.iter
    (fun (j, _, (nl, nr)) ->
      left.(j) <- nl;
      right.(j) <- nr)
    rewired;
  let touched =
    Array.to_list rewired
    |> List.concat_map (fun (_, (ol, or_), (nl, nr)) -> [ ol; or_; nl; nr ])
    |> List.sort_uniq compare |> Array.of_list
  in
  ( { d with Datagen.Dataset.left; right },
    {
      Datagen.Churn.rewired;
      touched_nodes = touched;
      requested_edges = Array.length rewired;
      swaps = 0;
    } )

(* One batch in which node 0 first loses all 3 incident interactions
   and then gains 4 (more than its seeded row holds, so the row must
   grow), while node 3 is touched by three records (gains one
   interaction, loses and regains another, loses a third). *)
let test_adjacency_row_growth () =
  let d = ring_dataset () in
  let plan = Plan.with_fst ~seed_part_size:4 Plan.cpack_lexgroup in
  let kernel = Kernels.Moldyn.of_dataset d in
  let state = Repair.prepare plan (Inspector.run plan kernel) in
  let churned, damage =
    hand_churn d
      [|
        (0, (0, 1), (3, 5));
        (1, (0, 2), (4, 6));
        (2, (0, 3), (7, 3));
        (3, (3, 4), (0, 9));
        (4, (5, 6), (0, 10));
        (5, (6, 7), (0, 11));
        (6, (7, 8), (0, 13));
      |]
  in
  let kernel' = Kernels.Moldyn.of_dataset churned in
  let repaired, info =
    Repair.repair ~policy:`Repair ~verify:true state kernel' ~damage
  in
  Alcotest.(check bool) "incremental" false info.Repair.fell_back;
  Alcotest.(check (option bool)) "verified" (Some true) info.Repair.verified;
  Alcotest.(check bool)
    "repair = regrowth" true
    (results_equal repaired (Repair.regrow state kernel'));
  (* A rewire whose old endpoints do not hold the interaction is
     rejected, not silently absorbed. *)
  let state = Repair.prepare plan (Inspector.run plan kernel) in
  let bogus, damage = hand_churn d [| (4, (0, 1), (0, 6)) |] in
  match
    Repair.repair ~policy:`Repair state (Kernels.Moldyn.of_dataset bogus)
      ~damage
  with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
    Alcotest.(check bool)
      "names the missing incidence" true
      (Str.string_match (Str.regexp ".*not incident on node") msg 0)

(* ------------------------------------------------------------------ *)
(* Plan-cache and specialization interplay *)

let test_plancache_interop () =
  let d = mol1 () in
  let kernel = Kernels.Moldyn.of_dataset d in
  let cache = Rtrt_plancache.Cache.create () in
  let cold = Inspector.run ~cache fst_plan kernel in
  let state = Repair.prepare fst_plan cold in
  let churned, damage = churn d in
  let kernel' = Kernels.Moldyn.of_dataset churned in
  (* Content addressing: the pre-churn entry cannot replay against the
     churned kernel — its key is gone. *)
  Alcotest.(check bool)
    "churn re-fingerprints the cold key" false
    (Rtrt_plancache.Fingerprint.equal
       (Inspector.fingerprint fst_plan kernel)
       (Inspector.fingerprint fst_plan kernel'));
  (* The repair key is distinct from the churned kernel's cold key:
     the repaired entry never shadows a cold inspection. *)
  Alcotest.(check bool)
    "repair key distinct from cold key" false
    (Rtrt_plancache.Fingerprint.equal
       (Repair.fingerprint state kernel')
       (Inspector.fingerprint fst_plan kernel'));
  let repaired, info =
    Repair.repair ~cache ~policy:`Repair state kernel' ~damage
  in
  Alcotest.(check bool) "first repair stores" false info.Repair.cache_replayed;
  Alcotest.(check bool)
    "moved something (churn was real)" true
    (info.Repair.tiles_moved > 0);
  (* A second process arriving at the same churned state replays the
     stored repair and verifies it against its own splice. *)
  let state2 = Repair.prepare fst_plan (Inspector.run fst_plan kernel) in
  let repaired2, info2 =
    Repair.repair ~cache ~policy:`Repair state2 kernel' ~damage
  in
  Alcotest.(check bool) "second repair replays" true info2.Repair.cache_replayed;
  Alcotest.(check bool)
    "replayed repair bit-identical" true
    (results_equal repaired repaired2)

(* The spliced schedule has its own specialization key: nothing
   compiled for the pre-churn schedule can be replayed against it. *)
let test_no_stale_specialization () =
  let d = mol1 () in
  let kernel = Kernels.Moldyn.of_dataset d in
  let cold = Inspector.run fst_plan kernel in
  let state = Repair.prepare fst_plan cold in
  let old_sched = Option.get cold.Inspector.schedule in
  let old_spec = Specialize.make kernel old_sched in
  let churned, damage = churn d in
  let kernel' = Kernels.Moldyn.of_dataset churned in
  let repaired, info = Repair.repair ~policy:`Repair state kernel' ~damage in
  Alcotest.(check bool) "moved something" true (info.Repair.tiles_moved > 0);
  let new_sched = Option.get repaired.Inspector.schedule in
  let new_spec = Specialize.make repaired.Inspector.kernel new_sched in
  Alcotest.(check bool)
    "specialization key re-fingerprints" true
    (Specialize.key old_spec <> Specialize.key new_spec)

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "churn"
    [
      ( "datagen",
        qsuite [ prop_churn_degree_preserving; prop_churn_deterministic ] );
      ( "bit-identity",
        qsuite
          [
            prop_repair_bit_identical;
            prop_repair_pooled;
            prop_repair_pure_replay;
          ] );
      ( "fallback",
        [
          Alcotest.test_case "auto fallback past the damage threshold" `Quick
            test_auto_fallback;
          Alcotest.test_case "cache-block plans fall back" `Quick
            test_cache_block_unsupported;
        ] );
      ( "adjacency",
        [
          Alcotest.test_case "row growth and repeat touches" `Quick
            test_adjacency_row_growth;
        ] );
      ( "interop",
        [
          Alcotest.test_case "plan cache: repair keys and replay" `Quick
            test_plancache_interop;
          Alcotest.test_case "no stale specialization" `Quick
            test_no_stale_specialization;
        ] );
    ]
