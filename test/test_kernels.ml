(* Tests for the benchmark kernels: executor correctness under every
   transformation (transformed results must match the original run
   after un-permuting), trace/plain consistency, and the Gauss-Seidel
   sparse tiling (bitwise equality with the plain smoother). *)

let small_dataset () = Datagen.Generators.foil ~scale:512 ()
let mol_dataset () = Datagen.Generators.mol1 ~scale:512 ()

let kernels () =
  [
    ("irreg", Kernels.Irreg.of_dataset (small_dataset ()));
    ("nbf", Kernels.Nbf.of_dataset (small_dataset ()));
    ("moldyn", Kernels.Moldyn.of_dataset (mol_dataset ()));
    ("cg", Kernels.Cg.of_dataset (small_dataset ()));
  ]

let check_close name s1 s2 =
  Alcotest.(check bool)
    (Fmt.str "%s results match" name)
    true
    (Kernels.Kernel.snapshots_close ~rtol:1e-9 s1 s2)

(* Reference snapshot: run the untransformed kernel. *)
let reference (k : Kernels.Kernel.t) ~steps =
  let k = k.Kernels.Kernel.copy () in
  k.Kernels.Kernel.run ~steps;
  k.Kernels.Kernel.snapshot ()

let test_identity_perm_roundtrip () =
  List.iter
    (fun (name, (k : Kernels.Kernel.t)) ->
      let id = Reorder.Perm.id k.Kernels.Kernel.n_nodes in
      let k' = Kernels.Kernel.apply_data_perm k id in
      let r1 = reference k ~steps:3 in
      let r2 = reference k' ~steps:3 in
      check_close (name ^ " identity") r1 r2)
    (kernels ())

(* A data reordering permutes state and results consistently:
   unpermuting the transformed run recovers the original run. *)
let test_data_perm_correct () =
  List.iter
    (fun (name, (k : Kernels.Kernel.t)) ->
      let rng = Datagen.Rng.create 5 in
      let sigma =
        Reorder.Perm.of_forward
          (Datagen.Rng.permutation rng k.Kernels.Kernel.n_nodes)
      in
      let k' = Kernels.Kernel.apply_data_perm k sigma in
      let r_orig = reference k ~steps:3 in
      k'.Kernels.Kernel.run ~steps:3;
      let r_perm =
        Kernels.Kernel.unpermute_snapshot sigma (k'.Kernels.Kernel.snapshot ())
      in
      check_close (name ^ " data perm") r_orig r_perm)
    (kernels ())

(* An interaction reordering must not change any result (reduction). *)
let test_iter_perm_correct () =
  List.iter
    (fun (name, (k : Kernels.Kernel.t)) ->
      let rng = Datagen.Rng.create 6 in
      let delta =
        Reorder.Perm.of_forward
          (Datagen.Rng.permutation rng k.Kernels.Kernel.n_inter)
      in
      let k' = Kernels.Kernel.apply_iter_perm k delta in
      let r_orig = reference k ~steps:3 in
      let r_perm = reference k' ~steps:3 in
      check_close (name ^ " iter perm") r_orig r_perm)
    (kernels ())

(* The sparse-tiled executor over any legal schedule matches the plain
   executor. *)
let test_tiled_executor_correct () =
  List.iter
    (fun (name, (k : Kernels.Kernel.t)) ->
      let chain = k.Kernels.Kernel.chain_of_access k.Kernels.Kernel.access in
      let seed_loop = k.Kernels.Kernel.seed_loop in
      let seed =
        Reorder.Sparse_tile.tile_fn_of_partition
          (Irgraph.Partition.block
             ~n:k.Kernels.Kernel.loop_sizes.(seed_loop)
             ~part_size:7)
      in
      let tiles =
        Reorder.Sparse_tile.full ~chain ~seed:seed_loop ~seed_tiles:seed ()
      in
      Alcotest.(check bool)
        (name ^ " legal") true
        (Reorder.Sparse_tile.check_legality ~chain ~tiles = []);
      let sched = Reorder.Schedule.of_tile_fns tiles in
      let r_plain = reference k ~steps:3 in
      let k' = k.Kernels.Kernel.copy () in
      k'.Kernels.Kernel.run_tiled sched ~steps:3;
      check_close (name ^ " tiled") r_plain (k'.Kernels.Kernel.snapshot ()))
    (kernels ())

(* Traced executors emit the same number of references per step in
   plain and tiled form (same loop bodies, different order). *)
let test_trace_counts_match () =
  List.iter
    (fun (name, (k : Kernels.Kernel.t)) ->
      let layout = Kernels.Kernel.layout k in
      let count run =
        let cache =
          Cachesim.Cache.create ~size_bytes:1024 ~line_bytes:64 ~assoc:2
        in
        run ~layout ~access:(fun a -> ignore (Cachesim.Cache.access cache a));
        Cachesim.Cache.accesses cache
      in
      let plain = count (fun ~layout ~access ->
          k.Kernels.Kernel.run_traced ~steps:2 ~layout ~access)
      in
      let chain = k.Kernels.Kernel.chain_of_access k.Kernels.Kernel.access in
      let seed =
        Reorder.Sparse_tile.tile_fn_of_partition
          (Irgraph.Partition.block
             ~n:k.Kernels.Kernel.loop_sizes.(k.Kernels.Kernel.seed_loop)
             ~part_size:11)
      in
      let tiles =
        Reorder.Sparse_tile.full ~chain ~seed:k.Kernels.Kernel.seed_loop
          ~seed_tiles:seed ()
      in
      let sched = Reorder.Schedule.of_tile_fns tiles in
      let tiled = count (fun ~layout ~access ->
          k.Kernels.Kernel.run_tiled_traced sched ~steps:2 ~layout ~access)
      in
      Alcotest.(check int) (name ^ " trace counts") plain tiled)
    (kernels ())

let test_bytes_per_node () =
  let checks =
    [ ("irreg", 16); ("nbf", 48); ("moldyn", 72); ("cg", 48) ]
  in
  List.iter
    (fun (name, k) ->
      let expected = List.assoc name checks in
      Alcotest.(check int)
        (name ^ " bytes/node")
        expected
        (Kernels.Kernel.bytes_per_node k))
    (kernels ())

let test_copy_isolates () =
  List.iter
    (fun (name, (k : Kernels.Kernel.t)) ->
      let before = k.Kernels.Kernel.snapshot () in
      let k' = k.Kernels.Kernel.copy () in
      k'.Kernels.Kernel.run ~steps:2;
      check_close (name ^ " copy isolated") before (k.Kernels.Kernel.snapshot ()))
    (kernels ())

(* ------------------------------------------------------------------ *)
(* Gauss-Seidel sparse tiling *)

let gs_problem ~scale =
  let d = Datagen.Generators.foil ~scale () in
  let graph = Datagen.Dataset.to_graph d in
  let n = Irgraph.Csr.num_nodes graph in
  let f = Array.init n (fun i -> 1.0 +. float_of_int (i mod 17)) in
  (graph, f)

let test_gs_plain_converges () =
  let graph, f = gs_problem ~scale:512 in
  let t = Kernels.Gauss_seidel.create ~graph ~f in
  Kernels.Gauss_seidel.run_plain t ~sweeps:50;
  (* After many sweeps the residual change per sweep is small. *)
  let before = Array.copy t.Kernels.Gauss_seidel.u in
  Kernels.Gauss_seidel.run_plain t ~sweeps:1;
  let delta = ref 0.0 in
  Array.iteri
    (fun i u -> delta := !delta +. abs_float (u -. before.(i)))
    t.Kernels.Gauss_seidel.u;
  Alcotest.(check bool) "converging" true
    (!delta /. float_of_int (Array.length f) < 1e-3)

let tiled_setup ~sweeps ~part_size ~seed_sweep graph f =
  let g = Irgraph.Partition.gpart graph ~part_size in
  let graph', f', _sigma, seed =
    Kernels.Gauss_seidel.renumber_by_partition graph ~f ~partition:g
  in
  let tiling = Kernels.Gauss_seidel.grow graph' ~seed ~seed_sweep ~sweeps in
  (graph', f', tiling)

let test_gs_constraints_hold () =
  let graph, f = gs_problem ~scale:512 in
  List.iter
    (fun seed_sweep ->
      let graph', _, tiling =
        tiled_setup ~sweeps:5 ~part_size:40 ~seed_sweep graph f
      in
      Alcotest.(check int)
        (Fmt.str "no violations (seed sweep %d)" seed_sweep)
        0
        (List.length (Kernels.Gauss_seidel.check_constraints graph' tiling)))
    [ 0; 2; 4 ]

let test_gs_tiled_equals_plain () =
  let graph, f = gs_problem ~scale:512 in
  let graph', f', tiling = tiled_setup ~sweeps:6 ~part_size:40 ~seed_sweep:3 graph f in
  let t_plain = Kernels.Gauss_seidel.create ~graph:graph' ~f:f' in
  Kernels.Gauss_seidel.run_plain t_plain ~sweeps:6;
  let t_tiled = Kernels.Gauss_seidel.create ~graph:graph' ~f:f' in
  Kernels.Gauss_seidel.run_tiled t_tiled tiling;
  (* Every dependence is respected, so the executions are bitwise
     identical. *)
  Alcotest.(check bool) "bitwise equal" true
    (Array.for_all2 ( = ) t_plain.Kernels.Gauss_seidel.u
       t_tiled.Kernels.Gauss_seidel.u)

let test_gs_traced_counts () =
  let graph, f = gs_problem ~scale:512 in
  let graph', f', tiling = tiled_setup ~sweeps:4 ~part_size:40 ~seed_sweep:2 graph f in
  let t = Kernels.Gauss_seidel.create ~graph:graph' ~f:f' in
  let layout = Kernels.Gauss_seidel.layout t in
  let count run =
    let cache = Cachesim.Cache.create ~size_bytes:1024 ~line_bytes:64 ~assoc:2 in
    run ~layout ~access:(fun a -> ignore (Cachesim.Cache.access cache a));
    Cachesim.Cache.accesses cache
  in
  let plain = count (Kernels.Gauss_seidel.run_traced t ~sweeps:4) in
  let tiled = count (Kernels.Gauss_seidel.run_tiled_traced t tiling) in
  Alcotest.(check int) "same references" plain tiled

(* Property: GS tiling constraints hold on random graphs. *)
let prop_gs_constraints =
  let arb =
    QCheck.make
      ~print:(fun (n, e) -> Printf.sprintf "n=%d, %d edges" n (List.length e))
      QCheck.Gen.(
        let* n = int_range 4 40 in
        let* m = int_range 3 80 in
        let* edges = list_repeat m (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))) in
        return (n, edges))
  in
  QCheck.Test.make ~name:"gs tiling constraints on random graphs" ~count:100
    arb (fun (n, edges) ->
      let graph = Irgraph.Csr.of_edges ~n (Array.of_list edges) in
      let f = Array.init n (fun i -> float_of_int (i + 1)) in
      let graph', f', tiling = tiled_setup ~sweeps:4 ~part_size:5 ~seed_sweep:1 graph f in
      ignore f';
      Kernels.Gauss_seidel.check_constraints graph' tiling = [])

let prop_gs_tiled_equals_plain =
  let arb =
    QCheck.make
      ~print:(fun (n, e) -> Printf.sprintf "n=%d, %d edges" n (List.length e))
      QCheck.Gen.(
        let* n = int_range 4 30 in
        let* m = int_range 3 60 in
        let* edges = list_repeat m (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))) in
        return (n, edges))
  in
  QCheck.Test.make ~name:"gs tiled equals plain on random graphs" ~count:100
    arb (fun (n, edges) ->
      let graph = Irgraph.Csr.of_edges ~n (Array.of_list edges) in
      let f = Array.init n (fun i -> float_of_int ((i * 7 mod 13) + 1)) in
      let graph', f', tiling = tiled_setup ~sweeps:3 ~part_size:4 ~seed_sweep:1 graph f in
      let t1 = Kernels.Gauss_seidel.create ~graph:graph' ~f:f' in
      Kernels.Gauss_seidel.run_plain t1 ~sweeps:3;
      let t2 = Kernels.Gauss_seidel.create ~graph:graph' ~f:f' in
      Kernels.Gauss_seidel.run_tiled t2 tiling;
      Array.for_all2 ( = ) t1.Kernels.Gauss_seidel.u t2.Kernels.Gauss_seidel.u)

(* The float arrays [exec_arrays] hands out, per kernel: a node array
   regrouping k fields (node i's field f at [k*i + f]; cg keeps k = 1
   per field) or a per-interaction array. *)
type float_storage = Node_fields of int | Per_inter

(* [relabel ?sigma ?delta ()] against a reference assembled from the
   single-purpose [Perm] helpers: index arrays moved through delta then
   remapped through sigma, each named node field (from [snapshot], and
   de-interleaved from [exec_arrays]'s regrouped storage) scattered
   through sigma, per-interaction arrays through delta. Repair's
   regrowth oracle replays through the same [relabel], so this is the
   check that can catch a bug in it. Absent, identity and random
   permutations are all drawn. *)
let prop_relabel_matches_reference =
  let of_datasets =
    [|
      ("moldyn", Kernels.Moldyn.of_dataset, [ Node_fields 9 ]);
      ("nbf", Kernels.Nbf.of_dataset, [ Node_fields 6 ]);
      ("irreg", Kernels.Irreg.of_dataset, [ Per_inter; Node_fields 2 ]);
      ( "cg",
        Kernels.Cg.of_dataset,
        List.init 6 (fun _ -> Node_fields 1) @ [ Per_inter ] );
    |]
  in
  let kernel_name (name, _, _) = name in
  let arb =
    QCheck.make
      ~print:(fun (ki, n, pairs, seed, sk, dk) ->
        Printf.sprintf "%s n=%d m=%d seed=%d sigma=%d delta=%d"
          (kernel_name of_datasets.(ki)) n (Array.length pairs) seed sk dk)
      QCheck.Gen.(
        let* ki = int_range 0 (Array.length of_datasets - 1) in
        let* n = int_range 4 30 in
        let* m = int_range (n + 1) 90 in
        let* pairs =
          array_repeat m (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
        in
        let* seed = int_range 0 10_000 in
        let* sk = int_range 0 2 and* dk = int_range 0 2 in
        return (ki, n, pairs, seed, sk, dk))
  in
  QCheck.Test.make ~name:"relabel matches an independent reference" ~count:300
    arb (fun (ki, n, pairs, seed, sk, dk) ->
      let module P = Reorder.Perm in
      let module K = Kernels.Kernel in
      let d =
        {
          Datagen.Dataset.name = "rand";
          n_nodes = n;
          left = Array.map fst pairs;
          right = Array.map snd pairs;
          coords = None;
        }
      in
      let _, of_dataset, storage = of_datasets.(ki) in
      let k = of_dataset d in
      (* One plain step first, so every float array holds distinct
         values worth moving. *)
      k.K.run ~steps:1;
      let m = k.K.n_inter in
      let rng = Datagen.Rng.create seed in
      let draw kind size =
        match kind with
        | 0 -> None
        | 1 -> Some (P.id size)
        | _ -> Some (P.of_forward (Datagen.Rng.permutation rng size))
      in
      let sigma = draw sk n and delta = draw dk m in
      let s = Option.value sigma ~default:(P.id n) in
      let dl = Option.value delta ~default:(P.id m) in
      let ia, fa = k.K.exec_arrays () in
      let saved_ia = Array.map Array.copy ia and saved_fa = Array.map Array.copy fa in
      let ref_ia = Array.map (fun a -> P.remap_values s (P.apply_to_array dl a)) ia in
      (* A regrouped array moves field by field: de-interleave, scatter
         through sigma, re-interleave. *)
      let scatter_fields fields a =
        let out = Array.make (Array.length a) nan in
        for f = 0 to fields - 1 do
          let moved =
            P.apply_to_float_array s
              (Array.init n (fun i -> a.((fields * i) + f)))
          in
          Array.iteri (fun i x -> out.((fields * i) + f) <- x) moved
        done;
        out
      in
      let ref_fa =
        Array.of_list
          (List.map2
             (fun kind a ->
               match kind with
               | Node_fields fields -> scatter_fields fields a
               | Per_inter -> P.apply_to_float_array dl a)
             storage (Array.to_list fa))
      in
      let ref_access = Reorder.Access.of_pairs ~n_data:n ref_ia.(0) ref_ia.(1) in
      let k' = k.K.relabel ?sigma ?delta () in
      let ia', fa' = k'.K.exec_arrays () in
      let named a = Array.to_list (Array.mapi (fun i x -> (string_of_int i, x)) a) in
      let floats_equal a b = K.snapshots_equal_bits (named a) (named b) in
      let fresh =
        Array.for_all (fun a -> Array.for_all (fun b -> a != b) ia) ia'
        && Array.for_all (fun a -> Array.for_all (fun b -> a != b) fa) fa'
      in
      let arrays_ok = ia' = ref_ia && floats_equal fa' ref_fa in
      let access_ok =
        let a = k'.K.access in
        Reorder.Access.n_iter a = m
        && Reorder.Access.n_data a = n
        && a.Reorder.Access.ptr = ref_access.Reorder.Access.ptr
        && a.Reorder.Access.dat = ref_access.Reorder.Access.dat
      in
      let snapshot_ok =
        K.snapshots_equal_bits (k'.K.snapshot ())
          (List.map (fun (name, a) -> (name, P.apply_to_float_array s a)) (k.K.snapshot ()))
      in
      (* Two tiled steps on the relabeled kernel and on a copy holding
         the reference arrays (written in place through exec_arrays). *)
      let chain = k'.K.chain_of_access ref_access in
      let seed_loop = k'.K.seed_loop in
      let seed_tiles =
        Reorder.Sparse_tile.tile_fn_of_partition
          (Irgraph.Partition.block ~n:k'.K.loop_sizes.(seed_loop) ~part_size:5)
      in
      let sched =
        Reorder.Schedule.of_tile_fns
          (Reorder.Sparse_tile.full ~chain ~seed:seed_loop ~seed_tiles ())
      in
      let r = k.K.copy () in
      let ria, rfa = r.K.exec_arrays () in
      Array.iteri (fun i a -> Array.blit a 0 ria.(i) 0 (Array.length a)) ref_ia;
      Array.iteri (fun i a -> Array.blit a 0 rfa.(i) 0 (Array.length a)) ref_fa;
      r.K.run_tiled sched ~steps:2;
      k'.K.run_tiled sched ~steps:2;
      let run_ok =
        K.snapshots_equal_bits (k'.K.snapshot ()) (r.K.snapshot ())
        && floats_equal (snd (k'.K.exec_arrays ())) rfa
      in
      (* Running the relabeled kernel never touched the source. *)
      let source_ok = ia = saved_ia && floats_equal fa saved_fa in
      fresh && arrays_ok && access_ok && snapshot_ok && run_ok && source_ok)

(* An FNV-1a digest of a snapshot's names and IEEE bit patterns. *)
let snapshot_digest snap =
  let module F = Rtrt_plancache.Fingerprint in
  let b = F.create () in
  List.iter
    (fun (name, a) ->
      F.add_string b name;
      F.add_int b (Array.length a);
      Array.iter (F.add_float b) a)
    snap;
  F.to_hex (F.value b)

(* Golden digests of a 3-step plain run and a 3-step CLCL+FST tiled
   run, pinned from the separate-array executors that preceded the
   regrouped node storage: every executor must keep reproducing them
   bit for bit. The closeness tests above cannot see a reordered
   statement, because plain and tiled executors would change
   together. *)
let golden_digests =
  [
    ("moldyn", "0e408cdbc87673dd", "e511c37365e71231");
    ("nbf", "23dce920303a4acf", "dc2f787f6736aad2");
    ("irreg", "d6ee92ea47f1cc21", "bac3bc5d607dafd2");
  ]

let test_golden_digests () =
  let clcl_fst =
    Compose.Plan.with_fst ~seed_part_size:16 Compose.Plan.cpack_lexgroup_twice
  in
  List.iter
    (fun (name, (k : Kernels.Kernel.t)) ->
      match List.find_opt (fun (n, _, _) -> n = name) golden_digests with
      | None -> ()
      | Some (_, plain, tiled) ->
        Alcotest.(check string)
          (name ^ " plain digest") plain
          (snapshot_digest (reference k ~steps:3));
        let r = Compose.Inspector.run clcl_fst k in
        let t = r.Compose.Inspector.kernel.Kernels.Kernel.copy () in
        t.Kernels.Kernel.run_tiled
          (Option.get r.Compose.Inspector.schedule)
          ~steps:3;
        Alcotest.(check string)
          (name ^ " tiled digest") tiled
          (snapshot_digest (t.Kernels.Kernel.snapshot ())))
    (kernels ())

(* The host stores what the cache model simulates: the regrouped node
   array (last of [exec_arrays]'s floats) holds node i's field f at
   [k*i + f], equal to [snapshot]'s value for that field, and
   [Kernel.layout] puts that element exactly [8 * (k*i + f)] bytes past
   the node group's base. *)
let test_host_layout_is_model_layout () =
  List.iter
    (fun (name, (k : Kernels.Kernel.t)) ->
      if name <> "cg" then begin
        let k = k.Kernels.Kernel.copy () in
        (* One step first, so every field holds distinct values. *)
        k.Kernels.Kernel.run ~steps:1;
        let n = k.Kernels.Kernel.n_nodes in
        let names = k.Kernels.Kernel.node_array_names in
        let fields = List.length names in
        let _, fa = k.Kernels.Kernel.exec_arrays () in
        let nodes = fa.(Array.length fa - 1) in
        Alcotest.(check int) (name ^ " regrouped length") (fields * n)
          (Array.length nodes);
        let snap = k.Kernels.Kernel.snapshot () in
        let layout = Kernels.Kernel.layout k in
        let base = Cachesim.Layout.address layout (List.hd names) 0 in
        List.iteri
          (fun f field ->
            let values = List.assoc field snap in
            let value_ok = ref true and address_ok = ref true in
            for i = 0 to n - 1 do
              let at = (fields * i) + f in
              if
                Int64.bits_of_float nodes.(at)
                <> Int64.bits_of_float values.(i)
              then value_ok := false;
              if Cachesim.Layout.address layout field i - base <> 8 * at then
                address_ok := false
            done;
            Alcotest.(check bool) (name ^ " " ^ field ^ " value") true !value_ok;
            Alcotest.(check bool)
              (name ^ " " ^ field ^ " model address") true !address_ok)
          names
      end)
    (kernels ())

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "kernels"
    [
      ( "executors",
        [
          Alcotest.test_case "identity roundtrip" `Quick
            test_identity_perm_roundtrip;
          Alcotest.test_case "data perm correct" `Quick test_data_perm_correct;
          Alcotest.test_case "iter perm correct" `Quick test_iter_perm_correct;
          Alcotest.test_case "tiled executor correct" `Quick
            test_tiled_executor_correct;
          Alcotest.test_case "trace counts match" `Quick test_trace_counts_match;
          Alcotest.test_case "bytes per node" `Quick test_bytes_per_node;
          Alcotest.test_case "copy isolates" `Quick test_copy_isolates;
          Alcotest.test_case "golden digests" `Quick test_golden_digests;
          Alcotest.test_case "host layout is the model layout" `Quick
            test_host_layout_is_model_layout;
        ] );
      ( "gauss-seidel",
        [
          Alcotest.test_case "plain converges" `Quick test_gs_plain_converges;
          Alcotest.test_case "constraints hold" `Quick test_gs_constraints_hold;
          Alcotest.test_case "tiled equals plain" `Quick
            test_gs_tiled_equals_plain;
          Alcotest.test_case "traced counts" `Quick test_gs_traced_counts;
        ] );
      ( "prop",
        qsuite
          [
            prop_relabel_matches_reference;
            prop_gs_constraints;
            prop_gs_tiled_equals_plain;
          ] );
    ]
