(* Time-to-solution benchmark for rtrt.

   One command runs one named workload (ttsbench/workloads.json) and
   prints every metric with its unit. The library is driven only
   through its public entry points with their defaults: Generators +
   Dataset.scramble ~seed and Churn.rewire for inputs, Kernels.by_name,
   Inspector.run, Specialize.make / run, Repair.prepare / repair — one
   domain, no plan cache. Each layer is timed from outside, around its
   calls, and wrapped in a [bench.<layer>] span, so a traced solve (an
   Rtrt_obs memory sink) shows the library's own spans and counters
   underneath the benchmark's. Every operation's output is un-permuted
   and compared with the plain kernel run on the same inputs for the
   same steps; that reference is computed outside every timed metric.

   The host this runs on is shared, and its speed drifts by up to 1.8x
   in phases of a fraction of a second to minutes. So every timed
   interval is bracketed by runs of a fixed host-speed probe (see
   [Probe]) and reported at nominal host speed: its measured seconds
   times the probe's nominal seconds over the probe's measured ones.

   Usage, from the repository root:
     dune exec --root . ./ttsbench/main.exe -- \
       --workload md_steady --seed 1 --seconds 10 --trace 0

   --trace 0 reports the end-to-end metrics from untraced solves;
   --trace 1 alternates untraced and traced solves and reports the
   per-layer metrics. The last line of stdout is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}. *)

module J = Rtrt_obs.Json
module Clock = Rtrt_obs.Clock
module Span = Rtrt_obs.Span
module K = Kernels.Kernel
module I = Compose.Inspector
module S = Compose.Specialize
module R = Compose.Repair

let spec_path = "ttsbench/workloads.json"
let rtol = 1e-9

(* Setups per run; setup_s is their median. *)
let setup_repeats = 5

(* ------------------------------------------------------------------ *)
(* Workload spec                                                       *)

type workload = {
  kernel : string;
  dataset : string;
  scale : int;
  plan : Compose.Plan.t;
  steps : int;
  rounds : int;
  churn_fraction : float;
}

let field conv key j =
  match Option.bind (J.member key j) conv with
  | Some v -> v
  | None -> Fmt.failwith "%s: missing or ill-typed field %S" spec_path key

let load_spec () =
  J.of_string_exn (In_channel.with_open_bin spec_path In_channel.input_all)

let plan_of p =
  let module P = Compose.Plan in
  let prefix =
    match field J.to_string_opt "name" p with
    | "GL+FST" -> P.gpart_lexgroup ~part_size:(field J.to_int_opt "gpart_size" p)
    | "CLCL+FST" -> P.cpack_lexgroup_twice
    | other -> Fmt.failwith "unknown plan %S" other
  in
  P.with_fst ~seed_part_size:(field J.to_int_opt "seed_part_size" p) prefix

let workload_of spec name =
  let w =
    match Option.bind (J.member "workloads" spec) (J.member name) with
    | Some w -> w
    | None -> Fmt.failwith "unknown workload %S (see %s)" name spec_path
  in
  {
    kernel = field J.to_string_opt "kernel" w;
    dataset = field J.to_string_opt "dataset" w;
    scale = field J.to_int_opt "scale" w;
    plan = plan_of (field Option.some "plan" w);
    steps = field J.to_int_opt "steps" w;
    rounds = field J.to_int_opt "rounds" w;
    churn_fraction = field J.to_float_opt "churn_fraction" w;
  }

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

(* Linearly interpolated quantile; [nan] on no samples. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median = quantile 0.5

(* ------------------------------------------------------------------ *)
(* Host-speed probe                                                    *)

(* Fixed work owned by the benchmark, in code that no change to rtrt
   touches, in two equal halves: a moldyn-like force loop with the
   locality a good reordering gives (64K particles, 8 interactions each
   with a partner at most 64 particles away; run twice), and a random
   gather-scatter across 8 MiB, twice the host's L2, like an unordered
   sweep. It runs between timed intervals, never inside one, and each
   interval is scaled by [nominal_s] over the mean of the probes just
   before and just after it, so a phase of the host that slows both
   slows neither the reported number. Chosen by tracking: over a
   7-minute md_steady run in which the host's speed swung 1.8x, the
   ratio of a layer's time to this probe's varied (range of 12
   chronological medians) by 9% for executor steps, 14% for
   Inspector.run and 15% for Specialize.make; the force loop alone
   gave 4%, 20% and 25%, the gather-scatter alone 12%, 17% and 16%, a
   compute-only loop 57%, 57% and 49%. *)
module Probe = struct
  let nominal_s = 0.007
  let nodes = 1 lsl 16
  let pos = Array.init nodes float_of_int
  let force = Array.make nodes 0.0

  let left, right =
    let rng = Random.State.make [| 9 |] in
    let right = Array.make (8 * nodes) 0 in
    let left =
      Array.init (8 * nodes) (fun k ->
          let i = k / 8 in
          right.(k) <- (i + 1 + Random.State.int rng 64) land (nodes - 1);
          i)
    in
    (left, right)

  let forces () =
    for k = 0 to Array.length left - 1 do
      let i = Array.unsafe_get left k and j = Array.unsafe_get right k in
      let d = Array.unsafe_get pos i -. Array.unsafe_get pos j in
      let g = d /. ((d *. d) +. 1.0) in
      Array.unsafe_set force i (Array.unsafe_get force i +. g);
      Array.unsafe_set force j (Array.unsafe_get force j -. g)
    done

  let cells = 1 lsl 19

  let index =
    let rng = Random.State.make [| 7 |] in
    Array.init cells (fun _ -> Random.State.int rng cells)

  let data = Array.make cells 1.0

  let gather_scatter index data =
    for i = 0 to Array.length index - 1 do
      let j = Array.unsafe_get index i in
      Array.unsafe_set data j ((Array.unsafe_get data j *. 0.5) +. 1.0)
    done

  let run () =
    forces ();
    forces ();
    gather_scatter index data

  let last = ref nominal_s
  let samples = ref []

  (* Run the probe; its seconds become the "before" of the next
     interval. *)
  let sample () =
    let (), dt = Span.with_ ~name:"bench.probe" @@ fun () -> Clock.time run in
    last := dt;
    samples := dt :: !samples;
    dt

  let normalize dt ~before ~after = dt *. nominal_s /. (0.5 *. (before +. after))

  (* Time [f] at nominal host speed. *)
  let timed f =
    let before = !last in
    let r, dt = Clock.time f in
    (r, normalize dt ~before ~after:(sample ()))

  (* Run [steps] single steps, probing every 10 steps; the normalized
     seconds of each step. *)
  let steps run ~steps =
    let out = ref [] and block = ref [] in
    for i = 1 to steps do
      let (), dt = Clock.time (fun () -> run ~steps:1) in
      block := dt :: !block;
      if i mod 10 = 0 || i = steps then (
        let before = !last in
        let after = sample () in
        out := List.rev_append (List.map (normalize ~before ~after) !block) !out;
        block := [])
    done;
    !out
end

(* ------------------------------------------------------------------ *)
(* Setup: datasets and kernels, no rtrt inspector or executor work     *)

type inputs = {
  base : K.t;  (** the prepared kernel over the scrambled dataset *)
  churned : (K.t * Datagen.Churn.damage) list;
      (** one re-neighbored kernel per round, each churned from the
          previous round's dataset *)
}

type setup_times = { generate_s : float; churn_s : float; build_s : float }

let setup w ~seed =
  let of_dataset =
    match Kernels.by_name w.kernel with
    | Some f -> f
    | None -> Fmt.failwith "unknown kernel %S" w.kernel
  in
  let d0, generate_s =
    Probe.timed (fun () ->
        match Datagen.Generators.by_name ~scale:w.scale w.dataset with
        | Some d -> Datagen.Dataset.scramble ~seed d
        | None -> Fmt.failwith "unknown dataset %S" w.dataset)
  in
  let datasets, churn_s =
    Probe.timed (fun () ->
        let rng = Datagen.Rng.create (seed lxor 0xC4A2) in
        let d = ref d0 in
        List.init w.rounds (fun _ ->
            let d', damage =
              Datagen.Churn.rewire ~rng ~fraction:w.churn_fraction !d
            in
            d := d';
            (d', damage)))
  in
  let inputs, build_s =
    Probe.timed (fun () ->
        let base = of_dataset d0 in
        let churned = List.map (fun (d, damage) -> (of_dataset d, damage)) datasets in
        { base; churned })
  in
  (inputs, { generate_s; churn_s; build_s })

(* ------------------------------------------------------------------ *)
(* Reference: the plain kernel on the same inputs for the same steps   *)

type reference = { ref_out : (string * float array) list; ref_step_s : float list }

let reference (k : K.t) ~steps =
  let k = k.K.copy () in
  let ref_step_s = Probe.steps k.K.run ~steps in
  { ref_out = k.K.snapshot (); ref_step_s }

(* ------------------------------------------------------------------ *)
(* One solve                                                           *)

type op = {
  op_s : float;
  round : bool;  (** counts toward round_ms: not md_churn's initial phase *)
  out : (string * float array) list;  (** final snapshot, rtrt numbering *)
  sigma : Reorder.Perm.t;
  ref_ix : int;
}

(* A checked operation; the snapshot is dropped once it is compared. *)
type outcome = { o_s : float; o_round : bool; failure : string option }

(* What one solve did, recorded as it runs. *)
type work = {
  mutable ops : (op, string) result list;  (** emptied once checked *)
  mutable layers : (string * float) list;  (** layer -> seconds, summed *)
  mutable total_s : float;  (** seconds of all layers so far *)
  mutable step_s : float list;
  mutable jobs : (float * float) list;
      (** (inspect, specialize) seconds of each cold inspection and the
          make that follows it *)
  mutable tiers : S.tier list;
  mutable infos : R.info list;
}

type solve = {
  solve_s : float;
  work : work;
  outcomes : outcome list;
  rejects_unpermuted : bool option;
      (** self-check on the first completed operation: its output left
          in rtrt's numbering must not pass the comparison *)
  minor_mb : float;
  major_collections : int;
  heap_peak_words : int;
}

(* The largest major heap seen in the current solve, sampled at every
   layer boundary and, through a GC alarm, at the end of every major
   cycle. [Gc.top_heap_words] cannot serve: it is a process-wide mark
   that the setups and reference runs before the solve already set. *)
let heap_peak = ref 0
let sample_heap () = heap_peak := max !heap_peak (Gc.quick_stat ()).Gc.heap_words

let add_layer acc name dt =
  let prev = Option.value ~default:0.0 (List.assoc_opt name acc.layers) in
  acc.layers <- (name, prev +. dt) :: List.remove_assoc name acc.layers;
  acc.total_s <- acc.total_s +. dt

(* Every rtrt call of a solve runs in a layer, so a solve's seconds are
   the sum of its layers' (the traced run's unaccounted_s checks it). *)
let layer acc name f =
  sample_heap ();
  let before = !Probe.last in
  let r, raw = Span.with_ ~name:("bench." ^ name) @@ fun () -> Clock.time f in
  sample_heap ();
  let dt = Probe.normalize raw ~before ~after:(Probe.sample ()) in
  add_layer acc name dt;
  (r, dt)

(* Specialize the result's schedule, run the steps one at a time, read
   the output. Returns the make seconds and the snapshot. *)
let execute acc (r : I.result) ~steps =
  let sched =
    match r.I.schedule with
    | Some s -> s
    | None -> failwith "plan produced no schedule"
  in
  let sp, make_s = layer acc "specialize" (fun () -> S.make r.I.kernel sched) in
  acc.tiers <- sp.S.tier :: acc.tiers;
  (* Not [layer]: the step loop probes as it goes, so the layer's
     seconds are the sum of its steps'. *)
  sample_heap ();
  let step_s = Span.with_ ~name:"bench.exec" @@ fun () -> Probe.steps sp.S.run ~steps in
  sample_heap ();
  acc.step_s <- List.rev_append step_s acc.step_s;
  add_layer acc "exec" (List.fold_left ( +. ) 0.0 step_s);
  let out, _ = layer acc "readout" (fun () -> r.I.kernel.K.snapshot ()) in
  (make_s, out)

(* Run one checked operation; [f] returns the output's data reordering
   and snapshot. An exception is recorded as a failed operation. *)
let operation acc ~round ~ref_ix f =
  let t0 = acc.total_s in
  match f () with
  | sigma, out ->
    let op_s = acc.total_s -. t0 in
    acc.ops <- Ok { op_s; round; out; sigma; ref_ix } :: acc.ops;
    true
  | exception e ->
    acc.ops <- Error (Printexc.to_string e) :: acc.ops;
    false

let cold_job acc plan (k : K.t) ~steps ~after_inspect =
  let r, inspect_s = layer acc "inspect" (fun () -> I.run plan k) in
  after_inspect r;
  let make_s, out = execute acc r ~steps in
  acc.jobs <- (inspect_s, make_s) :: acc.jobs;
  (r.I.sigma_total, out)

(* One cold job for all steps (md_steady). *)
let steady_solve acc w inputs =
  ignore
    (operation acc ~round:true ~ref_ix:0 (fun () ->
         cold_job acc w.plan inputs.base ~steps:w.steps ~after_inspect:ignore))

(* Cold inspection, then re-neighbor rounds repaired incrementally
   (md_churn). After a failed operation the repair state cannot be
   trusted, so the remaining rounds count as failed. *)
let churn_solve acc w inputs =
  let state = ref None in
  let ok =
    operation acc ~round:false ~ref_ix:0 (fun () ->
        cold_job acc w.plan inputs.base ~steps:w.steps ~after_inspect:(fun r ->
            state := Some (fst (layer acc "prepare" (fun () -> R.prepare w.plan r)))))
  in
  ignore
    (List.fold_left
       (fun (ok, ix) (k, damage) ->
         let ok =
           if ok then
             operation acc ~round:true ~ref_ix:ix (fun () ->
                 let st = Option.get !state in
                 let (r, info), _ = layer acc "repair" (fun () -> R.repair st k ~damage) in
                 acc.infos <- info :: acc.infos;
                 (r.I.sigma_total, snd (execute acc r ~steps:w.steps)))
           else (
             acc.ops <- Error "skipped after a failed operation" :: acc.ops;
             false)
         in
         (ok, ix + 1))
       (ok, 1) inputs.churned)

(* ------------------------------------------------------------------ *)
(* Output check                                                        *)

let matches refs ~unpermute (o : op) =
  let out = if unpermute then K.unpermute_snapshot o.sigma o.out else o.out in
  try K.snapshots_close ~rtol refs.(o.ref_ix).ref_out out
  with Invalid_argument _ -> false

let check refs = function
  | Ok o ->
    let failure =
      if matches refs ~unpermute:true o then None
      else Some "output differs from the plain kernel"
    in
    { o_s = o.op_s; o_round = o.round; failure }
  | Error e -> { o_s = Float.nan; o_round = false; failure = Some e }

let solve w inputs refs =
  let acc =
    { ops = []; layers = []; total_s = 0.0; step_s = []; jobs = []; tiers = []; infos = [] }
  in
  (* Start from a collected heap, so no solve pays for the garbage of
     the one before it. *)
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  heap_peak := g0.Gc.heap_words;
  let alarm = Gc.create_alarm sample_heap in
  (Fun.protect ~finally:(fun () -> Gc.delete_alarm alarm) @@ fun () ->
   Span.with_ ~name:"bench.solve" @@ fun () ->
   if w.rounds > 0 then churn_solve acc w inputs else steady_solve acc w inputs);
  sample_heap ();
  let g1 = Gc.quick_stat () in
  let outcomes = List.rev_map (check refs) acc.ops in
  let rejects_unpermuted =
    List.find_map
      (function Ok o -> Some (not (matches refs ~unpermute:false o)) | Error _ -> None)
      acc.ops
  in
  acc.ops <- [];
  {
    solve_s = acc.total_s;
    work = acc;
    outcomes;
    rejects_unpermuted;
    minor_mb =
      (g1.Gc.minor_words -. g0.Gc.minor_words) *. float_of_int (Sys.word_size / 8)
      /. 1048576.0;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    heap_peak_words = !heap_peak;
  }

(* A solve with an Rtrt_obs memory sink on: the span stream and the
   library's counters for exactly this solve. *)
let traced_solve w inputs refs =
  let sink, events = Rtrt_obs.Sink.memory () in
  Rtrt_obs.set_sink sink;
  Fun.protect ~finally:Rtrt_obs.disable @@ fun () ->
  let s = solve w inputs refs in
  let counters = Rtrt_obs.Metrics.dump () in
  (s, events (), counters)

(* ------------------------------------------------------------------ *)
(* Trace analysis                                                      *)

let attr_string key (sp : Rtrt_obs.Sink.span) =
  match List.assoc_opt key sp.Rtrt_obs.Sink.attrs with
  | Some (J.String s) -> Some s
  | _ -> None

let rec fold_nodes f acc (n : Rtrt_obs.Report.node) =
  List.fold_left (fold_nodes f) (f acc n) n.Rtrt_obs.Report.children

(* Per-solve seconds of each inspector transformation kind and of the
   final remap, read from the library's spans under the benchmark's
   [bench.inspect] spans; and the solve's self time, which no layer
   span covers. *)
let span_breakdown events =
  let module Rp = Rtrt_obs.Report in
  let roots = Rp.tree_of_events events in
  let solve_node =
    List.find (fun (n : Rp.node) -> n.Rp.span.Rtrt_obs.Sink.name = "bench.solve") roots
  in
  let inspects =
    fold_nodes
      (fun acc (n : Rp.node) ->
        if n.Rp.span.Rtrt_obs.Sink.name = "bench.inspect" then n :: acc else acc)
      [] solve_node
  in
  let tally =
    List.fold_left
      (fold_nodes (fun acc (n : Rp.node) ->
           let sp = n.Rp.span in
           let key =
             if sp.Rtrt_obs.Sink.name = "inspector.transform" then
               Option.map (fun k -> "inspector.transform." ^ k ^ "_s") (attr_string "kind" sp)
             else if String.ends_with ~suffix:"final_remap" sp.Rtrt_obs.Sink.name then
               Some "inspector.final_remap_s"
             else None
           in
           match key with
           | Some k ->
             let prev = Option.value ~default:0.0 (List.assoc_opt k acc) in
             (k, prev +. n.Rp.dur) :: List.remove_assoc k acc
           | None -> acc))
      [] inspects
  in
  (tally, Rp.self_seconds solve_node)

(* The Pentium 4 model's view of one step after one warm-up step: the
   tiled schedule's L1 misses and its modeled cycles over the plain
   kernel's, on fresh copies of an untimed inspection. *)
let cachesim_p4 plan (k : K.t) =
  let r = I.run plan k in
  let sched = Option.get r.I.schedule in
  let one_step run (kernel : K.t) =
    let h = Cachesim.Machine.hierarchy Cachesim.Machine.pentium4 in
    let access = Cachesim.Hierarchy.access h and layout = K.layout kernel in
    run kernel ~layout ~access;
    Cachesim.Hierarchy.reset_counters h;
    run kernel ~layout ~access;
    (float_of_int (Cachesim.Hierarchy.l1_misses h), Cachesim.Hierarchy.modeled_cycles h)
  in
  let tiled_misses, tiled_cycles =
    one_step
      (fun k ~layout ~access -> k.K.run_tiled_traced sched ~steps:1 ~layout ~access)
      (r.I.kernel.K.copy ())
  in
  let _, plain_cycles =
    one_step (fun k ~layout ~access -> k.K.run_traced ~steps:1 ~layout ~access) (k.K.copy ())
  in
  (tiled_misses, tiled_cycles /. plain_cycles)

(* ------------------------------------------------------------------ *)
(* Main                                                                *)

let usage =
  "main.exe --workload NAME --seed N --seconds S --trace 0|1"

let parse_args () =
  let workload = ref "" and seed = ref (-1) and seconds = ref (-1.0) and trace = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload in " ^ spec_path);
      ("--seed", Arg.Set_int seed, "N input seed (scramble and churn)");
      ("--seconds", Arg.Set_float seconds, "S how long to keep solving");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !workload = "" || !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1)
  then (
    prerr_endline usage;
    exit 2);
  (!workload, !seed, !seconds, !trace = 1)

let rtrt_env () =
  Array.to_list (Unix.environment ())
  |> List.filter (String.starts_with ~prefix:"RTRT_")
  |> List.sort compare

let () =
  let name, seed, seconds, trace = parse_args () in
  let spec = load_spec () in
  let w = workload_of spec name in
  (* Warm the probe up: its first runs fault its pages in. *)
  for _ = 1 to 3 do
    ignore (Probe.sample ())
  done;
  Probe.samples := [];
  (* Set up several times; keep the last inputs, report the median. *)
  let inputs = ref None and setups = ref [] in
  for _ = 1 to setup_repeats do
    inputs := None;
    Gc.full_major ();
    let i, t = setup w ~seed in
    inputs := Some i;
    setups := t :: !setups
  done;
  let inputs = Option.get !inputs in
  let refs =
    Array.of_list
      (List.map (reference ~steps:w.steps) (inputs.base :: List.map fst inputs.churned))
  in
  (* Keep solving for [seconds]; the trace run alternates untraced and
     traced solves so both see the same conditions. *)
  let untraced = ref [] and traced = ref [] in
  let t_start = Clock.now_s () in
  while
    !untraced = []
    || (trace && !traced = [])
    || Clock.now_s () -. t_start < seconds
  do
    if trace && List.length !traced < List.length !untraced then
      traced := traced_solve w inputs refs :: !traced
    else untraced := solve w inputs refs :: !untraced
  done;
  let untraced = !untraced and traced = !traced in
  let solves = untraced @ List.map (fun (s, _, _) -> s) traced in
  let outcomes = List.concat_map (fun s -> s.outcomes) solves in
  let attempted = List.length outcomes in
  let failures = List.filter_map (fun o -> o.failure) outcomes in
  (* Self-check: the comparison must reject an output that was left in
     rtrt's numbering, or a pass above proves nothing. *)
  let self_check =
    List.for_all (fun s -> s.rejects_unpermuted <> Some false) solves
    && List.exists (fun s -> s.rejects_unpermuted = Some true) solves
  in
  List.iter (fun e -> prerr_endline ("ttsbench: failed operation: " ^ e)) failures;
  let ms = List.map (fun s -> s *. 1000.0) in
  let steps = List.concat_map (fun s -> s.work.step_s) untraced in
  let plain_steps = List.concat_map (fun r -> r.ref_step_s) (Array.to_list refs) in
  let per_solve f = median (List.map f untraced) in
  let metrics =
    if not trace then
      let rounds =
        List.concat_map
          (fun s ->
            List.filter_map
              (fun o -> if o.o_round && o.failure = None then Some o.o_s else None)
              s.outcomes)
          untraced
      in
      [
        ("solve_s", median (List.map (fun s -> s.solve_s) untraced), "s");
        ( "setup_s",
          median (List.map (fun t -> t.generate_s +. t.churn_s +. t.build_s) !setups),
          "s" );
        ("step_ms.p50", median (ms steps), "ms");
        ("step_ms.p90", quantile 0.9 (ms steps), "ms");
        ("round_ms.p50", median (ms rounds), "ms");
        ( "heap_peak_mb",
          per_solve (fun s -> float_of_int (s.heap_peak_words * (Sys.word_size / 8)))
          /. 1048576.0,
          "MiB" );
      ]
    else
      let layer_s l = per_solve (fun s -> Option.value ~default:0.0 (List.assoc_opt l s.work.layers)) in
      let traced_med f = median (List.map f traced) in
      let counter c =
        traced_med (fun (_, _, cs) -> Option.value ~default:0.0 (List.assoc_opt c cs))
      in
      let breakdowns = List.map (fun (_, evs, _) -> span_breakdown evs) traced in
      let span_s k =
        median (List.map (fun (t, _) -> Option.value ~default:0.0 (List.assoc_opt k t)) breakdowns)
      in
      let tier t = per_solve (fun s -> float_of_int (List.length (List.filter (( = ) t) s.work.tiers))) in
      let tiled = median steps and plain = median plain_steps in
      let break_even =
        median
          (List.concat_map
             (fun s ->
               List.map
                 (fun (i, m) -> if plain > tiled then (i +. m) /. (plain -. tiled) else -1.0)
                 s.work.jobs)
             untraced)
      in
      let infos = List.concat_map (fun s -> s.work.infos) untraced in
      let model_ratio =
        if infos = [] then 0.0
        else
          median
            (List.map (fun (i : R.info) -> i.R.modeled_repair_seconds /. i.R.seconds) infos)
      in
      let nodes = counter "repair.nodes_recomputed" and moved = counter "repair.tiles_moved" in
      let setup_med f = median (List.map f !setups) in
      let l1_misses, cycles_over_plain = cachesim_p4 w.plan inputs.base in
      List.map (fun k -> (k, span_s k, "s"))
        (List.map (fun k -> "inspector.transform." ^ k ^ "_s")
           [ "cpack"; "gpart"; "lexgroup"; "fst"; "tilepack" ]
        @ [ "inspector.final_remap_s" ])
      @ [
          ("datagen.generate_s", setup_med (fun t -> t.generate_s), "s");
          ("datagen.churn_s", setup_med (fun t -> t.churn_s), "s");
          ("kernels.build_s", setup_med (fun t -> t.build_s), "s");
          ("inspector.run_s", layer_s "inspect", "s");
          ("inspector.data_remaps", counter "inspector.data_remaps", "count");
          ("repair.prepare_s", layer_s "prepare", "s");
          ("repair.repair_s", layer_s "repair", "s");
          ("repair.fallbacks", counter "repair.fallbacks_cold", "count");
          ("repair.nodes_recomputed", nodes, "count");
          ("repair.tiles_moved", moved, "count");
          ("repair.useful_ratio", (if nodes > 0.0 then moved /. nodes else 0.0), "ratio");
          ("repair.model_ratio", model_ratio, "ratio");
          ("specialize.make_s", layer_s "specialize", "s");
          ("specialize.tier.interp", tier S.Interp, "count");
          ("specialize.tier.shaped", tier S.Shaped, "count");
          ("specialize.tier.codegen", tier S.Codegen, "count");
          ("specialize.fallbacks", counter "specialize.fallbacks", "count");
          ("exec.run_s", layer_s "exec", "s");
          ("exec.readout_s", layer_s "readout", "s");
          ("exec.over_plain", tiled /. plain, "ratio");
          ("ref.plain_step_ms", plain *. 1000.0, "ms");
          ("amort.break_even_steps", break_even, "steps");
          ("cachesim.p4.l1_misses_per_step", l1_misses, "count");
          ("cachesim.p4.cycles_over_plain", cycles_over_plain, "ratio");
          ("gc.minor_mb", per_solve (fun s -> s.minor_mb), "MiB");
          ( "gc.major_collections",
            per_solve (fun s -> float_of_int s.major_collections),
            "count" );
          ( "obs.trace_overhead",
            traced_med (fun (s, _, _) -> s.solve_s) /. per_solve (fun s -> s.solve_s),
            "ratio" );
          ("unaccounted_s", median (List.map snd breakdowns), "s");
        ]
  in
  (* Every reported metric must be documented in the spec. *)
  let section = if trace then "per_layer" else "end_to_end" in
  List.iter
    (fun (k, _, _) ->
      if Option.bind (J.member section spec) (J.member k) = None then
        Fmt.failwith "metric %s is not documented under %s in %s" k section spec_path)
    metrics;
  List.iter (fun (k, v, u) -> Printf.printf "%-32s %14.6f %s\n" k v u) metrics;
  print_endline
    (J.to_string
       (J.Obj
          [
            ("info", J.String "ttsbench");
            ("workload", J.String name);
            ("seed", J.Int seed);
            ("solves", J.Int (List.length untraced));
            ("solve_s", J.List (List.rev_map (fun s -> J.Float s.solve_s) untraced));
            ("traced_solves", J.Int (List.length traced));
            ("probe_ms_p50", J.Float (1000.0 *. median !Probe.samples));
            ( "fail_ratio",
              J.Float (float_of_int (List.length failures) /. float_of_int attempted) );
            ("self_check_rejects_unpermuted_output", J.Bool self_check);
            ("rtrt_env", J.List (List.map (fun e -> J.String e) (rtrt_env ())));
          ]));
  let failed = List.length failures in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool (failed = 0 && self_check));
            ("attempted", J.Int attempted);
            ("failed", J.Int failed);
            ( "metrics",
              J.Obj
                (List.map
                   (fun (k, v, u) -> (k, J.Obj [ ("value", J.Float v); ("unit", J.String u) ]))
                   metrics) );
          ]))
