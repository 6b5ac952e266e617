(* Pseudo-code generation for composed inspectors and executors — the
   paper's Figures 10-15, derived mechanically from the symbolic state.

   The paper's future work is the automatic generation of specialized
   inspectors; the key enabler it identifies is that the compile-time
   data mappings carry exactly the index expressions a specialized
   inspector must traverse (e.g. Figure 12's
   [sigma_cp[left[delta_lg_inv[j1]]]]). We realize that step: terms of
   the current data mapping render directly as subscript chains, each
   transformation renders as a specialized inspector procedure, and
   the final executor renders from the transformed iteration space
   (plain Figure 13 form, or tiled Figure 14 form with sched(t,l)
   loops). The output is C-like pseudo-code for documentation and
   inspection, not compiled. *)

open Presburger

let buf_add = Buffer.add_string

(* Render a term as a subscript expression: UFS application f(e)
   becomes f[e]. *)
let rec subscript t =
  match Term.as_var t with
  | Some v -> v
  | None -> (
    match Term.as_ufs t with
    | Some (f, [ arg ]) -> Fmt.str "%s[%s]" f (subscript arg)
    | Some (f, args) ->
      Fmt.str "%s[%s]" f (String.concat ", " (List.map subscript args))
    | None -> (
      match Term.to_const t with
      | Some c -> string_of_int c
      | None -> Term.to_string t))

(* The subscript expressions a loop's body uses, read off the data
   mapping: the out-tuple terms of the disjuncts whose position
   constraint matches [pos], with the iteration variable renamed to
   [iv]. The unified space is [s, pos, iv, q] before sparse tiling and
   [s, t, pos, iv, q] after, so the slots count from the end. *)
let mapping_subscripts ~pos ~iv (m : Rel.t) =
  let in_vars = Rel.in_vars m in
  let arity = List.length in_vars in
  let pos_var = List.nth in_vars (arity - 3) in
  let matches_pos (d : Rel.disjunct) =
    List.exists
      (fun c ->
        match c with
        | Constr.Eq t -> (
          (* position pin: pos_var - pos = 0 *)
          match
            (Term.vars t, Term.to_const (Term.subst pos_var (Term.const pos) t))
          with
          | [ v ], Some 0 when String.equal v pos_var -> true
          | _ -> false)
        | Constr.Geq _ -> false)
      d.Rel.constrs
  in
  let iter_var = List.nth in_vars (arity - 2) in
  List.filter_map
    (fun (d : Rel.disjunct) ->
      if matches_pos d then
        match d.Rel.out_tuple with
        | [ t ] -> Some (subscript (Term.subst iter_var (Term.var iv) t))
        | _ -> None
      else None)
    (Rel.disjuncts m)

(* Specialized CPACK inspector for the current data mapping: the
   Figure 10/12 shape, with the subscript chains of the mapping. *)
let cpack_inspector ~instance ~(program : Symbolic.program) (m : Rel.t) =
  let b = Buffer.create 256 in
  let loop = Symbolic.indexed_loop program in
  let subs = mapping_subscripts ~pos:loop.Symbolic.position ~iv:"j" m in
  buf_add b (Fmt.str "CPACK_M_to_%s(%s) {\n" instance
               (String.concat ", " (List.sort_uniq compare
                                      (List.concat_map (fun s ->
                                           String.split_on_char '[' s
                                           |> List.filter (fun x -> x <> "" && x <> "j")
                                           |> List.map (String.map (function ']' -> ' ' | c -> c))
                                           |> List.map String.trim) subs))));
  buf_add b "  // initialize alreadyOrdered bit vector to all false\n";
  buf_add b "  count = 0\n";
  buf_add b (Fmt.str "  do j = 1 to %s\n" loop.Symbolic.size);
  List.iteri
    (fun k sub ->
      buf_add b (Fmt.str "    mem_loc%d = %s\n" (k + 1) sub))
    subs;
  List.iteri
    (fun k _ ->
      buf_add b (Fmt.str "    if not alreadyOrdered(mem_loc%d)\n" (k + 1));
      buf_add b (Fmt.str "      %s_inv[count] = mem_loc%d\n" instance (k + 1));
      buf_add b (Fmt.str "      alreadyOrdered(mem_loc%d) = true\n" (k + 1));
      buf_add b "      count = count + 1\n";
      buf_add b "    endif\n")
    subs;
  buf_add b "  enddo\n";
  buf_add b "  do i = 1 to n_data   // pack untouched locations\n";
  buf_add b "    if not alreadyOrdered(i)\n";
  buf_add b (Fmt.str "      %s_inv[count] = i\n" instance);
  buf_add b "      count = count + 1\n";
  buf_add b "    endif\n";
  buf_add b "  enddo\n";
  buf_add b (Fmt.str "  return %s_inv\n}\n" instance);
  Buffer.contents b

(* Specialized lexGroup inspector: group by the first subscript chain
   of the current mapping. *)
let lexgroup_inspector ~instance ~(program : Symbolic.program) (m : Rel.t) =
  let b = Buffer.create 256 in
  let loop = Symbolic.indexed_loop program in
  let subs = mapping_subscripts ~pos:loop.Symbolic.position ~iv:"j" m in
  let first = match subs with s :: _ -> s | [] -> "j" in
  buf_add b (Fmt.str "LEXGROUP_to_%s() {\n" instance);
  buf_add b (Fmt.str "  // stable counting sort of j = 1..%s keyed on\n"
               loop.Symbolic.size);
  buf_add b (Fmt.str "  //   key(j) = %s\n" first);
  buf_add b (Fmt.str "  return %s\n}\n" instance);
  Buffer.contents b

(* The composed inspector driver (Figure 11 shape): one call per
   transformation, then a single remap of data and index arrays. *)
let composed_inspector (st : Symbolic.state) =
  let b = Buffer.create 1024 in
  buf_add b "composed_inspector() {\n";
  List.iter
    (fun (s : Symbolic.step) ->
      buf_add b
        (Fmt.str "  %s = %s_inspector(...)   // %s\n" s.Symbolic.fn_name
           (Transform.name s.Symbolic.transform)
           (Rel.to_string s.Symbolic.relation)))
    (Symbolic.steps st);
  buf_add b "  // remap and update the data and index arrays once,\n";
  buf_add b "  // after all reordering functions are generated (Section 6)\n";
  buf_add b (Fmt.str "  remap_data(%s)\n"
               (Rel.to_string (Symbolic.r_total st)));
  buf_add b "}\n";
  Buffer.contents b

(* The executor: Figure 13 (plain) or Figure 14 (tiled). *)
let executor (st : Symbolic.state) ~(program : Symbolic.program) =
  let b = Buffer.create 1024 in
  let tiled = Symbolic.is_tiled st in
  let m = Symbolic.data_map st in
  buf_add b "do s = 1 to num_steps\n";
  let emit_loop indent (l : Symbolic.loop_desc) =
    let iv = Fmt.str "%s%d" l.Symbolic.index (List.length (Symbolic.steps st)) in
    if tiled then
      buf_add b (Fmt.str "%sdo %s in sched(t, %d)\n" indent iv
                   l.Symbolic.position)
    else
      buf_add b (Fmt.str "%sdo %s = 1 to %s\n" indent iv l.Symbolic.size);
    let subs = mapping_subscripts ~pos:l.Symbolic.position ~iv m in
    let subs = if subs = [] then [ iv ] else subs in
    (* After the final remap the composed chain collapses into the
       adjusted index array (Figure 13 uses left2[j2], not the chain);
       keep the chain as a comment. The index array is the chain's
       only non-bijection — the program description names them. *)
    let index_array_names =
      List.concat_map
        (fun (lp : Symbolic.loop_desc) ->
          List.filter_map
            (function Symbolic.Indexed f -> Some f | Symbolic.Direct -> None)
            lp.Symbolic.accesses)
        program.Symbolic.loops
    in
    let collapse sub =
      let contains name =
        let re = Str.regexp_string (name ^ "[") in
        try ignore (Str.search_forward re sub 0); true with Not_found -> false
      in
      match List.find_opt contains index_array_names with
      | Some name -> Fmt.str "%s'[%s]  // = %s" name iv sub
      | None -> sub
    in
    List.iter
      (fun sub -> buf_add b (Fmt.str "%s  touch %s\n" indent (collapse sub)))
      subs;
    buf_add b (Fmt.str "%senddo\n" indent)
  in
  if tiled then begin
    buf_add b "  do t = 1 to num_tiles\n";
    List.iter (emit_loop "    ") program.Symbolic.loops;
    buf_add b "  enddo\n"
  end
  else List.iter (emit_loop "  ") program.Symbolic.loops;
  buf_add b "enddo\n";
  Buffer.contents b

(* Full report: specialized inspectors for every CPACK/lexGroup step,
   the composed driver, and the executor. *)
let full_report (st : Symbolic.state) ~(program : Symbolic.program) =
  let b = Buffer.create 4096 in
  let rec walk prior = function
    | [] -> ()
    | (s : Symbolic.step) :: rest ->
      (match s.Symbolic.transform with
      | Transform.Data_reorder (Transform.Cpack | Transform.Tile_pack) ->
        buf_add b (cpack_inspector ~instance:s.Symbolic.fn_name ~program prior);
        buf_add b "\n"
      | Transform.Iter_reorder Transform.Lexgroup ->
        buf_add b
          (lexgroup_inspector ~instance:s.Symbolic.fn_name ~program prior);
        buf_add b "\n"
      | _ -> ());
      walk s.Symbolic.data_map rest
  in
  walk (Symbolic.initial_data_map program) (Symbolic.steps st);
  buf_add b (composed_inspector st);
  buf_add b "\n";
  buf_add b (executor st ~program);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Tier B: real OCaml emission for a frozen schedule (ROADMAP item 2).

   Everything above renders pseudo-code for inspection; this section
   emits a compilable OCaml module specialized to one (kernel,
   schedule) pair: row bounds constant-folded into literals, each
   row's runs of consecutive iterations unrolled into [for lo to hi]
   range loops, loop bodies inlined at every site, no schedule
   indirection at all for rows with few runs. The module depends only on
   Stdlib and hands its executor to the host through
   [Callback.register] (see Compose.Specialize for the compile /
   Dynlink / cache pipeline and the array-order convention).

   Emitted executor type:  int array array -> float array array ->
   int -> unit, where the int arrays are the kernel's index arrays
   with the schedule's [items] appended last, and the float arrays are
   the kernel's data arrays in [Kernels.Kernel.exec_arrays] order (for
   moldyn/nbf/irreg: per-interaction arrays, then the one regrouped
   node array). The host checks every length against
   [float_lengths] before a compiled executor first runs. *)

(* Float constants are emitted as hex literals so the compiled
   executor computes with bit-for-bit the constants the interpreted
   executor uses. *)
let hex_float f = Printf.sprintf "(%h)" f

(* How long the executor assumes a float array is: [Per_node k] for
   k regrouped fields per node (k * n doubles), [Per_inter] for one
   double per interaction. *)
type extent = Per_node of int | Per_inter

(* Per-kernel emission tables: int-array names (items is appended by
   the host), float arrays with their extents, chain length, and the
   loop body for each chain class with [v] the iteration variable.
   Bodies mirror the kernels' unsafe loop bodies statement for
   statement, over the same regrouped node array [nd] (node i's field
   f at [k*i + f]). *)
let spec_tables :
    (string
    * (string list * (string * extent) list * int * (int -> string list)))
    list =
  let dt = hex_float 0.0001 in
  let relax = hex_float 0.001 in
  let damping = hex_float 1.0 in
  let one = hex_float 1.0 in
  let two = hex_float 2.0 in
  let g = Printf.sprintf in
  (* Field [off] of the record starting at [b]. *)
  let at b off = if off = 0 then b else g "(%s + %d)" b off in
  let get b off = "Array.unsafe_get nd " ^ at b off in
  (* [nd.(b + off) <- nd.(b + off) sign (gg *. d)]: one force
     accumulation. *)
  let acc off sign b d =
    g "Array.unsafe_set nd %s (%s %s (gg *. %s));" (at b off) (get b off) sign d
  in
  let forces base =
    [
      acc base "+." "l" "dx";
      acc base "-." "r" "dx";
      acc (base + 1) "+." "l" "dy";
      acc (base + 1) "-." "r" "dy";
      acc (base + 2) "+." "l" "dz";
      acc (base + 2) "-." "r" "dz";
    ]
  in
  let distance k =
    [
      g "let l = %d * Array.unsafe_get left v and r = %d * Array.unsafe_get right v in" k k;
      g "let dx = %s -. %s in" (get "l" 0) (get "r" 0);
      g "let dy = %s -. %s in" (get "l" 1) (get "r" 1);
      g "let dz = %s -. %s in" (get "l" 2) (get "r" 2);
      g "let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) +. %s in" one;
    ]
  in
  let moldyn_body = function
    | 0 ->
      g "let b = 9 * v in"
      :: List.init 3 (fun d ->
             g "Array.unsafe_set nd %s (%s +. (%s *. (%s +. %s)));" (at "b" d)
               (get "b" d) dt (get "b" (d + 3)) (get "b" (d + 6)))
    | 1 -> distance 9 @ (g "let gg = %s /. r2 in" one :: forces 6)
    | _ ->
      g "let b = 9 * v in"
      :: List.init 3 (fun d ->
             g "Array.unsafe_set nd %s (%s +. (%s *. %s));" (at "b" (d + 3))
               (get "b" (d + 3)) dt (get "b" (d + 6)))
  in
  let nbf_body = function
    | 0 ->
      g "let b = 6 * v in"
      :: List.init 3 (fun d ->
             g "Array.unsafe_set nd %s (%s +. (%s *. %s));" (at "b" d)
               (get "b" d) dt (get "b" (d + 3)))
    | _ ->
      distance 6
      @ [
          g "let ir2 = %s /. r2 in" one;
          g "let ir6 = ir2 *. ir2 *. ir2 in";
          g "let gg = ((%s *. ir6 *. ir6) -. ir6) *. ir2 in" two;
        ]
      @ forces 3
  in
  let irreg_body = function
    | 0 ->
      [
        g "let l = 2 * Array.unsafe_get left v and r = 2 * Array.unsafe_get right v in";
        g "let d = Array.unsafe_get w v *. (%s -. %s) in" (get "l" 0) (get "r" 0);
        g "Array.unsafe_set nd (l + 1) (%s +. d);" (get "l" 1);
        g "Array.unsafe_set nd (r + 1) (%s -. d);" (get "r" 1);
      ]
    | _ ->
      [
        g "let b = 2 * v in";
        g "Array.unsafe_set nd b (%s +. (%s *. %s));" (get "b" 0) relax
          (get "b" 1);
      ]
  in
  let gs_body _ =
    [
      g "let acc = ref (Array.unsafe_get f v) in";
      g "let alo = Array.unsafe_get ptr v and ahi = Array.unsafe_get ptr (v + 1) in";
      g "for e = alo to ahi - 1 do acc := !acc +. Array.unsafe_get u (Array.unsafe_get adj e) done;";
      g "Array.unsafe_set u v (!acc /. (float_of_int (ahi - alo) +. %s));" damping;
    ]
  in
  let pair = [ "left"; "right" ] in
  [
    ("moldyn", (pair, [ ("nd", Per_node 9) ], 3, moldyn_body));
    ("nbf", (pair, [ ("nd", Per_node 6) ], 2, nbf_body));
    ("irreg", (pair, [ ("w", Per_inter); ("nd", Per_node 2) ], 2, irreg_body));
    ("gs", ([ "ptr"; "adj" ], [ ("u", Per_node 1); ("f", Per_node 1) ], 1, gs_body));
  ]

let float_lengths ~kernel ~n_nodes ~n_inter =
  Option.map
    (fun (_, floats, _, _) ->
      List.map
        (function _, Per_node k -> k * n_nodes | _, Per_inter -> n_inter)
        floats)
    (List.assoc_opt kernel spec_tables)

(* Rows whose run count is at most this are unrolled into literal
   range loops; denser rows fall back to one items-driven loop with
   constant-folded row bounds (still no row_ptr loads). *)
let inline_runs_max = 8

(* The maximal runs of consecutive ids in the non-empty row
   [items.(lo) .. items.(hi - 1)] as [(first, last)] pairs, or [None]
   as soon as there are more than [inline_runs_max]. A delta other
   than +1 ends a run, so the runs replay the row exactly. *)
let row_runs items lo hi =
  let rec go i first acc n =
    if i = hi then Some (List.rev ((first, items.(hi - 1)) :: acc))
    else if items.(i) = items.(i - 1) + 1 then go (i + 1) first acc n
    else if n = inline_runs_max then None
    else go (i + 1) items.(i) ((first, items.(i - 1)) :: acc) (n + 1)
  in
  go (lo + 1) items.(lo) [] 1

(* Big enough for a few thousand rows with the heavier kernel bodies
   (a bench-scale moldyn schedule emits ~600 B/row); schedules past
   this fall back to the interpreted walk rather than paying a
   multi-minute compile. *)
let default_max_source_bytes = 1 lsl 21 (* 2 MiB *)

let specialized_source ?(max_bytes = default_max_source_bytes) ~kernel ~key
    (sched : Reorder.Schedule.t) =
  match List.assoc_opt kernel spec_tables with
  | None -> None
  | Some (int_names, float_names, chain, body) ->
    let b = Buffer.create 16384 in
    let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
    add
      "(* Specialized executor for kernel %s, schedule key %s.\n\
      \   Emitted by Compose.Codegen.specialized_source; do not edit. *)\n"
      kernel key;
    add "let exec (ia : int array array) (fa : float array array) (steps : int) =\n";
    List.iteri
      (fun i n -> add "  let %s = Array.unsafe_get ia %d in\n" n i)
      int_names;
    add "  let items = Array.unsafe_get ia %d in\n" (List.length int_names);
    add "  ignore (items : int array);\n";
    List.iteri
      (fun i (n, _) -> add "  let %s = Array.unsafe_get fa %d in\n" n i)
      float_names;
    add "  for _s = 1 to steps do\n";
    let row_ptr = Reorder.Schedule.row_ptr sched in
    let items = Reorder.Schedule.flat_items sched in
    let n_tiles = Reorder.Schedule.n_tiles sched in
    let n_loops = Reorder.Schedule.n_loops sched in
    let over_budget = ref false in
    (try
       for t = 0 to n_tiles - 1 do
         for c = 0 to n_loops - 1 do
           let r = (t * n_loops) + c in
           let body_lines = body (c mod chain) in
           let emit_body indent =
             List.iter (fun l -> add "%s  %s\n" indent l) body_lines
           in
           let ilo = row_ptr.(r) and ihi = row_ptr.(r + 1) in
           if ihi > ilo then begin
             (match row_runs items ilo ihi with
             | Some runs ->
               List.iter
                 (fun (lo, hi) ->
                   if lo = hi then begin
                     add "    (let v = %d in\n" lo;
                     emit_body "    ";
                     add "    );\n"
                   end
                   else begin
                     add "    for v = %d to %d do\n" lo hi;
                     emit_body "    ";
                     add "    done;\n"
                   end)
                 runs
             | None ->
               add "    for idx = %d to %d do\n" ilo (ihi - 1);
               add "      let v = Array.unsafe_get items idx in\n";
               emit_body "    ";
               add "    done;\n");
             if Buffer.length b > max_bytes then begin
               over_budget := true;
               raise Exit
             end
           end
         done
       done
     with Exit -> ());
    if !over_budget then None
    else begin
      add "    ()\n";
      add "  done\n";
      add "\nlet () = Callback.register %S exec\n" ("rtrt.spec." ^ key);
      Some (Buffer.contents b)
    end
