(** Pseudo-code generation for composed inspectors and executors
    (Figures 10-15), derived mechanically from the symbolic state: the
    compile-time data mappings carry exactly the subscript chains a
    specialized inspector traverses (the paper's "automatic generation
    of specialized run-time inspectors" future work). Output is C-like
    pseudo-code for inspection, not compiled. *)

(** Render a term as a subscript chain: [sigma_cp(left(j))] becomes
    ["sigma_cp[left[j]]"]. *)
val subscript : Presburger.Term.t -> string

(** The subscript expressions of the loop at statement position [pos]
    in a data mapping, with the iteration variable renamed to [iv]. *)
val mapping_subscripts :
  pos:int -> iv:string -> Presburger.Rel.t -> string list

(** A specialized CPACK inspector (Figure 10/12 shape) traversing the
    given data mapping. *)
val cpack_inspector :
  instance:string -> program:Symbolic.program -> Presburger.Rel.t -> string

(** A specialized lexGroup inspector note. *)
val lexgroup_inspector :
  instance:string -> program:Symbolic.program -> Presburger.Rel.t -> string

(** The composed inspector driver (Figure 11 shape): one call per
    transformation, one final remap. *)
val composed_inspector : Symbolic.state -> string

(** The executor (Figure 13 plain / Figure 14 tiled shape). *)
val executor : Symbolic.state -> program:Symbolic.program -> string

(** Specialized inspectors for every step, the composed driver, and
    the executor. *)
val full_report : Symbolic.state -> program:Symbolic.program -> string

(** Tier B: the complete OCaml source of an executor specialized to one
    (kernel, schedule) pair — row bounds constant-folded, each row's
    runs of consecutive iterations emitted as literal range loops, loop
    bodies inlined at every site. [kernel] is one of ["moldyn"],
    ["nbf"], ["irreg"], ["gs"]; the executor is handed to the host via
    [Callback.register ("rtrt.spec." ^ key)]. Rows with at most 8 runs
    become literal [for lo to hi] loops; denser rows keep one
    items-driven loop over constant row bounds. [None] when the kernel
    is unknown or the source would exceed [max_bytes] (default 2 MiB)
    — callers fall back to the interpreted walk. See {!Specialize}
    for the compile / load / cache pipeline and the executor's
    array-order convention. *)
val specialized_source :
  ?max_bytes:int ->
  kernel:string ->
  key:string ->
  Reorder.Schedule.t ->
  string option
