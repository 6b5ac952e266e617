(** Staged executor specialization over a frozen schedule.

    Two execution strategies for the same flat-CSR schedule, bitwise
    identical:

    - [Interp] (the default): the kernels' interpreted [run_tiled]
      walk;
    - [Codegen] (Tier B, opt-in via [--specialize] or
      [RTRT_SPECIALIZE=1]): a straight-line OCaml module emitted by
      {!Codegen.specialized_source} for this exact (kernel, schedule)
      pair, compiled with [ocamlopt -shared] and loaded with
      [Dynlink]. Compiled modules are cached on disk (under
      [RTRT_PLAN_CACHE_DIR/spec] when the plan cache is configured)
      keyed by a fingerprint over the schedule content, the OCaml
      version, word size, and OS, plus an in-process memo.

    Every failure to reach Tier B — no toolchain, compile error,
    emitter budget overflow — degrades gracefully to [Interp] and
    bumps [specialize.fallbacks]. By default a compiled executor is
    verified bitwise against the interpreted walk on two-step state
    copies before it is returned. Gauges: [specialize.tier] (0 interp,
    2 codegen), [specialize.compile_ns]; counters:
    [specialize.compiles], [specialize.cmxs_cache_hits],
    [specialize.memo_hits], [specialize.fallbacks]. *)

(** [Shaped] is retired and never produced; it is kept so reports that
    count tiers by name keep their column. *)
type tier = Interp | Shaped | Codegen

val tier_name : tier -> string

type t = {
  tier : tier;
  run : steps:int -> unit;
      (** Execute [steps] schedule walks on the kernel state the
          specialization was built from. For [Kernels.Kernel.t]
          kernels this matches [run_tiled ~steps]; for Gauss-Seidel
          each step is one whole schedule walk ([sweeps] sweeps). *)
  compile_seconds : float;
      (** Tier B out-of-process compile time; 0 on a cache hit or for
          [Interp]. *)
  cmxs_cache_hit : bool;
      (** Tier B executor came from the in-process memo or the on-disk
          [.cmxs] cache rather than a fresh compile. *)
  lazy_key : string Lazy.t;  (** Read it through {!key}. *)
}

(** The 16-hex-digit schedule fingerprint that names the Tier B
    module. It hashes the whole schedule, so it is computed only when
    Tier B is wanted or on the first call here (then memoized); an
    [Interp] specialization that nobody asks never pays for it. *)
val key : t -> string

(** Is Tier B requested? The [set_enabled] override if any, else
    [RTRT_SPECIALIZE] (default off). *)
val enabled : unit -> bool

(** Programmatic override of [RTRT_SPECIALIZE] (the CLI's
    [--specialize] flag). *)
val set_enabled : bool -> unit

(** Specialize [kernel]'s execution of [sched]: [Codegen] when Tier B
    is wanted and succeeds, else [Interp]. [tier_b] overrides
    {!enabled} for this call; [verify] (default [true]) asserts a
    compiled executor bitwise against [run_tiled] on two-step copies
    and raises [Failure] on divergence. Never raises for a missing
    toolchain — that is a counted fallback. *)
val make :
  ?tier_b:bool -> ?verify:bool -> Kernels.Kernel.t -> Reorder.Schedule.t -> t

(** {!make} for the Gauss-Seidel smoother ([run ~steps] executes
    [steps] whole schedule walks; verification compares [u] and [f]
    bitwise). *)
val make_gs :
  ?tier_b:bool ->
  ?verify:bool ->
  Kernels.Gauss_seidel.t ->
  Reorder.Schedule.t ->
  t

(** The exact Tier B source {!make} would compile for this pair (no
    toolchain needed), for [rtrt codegen --plan]. [None] when the
    emitter declines (unknown kernel or source-budget overflow). *)
val dump_source :
  Kernels.Kernel.t -> Reorder.Schedule.t -> string option
