(** The irreg benchmark (2 node fields regrouped into one 16-B record per
    node, [x y]; per-edge weights separate; j/k loop chain) as a
    {!Kernel.t}. *)

(** Build the kernel over a dataset's interaction list, with
    deterministic initial conditions derived from node ids. *)
val of_dataset : Datagen.Dataset.t -> Kernel.t
