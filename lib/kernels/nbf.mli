(** The nbf benchmark (6 node fields regrouped into one 48-B record per
    node, [x y z fx fy fz]; i/j loop chain) as a {!Kernel.t}. *)

(** Build the kernel over a dataset's interaction list, with
    deterministic initial conditions derived from node ids. *)
val of_dataset : Datagen.Dataset.t -> Kernel.t
