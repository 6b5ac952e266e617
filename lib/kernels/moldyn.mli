(** The moldyn benchmark (9 node fields regrouped into one 72-B record
    per molecule, [x y z vx vy vz fx fy fz]; i/j/k loop chain) as a
    {!Kernel.t}. *)

(** Build the kernel over a dataset's interaction list, with
    deterministic initial conditions derived from node ids. *)
val of_dataset : Datagen.Dataset.t -> Kernel.t
