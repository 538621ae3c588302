(** Growable arrays (OCaml 5.1 predates [Dynarray]). *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val get : 'a t -> int -> 'a
val push : 'a t -> 'a -> unit

val drop_front : 'a t -> int -> unit
(** [drop_front v n] removes the first [n] elements in place (indices
    shift down by [n]).  Shrinks the backing array when three quarters
    empty; dropped elements are unreferenced either way. *)

val iter : ('a -> unit) -> 'a t -> unit

val to_list : 'a t -> 'a list
val last : 'a t -> 'a option
