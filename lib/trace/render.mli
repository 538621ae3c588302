(** Rendering traces for humans — the debugging workflow of paper §6.1:
    "by extracting and visualizing the causal edges from the transmitted
    trace, and comparing against the current in-memory state, we find
    [the unexpected event] on the secondary".

    {!to_dot} emits GraphViz (one cluster per thread slot, causal edges
    across); {!window} cuts a bounded neighbourhood around a point of
    interest (e.g. where replay diverged) so the graph stays readable;
    {!dump} is a plain-text listing. *)

val to_dot :
  ?resource_name:(int -> string) ->
  ?highlight:Event.Id.t list ->
  Trace.t ->
  string

val window :
  Trace.t -> center:Trace.Cut.t -> radius:int ->
  (Event.t list * (Event.Id.t * Event.Id.t) list)
(** Events within [radius] clocks of each slot's center watermark, plus
    every causal edge touching them. *)

val window_to_dot :
  ?resource_name:(int -> string) ->
  ?highlight:Event.Id.t list ->
  Trace.t -> center:Trace.Cut.t -> radius:int ->
  string

val dump : Trace.t -> string
(** The trace summary, then each slot's newest 50 events with their
    incoming edges. *)
