(** Simulated message-passing network between simulator nodes.

    Stands in for the paper's 40 Gbps interconnect: messages are byte
    strings delivered after a configurable latency (base + exponential
    jitter), FIFO per directed pair, with optional loss and partitions.
    Handlers run in a fresh fiber on the destination node and may block.

    Byte counters let the benchmark harness reproduce the paper's trace
    log-size overhead measurements (§6.3). *)

type t

type handler = src:int -> string -> unit

type port = private { id : int; name : string }
(** A port name, interned into a dense [id]: resolve it once (a
    module-level constant, say) and every send to it finds its state
    without hashing the name. *)

val port : string -> port
(** The same name always gives the same port, on every network. *)

val create : ?base_latency:float -> Engine.t -> t
(** Default: 50 µs base latency.  Jitter has a 20 µs mean. *)

val engine : t -> Engine.t

val register : t -> node:int -> port:port -> handler -> unit
(** Replaces any previous handler for [(node, port)]. *)

val send : t -> src:int -> dst:int -> port:port -> string -> unit
(** Fire-and-forget.  Silently dropped if the destination is down or
    partitioned away, if the loss process fires, or if no handler is
    registered at delivery time. *)

(** {1 Fault injection} *)

val set_drop_probability : t -> float -> unit

val set_latency_factor : t -> float -> unit
(** Multiply every subsequent delivery's latency (base and jitter) by
    this factor — the nemesis knob for slow links and message reordering
    (a larger jitter reorders more messages across directed pairs).
    1.0 restores normal service; raises [Invalid_argument] if the factor
    is not positive. *)

val latency_factor : t -> float

val partition : t -> int -> int -> unit
(** Symmetric: blocks both directions. *)

val heal : t -> int -> int -> unit
val heal_all : t -> unit

(** {1 Statistics}

    Thin views over the engine's {!Obs} registry (subsystem ["net"]):
    totals plus per-link ([src]/[dst]-labelled) and per-port counters are
    registered there, so exporters see them without extra plumbing. *)

val messages_sent : t -> int
val bytes_sent : t -> int
val messages_dropped : t -> int
(** Messages lost to partitions or the random loss process. *)
