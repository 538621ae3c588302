(** Per-application conflict-key oracles — the one source of truth
    shared by Eve's mixer, the check harness and both [lib/sched]
    execution stacks (DESIGN.md §12).

    An oracle maps a request {e payload} to the conflict keys it may
    touch; two requests conflict iff their key sets intersect.  An
    oracle must over-approximate: missing a real conflict breaks
    determinism (sched stacks) or costs a rollback (Eve), while an extra
    key only costs parallelism.  The empty list means "no known keys":
    {!Exec} treats such requests as conflicting with {e everything}
    (safe serialization), whereas Eve's optimistic mixer lets them into
    any batch and leans on its verify stage. *)

type oracle = string -> string list

val kv : oracle
(** SET/DEL/GET/RMW claim their key, MGET claims every key it reads;
    anything else claims nothing. *)

val counter : oracle
(** Every op claims {!counter_key}: a counter is one register. *)

val counter_key : string

val session_key : int -> string
(** The per-client ordering key ["\x00session:<client>"] (NUL-prefixed:
    application grammars are ASCII, so it can never collide with an
    app-level key). *)

type claim = { client : int option; keys : string list }
(** What a request claims: its session client ([Some] for an enveloped
    request) apart from the app-level keys of its payload. *)

val claim :
  obs:Obs.t -> subsystem:string -> node:int -> oracle -> string -> claim
(** Wrap an app-level oracle with session-envelope handling: an
    enveloped request's client and its payload's keys; a raw request's
    keys and no client.  A corrupt envelope (magic byte present, body
    undecodable) degrades to payload-only keys with no client and bumps
    [<subsystem>/envelope_decode_errors] for the given node. *)

val with_session :
  obs:Obs.t -> subsystem:string -> node:int -> oracle -> oracle
(** {!claim} read as one key list, Eve's reading: an enveloped request
    gets {!session_key} prepended to its payload's keys, so a client's
    requests always conflict (an enveloped request with no app keys
    claims its session key alone). *)
