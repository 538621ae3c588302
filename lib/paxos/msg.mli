(** Paxos wire messages. *)

type t =
  | Prepare of { ballot : Ballot.t }  (** phase 1a, covers all open instances *)
  | Promise of {
      ballot : Ballot.t;
      accepted : (int * Ballot.t * string) list;
          (** accepted-but-uncommitted proposals above the committed prefix *)
      committed_upto : int;
    }  (** phase 1b *)
  | Nack of { ballot : Ballot.t }  (** a higher ballot exists *)
  | Accept of {
      ballot : Ballot.t;
      instance : int;
      value : string;
      prior : (int * string) list;
          (** piggybacked not-yet-committed proposals from earlier
              instances (Rex §3.1): an acceptor that missed them accepts
              them first, preserving the no-holes invariant *)
      commits : (int * Ballot.t) list;
          (** commit notices, each read as a {!Commit}: the leader opened
              this instance while closing those, and sends them here
              instead of in a Commit of their own *)
    }  (** 2a *)
  | Accepted of { ballot : Ballot.t; instance : int }  (** 2b *)
  | Commit of { instance : int; ballot : Ballot.t }
      (** the value accepted at [ballot] is chosen: a follower that
          accepted it commits its own copy; one that did not learns it by
          catch-up ({!Learn}, prompted by the next {!Heartbeat}) *)
  | Heartbeat of { ballot : Ballot.t; committed_upto : int; hb_seq : int }
      (** [hb_seq] is a leader-local heartbeat sequence number, echoed in
          {!Lease_grant} so the leader can date a grant from the
          heartbeat's send time on its own clock *)
  | Learn of { from_instance : int }  (** catch-up request *)
  | Learn_reply of { entries : (int * string) list }
  | Lease_grant of { ballot : Ballot.t; hb_seq : int }
      (** follower → leader: "I will promise no higher ballot for
          [lease_duration] on my clock from when I received heartbeat
          [hb_seq]" *)
  | Pre_vote of { ballot : Ballot.t }
      (** "I have lost the leader and would campaign with [ballot]; have
          you lost it too?"  Changes no state at the receiver. *)
  | Pre_vote_reply of { ballot : Ballot.t; granted : bool }
      (** [granted]: the sender is not the leader and has followed no
          leader for the detection delay *)

val encode : t -> string
val decode : string -> t
val pp : t Fmt.t
