(* Unit and property tests for the binary wire format. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let roundtrip_uvarint () =
  let values = [ 0; 1; 127; 128; 300; 16384; 1 lsl 30; max_int / 2 ] in
  let round n =
    let b = Codec.sink () in
    Codec.write_uvarint b n;
    check_int (Printf.sprintf "uvarint %d" n) n
      (Codec.read_uvarint (Codec.source (Codec.contents b)))
  in
  List.iter round values

let roundtrip_varint () =
  let values = [ 0; 1; -1; 63; -64; 1000; -1000; max_int / 4; -(max_int / 4) ] in
  let round n =
    let b = Codec.sink () in
    Codec.write_varint b n;
    check_int (Printf.sprintf "varint %d" n) n
      (Codec.read_varint (Codec.source (Codec.contents b)))
  in
  List.iter round values

let varint_compactness () =
  (* Small magnitudes must stay small on the wire: the paper's ~16 B/event
     trace overhead depends on it. *)
  let size n =
    let b = Codec.sink () in
    Codec.write_varint b n;
    Codec.length b
  in
  check_int "0 is 1 byte" 1 (size 0);
  check_int "-1 is 1 byte" 1 (size (-1));
  check_int "63 is 1 byte" 1 (size 63);
  check_int "64 is 2 bytes" 2 (size 64)

let roundtrip_float () =
  let values = [ 0.; 1.5; -3.25; Float.pi; 1e300; -1e-300; Float.infinity ] in
  let round f =
    let b = Codec.sink () in
    Codec.write_float b f;
    Alcotest.(check (float 0.0))
      "float" f
      (Codec.read_float (Codec.source (Codec.contents b)))
  in
  List.iter round values

let roundtrip_string_list_option () =
  let b = Codec.sink () in
  Codec.write_string b "hello";
  Codec.write_list b Codec.write_string [ "a"; ""; "bc" ];
  Codec.write_option b Codec.write_uvarint (Some 7);
  Codec.write_option b Codec.write_uvarint None;
  Codec.write_pair b Codec.write_uvarint Codec.write_string (3, "x");
  let s = Codec.source (Codec.contents b) in
  Alcotest.(check string) "string" "hello" (Codec.read_string s);
  Alcotest.(check (list string))
    "list" [ "a"; ""; "bc" ]
    (Codec.read_list s Codec.read_string);
  Alcotest.(check (option int)) "some" (Some 7) (Codec.read_option s Codec.read_uvarint);
  Alcotest.(check (option int)) "none" None (Codec.read_option s Codec.read_uvarint);
  Alcotest.(check (pair int string))
    "pair" (3, "x")
    (Codec.read_pair s Codec.read_uvarint Codec.read_string);
  check_bool "fully consumed" true (Codec.at_end s)

let decode_errors () =
  let truncated = "\x05ab" in
  Alcotest.check_raises "truncated string"
    (Codec.Decode_error "read_string: truncated (5 bytes)") (fun () ->
      ignore (Codec.read_string (Codec.source truncated)));
  Alcotest.check_raises "empty byte"
    (Codec.Decode_error "read_byte: end of input") (fun () ->
      ignore (Codec.read_byte (Codec.source "")));
  let b = Codec.sink () in
  Codec.write_uvarint b 5;
  Codec.write_uvarint b 6;
  match Codec.decode Codec.read_uvarint (Codec.contents b) with
  | exception Codec.Decode_error _ -> ()
  | _ -> Alcotest.fail "expected trailing-bytes error"

let read_array_order () =
  let b = Codec.sink () in
  Codec.write_array b Codec.write_uvarint [| 10; 20; 30; 40 |];
  let a = Codec.read_array (Codec.source (Codec.contents b)) Codec.read_uvarint in
  Alcotest.(check (array int)) "order preserved" [| 10; 20; 30; 40 |] a

let substring_source () =
  let b = Codec.sink () in
  Codec.write_uvarint b 99;
  let payload = "XX" ^ Codec.contents b ^ "YY" in
  let s = Codec.source_of_substring payload ~pos:2 ~len:(String.length payload - 4) in
  check_int "value" 99 (Codec.read_uvarint s);
  check_bool "at end" true (Codec.at_end s)

(* Property: encode/decode roundtrip for an arbitrary nested value. *)
let value_gen =
  QCheck.Gen.(
    list_size (int_bound 20)
      (pair (int_range (-1000000) 1000000) (string_size (int_bound 30))))

let prop_roundtrip =
  QCheck.Test.make ~name:"codec roundtrip (int*string) list" ~count:200
    (QCheck.make value_gen) (fun l ->
      let write v b =
        Codec.write_list b
          (fun b p -> Codec.write_pair b Codec.write_varint Codec.write_string p)
          v
      in
      let read s =
        Codec.read_list s (fun s ->
            Codec.read_pair s Codec.read_varint Codec.read_string)
      in
      Codec.decode read (Codec.encode write l) = l)

let prop_uvarint_monotone_size =
  QCheck.Test.make ~name:"uvarint size is monotone" ~count:200
    QCheck.(pair (int_bound 1000000) (int_bound 1000000))
    (fun (a, b) ->
      let size n =
        let s = Codec.sink () in
        Codec.write_uvarint s n;
        Codec.length s
      in
      if a <= b then size a <= size b else size b <= size a)

let suite =
  [
    Alcotest.test_case "uvarint roundtrip" `Quick roundtrip_uvarint;
    Alcotest.test_case "varint roundtrip" `Quick roundtrip_varint;
    Alcotest.test_case "varint compactness" `Quick varint_compactness;
    Alcotest.test_case "float roundtrip" `Quick roundtrip_float;
    Alcotest.test_case "string/list/option/pair" `Quick roundtrip_string_list_option;
    Alcotest.test_case "decode errors" `Quick decode_errors;
    Alcotest.test_case "array order" `Quick read_array_order;
    Alcotest.test_case "substring source" `Quick substring_source;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_uvarint_monotone_size;
  ]

(* Fuzz: arbitrary bytes never crash the decoder with anything but
   Decode_error. *)
let prop_decode_fuzz =
  QCheck.Test.make ~name:"decoder total on garbage" ~count:300
    QCheck.(string_of_size (QCheck.Gen.int_bound 64))
    (fun garbage ->
      let try_read reader =
        match reader (Codec.source garbage) with
        | (_ : int) -> true
        | exception Codec.Decode_error _ -> true
      in
      let try_read_s reader =
        match reader (Codec.source garbage) with
        | (_ : string) -> true
        | exception Codec.Decode_error _ -> true
      in
      try_read Codec.read_uvarint && try_read Codec.read_varint
      && try_read_s Codec.read_string
      &&
      match Event.read (Codec.source garbage) with
      | (_ : Event.t) -> true
      | exception Codec.Decode_error _ -> true)

(* Garbage, and a pre-vote request or reply whole, cut short and with
   one byte overwritten: a whole message round-trips, and nothing but
   [Codec.Decode_error] escapes the decoder. *)
let prop_paxos_msg_fuzz =
  let pre_vote =
    QCheck.Gen.(
      map3
        (fun round replica granted ->
          let ballot = { Paxos.Ballot.round; replica } in
          match granted with
          | None -> Paxos.Msg.Pre_vote { ballot }
          | Some granted -> Paxos.Msg.Pre_vote_reply { ballot; granted })
        nat small_nat (opt bool))
  in
  let total s =
    match Paxos.Msg.decode s with
    | (_ : Paxos.Msg.t) -> true
    | exception Codec.Decode_error _ -> true
  in
  QCheck.Test.make ~name:"paxos msg decoder total on garbage" ~count:300
    QCheck.(
      pair
        (string_of_size (Gen.int_bound 128))
        (make Gen.(quad pre_vote nat nat (int_bound 255))))
    (fun (garbage, (m, cut, at, byte)) ->
      let s = Paxos.Msg.encode m in
      let n = String.length s in
      total garbage
      && Paxos.Msg.decode s = m
      && total (String.sub s 0 (cut mod n))
      && total
           (String.mapi (fun i c -> if i = at mod n then Char.chr byte else c) s))

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest prop_decode_fuzz;
      QCheck_alcotest.to_alcotest prop_paxos_msg_fuzz;
    ]
