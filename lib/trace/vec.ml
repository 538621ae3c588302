type 'a t = { mutable arr : 'a array; mutable len : int }

let create () = { arr = [||]; len = 0 }
let length v = v.len

let get v i =
  if i < 0 || i >= v.len then invalid_arg "Vec.get";
  v.arr.(i)

let push v x =
  if v.len = Array.length v.arr then begin
    let cap = max 8 (2 * Array.length v.arr) in
    let arr = Array.make cap x in
    Array.blit v.arr 0 arr 0 v.len;
    v.arr <- arr
  end;
  v.arr.(v.len) <- x;
  v.len <- v.len + 1

let drop_front v n =
  if n < 0 || n > v.len then invalid_arg "Vec.drop_front";
  if n > 0 then
    if n = v.len then begin
      v.arr <- [||];
      v.len <- 0
    end
    else begin
      let len = v.len - n in
      let cap = Array.length v.arr in
      if len * 4 <= cap && cap > 8 then begin
        (* Shrink, which also releases references to dropped elements. *)
        let arr = Array.make (max 8 len) v.arr.(n) in
        Array.blit v.arr n arr 0 len;
        v.arr <- arr
      end
      else begin
        Array.blit v.arr n v.arr 0 len;
        (* Overwrite the vacated tail so dropped elements can be GC'd. *)
        Array.fill v.arr len n v.arr.(len - 1)
      end;
      v.len <- len
    end

let iter f v =
  for i = 0 to v.len - 1 do
    f v.arr.(i)
  done

let to_list v = List.init v.len (fun i -> v.arr.(i))
let last v = if v.len = 0 then None else Some v.arr.(v.len - 1)
