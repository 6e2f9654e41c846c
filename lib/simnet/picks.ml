(* [stamp.(v) = round] iff [v] was picked this round. *)
type t = { mutable stamp : int array; mutable round : int }

let create () = { stamp = [||]; round = 0 }

let start t ~n =
  if Array.length t.stamp <> n then t.stamp <- Array.make n 0;
  t.round <- t.round + 1

let take t v =
  let fresh = t.stamp.(v) <> t.round in
  t.stamp.(v) <- t.round;
  fresh

let fill ?(avoid = -1) t rng k ~into =
  let n = Array.length t.stamp in
  let left = ref k in
  while !left > 0 do
    let v = Prng.Stream.int rng n in
    if v <> avoid && take t v then begin
      into.(v) <- true;
      decr left
    end
  done
