type label = { bits : int; dim : int }

let check_label l name =
  if l.dim < 0 || l.dim > 60 then invalid_arg ("Split_merge." ^ name ^ ": bad dim");
  if l.bits land lnot ((1 lsl l.dim) - 1) <> 0 then
    invalid_arg ("Split_merge." ^ name ^ ": bits exceed dim")

let child0 l =
  check_label l "child0";
  { bits = l.bits; dim = l.dim + 1 }

let child1 l =
  check_label l "child1";
  { bits = l.bits lor (1 lsl l.dim); dim = l.dim + 1 }

let parent l =
  check_label l "parent";
  if l.dim = 0 then invalid_arg "Split_merge.parent: root";
  { bits = l.bits land ((1 lsl (l.dim - 1)) - 1); dim = l.dim - 1 }

let sibling l =
  check_label l "sibling";
  if l.dim = 0 then invalid_arg "Split_merge.sibling: root";
  { bits = l.bits lxor (1 lsl (l.dim - 1)); dim = l.dim }

let is_prefix a b =
  a.dim <= b.dim && b.bits land ((1 lsl a.dim) - 1) = a.bits

let is_power_of_two x = x > 0 && x land (x - 1) = 0

let connected x y =
  let short = min x.dim y.dim in
  let mask = (1 lsl short) - 1 in
  is_power_of_two ((x.bits land mask) lxor (y.bits land mask))

type 'a t = { table : (int * int, 'a) Hashtbl.t }

let key l = (l.bits, l.dim)

let create () = { table = Hashtbl.create 64 }

let mem t l = Hashtbl.mem t.table (key l)
let find t l = Hashtbl.find_opt t.table (key l)

let conflicts t l =
  (* Any existing leaf that is a prefix or an extension of l. *)
  let bad = ref false in
  Hashtbl.iter
    (fun (bits, dim) _ ->
      let other = { bits; dim } in
      if is_prefix other l || is_prefix l other then bad := true)
    t.table;
  !bad

let add_leaf t l v =
  check_label l "add_leaf";
  if conflicts t l then invalid_arg "Split_merge.add_leaf: conflicting leaf";
  Hashtbl.replace t.table (key l) v

let leaf_count t = Hashtbl.length t.table

let leaves t =
  Hashtbl.fold (fun (bits, dim) v acc -> ({ bits; dim }, v) :: acc) t.table []
  |> List.sort (fun (a, _) (b, _) -> compare (a.dim, a.bits) (b.dim, b.bits))

let iter f t = Hashtbl.iter (fun (bits, dim) v -> f { bits; dim } v) t.table

let split t l f =
  match find t l with
  | None -> invalid_arg "Split_merge.split: not a leaf"
  | Some v ->
      let v0, v1 = f v in
      Hashtbl.remove t.table (key l);
      Hashtbl.replace t.table (key (child0 l)) v0;
      Hashtbl.replace t.table (key (child1 l)) v1

let rec force_leaf t l f =
  (* Make [l] a leaf by merging everything below it. *)
  if not (mem t l) then begin
    let c0 = child0 l and c1 = child1 l in
    force_leaf t c0 f;
    force_leaf t c1 f;
    let v0 = Hashtbl.find t.table (key c0) in
    let v1 = Hashtbl.find t.table (key c1) in
    Hashtbl.remove t.table (key c0);
    Hashtbl.remove t.table (key c1);
    Hashtbl.replace t.table (key l) (f v0 v1)
  end

let merge t l f =
  if not (mem t l) then invalid_arg "Split_merge.merge: not a leaf";
  if l.dim = 0 then invalid_arg "Split_merge.merge: root leaf";
  let sib = sibling l in
  force_leaf t sib f;
  let p = parent l in
  let vl = Hashtbl.find t.table (key l) in
  let vs = Hashtbl.find t.table (key sib) in
  Hashtbl.remove t.table (key l);
  Hashtbl.remove t.table (key sib);
  let lo, hi = if l.bits <= sib.bits then (vl, vs) else (vs, vl) in
  Hashtbl.replace t.table (key p) (f lo hi)

let max_dim t =
  Hashtbl.fold (fun (_, dim) _ acc -> max acc dim) t.table 0

let min_dim t =
  Hashtbl.fold (fun (_, dim) _ acc -> min acc dim) t.table max_int

let sample t rng =
  if leaf_count t = 0 then invalid_arg "Split_merge.sample: empty tree";
  let deepest = max_dim t in
  let bits = ref 0 in
  let result = ref None in
  (try
     for dim = 0 to deepest do
       if Hashtbl.mem t.table (!bits, dim) then begin
         result := Some { bits = !bits; dim };
         raise Exit
       end;
       if Prng.Stream.bool rng then bits := !bits lor (1 lsl dim)
     done
   with Exit -> ());
  match !result with
  | Some l -> l
  | None -> invalid_arg "Split_merge.sample: leaves do not cover the namespace"

let covers t =
  (* The probabilities 2^-dim of the leaves must sum to 1; prefix-freeness
     is maintained by construction, so the sum test suffices. *)
  let scale = 60 in
  let total =
    Hashtbl.fold
      (fun (_, dim) _ acc -> acc + (1 lsl (scale - dim)))
      t.table 0
  in
  total = 1 lsl scale
