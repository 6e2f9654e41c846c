module Sm = Core.Split_merge

type state = {
  owned : int array;  (** virtual labels this leaf covers *)
  vstates : Core.Supernode_sampling.state array;  (** aligned with [owned] *)
  leaf_of : int array;  (** virtual label -> dense leaf index (shared) *)
}

type msg = {
  vsrc : int;
  vdst : int;
  payload : Core.Supernode_sampling.msg;
}

let samples st =
  Array.concat
    (Array.to_list
       (Array.map
          (fun vst ->
            Array.map (fun b -> st.leaf_of.(b)) (Core.Supernode_sampling.samples vst))
          st.vstates))

let protocol ?(eps = 0.5) ?(c = 2.0) ~tree () =
  if not (Sm.covers tree) then
    invalid_arg "Virtual_sampling.protocol: tree does not cover the namespace";
  let leaves = Array.of_list (List.map fst (Sm.leaves tree)) in
  let d_max = Sm.max_dim tree in
  let cube = Topology.Hypercube.create d_max in
  let virtuals = Topology.Hypercube.node_count cube in
  let leaf_of = Array.make virtuals (-1) in
  let owned_of =
    Array.mapi
      (fun i (l : Sm.label) ->
        let tail = d_max - l.Sm.dim in
        Array.init (1 lsl tail) (fun suffix ->
            let b = l.Sm.bits lor (suffix lsl l.Sm.dim) in
            leaf_of.(b) <- i;
            b))
      leaves
  in
  let base = Core.Supernode_sampling.protocol ~eps ~c ~cube () in
  let init ~supernode ~rng =
    {
      owned = owned_of.(supernode);
      vstates =
        Array.map
          (fun vl -> base.Core.Group_sim.init ~supernode:vl ~rng)
          owned_of.(supernode);
      leaf_of;
    }
  in
  let step ~supernode:_ ~step_index st ~inbox ~rng =
    let out = ref [] in
    let vstates =
      Array.mapi
        (fun i vl ->
          let sub_inbox =
            List.filter_map
              (fun (_, m) ->
                if m.vdst = vl then Some (m.vsrc, m.payload) else None)
              inbox
          in
          let vst', outs =
            base.Core.Group_sim.step ~supernode:vl ~step_index st.vstates.(i)
              ~inbox:sub_inbox ~rng
          in
          List.iter
            (fun (dst_vl, payload) ->
              out := (leaf_of.(dst_vl), { vsrc = vl; vdst = dst_vl; payload }) :: !out)
            outs;
          vst')
        st.owned
    in
    ({ st with vstates }, List.rev !out)
  in
  let vid_bits = Simnet.Msg_size.id_bits (max 2 virtuals) in
  {
    Core.Group_sim.init;
    step;
    steps = base.Core.Group_sim.steps;
    state_bits =
      (fun st ->
        Array.fold_left
          (fun acc vst -> acc + base.Core.Group_sim.state_bits vst)
          Simnet.Msg_size.header_bits st.vstates);
    msg_bits =
      (fun m -> base.Core.Group_sim.msg_bits m.payload + (2 * vid_bits));
  }
