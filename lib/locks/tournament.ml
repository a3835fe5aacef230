open Rme_sim

let levels_for n =
  let rec loop size l = if size >= n then l else loop (2 * size) (l + 1) in
  loop 1 0

let make_named ~name ctx =
  let n = Engine.Ctx.n ctx in
  let id = Engine.Ctx.register_lock ctx name in
  let levels = levels_for n in
  (* One doorbell per process, shared by every node: a process competes at
     one node at a time (see Arbitrator.make_spin_pool). *)
  let spin_pool = Arbitrator.make_spin_pool ~name ctx in
  (* nodes.(l).(i): the i-th arbitrator at height l (leaves at l = 0). *)
  let nodes =
    Array.init levels (fun l ->
        let count = (n + (1 lsl (l + 1)) - 1) / (1 lsl (l + 1)) in
        Array.init count (fun i ->
            Arbitrator.create
              ~name:(name ^ ".l" ^ string_of_int l ^ ".a" ^ string_of_int i)
              ~spin_pool ctx))
  in
  let node_of pid l = nodes.(l).(pid lsr (l + 1)) in
  let side_of pid l = if (pid lsr l) land 1 = 0 then Lock.Left else Lock.Right in
  let acquire ~pid =
    for l = 0 to levels - 1 do
      Arbitrator.acquire (node_of pid l) (side_of pid l) ~pid
    done
  in
  let release ~pid =
    for l = levels - 1 downto 0 do
      Arbitrator.release (node_of pid l) (side_of pid l) ~pid
    done
  in
  Lock.instrument ~id ~name ~acquire ~release ()

let make ctx = make_named ~name:"tournament" ctx
