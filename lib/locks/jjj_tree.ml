open Rme_sim

let log2 x = log (float_of_int x) /. log 2.0

let branching_for n =
  if n <= 2 then 2
  else
    let l = log2 n in
    let ll = Float.max 1.0 (log2 (max 2 (int_of_float (Float.ceil l)))) in
    max 2 (int_of_float (Float.ceil (l /. ll)))

let rec depth_of ~k n = if n <= 1 then 0 else 1 + depth_of ~k ((n + k - 1) / k)

let depth_for n = depth_of ~k:(branching_for n) n

let make_named ?k ~name ctx =
  let n = Engine.Ctx.n ctx in
  let k = match k with Some k -> max 2 k | None -> branching_for n in
  let id = Engine.Ctx.register_lock ctx name in
  let depth = depth_of ~k n in
  let pow_k l =
    let rec go acc l = if l = 0 then acc else go (acc * k) (l - 1) in
    go 1 l
  in
  (* nodes.(l).(i): the i-th k-port lock at height l (leaves at l = 0). *)
  let nodes =
    Array.init depth (fun l ->
        let span = pow_k (l + 1) in
        let count = (n + span - 1) / span in
        Array.init count (fun i ->
            Kport.create ~name:(name ^ ".l" ^ string_of_int l ^ ".n" ^ string_of_int i) ~k ctx))
  in
  let node_of pid l = nodes.(l).(pid / pow_k (l + 1)) in
  let port_of pid l = pid / pow_k l mod k in
  let acquire ~pid =
    for l = 0 to depth - 1 do
      Kport.acquire (node_of pid l) ~port:(port_of pid l) ~pid
    done
  in
  let release ~pid =
    for l = depth - 1 downto 0 do
      Kport.release (node_of pid l) ~port:(port_of pid l) ~pid
    done
  in
  Lock.instrument ~id ~name ~acquire ~release ()

let make ctx = make_named ~name:"jjj" ctx
