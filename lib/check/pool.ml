(* Tasks are claimed in index order from one shared atomic counter, so the
   claimed set is always a prefix of the task array.  A failure only stops
   further claims: every claimed task still runs, so every task before the
   first one to fail sequentially has run, and the lowest-indexed failure
   is the one a left-to-right run would raise. *)

let map ~domains ~tasks f =
  let len = Array.length tasks in
  let domains = min (min domains (Domain.recommended_domain_count ())) len in
  if domains <= 1 then Array.map f tasks
  else begin
    let results = Array.make len None in
    let next = Atomic.make 0 in
    let failed = Atomic.make false in
    let rec worker () =
      if not (Atomic.get failed) then begin
        let i = Atomic.fetch_and_add next 1 in
        if i < len then begin
          (results.(i) <-
             match f tasks.(i) with
             | r -> Some (Ok r)
             | exception e ->
                 let bt = Printexc.get_raw_backtrace () in
                 Atomic.set failed true;
                 Some (Error (e, bt)));
          worker ()
        end
      end
    in
    let spawned = List.init (domains - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    (* Every write to [results] happens-before its worker's join. *)
    List.iter Domain.join spawned;
    (* Unclaimed slots ([None]) all follow the first failure, so the
       in-order walk raises before it reaches one. *)
    Array.map
      (function
        | Some (Ok r) -> r
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None -> assert false)
      results
  end
