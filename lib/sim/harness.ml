type abort_outcome = Aborted | Acquired_instead | Not_supported

type lock = {
  name : string;
  acquire : pid:int -> unit;
  release : pid:int -> unit;
  try_abort : (pid:int -> abort_outcome) option;
}

let standard_body ?(cs = fun ~pid:_ -> ()) ?(ncs = fun ~pid:_ -> ()) ~lock ~requests pid =
  while Api.completed_requests () < requests do
    Api.note (Event.Seg Event.Ncs_begin);
    ncs ~pid;
    Api.note (Event.Seg Event.Req_begin);
    (* [acquire] raises [Api.Abort_signal] when it observes a pending abort
       signal at an abortable point; the abort protocol then decides
       whether the request was really abandoned.  [Aborted] restarts the
       passage (same super-passage: the request is still outstanding);
       [Acquired_instead] means the abort lost the race against a handoff
       and the process holds the lock after all.  [Not_supported] cannot
       surface here: locks without a protocol never raise. *)
    let acquired =
      match lock.acquire ~pid with
      | () -> true
      | exception Api.Abort_signal -> (
          match lock.try_abort with
          | None -> raise Api.Abort_signal (* no protocol: must not raise *)
          | Some try_abort -> (
              match try_abort ~pid with
              | Aborted -> false
              | Acquired_instead | Not_supported -> true))
    in
    if acquired then begin
      Api.note (Event.Seg Event.Cs_begin);
      cs ~pid;
      Api.note (Event.Seg Event.Cs_end);
      lock.release ~pid;
      Api.note (Event.Seg Event.Req_done)
    end
  done

let yields k ~pid:_ =
  for _ = 1 to k do
    Api.yield ()
  done

let run_lock ?record ?trace_ops ?max_steps ?on_crash ?abort ?cs ?ncs ~n ~model ~sched ~crash
    ~requests ~make () =
  Engine.run ?record ?trace_ops ?max_steps ?on_crash ?abort ~n ~model ~sched ~crash ~setup:make
    ~body:(fun lock ~pid -> standard_body ?cs ?ncs ~lock ~requests pid)
    ()

let counter_cell ctx = Memory.alloc (Engine.Ctx.memory ctx) ~name:"harness.counter" 0

let racy_increment cell ~pid:_ =
  let v = Api.read cell in
  Api.yield ();
  Api.write cell (v + 1)
