(* Simulated statistics a workload round accumulates, and the round
   record every workload returns.

   Everything here is in the paper's units — passages, RMRs, engine
   steps — and so is a pure function of the generated inputs: a change
   that only makes the host faster must leave all of it, and the digest
   over it, byte-identical. *)

open Rme_sim

(* Exact histogram of int samples, value -> count: the digest must see
   every value, which Rme_check.Metrics.Hist's log-linear buckets (up to
   1% error) would not.  Its size grows with the number of distinct
   values, not of samples, so pooling every chunk keeps the benchmark's
   own live heap small and flat. *)
module Hist = struct
  type t = (int, int) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let add_n (h : t) v n =
    match Hashtbl.find h v with
    | c -> Hashtbl.replace h v (c + n)
    | exception Not_found -> Hashtbl.replace h v n

  let add h v = add_n h v 1

  let merge ~into h = Hashtbl.iter (add_n into) h

  let count h = Hashtbl.fold (fun _ c n -> n + c) h 0

  let sum h = Hashtbl.fold (fun v c s -> s + (v * c)) h 0

  (* (value, count) pairs in value order. *)
  let sorted h =
    let a = Array.of_seq (Hashtbl.to_seq h) in
    Array.sort compare a;
    a

  (* Nearest-rank percentile; 0 when empty. *)
  let percentile h q =
    let a = sorted h in
    let n = Array.fold_left (fun n (_, c) -> n + c) 0 a in
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
    let rec go i seen =
      if i >= Array.length a then 0
      else
        let v, c = a.(i) in
        if seen + c >= rank then v else go (i + 1) (seen + c)
    in
    go 0 0

  (* "value*count," pairs in value order, then ';'. *)
  let feed buf h =
    Array.iter (fun (v, c) -> Printf.bprintf buf "%d*%d," v c) (sorted h);
    Buffer.add_char buf ';'
end

(* RMR kinds reported per layer, in [rmr_by_kind] order. *)
let kind_names = [| "read"; "write"; "cas"; "fas"; "faa"; "spin" |]

let kind_index : Api.kind -> int = function
  | Api.Read -> 0
  | Write -> 1
  | Cas -> 2
  | Fas -> 3
  | Faa -> 4
  | Spin -> 5
  | Note | Nop -> -1

type acc = {
  lat : Hist.t;  (** completed-passage latency, in engine steps *)
  rmr : Hist.t;  (** RMRs of every passage, crashed ones included *)
  mutable completed : int;  (** completed passages *)
  kinds : int array;  (** RMRs by {!kind_names} *)
  mutable runs : int;
  mutable steps : int;
}

let acc () =
  {
    lat = Hist.create ();
    rmr = Hist.create ();
    completed = 0;
    kinds = Array.make (Array.length kind_names) 0;
    runs = 0;
    steps = 0;
  }

(* Fold one engine result into [a].  [latency:false] leaves latency to
   the caller (the service workload charges it from the scheduled
   arrival, not from the passage start). *)
let absorb ?(latency = true) a (res : Engine.result) =
  a.runs <- a.runs + 1;
  a.steps <- a.steps + res.Engine.steps;
  List.iter
    (fun (k, v) ->
      let i = kind_index k in
      if i >= 0 then a.kinds.(i) <- a.kinds.(i) + v)
    res.Engine.rmr_by_kind;
  Array.iter
    (fun (p : Engine.proc_stats) ->
      List.iter
        (fun (pa : Engine.passage) ->
          Hist.add a.rmr pa.Engine.rmr;
          if pa.Engine.completed then begin
            a.completed <- a.completed + 1;
            if latency then Hist.add a.lat pa.Engine.latency
          end)
        p.Engine.passages)
    res.Engine.procs

let merge ~into a =
  Hist.merge ~into:into.lat a.lat;
  Hist.merge ~into:into.rmr a.rmr;
  into.completed <- into.completed + a.completed;
  Array.iteri (fun i v -> into.kinds.(i) <- into.kinds.(i) + v) a.kinds;
  into.runs <- into.runs + a.runs;
  into.steps <- into.steps + a.steps

let rmr_per_passage a =
  float_of_int (Hist.sum a.rmr) /. float_of_int (max 1 (Hist.count a.rmr))

let feed buf a =
  Printf.bprintf buf "runs=%d steps=%d completed=%d kinds=" a.runs a.steps a.completed;
  Array.iter (Printf.bprintf buf "%d,") a.kinds;
  Buffer.add_string buf " lat=";
  Hist.feed buf a.lat;
  Buffer.add_string buf " rmr=";
  Hist.feed buf a.rmr;
  Buffer.add_char buf '\n'

(* What one round of a workload reports.  [attempted]/[failed] count the
   workload's operations (offered requests, subject searches or
   adversarial runs); [problems] are failed self-checks, which make the
   benchmark's [correct] false. *)
type round = {
  attempted : int;
  failed : int;
  failures : string list;  (** one line per counted failure *)
  problems : string list;
  sim : acc;  (** the whole round *)
  locks : (string * acc) list;  (** per lock key *)
  counts : (string * float) list;  (** workload-specific per-layer counts *)
  digest : string;  (** hex digest of every simulated statistic above *)
}
