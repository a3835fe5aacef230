open Rme_locks

type expectation = {
  failure_free : string;
  limited_failures : string;
  arbitrary_failures : string;
  recoverability : [ `None | `Weak | `Strong ];
}

type t = {
  key : string;
  descr : string;
  expectation : expectation;
  ff_bound : (int -> int) option;
  table1 : bool;
  crash_safe : bool;
  abortable : bool;
  make : Lock.maker;
}

let expect ?(rec_ = `Strong) ff lf af =
  { failure_free = ff; limited_failures = lf; arbitrary_failures = af; recoverability = rec_ }

(* Concrete failure-free CC bounds.  Constants were calibrated once against
   the implementation (see test_contracts.ml) and then FROZEN: a regression
   that makes any passage costlier than its complexity class allows now
   fails the suite.  log2c n = ceil(log2 n). *)
let log2c n =
  let rec go size l = if size >= n then l else go (2 * size) (l + 1) in
  go 1 0

let const k = Some (fun _ -> k)

let logarithmic per base = Some (fun n -> base + (per * log2c n))

let sublog per base = Some (fun n -> base + (per * Rme_locks.Jjj_tree.depth_for n))

let linear per base = Some (fun n -> base + (per * n))

let all =
  [
    {
      key = "mcs";
      descr = "original MCS queue lock (Mellor-Crummey & Scott); not recoverable";
      expectation = expect ~rec_:`None "O(1)" "deadlocks" "deadlocks";
      ff_bound = const 12;
      table1 = false;
      crash_safe = false;
      abortable = false;
      make = Mcs.make;
    };
    {
      key = "mcs-be";
      descr = "MCS with Dvir-Taubenfeld wait-free exit; not recoverable";
      expectation = expect ~rec_:`None "O(1)" "deadlocks" "deadlocks";
      ff_bound = const 14;
      table1 = false;
      crash_safe = false;
      abortable = false;
      make = Mcs_be.make;
    };
    {
      key = "clh";
      descr = "CLH implicit-queue lock (Craig, Landin & Hagersten); not recoverable";
      expectation = expect ~rec_:`None "O(1) (CC only)" "deadlocks" "deadlocks";
      ff_bound = const 10;
      table1 = false;
      crash_safe = false;
      abortable = false;
      make = Clh.make;
    };
    {
      key = "wr";
      descr = "WR-Lock: weakly recoverable MCS (Algorithm 2, the filter lock)";
      expectation = expect ~rec_:`Weak "O(1)" "O(1)" "O(1)";
      ff_bound = const 20;
      table1 = true;
      crash_safe = true;
      abortable = false;
      make = Wr_lock.make;
    };
    {
      key = "wr-abort";
      descr = "WR-Lock with an abortable waiting spin; withdrawal relays the hand-off onward";
      expectation = expect ~rec_:`Weak "O(1)" "O(1)" "O(1)";
      ff_bound = const 20;
      table1 = false;
      crash_safe = true;
      abortable = true;
      make = Wr_lock.make_abort;
    };
    {
      key = "wr-reclaim";
      descr = "WR-Lock with the section-7.2 epoch memory-reclamation pools";
      expectation = expect ~rec_:`Weak "O(1)" "O(1)" "O(1)";
      ff_bound = const 34;
      table1 = false;
      crash_safe = true;
      abortable = false;
      make =
        (fun ctx ->
          let r = Reclaim.create ctx in
          Wr_lock.lock (Wr_lock.create ~name:"wr-reclaim" ~alloc:(Reclaim.alloc r)
                          ~retire:(fun ~pid -> Reclaim.retire r ~pid) ctx));
    };
    {
      key = "wr-reclaim-dsm";
      descr = "WR-Lock with notification-based reclamation (7.2, DSM variant)";
      expectation = expect ~rec_:`Weak "O(1)" "O(1)" "O(1)";
      ff_bound = const 34;
      table1 = false;
      crash_safe = true;
      abortable = false;
      make =
        (fun ctx ->
          let r = Reclaim.create ~name:"reclaim-dsm" ~notify:true ctx in
          Wr_lock.lock
            (Wr_lock.create ~name:"wr-reclaim-dsm" ~alloc:(Reclaim.alloc r)
               ~retire:(fun ~pid -> Reclaim.retire r ~pid)
               ctx));
    };
    {
      key = "tas";
      descr = "recoverable test-and-set spinlock; no RMR guarantee";
      expectation = expect "O(1) uncontended" "O(n) contended" "O(n) contended";
      ff_bound = linear 14 16;
      table1 = true;
      crash_safe = true;
      abortable = false;
      make = Tas_lock.make;
    };
    {
      key = "bakery";
      descr = "recoverable Bakery (reads/writes only); O(n) scans";
      expectation = expect "O(n)" "O(n)" "O(n)";
      ff_bound = linear 4 20;
      table1 = true;
      crash_safe = true;
      abortable = false;
      make = Bakery.make;
    };
    {
      key = "bakery-abort";
      descr = "recoverable Bakery with abortable peer scans; withdrawal relinquishes the ticket";
      expectation = expect "O(n)" "O(n)" "O(n)";
      ff_bound = linear 4 20;
      table1 = false;
      crash_safe = true;
      abortable = true;
      make = Bakery.make_abort;
    };
    {
      key = "tas-abort";
      descr = "abortable hand-off spinlock: claim/grant protocol, abort races the claim";
      expectation = expect ~rec_:`None "O(1) uncontended" "O(n) contended" "n/a";
      (* The round-robin claim scan usually short-circuits at the first
         registered waiter; only an empty scan walks all n flags. *)
      ff_bound = linear 2 16;
      table1 = false;
      crash_safe = false;
      abortable = true;
      make = Tas_abort.make;
    };
    {
      key = "tournament";
      descr = "binary tournament of recoverable arbitrators; Jayanti-Joshi / GR shape";
      expectation = expect "O(log n)" "O(log n)" "O(log n)";
      ff_bound = logarithmic 20 8;
      table1 = true;
      crash_safe = true;
      abortable = false;
      make = Tournament.make;
    };
    {
      key = "jjj";
      descr = "k-ary arbitration tree of k-port locks; Jayanti-Jayanti-Joshi shape";
      expectation = expect "O(log n/log log n)" "O(log n/log log n)" "O(log n/log log n)";
      ff_bound = sublog 20 8;
      table1 = true;
      crash_safe = true;
      abortable = false;
      make = Jjj_tree.make;
    };
    {
      key = "ramaraju";
      descr = "flat k-port lock with the atomic FAS-and-persist instruction (Ramaraju 2015)";
      expectation = expect "O(1)" "O(1)" "O(1)";
      ff_bound = const 20;
      table1 = true;
      crash_safe = true;
      abortable = false;
      make =
        (fun ctx ->
          Kport.as_lock (Kport.create ~name:"ramaraju" ~k:(Rme_sim.Engine.Ctx.n ctx) ctx));
    };
    {
      key = "sa-bakery";
      descr = "SA-Lock over the O(n) bakery core: Golab-Ramaraju 4.2 shape (semi-adaptive)";
      expectation = expect "O(1)" "O(n)" "O(n)";
      ff_bound = const 38;
      table1 = true;
      crash_safe = true;
      abortable = false;
      make =
        (fun ctx ->
          Sa_lock.lock
            (Sa_lock.create ~name:"sa-bakery" ~core:(Bakery.make_named ~name:"sa-bakery.core" ctx) ctx));
    };
    {
      key = "sa-tournament";
      descr = "SA-Lock over the tournament core (semi-adaptive, well-bounded)";
      expectation = expect "O(1)" "O(log n)" "O(log n)";
      ff_bound = const 38;
      table1 = false;
      crash_safe = true;
      abortable = false;
      make =
        (fun ctx ->
          Sa_lock.lock
            (Sa_lock.create ~name:"sa-tournament"
               ~core:(Tournament.make_named ~name:"sa-tournament.core" ctx)
               ctx));
    };
    {
      key = "sa-jjj";
      descr = "SA-Lock over the JJJ-shape core (semi-adaptive, well-bounded)";
      expectation = expect "O(1)" "O(log n/log log n)" "O(log n/log log n)";
      ff_bound = const 38;
      table1 = false;
      crash_safe = true;
      abortable = false;
      make =
        (fun ctx ->
          Sa_lock.lock
            (Sa_lock.create ~name:"sa-jjj" ~core:(Jjj_tree.make_named ~name:"sa-jjj.core" ctx) ctx));
    };
    {
      key = "ba-bakery";
      descr = "BA-Lock over the O(n) bakery base: the transformation is base-agnostic";
      expectation = expect "O(1)" "O(sqrt F)" "O(n)";
      ff_bound = const 38;
      table1 = false;
      crash_safe = true;
      abortable = false;
      make = (fun ctx -> Ba_lock.lock (Ba_lock.create ~name:"ba-b" ~base:Bakery.make ctx));
    };
    {
      key = "ba-tournament";
      descr = "BA-Lock (recursive framework) over the tournament base lock";
      expectation = expect "O(1)" "O(sqrt F)" "O(log n)";
      ff_bound = const 38;
      table1 = false;
      crash_safe = true;
      abortable = false;
      make = (fun ctx -> Ba_lock.lock (Ba_lock.create ~name:"ba-t" ~base:Tournament.make ctx));
    };
    {
      key = "ba-jjj";
      descr = "BA-Lock over the JJJ-shape base lock: the paper's contribution";
      expectation = expect "O(1)" "O(sqrt F)" "O(log n/log log n)";
      ff_bound = const 38;
      table1 = true;
      crash_safe = true;
      abortable = false;
      make = Ba_lock.default;
    };
    {
      key = "jjj-sys";
      descr = "JJJ ticket lock recoverable under system-wide crashes (arXiv 2302.00748 shape)";
      expectation = expect "O(1)" "O(n(k+1)), k dead tickets" "O(n(k+1)), k dead tickets";
      ff_bound = const 16;
      table1 = false;
      crash_safe = true;
      abortable = false;
      make = Jjj_sys.make;
    };
    {
      key = "dm-jjj";
      descr = "Dhoked-Mittal fair/adaptive transformation over the JJJ-shape tree (arXiv 2110.08308)";
      expectation = expect "O(1)" "base recovery + O(n(k+1)) door" "O(n(k+1)) door + base";
      ff_bound = sublog 20 24;
      table1 = false;
      crash_safe = true;
      abortable = false;
      make = Dm_lock.make_over ~name:"dm-jjj" ~base:Jjj_tree.make;
    };
    {
      key = "dm-ba-jjj";
      descr = "Dhoked-Mittal transformation over the headline BA-Lock: adaptive and fair";
      expectation = expect "O(1)" "O(sqrt F) + O(n(k+1)) door" "O(n(k+1)) door + base";
      ff_bound = const 62;
      table1 = false;
      crash_safe = true;
      abortable = false;
      make = Dm_lock.make_over ~name:"dm-ba" ~base:Ba_lock.default;
    };
    {
      key = "ba-jjj-tracked";
      descr = "BA-Lock with the section-7.3 last-known-level restart optimisation";
      expectation = expect "O(1)" "O(sqrt F)" "O(log n/log log n)";
      ff_bound = const 40;
      table1 = false;
      crash_safe = true;
      abortable = false;
      make =
        (fun ctx ->
          Ba_lock.lock (Ba_lock.create ~name:"ba-tracked" ~track_level:true ~base:Jjj_tree.make ctx));
    };
  ]

let find key = List.find_opt (fun s -> s.key = key) all

let find_exn key =
  match find key with
  | Some s -> s
  | None ->
      invalid_arg
        (Printf.sprintf "unknown lock %S (expected one of: %s)" key
           (String.concat ", " (List.map (fun s -> s.key) all)))

let keys () = List.map (fun s -> s.key) all

let headline = find_exn "ba-jjj"

let chaos_case ?n s =
  {
    Rme_check.Chaos.case_name = s.key;
    case_make = s.make;
    case_weak = s.expectation.recoverability = `Weak;
    case_ff_bound = Option.bind n (fun n -> Option.map (fun f -> f n) s.ff_bound);
    case_abortable = s.abortable;
  }
