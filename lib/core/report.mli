(** Table and series rendering for the bench harness, plus the growth
    classifier behind the Table-2 reproduction. *)

val table : header:string list -> rows:string list list -> unit
(** Print an aligned text table to stdout. *)

val table_to_string : header:string list -> rows:string list list -> string
(** The same aligned text table as a string — what {!table} prints.  Used
    where the rendering must be captured byte-for-byte (the conformance
    matrix artifact and its determinism test). *)

val write_csv : path:string -> header:string list -> rows:string list list -> unit
(** Write the same table as RFC-4180-style CSV (for external plotting). *)

val series : title:string -> xlabel:string -> ylabel:string -> (float * float) list -> unit
(** Print a (x, y) series with a crude log-scale spark column. *)

val fit_exponent : (float * float) list -> float
(** Least-squares slope of log y against log x: ≈0 for flat, ≈0.5 for √x,
    ≈1 for linear growth.  Points with non-positive coordinates are
    dropped. *)

type growth = Flat | Logarithmic | Sqrt | Linear | Superlinear

val pp_growth : growth Fmt.t

val classify : (float * float) list -> growth
(** Classify a measured growth curve by its fitted exponent. *)

(** {1 Table 2 performance measures (§2.5)} *)

type classification = {
  pm1 : bool;  (** constantness: failure-free RMR is flat *)
  pm2a : bool;  (** adaptive: limited-failure RMR grows with F only *)
  pm2b : bool;  (** super-adaptive: ... and sub-linearly, o(F) *)
  pm3a : bool;  (** bounded: arbitrary-failure RMR bounded by h(n) *)
  pm3b : bool;  (** well-bounded: ... with h = o(log n) *)
}

val adaptivity_name : classification -> string
(** "non-adaptive" / "semi-adaptive" / "adaptive" / "super-adaptive". *)

val boundedness_name : classification -> string
(** "unbounded" / "bounded" / "well-bounded". *)

val classify_lock :
  failure_free_vs_n:(float * float) list ->
  rmr_vs_f:(float * float) list ->
  limited_vs_n:(float * float) list ->
  arbitrary_vs_n:(float * float) list ->
  classification
(** Derive the §2.5 performance measures from four measured curves:
    failure-free cost vs n, cost vs F at fixed n, cost at fixed small F vs
    n (separates adaptive from semi-adaptive), and cost under heavy
    failures vs n. *)
