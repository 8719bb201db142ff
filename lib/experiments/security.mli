(** Chapter 8 security evaluation: proof-of-concept transient-execution
    attacks under every defense scheme (active Spectre v1; passive Spectre v2
    with type confusion; passive Spectre-RSB), plus the Table 4.1 CVE study
    rendering. *)

type poc = {
  attack : string;
  scheme : string;
  leaked : bool;
  correct : bool;  (** the leaked value equalled the planted secret *)
  fences : int;
}

val run_pocs_cells : ?seed:int -> ?attacks:string list -> unit -> poc list Supervise.cell list
(** The three attack families as supervised cells (keys ["pocs/v1"],
    ["pocs/v2"], ["pocs/rsb"]) for {!Supervise.run}: a crashing family
    degrades to a missing section instead of aborting the evaluation.
    [attacks] restricts the sweep to the named families (registry order is
    kept); an unknown name raises [Invalid_argument] listing the valid ones. *)

val poc_table_partial : (string * poc list option) list -> Pv_util.Tab.t
(** The Chapter 8 verdict table over the surviving families of a supervised
    sweep; failed families are called out in the captions. *)

val cve_table : unit -> Pv_util.Tab.t
(** Table 4.1. *)
