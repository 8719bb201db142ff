(** Fixed-width text tables for experiment output.

    Every benchmark prints its table/figure through this module so all
    reproductions share one look: a title line, a header, aligned columns and
    an optional caption comparing against the paper's reported numbers. *)

type align = Left | Right

type t

val create : title:string -> header:(string * align) list -> t
(** New table with the given column headers. *)

val row : t -> string list -> unit
(** Append a row; short rows are padded with empty cells. *)

val caption : t -> string -> unit
(** Add a caption line printed below the table. *)

val print : t -> unit
(** Render to stdout. *)

val to_string : t -> string
(** Render to a string. *)

val save_csv : t -> string -> unit
(** [save_csv t path] writes the comma-separated rendering (header + rows;
    captions omitted) to [path]; cells containing commas or quotes are
    quoted. *)

val pct : float -> string
(** Format a percentage with one decimal, e.g. ["3.5%"]. *)

val fl : ?dec:int -> float -> string
(** Format a float with [dec] decimals (default 2). *)

val times : float -> string
(** Format a speedup, e.g. ["1.57x"]. *)
