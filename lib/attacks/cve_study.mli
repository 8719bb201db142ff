(** The paper's study of speculative-execution vulnerabilities in the Linux
    kernel (Table 4.1): nine rows classifying CVEs and academic attacks into
    the two attack primitives of the taxonomy, annotated with the mitigation
    failure mode and the origin of the vulnerability. *)

type primitive =
  | Unauthorized_data_access  (** Spectre-v1-like *)
  | Control_flow_hijack  (** Spectre v2 / RSB / Retbleed / BHI *)

type insufficiency = Not_applicable | Hardware | Software | Misuse

type row = {
  index : int;
  primitive : primitive;
  insufficiency : insufficiency;
  references : string list;  (** CVE ids / papers *)
  description : string;
  origin : string;
}

val rows : row list

val primitive_name : primitive -> string
val insufficiency_name : insufficiency -> string
