(** Deployed "spot" software mitigations (paper §9.1 comparison).

    KPTI separates user and kernel page tables — modelled as an extra
    PCID-backed CR3 switch cost on every kernel entry and exit.  Retpoline rewrites indirect
    branches to returns that never consult the BTB — modelled as the
    pipeline's retpoline mode (indirect calls stall fetch until resolution).
    Both are config transformers; they protect only Meltdown/Spectre-v2
    respectively and leave every other variant open. *)

val retpoline : Pv_uarch.Pipeline.config -> Pv_uarch.Pipeline.config

val kpti_retpoline : Pv_uarch.Pipeline.config -> Pv_uarch.Pipeline.config
(** Retpoline plus KPTI's CR3 switches: 70 more cycles on every kernel
    entry and 60 more on every exit. *)
